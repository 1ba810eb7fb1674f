import numpy as np
import pytest

import margrid as mg

_config = None
_notes = {}


def record_note(test_name: str, text: str) -> None:
    """Attach a short measurement summary to a test's PASS/FAIL line."""
    _notes[test_name] = text


def pytest_configure(config):
    global _config
    _config = config


@pytest.hookimpl(trylast=True)
def pytest_runtest_logreport(report):
    """One PASS/FAIL line with wall time for every acceptance check."""
    if _config is None or report.when != "call":
        return
    if "test_acceptance" not in report.nodeid:
        return
    terminal = _config.pluginmanager.get_plugin("terminalreporter")
    if terminal is None:
        return
    status = "PASS" if report.passed else "FAIL"
    name = report.nodeid.rsplit("::", 1)[-1]
    note = _notes.pop(name, "")
    suffix = f" | {note}" if note else ""
    terminal.ensure_newline()
    terminal.write_line(f"{name}: {status} ({report.duration:.2f} s){suffix}")

# Two 5-atom tables used as enumeration oracles throughout the suite.
#
# The asymmetric one has psi columns (2,1,1,0,0) and (0,0,1,1,1) over a
# uniform latent measure and a flat hyperprior, so everything is a short
# rational computation: the symmetrized overlaps are
#   s00 = 2^2/2 + 1 + 1/2 = 3.5      (atom denominators 2, 1, 2, 1, 1)
#   s01 = 1*1/2 = 0.5                (only atom 2 is shared)
#   s11 = 1/2 + 1 + 1 = 2.5
# giving row sums (4, 3), hence F01 = 0.5/4 = 1/8, F10 = 0.5/3 = 1/6 and
# u = (4, 3) * 2/7 = (8/7, 6/7) after normalizing to sum 2.
ASYM_TABLE = np.array([
    [2.0, 0.0],
    [1.0, 0.0],
    [1.0, 1.0],
    [0.0, 1.0],
    [0.0, 1.0],
])

# Mirror-symmetric variant: identical columns up to reversal, so the two
# stationary entries are equal and F01 == F10.
SYM_TABLE = np.array([
    [1.0, 0.0],
    [1.0, 0.0],
    [1.0, 1.0],
    [0.0, 1.0],
    [0.0, 1.0],
])


def point_draws(model, lam, rng, size):
    """``size`` local draws at one hyperparameter value, through the sampler
    of a one-point grid."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    grid = mg.HyperGrid(mg.Domain(lam - 1.0, lam + 1.0), lam[None, :])
    return model.sampler(grid).draw(0, rng, size)


@pytest.fixture
def count_spectra(monkeypatch):
    """Called with a GP model, returns the list of tau2 values at which the
    model then takes the spectrum of B(tau2), one entry per eigendecomposition."""
    def count(model):
        taken = []
        spectrum = model._spectrum

        def counting(tau2):
            taken.append(float(tau2))
            return spectrum(tau2)

        monkeypatch.setattr(model, "_spectrum", counting)
        return taken

    return count


@pytest.fixture
def asym_model():
    return mg.DiscreteModel(ASYM_TABLE)


@pytest.fixture
def sym_model():
    return mg.DiscreteModel(SYM_TABLE)


@pytest.fixture
def toy_model():
    return mg.ToyBimodalModel(y=1.0, q=2.0, tau=2.0)


@pytest.fixture
def toy_grid():
    return mg.make_regular_grid(mg.Domain(-2.0, 2.0), 8)


@pytest.fixture
def toy_fit(toy_model, toy_grid):
    bank = mg.draw_sample_bank(toy_model, toy_grid, np.full(8, 32), master_seed=404)
    return mg.fit_emus(bank, toy_model)
