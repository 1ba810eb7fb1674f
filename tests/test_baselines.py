"""Griddy Gibbs chain baseline and the grid samplers it draws from."""

import numpy as np
import pytest

import margrid as mg


def griddy_gibbs_oracle(model, grid, n_iter, rng, burn_in=0, init_state=None):
    """One griddy Gibbs chain, one unbatched draw and grid move per iteration.

    Per iteration: the grid sampler's ``draw(state, rng, 1)``, a one-row
    log-weight matrix, then ``rng.gumbel(size=L)`` and the Gumbel-max move.  One
    chain of :func:`margrid.run_griddy_chains` must reproduce these
    visits exactly.
    """
    L = len(grid)
    points = grid.points
    start = L // 2 if init_state is None else int(init_state)
    state = start
    sampler = model.sampler(grid)
    visits = np.zeros(L, dtype=int)
    for t in range(n_iter):
        theta = sampler.draw(state, rng, 1)
        logw = np.asarray(model.log_weight_matrix(theta, points), dtype=float).ravel()
        if not np.any(np.isfinite(logw)):
            raise mg.DegenerateWeightError(f"iteration {t}")
        state = int(np.argmax(logw + rng.gumbel(size=L)))
        if t >= burn_in:
            visits[state] += 1
    return mg.GibbsTrace(visits=visits, n_iter=n_iter, burn_in=burn_in,
                         init_state=start)


def _equivalence_case(case, request):
    """(model, grid) of one stream-equivalence case."""
    if case.startswith("toy-tau"):
        return (mg.ToyBimodalModel(y=1.0, q=64.0, tau=float(case[len("toy-tau"):])),
                mg.make_regular_grid(mg.Domain(-2.0, 2.0), 16))
    if case == "gp-2x2":
        x, y = mg.make_synthetic_gp_dataset(n=8, seed=3)
        return (mg.GpRegressionModel(x, y),
                mg.make_regular_grid(mg.Domain([0.5, 0.5], [2.0, 2.0]), (2, 2),
                                     scale="log"))
    if case == "asym":
        model = request.getfixturevalue("asym_model")
    else:  # a larger table with a zero entry: "discrete-6x5"
        table = np.random.default_rng(0).random((6, 5))
        table[2, 1] = 0.0
        model = mg.DiscreteModel(table)
    return model, model.grid()


def test_gibbs_single_point_grid_counts_everything(toy_model):
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 1)
    trace, = mg.run_griddy_chains(toy_model, grid, 50, np.random.default_rng(0), 1)
    assert trace.visits.tolist() == [50]
    np.testing.assert_allclose(trace.stationary_estimate(), [1.0])


def test_gibbs_burn_in_accounting(toy_model, toy_grid):
    for n_chains in (1, 3):
        def run(n_iter, **kwargs):
            return mg.run_griddy_chains(toy_model, toy_grid, n_iter, np.random.default_rng(1),
                                        n_chains, **kwargs)

        traces = run(40, burn_in=15)
        assert len(traces) == n_chains
        for trace in traces:
            assert trace.kept == 25
            assert trace.visits.sum() == 25
            assert trace.stationary_estimate().sum() == pytest.approx(8.0)
        with pytest.raises(ValueError):
            run(10, burn_in=10)
        with pytest.raises(ValueError):
            run(10, init_state=99)
    with pytest.raises(ValueError):
        mg.run_griddy_chains(toy_model, toy_grid, 10, np.random.default_rng(1), 0)


def test_gibbs_is_reproducible(toy_model, toy_grid):
    a, = mg.run_griddy_chains(toy_model, toy_grid, 60, np.random.default_rng(7), 1)
    b, = mg.run_griddy_chains(toy_model, toy_grid, 60, np.random.default_rng(7), 1)
    np.testing.assert_array_equal(a.visits, b.visits)
    assert a.init_state == len(toy_grid) // 2


def test_gibbs_consistent_on_discrete_oracle(asym_model):
    # Long chain on the two-atom model: visit frequencies approach the
    # exact stationary law (8/7, 6/7) because the latent atoms overlap.
    grid = asym_model.grid()
    trace, = mg.run_griddy_chains(
        asym_model, grid, 60_000, np.random.default_rng(3), 1, burn_in=1000)
    est = trace.stationary_estimate()
    np.testing.assert_allclose(est, [8.0 / 7.0, 6.0 / 7.0], atol=0.05)


def test_gibbs_traps_in_one_mode_when_local_densities_separate():
    # With tight precisions the two marginal modes communicate only
    # through latent values the sampler essentially never draws: one
    # side of the grid ends up with all the visits.
    model = mg.ToyBimodalModel(y=1.0, q=1000.0, tau=1000.0)
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 8)
    trace, = mg.run_griddy_chains(
        model, grid, 2000, np.random.default_rng(11), 1, init_state=1)
    signs = np.sign(grid.points[:, 0])
    neg = trace.visits[signs < 0].sum()
    pos = trace.visits[signs > 0].sum()
    assert min(neg, pos) == 0
    assert max(neg, pos) == 2000


@pytest.mark.parametrize("case", ["toy-tau100", "toy-tau1000", "asym", "gp-2x2"])
def test_lockstep_chains_match_the_one_chain_oracle(case, request):
    # one chain draws as the unbatched loop does, bit for bit and to the
    # generator state; the GP sampler's draw_rows takes one draw per row
    model, grid = _equivalence_case(case, request)
    n_iter = 40 if case == "gp-2x2" else 300
    for seed in (5, 6, 7):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        one, = mg.run_griddy_chains(model, grid, n_iter, rng, 1, burn_in=10)
        ref = griddy_gibbs_oracle(model, grid, n_iter, ref_rng, burn_in=10)
        np.testing.assert_array_equal(one.visits, ref.visits)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    # chains sharing one stream each count their own kept iterations
    traces = mg.run_griddy_chains(model, grid, n_iter, np.random.default_rng(5), 3,
                                  burn_in=10)
    assert [trace.visits.sum() for trace in traces] == [n_iter - 10] * 3
    if case == "asym":
        # the chain-averaged visits approach the exact law (8/7, 6/7): 32
        # chains x 2000 kept iterations, whose standard error is below 0.01
        traces = mg.run_griddy_chains(model, grid, 2100, np.random.default_rng(3), 32,
                                      burn_in=100)
        assert len({tuple(trace.visits) for trace in traces}) > 1  # not one chain 32 times
        visits = np.sum([trace.visits for trace in traces], axis=0)
        np.testing.assert_allclose(visits * (2 / visits.sum()), [8 / 7, 6 / 7], atol=0.05)


def _toy_row_law(model, points):
    """Mean and variance of pi_lam per row of points, from ``_local_mixture``."""
    w, m_plus, m_minus, sd = model._local_mixture(points[:, 0])
    mean = w * m_plus + (1 - w) * m_minus
    return mean, sd ** 2 + w * (1 - w) * (m_plus - m_minus) ** 2


@pytest.mark.parametrize("case", ["toy-tau100", "asym", "discrete-6x5"])
def test_draw_rows_is_the_per_row_draw(case, request):
    model, grid = _equivalence_case(case, request)
    sampler = model.sampler(grid)
    # (a) a one-row call is draw's one draw at that point: the same bits, and
    # the generator left in the same state
    rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
    for i in range(len(grid)):
        one = sampler.draw_rows(np.array([i]), rng)
        ref = sampler.draw(i, ref_rng, 1)
        assert one.dtype == ref.dtype
        np.testing.assert_array_equal(one, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # (b) many rows, in shuffled order: each row follows its own local law,
    # checked within 5 Monte Carlo standard errors per grid point
    n = 4000
    rows = np.random.default_rng(2).permutation(np.repeat(np.arange(len(grid)), n))
    draws = sampler.draw_rows(rows, np.random.default_rng(3))
    assert draws.shape == (rows.size,)
    if case.startswith("toy"):
        mean, var = _toy_row_law(model, grid.points)
        for i in range(len(grid)):
            x = draws[rows == i]
            dev = x - x.mean()
            se_var = np.sqrt((np.mean(dev ** 4) - np.mean(dev ** 2) ** 2) / n)
            assert abs(x.mean() - mean[i]) < 5 * np.sqrt(var[i] / n)
            assert abs(x.var() - var[i]) < 5 * se_var
    else:
        for i, col in enumerate(model._columns(grid.points)):
            law = model.psi_table[:, col] / model.psi_table[:, col].sum()
            freq = np.bincount(draws[rows == i], minlength=law.size) / n
            assert np.all(np.abs(freq - law) <= 5 * np.sqrt(law * (1 - law) / n))


def test_gp_draw_rows_is_one_draw_per_row(request):
    # many rows give the bits of one draw per row: several rows in one
    # product would round apart on some BLAS kernels, and the lockstep
    # chains must match the one-chain oracle on every kernel
    model, grid = _equivalence_case("gp-2x2", request)
    sampler = model.sampler(grid)
    rows = np.random.default_rng(2).integers(0, len(grid), 12)
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    draws = sampler.draw_rows(rows, rng)
    ref = np.concatenate([sampler.draw(i, ref_rng, 1) for i in rows])
    np.testing.assert_array_equal(draws, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_discrete_chains_never_look_a_state_up(asym_model, monkeypatch):
    # the 2-point grid is looked up once for its sampler and once per
    # iteration for its log-weights; the 4 chain states are grid indices,
    # never looked up
    looked_up = []
    columns = asym_model._columns

    def counting(points):
        looked_up.append(len(points))
        return columns(points)

    monkeypatch.setattr(asym_model, "_columns", counting)
    mg.run_griddy_chains(asym_model, asym_model.grid(), 50, np.random.default_rng(0), 4)
    assert looked_up == [2] * 51


class _UniformSampler(mg.GridSampler):
    def draw_rows(self, rows, rng):
        return rng.random(len(rows))


class _DeadAboveCutoff(mg.Model):
    """Uniform latent draws; a draw above the cutoff weighs zero everywhere."""

    def __init__(self, cutoff):
        self.cutoff = cutoff

    def sampler(self, grid):
        return _UniformSampler()

    def log_weight_matrix(self, thetas, points):
        alive = np.asarray(thetas)[:, None] < self.cutoff
        return np.where(alive, 0.0, -np.inf) + np.zeros(len(points))


def test_lockstep_degenerate_draw_names_iteration_and_chain():
    model = _DeadAboveCutoff(0.97)
    grid = mg.make_regular_grid(mg.Domain(0.0, 1.0), 4)
    n_chains, seed = 3, 3
    # replay the one stream: per iteration, one uniform per chain, then the
    # (R, L) Gumbel variates
    rng = np.random.default_rng(seed)
    for t in range(200):
        dead = np.flatnonzero(rng.random(n_chains) >= model.cutoff)
        if dead.size:
            break
        rng.gumbel(size=(n_chains, len(grid)))
    r = dead[0]
    assert r > 0  # the error must not just report chain 0
    with pytest.raises(mg.DegenerateWeightError,
                       match=rf"^iteration {t}, chain {r}: .*zero weight"):
        mg.run_griddy_chains(model, grid, 200, np.random.default_rng(seed), n_chains)
