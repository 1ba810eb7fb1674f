"""The model contract: every hook check, run on each case of one registry.

A model under test is one case of ``CASES``, and each check runs on every
case that carries its inputs.  Checks of one model's closed form, factor
form, oracles and moments stay in ``test_models.py``, which takes its
shared inputs from here.
"""

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest

import margrid as mg

from conftest import ASYM_TABLE, point_draws

#: draws of the toy-diagnose fit (64 points, 256 draws each): enough that
#: its log-weights come in several cache-sized tiles
TOY_TILED_DRAWS = 16384


@dataclass(frozen=True)
class Case:
    """A model, the grid its sampler is bound to, the draws per grid point
    of the Fisher identity (0: not run), the lambda values every hook must
    reject by the message that names why, the lambda of the one-point draw
    and gradient checks, the (thetas, points) inputs of the column contract
    by id, and the points of the batched exact marginal."""

    model: mg.Model
    grid: mg.HyperGrid
    draws: int = 0
    bad: dict = field(default_factory=dict)
    probe: tuple = ()
    columns: dict = field(default_factory=dict)
    exact: np.ndarray | None = None


def gp_draws_and_points(model, seed):
    """Draws from a 3x3 log grid plus off-grid points sharing and not
    sharing its tau2 values."""
    grid = mg.make_regular_grid(mg.Domain([0.3, 0.3], [3.0, 3.0]), [3, 3], "log")
    thetas = mg.draw_sample_bank(model, grid, 16, master_seed=seed).thetas
    extra = np.array([[0.7, grid.axes[1][0]], [2.2, grid.axes[1][2]], [1.3, 0.45], [0.4, 2.6]])
    return thetas, np.vstack([grid.points, extra])


def gp_surface_case():
    """The benchmark's GP surface: 64 draws at each point of a 12x12 log
    grid against the 24x24 evaluation grid."""
    x, y = mg.make_synthetic_gp_dataset(16, 7)
    model = mg.GpRegressionModel(x, y)
    domain = mg.Domain([0.1, 0.1], [10.0, 10.0])
    grid = mg.make_regular_grid(domain, [12, 12], "log")
    thetas = mg.draw_sample_bank(model, grid, 64, master_seed=7).thetas
    return model, thetas, mg.make_regular_grid(domain, [24, 24], "log").points


def _line(m):
    return mg.make_regular_grid(mg.Domain(-2.0, 2.0), m)


def _cases():
    toy = mg.ToyBimodalModel(y=1.0, q=2.0, tau=2.0)
    tiled = np.random.default_rng(3).normal(0.0, 1.5, TOY_TILED_DRAWS)
    gp = mg.GpRegressionModel(*mg.make_synthetic_gp_dataset(n=8, seed=3))
    # GP columns in the given order, permuted, repeated and with every tau2 distinct
    thetas, points = gp_draws_and_points(gp, 6)
    orders = {"given": points, "permuted": points[np.random.default_rng(1).permutation(13)],
              "repeats": points[np.r_[np.arange(13), [0, 4, 4, 12]]],
              "distinct-tau2": points + np.arange(13)[:, None] * np.array([0.0, 1e-3])}
    surface, bank, surface_points = gp_surface_case()
    asym = mg.DiscreteModel(ASYM_TABLE)
    # zero entries and a nonflat prior, atoms repeated and out of order
    repeats = mg.DiscreteModel(ASYM_TABLE[:, [0, 1, 0]] + [[0, 0, 1]] * 5,
                               atom_values=[0.0, 0.5, 1.0], prior=[1.0, 2.0, 3.0])
    # 40 theta-atoms, more than numpy's pairwise summation unrolls, so a
    # mass summed down the table rounds apart from each column's own sum
    rng = np.random.default_rng(0)
    table = rng.random((40, 9)) * (rng.random((40, 9)) < 0.7) + 1e-3
    atoms = np.sort(rng.normal(size=9))
    masses = mg.DiscreteModel(table, atoms, rng.random(9) + 0.1)
    zeroed = np.random.default_rng(0).random((6, 5))
    zeroed[2, 1] = 0.0
    wide = mg.DiscreteModel(zeroed)
    return {
        # toy draws against the reversed grid and two off-grid values
        "toy": Case(toy, _line(8), probe=(0.4,),
                    bad={"must be finite": (np.nan, np.inf), "one-dimensional": ((1.0, 2.0),)},
                    columns={"toy": (np.linspace(-2.0, 2.0, 11),
                                     np.vstack([_line(8).points[::-1], [[0.3], [-1.7]]])),
                             "toy-layout": (np.linspace(-2.0, 2.0, 7),
                                            np.linspace(-1.0, 1.0, 5)[:, None])}),
        "toy-diagnose": Case(mg.ToyBimodalModel(y=1.0, q=64.0, tau=16.0), _line(32), draws=2048,
                             columns={f"toy-tiles-{m}": (tiled, _line(m).points)
                                      for m in (33, 256)},
                             exact=_line(256).points),
        **{f"toy-tau{tau:.0f}": Case(mg.ToyBimodalModel(y=1.0, q=64.0, tau=tau), _line(16))
           for tau in (100.0, 1000.0)},
        "gp-2x2": Case(gp, mg.make_regular_grid(mg.Domain([0.5, 0.5], [2.0, 2.0]), (2, 2), "log"),
                       probe=(1.3, 0.7),
                       bad={"finite positive pair": (
                           (1.0, -1.0), (0.0, 1.0), (1.0,), (1.0, 1.0, 1.0), (np.nan, 1.0),
                           (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf))},
                       columns={"gp-3x3+4": gp_draws_and_points(gp, 4),
                                "gp-layout": gp_draws_and_points(gp, 2),
                                **{f"gp-{k}": (thetas, p) for k, p in orders.items()}}),
        # gp-surface's evaluation grid against every eighth draw of its bank
        "gp-surface": Case(surface, mg.make_regular_grid(
                               mg.Domain([0.1, 0.1], [10.0, 10.0]), [6, 6], "log"), draws=2048,
                           columns={"gp-24x24": (bank[::8], surface_points)},
                           exact=surface_points),
        "asym": Case(asym, asym.grid(), probe=(1.0,),
                     bad={"does not match any model atom": (0.25, np.nan, np.inf),
                          "one-dimensional": ((0.0, 1.0),)},
                     columns={"asym": (np.array([0, 4, 2, 1]), asym.grid().points)}),
        "discrete": Case(repeats, repeats.grid(), columns={"discrete": (
            np.array([0, 4, 2, 1, 3, 0, 2, 4]), np.array([[1.0], [0.0], [0.5], [1.0], [0.0]]))}),
        "discrete-40x9": Case(masses, masses.grid(), exact=atoms[:, None]),
        # a larger table with a zero entry
        "discrete-6x5": Case(wide, wide.grid()),
    }


CASES = _cases()


def _having(has):
    return [name for name, case in CASES.items() if has(case)]


def factor_grads(model, thetas, points):
    """The gradients of ``log_weight_factors`` as one (N, M, p) array: each
    group's product of gradient factors, term by term in order, so that an
    entry depends only on its own draw's statistics and its own point's
    coefficients."""
    out = np.full((len(thetas), len(points), points.shape[1]), np.nan)
    for cols, _, _, dstats, dcoefs in model.log_weight_factors(thetas, points, grads=True):
        out[:, cols] = dstats[0][:, None, None] * dcoefs[0]
        for stat, coef in zip(dstats[1:], dcoefs[1:]):
            out[:, cols] += stat[:, None, None] * coef
    return out


def gather_tiles(model, thetas, points, grads, shift=None):
    """Scatter a curve's column tiles from ``log_weight_tiles`` (with a zero
    shift by default) back into a whole matrix, each as it is yielded (a
    tile is valid until the next one is requested), checking that each
    tile is a C-ordered array of its shape, each gradient statistic a float
    array of one value per draw, and that the tiles cover every column
    once; returns (shifted log-weights, per-column gradient factors (dstats
    stacked as an (N, k) matrix, dcoefs column) or None, number of
    tiles)."""
    if shift is None:
        shift = np.zeros(len(thetas))
    logw = np.full((len(thetas), len(points)), np.nan)
    factors = [None] * len(points) if grads else None
    seen, count = [], 0
    for cols, block, grad in mg.models.log_weight_tiles(model, thetas, points, shift=shift,
                                                        grads=grads):
        assert block.flags.c_contiguous and block.shape == (len(thetas), len(cols))
        logw[:, cols] = block
        if grads:
            dstats, dcoefs = grad
            assert len(dstats) == len(dcoefs) and dcoefs.dtype == float
            assert all(stat.dtype == float and stat.shape == (len(thetas),) for stat in dstats)
            assert dcoefs.shape[1:] == (len(cols), points.shape[1])
            dstats = np.column_stack(dstats)
            for i, j in enumerate(cols):
                factors[j] = dstats, dcoefs[:, i:i + 1].copy()
        else:
            assert grad is None
        seen.extend(cols)
        count += 1
    assert sorted(seen) == list(range(len(points)))
    return logw, factors, count


COLUMNS = [(name, key) for name, case in CASES.items() for key in case.columns]


@pytest.mark.parametrize("name,key", COLUMNS, ids=[key for _, key in COLUMNS])
def test_log_weight_columns_are_one_point_calls(name, key):
    # the wide matrix is a fresh C-ordered float array (so the callers'
    # np.ascontiguousarray makes no copy) whose every column is the bits of
    # a one-point call, whatever else the call holds; the factors' arrays
    # are C-ordered floats of their shapes, and their groups hold each point
    # once, in increasing order; a curve's tiles, one per group unless the
    # draws are many, scatter back into the whole matrix minus the shift,
    # bit for bit, and each column's gradient factors are the bits of
    # one-point tiles
    model = CASES[name].model
    thetas, points = CASES[name].columns[key]
    matrix = model.log_weight_matrix(thetas, points)
    assert matrix.shape == (len(thetas), len(points))
    assert matrix.dtype == float and matrix.flags.c_contiguous
    assert np.ascontiguousarray(matrix, dtype=float) is matrix
    for j, lam in enumerate(points):
        np.testing.assert_array_equal(
            matrix[:, j], model.log_weight_matrix(thetas, lam[None])[:, 0])
    grads = model.has_log_weight_factors
    groups = list(model.log_weight_factors(thetas, points, grads=True)) if grads else []
    for cols, stats, coefs, dstats, dcoefs in groups:
        assert np.all(np.diff(cols) > 0)
        assert len(stats) == len(coefs) and len(dstats) == len(dcoefs)
        for stat in (*stats, *dstats):
            assert stat.dtype == float and stat.shape == (len(thetas),)
        assert coefs.shape == (len(coefs), len(cols))
        assert dcoefs.shape == (len(dcoefs), len(cols), points.shape[1])
        for factor in (coefs, dcoefs):
            assert factor.dtype == float and factor.flags.c_contiguous
            assert np.ascontiguousarray(factor, dtype=float) is factor
    if groups:
        assert sorted(np.concatenate([cols for cols, *_ in groups])) == list(range(len(points)))
    logw, factors, count = gather_tiles(model, thetas, points, grads=grads)
    tiles = max(len(groups), 1)  # a model without factors gives one tile
    assert count > tiles if len(thetas) == TOY_TILED_DRAWS else count == tiles
    np.testing.assert_array_equal(logw, matrix)
    shift = np.random.default_rng(2).normal(0.0, 10.0, len(thetas))
    shifted = gather_tiles(model, thetas, points, grads=False, shift=shift)[0]
    np.testing.assert_array_equal(shifted, matrix - shift[:, None])
    for (dstats, dcoefs), lam in zip(factors or (), points):
        (one_stats, one_coefs), = gather_tiles(model, thetas, lam[None, :], grads=True)[1]
        np.testing.assert_array_equal(dstats, one_stats)
        np.testing.assert_array_equal(dcoefs, one_coefs)


@pytest.mark.parametrize("name", CASES)
def test_gradient_flags(name):
    # whether a model has factors is whether its class defines the hook; a
    # model without them has no hyperparameter gradients and says so by
    # raising when a curve's tiles ask for them
    model, points = CASES[name].model, CASES[name].grid.points
    assert model.has_log_weight_factors is (
        type(model).log_weight_factors is not mg.Model.log_weight_factors)
    thetas = model.sampler(CASES[name].grid).draw(0, np.random.default_rng(0), 1)
    if model.has_log_weight_factors:
        assert factor_grads(model, thetas, points).shape == (1,) + points.shape
        return
    with pytest.raises(mg.GradientUnavailableError):
        list(mg.models.log_weight_tiles(model, thetas, points, shift=np.zeros(1), grads=True))
    with pytest.raises(NotImplementedError):
        next(model.log_weight_factors(thetas, points))


@pytest.mark.parametrize("name", _having(lambda case: case.bad))
def test_hooks_reject_a_bad_lambda_alike(name):
    # margrid's own message, for non-finite values too, neither a NaN curve
    # value nor a failure inside numpy, and the same from the log-weights,
    # the exact marginal and the sampler, which checks its grid's points
    model, grid = CASES[name].model, CASES[name].grid
    thetas = model.sampler(grid).draw(0, np.random.default_rng(0), 2)
    for message, lams in CASES[name].bad.items():
        for lam in lams:
            raised = set()
            for call in (lambda: model.log_weight_matrix(thetas, [lam]),
                         lambda: model.exact_log_u(lam),
                         lambda: model.sampler(SimpleNamespace(points=np.atleast_2d(lam)))):
                with pytest.raises((ValueError, mg.GridError), match=message) as exc:
                    call()
                raised.add((type(exc.value), str(exc.value)))
            assert len(raised) == 1, raised
            # beside a good point: numpy's own error where the two are ragged
            with pytest.raises((ValueError, mg.GridError)):
                model.log_weight_matrix(thetas, [grid.points[0], np.atleast_1d(lam)])


@pytest.mark.parametrize("name", _having(lambda case: case.exact is not None))
def test_exact_log_u_of_a_batch_is_its_one_point_calls(name):
    # one float per point, each the bits of that point's own call, whatever
    # else the batch holds: here every point twice, shuffled
    model, points = CASES[name].model, CASES[name].exact
    points = points[np.random.default_rng(3).permutation(np.tile(np.arange(len(points)), 2))]
    got = model.exact_log_u(points)
    assert got.shape == (len(points),) and got.dtype == float
    np.testing.assert_array_equal(got, np.concatenate([model.exact_log_u(p) for p in points]))


@pytest.mark.parametrize("name", CASES)
def test_draw_rows_of_one_row_is_one_draw(name):
    # the same bits as draw's one draw at that point, and the generator
    # left in the same state
    sampler = CASES[name].model.sampler(CASES[name].grid)
    rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
    for i in range(len(CASES[name].grid)):
        one = sampler.draw_rows(np.array([i]), rng)
        ref = sampler.draw(i, ref_rng, 1)
        assert one.dtype == ref.dtype
        np.testing.assert_array_equal(one, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_gp_draw_rows_is_one_draw_per_row():
    # the GP sampler's own draw_rows: many rows give the bits of one draw
    # per row, since several rows in one product would round apart on some
    # BLAS kernels, and the lockstep chains must match the one-chain oracle
    # on every kernel
    case = CASES["gp-2x2"]
    sampler = case.model.sampler(case.grid)
    rows = np.random.default_rng(2).integers(0, len(case.grid), 12)
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    draws = sampler.draw_rows(rows, rng)
    ref = np.concatenate([sampler.draw(i, ref_rng, 1) for i in rows])
    np.testing.assert_array_equal(draws, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("name", _having(lambda case: case.probe))
def test_sampler_is_reproducible(name):
    a = point_draws(CASES[name].model, CASES[name].probe, np.random.default_rng(99), 64)
    b = point_draws(CASES[name].model, CASES[name].probe, np.random.default_rng(99), 64)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("name", _having(
    lambda case: case.probe and case.model.has_log_weight_factors))
def test_gradient_factors_match_central_differences(name):
    model, lam = CASES[name].model, np.array(CASES[name].probe)
    thetas = point_draws(model, lam, np.random.default_rng(11), 3)
    h = 1e-6
    grad = factor_grads(model, thetas, lam[None, :])[:, 0]
    for r, step in enumerate(h * np.eye(lam.size)):
        fd = (model.log_weight_matrix(thetas, [lam + step])
              - model.log_weight_matrix(thetas, [lam - step]))[:, 0] / (2 * h)
        np.testing.assert_allclose(grad[:, r], fd, rtol=1e-5)


def fisher_z(case, seed=1):
    """z-scores, shape (L, p), of the Fisher identity E_pi_lam[d log(psi_lam
    p(lam))/d lam] = d log u/d lam at every grid point and coordinate: the
    mean gradient over ``case.draws`` sampler draws, less a central
    difference of ``exact_log_u`` at step 1e-5 max(|lam|, 1), over the
    mean's Monte Carlo standard error."""
    model, grid = case.model, case.grid
    sampler = model.sampler(grid)
    rng = np.random.default_rng(seed)
    grads = np.stack([factor_grads(model, sampler.draw(i, rng, case.draws), lam[None])[:, 0]
                      for i, lam in enumerate(grid.points)])
    steps = 1e-5 * np.maximum(np.abs(grid.points), 1.0)
    moved = grid.points + np.stack([sign * np.eye(grid.dim)[r] * steps
                                    for sign in (1, -1) for r in range(grid.dim)])
    up, down = model.exact_log_u(moved.reshape(-1, grid.dim)).reshape(2, grid.dim, -1)
    slope = ((up - down) / (2 * steps.T)).T
    return (grads.mean(axis=1) - slope) / (grads.std(axis=1, ddof=1) / np.sqrt(case.draws))


@pytest.mark.parametrize("name", _having(lambda case: case.draws))
def test_fisher_identity_holds_at_every_grid_point(name):
    # ties the sampler, the gradient factors and the exact marginal together
    # with no closed form per model; it sees only what the gradient depends
    # on (the toy's is linear in theta, so its local spread is left to the
    # moment test).  Seed 1 reads max |z| 1.47 (toy) and 3.24 (GP), seeds
    # 1-3 1.47-2.07 and 2.25-3.24, alike on the default, Haswell and
    # Sandybridge kernels
    z = fisher_z(CASES[name])
    assert np.all(np.abs(z) <= 4.0), np.abs(z).max()
