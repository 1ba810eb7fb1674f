"""Griddy Gibbs chain and nearest-neighbor curve baseline."""

import numpy as np
import pytest

import margrid as mg


def griddy_gibbs_oracle(model, grid, n_iter, rng, burn_in=0, init_state=None):
    """One griddy Gibbs chain, one unbatched draw and grid move per iteration.

    Per iteration: ``sample_local(point, rng, 1)``, a one-row log-weight
    matrix, then ``rng.gumbel(size=L)`` and the Gumbel-max move.  The
    lockstep chains must reproduce these visits exactly.
    """
    L = len(grid)
    points = grid.points
    start = L // 2 if init_state is None else int(init_state)
    state = start
    visits = np.zeros(L, dtype=int)
    for t in range(n_iter):
        theta = model.sample_local(points[state], rng, 1)
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
    trace = mg.run_griddy_gibbs(toy_model, grid, 50, np.random.default_rng(0))
    assert trace.visits.tolist() == [50]
    np.testing.assert_allclose(trace.stationary_estimate(), [1.0])


def test_gibbs_burn_in_accounting(toy_model, toy_grid):
    def one_chain(n_iter, **kwargs):
        return [mg.run_griddy_gibbs(toy_model, toy_grid, n_iter,
                                    np.random.default_rng(1), **kwargs)]

    def three_chains(n_iter, **kwargs):
        return mg.run_griddy_chains(toy_model, toy_grid, n_iter,
                                    [np.random.default_rng(s) for s in (1, 2, 3)],
                                    **kwargs)

    for run, n_traces in ((one_chain, 1), (three_chains, 3)):
        traces = run(40, burn_in=15)
        assert len(traces) == n_traces
        for trace in traces:
            assert trace.kept == 25
            assert trace.visits.sum() == 25
            assert trace.stationary_estimate().sum() == pytest.approx(8.0)
        with pytest.raises(ValueError):
            run(10, burn_in=10)
        with pytest.raises(ValueError):
            run(10, init_state=99)
    with pytest.raises(ValueError):
        mg.run_griddy_chains(toy_model, toy_grid, 10, [])


def test_gibbs_is_reproducible(toy_model, toy_grid):
    a = mg.run_griddy_gibbs(toy_model, toy_grid, 60, np.random.default_rng(7))
    b = mg.run_griddy_gibbs(toy_model, toy_grid, 60, np.random.default_rng(7))
    np.testing.assert_array_equal(a.visits, b.visits)
    assert a.init_state == len(toy_grid) // 2


def test_gibbs_consistent_on_discrete_oracle(asym_model):
    # Long chain on the two-atom model: visit frequencies approach the
    # exact stationary law (8/7, 6/7) because the latent atoms overlap.
    grid = asym_model.grid()
    trace = mg.run_griddy_gibbs(
        asym_model, grid, 60_000, np.random.default_rng(3), burn_in=1000)
    est = trace.stationary_estimate()
    np.testing.assert_allclose(est, [8.0 / 7.0, 6.0 / 7.0], atol=0.05)


def test_gibbs_traps_in_one_mode_when_local_densities_separate():
    # With tight precisions the two marginal modes communicate only
    # through latent values the sampler essentially never draws: one
    # side of the grid ends up with all the visits.
    model = mg.ToyBimodalModel(y=1.0, q=1000.0, tau=1000.0)
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 8)
    trace = mg.run_griddy_gibbs(
        model, grid, 2000, np.random.default_rng(11), init_state=1)
    signs = np.sign(grid.points[:, 0])
    neg = trace.visits[signs < 0].sum()
    pos = trace.visits[signs > 0].sum()
    assert min(neg, pos) == 0
    assert max(neg, pos) == 2000


@pytest.mark.parametrize("case", ["toy-tau100", "toy-tau1000", "asym", "gp-2x2"])
def test_lockstep_chains_match_the_one_chain_oracle(case, request):
    # the GP model keeps the default, looping sample_local_many
    model, grid = _equivalence_case(case, request)
    n_iter = 40 if case == "gp-2x2" else 300
    seeds = (5, 6, 7)
    rngs = [np.random.default_rng(s) for s in seeds]
    traces = mg.run_griddy_chains(model, grid, n_iter, rngs, burn_in=10)
    for seed, rng, trace in zip(seeds, rngs, traces):
        ref_rng = np.random.default_rng(seed)
        ref = griddy_gibbs_oracle(model, grid, n_iter, ref_rng, burn_in=10)
        np.testing.assert_array_equal(trace.visits, ref.visits)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    one = mg.run_griddy_gibbs(model, grid, n_iter, np.random.default_rng(seeds[0]),
                              burn_in=10)
    np.testing.assert_array_equal(one.visits, traces[0].visits)


@pytest.mark.parametrize("case", ["toy-tau100", "asym", "discrete-6x5"])
def test_sample_local_many_is_the_per_row_draw(case, request):
    model, grid = _equivalence_case(case, request)
    points = grid.points[np.random.default_rng(1).integers(len(grid), size=300)]
    many_rngs = [np.random.default_rng(s) for s in range(points.shape[0])]
    one_rngs = [np.random.default_rng(s) for s in range(points.shape[0])]
    for _ in range(3):
        many = model.sample_local_many(points, many_rngs)
        one = np.concatenate([model.sample_local(p, g, 1)
                              for p, g in zip(points, one_rngs)])
        assert many.dtype == one.dtype
        np.testing.assert_array_equal(many, one)
    for a, b in zip(many_rngs, one_rngs):
        assert a.bit_generator.state == b.bit_generator.state


class _DeadAboveCutoff(mg.Model):
    """Uniform latent draws; a draw above the cutoff weighs zero everywhere."""

    def __init__(self, cutoff):
        self.cutoff = cutoff

    def log_prior(self, lam):
        return 0.0

    def sample_local(self, lam, rng, size):
        return rng.random(size)

    def log_weight_matrix(self, thetas, points):
        alive = np.asarray(thetas)[:, None] < self.cutoff
        return np.where(alive, 0.0, -np.inf) + np.zeros(len(points))


def test_lockstep_degenerate_draw_names_iteration_and_chain():
    model = _DeadAboveCutoff(0.97)
    grid = mg.make_regular_grid(mg.Domain(0.0, 1.0), 4)
    seeds = (27, 28, 29)
    first = []
    for seed in seeds:
        with pytest.raises(mg.DegenerateWeightError) as err:
            griddy_gibbs_oracle(model, grid, 200, np.random.default_rng(seed))
        first.append(int(str(err.value).split()[1]))
    t = min(first)
    r = first.index(t)
    assert r > 0  # the error must not just report chain 0
    with pytest.raises(mg.DegenerateWeightError,
                       match=rf"^iteration {t}, chain {r}: .*zero weight"):
        mg.run_griddy_chains(model, grid, 200,
                             [np.random.default_rng(s) for s in seeds])


def test_nearest_neighbor_identity_on_same_grid(toy_grid):
    values = np.arange(8.0)
    out = mg.nearest_neighbor_extrapolate(values, toy_grid, toy_grid)
    np.testing.assert_array_equal(out, values)


def test_nearest_neighbor_hand_table():
    # 4 simulation points at 0.5, 1.0, 1.5, 2.0 extended to 8 evaluation
    # points at 0.25k; midpoints tie to the smaller simulation index.
    sim = mg.make_regular_grid(mg.Domain(0.0, 2.0), 4)
    ev = mg.make_regular_grid(mg.Domain(0.0, 2.0), 8)
    values = np.array([10.0, 20.0, 30.0, 40.0])
    out = mg.nearest_neighbor_extrapolate(values, sim, ev)
    np.testing.assert_array_equal(
        out, [10.0, 10.0, 10.0, 20.0, 20.0, 30.0, 30.0, 40.0])


def test_nearest_neighbor_log_scale_uses_working_coordinates():
    sim = mg.make_regular_grid(mg.Domain(1.0, 16.0), 2, scale="log")  # 4, 16
    ev = mg.make_regular_grid(mg.Domain(1.0, 16.0), 4, scale="log")  # 2,4,8,16
    values = np.array([1.0, 2.0])
    out = mg.nearest_neighbor_extrapolate(values, sim, ev)
    # log-midpoint of 4 and 16 is 8; ties go to the lower index.
    np.testing.assert_array_equal(out, [1.0, 1.0, 1.0, 2.0])


def test_nearest_neighbor_validates_inputs(toy_grid):
    with pytest.raises(ValueError):
        mg.nearest_neighbor_extrapolate(np.arange(3.0), toy_grid, toy_grid)
    log_ev = mg.make_regular_grid(mg.Domain(0.5, 2.0), 4, scale="log")
    with pytest.raises(ValueError):
        mg.nearest_neighbor_extrapolate(np.arange(8.0), toy_grid, log_ev)
