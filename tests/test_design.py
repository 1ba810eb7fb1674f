"""Evaluation-grid reweighting, allocation weights, and the design loop."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import margrid as mg
from margrid import design
from margrid.design import (
    _bootstrap_allocation,
    _eval_grid_matrix,
    _traces,
    incremental_weights,
    optimal_weights,
    pivotal_sample,
    run_design_loop,
)

from conftest import SYM_TABLE

# Sim columns 0 and 2 cover every atom that column 1 touches, so the
# held-out middle column is exactly recoverable by reweighting.
WIDE_TABLE = np.array([
    [2.0, 1.0, 0.0],
    [1.0, 1.0, 0.0],
    [1.0, 1.0, 1.0],
    [0.0, 1.0, 1.0],
    [0.0, 0.0, 2.0],
])


def exhaustive_functional(model, columns=None):
    bank = mg.exhaustive_discrete_bank(model, columns)
    emus = mg.fit_emus(bank, model)
    return mg.FunctionalEstimate(emus, model)


# -- reweighting onto a finer grid ----------------------------------------


def test_extension_to_the_same_grid_is_identity(asym_model):
    fn = exhaustive_functional(asym_model)
    _, _, F, u = _eval_grid_matrix(fn, fn.emus.grid)
    np.testing.assert_allclose(F, fn.emus.transition, atol=1e-12)
    np.testing.assert_allclose(u, fn.emus.stationary, atol=1e-12)


def test_extension_recovers_held_out_column_exactly():
    model = mg.DiscreteModel(WIDE_TABLE)
    fn = exhaustive_functional(model, [0, 2])
    _, _, F, u = _eval_grid_matrix(fn, model.grid())

    F_exact, u_exact = mg.enumerate_discrete_transition(model)
    np.testing.assert_allclose(F, F_exact, atol=1e-12)
    # Reweighted values are on the raw scale of the fit; compare shapes.
    ratio = u / u_exact
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)


def test_extension_requires_sim_subset(asym_model):
    # the scorer's one entry point checks the subset before any weight
    fn = exhaustive_functional(asym_model)
    off = mg.HyperGrid(fn.emus.grid.domain, np.array([[0.0], [0.5]]))
    with pytest.raises(mg.GridError, match="simulation point 1 is not on"):
        optimal_weights(fn, off)


def require_subset_loop(sim_grid, eval_grid):
    """The per-point search that _require_subset replaces: each point's index."""
    sim, ev = sim_grid.points, eval_grid.points
    idx = np.empty(sim.shape[0], dtype=int)
    for i, lam in enumerate(sim):
        hits = np.nonzero(np.all(np.abs(ev - lam[None, :]) <= 1e-12, axis=1))[0]
        if hits.size == 0:
            raise mg.GridError(
                f"simulation point {i} is not on the evaluation grid; the "
                "reweighting identities need the simulation grid to be a subset"
            )
        idx[i] = hits[0]
    return idx


def subset_cases():
    """(simulation grid, evaluation grid, first missing point or None) by id."""
    line = mg.Domain(-2.0, 2.0)
    square = mg.Domain([0.1, 0.1], [10.0, 10.0])
    sim_2d = mg.make_regular_grid(square, [4, 4], "log")
    ev_2d = mg.make_regular_grid(square, [8, 8], "log")
    # one simulation point (index 5) left out of the evaluation grid
    keep = ~np.all(np.abs(ev_2d.points - sim_2d.points[5]) <= 1e-12, axis=1)
    return {
        "1-d": (mg.make_regular_grid(line, 8), mg.make_regular_grid(line, 16), None),
        "2-d": (sim_2d, ev_2d, None),
        # repeated evaluation points: the first copy is the hit
        "2-d-repeat": (sim_2d, mg.HyperGrid(
            square, np.vstack([ev_2d.points, ev_2d.points[:10]])[::-1]), None),
        "2-d-missing": (sim_2d, mg.HyperGrid(square, ev_2d.points[keep]), 5),
        "1-d-off": (mg.make_regular_grid(line, 8), mg.make_regular_grid(line, 15), 0),
    }


@pytest.mark.parametrize("case", list(subset_cases()))
def test_subset_indices_match_the_per_point_search(case):
    sim_grid, eval_grid, missing = subset_cases()[case]
    if missing is None:
        # both searches pass: every simulation point has an index
        expected = require_subset_loop(sim_grid, eval_grid)
        np.testing.assert_array_equal(eval_grid.points[expected], sim_grid.points)
        design._require_subset(sim_grid, eval_grid)
        return
    with pytest.raises(mg.GridError) as want:
        require_subset_loop(sim_grid, eval_grid)
    with pytest.raises(mg.GridError) as got:
        design._require_subset(sim_grid, eval_grid)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"simulation point {missing} ")


def extension_oracle(functional, eval_grid):
    """(a, u, local, F) rebuilt from the model, as the extension once did.

    Fresh log-weights of every cached sample against the evaluation grid;
    a takes its own log-sum-exp over the evaluation columns, b the fit's
    cached one over the simulation columns.
    """
    emus, model = functional.emus, functional.model
    thetas = emus.bank.thetas
    points = eval_grid.points
    loga = np.asarray(model.log_weight_matrix(thetas, points))
    a = np.exp(loga - logsumexp(loga, axis=1)[:, None])
    b = np.exp(loga - emus.lse[:, None])
    c = np.repeat(emus.stationary / emus.counts, emus.counts)
    u = b.T @ c
    F = (b * c[:, None]).T @ a / u[:, None]
    return a, u, (b * c[:, None]) / u, F


def toy_extension_case():
    model = mg.ToyBimodalModel(y=1.0, q=64.0, tau=16.0)
    eval_grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 129)
    sim_grid = mg.HyperGrid(domain=eval_grid.domain,
                            points=eval_grid.points[::8], scale=eval_grid.scale)
    bank = mg.draw_sample_bank(model, sim_grid, 64, 3)
    emus = mg.fit_emus(bank, model, on_degenerate="truncate")
    return mg.FunctionalEstimate(emus, model), eval_grid


def gp_extension_case():
    x, y = mg.make_synthetic_gp_dataset(16, 7)
    model = mg.GpRegressionModel(x, y)
    eval_grid = mg.make_regular_grid(
        mg.Domain([0.1, 0.1], [10.0, 10.0]), [11, 11], scale="log")
    # every second axis value on both axes: a 6 x 6 simulation grid
    on_sim = (np.indices((11, 11)).reshape(2, -1) % 2 == 0).all(axis=0)
    sim_grid = mg.HyperGrid(domain=eval_grid.domain,
                            points=eval_grid.points[on_sim], scale=eval_grid.scale)
    bank = mg.draw_sample_bank(model, sim_grid, 32, 5)
    emus = mg.fit_emus(bank, model)
    return mg.FunctionalEstimate(emus, model), eval_grid


def local_weights(a, k):
    """The (S, M) weights a k / (a'k) of each sample under each local density."""
    return a * k[:, None] / (a.T @ k)


@pytest.mark.parametrize("case", [toy_extension_case, gp_extension_case],
                         ids=["toy-129", "gp-11x11"])
def test_extension_reads_the_fitted_curve(case):
    fn, eval_grid = case()
    a_ext, k, F_ext, u_ext = _eval_grid_matrix(fn, eval_grid)
    a, u, local, F = extension_oracle(fn, eval_grid)
    assert np.max(np.abs(a_ext - a)) <= 1e-14
    np.testing.assert_allclose(u_ext, u, rtol=1e-13, atol=0)
    # u is the fitted curve itself, as the block-wise query reduces it
    np.testing.assert_allclose(u_ext, fn.marginal_many(eval_grid.points),
                               rtol=1e-13, atol=0)
    # subnormal entries (GP weights far from a point) carry no relative
    # precision, so they are held to the smallest normal number instead
    np.testing.assert_allclose(local_weights(a_ext, k), local, rtol=1e-13,
                               atol=np.finfo(float).tiny)
    assert np.max(np.abs(F_ext - F)) <= 1e-13
    np.testing.assert_allclose(F_ext.sum(axis=1), 1.0, atol=1e-13)
    # the curve values are F's stationary vector, and F is reversible with
    # respect to them, so scoring needs no stationary solve
    assert np.max(np.abs(F_ext.T @ u_ext - u_ext)) <= 1e-13 * u_ext.max()
    flow = u_ext[:, None] * F_ext
    assert np.max(np.abs(flow - flow.T)) <= 1e-14


# -- cross moments ---------------------------------------------------------


def cross_moments_oracle(a, k, F):
    """Reference Xi_m = E_m[a a'] - f_m f_m' per point, as a dense M^3 cube.

    The loop that scoring used before the trace identity; each matrix is
    symmetrized by transpose averaging.
    """
    local = local_weights(a, k)
    M = F.shape[0]
    xi = np.empty((M, M, M))
    for m in range(M):
        second = (a * local[:, m, None]).T @ a
        mat = second - np.outer(F[m], F[m])
        xi[m] = 0.5 * (mat + mat.T)
    return xi


def optimal_weights_oracle(functional, eval_grid):
    """The scoring route before the (a, k) form: F's stationary vector
    solved again, and the explicit (S, M) matrix of local weights."""
    a, k, F, u = _eval_grid_matrix(functional, eval_grid)
    v, _ = mg.emus._solve_stationary(F, "truncate")
    G = mg.group_inverse(F, v)
    H = G @ G.T
    first = local_weights(a, k).T @ np.sum((a @ H) * a, axis=1)
    traces = np.clip(first - np.sum((F @ H) * F, axis=1), 0.0, None)
    scores = u * np.sqrt(traces)
    if scores.sum() <= 0:
        return np.full(F.shape[0], 1.0 / F.shape[0]), True
    return scores / scores.sum(), False


def test_cross_moments_match_direct_summation():
    model = mg.DiscreteModel(WIDE_TABLE)
    fn = exhaustive_functional(model, [0, 2])
    a_s, k, F, u = _eval_grid_matrix(fn, model.grid())
    G = mg.group_inverse(F, u)
    H = G @ G.T
    traces = _traces(a_s, k, F, G)

    # Exact second moments by summation: a_j(k) = psi_j(k) / T(k) with T
    # the total eval mass at atom k, expectations under pi_m.
    T = WIDE_TABLE.sum(axis=1)
    a = WIDE_TABLE / T[:, None]
    z = WIDE_TABLE.sum(axis=0)
    xi_oracle = cross_moments_oracle(a_s, k, F)
    for m in range(3):
        pi_m = WIDE_TABLE[:, m] / z[m]
        second = (a * pi_m[:, None]).T @ a
        f_m = a.T @ pi_m
        xi_exact = second - np.outer(f_m, f_m)
        assert traces[m] == pytest.approx(np.sum(xi_exact * H), abs=1e-12)
        np.testing.assert_allclose(xi_oracle[m], xi_exact, atol=1e-12)


def test_sampled_scores_match_the_cube_oracle_at_m128():
    model = mg.ToyBimodalModel(y=1.0, q=64.0, tau=16.0)
    eval_grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 128)
    sim_grid = mg.HyperGrid(domain=eval_grid.domain,
                            points=eval_grid.points[::8], scale=eval_grid.scale)
    bank = mg.draw_sample_bank(model, sim_grid, np.full(16, 64), 3)
    fn = mg.FunctionalEstimate(mg.fit_emus(bank, model, on_degenerate="truncate"), model)
    w, degenerate = optimal_weights(fn, eval_grid)

    a, k, F, u = _eval_grid_matrix(fn, eval_grid)
    G = mg.group_inverse(F, u)
    H = G @ G.T
    xi = cross_moments_oracle(a, k, F)
    traces = np.clip(np.einsum("mij,ij->m", xi, H), 0.0, None)
    scores = u * np.sqrt(traces)
    assert not degenerate
    assert np.max(np.abs(w - scores / scores.sum())) <= 1e-9


def design_m128_case():
    model = mg.ToyBimodalModel(y=1.0, q=64.0, tau=16.0)
    return model, mg.make_regular_grid(mg.Domain(-2.0, 2.0), 128)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_design_allocations_match_the_re_solving_scorer(seed, monkeypatch):
    # 8 rounds of 32 blocks of 16 draws on 128 points
    model, eval_grid = design_m128_case()
    args = (model, eval_grid, 8, 32, 16, seed)
    state, _ = run_design_loop(*args)
    monkeypatch.setattr(design, "optimal_weights", optimal_weights_oracle)
    oracle, _ = run_design_loop(*args)
    for got, want in zip(state.history, oracle.history, strict=True):
        np.testing.assert_array_equal(got["blocks"], want["blocks"])
        np.testing.assert_allclose(got["weights"], want["weights"], rtol=0, atol=1e-10)


def test_scoring_holds_under_three_samples_by_points_buffers():
    # 16 x 256 = 4096 draws, 128 points: one (S, M) float64 buffer is 4 MiB;
    # the reweighting and its scoring hold a and Y, or a and a H, at once
    model, eval_grid = design_m128_case()
    sim_grid = mg.HyperGrid(domain=eval_grid.domain,
                            points=eval_grid.points[::8], scale=eval_grid.scale)
    bank = mg.draw_sample_bank(model, sim_grid, 256, 3)
    fn = mg.FunctionalEstimate(mg.fit_emus(bank, model, on_degenerate="truncate"), model)
    whole = 8 * bank.total * len(eval_grid)
    tracemalloc.start()
    try:
        optimal_weights(fn, eval_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bank.total == 4096
    assert peak < 3 * whole


def test_design_loop_needs_an_iteration(toy_model):
    eval_grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 4)
    for iterations in (0, -1):
        with pytest.raises(ValueError, match="iterations must be at least 1"):
            run_design_loop(toy_model, eval_grid, iterations, 4, 2, 5)


def test_design_loop_runs_past_the_old_grid_cap(toy_model):
    # Scoring once refused evaluation grids beyond 128 points.
    eval_grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 160)
    state, fn = run_design_loop(
        toy_model, eval_grid, iterations=2, blocks_per_iteration=8,
        samples_per_block=4, master_seed=11)
    assert state.w_hat.shape == (160,)
    assert state.w_hat.sum() == pytest.approx(1.0)
    assert state.total_draws == 2 * 8 * 4
    assert fn.emus.bank.total == 2 * 8 * 4


# -- allocation weights ----------------------------------------------------


def test_optimal_weights_uniform_when_moments_vanish(asym_model, monkeypatch):
    fn = exhaustive_functional(asym_model)
    monkeypatch.setattr(design, "_traces",
                        lambda a, k, F, G: np.zeros(F.shape[0]))
    w, degenerate = optimal_weights(fn, fn.emus.grid)
    np.testing.assert_allclose(w, [0.5, 0.5])
    assert degenerate


def test_optimal_weights_symmetric_model_splits_evenly():
    model = mg.DiscreteModel(SYM_TABLE)
    fn = exhaustive_functional(model)
    w, degenerate = optimal_weights(fn, fn.emus.grid)
    assert not degenerate
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)


def test_optimal_weights_are_a_probability_vector():
    model = mg.DiscreteModel(WIDE_TABLE)
    fn = exhaustive_functional(model, [0, 2])
    w, degenerate = optimal_weights(fn, model.grid())
    assert not degenerate
    assert np.all(w >= 0)
    assert w.sum() == pytest.approx(1.0)


def test_incremental_weights_from_scratch():
    # with nothing spent, the weights are the square-root rule itself
    w_hat = np.array([0.64, 0.16, 0.16, 0.04])
    w = incremental_weights(w_hat, np.zeros(4), 10)
    np.testing.assert_allclose(w, np.sqrt(w_hat) / np.sqrt(w_hat).sum())


def test_incremental_weights_subtract_spent_effort():
    # Target is an even split, one point already has all ten draws: the
    # whole next batch goes to the other point.
    w = incremental_weights(np.array([0.5, 0.5]), np.array([10.0, 0.0]), 2)
    np.testing.assert_allclose(w, [0.0, 1.0])


def test_incremental_weights_preserve_zeros():
    w = incremental_weights(np.array([0.5, 0.0, 0.5]), np.zeros(3), 4)
    assert w[1] == 0.0


def test_incremental_weights_validate_inputs():
    with pytest.raises(ValueError):
        incremental_weights(np.array([0.7, 0.7]), np.zeros(2), 4)
    with pytest.raises(ValueError):
        incremental_weights(np.array([0.5, 0.5]), np.zeros(2), 0)


@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    st.data(),
    st.integers(1, 64),
)
@settings(max_examples=200, deadline=None)
def test_incremental_weights_are_a_probability_vector(raw, data, budget):
    # Before clipping the scores sum to the budget for any probability
    # vector, up to rounding, and clipping only raises entries, so there is
    # a positive total to normalize by whenever the budget is not lost to
    # the rounding of the spent effort.
    raw = np.array(raw)
    if raw.sum() == 0:
        raw[0] = 1.0
    w_hat = raw / raw.sum()
    counts = np.array(data.draw(st.lists(st.integers(0, 10_000), min_size=raw.size,
                                         max_size=raw.size)), dtype=float)
    w = incremental_weights(w_hat, counts, budget)
    assert np.all(w >= 0)
    assert abs(w.sum() - 1.0) <= 1e-12


def test_incremental_weights_raise_when_nothing_is_left_to_place():
    # 2e17 spent units: 2e17 + 1 rounds to 2e17, so the one-unit budget is
    # lost and every score is 0.
    with pytest.raises(ValueError, match="lost to rounding"):
        incremental_weights(np.array([0.5, 0.5]), np.array([1e17, 1e17]), 1)


# -- pivotal allocation ------------------------------------------------------


def test_pivotal_integer_expectations_are_deterministic():
    p = np.array([2.0, 0.0, 3.0, 1.0])
    counts = pivotal_sample(p, np.random.default_rng(0))
    np.testing.assert_array_equal(counts, [2, 0, 3, 1])


def test_pivotal_validates_input():
    with pytest.raises(ValueError):
        pivotal_sample(np.array([-0.5, 1.5]), np.random.default_rng(0))
    with pytest.raises(ValueError):
        pivotal_sample(np.array([0.4, 0.3]), np.random.default_rng(0))
    # the total as a plain number, not numpy's scalar repr
    with pytest.raises(ValueError, match=r"sum to an integer, got 1\.5$"):
        pivotal_sample(np.array([0.5, 1.0]), np.random.default_rng(0))


@given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_pivotal_total_is_exact(n, budget, seed):
    rng = np.random.default_rng(seed)
    raw = rng.random(n) + 1e-9
    p = raw * (budget / raw.sum())
    counts = pivotal_sample(p, rng)
    assert counts.sum() == budget
    assert np.all(counts >= 0)
    assert np.all(counts >= np.floor(p).astype(int))


def test_pivotal_pairs_summing_to_one_within_an_ulp_agree():
    # The fractional pair sums to 1 - 1 ulp, exactly 1 and 1 + 1 ulp;
    # without the snap the two sides take different branches, which map
    # one uniform draw to different units.
    low, high = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    pairs = {}
    for target in (low, 1.0, high):
        b = target - 0.25
        assert 0.25 + b == target
        pairs[target] = np.array([2.0, 0.25, b, 1.0])
    for seed in range(32):
        ref = pivotal_sample(pairs[1.0], np.random.default_rng(seed))
        for target in (low, high):
            counts = pivotal_sample(pairs[target], np.random.default_rng(seed))
            np.testing.assert_array_equal(counts, ref)


def test_pivotal_inclusion_probabilities():
    p = np.array([0.3, 0.7, 0.5, 0.5])
    n = 20_000
    rng = np.random.default_rng(14)
    hits = np.zeros(4)
    for _ in range(n):
        hits += pivotal_sample(p, rng)
    freq = hits / n
    se = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(freq - p) < 4 * se)


# -- the sequential loop ------------------------------------------------------


@pytest.mark.parametrize("M,blocks", [(10, 4), (3, 7), (5, 5), (4, 13), (6, 1), (8, 15)])
def test_bootstrap_allocation_places_every_block(M, blocks):
    # the case's blocks per point, at every grid size up to 600: the spread
    # remainder lands on distinct points, or some block would be lost
    for m in range(1, 601):
        b = blocks * m // M
        alloc = _bootstrap_allocation(m, b)
        assert alloc.sum() == b
        assert alloc.shape == (m,)
        assert np.all(alloc >= 0)
        # Even spreading: point loads differ by at most one block.
        assert alloc.max() - alloc.min() <= 1


def test_design_loop_single_iteration_is_uniform(toy_model):
    eval_grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 6)
    state, fn = run_design_loop(
        toy_model, eval_grid, iterations=1, blocks_per_iteration=6,
        samples_per_block=8, master_seed=99)
    assert len(state.history) == 1
    np.testing.assert_allclose(state.history[0]["weights"], 1.0 / 6.0)
    np.testing.assert_array_equal(state.history[0]["blocks"], np.ones(6, dtype=int))
    assert state.total_draws == 48
    assert state.w_hat is None
    assert fn.marginal(0.0) > 0


def test_design_loop_accounting_and_reproducibility(toy_model):
    eval_grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 8)
    kwargs = dict(iterations=3, blocks_per_iteration=5, samples_per_block=4,
                  master_seed=123)
    state, _ = run_design_loop(toy_model, eval_grid, **kwargs)
    assert len(state.history) == 3
    for record in state.history:
        assert record["blocks"].sum() == 5
        assert record["weights"].sum() == pytest.approx(1.0)
    np.testing.assert_array_equal(
        state.block_counts, sum(r["blocks"] for r in state.history))
    assert state.total_draws == 3 * 5 * 4
    assert state.w_hat is not None and not state.degenerate

    again, _ = run_design_loop(toy_model, eval_grid, **kwargs)
    np.testing.assert_array_equal(state.block_counts, again.block_counts)


def test_design_loop_records_truncated_rounds():
    # The two atoms never overlap, so the fit on both points is reducible
    # and gets clamped; the round is recorded, and nothing is warned
    # (pytest turns any RuntimeWarning into an error).
    disconnected = mg.DiscreteModel(np.array([
        [1.0, 0.0],
        [0.0, 1.0],
    ]))
    state, fn = run_design_loop(
        disconnected, disconnected.grid(), iterations=1,
        blocks_per_iteration=2, samples_per_block=4, master_seed=5)
    assert fn.emus.truncated is True
    assert state.truncated_iterations == [0]


def test_design_loop_never_allocates_on_zero_weight_points():
    # Column 1 of the psi table never overlaps the others' support once
    # they are fully sampled... build a model where one eval point has
    # zero optimal weight by symmetry is hard; instead check the loop's
    # books: every allocated point in scored iterations carried positive
    # incremental weight, which pivotal sampling requires.
    model = mg.ToyBimodalModel(y=1.0, q=2.0, tau=2.0)
    eval_grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 10)
    state, _ = run_design_loop(
        model, eval_grid, iterations=4, blocks_per_iteration=6,
        samples_per_block=4, master_seed=7)
    for record in state.history[1:]:
        w = record["weights"]
        assert np.all(record["blocks"][w == 0.0] == 0)


def test_design_loop_decorates_errors():
    model = mg.DiscreteModel(WIDE_TABLE)
    bad_grid = mg.HyperGrid(model.grid().domain, np.array([[0.0], [0.5]]))
    with pytest.raises(mg.GridError) as err:
        run_design_loop(model, bad_grid, iterations=1, blocks_per_iteration=2,
                        samples_per_block=4, master_seed=1)
    assert "design iteration 0" in str(err.value)



TOY_DESIGN_CONFIG = """
[model]
kind = toy
y = 1.0
q = 2.0
tau = 2.0

[domain]
lower = -2.0
upper = 2.0

[grids]
sim_counts = 4
eval_counts = 4

[sampling]
master_seed = 5

[design]
iterations = 2
blocks_per_iteration = 4
samples_per_block = 2
"""


def test_design_history_csv_layout(tmp_path):
    from margrid.experiments import ExperimentConfig, run_design_study

    config = ExperimentConfig.from_text(TOY_DESIGN_CONFIG)
    run_design_study(config, str(tmp_path))
    lines = (tmp_path / "design.csv").read_text().splitlines()
    assert lines[0] == f"# config_sha256={config.sha256}"
    assert lines[1] == "# master_seed=5"
    assert lines[2] == "iteration,point,weight,allocated"
    body = lines[3:]
    assert len(body) == 2 * 4
    for it in range(2):
        rows = [line.split(",") for line in body[it * 4:(it + 1) * 4]]
        assert [r[0] for r in rows] == [str(it)] * 4
        assert [int(r[1]) for r in rows] == [0, 1, 2, 3]
        placed = sum(int(r[3]) for r in rows)
        assert placed == 4 * 2  # blocks times samples per block
        total_w = sum(float(r[2]) for r in rows)
        assert total_w == pytest.approx(1.0)
