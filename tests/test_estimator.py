"""Transition-matrix estimator and stationary solve, checked against
exact enumeration on small discrete models."""

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import logsumexp

import margrid as mg

from conftest import ASYM_TABLE


def test_single_point_grid_is_trivial(asym_model):
    bank = mg.exhaustive_discrete_bank(asym_model, [0])
    emus = mg.fit_emus(bank, asym_model)
    np.testing.assert_array_equal(emus.transition, [[1.0]])
    np.testing.assert_array_equal(emus.stationary, [1.0])


def test_exhaustive_bank_reproduces_enumeration(asym_model):
    # An exhaustive bank turns the sample means into exact sums, so the
    # estimated matrix must match direct enumeration to rounding.
    bank = mg.exhaustive_discrete_bank(asym_model)
    F_hat = mg.estimate_transition_matrix(bank, asym_model)[0]
    F_exact, _ = mg.enumerate_discrete_transition(asym_model)
    np.testing.assert_allclose(F_hat, F_exact, atol=1e-12)


def test_enumerated_transition_matches_hand_computation(asym_model):
    # Rational arithmetic on the five-atom table (see conftest):
    # F01 = 1/8, F10 = 1/6.
    F, u = mg.enumerate_discrete_transition(asym_model)
    np.testing.assert_allclose(F, [[7.0 / 8.0, 1.0 / 8.0],
                                   [1.0 / 6.0, 5.0 / 6.0]], atol=1e-15)


def test_stationary_matches_hand_computation(asym_model):
    bank = mg.exhaustive_discrete_bank(asym_model)
    emus = mg.fit_emus(bank, asym_model)
    np.testing.assert_allclose(emus.stationary, [8.0 / 7.0, 6.0 / 7.0], atol=1e-12)
    # Consistency with the closed-form marginal: u is proportional to
    # exp(exact_log_u) at the two atoms, which is (4, 3).
    exact = np.exp(asym_model.exact_log_u([[0.0], [1.0]]))
    ratio = emus.stationary / exact
    assert ratio[0] == pytest.approx(ratio[1], rel=1e-12)


def test_stationary_uniform_cases():
    np.testing.assert_allclose(
        mg.stationary_vector(np.array([[0.5, 0.5], [0.5, 0.5]])), [1.0, 1.0],
        atol=1e-12)
    # Periodic flip chain: stationary vector is still uniform.
    np.testing.assert_allclose(
        mg.stationary_vector(np.array([[0.0, 1.0], [1.0, 0.0]])), [1.0, 1.0],
        atol=1e-12)


def test_stationary_three_state_birth_death():
    # Birth-death chain with known stationary distribution: detailed
    # balance gives pi proportional to (1, 2, 4) for these rates.
    F = np.array([
        [0.6, 0.4, 0.0],
        [0.2, 0.4, 0.4],
        [0.0, 0.2, 0.8],
    ])
    u = mg.stationary_vector(F)
    expected = np.array([1.0, 2.0, 4.0])
    np.testing.assert_allclose(u, expected * 3 / expected.sum(), atol=1e-10)


def test_stationary_normalization_sums_to_grid_size(toy_fit):
    assert toy_fit.stationary.sum() == pytest.approx(len(toy_fit.stationary))
    assert np.all(toy_fit.stationary > 0)


def test_stationary_rejects_non_stochastic_input():
    with pytest.raises(ValueError):
        mg.stationary_vector(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        mg.stationary_vector(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        mg.emus._solve_stationary(np.eye(2), "clip")
    # GTH never reads the diagonal, so a NaN there must fail validation
    with pytest.raises(ValueError):
        mg.stationary_vector(np.array([[np.nan, 0.5], [0.5, 0.5]]))


def test_stationary_raises_on_block_diagonal():
    # Two components with no overlap: stationary vector is not unique.
    F = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ])
    with pytest.raises(mg.ReducibleChainError):
        mg.stationary_vector(F)


def test_stationary_nearly_decomposable_chain_stays_positive():
    # States 2 and 3 form a block that is entered with probability 1e-20
    # and left with probability 1e-5.  Detailed balance across the cut
    # gives u_2 = u_3 = 2 r / (1 + r) with r = F_02 / F_20, about 2e-15;
    # the chain is irreducible, so the solve must return that positive
    # mass to full relative accuracy, and truncate mode returns the same
    # vector, unclamped.
    F = np.array([
        [0.5, 0.5 - 1e-20, 1e-20, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [1e-5, 0.0, 0.5 - 1e-5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ])
    u = mg.stationary_vector(F)
    r = Fraction(F[0, 2]) / Fraction(F[2, 0])
    block = float(2 * r / (1 + r))
    np.testing.assert_allclose(u[2:], [block, block], rtol=1e-12, atol=0.0)
    assert u.sum() == pytest.approx(4.0)
    assert np.max(np.abs(F.T @ u - u)) <= 1e-12 * np.max(u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u_truncate, truncated = mg.emus._solve_stationary(F, "truncate")
    assert truncated is False
    np.testing.assert_array_equal(u_truncate, u)


@pytest.mark.parametrize("transient", [
    # state 2 keeps itself with probability 0.4 but nothing enters it
    [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]],
    # states 2 and 3 enter each other, but states 0 and 1 never enter them
    [[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
     [0.2, 0.1, 0.3, 0.4], [0.1, 0.2, 0.4, 0.3]],
], ids=["self-loop", "closed-pair"])
def test_stationary_flags_states_no_other_state_enters(transient):
    # Nothing flows into the transient states, so the elimination gives
    # them exactly zero mass and the reducible chain counts as degenerate.
    transient = np.array(transient)
    with pytest.raises(mg.ReducibleChainError):
        mg.stationary_vector(transient)
    u, truncated = mg.emus._solve_stationary(transient, "truncate")
    assert truncated is True
    assert np.all(u > 0)


def test_stationary_truncate_mode_keeps_the_closed_class_of_a_transient_root():
    # State 0 leaks into the closed pair {1, 2} and never comes back, so
    # the solve restarts at the zero pivot of state 1: the clamped vector
    # is still stationary up to the floor.
    F = np.array([
        [0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5],
        [0.0, 0.5, 0.5],
    ])
    with pytest.raises(mg.ReducibleChainError):
        mg.stationary_vector(F)
    u, truncated = mg.emus._solve_stationary(F, "truncate")
    assert truncated is True
    np.testing.assert_allclose(u, [0.0, 1.5, 1.5], atol=1e-15)
    assert u[0] > 0


def test_stationary_truncate_mode_recovers():
    F = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 0.5, 0.5],
        [0.0, 0.5, 0.5],
    ])
    u, truncated = mg.emus._solve_stationary(F, "truncate")
    assert truncated is True
    assert np.all(u > 0)
    assert u.sum() == pytest.approx(3.0)


def test_fit_emus_truncated_flag(asym_model):
    bank = mg.exhaustive_discrete_bank(asym_model)
    emus = mg.fit_emus(bank, asym_model)
    assert emus.truncated is False
    disconnected = mg.DiscreteModel(np.array([
        [1.0, 0.0],
        [0.0, 1.0],
    ]))
    bank2 = mg.exhaustive_discrete_bank(disconnected)
    with pytest.raises(mg.ReducibleChainError):
        mg.fit_emus(bank2, disconnected)
    emus2 = mg.fit_emus(bank2, disconnected, on_degenerate="truncate")
    assert emus2.truncated is True


class FixedDraws(mg.GridSampler):
    """Always draws the latent atom ``atoms[i]`` at grid point i."""

    def __init__(self, atoms):
        self.atoms = atoms

    def draw_rows(self, rows, rng):
        return self.atoms[rows]


def test_degenerate_weight_error_names_the_sample():
    # A sampler whose draws fall where every grid column has zero mass.
    class BrokenModel(mg.DiscreteModel):
        def sampler(self, grid):
            return FixedDraws(np.full(len(grid), 4))

    table = np.array([
        [1.0, 0.0],
        [1.0, 1.0],
        [0.0, 1.0],
        [0.0, 0.0],
        [0.0, 0.0],
    ])
    model = BrokenModel(table)
    bank = mg.draw_sample_bank(model, model.grid(), [3, 3], master_seed=1)
    with pytest.raises(mg.DegenerateWeightError) as err:
        mg.estimate_transition_matrix(bank, model)
    assert "grid point 0" in str(err.value)
    assert "sample 0" in str(err.value)


def test_degenerate_weight_error_names_a_later_tiles_sample(monkeypatch):
    # only point 1's draws have zero weight everywhere; with one segment per
    # tile they sit in the second tile, and the error still names them by
    # their place in the bank
    class BrokenModel(mg.DiscreteModel):
        def sampler(self, grid):
            return FixedDraws(np.where(grid.points[:, 0] == 1.0, 4, 1))

    table = np.array([
        [1.0, 0.0],
        [1.0, 1.0],
        [0.0, 1.0],
        [0.0, 0.0],
        [0.0, 0.0],
    ])
    model = BrokenModel(table)
    bank = mg.draw_sample_bank(model, model.grid(), [3, 2], master_seed=1)
    monkeypatch.setattr(mg.models, "TILE_BYTES", 1)
    with pytest.raises(mg.DegenerateWeightError, match="sample 0 at grid point 1"):
        mg.fit_emus(bank, model)


def test_sampled_fit_converges_to_enumeration(asym_model):
    # Monte Carlo consistency on the discrete oracle: the sampled
    # stationary vector approaches the enumerated one.
    rng_seed = 7
    bank = mg.draw_sample_bank(
        asym_model, asym_model.grid(), [20_000, 20_000], master_seed=rng_seed)
    emus = mg.fit_emus(bank, asym_model)
    np.testing.assert_allclose(emus.stationary, [8.0 / 7.0, 6.0 / 7.0], atol=0.02)


def _floored_log_weights(bank, model):
    """The model's log-weights of the bank, floored as the fit floors them."""
    thetas = bank.thetas
    points = bank.grid.points
    logw = np.array(model.log_weight_matrix(thetas, points), dtype=float)
    logw[logw < logw.max(axis=1)[:, None] - mg.emus.LOG_WEIGHT_FLOOR] = -np.inf
    return logw


def _normalized_weights(bank, model):
    """The bank's whole (S, L) matrix of normalized weights and their
    log-sum-exps, by the normalization the fit applies to each of its row
    tiles; the fit's own F and log-sum-exps must be their bits."""
    ratios = np.array(model.log_weight_matrix(bank.thetas, bank.grid.points), dtype=float)
    lse = mg.emus._normalize(ratios, bank.offsets, 0)
    F, _, fit_lse = mg.estimate_transition_matrix(bank, model)
    np.testing.assert_array_equal(fit_lse, lse)
    np.testing.assert_array_equal(F, mg.emus.segment_mean(ratios, bank.offsets))
    return ratios, lse


def test_log_weight_floor_drops_tiny_columns(toy_model):
    # Entries more than the floor below their row maximum are cut to
    # exact zeros in the normalized ratios; the rest stay positive.
    grid = mg.make_regular_grid(mg.Domain(-60.0, 60.0), 2)
    bank = mg.draw_sample_bank(toy_model, grid, [4, 4], master_seed=3)
    ratios, _ = _normalized_weights(bank, toy_model)
    floored = np.isneginf(_floored_log_weights(bank, toy_model))
    assert floored.any()
    assert np.all(ratios[floored] == 0.0)
    assert np.all(ratios[~floored] > 0.0)


def test_fit_peak_is_a_fraction_of_one_weight_matrix():
    # toy fit, L = 64, S = 16384: the fit walks the bank in row tiles and
    # drops each one, so its traced peak (2.6 MB) stays below half of the
    # 8 MB (S, L) matrix of normalized weights that it never holds
    model = mg.ToyBimodalModel(1.0, 64.0, 16.0)
    bank = mg.draw_sample_bank(model, mg.make_regular_grid(mg.Domain(-2.0, 2.0), 64), 256, 3)
    tracemalloc.start()
    try:
        mg.fit_emus(bank, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratios, lse = _normalized_weights(bank, model)
    assert peak < 1.5 * ratios.nbytes
    assert peak < ratios.nbytes / 2
    expected = np.exp(_floored_log_weights(bank, model) - lse[:, None])
    np.testing.assert_array_equal(ratios == 0.0, expected == 0.0)
    np.testing.assert_allclose(ratios, expected, rtol=2e-13, atol=0)


def _lse_case(name):
    """A model and its bank: a toy fit, a toy fit on grid points 10 apart
    (each row keeps a few finite entries and floors the far columns to
    -inf), and the benchmark's GP surface, whose rows span hundreds of nats."""
    if name == "gp-surface":
        x, y = mg.make_synthetic_gp_dataset(16, 7)
        model = mg.GpRegressionModel(x, y)
        grid = mg.make_regular_grid(mg.Domain([0.1, 0.1], [10.0, 10.0]), [12, 12], "log")
        return model, mg.draw_sample_bank(model, grid, 16, 7)
    model = mg.ToyBimodalModel(1.0, 2.0, 2.0)
    half_width, L = (2.0, 8) if name == "toy" else (40.0, 9)
    grid = mg.make_regular_grid(mg.Domain(-half_width, half_width), L)
    return model, mg.draw_sample_bank(model, grid, 16, 3)


@pytest.mark.parametrize("name", ["toy", "toy-floored", "gp-surface"])
def test_log_sum_exp_matches_scipy(name):
    model, bank = _lse_case(name)
    ratios, lse = _normalized_weights(bank, model)
    logw = _floored_log_weights(bank, model)
    if name != "toy":
        assert (ratios == 0.0).any()
        assert np.all(np.sum(ratios > 0.0, axis=1) > 1)
    np.testing.assert_allclose(lse, logsumexp(logw, axis=1), rtol=0, atol=1e-13)
    # the ratios are the normalized weights, rows summing to 1
    np.testing.assert_allclose(ratios, np.exp(logw - lse[:, None]),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(ratios.sum(axis=1), 1.0, rtol=0, atol=1e-13)


def test_segment_mean_tiles_are_the_whole_array_sums():
    # rows of 64 columns, cut by a fit's tiles of whole segments into
    # single-row segments, one segment larger than a tile, and runs of
    # segments whose boundaries straddle the tile limit; reduceat sums each
    # segment on its own, so every segment gets the whole-array sum's bits
    rows = mg.models.TILE_BYTES // (8 * 64)
    counts = np.array([1, 1, 1, rows + 5, 1, rows // 2, rows // 2 + 3, rows - 1, 1,
                       2, rows // 3, rows // 3, rows // 3 + 1, 1, 7])
    offsets = np.concatenate([[0], np.cumsum(counts)])
    values = np.random.default_rng(11).random((offsets[-1], 64))
    assert values.nbytes > 4 * mg.models.TILE_BYTES
    expected = np.add.reduceat(values, offsets[:-1], axis=0) / counts[:, None]
    np.testing.assert_array_equal(mg.emus.segment_mean(values, offsets), expected)
    bounds = mg.emus._row_tiles(offsets, 8 * 64)
    assert len(bounds) > 5
    tiled = [mg.emus.segment_mean(values[offsets[a]:offsets[b]], offsets[a:b + 1] - offsets[a])
             for a, b in zip(bounds[:-1], bounds[1:])]
    np.testing.assert_array_equal(np.concatenate(tiled), expected)


def _whole_matrix_oracle(bank, model):
    """F, R and the log-sum-exps of a bank from its whole (S, L) matrix of
    normalized weights: F by one reduceat over the whole matrix, R by
    np.var segment by segment."""
    logw = np.ascontiguousarray(model.log_weight_matrix(bank.thetas, bank.grid.points),
                                dtype=float)
    row_max = np.max(logw, axis=1)
    logw[logw < (row_max[:, None] - mg.emus.LOG_WEIGHT_FLOOR)] = -np.inf
    logw -= row_max[:, None]
    np.exp(logw, out=logw)
    sums = np.sum(logw, axis=1)
    logw /= sums[:, None]
    offsets = bank.offsets
    counts = np.diff(offsets)
    F = np.add.reduceat(logw, offsets[:-1], axis=0) / counts[:, None]
    R = np.full(F.shape, np.nan)
    for i, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        if hi - lo > 1:
            R[i] = np.var(logw[lo:hi], axis=0, ddof=1)
    return F, R, row_max + np.log(sums)


def _tile_case(name):
    """A model and its bank: the benchmark's toy (S = 16384, 8 default
    tiles) and GP surface (12x12), an exhaustive discrete bank, a design
    loop's bank with unequal counts, and a toy bank of ragged counts with
    single-draw points."""
    toy = mg.ToyBimodalModel(1.0, 64.0, 16.0)
    domain = mg.Domain(-2.0, 2.0)
    if name == "toy":
        return toy, mg.draw_sample_bank(toy, mg.make_regular_grid(domain, 64), 256, 3)
    if name == "gp":
        x, y = mg.make_synthetic_gp_dataset(16, 7)
        model = mg.GpRegressionModel(x, y)
        grid = mg.make_regular_grid(mg.Domain([0.1, 0.1], [10.0, 10.0]), [12, 12], "log")
        return model, mg.draw_sample_bank(model, grid, 64, 3)
    if name == "discrete":
        table = np.random.default_rng(5).integers(0, 5, size=(9, 6)).astype(float)
        table[np.arange(6), np.arange(6)] += 1.0
        model = mg.DiscreteModel(table)
        return model, mg.exhaustive_discrete_bank(model)
    if name == "design":
        _, fn = mg.run_design_loop(toy, mg.make_regular_grid(domain, 32), 4, 16, 4, 9)
        return toy, fn.emus.bank
    counts = np.array([1, 5, 2, 1, 7, 3, 1, 4, 9, 2, 1, 6])
    return toy, mg.draw_sample_bank(toy, mg.make_regular_grid(domain, counts.size), counts, 3)


@pytest.mark.parametrize("tiles", ["default", "per-segment"])
@pytest.mark.parametrize("name", ["toy", "gp", "discrete", "design", "ragged"])
def test_tiled_pass_matches_the_whole_matrix(name, tiles, monkeypatch):
    # F and the log-sum-exps are the bits of the whole-matrix computation,
    # whatever the tiles; R sums in another order than np.var
    model, bank = _tile_case(name)
    F_whole, R_whole, lse_whole = _whole_matrix_oracle(bank, model)
    if tiles == "per-segment":
        monkeypatch.setattr(mg.models, "TILE_BYTES", 1)
    seen = []
    tiled = mg.emus.log_weight_tiles

    def recording(model, thetas, points, rows):
        seen.append(np.array(rows))
        return tiled(model, thetas, points, rows=rows)

    monkeypatch.setattr(mg.emus, "log_weight_tiles", recording)
    F, R, lse = mg.estimate_transition_matrix(bank, model)
    if tiles == "per-segment":
        np.testing.assert_array_equal(seen[0], bank.offsets)
    elif name == "toy":
        assert len(seen[0]) == 9
    np.testing.assert_array_equal(F, F_whole)
    np.testing.assert_array_equal(lse, lse_whole)
    np.testing.assert_array_equal(np.isnan(R), np.isnan(R_whole))
    np.testing.assert_allclose(R, R_whole, rtol=1e-13, atol=0)
    if name == "ragged":
        assert np.isnan(R[bank.counts == 1]).all()


def test_fit_at_l576_holds_no_samples_by_columns_array():
    # toy, L = 576, 64 draws per point: a whole (S, L) matrix would be
    # 170 MB, while F, R and the tile in hand stay under 16 MB
    model = mg.ToyBimodalModel(1.0, 64.0, 16.0)
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 576)
    bank = mg.draw_sample_bank(model, grid, 64, 3)
    tracemalloc.start()
    try:
        est = mg.fit_emus(bank, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20
    shapes = [v.shape for v in vars(est).values() if isinstance(v, np.ndarray)]
    assert (bank.total, len(grid)) not in shapes
    assert est.ratio_variances.shape == (576, 576)
    assert est.lse.shape == (bank.total,)


def test_child_rng_is_keyed_and_reproducible():
    a = mg.child_rng(12, 0, 1).random(4)
    b = mg.child_rng(12, 0, 1).random(4)
    c = mg.child_rng(12, 0, 2).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_bank_validates_shapes(toy_model, toy_grid):
    for thetas, counts in ((np.zeros(21), np.full(7, 3)),   # a count per point
                           (np.zeros(21), [3] * 7 + [0]),   # every count >= 1
                           (np.zeros(23), np.full(8, 3))):  # one row per draw
        with pytest.raises(ValueError):
            mg.SampleBank(grid=toy_grid, thetas=thetas, counts=counts)
    bank = mg.draw_sample_bank(toy_model, toy_grid, 5, master_seed=2)
    assert bank.total == 40
    assert bank.thetas.shape[0] == 40
    assert bank.offsets.tolist() == list(range(0, 45, 5))


def test_fit_and_curves_read_the_banks_own_draws(toy_model, toy_grid):
    # the bank's stacked array is the only copy of the draws: the fit's
    # row tiles, every curve query and the whole matrix hand that array
    # itself to the model's factors, once per call
    seen = []

    class Recording(mg.ToyBimodalModel):
        def log_weight_factors(self, thetas, points, grads=False):
            seen.append(thetas)
            return super().log_weight_factors(thetas, points, grads)

    model = Recording(y=toy_model.y, q=toy_model.q, tau=toy_model.tau)
    bank = mg.draw_sample_bank(model, toy_grid, 16, master_seed=5)
    fn = mg.FunctionalEstimate(mg.fit_emus(bank, model), model)
    fn.curve_with_gradient(toy_grid.points)
    fn.expectation(lambda thetas: seen.append(thetas) or thetas, toy_grid)
    fn._ratio_matrix([0.3])
    assert len(seen) == 5
    assert all(np.shares_memory(thetas, bank.thetas) for thetas in seen)
