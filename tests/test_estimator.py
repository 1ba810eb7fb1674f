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
    F_hat, _ = mg.estimate_transition_matrix(bank, asym_model)
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
    exact = np.exp([asym_model.exact_log_u(0.0), asym_model.exact_log_u(1.0)])
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


def test_bridge_ratio_cases(asym_model, sym_model):
    F_asym, _ = mg.enumerate_discrete_transition(asym_model)
    assert mg.bridge_ratio(F_asym, 0, 1) == pytest.approx(0.75)
    assert mg.bridge_ratio(F_asym, 0, 0) == 1.0
    F_sym, _ = mg.enumerate_discrete_transition(sym_model)
    assert mg.bridge_ratio(F_sym, 0, 1) == pytest.approx(1.0)
    with pytest.raises(mg.NoOverlapError):
        mg.bridge_ratio(np.array([[1.0, 0.0], [0.0, 1.0]]), 0, 1)


def test_bridge_ratio_consistent_with_stationary(asym_model):
    F, _ = mg.enumerate_discrete_transition(asym_model)
    u = mg.stationary_vector(F)
    assert mg.bridge_ratio(F, 0, 1) == pytest.approx(u[1] / u[0], rel=1e-12)


def test_degenerate_weight_error_names_the_sample():
    # A sampler whose draws fall where every grid column has zero mass.
    class BrokenModel(mg.DiscreteModel):
        def sample_local(self, lam, rng, size):
            return np.full(size, 4)

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
        mg.compute_log_weights(bank, model)
    assert "grid point 0" in str(err.value)
    assert "sample 0" in str(err.value)


def test_sampled_fit_converges_to_enumeration(asym_model):
    # Monte Carlo consistency on the discrete oracle: the sampled
    # stationary vector approaches the enumerated one.
    rng_seed = 7
    bank = mg.draw_sample_bank(
        asym_model, asym_model.grid(), [20_000, 20_000], master_seed=rng_seed)
    emus = mg.fit_emus(bank, asym_model)
    np.testing.assert_allclose(emus.stationary, [8.0 / 7.0, 6.0 / 7.0], atol=0.02)


def _floored_log_weights(bank, model):
    """The model's log-weights of the bank, floored as the cache floors them."""
    thetas, _ = bank.flattened()
    points = bank.grid.points
    logw = np.array(model.log_weight_matrix(thetas, points), dtype=float)
    logw[logw < logw.max(axis=1)[:, None] - mg.emus.LOG_WEIGHT_FLOOR] = -np.inf
    return logw


def test_log_weight_floor_drops_tiny_columns(toy_model):
    # Entries more than the floor below their row maximum are cut to
    # exact zeros in the normalized ratios; the rest stay positive.
    grid = mg.make_regular_grid(mg.Domain(-60.0, 60.0), 2)
    bank = mg.draw_sample_bank(toy_model, grid, [4, 4], master_seed=3)
    cache = mg.compute_log_weights(bank, toy_model)
    floored = np.isneginf(_floored_log_weights(bank, toy_model))
    assert floored.any()
    assert np.all(cache.ratios[floored] == 0.0)
    assert np.all(cache.ratios[~floored] > 0.0)


def test_log_weight_cache_is_the_only_samples_by_columns_buffer():
    # toy fit, L = 64, S = 16384: the log-weights are normalized in place,
    # so the traced peak stays below 1.5 times the cached ratios
    model = mg.ToyBimodalModel(1.0, 64.0, 16.0)
    bank = mg.draw_sample_bank(model, mg.make_regular_grid(mg.Domain(-2.0, 2.0), 64), 256, 3)
    tracemalloc.start()
    try:
        cache = mg.compute_log_weights(bank, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * cache.ratios.nbytes
    expected = np.exp(_floored_log_weights(bank, model) - cache.lse[:, None])
    np.testing.assert_array_equal(cache.ratios == 0.0, expected == 0.0)
    np.testing.assert_allclose(cache.ratios, expected, rtol=2e-13, atol=0)


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
    cache = mg.compute_log_weights(bank, model)
    logw = _floored_log_weights(bank, model)
    if name != "toy":
        assert (cache.ratios == 0.0).any()
        assert np.all(np.sum(cache.ratios > 0.0, axis=1) > 1)
    np.testing.assert_allclose(cache.lse, logsumexp(logw, axis=1), rtol=0, atol=1e-13)
    # the cached ratios are the normalized weights, rows summing to 1
    np.testing.assert_allclose(cache.ratios, np.exp(logw - cache.lse[:, None]),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(cache.ratios.sum(axis=1), 1.0, rtol=0, atol=1e-13)


def test_child_rng_is_keyed_and_reproducible():
    a = mg.child_rng(12, 0, 1).random(4)
    b = mg.child_rng(12, 0, 1).random(4)
    c = mg.child_rng(12, 0, 2).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_bank_validates_shapes(toy_model, toy_grid):
    with pytest.raises(ValueError):
        mg.SampleBank(grid=toy_grid, samples=[np.zeros(3)] * 7,
                      counts=np.full(8, 3))
    bank = mg.draw_sample_bank(toy_model, toy_grid, 5, master_seed=2)
    assert bank.total == 40
    thetas, offsets = bank.flattened()
    assert thetas.shape[0] == 40
    assert offsets.tolist() == list(range(0, 45, 5))
