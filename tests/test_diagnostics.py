"""First-visit probabilities, variance bounds and spectral quantities."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import margrid as mg
from margrid.exact import _overlap_to_transition, _quadrature_weight_table


def random_reversible_chain(rng, n):
    """Row-normalized symmetric positive matrix; stationary law is the
    row-sum vector, and detailed balance holds by construction."""
    S = rng.random((n, n)) + 0.1
    S = 0.5 * (S + S.T)
    rowsums = S.sum(axis=1)
    return S / rowsums[:, None], rowsums / rowsums.sum()


def random_chain(rng, n):
    """Row-normalized positive matrix with no symmetry imposed."""
    S = rng.random((n, n)) + 0.1
    return S / S.sum(axis=1)[:, None]


def hitting_probabilities_oracle(F):
    """Q[i, j] by one first-step solve per ordered pair, O(L^5) in all.

    Q[i, j] = F_ij + sum_{k not in {i, j}} F_ik h_k, where h holds the
    probabilities of reaching j before i and solves (I - F_BB) h = F_Bj
    over the states B = complement of {i, j}.
    """
    n = F.shape[0]
    Q = np.ones((n, n))
    idx = np.arange(n)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            keep = idx[(idx != i) & (idx != j)]
            h = np.linalg.solve(np.eye(keep.size) - F[np.ix_(keep, keep)], F[keep, j])
            Q[i, j] = F[i, j] + F[i, keep] @ h
    return Q


# -- first-visit probabilities ------------------------------------------


def test_hitting_two_states_is_the_off_diagonal():
    F = np.array([[0.7, 0.3], [0.4, 0.6]])
    Q = mg.hitting_probabilities(F)
    np.testing.assert_allclose(Q, [[1.0, 0.3], [0.4, 1.0]])


def test_hitting_uniform_three_states():
    # From i, reach j before returning to i: one third directly, and the
    # detour through the third state succeeds half the time, so 1/2.
    F = np.full((3, 3), 1.0 / 3.0)
    Q = mg.hitting_probabilities(F)
    expected = np.full((3, 3), 0.5)
    np.fill_diagonal(expected, 1.0)
    np.testing.assert_allclose(Q, expected, atol=1e-12)


def test_hitting_single_state():
    np.testing.assert_array_equal(mg.hitting_probabilities(np.ones((1, 1))), [[1.0]])


@pytest.mark.parametrize("n", range(3, 13))
def test_hitting_matches_the_pairwise_oracle(n):
    rng = np.random.default_rng(100 + n)
    for F in (random_reversible_chain(rng, n)[0], random_chain(rng, n)):
        np.testing.assert_allclose(mg.hitting_probabilities(F),
                                   hitting_probabilities_oracle(F), rtol=1e-12)


@pytest.fixture(scope="module")
def toy_fit_l64():
    model = mg.ToyBimodalModel(y=1.0, q=64.0, tau=16.0)
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 64)
    return mg.fit_emus(mg.draw_sample_bank(model, grid, 256, master_seed=7), model)


def test_hitting_matches_the_pairwise_oracle_on_a_toy_fit(toy_fit_l64):
    F = toy_fit_l64.transition
    np.testing.assert_allclose(mg.hitting_probabilities(F),
                               hitting_probabilities_oracle(F), rtol=1e-12)


def test_hitting_absorbing_chain_is_reducible():
    F = np.array([
        [1.0, 0.0, 0.0],
        [0.5, 0.0, 0.5],
        [0.0, 0.0, 1.0],
    ])
    with pytest.raises(mg.ReducibleChainError):
        mg.hitting_probabilities(F)


@pytest.mark.parametrize("F", [
    np.array([[0.5, 0.5, 0.0], [0.2, 0.5, np.nan], [0.0, 0.5, 0.5]]),
    np.array([[0.5, 0.5, 0.0], [0.2, 0.5, 0.5], [0.0, 0.5, 0.5]]),
], ids=["nan-entry", "row-sums-to-1.2"])
def test_hitting_rejects_non_stochastic_input(F):
    # the stationary solve's matrix check, not a misleading reducibility
    # error or an answer read off the off-diagonals
    with pytest.raises(ValueError, match="row-stochastic"):
        mg.hitting_probabilities(F)
    with pytest.raises(ValueError, match="row-stochastic"):
        mg.stationary_vector(F)


def test_hitting_matches_simulated_excursions():
    rng = np.random.default_rng(31)
    F, _ = random_reversible_chain(rng, 4)
    Q = mg.hitting_probabilities(F)

    n_exc = 40_000
    cum = np.cumsum(F, axis=1)
    i, j = 0, 2
    wins = 0
    for _ in range(n_exc):
        state = i
        while True:
            state = int(np.searchsorted(cum[state], rng.random(), side="right"))
            if state == j:
                wins += 1
                break
            if state == i:
                break
    p_hat = wins / n_exc
    se = math.sqrt(Q[i, j] * (1 - Q[i, j]) / n_exc)
    assert abs(p_hat - Q[i, j]) < 3.5 * se


# -- grid variance bound -------------------------------------------------


def make_fit(counts, seed=404):
    model = mg.ToyBimodalModel(y=1.0, q=2.0, tau=2.0)
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 4)
    bank = mg.draw_sample_bank(model, grid, counts, master_seed=seed)
    return mg.fit_emus(bank, model)


def bound(F, R, w):
    """The grid variance bound sum_i w_i^{-1} L sum_{j != i} R_ij / Q_ij^2,
    summed from ``_bound_terms`` as ``variance_diagnostics`` sums it."""
    terms = mg.diagnostics._bound_terms(R, mg.hitting_probabilities(F))
    return float(np.sum(terms / w))


def test_bound_is_zero_when_weights_are_deterministic():
    F = np.array([[0.5, 0.5], [0.5, 0.5]])
    R = np.zeros((2, 2))
    assert bound(F, R, np.array([0.5, 0.5])) == 0.0


def test_bound_hand_computed_two_state_case():
    # L=2: bound = 2 [ (R01/Q01^2)/w0 + (R10/Q10^2)/w1 ]
    F = np.array([[0.8, 0.2], [0.5, 0.5]])
    R = np.array([[0.0, 0.01], [0.04, 0.0]])
    w = np.array([0.5, 0.5])
    expected = 2 * ((0.01 / 0.2**2) / 0.5 + (0.04 / 0.5**2) / 0.5)
    assert bound(F, R, w) == pytest.approx(expected)


def test_bound_is_linear_in_weight_variances():
    F = np.array([[0.8, 0.2], [0.5, 0.5]])
    R = np.array([[0.0, 0.01], [0.04, 0.0]])
    w = np.array([0.25, 0.75])
    b1 = bound(F, R, w)
    b2 = bound(F, 2 * R, w)
    assert b2 == pytest.approx(2 * b1)


def test_bound_infinite_when_variance_has_no_visits():
    F = np.array([[1.0, 0.0], [0.0, 1.0]])
    R = np.array([[0.0, 0.01], [0.0, 0.0]])
    b = bound(F, R, np.array([0.5, 0.5]))
    assert math.isinf(b)


def test_bound_nan_for_single_draw_rows():
    fit = make_fit([1, 8, 8, 8])
    diag = mg.variance_diagnostics(fit)
    assert np.all(np.isnan(diag.R[0]))
    assert math.isnan(diag.rel_var_bound)


def test_variance_diagnostics_flags_and_fractions():
    fit = make_fit([8, 8, 8, 8])
    diag = mg.variance_diagnostics(fit)
    assert diag.eq_sample
    np.testing.assert_allclose(diag.sampling_fractions, 0.25)
    assert diag.rel_var_bound > 0
    uneven = make_fit([8, 16, 8, 8])
    assert not mg.variance_diagnostics(uneven).eq_sample


def test_grid_terms_are_computed_once_and_read_everywhere(toy_fit, toy_model):
    diag = mg.variance_diagnostics(toy_fit)
    terms = mg.diagnostics._bound_terms(diag.R, diag.Q)
    np.testing.assert_array_equal(diag.grid_terms, terms)
    assert diag.rel_var_bound == float(np.sum(terms / diag.sampling_fractions))
    # the pointwise bound takes the stored terms as they are
    fn = mg.FunctionalEstimate(toy_fit, toy_model)
    lam = np.array([0.3])
    u_lam = fn.marginal(lam)
    r = mg.emus.segment_var(fn._ratio_matrix([lam])[:, 0], fn.emus.bank.offsets)
    point = (toy_fit.stationary**2 / u_lam**2) * r
    expected = 2.0 * np.sum((terms + point) / diag.sampling_fractions)
    assert mg.pointwise_variance_bound(fn, lam, diag) == expected
    infinite = dataclasses.replace(diag, grid_terms=np.full(terms.shape, np.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert math.isinf(mg.pointwise_variance_bound(fn, lam, infinite))


def test_pointwise_bound_evaluates_one_kernel_column(toy_fit, toy_model, monkeypatch):
    diag = mg.variance_diagnostics(toy_fit)
    fn = mg.FunctionalEstimate(toy_fit, toy_model)
    shapes = []
    evaluate = toy_model.log_weight_matrix

    def counted(thetas, points):
        out = evaluate(thetas, points)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(toy_model, "log_weight_matrix", counted)
    for lam in (0.3, -1.1):
        shapes.clear()
        assert math.isfinite(mg.pointwise_variance_bound(fn, lam, diag))
        assert shapes == [(toy_fit.bank.total, 1)]


def test_well_conditioned_fit_has_no_out_of_range_probabilities(toy_fit_l64):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        diag = mg.variance_diagnostics(toy_fit_l64)
    assert np.all((diag.Q >= 0.0) & (diag.Q <= 1.0))


def test_first_visit_probabilities_stay_in_the_unit_interval_on_a_gp_fit():
    # The 12x12 GP chain has entries down to 1e-306; an inverse of
    # I - F_BB computed with subtractions put 113 of its first-visit
    # probabilities outside [0, 1] (from -0.37 to 1.68).
    x, y = mg.make_synthetic_gp_dataset(16, 7)
    model = mg.GpRegressionModel(x, y)
    domain = mg.Domain(np.array([0.1, 0.1]), np.array([10.0, 10.0]))
    grid = mg.make_regular_grid(domain, [12, 12], "log")
    fit = mg.fit_emus(mg.draw_sample_bank(model, grid, 64, master_seed=5), model)
    Q = mg.hitting_probabilities(fit.transition)
    off = Q[~np.eye(len(grid), dtype=bool)]
    assert np.all((off >= 0.0) & (off <= 1.0))


def test_hitting_probabilities_do_not_depend_on_the_batch_size(toy_fit_l64, monkeypatch):
    F = toy_fit_l64.transition
    batched = mg.hitting_probabilities(F)
    assert F.shape[0] > mg.diagnostics.KILLED_BATCH
    monkeypatch.setattr(mg.diagnostics, "KILLED_BATCH", F.shape[0])
    np.testing.assert_array_equal(mg.hitting_probabilities(F), batched)


def test_hitting_probabilities_reuse_one_stack_per_call():
    # toy fit at L = 64, 32 draws per point: the killed chains and their
    # inverses live in one stack each for all batches, and no level of the
    # recursion assembles a new inverse, so Q peaks below 4 MiB; a new
    # stack per batch and a new array per level take 5.64 MiB
    model = mg.ToyBimodalModel(y=1.0, q=64.0, tau=16.0)
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 64)
    F = mg.fit_emus(mg.draw_sample_bank(model, grid, 32, master_seed=3), model).transition
    tracemalloc.start()
    try:
        mg.hitting_probabilities(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak / 2**20


def killed_inverse_by_blocks(G, kill):
    """The killed-chain inverse of ``diagnostics._killed_inverse``, each
    level assembled as a new array with ``np.block``."""
    m = kill.shape[1]
    if m == 1:
        with np.errstate(divide="ignore"):
            return 1.0 / kill[:, :, None]
    h = m // 2
    G12, G21 = G[:, :h, h:], G[:, h:, :h]
    N1 = killed_inverse_by_blocks(G[:, :h, :h], kill[:, :h] + G12.sum(axis=2))
    G21N1 = G21 @ N1
    H = G[:, h:, h:] + G21N1 @ G12
    H[:, np.arange(m - h), np.arange(m - h)] = 0.0
    N2 = killed_inverse_by_blocks(H, kill[:, h:] + (G21N1 @ kill[:, :h, None])[:, :, 0])
    N12 = N1 @ G12 @ N2
    N21 = N2 @ G21N1
    N11 = N1 + N12 @ G21N1
    return np.block([[N11, N12], [N21, N2]])


@pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 31, 63])
def test_killed_inverse_in_place_is_the_block_assembly(m):
    # three random substochastic triplets: the inverse written into views
    # of one output has the bits of the assembled one
    rng = np.random.default_rng(m)
    P = rng.random((3, m, m + 1))
    P /= P.sum(axis=2, keepdims=True) * rng.uniform(1.0, 1.5, (3, m, 1))
    G, kill = P[:, :, :m].copy(), P[:, :, m] + 1.0 - P.sum(axis=2)
    G[:, np.arange(m), np.arange(m)] = 0.0
    expected = killed_inverse_by_blocks(G.copy(), kill.copy())
    out = np.full((3, m, m), np.nan)
    assert mg.diagnostics._killed_inverse(G, kill, out) is out
    np.testing.assert_array_equal(out, expected)


def test_weight_ratio_variances_match_numpy(toy_fit, toy_model):
    R = mg.weight_ratio_variances(toy_fit)
    bank = toy_fit.bank
    # the normalized weights, built here from the model's whole matrix
    logw = np.array(toy_model.log_weight_matrix(bank.thetas, bank.grid.points), dtype=float)
    ratios = np.exp(logw - toy_fit.lse[:, None])
    lo, hi = toy_fit.bank.offsets[2], toy_fit.bank.offsets[3]
    np.testing.assert_allclose(R[2], np.var(ratios[lo:hi], axis=0, ddof=1))
    assert np.all(R[np.isfinite(R)] >= 0)


# -- group inverse and spectral gap ---------------------------------------


def test_group_inverse_two_state_closed_form():
    # I - F is a rank-one projector here, so it is its own group inverse.
    F = np.array([[0.5, 0.5], [0.5, 0.5]])
    expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
    np.testing.assert_allclose(mg.group_inverse(F), expected, atol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 9])
def test_group_inverse_defining_properties(n):
    rng = np.random.default_rng(n)
    F, v = random_reversible_chain(rng, n)
    A = np.eye(n) - F
    G = mg.group_inverse(F)
    np.testing.assert_allclose(A @ G @ A, A, atol=1e-10)
    np.testing.assert_allclose(G @ A @ G, G, atol=1e-10)
    np.testing.assert_allclose(A @ G, G @ A, atol=1e-10)


def test_group_inverse_annihilates_stationary_direction():
    rng = np.random.default_rng(17)
    F, v = random_reversible_chain(rng, 6)
    G = mg.group_inverse(F, stationary=v)
    np.testing.assert_allclose(v @ G, np.zeros(6), atol=1e-10)
    np.testing.assert_allclose(G @ np.ones(6), np.zeros(6), atol=1e-10)


def test_nonreversible_chain_has_a_group_inverse_but_no_spectral_gap():
    F = np.array([
        [0.1, 0.8, 0.1],
        [0.1, 0.1, 0.8],
        [0.8, 0.1, 0.1],
    ])
    with pytest.raises(mg.NotReversibleError):
        mg.spectral_gap(F)
    G = mg.group_inverse(F)
    A = np.eye(3) - F
    np.testing.assert_allclose(A @ G @ A, A, atol=1e-10)


def test_group_inverse_checks_its_inputs():
    with pytest.raises(ValueError, match="row-stochastic"):
        mg.group_inverse([[0.5, 0.7], [0.5, 0.5]], [0.5, 0.5])
    F = np.full((3, 3), 1.0 / 3.0)
    for v in ([0.5, 0.5], np.ones(4), np.ones((3, 1))):
        with pytest.raises(ValueError, match="stationary vector has shape"):
            mg.group_inverse(F, v)


def test_group_inverse_is_exact_on_the_quadrature_chain_of_criterion_11():
    # 48 points on [-6, 6], q = tau = 32, 4001 nodes: u spans 1e-86 to 9.6
    # and the true max|G| is about 1.5e3
    model = mg.ToyBimodalModel(y=1.0, q=32.0, tau=32.0)
    ev = mg.make_regular_grid(mg.Domain(-6.0, 6.0), 48)
    a, mix, quad = _quadrature_weight_table(model, ev, np.linspace(-4.0, 4.0, 4001))
    F, u = _overlap_to_transition(a.T @ (a * (mix * quad)[:, None]))
    assert u.min() < 1e-80
    G = mg.group_inverse(F, u)
    A = np.eye(48) - F
    assert np.max(np.abs(A @ G @ A - A)) <= 1e-10
    scale = np.max(np.abs(G))
    assert scale < 1e4
    v = u / u.sum()
    assert np.max(np.abs(v @ G)) <= 1e-10 * scale
    assert np.max(np.abs(G @ np.ones(48))) <= 1e-10 * scale


def test_spectral_gap_uniform_chain_is_one():
    assert mg.spectral_gap(np.full((2, 2), 0.5)) == pytest.approx(1.0)
    assert mg.spectral_gap(np.ones((1, 1))) == 1.0


def test_spectral_gap_matches_eigenvalues():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(3, 13))
        F, v = random_reversible_chain(rng, n)
        eig = np.sort(np.abs(np.linalg.eigvals(F)))[::-1]
        assert mg.spectral_gap(F, v) == pytest.approx(1.0 - eig[1], abs=1e-9)


def test_spectral_gap_shrinks_with_weak_coupling():
    def two_block(eps):
        F = np.array([
            [1 - eps, eps, 0.0, 0.0],
            [eps, 1 - 2 * eps, eps, 0.0],
            [0.0, eps, 1 - 2 * eps, eps],
            [0.0, 0.0, eps, 1 - eps],
        ])
        return mg.spectral_gap(F)

    assert two_block(0.01) < two_block(0.1) < two_block(0.4)
