"""Curve evaluation off the simulation grid, gradients, expectations."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import margrid as mg

# Three-atom-column table for off-grid checks: simulate on the outer
# columns, hold out the middle one as an exactly enumerable target.
WIDE_TABLE = np.array([
    [2.0, 1.0, 0.0],
    [1.0, 1.0, 0.0],
    [1.0, 1.0, 1.0],
    [0.0, 1.0, 1.0],
    [0.0, 0.0, 2.0],
])


@pytest.fixture
def wide_model():
    return mg.DiscreteModel(WIDE_TABLE)


@pytest.fixture
def toy_functional(toy_fit, toy_model):
    return mg.FunctionalEstimate(toy_fit, toy_model)


def kernel_values(fn, lam):
    """Mean kernel weight per grid point at lam, shape (L,)."""
    return mg.emus.segment_mean(fn._ratio_matrix([lam])[:, 0], fn.emus.bank.offsets)


def test_kernel_at_grid_point_is_transition_column(toy_fit, toy_model):
    fn = mg.FunctionalEstimate(toy_fit, toy_model)
    for j, lam in enumerate(toy_fit.grid.points):
        np.testing.assert_allclose(
            kernel_values(fn, lam), toy_fit.transition[:, j], atol=1e-12)


def test_curve_reproduces_grid_values(toy_fit, toy_model, asym_model):
    # At a simulation point the curve collapses to the stationary entry
    # because u solves u = F^T u.
    fn = mg.FunctionalEstimate(toy_fit, toy_model)
    for j, lam in enumerate(toy_fit.grid.points):
        assert fn.marginal(lam) == pytest.approx(toy_fit.stationary[j], rel=1e-9)

    bank = mg.exhaustive_discrete_bank(asym_model)
    emus = mg.fit_emus(bank, asym_model)
    fn_d = mg.FunctionalEstimate(emus, asym_model)
    for j, lam in enumerate(emus.grid.points):
        assert fn_d.marginal(lam) == pytest.approx(emus.stationary[j], abs=1e-12)


def test_off_grid_kernel_matches_enumeration(wide_model):
    columns = [0, 2]
    bank = mg.exhaustive_discrete_bank(wide_model, columns)
    emus = mg.fit_emus(bank, wide_model)
    fn = mg.FunctionalEstimate(emus, wide_model)

    target = 1.0  # the held-out middle atom
    kernel_exact, u_target_raw = mg.enumerate_discrete_kernel(
        wide_model, columns, target)
    np.testing.assert_allclose(kernel_values(fn, target), kernel_exact, atol=1e-12)

    # The curve at the target sits on the grid normalization: stationary
    # entries are z p rescaled to sum L over the simulation columns.
    z_sim = np.exp(wide_model.exact_log_u(wide_model.atom_values[columns, None]))
    expected = u_target_raw * len(columns) / z_sim.sum()
    assert fn.marginal(target) == pytest.approx(expected, abs=1e-12)


def test_marginal_many_matches_scalar_calls(toy_functional):
    points = np.linspace(-1.7, 1.7, 9)[:, None]
    many = toy_functional.marginal_many(points)
    single = [toy_functional.marginal(p) for p in points]
    np.testing.assert_allclose(many, single, rtol=1e-12)


def test_constant_test_function_is_exact(toy_functional, toy_grid):
    eval_grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 16)
    one = toy_functional.expectation(lambda t: np.ones(t.shape[0]), eval_grid)
    assert one == pytest.approx(1.0, abs=1e-13)
    c = toy_functional.expectation(lambda t: np.full(t.shape[0], -3.25), eval_grid)
    assert c == pytest.approx(-3.25, abs=1e-12)


def test_expectation_of_theta_vanishes_by_symmetry(toy_model):
    # Everything is even under (theta, lam) -> (-theta, -lam), so the
    # posterior mean of theta over a symmetric window is zero up to
    # Monte Carlo error.
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 8)
    bank = mg.draw_sample_bank(toy_model, grid, 512, master_seed=60)
    fn = mg.FunctionalEstimate(mg.fit_emus(bank, toy_model), toy_model)
    eval_grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 32)
    assert abs(fn.expectation(lambda t: t, eval_grid)) < 0.08


def test_expectation_matches_closed_form_on_window(toy_model):
    # Asymmetric window [0, 2]: the exact analog of the ratio estimator
    # replaces each kernel column by z(lam) times the local mixture mean,
    # with the same quadrature weights, so only Monte Carlo error remains.
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 8)
    bank = mg.draw_sample_bank(toy_model, grid, 2048, master_seed=61)
    fn = mg.FunctionalEstimate(mg.fit_emus(bank, toy_model), toy_model)
    eval_grid = mg.make_regular_grid(mg.Domain(0.0, 2.0), 16)
    got = fn.expectation(lambda t: t, eval_grid)

    q, tau, y = toy_model.q, toy_model.tau, toy_model.y
    s = 1.0 / q + 1.0 / tau
    lams = eval_grid.points[:, 0]
    lw_plus = -0.5 * (np.log(2 * np.pi * s) + (y - lams) ** 2 / s)
    lw_minus = -0.5 * (np.log(2 * np.pi * s) + (y + lams) ** 2 / s)
    w_plus = 1.0 / (1.0 + np.exp(lw_minus - lw_plus))
    m_plus = (q * y + tau * lams) / (q + tau)
    m_minus = (tau * lams - q * y) / (q + tau)
    mean_given_lam = w_plus * m_plus + (1 - w_plus) * m_minus
    z = np.exp(toy_model.exact_log_u(eval_grid.points))
    D = mg.trapezoid_weights(eval_grid)
    exact = float((z * mean_given_lam) @ D / (z @ D))
    assert got == pytest.approx(exact, abs=0.03)


def test_expectation_weights_the_draw_weights_by_phi(toy_functional):
    # the phi-weighted values are one product (c * phi) @ B per block, so
    # no second (samples, M) array is formed
    fn = toy_functional
    eval_grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 16)
    D = mg.trapezoid_weights(eval_grid)
    ratios = fn._ratio_matrix(eval_grid.points)
    phi = fn.emus.bank.thetas ** 2
    expected = (((fn._weights * phi) @ ratios) @ D) / (fn._curve(ratios) @ D)
    assert fn.expectation(lambda t: t ** 2, eval_grid) == float(expected)


def test_expectation_rejects_bad_phi_and_empty_support(toy_functional):
    eval_grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 8)
    with pytest.raises(ValueError):
        toy_functional.expectation(lambda t: np.ones(3), eval_grid)
    far = mg.make_regular_grid(mg.Domain(900.0, 950.0), 4)
    with pytest.raises(mg.DegenerateWeightError):
        toy_functional.expectation(lambda t: t, far)


def test_gradient_matches_finite_differences(toy_functional):
    h = 1e-6
    for lam in (-1.2, 0.0, 0.35, 1.6):
        fd = (toy_functional.marginal(lam + h)
              - toy_functional.marginal(lam - h)) / (2 * h)
        grad = toy_functional.gradient(lam)
        assert grad.shape == (1,)
        assert grad[0] == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_gradient_matches_finite_differences_2d():
    x, y = mg.make_synthetic_gp_dataset(n=5, seed=2)
    model = mg.GpRegressionModel(x, y)
    grid = mg.make_regular_grid(
        mg.Domain([0.5, 0.5], [2.0, 2.0]), [3, 3], scale="log")
    bank = mg.draw_sample_bank(model, grid, 24, master_seed=9)
    fn = mg.FunctionalEstimate(mg.fit_emus(bank, model), model)
    lam = np.array([1.1, 0.9])
    grad = fn.gradient(lam)
    h = 1e-6
    for r in range(2):
        step = np.zeros(2)
        step[r] = h
        fd = (fn.marginal(lam + step) - fn.marginal(lam - step)) / (2 * h)
        assert grad[r] == pytest.approx(fd, rel=1e-4)


def test_batched_gradients_match_the_per_point_formula(toy_functional, toy_model):
    fn = toy_functional
    points = np.linspace(-1.9, 1.9, 9)[:, None]
    _, grads = fn.curve_with_gradient(points)
    for lam, grad in zip(points, grads):
        r = np.exp(toy_model.log_weight_matrix(fn.emus.bank.thetas, lam[None])[:, 0]
                   - fn.emus.lse)
        # d/dlam log psi_lam(theta) = tau (theta - lam); the prior is flat
        g = toy_model.tau * (fn.emus.bank.thetas - lam[0])
        expected = fn.emus.stationary @ mg.emus.segment_mean((r * g)[:, None], fn.emus.bank.offsets)
        np.testing.assert_allclose(grad, expected, rtol=1e-12)
        np.testing.assert_allclose(fn.gradient(lam), expected, rtol=1e-12)


class TwoHookToy(mg.models.Model):
    """The toy model behind only the two required hooks, without factors,
    so its fits and curves take the fallback of ``log_weight_tiles``, which
    has no gradients."""

    def __init__(self, toy):
        self.toy = toy

    def log_weight_matrix(self, thetas, points):
        return self.toy.log_weight_matrix(thetas, points)

    def sampler(self, grid):
        return self.toy.sampler(grid)


def test_discrete_curves_have_no_gradient(asym_model):
    bank = mg.exhaustive_discrete_bank(asym_model)
    fn = mg.FunctionalEstimate(mg.fit_emus(bank, asym_model), asym_model)
    with pytest.raises(mg.GradientUnavailableError):
        fn.curve_with_gradient(asym_model.grid().points)
    with pytest.raises(mg.GradientUnavailableError):
        fn.gradient(1.0)


def test_gp_gradients_leave_the_factor_cache_alone(count_spectra):
    # the bank's grid sampler takes one spectrum per tau2 of the grid; curves
    # and gradients at other values take none and keep that sampler
    x, y = mg.make_synthetic_gp_dataset(n=5, seed=2)
    model = mg.GpRegressionModel(x, y)
    grid = mg.make_regular_grid(mg.Domain([0.5, 0.5], [2.0, 2.0]), [3, 3], scale="log")
    fn = mg.FunctionalEstimate(
        mg.fit_emus(mg.draw_sample_bank(model, grid, 8, master_seed=9), model), model)
    sampler = model.sampler(grid)
    taken = count_spectra(model)
    off_grid = np.array([[0.6, 0.8], [1.1, 0.9], [1.9, 1.3]])
    fn.curve_with_gradient(off_grid)
    fn.gradient(off_grid[1])
    fn.gradient([0.7, 1.7])
    assert taken == []
    assert model.sampler(grid) is sampler


def test_curve_with_gradient_shapes(toy_functional):
    points = np.linspace(-1.0, 1.0, 5)[:, None]
    values, grads = toy_functional.curve_with_gradient(points)
    assert values.shape == (5,)
    assert grads.shape == (5, 1)
    np.testing.assert_allclose(values, toy_functional.marginal_many(points))


def test_density_integrates_to_one(toy_functional):
    eval_grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 32)
    dens = toy_functional.density(eval_grid)
    D = mg.trapezoid_weights(eval_grid)
    assert dens @ D == pytest.approx(1.0, abs=1e-12)
    assert np.all(dens >= 0)
    far = mg.make_regular_grid(mg.Domain(900.0, 950.0), 4)
    with pytest.raises(mg.DegenerateWeightError):
        toy_functional.density(far)


def test_profile_is_axis_max():
    x, y = mg.make_synthetic_gp_dataset(n=5, seed=2)
    model = mg.GpRegressionModel(x, y)
    grid = mg.make_regular_grid(
        mg.Domain([0.5, 0.5], [2.0, 2.0]), [3, 3], scale="log")
    bank = mg.draw_sample_bank(model, grid, 24, master_seed=9)
    fn = mg.FunctionalEstimate(mg.fit_emus(bank, model), model)
    eval_grid = mg.make_regular_grid(
        mg.Domain([0.5, 0.5], [2.0, 2.0]), [4, 5], scale="log")
    values = fn.marginal_many(eval_grid.points)
    axis_vals, prof = mg.profile(values, eval_grid, axis=0)
    assert axis_vals.shape == (4,) and prof.shape == (4,)
    np.testing.assert_allclose(prof, values.reshape(4, 5).max(axis=1))
    with pytest.raises(ValueError):
        scattered = mg.HyperGrid(eval_grid.domain, eval_grid.points)
        mg.profile(values, scattered, axis=0)


@pytest.mark.parametrize("domain,counts", [(mg.Domain(0.5, 2.0), 8),
                                           (mg.Domain([0.5, 0.5], [2.0, 2.0]), [4, 5])],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("axis", [-1, 2])
def test_profile_rejects_an_axis_off_the_grid(domain, counts, axis):
    # a negative axis used to return the global max beside axes[-1], and
    # an axis past the last an IndexError
    eval_grid = mg.make_regular_grid(domain, counts)
    values = np.arange(len(eval_grid), dtype=float)
    with pytest.raises(ValueError, match="axis"):
        mg.profile(values, eval_grid, axis)


def test_argmax_rejects_values_of_another_grid():
    eval_grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 8)
    for values in (np.array([0.0, 5.0, 9.0]), np.zeros(9), np.zeros((8, 1))):
        with pytest.raises(ValueError, match="do not fit"):
            mg.argmax_on(values, eval_grid)
    assert mg.argmax_on(np.arange(8.0), eval_grid)[2] == 7


def test_argmax_reports_first_of_ties(asym_model):
    bank = mg.exhaustive_discrete_bank(asym_model)
    emus = mg.fit_emus(bank, asym_model)
    fn = mg.FunctionalEstimate(emus, asym_model)
    point, value, idx = mg.argmax_on(fn.marginal_many(emus.grid.points), emus.grid)
    assert idx == 0
    assert point.tolist() == [0.0]
    assert value == pytest.approx(8.0 / 7.0)


def test_kernel_ratio_variances_at_grid_point(toy_fit, toy_model):
    # At a simulation column the kernel weights coincide with the
    # normalized transition weights, so their variances match R there.
    fn = mg.FunctionalEstimate(toy_fit, toy_model)
    R = toy_fit.ratio_variances
    j = 3
    ratios = fn._ratio_matrix([toy_fit.grid.points[j]])[:, 0]
    np.testing.assert_allclose(
        mg.emus.segment_var(ratios, fn.emus.bank.offsets), R[:, j], atol=1e-14)


def test_pointwise_bound_consistency(toy_fit, toy_model):
    fn = mg.FunctionalEstimate(toy_fit, toy_model)
    diag = mg.variance_diagnostics(toy_fit)
    lam = toy_fit.grid.points[2]
    b = mg.pointwise_variance_bound(fn, lam, diag)
    assert b > 0 and math.isfinite(b)
    # Reuse of precomputed diagnostics must not change the value.
    assert b == mg.pointwise_variance_bound(fn, lam)


def curve_oracle(fn, points):
    """Curve by the per-point-mean route: u . segment_mean(ratios) per point.

    The ratios come straight from the model, not from the functional.
    """
    model, emus = fn.model, fn.emus
    ratios = np.exp(model.log_weight_matrix(fn.emus.bank.thetas, points) - emus.lse[:, None])
    return ratios, lambda summands: emus.stationary @ mg.emus.segment_mean(
        summands, fn.emus.bank.offsets)


def expectation_oracle(fn, phi, eval_grid):
    ratios, curve = curve_oracle(fn, eval_grid.points)
    quad = mg.trapezoid_weights(eval_grid)
    phi_vals = phi(fn.emus.bank.thetas)
    return (curve(ratios * phi_vals[:, None]) @ quad) / (curve(ratios) @ quad)


def toy_oracle_case():
    model = mg.ToyBimodalModel(y=1.0, q=64.0, tau=16.0)
    domain = mg.Domain(-2.0, 2.0)
    grid = mg.make_regular_grid(domain, 64)
    bank = mg.draw_sample_bank(model, grid, 256, master_seed=31)
    fn = mg.FunctionalEstimate(mg.fit_emus(bank, model), model)
    return fn, mg.make_regular_grid(domain, 97), lambda t: t**2


def gp_oracle_case():
    x, y = mg.make_synthetic_gp_dataset(16, 7)
    model = mg.GpRegressionModel(x, y)
    domain = mg.Domain([0.1, 0.1], [10.0, 10.0])
    grid = mg.make_regular_grid(domain, [12, 12], scale="log")
    bank = mg.draw_sample_bank(model, grid, 64, master_seed=5)
    fn = mg.FunctionalEstimate(mg.fit_emus(bank, model), model)
    return fn, mg.make_regular_grid(domain, [7, 7], scale="log"), lambda t: t[:, 0]


@pytest.mark.parametrize("case", [toy_oracle_case, gp_oracle_case], ids=["toy-L64", "gp-12x12"])
def test_one_product_matches_the_per_point_mean_route(case):
    fn, eval_grid, phi = case()
    ratios, curve = curve_oracle(fn, eval_grid.points)
    expected = curve(ratios)
    np.testing.assert_allclose(fn.marginal_many(eval_grid.points), expected,
                               rtol=1e-13, atol=0)
    assert fn.expectation(phi, eval_grid) == pytest.approx(
        expectation_oracle(fn, phi, eval_grid), rel=1e-13, abs=0)
    # the fit's own grid values come back through the same product
    np.testing.assert_allclose(fn.marginal_many(fn.emus.grid.points),
                               fn.emus.stationary, rtol=1e-11)


def test_marginal_is_the_one_point_curve(toy_functional):
    for lam in (-1.3, 0.0, 0.7, np.array([0.2])):
        assert toy_functional.marginal(lam) == toy_functional.marginal_many([lam])[0]


def test_flat_point_lists_are_one_dimensional_points(toy_functional):
    fn = toy_functional
    column = np.array([[0.1], [0.2], [0.3]])
    values = fn.marginal_many(column)
    assert values.shape == (3,)
    np.testing.assert_array_equal(fn.marginal_many([0.1, 0.2, 0.3]), values)
    np.testing.assert_array_equal(fn.marginal_many(np.array([0.1, 0.2, 0.3])), values)
    np.testing.assert_array_equal(fn.marginal_many(0.1), fn.marginal_many([[0.1]]))
    curve, grads = fn.curve_with_gradient([0.1, 0.2])
    assert curve.shape == (2,) and grads.shape == (2, 1)
    np.testing.assert_array_equal(curve, fn.marginal_many(column[:2]))
    np.testing.assert_array_equal(grads, fn.curve_with_gradient(column[:2])[1])


@pytest.mark.parametrize("points", [
    [[0.1, 5.0]],
    np.zeros((3, 2)),
    np.zeros((2, 1, 1)),
], ids=["one-2d-point", "width-2", "3d-array"])
def test_query_points_of_the_wrong_width_are_rejected(toy_functional, points):
    with pytest.raises(ValueError):
        toy_functional.marginal_many(points)
    with pytest.raises(ValueError):
        toy_functional.curve_with_gradient(points)


def test_flat_values_must_split_into_whole_points():
    x, y = mg.make_synthetic_gp_dataset(n=5, seed=2)
    model = mg.GpRegressionModel(x, y)
    grid = mg.make_regular_grid(
        mg.Domain([0.5, 0.5], [2.0, 2.0]), [2, 2], scale="log")
    fn = mg.FunctionalEstimate(
        mg.fit_emus(mg.draw_sample_bank(model, grid, 8, master_seed=9), model), model)
    pair = fn.marginal_many([[1.0, 1.5], [0.8, 1.2]])
    np.testing.assert_array_equal(fn.marginal_many([1.0, 1.5, 0.8, 1.2]), pair)
    assert fn.marginal([1.0, 1.5]) == pair[0]
    for bad in ([1.0, 1.5, 0.8], 1.0, [[1.0], [1.5]]):
        with pytest.raises(ValueError):
            fn.marginal_many(bad)


def test_toy_log_weights_reject_multi_column_points(toy_model, toy_functional):
    thetas = np.zeros(4)
    with pytest.raises(ValueError):
        toy_model.log_weight_matrix(thetas, [[0.1, 5.0]])
    with pytest.raises(ValueError):
        toy_model.log_weight_matrix(thetas, np.zeros((3, 2)))
    # non-finite values get margrid's own message, neither a NaN curve value
    # nor a numpy warning
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            toy_model.log_weight_matrix(thetas, [[0.3], [bad]])
        with pytest.raises(ValueError, match="finite"):
            toy_functional.marginal_many([bad])


class FortranToy(TwoHookToy):
    """The two-hook toy handing back its log-weights in Fortran order."""

    def log_weight_matrix(self, thetas, points):
        return np.asfortranarray(super().log_weight_matrix(thetas, points))


def test_fortran_ordered_log_weights_change_no_bit():
    # reductions along a row of a Fortran-ordered array add in another
    # order, so the fit's row ranges and the curve's one tile of a model
    # without factors are taken in C order first
    toy = mg.ToyBimodalModel(y=1.0, q=64.0, tau=16.0)
    models = [TwoHookToy(toy), FortranToy(toy)]
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 64)
    eval_points = np.linspace(-2.0, 2.0, 256)
    assert not models[1].log_weight_matrix(np.zeros(8), eval_points[:, None]).flags.c_contiguous
    fits = []
    for model in models:
        est = mg.fit_emus(mg.draw_sample_bank(model, grid, 64, master_seed=3), model)
        fits.append((est, mg.FunctionalEstimate(est, model).marginal_many(eval_points)))
    (plain, curve), (fortran, fortran_curve) = fits
    np.testing.assert_array_equal(fortran.transition, plain.transition)
    np.testing.assert_array_equal(fortran.stationary, plain.stationary)
    np.testing.assert_array_equal(fortran_curve, curve)


# -- curves reduced one log-weight block at a time -----------------------------


def gp_surface_functional(seed=7, model=None):
    """The benchmark's GP surface: 64 draws at each point of a 12x12 log
    grid, with its 24x24 evaluation grid; a model passed in is reused, with
    its grid's sampler."""
    if model is None:
        model = mg.GpRegressionModel(*mg.make_synthetic_gp_dataset(16, 7))
    domain = mg.Domain([0.1, 0.1], [10.0, 10.0])
    grid = mg.make_regular_grid(domain, [12, 12], scale="log")
    fn = mg.FunctionalEstimate(
        mg.fit_emus(mg.draw_sample_bank(model, grid, 64, master_seed=seed), model), model)
    return fn, mg.make_regular_grid(domain, [24, 24], scale="log")


@pytest.fixture(scope="module")
def gp_surface_fit():
    return gp_surface_functional()


def toy_diagnose_functional(seed=7):
    """The benchmark's toy fit: 256 draws at each of 64 points, with its
    256-point evaluation grid; its curves come in 16-column tiles."""
    model = mg.ToyBimodalModel(y=1.0, q=64.0, tau=16.0)
    domain = mg.Domain(-2.0, 2.0)
    grid = mg.make_regular_grid(domain, 64)
    fn = mg.FunctionalEstimate(
        mg.fit_emus(mg.draw_sample_bank(model, grid, 256, master_seed=seed), model), model)
    return fn, mg.make_regular_grid(domain, 256)


@pytest.fixture(scope="module")
def toy_diagnose_fit():
    return toy_diagnose_functional()


def check_toy_tiles_round_as_one_wide_product():
    """Curves, gradients and expectations of the tiled toy curve equal one
    wide product per per-draw row over all points, bit for bit, at M = 17
    (one tile with a ragged end), 33 (a last tile of 17), 250 and 256: the
    values c @ B, the gradient moments (c * theta) @ B and c @ B combined
    with the coefficients [tau; -tau lam], and the phi-weighted values
    (c * phi) @ B."""
    fn, _ = toy_diagnose_functional()
    thetas, c, tau = fn.emus.bank.thetas, fn._weights, fn.model.tau
    phi = thetas ** 2
    for m in (17, 33, 250, 256):
        eval_grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), m)
        points = eval_grid.points
        tiles = len(list(mg.models.log_weight_tiles(fn.model, thetas, points,
                                                    shift=fn.emus.lse)))
        assert tiles == max(1, m // 16), (m, tiles)
        ratios = np.exp(fn.model.log_weight_matrix(thetas, points) - fn.emus.lse[:, None])
        curve = c @ ratios
        moments = np.stack([(c * thetas) @ ratios, curve])
        dcoefs = np.stack([np.full(m, tau), -tau * points[:, 0]])
        values, gradients = fn.curve_with_gradient(points)
        np.testing.assert_array_equal(fn.marginal_many(points), curve)
        np.testing.assert_array_equal(values, curve)
        np.testing.assert_array_equal(gradients, (moments * dcoefs).sum(axis=0)[:, None])
        quad = mg.trapezoid_weights(eval_grid)
        expected = (((c * phi) @ ratios) @ quad) / (curve @ quad)
        assert fn.expectation(lambda t: t ** 2, eval_grid) == float(expected)


def test_curves_hold_one_tile_at_a_time():
    # toy-diagnose size: a column tile of 16384 draws x 16 columns is 2 MiB,
    # and the gradients add only per-draw rows of 128 KiB; a curve, or the
    # model's generator, that kept the last tile while the next one is built
    # would peak a tile higher
    model = mg.ToyBimodalModel(1.0, 64.0, 16.0)
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 64)
    fn = mg.FunctionalEstimate(mg.fit_emus(mg.draw_sample_bank(model, grid, 256, 3), model),
                               model)
    tile = 16384 * 16 * 8
    for curve, tiles in ((fn.marginal_many, 1.5), (fn.curve_with_gradient, 1.5)):
        tracemalloc.start()
        try:
            curve(grid.points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tiles * tile, (curve.__name__, peak / tile)


def check_gp_split_group_rounds_as_one_wide_product():
    """A length scale shared by 32, 40 and 48 points of the gp-surface
    curve (9216 draws, so T = 16 columns) comes in 2, 2 and 3 tiles, whose
    curve values and gradients equal one wide product over the whole
    group, bit for bit: the values c @ B and the gradient moments
    (c * dstats[k]) @ B combined with the group's coefficients."""
    fn, _ = gp_surface_functional()
    thetas, c = fn.emus.bank.thetas, fn._weights
    tau1 = np.exp(np.linspace(np.log(0.1), np.log(10.0), 48))
    for m in (32, 40, 48):
        points = np.column_stack([tau1[:m], np.full(m, 1.3)])
        tiles = list(mg.models.log_weight_tiles(fn.model, thetas, points, shift=fn.emus.lse))
        assert len(tiles) == m // 16, (m, len(tiles))
        ratios = fn._ratio_matrix(points)
        (_, _, _, dstats, dcoefs), = fn.model.log_weight_factors(thetas, points, grads=True)
        moments = np.stack([(c * stat) @ ratios for stat in dstats])
        values, gradients = fn.curve_with_gradient(points)
        np.testing.assert_array_equal(fn.marginal_many(points), c @ ratios)
        np.testing.assert_array_equal(values, c @ ratios)
        np.testing.assert_array_equal(gradients, (moments[:, :, None] * dcoefs).sum(axis=0))


def run_pinned(check):
    """Run a check of this module in a process pinned to one BLAS thread:
    a wide product's reference moves its last bits with the thread count
    (see FunctionalEstimate._curve)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    code = "import runpy; runpy.run_path({!r})[{!r}]()".format(__file__, check)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_toy_tiles_round_as_one_wide_product():
    # A tile starts at a multiple of 16 columns and is at least 16 wide, so
    # each column keeps its lane of the matrix-vector product.
    run_pinned("check_toy_tiles_round_as_one_wide_product")


def test_gp_split_group_rounds_as_one_wide_product():
    # The same for the GP: a group wider than 2T - 1 columns is split, and
    # each of its columns keeps its lane of the group's one product.
    run_pinned("check_gp_split_group_rounds_as_one_wide_product")


def uneven_tau2_points():
    """GP points whose tau2 blocks are 1, 2, 3 and 7 wide, in mixed order."""
    rng = np.random.default_rng(5)
    tau2 = np.repeat([0.35, 0.9, 2.5, 6.0], [1, 2, 3, 7])
    points = np.column_stack([np.exp(rng.uniform(np.log(0.1), np.log(10.0), tau2.size)), tau2])
    return points[rng.permutation(tau2.size)]


def test_gp_block_curves_hold_the_whole_matrix_product(gp_surface_fit):
    # a group of w < 32 columns is one BLAS product of width w, which rounds
    # its last columns by the width, so only the last bits may move.  The
    # gradients are the moments of three statistics combined, which cancel
    # where a component is small: both routes add the same N products
    # c_n B_nj stat_kn dcoef_kj in other orders, so they differ by rounding
    # alone, on the scale S of those products' absolute sum.  Rounding
    # errors that add as a random walk give about sqrt(N) u S for each
    # route (Higham and Mary, SIAM J. Sci. Comput. 41, 2019), so the two
    # are held within 2 sqrt(N) u S; measured at most 0.57 sqrt(N) u S over
    # the banks of seeds 1-20 on the default, Haswell and Sandybridge
    # kernels
    fn, _ = gp_surface_fit
    points = uneven_tau2_points()
    ratios = fn._ratio_matrix(points)
    np.testing.assert_allclose(fn.marginal_many(points), fn._curve(ratios), rtol=1e-13, atol=0)
    grads = np.empty(ratios.shape + (2,))
    scale = np.empty((len(points), 2))
    c = np.abs(fn._weights)
    factors = fn.model.log_weight_factors(fn.emus.bank.thetas, points, grads=True)
    for cols, _, _, dstats, dcoefs in factors:
        grads[:, cols] = (np.einsum("nk,kcp->ncp", np.column_stack(dstats), dcoefs)
                          * ratios[:, cols, None])
        sums = np.stack([(c * np.abs(stat)) @ ratios[:, cols] for stat in dstats])
        scale[cols] = np.einsum("kc,kcp->cp", sums, np.abs(dcoefs))
    values, got = fn.curve_with_gradient(points)
    np.testing.assert_allclose(values, fn._curve(ratios), rtol=1e-13, atol=0)
    expected = fn._curve(grads.reshape(len(ratios), -1)).reshape(-1, 2)
    unit = np.finfo(float).eps / 2
    assert np.all(np.abs(got - expected) <= 2 * np.sqrt(len(ratios)) * unit * scale)


def test_toy_block_curves_are_the_whole_matrix_product(toy_functional):
    fn = toy_functional
    points = np.linspace(-1.9, 1.9, 7)[:, None]
    ratios = fn._ratio_matrix(points)
    np.testing.assert_array_equal(fn.marginal_many(points), fn._curve(ratios))


def test_pointwise_models_reduce_through_the_default_block(toy_model, toy_grid):
    # a model with only the two required hooks runs the whole pipeline to
    # the toy's bits: a griddy chain draws through the base-class loop (one
    # chain, since the toy's batched draw orders a shared stream's variates
    # differently for more), and curves and expectations reduce the one tile
    # of log_weight_tiles's fallback, which is the toy's one tile at 11
    # points; it has no gradients
    eval_grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 11)
    runs = []
    for model in (toy_model, TwoHookToy(toy_model)):
        bank = mg.draw_sample_bank(model, toy_grid, 32, master_seed=404)
        fit = mg.fit_emus(bank, model)
        diag = mg.variance_diagnostics(fit)
        chains = mg.run_griddy_chains(model, toy_grid, 300, np.random.default_rng(5), 1,
                                      burn_in=10)
        fn = mg.FunctionalEstimate(fit, model)
        runs.append([bank.thetas, fit.transition, fit.stationary, diag.R, diag.Q,
                     diag.rel_var_bound, *[trace.visits for trace in chains],
                     fn.marginal_many(eval_grid.points),
                     fn.expectation(lambda t: t ** 2, eval_grid)])
    for toy_bits, two_hook_bits in zip(*runs):
        np.testing.assert_array_equal(two_hook_bits, toy_bits)
    with pytest.raises(mg.GradientUnavailableError):  # the two-hook model's curve
        fn.curve_with_gradient(eval_grid.points)


def test_gp_curves_leave_the_factor_cache_alone(gp_surface_fit, count_spectra):
    fn, eval_grid = gp_surface_fit
    sampler = fn.model.sampler(fn.emus.grid)
    taken = count_spectra(fn.model)
    fn.marginal_many(eval_grid.points)
    fn.curve_with_gradient(uneven_tau2_points())
    fn.expectation(lambda t: t[:, 0], eval_grid)
    assert taken == []
    assert fn.model.sampler(fn.emus.grid) is sampler


@pytest.mark.parametrize("fit,size", [("gp_surface_fit", 42.5e6), ("toy_diagnose_fit", 33.5e6)],
                         ids=["gp-surface", "toy-diagnose"])
def test_curve_never_holds_a_samples_by_points_buffer(request, fit, size):
    # gp-surface: 9216 draws x 576 points, one (S, M) float64 buffer is
    # 42.5 MB; toy-diagnose: 16384 x 256, 33.5 MB.  The curve must peak
    # below half of it.
    fn, eval_grid = request.getfixturevalue(fit)
    whole = 8 * len(fn.emus.bank.thetas) * len(eval_grid)
    tracemalloc.start()
    try:
        fn.marginal_many(eval_grid.points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert whole == pytest.approx(size, rel=1e-2)
    assert peak < whole / 2


def test_gp_curves_factor_each_length_scale_once(gp_surface_fit, monkeypatch):
    # the block route, never the whole-matrix one: no log_weight_matrix
    # call, and one factor per distinct tau2
    fn, eval_grid = gp_surface_fit
    model = fn.model
    factored = []
    factor = model._factor

    def counting_factor(tau2):
        factored.append(float(tau2))
        return factor(tau2)

    def whole_matrix(*args, **kwargs):
        raise AssertionError("a curve asked for a whole log-weight matrix")

    monkeypatch.setattr(model, "_factor", counting_factor)
    monkeypatch.setattr(model, "log_weight_matrix", whole_matrix)
    for call, points in ((fn.marginal_many, eval_grid.points),
                         (fn.curve_with_gradient, uneven_tau2_points())):
        factored.clear()
        call(points)
        assert sorted(factored) == sorted(set(points[:, 1].tolist()))


# -- accuracy of the moment reductions -----------------------------------------

#: seeds of the toy-diagnose and gp-surface fits that the accuracy gates cover
GATE_SEEDS = range(1, 21)


def toy_gate_fits():
    """Per seed: the toy-diagnose functional, its gradient points (the
    grid), its evaluation grid and its test function."""
    for seed in GATE_SEEDS:
        fn, eval_grid = toy_diagnose_functional(seed)
        yield fn, fn.emus.grid.points, eval_grid, lambda t: t ** 2


def gp_gate_fits():
    """Per seed: the gp-surface functional, the 16 grid points at which the
    benchmark takes its gradients, a 7x7 evaluation grid (seven length
    scales, where the benchmark's has 24) and a test function."""
    model = mg.GpRegressionModel(*mg.make_synthetic_gp_dataset(16, 7))
    domain = mg.Domain([0.1, 0.1], [10.0, 10.0])
    eval_grid = mg.make_regular_grid(domain, [7, 7], scale="log")
    for seed in GATE_SEEDS:
        fn, _ = gp_surface_functional(seed, model)
        idx = np.sort(np.random.default_rng(seed).choice(len(fn.emus.grid), 16, replace=False))
        yield fn, fn.emus.grid.points[idx], eval_grid, lambda t: t[:, 0]


@pytest.fixture(scope="module", params=[toy_gate_fits, gp_gate_fits],
                ids=["toy-diagnose", "gp-surface"])
def gate_fits(request):
    return list(request.param())


def long_double_gradients(fn, points):
    """c @ (G * B) in np.longdouble: the per-draw gradients G of the
    log-weights, from the double-precision draws and statistics, times the
    kernel weights B, summed in extended precision."""
    ld = np.longdouble
    model, thetas = fn.model, fn.emus.bank.thetas
    c = fn._weights.astype(ld)[:, None]
    if isinstance(model, mg.ToyBimodalModel):
        grads = ld(model.tau) * np.subtract.outer(thetas.astype(ld), points[:, 0].astype(ld))
        return (c * grads * fn._ratio_matrix(points)).sum(axis=0)[:, None]
    # the GP gradient formula of ``_grad_coefs`` per point, from the
    # whitened squares q_B and q_E of each tile and tr(B^{-1} E) of its
    # length scale, taken as the model takes it, tr(M) for M = L^{-1} E
    # L^{-T}, so this gate holds the reduction, not the trace (which
    # test_gp_trace_holds_the_long_double_reference holds); tr(M) does not
    # depend on the draws, so one draw's whitening gives its bits
    n = model.y.size
    out = np.empty(points.shape, dtype=ld)
    work = np.empty((2, n, 1))
    tiles = mg.models.log_weight_tiles(model, thetas, points, shift=fn.emus.lse, grads=True)
    for cols, block, (dstats, _) in tiles:
        trace = ld(model._whiten(thetas[:1], work, points[cols[0], 1], True)[2][0])
        tau1, tau2 = points[cols, 0].astype(ld), ld(points[cols[0], 1])
        quad_k = dstats[0][:, None].astype(ld) * tau2 / tau1
        quad_e = dstats[1][:, None].astype(ld) * tau2 / tau1
        weights = c * np.exp(block)
        out[cols, 0] = (weights * ((quad_k - n - 2) / (2 * tau1))).sum(axis=0)
        out[cols, 1] = (weights * ((n - quad_k - 2) / (2 * tau2)
                                   + (trace - quad_e) / 2)).sum(axis=0)
    return out


def test_curve_gradients_hold_the_long_double_reference(gate_fits):
    # the gradients combine importance-weighted moments of per-draw
    # statistics, whose terms cancel: the toy's tau theta - tau lam where
    # theta is near lam, the GP's q_E against tr(B^{-1} E) and q_B against
    # n by up to 270x.  Measured as a share of the largest gradient of the
    # call, on the default, Haswell and Sandybridge OpenBLAS kernels: toy
    # 2.0e-13 to 5.7e-13, GP 3.6e-14 to 6.1e-14 (forming the product of G
    # and B first reads 1.3e-14 and 4.8e-15)
    bound = 2e-12 if isinstance(gate_fits[0][0].model, mg.ToyBimodalModel) else 1e-13
    for fn, points, _, _ in gate_fits:
        _, got = fn.curve_with_gradient(points)
        ref = long_double_gradients(fn, points)
        assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))


def phi_in_place_expectation(fn, phi, eval_grid):
    """The expectation with phi multiplied into the kernel weights, c @ (B
    * phi), in 64-column slices of the evaluation grid."""
    c, phi_vals = fn._weights, phi(fn.emus.bank.thetas)
    values, weighted = np.empty(len(eval_grid)), np.empty(len(eval_grid))
    for lo in range(0, len(eval_grid), 64):
        ratios = fn._ratio_matrix(eval_grid.points[lo:lo + 64])
        values[lo:lo + 64] = c @ ratios
        weighted[lo:lo + 64] = c @ (ratios * phi_vals[:, None])
    quad = mg.trapezoid_weights(eval_grid)
    return (weighted @ quad) / (values @ quad)


def test_expectations_hold_the_phi_in_place_product(gate_fits):
    # (c * phi) @ B rounds apart from c @ (B * phi) by a few units in the
    # last place of each term; the ratio measured 2.2e-16 at worst
    for fn, _, eval_grid, phi in gate_fits:
        assert fn.expectation(phi, eval_grid) == pytest.approx(
            phi_in_place_expectation(fn, phi, eval_grid), rel=1e-13, abs=0)
