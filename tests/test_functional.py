"""Curve evaluation off the simulation grid, gradients, expectations."""

import math
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
    return mg.emus.segment_mean(fn._ratio_matrix([lam])[:, 0], fn._offsets)


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
    z_sim = np.array([np.exp(wide_model.exact_log_u(wide_model.atom_values[c]))
                      for c in columns])
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
    z = np.exp([toy_model.exact_log_u(l) for l in lams])
    D = mg.trapezoid_weights(eval_grid)
    exact = float((z * mean_given_lam) @ D / (z @ D))
    assert got == pytest.approx(exact, abs=0.03)


def test_expectation_weights_the_ratio_matrix_in_place(toy_functional):
    # phi multiplied into the ratio matrix in place forms the same
    # products as a second (samples, M) array, so no bit moves
    fn = toy_functional
    eval_grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 16)
    D = mg.trapezoid_weights(eval_grid)
    ratios = fn._ratio_matrix(eval_grid.points)
    phi = fn._thetas ** 2
    expected = (fn._curve(ratios * phi[:, None]) @ D) / (fn._curve(ratios) @ D)
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
        r = np.exp(toy_model.log_psi(fn._thetas, lam) + toy_model.log_prior(lam)
                   - fn.emus.cache.lse)
        # d/dlam log psi_lam(theta) = tau (theta - lam); the prior is flat
        g = toy_model.tau * (fn._thetas - lam[0])
        expected = fn.emus.stationary @ mg.emus.segment_mean((r * g)[:, None], fn._offsets)
        np.testing.assert_allclose(grad, expected, rtol=1e-12)
        np.testing.assert_allclose(fn.gradient(lam), expected, rtol=1e-12)


class PointwiseToy(mg.models.Model):
    """A model with only the required hooks and the gradient matrix, so its
    log-weights come from the base-class loop and its blocks from the
    default."""

    def __init__(self, toy):
        self.toy = toy

    def log_psi(self, thetas, lam):
        return self.toy.log_psi(thetas, lam)

    def log_prior(self, lam):
        return self.toy.log_prior(lam)

    def sample_local(self, lam, rng, size):
        return self.toy.sample_local(lam, rng, size)

    def grad_log_weight_matrix(self, thetas, points):
        return self.toy.grad_log_weight_matrix(thetas, points)


def test_discrete_curves_have_no_gradient(asym_model):
    bank = mg.exhaustive_discrete_bank(asym_model)
    fn = mg.FunctionalEstimate(mg.fit_emus(bank, asym_model), asym_model)
    with pytest.raises(mg.GradientUnavailableError):
        fn.curve_with_gradient(asym_model.grid().points)
    with pytest.raises(mg.GradientUnavailableError):
        fn.gradient(1.0)


def test_gp_gradients_leave_the_factor_cache_alone():
    # the sampler caches one factorization per grid value; curves and
    # gradients at other values add none
    x, y = mg.make_synthetic_gp_dataset(n=5, seed=2)
    model = mg.GpRegressionModel(x, y)
    grid = mg.make_regular_grid(mg.Domain([0.5, 0.5], [2.0, 2.0]), [3, 3], scale="log")
    fn = mg.FunctionalEstimate(
        mg.fit_emus(mg.draw_sample_bank(model, grid, 8, master_seed=9), model), model)
    cached = len(model._cache)
    off_grid = np.array([[0.6, 0.8], [1.1, 0.9], [1.9, 1.3]])
    fn.curve_with_gradient(off_grid)
    fn.gradient(off_grid[1])
    fn.gradient([0.7, 1.7])
    assert len(model._cache) == cached


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
    R = mg.weight_ratio_variances(toy_fit)
    j = 3
    ratios = fn._ratio_matrix([toy_fit.grid.points[j]])[:, 0]
    np.testing.assert_allclose(
        mg.emus.segment_var(ratios, fn._offsets), R[:, j], atol=1e-14)


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
    ratios = np.exp(model.log_weight_matrix(fn._thetas, points) - emus.cache.lse[:, None])
    return ratios, lambda summands: emus.stationary @ mg.emus.segment_mean(
        summands, fn._offsets)


def expectation_oracle(fn, phi, eval_grid):
    ratios, curve = curve_oracle(fn, eval_grid.points)
    quad = mg.trapezoid_weights(eval_grid)
    phi_vals = phi(fn._thetas)
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


def test_toy_log_weights_reject_multi_column_points(toy_model):
    thetas = np.zeros(4)
    with pytest.raises(ValueError):
        toy_model.log_weight_matrix(thetas, [[0.1, 5.0]])
    with pytest.raises(ValueError):
        toy_model.log_weight_matrix(thetas, np.zeros((3, 2)))


class FortranToy(mg.ToyBimodalModel):
    """The toy model handing back its log-weights in Fortran order."""

    def log_weight_matrix(self, thetas, points):
        return np.asfortranarray(super().log_weight_matrix(thetas, points))


def test_fortran_ordered_log_weights_change_no_bit():
    # reductions along a row of a Fortran-ordered array add in another
    # order, so the callers take the log-weights in C order first
    models = [cls(y=1.0, q=64.0, tau=16.0) for cls in (mg.ToyBimodalModel, FortranToy)]
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 64)
    eval_points = np.linspace(-2.0, 2.0, 256)
    fits = []
    for model in models:
        est = mg.fit_emus(mg.draw_sample_bank(model, grid, 64, master_seed=3), model)
        fits.append((est, mg.FunctionalEstimate(est, model).marginal_many(eval_points)))
    (plain, curve), (fortran, fortran_curve) = fits
    np.testing.assert_array_equal(fortran.transition, plain.transition)
    np.testing.assert_array_equal(fortran.stationary, plain.stationary)
    np.testing.assert_array_equal(fortran_curve, curve)


# -- curves reduced one log-weight block at a time -----------------------------


@pytest.fixture(scope="module")
def gp_surface_fit():
    """The benchmark's GP surface: 64 draws at each point of a 12x12 log
    grid, with its 24x24 evaluation grid."""
    x, y = mg.make_synthetic_gp_dataset(16, 7)
    model = mg.GpRegressionModel(x, y)
    domain = mg.Domain([0.1, 0.1], [10.0, 10.0])
    grid = mg.make_regular_grid(domain, [12, 12], scale="log")
    fn = mg.FunctionalEstimate(
        mg.fit_emus(mg.draw_sample_bank(model, grid, 64, master_seed=7), model), model)
    return fn, mg.make_regular_grid(domain, [24, 24], scale="log")


def uneven_tau2_points():
    """GP points whose tau2 blocks are 1, 2, 3 and 7 wide, in mixed order."""
    rng = np.random.default_rng(5)
    tau2 = np.repeat([0.35, 0.9, 2.5, 6.0], [1, 2, 3, 7])
    points = np.column_stack([np.exp(rng.uniform(np.log(0.1), np.log(10.0), tau2.size)), tau2])
    return points[rng.permutation(tau2.size)]


def test_gp_block_curves_hold_the_whole_matrix_product(gp_surface_fit):
    # a block of w columns is one BLAS product of width w, which rounds its
    # last columns by the width, so only the last bits may move
    fn, _ = gp_surface_fit
    points = uneven_tau2_points()
    ratios = fn._ratio_matrix(points)
    np.testing.assert_allclose(fn.marginal_many(points), fn._curve(ratios), rtol=1e-13, atol=0)
    grads = fn.model.grad_log_weight_matrix(fn._thetas, points) * ratios[:, :, None]
    values, got = fn.curve_with_gradient(points)
    np.testing.assert_allclose(values, fn._curve(ratios), rtol=1e-13, atol=0)
    np.testing.assert_allclose(got, fn._curve(grads.reshape(len(ratios), -1)).reshape(-1, 2),
                               rtol=1e-13, atol=0)


def test_toy_block_curves_are_the_whole_matrix_product(toy_functional):
    fn = toy_functional
    points = np.linspace(-1.9, 1.9, 7)[:, None]
    ratios = fn._ratio_matrix(points)
    np.testing.assert_array_equal(fn.marginal_many(points), fn._curve(ratios))


def test_pointwise_models_reduce_through_the_default_block(toy_fit, toy_model):
    # a model with only the pointwise interface gets its curves, gradients
    # and expectations from one default block: the whole-matrix arithmetic
    fn = mg.FunctionalEstimate(toy_fit, PointwiseToy(toy_model))
    eval_grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 11)
    points = eval_grid.points
    ratios = fn._ratio_matrix(points)
    grads = np.ascontiguousarray(fn.model.grad_log_weight_matrix(fn._thetas, points))
    grads *= ratios[:, :, None]
    values, gradients = fn.curve_with_gradient(points)
    np.testing.assert_array_equal(fn.marginal_many(points), fn._curve(ratios))
    np.testing.assert_array_equal(values, fn._curve(ratios))
    np.testing.assert_array_equal(gradients, fn._curve(grads.reshape(len(ratios), -1))
                                  .reshape(points.shape))
    phi = fn._thetas ** 2
    quad = mg.trapezoid_weights(eval_grid)
    expected = (fn._curve(ratios * phi[:, None]) @ quad) / (fn._curve(ratios) @ quad)
    assert fn.expectation(lambda t: t ** 2, eval_grid) == float(expected)


def test_gp_curves_leave_the_factor_cache_alone(gp_surface_fit):
    fn, eval_grid = gp_surface_fit
    cached = len(fn.model._cache)
    fn.marginal_many(eval_grid.points)
    fn.curve_with_gradient(uneven_tau2_points())
    fn.expectation(lambda t: t[:, 0], eval_grid)
    assert len(fn.model._cache) == cached


def test_gp_curve_never_holds_a_samples_by_points_buffer(gp_surface_fit):
    # 9216 draws x 576 points: one (S, M) float64 buffer is 42.5 MB, and the
    # curve must peak below half of it
    fn, eval_grid = gp_surface_fit
    whole = 8 * len(fn._thetas) * len(eval_grid)
    tracemalloc.start()
    try:
        fn.marginal_many(eval_grid.points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert whole > 42e6
    assert peak < whole / 2


def test_gp_curves_factor_each_length_scale_once(gp_surface_fit, monkeypatch):
    # the block route, never the whole-matrix one: no log_weight_matrix or
    # gradient-matrix call, and one factor per distinct tau2
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
    monkeypatch.setattr(model, "grad_log_weight_matrix", whole_matrix)
    for call, points in ((fn.marginal_many, eval_grid.points),
                         (fn.curve_with_gradient, uneven_tau2_points())):
        factored.clear()
        call(points)
        assert sorted(factored) == sorted(set(points[:, 1].tolist()))
