"""Model-family checks against closed forms and brute-force integration."""

import io
import math
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import dtrsm

import margrid as mg
from margrid.models import _LOG_2PI

from conftest import ASYM_TABLE, point_draws


# -- toy bimodal model -------------------------------------------------


def test_toy_marginal_is_symmetric(toy_model):
    for lam in (0.0, 0.3, 1.0, 1.7):
        assert toy_model.exact_log_u(lam) == pytest.approx(
            toy_model.exact_log_u(-lam), abs=1e-13
        )


def test_toy_marginal_matches_quadrature(toy_model):
    # Independent check of the closed form: integrate the joint density
    # over theta numerically and compare in log space.
    for lam in (-1.5, 0.0, 0.4, 2.0):
        val, err = quad(
            lambda th: math.exp(toy_model.log_weight_matrix([th], [[lam]])[0, 0]),
            -12.0,
            12.0,
            limit=200,
        )
        assert err < 1e-7
        assert math.log(val) == pytest.approx(toy_model.exact_log_u(lam), abs=1e-7)


def test_toy_modes_sit_near_plus_minus_y():
    # With tight precisions the mixture components barely overlap and the
    # marginal peaks very close to lam = +/- y.
    model = mg.ToyBimodalModel(y=1.0, q=64.0, tau=1e6)
    lams = np.linspace(-2.0, 2.0, 4001)
    vals = np.array([model.exact_log_u(l) for l in lams])
    order = np.argsort(vals)[::-1]
    top = sorted(lams[order[:2]])
    assert top[0] == pytest.approx(-1.0, abs=0.01)
    assert top[1] == pytest.approx(1.0, abs=0.01)


def test_toy_sampler_matches_mixture_moments(toy_model):
    # the sampler draws exactly from the conjugate mixture; compare its first moment
    # against the analytic two-component mixture mean.
    lam, n = 0.7, 200_000
    q, tau, y = toy_model.q, toy_model.tau, toy_model.y
    s = 1.0 / q + 1.0 / tau
    lw = np.array([
        -0.5 * (math.log(2 * math.pi * s) + (y - lam) ** 2 / s),
        -0.5 * (math.log(2 * math.pi * s) + (y + lam) ** 2 / s),
    ])
    w_plus = 1.0 / (1.0 + math.exp(lw[1] - lw[0]))
    v = 1.0 / (q + tau)
    m_plus = (q * y + tau * lam) / (q + tau)
    m_minus = (tau * lam - q * y) / (q + tau)
    mean = w_plus * m_plus + (1 - w_plus) * m_minus
    second = w_plus * (v + m_plus**2) + (1 - w_plus) * (v + m_minus**2)
    sd = math.sqrt(second - mean**2)

    draws = point_draws(toy_model, lam, np.random.default_rng(5), n)
    assert abs(draws.mean() - mean) < 3 * sd / math.sqrt(n)


def test_toy_mixture_weight_is_expit_to_four_ulp():
    # w_plus is scipy's expit formula 1 / (1 + exp(-d)) written in numpy with
    # the exponent capped, so its last bits follow numpy's exp, not libm's
    from scipy.special import expit

    model = mg.ToyBimodalModel(y=1.0, q=2.0, tau=2.0)
    s = 1.0 / model.q + 1.0 / model.tau
    # d = 2 y lam / s spans +-800, past where exp(-d) overflows
    lams = np.linspace(-400.0, 400.0, 200_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w_plus = model._local_mixture(lams)[0]
    d = mg.models._gauss_logpdf(model.y, lams, s) - mg.models._gauss_logpdf(model.y, -lams, s)
    ref = expit(d)
    assert np.all((w_plus >= 0.0) & (w_plus <= 1.0))
    normal = ref >= 1e-300
    assert normal.any() and not normal.all()
    ulps = np.abs(w_plus[normal] - ref[normal]) / np.spacing(ref[normal])
    assert ulps.max() <= 4
    assert np.all(w_plus[~normal] <= 1e-300)


def test_toy_sampler_is_reproducible(toy_model):
    a = point_draws(toy_model, 0.4, np.random.default_rng(99), 64)
    b = point_draws(toy_model, 0.4, np.random.default_rng(99), 64)
    np.testing.assert_array_equal(a, b)


def test_toy_grad_log_weight_matrix_is_the_per_point_gradient(toy_model, toy_grid):
    # the toy gradient blocks: tau (theta - lam) per point, bit for bit
    thetas = np.linspace(-2.0, 2.0, 11)
    points = np.vstack([toy_grid.points, [[0.3], [-1.7]]])
    fast = block_grads(toy_model, thetas, points)
    assert fast.shape == (11, len(points), 1)
    for m, lam in enumerate(points):
        np.testing.assert_array_equal(fast[:, m, 0], toy_model.tau * (thetas - lam[0]))
    with pytest.raises(ValueError):
        block_grads(toy_model, thetas, np.array([[0.1, 5.0]]))


@pytest.mark.parametrize("half_width", [2.0, 10.0])
@pytest.mark.parametrize("tau", [16.0, 100.0, 1000.0])
def test_toy_factor_form_matches_the_direct_form(tau, half_width):
    # The statistics-times-coefficients product expands -tau (theta - lam)^2/2
    # into tau theta lam and the terms -tau theta^2/2 and -tau lam^2/2, so its
    # rounding scales with those terms, not with the result.  Against the
    # direct form (mixture plus the Gaussian log density of theta - lam), it
    # must stay within 32 eps of 1 + tau (theta^2 + lam^2)/2 everywhere on
    # the domain, for compare's tau_sweep and the benchmark's tau.
    model = mg.ToyBimodalModel(y=1.0, q=64.0, tau=tau)
    rng = np.random.default_rng(int(tau + half_width))
    thetas = np.r_[rng.uniform(-half_width, half_width, 2048), -half_width, 0.0, half_width]
    lams = np.linspace(-half_width, half_width, 257)
    got = model.log_weight_matrix(thetas, lams[:, None])
    direct = model._log_mixture(thetas)[:, None] + mg.models._gauss_logpdf(
        thetas[:, None], lams[None, :], 1.0 / tau)
    scale = 1.0 + tau * (thetas[:, None] ** 2 + lams[None, :] ** 2) / 2.0
    assert np.max(np.abs(got - direct) / scale) <= 32 * np.finfo(float).eps


def test_toy_rejects_nonpositive_precisions():
    # nan and inf, too, which a config can spell as `q = nan` or `y = 1e400`
    for bad in ({"q": 0.0}, {"tau": -1.0}, {"q": np.inf}, {"tau": np.nan},
                {"y": np.inf}, {"y": np.nan}):
        with pytest.raises(ValueError):
            mg.ToyBimodalModel(**bad)


# -- Gaussian process regression model ---------------------------------


@pytest.fixture(scope="module")
def gp_model():
    x, y = mg.make_synthetic_gp_dataset(n=8, seed=3)
    return mg.GpRegressionModel(x, y)


def gp_log_prior(points):
    """log p(lam) = -log tau1 - log tau2 for every row of points: the flat
    prior on (log tau1, log tau2)."""
    return -np.log(points[:, 0]) - np.log(points[:, 1])


def gp_log_psi_oracle(model, thetas, lam):
    """log N(y; theta, s2 I) + log N(theta; 0, C_lam), one factor of C_lam per call.

    The per-column formula that log_weight_matrix batches: it whitens
    the draws by the Cholesky factor of C_lam itself, not of B(tau2).
    """
    thetas = np.atleast_2d(thetas)
    n = model.y.size
    resid = model.y[None, :] - thetas
    obs = -0.5 * (n * (math.log(2 * math.pi) + math.log(model.noise_var))
                  + np.sum(resid * resid, axis=1) / model.noise_var)
    chol = cholesky(model._cov_factor(lam)[0], lower=True)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    white = solve_triangular(chol, thetas.T, lower=True)
    return obs - 0.5 * (n * math.log(2 * math.pi) + logdet + np.sum(white * white, axis=0))


def gp_grad_oracle(model, thetas, lam):
    """Gradient of log(psi_lam(theta) p(lam)) in (tau1, tau2), one factor
    of C_lam per call: the per-point formula that the gradient blocks
    batch.

    d log N(theta; 0, K)/d tau_r = -tr(K^-1 dK)/2 + theta' K^-1 dK K^-1 theta / 2
    with dK/dtau1 = K/tau1 and dK/dtau2 = -K/tau2 - kernel * sqdist (the
    relative jitter folds into K for both derivatives).
    """
    cov = model._cov_factor(lam)[0]
    tau1, tau2 = map(float, lam)
    thetas = np.atleast_2d(thetas)
    n = model.y.size
    chol = cholesky(cov, lower=True)
    v = cho_solve((chol, True), thetas.T)          # K^{-1} theta, (n, N)
    quad_k = np.sum(thetas.T * v, axis=0)          # theta' K^{-1} theta
    # kernel .* sqdist: sqdist has a zero diagonal, so the jitter drops out
    cd = cov * model._sqdist
    tr_kinv_cd = float(np.trace(cho_solve((chol, True), cd)))
    quad_cd = np.sum(v * (cd @ v), axis=0)         # v' (kernel.*sqdist) v
    g1 = -0.5 * n / tau1 + 0.5 * quad_k / tau1 - 1.0 / tau1
    g2 = (0.5 * n / tau2 + 0.5 * tr_kinv_cd
          - 0.5 * quad_k / tau2 - 0.5 * quad_cd - 1.0 / tau2)
    return np.stack([g1, g2], axis=1)


def _long_double_cov_factor(model, lam):
    """K = C_lam + relative jitter, its kernel part and its Cholesky factor,
    all in np.longdouble."""
    ld = np.longdouble
    tau1, tau2 = ld(lam[0]), ld(lam[1])
    n = model.y.size
    decay = np.exp(-tau2 * model._sqdist.astype(ld))
    cov = (tau1 / tau2) * (decay + ld(model.jitter_scale) * np.eye(n, dtype=ld))
    chol = np.zeros((n, n), dtype=ld)
    for j in range(n):
        chol[j, j] = np.sqrt(cov[j, j] - np.sum(chol[j, :j] ** 2))
        for i in range(j + 1, n):
            chol[i, j] = (cov[i, j] - np.sum(chol[i, :j] * chol[j, :j])) / chol[j, j]
    return (tau1 / tau2) * decay, chol


def _long_double_forward(chol, rhs):
    """L^{-1} rhs for rhs of shape (n, k), by forward substitution."""
    out = np.zeros_like(rhs)
    for i in range(chol.shape[0]):
        out[i] = (rhs[i] - chol[i, :i] @ out[:i]) / chol[i, i]
    return out


def _long_double_backward(chol, rhs):
    """L^{-T} rhs for rhs of shape (n, k), by backward substitution."""
    out = np.zeros_like(rhs)
    for i in range(chol.shape[0] - 1, -1, -1):
        out[i] = (rhs[i] - chol[i + 1:, i] @ out[i + 1:]) / chol[i, i]
    return out


def gp_log_psi_long_double(model, thetas, lam):
    """The same log density in extended precision: Cholesky and forward
    substitution written out in np.longdouble."""
    ld = np.longdouble
    n = model.y.size
    chol = _long_double_cov_factor(model, lam)[1]
    th = thetas.astype(ld)
    white = _long_double_forward(chol, th.T).T
    log_2pi = np.log(2 * np.arccos(ld(-1)))
    noise = ld(model.noise_var)
    resid = model.y.astype(ld)[None, :] - th
    obs = -(n * (log_2pi + np.log(noise)) + np.sum(resid * resid, axis=1) / noise) / 2
    prior = -(n * log_2pi + 2 * np.sum(np.log(np.diag(chol)))
              + np.sum(white * white, axis=1)) / 2
    return obs + prior


def gp_grad_long_double(model, thetas, lam):
    """gp_grad_oracle in extended precision, with the factor and both
    substitutions written out in np.longdouble."""
    ld = np.longdouble
    tau1, tau2 = ld(lam[0]), ld(lam[1])
    n = model.y.size
    kernel, chol = _long_double_cov_factor(model, lam)
    th = thetas.astype(ld).T
    v = _long_double_backward(chol, _long_double_forward(chol, th))
    quad_k = np.sum(th * v, axis=0)
    cd = kernel * model._sqdist.astype(ld)
    tr = np.trace(_long_double_backward(chol, _long_double_forward(chol, cd)))
    quad_cd = np.sum(v * (cd @ v), axis=0)
    g1 = -n / (2 * tau1) + quad_k / (2 * tau1) - 1 / tau1
    g2 = n / (2 * tau2) + tr / 2 - quad_k / (2 * tau2) - quad_cd / 2 - 1 / tau2
    return np.stack([g1, g2], axis=1)


def gp_draws_and_points(model, seed):
    """Draws from a 3x3 log grid plus off-grid points sharing and not
    sharing its tau2 values."""
    grid = mg.make_regular_grid(mg.Domain([0.3, 0.3], [3.0, 3.0]), [3, 3], "log")
    thetas = mg.draw_sample_bank(model, grid, 16, master_seed=seed).thetas
    extra = np.array([[0.7, grid.axes[1][0]], [2.2, grid.axes[1][2]], [1.3, 0.45], [0.4, 2.6]])
    return thetas, np.vstack([grid.points, extra])


def gp_log_weight_columnwise(model, thetas, points):
    """The per-column sum of the shared-factor kernel's terms, in the order
    q_B * (-1/(2 scale)), + obs, + c0, + log prior: the bit-exact reference
    for the gathered passes and the per-block products of log_weight_matrix."""
    n = model.y.size
    resid = model.y[None, :] - thetas
    obs = -0.5 * (n * (_LOG_2PI + np.log(model.noise_var))
                  + np.sum(resid * resid, axis=1) / model.noise_var)
    draws = np.asfortranarray(thetas)
    tau2s, group = np.unique(points[:, 1], return_inverse=True)
    log_priors = gp_log_prior(points)
    out = np.empty((thetas.shape[0], points.shape[0]))
    for g, tau2 in enumerate(tau2s):
        base = np.exp(-tau2 * model._sqdist) + model.jitter_scale * np.eye(n)
        chol = cholesky(base, lower=True)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        white = dtrsm(1.0, chol, draws, side=1, lower=1, trans_a=1)
        q = np.sum(white * white, axis=1)
        for j in np.flatnonzero(group == g):
            scale = points[j, 0] / tau2
            c0 = -0.5 * (n * (_LOG_2PI + np.log(scale)) + logdet)
            out[:, j] = ((q * (-0.5 / scale) + obs) + c0) + log_priors[j]
    return out


def gp_surface_case():
    """The benchmark's GP surface: 64 draws at each point of a 12x12 log
    grid against the 24x24 evaluation grid."""
    x, y = mg.make_synthetic_gp_dataset(16, 7)
    model = mg.GpRegressionModel(x, y)
    domain = mg.Domain([0.1, 0.1], [10.0, 10.0])
    grid = mg.make_regular_grid(domain, [12, 12], "log")
    thetas = mg.draw_sample_bank(model, grid, 64, master_seed=7).thetas
    return model, thetas, mg.make_regular_grid(domain, [24, 24], "log").points


def gp_small_case():
    x, y = mg.make_synthetic_gp_dataset(n=8, seed=3)
    model = mg.GpRegressionModel(x, y)
    return (model,) + gp_draws_and_points(model, 4)


@pytest.mark.parametrize("case", [gp_small_case, gp_surface_case], ids=["3x3+4", "gp-surface"])
def test_gp_log_weight_matrix_is_the_columnwise_fill(case):
    model, thetas, points = case()
    fast = model.log_weight_matrix(thetas, points)
    assert fast.flags.c_contiguous
    np.testing.assert_array_equal(fast, gp_log_weight_columnwise(model, thetas, points))


@pytest.mark.parametrize("n,seed,jitter_scale", [(5, 2, 1e-9), (8, 3, 1e-9), (16, 7, 1e-4)])
def test_gp_log_weight_matrix_matches_the_oracle(n, seed, jitter_scale):
    # cond(C) up to about 1e5 on these data: the shared factorization of
    # B(tau2) agrees with a factorization per column to 1e-9 relative to
    # max(|value|, 1); a log-weight near zero is a cancellation of terms
    # of order one or larger, so it gets the same absolute tolerance.
    x, y = mg.make_synthetic_gp_dataset(n=n, seed=seed)
    model = mg.GpRegressionModel(x, y, jitter_scale=jitter_scale)
    thetas, points = gp_draws_and_points(model, seed)
    fast = model.log_weight_matrix(thetas, points)
    slow = np.stack([gp_log_psi_oracle(model, thetas, p) for p in points],
                    axis=1) + gp_log_prior(points)
    np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-9)


def test_gp_log_weights_no_worse_than_the_oracle_in_extended_precision():
    # The benchmark's GP configuration reaches cond(C) ~ 1e10, where
    # neither path is exact.  Against a long-double reference, over every
    # grid column, the batched path must be as accurate as the per-column
    # one; both add the prior, the reference in long double.  Errors are
    # relative to max(|ref|, 1): log-weights near zero make a plain
    # relative error meaningless.  The maximum is taken over all 144
    # columns because over a dozen it swings by 2x either way.
    x, y = mg.make_synthetic_gp_dataset(16, 7)
    model = mg.GpRegressionModel(x, y)
    grid = mg.make_regular_grid(mg.Domain([0.1, 0.1], [10.0, 10.0]), [12, 12], "log")
    thetas = mg.draw_sample_bank(model, grid, 64, master_seed=11).thetas
    rng = np.random.default_rng(0)
    thetas = thetas[np.sort(rng.choice(thetas.shape[0], 2048, replace=False))]
    fast = model.log_weight_matrix(thetas, grid.points)
    log_priors = gp_log_prior(grid.points)
    err_fast = err_oracle = 0.0
    for j, lam in enumerate(grid.points):
        ref = (gp_log_psi_long_double(model, thetas, lam)
               - np.log(np.longdouble(lam[0])) - np.log(np.longdouble(lam[1])))
        scale = np.maximum(np.abs(ref), 1)
        err_fast = max(err_fast, float(np.max(np.abs(fast[:, j] - ref) / scale)))
        oracle = gp_log_psi_oracle(model, thetas, lam) + log_priors[j]
        err_oracle = max(err_oracle, float(np.max(np.abs(oracle - ref) / scale)))
    assert err_fast <= 1.25 * err_oracle
    assert err_fast < 1e-4


@pytest.mark.parametrize("n,seed", [(5, 2), (8, 3)])
def test_gp_grad_log_weight_matrix_matches_the_oracle(n, seed):
    # well-conditioned data: one factor of B(tau2) per length scale agrees
    # with one factor of C_lam per point
    x, y = mg.make_synthetic_gp_dataset(n=n, seed=seed)
    model = mg.GpRegressionModel(x, y)
    thetas, points = gp_draws_and_points(model, seed)
    fast = block_grads(model, thetas, points)
    assert fast.shape == (len(thetas), len(points), 2)
    slow = np.stack([gp_grad_oracle(model, thetas, p) for p in points], axis=1)
    np.testing.assert_allclose(fast, slow, rtol=1e-9)


def test_gp_gradients_no_worse_than_the_oracle_in_extended_precision():
    # On the benchmark's GP configuration (cond(C) ~ 1e10) neither path is
    # exact.  Against a long-double reference, over every grid point, the
    # batched gradients must be as accurate as the per-point ones.  An
    # entry's error is relative to the largest |reference| of its point and
    # component: single gradients cancel to near zero, where a plain
    # relative error means nothing.
    x, y = mg.make_synthetic_gp_dataset(16, 7)
    model = mg.GpRegressionModel(x, y)
    grid = mg.make_regular_grid(mg.Domain([0.1, 0.1], [10.0, 10.0]), [12, 12], "log")
    thetas = mg.draw_sample_bank(model, grid, 64, master_seed=11).thetas
    rng = np.random.default_rng(0)
    thetas = thetas[np.sort(rng.choice(thetas.shape[0], 1024, replace=False))]
    fast = block_grads(model, thetas, grid.points)
    err_fast = err_oracle = 0.0
    for j, lam in enumerate(grid.points):
        ref = gp_grad_long_double(model, thetas, lam)
        scale = np.max(np.abs(ref), axis=0)
        err_fast = max(err_fast, float(np.max(np.abs(fast[:, j] - ref) / scale)))
        err_oracle = max(err_oracle, float(np.max(
            np.abs(gp_grad_oracle(model, thetas, lam) - ref) / scale)))
    assert err_fast <= 1.25 * err_oracle
    assert err_fast < 1e-5


def test_gp_grad_columns_do_not_depend_on_their_companions(gp_model):
    thetas, points = gp_draws_and_points(gp_model, 6)
    matrix = block_grads(gp_model, thetas, points)
    for j, lam in enumerate(points):
        np.testing.assert_array_equal(
            block_grads(gp_model, thetas, lam[None, :])[:, 0], matrix[:, j])
    perm = np.random.default_rng(1).permutation(len(points))
    np.testing.assert_array_equal(
        block_grads(gp_model, thetas, points[perm]), matrix[:, perm])
    repeat = np.r_[np.arange(len(points)), [0, 4, 4, len(points) - 1]]
    np.testing.assert_array_equal(
        block_grads(gp_model, thetas, points[repeat]), matrix[:, repeat])
    # every tau2 distinct: one factorization per point
    scattered = points + np.arange(len(points))[:, None] * np.array([0.0, 1e-3])
    separate = np.stack([block_grads(gp_model, thetas, p[None, :])[:, 0]
                         for p in scattered], axis=1)
    np.testing.assert_array_equal(block_grads(gp_model, thetas, scattered), separate)


def test_gp_log_weight_columns_do_not_depend_on_their_companions(gp_model):
    thetas, points = gp_draws_and_points(gp_model, 6)
    matrix = gp_model.log_weight_matrix(thetas, points)
    perm = np.random.default_rng(1).permutation(len(points))
    np.testing.assert_array_equal(
        gp_model.log_weight_matrix(thetas, points[perm]), matrix[:, perm])
    repeat = np.r_[np.arange(len(points)), [0, 4, 4, len(points) - 1]]
    np.testing.assert_array_equal(
        gp_model.log_weight_matrix(thetas, points[repeat]), matrix[:, repeat])
    # every tau2 distinct: one factorization per column
    scattered = points + np.arange(len(points))[:, None] * np.array([0.0, 1e-3])
    separate = np.stack([gp_model.log_weight_matrix(thetas, p[None, :])[:, 0]
                         for p in scattered], axis=1)
    np.testing.assert_array_equal(gp_model.log_weight_matrix(thetas, scattered), separate)


def gather_blocks(model, thetas, points, grads):
    """Scatter the blocks of ``log_weight_blocks`` back into whole matrices,
    each as it is yielded (a block is valid until the next one is
    requested), checking that each block is a C-ordered array and that the
    blocks cover every column once; returns (log-weights, gradients or
    None, number of blocks)."""
    logw = np.full((len(thetas), len(points)), np.nan)
    grad = np.full((len(thetas), len(points), points.shape[1]), np.nan) if grads else None
    seen, count = [], 0
    for cols, block, grad_block in model.log_weight_blocks(thetas, points, grads):
        assert block.flags.c_contiguous and block.shape == (len(thetas), len(cols))
        logw[:, cols] = block
        if grads:
            assert grad_block.shape == (len(thetas), len(cols), points.shape[1])
            grad[:, cols] = grad_block
        else:
            assert grad_block is None
        seen.extend(cols)
        count += 1
    assert sorted(seen) == list(range(len(points)))
    return logw, grad, count


def block_grads(model, thetas, points):
    """The gradients of ``log_weight_blocks``, scattered back into one
    (N, M, p) array."""
    return gather_blocks(model, thetas, points, grads=True)[1]


@pytest.mark.parametrize("order", ["given", "permuted", "repeats", "distinct-tau2"])
def test_gp_log_weight_blocks_are_the_whole_matrix_columns(gp_model, order):
    thetas, points = gp_draws_and_points(gp_model, 6)
    if order == "permuted":
        points = points[np.random.default_rng(1).permutation(len(points))]
    elif order == "repeats":
        points = points[np.r_[np.arange(len(points)), [0, 4, 4, len(points) - 1]]]
    elif order == "distinct-tau2":
        points = points + np.arange(len(points))[:, None] * np.array([0.0, 1e-3])
    matrix = gp_model.log_weight_matrix(thetas, points)
    logw, _, count = gather_blocks(gp_model, thetas, points, grads=False)
    # one block per distinct tau2
    assert count == np.unique(points[:, 1]).size
    np.testing.assert_array_equal(logw, matrix)
    fused_logw, _, _ = gather_blocks(gp_model, thetas, points, grads=True)
    np.testing.assert_array_equal(fused_logw, matrix)


def toy_case():
    """Toy draws against a reversed 8-point grid and two off-grid values."""
    model = mg.ToyBimodalModel(y=1.0, q=2.0, tau=2.0)
    points = np.vstack([mg.make_regular_grid(mg.Domain(-2.0, 2.0), 8).points[::-1],
                        [[0.3], [-1.7]]])
    return model, np.linspace(-2.0, 2.0, 11), points


#: draws of the toy-diagnose fit (64 points, 256 draws each): enough that
#: its log-weights come in several cache-sized tiles
TOY_TILED_DRAWS = 16384


def toy_tiled_case(m):
    """The toy-diagnose model's draws against an m-point grid."""
    model = mg.ToyBimodalModel(y=1.0, q=64.0, tau=16.0)
    thetas = np.random.default_rng(3).normal(0.0, 1.5, TOY_TILED_DRAWS)
    return model, thetas, mg.make_regular_grid(mg.Domain(-2.0, 2.0), m).points


def discrete_case():
    """A table with zero entries and a nonflat prior, atoms repeated and
    out of order."""
    model = mg.DiscreteModel(ASYM_TABLE[:, [0, 1, 0]] + [[0, 0, 1]] * 5,
                             atom_values=[0.0, 0.5, 1.0], prior=[1.0, 2.0, 3.0])
    return model, np.array([0, 4, 2, 1, 3, 0, 2, 4]), np.array([[1.0], [0.0], [0.5], [1.0], [0.0]])


def gp_grid_case():
    """The gp-surface evaluation grid against every eighth of its draws."""
    model, thetas, points = gp_surface_case()
    return model, thetas[::8], points


@pytest.mark.parametrize("case", [toy_case, partial(toy_tiled_case, 33),
                                  partial(toy_tiled_case, 256), discrete_case,
                                  gp_small_case, gp_grid_case],
                         ids=["toy", "toy-tiles-33", "toy-tiles-256", "discrete",
                              "gp-3x3+4", "gp-24x24"])
def test_log_weight_columns_are_one_point_calls(case):
    # the model contract: every column of the wide matrix is the bits of a
    # one-point call, its blocks scatter back into the whole matrix, and
    # its fused gradient blocks (where it has them) are the bits of
    # one-point blocks
    model, thetas, points = case()
    matrix = model.log_weight_matrix(thetas, points)
    for j, lam in enumerate(points):
        np.testing.assert_array_equal(
            matrix[:, j], model.log_weight_matrix(thetas, lam[None])[:, 0])
    grads = not isinstance(model, mg.DiscreteModel)
    logw, grad, count = gather_blocks(model, thetas, points, grads=grads)
    if len(thetas) == TOY_TILED_DRAWS:
        assert count > 1
    elif not isinstance(model, mg.GpRegressionModel):
        assert count == 1
    np.testing.assert_array_equal(logw, matrix)
    if grads:
        np.testing.assert_array_equal(grad, np.stack(
            [block_grads(model, thetas, lam[None, :])[:, 0] for lam in points], axis=1))


@pytest.mark.parametrize("m", [64, 250])
def test_toy_tiles_of_one_call_share_one_buffer(m):
    # one call writes every column tile (and gradient tile) into one buffer
    # and every row range into one buffer; each tile, copied as it is
    # yielded, is still the bits of its whole-matrix columns or rows
    model, thetas, points = toy_tiled_case(m)
    matrix = model.log_weight_matrix(thetas, points)
    grads = model.tau * np.subtract.outer(thetas, points[:, 0])
    tiles = [(cols, block, grad, block.copy(), grad.copy())
             for cols, block, grad in model.log_weight_blocks(thetas, points, grads=True)]
    assert len(tiles) > 1
    first, last = tiles[0], tiles[-1]
    assert np.shares_memory(first[1], last[1])
    assert np.shares_memory(first[2], last[2])
    for cols, _, _, block, grad in tiles:
        np.testing.assert_array_equal(block, matrix[:, cols])
        np.testing.assert_array_equal(grad[:, :, 0], grads[:, cols])
    bounds = np.array([0, 5000, 9000, 9001, TOY_TILED_DRAWS])
    rows = list(model.log_weight_rows(thetas, points, bounds))
    assert np.shares_memory(rows[0], rows[-1])
    for lo, hi, tile in zip(bounds[:-1], bounds[1:],
                            (r.copy() for r in model.log_weight_rows(thetas, points, bounds))):
        np.testing.assert_array_equal(tile, matrix[lo:hi])


@pytest.mark.parametrize("lam", [(1.0, -1.0), (0.0, 1.0), (1.0,), (1.0, 1.0, 1.0)])
def test_gp_log_weights_reject_a_bad_lambda(gp_model, lam):
    thetas = np.zeros((2, gp_model.y.size))
    with pytest.raises(ValueError):
        gp_model.log_weight_matrix(thetas, [lam])
    with pytest.raises(ValueError):
        gp_model.log_weight_matrix(thetas, [(1.0, 1.0), lam])


def test_gp_single_point_marginal_closed_form():
    # With one observation the marginal covariance is the scalar
    # tau1/tau2 + noise_var, so log z has a one-line closed form.
    y0 = 0.8
    model = mg.GpRegressionModel([0.0], [y0], noise_var=1.0 / 16.0, jitter_scale=0.0)
    for tau1, tau2 in [(1.0, 1.0), (2.0, 0.5), (0.3, 4.0)]:
        s = tau1 / tau2 + 1.0 / 16.0
        expected = -0.5 * (math.log(2 * math.pi * s) + y0**2 / s)
        assert model.log_marginal_likelihood((tau1, tau2)) == pytest.approx(
            expected, abs=1e-12
        )


def test_gp_gradient_matches_finite_differences(gp_model):
    rng = np.random.default_rng(11)
    lam = np.array([1.3, 0.7])
    thetas = point_draws(gp_model, lam, rng, 3)
    h = 1e-6

    def logp(t, l):
        return gp_model.log_weight_matrix(t, l[None, :])[:, 0]

    grad = block_grads(gp_model, thetas, lam[None, :])[:, 0]
    for r in range(2):
        step = np.zeros(2)
        step[r] = h
        fd = (logp(thetas, lam + step) - logp(thetas, lam - step)) / (2 * h)
        np.testing.assert_allclose(grad[:, r], fd, rtol=1e-5)


def test_gp_huge_noise_pulls_posterior_to_prior():
    x, y = mg.make_synthetic_gp_dataset(n=6, seed=1)
    model = mg.GpRegressionModel(x, y, noise_var=1e8)
    draws = point_draws(model, (1.0, 1.0), np.random.default_rng(0), 50_000)
    # Prior mean is zero and the data carry almost no information, so the
    # sampler mean must vanish within Monte Carlo error.
    prior_sd = math.sqrt(1.0)
    assert np.all(np.abs(draws.mean(axis=0)) < 4 * prior_sd / math.sqrt(50_000))


def test_gp_sampler_mean_matches_posterior(gp_model):
    lam = (1.0, 1.0)
    mean, _ = gp_model._posterior(lam)
    draws = point_draws(gp_model, lam, np.random.default_rng(2), 40_000)
    sd = draws.std(axis=0)
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * sd / math.sqrt(40_000))


def test_gp_banks_factor_each_point_once_per_grid(count_posteriors):
    # the first bank on a grid factors each point's posterior once, a second
    # bank on the same grid none, and a bank on another grid its points again
    x, y = mg.make_synthetic_gp_dataset(n=4, seed=1)
    model = mg.GpRegressionModel(x, y)
    factored = count_posteriors(model)
    domain = mg.Domain([0.5, 0.5], [2.0, 2.0])
    grid = mg.make_regular_grid(domain, (2, 2), scale="log")
    other = mg.make_regular_grid(domain, (3, 2), scale="log")
    first = mg.draw_sample_bank(model, grid, 5, master_seed=3)
    assert factored == [tuple(p) for p in grid.points]
    again = mg.draw_sample_bank(model, grid, 5, master_seed=3)
    assert len(factored) == len(grid)
    np.testing.assert_array_equal(again.thetas, first.thetas)
    mg.draw_sample_bank(model, other, 5, master_seed=3)
    assert factored[len(grid):] == [tuple(p) for p in other.points]
    # the kept sampler is matched by its points, so an equal grid built anew
    # reuses its factors
    mg.draw_sample_bank(model, mg.make_regular_grid(domain, (3, 2), scale="log"), 5,
                        master_seed=4)
    assert len(factored) == len(grid) + len(other)


def test_gp_exact_log_u_adds_hyperprior(gp_model):
    lam = (0.9, 1.4)
    expected = gp_model.log_marginal_likelihood(lam) - math.log(0.9) - math.log(1.4)
    assert gp_model.exact_log_u(lam) == pytest.approx(expected, abs=1e-12)


def test_gp_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mg.GpRegressionModel([0.0, 1.0], [1.0])
    for noise_var in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            mg.GpRegressionModel([0.0], [1.0], noise_var=noise_var)
    for jitter_scale in (-1e-9, np.inf, np.nan):
        with pytest.raises(ValueError, match="jitter_scale"):
            mg.GpRegressionModel([0.0], [1.0], jitter_scale=jitter_scale)
    model = mg.GpRegressionModel([0.0], [1.0])
    with pytest.raises(ValueError):
        model.log_marginal_likelihood((1.0, -1.0))


def test_synthetic_dataset_is_deterministic():
    x1, y1 = mg.make_synthetic_gp_dataset(n=12, seed=42)
    x2, y2 = mg.make_synthetic_gp_dataset(n=12, seed=42)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(y1, y2)
    assert x1.shape == (12,) and y1.shape == (12,)


# -- discrete enumeration model -----------------------------------------


def test_discrete_column_lookup(asym_model):
    assert asym_model.column_of(0.0) == 0
    assert asym_model.column_of(1.0) == 1
    with pytest.raises(mg.GridError):
        asym_model.column_of(0.5)


def test_discrete_exact_log_u(asym_model):
    assert asym_model.exact_log_u(0.0) == pytest.approx(math.log(4.0))
    assert asym_model.exact_log_u(1.0) == pytest.approx(math.log(3.0))


def test_discrete_sampler_frequencies(asym_model):
    n = 100_000
    draws = point_draws(asym_model, 0.0, np.random.default_rng(8), n)
    freq = np.bincount(draws, minlength=5) / n
    p = ASYM_TABLE[:, 0] / ASYM_TABLE[:, 0].sum()
    se = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(freq - p) <= 4 * se + 1e-12)


def test_discrete_sampler_is_generator_choice():
    # the inverse-CDF lookup draws what Generator.choice draws, bit for bit,
    # and leaves the generator in the same state
    tables = np.random.default_rng(0)
    for case in range(200):
        k = int(tables.integers(1, 9))
        table = tables.random((k, 3)) * (tables.random((k, 3)) < 0.7)  # some zero atoms
        table[0] += 0.5  # every column has mass
        model = mg.DiscreteModel(table)
        col = case % 3
        w = model.psi_table[:, col]
        size = int(tables.integers(1, 50))
        rng, oracle = np.random.default_rng(case), np.random.default_rng(case)
        draws = model.sampler(model.grid([col])).draw(0, rng, size)
        expected = oracle.choice(w.size, size=size, p=w / w.sum())
        assert draws.dtype == expected.dtype
        np.testing.assert_array_equal(draws, expected)
        assert rng.bit_generator.state == oracle.bit_generator.state


def test_discrete_log_weight_matrix_matches_columnwise():
    model, thetas, points = discrete_case()
    fast = model.log_weight_matrix(thetas, points)
    assert np.isneginf(fast).any()
    # against the table and the prior themselves, and one-point calls
    # as the same columns
    cols = [2, 0, 1, 2, 0]
    with np.errstate(divide="ignore"):
        direct = [np.log(model.psi_table[thetas, c]) + np.log(model.prior[c]) for c in cols]
    np.testing.assert_array_equal(fast, np.stack(direct, axis=1))
    for p, col in zip(points, direct):
        np.testing.assert_array_equal(model.log_weight_matrix(thetas, p[None])[:, 0], col)
    with pytest.raises(mg.GridError):
        model.log_weight_matrix(thetas, [[0.0], [0.25]])


def test_bundled_log_weight_matrices_are_c_ordered(asym_model, toy_model, gp_model):
    # the callers' np.ascontiguousarray is then free: no copy is made
    gp_thetas, gp_points = gp_draws_and_points(gp_model, 2)
    cases = [(asym_model, np.array([0, 4, 2, 1]), asym_model.grid().points),
             (toy_model, np.linspace(-2.0, 2.0, 7), np.linspace(-1.0, 1.0, 5)[:, None]),
             (gp_model, gp_thetas, gp_points)]
    for model, thetas, points in cases:
        logw = model.log_weight_matrix(thetas, points)
        assert logw.shape == (len(thetas), len(points))
        assert logw.dtype == float and logw.flags.c_contiguous
        assert np.ascontiguousarray(logw, dtype=float) is logw


def test_bundled_grad_matrices_are_c_ordered(toy_model, gp_model):
    # every gradient block is a fresh C-ordered float array
    gp_thetas, gp_points = gp_draws_and_points(gp_model, 2)
    cases = [(toy_model, np.linspace(-2.0, 2.0, 7), np.linspace(-1.0, 1.0, 5)[:, None]),
             (gp_model, gp_thetas, gp_points)]
    for model, thetas, points in cases:
        for cols, _, grads in model.log_weight_blocks(thetas, points, grads=True):
            assert grads.shape == (len(thetas), len(cols), points.shape[1])
            assert grads.dtype == float and grads.flags.c_contiguous
            assert np.ascontiguousarray(grads, dtype=float) is grads


def test_discrete_grid_subsets(asym_model):
    full = asym_model.grid()
    assert full.points.tolist() == [[0.0], [1.0]]
    sub = asym_model.grid([1])
    assert sub.points.tolist() == [[1.0]]


def test_discrete_requires_positive_mass_per_atom():
    with pytest.raises(mg.DegenerateWeightError):
        mg.DiscreteModel(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        mg.DiscreteModel(np.array([[1.0, -1.0], [1.0, 2.0]]))


def test_gradient_flags():
    # a model without hyperparameter gradients says so by raising when
    # blocks ask for gradients
    disc = mg.DiscreteModel(ASYM_TABLE)
    with pytest.raises(mg.GradientUnavailableError):
        list(disc.log_weight_blocks(np.array([0]), [[0.0], [1.0]], grads=True))


# -- dataset and table serialization ------------------------------------


def test_gp_dataset_csv_round_trip(tmp_path):
    x, y = mg.make_synthetic_gp_dataset(n=5, seed=0)
    path = tmp_path / "data.csv"
    mg.gp_dataset_to_csv(x, y, path)
    x2, y2 = mg.gp_dataset_from_csv(path)
    np.testing.assert_array_equal(x2.ravel(), x)
    np.testing.assert_array_equal(y2, y)


def test_discrete_table_from_csv():
    # comment lines are skipped, wherever they sit
    text = "# note\npsi0,psi1\n2,0\n1,0\n# another\n1,1\n0,1\n0,1\n"
    table = mg.discrete_table_from_csv(io.StringIO(text))
    np.testing.assert_array_equal(table, ASYM_TABLE)
