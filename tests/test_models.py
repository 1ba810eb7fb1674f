"""Model-family checks against closed forms and brute-force integration."""

import io
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import dtrsm

import margrid as mg
from margrid.models import _LOG_2PI

from conftest import ASYM_TABLE, point_draws
from test_model_contract import (CASES, TOY_TILED_DRAWS, factor_grads, gather_tiles,
                                 gp_draws_and_points, gp_surface_case)


# -- toy bimodal model -------------------------------------------------


def test_toy_marginal_is_symmetric(toy_model):
    lams = np.array([[0.0], [0.3], [1.0], [1.7]])
    np.testing.assert_allclose(toy_model.exact_log_u(lams), toy_model.exact_log_u(-lams),
                               rtol=0.0, atol=1e-13)


def test_toy_marginal_matches_quadrature(toy_model):
    # Independent check of the closed form: integrate the joint density
    # over theta numerically and compare in log space.
    lams = [-1.5, 0.0, 0.4, 2.0]
    for lam, exact in zip(lams, toy_model.exact_log_u(np.array(lams)[:, None])):
        val, err = quad(
            lambda th: math.exp(toy_model.log_weight_matrix([th], [[lam]])[0, 0]),
            -12.0,
            12.0,
            limit=200,
        )
        assert err < 1e-7
        assert math.log(val) == pytest.approx(exact, abs=1e-7)


def test_toy_modes_sit_near_plus_minus_y():
    # With tight precisions the mixture components barely overlap and the
    # marginal peaks very close to lam = +/- y.
    model = mg.ToyBimodalModel(y=1.0, q=64.0, tau=1e6)
    lams = np.linspace(-2.0, 2.0, 4001)
    vals = model.exact_log_u(lams[:, None])
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


def test_toy_grad_log_weight_matrix_is_the_per_point_gradient(toy_model, toy_grid):
    # the toy gradient factors: [theta, 1] per draw and [tau; -tau lam] per
    # point, bit for bit, whose product tau theta - tau lam is the gradient
    # tau (theta - lam) to the rounding of its two terms
    thetas = np.linspace(-2.0, 2.0, 11)
    points = np.vstack([toy_grid.points, [[0.3], [-1.7]]])
    tau = toy_model.tau
    factors = gather_tiles(toy_model, thetas, points, grads=True)[1]
    for dstats, _ in factors:
        np.testing.assert_array_equal(dstats, np.column_stack([thetas, np.ones(11)]))
    dcoefs = np.concatenate([f[1] for f in factors], axis=1)
    np.testing.assert_array_equal(dcoefs[:, :, 0], [np.full(len(points), tau),
                                                    -tau * points[:, 0]])
    fast = factor_grads(toy_model, thetas, points)
    assert fast.shape == (11, len(points), 1)
    exact = tau * np.subtract.outer(thetas, points[:, 0])
    scale = tau * np.add.outer(np.abs(thetas), np.abs(points[:, 0]))
    assert np.all(np.abs(fast[:, :, 0] - exact) <= 2 * np.finfo(float).eps * scale)


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
    # a column of two values is two points: z(lam) = (N(1; lam, 1) + N(1;
    # -lam, 1)) / 2 at y = 1 and s = 1/q + 1/tau = 1
    model = mg.ToyBimodalModel()
    z = [(math.exp(-(1 - lam) ** 2 / 2) + math.exp(-(1 + lam) ** 2 / 2))
         / (2 * math.sqrt(2 * math.pi)) for lam in (1.0, 2.0)]
    assert model.exact_log_u([[1.0], [2.0]]) == pytest.approx(np.log(z), rel=1e-14)


# -- Gaussian process regression model ---------------------------------


@pytest.fixture(scope="module")
def gp_model():
    x, y = mg.make_synthetic_gp_dataset(n=8, seed=3)
    return mg.GpRegressionModel(x, y)


def gp_log_prior(points):
    """log p(lam) = -log tau1 - log tau2 for every row of points: the flat
    prior on (log tau1, log tau2)."""
    return -np.log(points[:, 0]) - np.log(points[:, 1])


def gp_cov(model, lam):
    """C_lam = (tau1/tau2) exp(-tau2 D) + relative jitter, built here as the
    oracles' own reference, not read from the model."""
    tau1, tau2 = map(float, lam)
    scale = tau1 / tau2
    return (scale * np.exp(-tau2 * model._sqdist)
            + model.jitter_scale * scale * np.eye(model.y.size))


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
    chol = cholesky(gp_cov(model, lam), lower=True)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    white = solve_triangular(chol, thetas.T, lower=True)
    return obs - 0.5 * (n * math.log(2 * math.pi) + logdet + np.sum(white * white, axis=0))


def gp_grad_oracle(model, thetas, lam):
    """Gradient of log(psi_lam(theta) p(lam)) in (tau1, tau2), one factor
    of C_lam per call: the per-point formula that the gradient factors
    batch.

    d log N(theta; 0, K)/d tau_r = -tr(K^-1 dK)/2 + theta' K^-1 dK K^-1 theta / 2
    with dK/dtau1 = K/tau1 and dK/dtau2 = -K/tau2 - kernel * sqdist (the
    relative jitter folds into K for both derivatives).
    """
    cov = gp_cov(model, lam)
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


def _long_double_cholesky(a):
    """The lower Cholesky factor of a symmetric positive definite np.longdouble
    matrix, written out in np.longdouble."""
    n = a.shape[0]
    chol = np.zeros_like(a)
    for j in range(n):
        chol[j, j] = np.sqrt(a[j, j] - np.sum(chol[j, :j] ** 2))
        for i in range(j + 1, n):
            chol[i, j] = (a[i, j] - np.sum(chol[i, :j] * chol[j, :j])) / chol[j, j]
    return chol


def _long_double_cov_factor(model, lam):
    """K = C_lam + relative jitter, its kernel part and its Cholesky factor,
    all in np.longdouble."""
    ld = np.longdouble
    tau1, tau2 = ld(lam[0]), ld(lam[1])
    n = model.y.size
    decay = np.exp(-tau2 * model._sqdist.astype(ld))
    cov = (tau1 / tau2) * (decay + ld(model.jitter_scale) * np.eye(n, dtype=ld))
    return (tau1 / tau2) * decay, _long_double_cholesky(cov)


def _long_double_forward(chol, rhs):
    """L^{-1} rhs for rhs of shape (n, k), by forward substitution."""
    out = np.zeros_like(rhs)
    for i in range(chol.shape[0]):
        out[i] = (rhs[i] - np.einsum("j,jk->k", chol[i, :i], out[:i])) / chol[i, i]
    return out


def _long_double_backward(chol, rhs):
    """L^{-T} rhs for rhs of shape (n, k), by backward substitution."""
    out = np.zeros_like(rhs)
    for i in range(chol.shape[0] - 1, -1, -1):
        out[i] = (rhs[i] - np.einsum("j,jk->k", chol[i + 1:, i], out[i + 1:])) / chol[i, i]
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


def gp_log_weight_columnwise(model, thetas, points):
    """The per-column sum of the shared-factor kernel's terms, in the order
    q_B * (-1/(2 scale)), + obs, + c0, + log prior: the bit-exact reference
    for the products of log_weight_matrix.  log det B and q_B come from the
    model's own factor and whitening, so this pins the product's rounding,
    not the solve's."""
    n = model.y.size
    resid = model.y[None, :] - thetas
    obs = -0.5 * (n * (_LOG_2PI + np.log(model.noise_var))
                  + np.sum(resid * resid, axis=1) / model.noise_var)
    work = np.empty((1, n, thetas.shape[0]))
    tau2s, group = np.unique(points[:, 1], return_inverse=True)
    log_priors = gp_log_prior(points)
    out = np.empty((thetas.shape[0], points.shape[0]))
    for g, tau2 in enumerate(tau2s):
        logdet, q, _ = model._whiten(thetas, work, tau2, False)
        for j in np.flatnonzero(group == g):
            scale = points[j, 0] / tau2
            c0 = -0.5 * (n * (_LOG_2PI + np.log(scale)) + logdet)
            out[:, j] = ((q * (-0.5 / scale) + obs) + c0) + log_priors[j]
    return out


def test_gp_whitening_holds_the_long_double_reference():
    # q_B and q_E of the model's factor and whitening (one product with the
    # factor's triangular inverse) against a long-double Cholesky and
    # whitening of the same double B(tau2), beside scipy's cholesky and
    # dtrsm on the same draws: the gp-surface bank at its 12 tau2 values,
    # cond(B) 15 to 1.2e10.  Both paths carry the factor's conditioning, up
    # to 3e-7 normwise at the smallest tau2, so the bound is relative to
    # scipy's error (floored at 1e-12 for the well-conditioned groups):
    # measured at most 1.52 times it for q_B and 1.69 times for q_E per
    # group over seeds 1-20 on the default, Haswell and Sandybridge kernels.
    # That error hides the solve's own (any backward-stable whitening, even
    # one through inv(B), stays within it), so q_B is also held against the
    # long-double substitution by the model's own factor: measured at most
    # 1.05e-12, 1.10e-12 and 1.22e-12 normwise on the three kernels, where
    # whitening through inv(B) reads 1.9e-7
    # scipy's solves for all 12 tau2 go first, so that scipy's and numpy's
    # BLAS thread pools take turns once per seed, not once per call
    model = mg.GpRegressionModel(*mg.make_synthetic_gp_dataset(16, 7))
    grid = mg.make_regular_grid(mg.Domain([0.1, 0.1], [10.0, 10.0]), [12, 12], "log")
    eye = np.eye(model.y.size)
    for seed in range(1, 21):
        thetas = mg.draw_sample_bank(model, grid, 64, master_seed=seed).thetas
        draws = np.asfortranarray(thetas)
        work = np.empty((2, model.y.size, len(thetas)))
        scipy_solves = []
        for tau2 in grid.axes[1]:
            chol = cholesky(np.exp(-tau2 * model._sqdist) + model.jitter_scale * eye, lower=True)
            w = dtrsm(1.0, chol, draws, side=1, lower=1, trans_a=1)
            scipy_solves.append((w, dtrsm(1.0, chol, w, side=1, lower=1)))
        for tau2, (w, vs) in zip(grid.axes[1], scipy_solves):
            decay, own_chol = model._factor(tau2)
            base, E = decay + model.jitter_scale * eye, decay * model._sqdist
            ref_chol = _long_double_cholesky(base.astype(np.longdouble))
            white = _long_double_forward(ref_chol, thetas.T.astype(np.longdouble))
            v = _long_double_backward(ref_chol, white)
            refs = (np.sum(white * white, axis=0),
                    np.sum(v * (E.astype(np.longdouble) @ v), axis=0))
            _, q_b, (_, q_e) = model._whiten(thetas, work, tau2, True)
            own = _long_double_forward(own_chol.astype(np.longdouble),
                                       thetas.T.astype(np.longdouble))
            own = np.sum(own * own, axis=0)
            assert np.max(np.abs(q_b - own)) <= 2e-12 * np.max(own), (seed, tau2)
            theirs = (np.sum(w * w, axis=1), np.einsum("ij,ij->i", vs, vs @ E))
            for ours, scipys, ref in zip((q_b, q_e), theirs, refs):
                scale = np.max(np.abs(ref))
                err, scipy_err = (float(np.max(np.abs(q - ref)) / scale) for q in (ours, scipys))
                assert err <= 3.0 * max(scipy_err, 1e-12), (seed, tau2, err, scipy_err)


def test_gp_trace_holds_the_long_double_reference():
    # tr(B^{-1} E), which enters every tau2 gradient, as the model takes it
    # (tr(M), M = L^{-1} E L^{-T}), against a long-double solve by the
    # model's own double factor L at gp-surface's 12 tau2 values: measured
    # at most 1.6e-10, 1.7e-10 and 3.2e-10 relative on the default, Haswell
    # and Sandybridge kernels, all at tau2 <= 1 (cond(B) 1e6 to 1.2e10;
    # 1.5e-12 or less from tau2 = 1.47 up), where two substitutions by the
    # same factor read up to 1.5e-9 and a solve through inv(B) would carry
    # cond(B) eps.  Against a long-double Cholesky of B itself, tr(M), the
    # substitutions and scipy's cho_solve all read up to about 6e-9: that is
    # the factor's conditioning, not the solve's, so it bounds nothing here
    model = mg.GpRegressionModel(*mg.make_synthetic_gp_dataset(16, 7))
    grid = mg.make_regular_grid(mg.Domain([0.1, 0.1], [10.0, 10.0]), [12, 12], "log")
    work = np.empty((2, model.y.size, 1))
    for tau2 in grid.axes[1]:
        decay, chol = model._factor(tau2)
        trace = model._whiten(np.zeros((1, model.y.size)), work, tau2, True)[2][0]
        own = chol.astype(np.longdouble)
        ref = np.trace(_long_double_backward(own, _long_double_forward(
            own, (decay * model._sqdist).astype(np.longdouble))))
        assert abs(trace - ref) <= 1e-9 * abs(ref), (tau2, float(abs(trace - ref) / ref))


def test_gp_posterior_and_marginal_hold_the_long_double_reference():
    # the posterior mean and covariance that the sampler draws from, both
    # from one spectrum Q diag(Lam) Q' of B(tau2) per tau2, and the exact
    # log z, against a long-double solve of the same double C_lam +
    # noise_var I, built here, at every point of gp-surface's 24x24
    # evaluation grid (24 tau2 values).  Errors are max-abs over the
    # reference's max-abs for the mean and covariance, relative for log z;
    # measured at most, over the default, Haswell and Sandybridge kernels:
    # mean 3.9e-13, covariance 1.7e-12 (read back from the sampler's root
    # scales in long double), log z 1.2e-13 (a Cholesky route read
    # 3.4e-14), the spectrum's own conditioning, far below the model's 1e-9
    # jitter.  log z is also held against a long-double evaluation of the
    # model's own (Q, Lam), which leaves only the rounding of its sums: at
    # most 6.1e-16
    model = mg.GpRegressionModel(*mg.make_synthetic_gp_dataset(16, 7))
    grid = mg.make_regular_grid(mg.Domain([0.1, 0.1], [10.0, 10.0]), [24, 24], "log")
    sampler = model.sampler(grid)
    log_zs = model.exact_log_u(grid.points) - model._log_priors(grid.points)
    ld = np.longdouble
    n = model.y.size
    y = model.y.astype(ld)
    noise = ld(model.noise_var)
    log_2pi = np.log(2 * np.arccos(ld(-1)))
    for j, lam in enumerate(grid.points):
        cov = gp_cov(model, lam).astype(ld)
        chol = _long_double_cholesky(cov + noise * np.eye(n, dtype=ld))
        gain = _long_double_backward(chol, _long_double_forward(chol, cov))
        mean_ref, post_ref = gain.T @ y, cov - cov @ gain
        vecs = sampler.vecs[j].astype(ld)
        post = (vecs * sampler.roots[j].astype(ld) ** 2) @ vecs.T
        for got, ref, bound in ((sampler.means[j], mean_ref, 4e-12), (post, post_ref, 2e-11)):
            err = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
            assert err <= bound, (tuple(lam), err)
        log_z = log_zs[j]
        white = _long_double_forward(chol, y[:, None])[:, 0]
        same_c = -(n * log_2pi + 2 * np.sum(np.log(np.diag(chol))) + white @ white) / 2
        vals, vecs, _ = model._spectrum(lam[1])
        noisy = ld(lam[0]) / ld(lam[1]) * vals.astype(ld) + noise
        qty = vecs.astype(ld).T @ y
        own = -(n * log_2pi + np.sum(np.log(noisy)) + np.sum(qty * qty / noisy)) / 2
        for ref, bound in ((same_c, 4e-13), (own, 8e-15)):
            err = float(abs(log_z - ref) / abs(ref))
            assert err <= bound, (tuple(lam), err)


@pytest.mark.parametrize("case", [
    lambda: (CASES["gp-2x2"].model, *CASES["gp-2x2"].columns["gp-3x3+4"]), gp_surface_case],
    ids=["3x3+4", "gp-surface"])
def test_gp_log_weight_matrix_is_the_columnwise_fill(case):
    # one factor group, and so one curve tile, per distinct tau2
    model, thetas, points = case()
    fast = model.log_weight_matrix(thetas, points)
    np.testing.assert_array_equal(fast, gp_log_weight_columnwise(model, thetas, points))
    assert len(list(model.log_weight_factors(thetas, points))) == np.unique(points[:, 1]).size


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
    # relative error meaningless.  Each column's largest error is summed
    # over all 144 columns.  The largest single entry is decided by which
    # BLAS kernel's rounding lands on it: on one 2048-draw bank its ratio
    # read 1.93, 0.92 and 0.79 on the default, Haswell and Sandybridge
    # kernels, and over the banks of seeds 11-20 0.75 to 1.93 (0.78 to
    # 1.50 with Cholesky posterior draws), where the summed ratio read
    # 1.00, 0.72 and 0.86, and 0.85 to 1.00 (0.92 to 1.09).
    x, y = mg.make_synthetic_gp_dataset(16, 7)
    model = mg.GpRegressionModel(x, y)
    grid = mg.make_regular_grid(mg.Domain([0.1, 0.1], [10.0, 10.0]), [12, 12], "log")
    thetas = mg.draw_sample_bank(model, grid, 64, master_seed=11).thetas
    rng = np.random.default_rng(0)
    thetas = thetas[np.sort(rng.choice(thetas.shape[0], 2048, replace=False))]
    fast = model.log_weight_matrix(thetas, grid.points)
    log_priors = gp_log_prior(grid.points)
    err_fast, err_oracle = np.empty(len(grid)), np.empty(len(grid))
    for j, lam in enumerate(grid.points):
        ref = (gp_log_psi_long_double(model, thetas, lam)
               - np.log(np.longdouble(lam[0])) - np.log(np.longdouble(lam[1])))
        scale = np.maximum(np.abs(ref), 1)
        err_fast[j] = np.max(np.abs(fast[:, j] - ref) / scale)
        oracle = gp_log_psi_oracle(model, thetas, lam) + log_priors[j]
        err_oracle[j] = np.max(np.abs(oracle - ref) / scale)
    assert err_fast.sum() <= 1.25 * err_oracle.sum()
    assert err_fast.max() < 1e-4


@pytest.mark.parametrize("n,seed", [(5, 2), (8, 3)])
def test_gp_grad_log_weight_matrix_matches_the_oracle(n, seed):
    # well-conditioned data: one factor of B(tau2) per length scale agrees
    # with one factor of C_lam per point
    x, y = mg.make_synthetic_gp_dataset(n=n, seed=seed)
    model = mg.GpRegressionModel(x, y)
    thetas, points = gp_draws_and_points(model, seed)
    fast = factor_grads(model, thetas, points)
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
    fast = factor_grads(model, thetas, grid.points)
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
    matrix = factor_grads(gp_model, thetas, points)
    for j, lam in enumerate(points):
        np.testing.assert_array_equal(
            factor_grads(gp_model, thetas, lam[None, :])[:, 0], matrix[:, j])
    perm = np.random.default_rng(1).permutation(len(points))
    np.testing.assert_array_equal(
        factor_grads(gp_model, thetas, points[perm]), matrix[:, perm])
    repeat = np.r_[np.arange(len(points)), [0, 4, 4, len(points) - 1]]
    np.testing.assert_array_equal(
        factor_grads(gp_model, thetas, points[repeat]), matrix[:, repeat])
    # every tau2 distinct: one factorization per point
    scattered = points + np.arange(len(points))[:, None] * np.array([0.0, 1e-3])
    separate = np.stack([factor_grads(gp_model, thetas, p[None, :])[:, 0]
                         for p in scattered], axis=1)
    np.testing.assert_array_equal(factor_grads(gp_model, thetas, scattered), separate)


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


@pytest.mark.parametrize("order", ["given", "permuted", "repeats", "distinct-tau2"])
def test_gp_log_weight_blocks_are_the_whole_matrix_columns(order):
    # the column contract's GP inputs in that order: one tile per distinct
    # tau2, every group being narrower than 2T, with or without gradients
    model = CASES["gp-2x2"].model
    thetas, points = CASES["gp-2x2"].columns[f"gp-{order}"]
    matrix = model.log_weight_matrix(thetas, points)
    logw, _, count = gather_tiles(model, thetas, points, grads=False)
    assert count == np.unique(points[:, 1]).size
    np.testing.assert_array_equal(logw, matrix)
    fused_logw, _, _ = gather_tiles(model, thetas, points, grads=True)
    np.testing.assert_array_equal(fused_logw, matrix)


@pytest.mark.parametrize("m", [64, 250])
def test_toy_tiles_of_one_call_share_one_buffer(m):
    # one call of log_weight_tiles writes every column tile into one buffer
    # and every row range into one buffer; each tile, copied as it is
    # yielded, is still the bits of its whole-matrix columns (minus the
    # shift) or rows
    model = CASES["toy-diagnose"].model
    thetas = CASES["toy-diagnose"].columns["toy-tiles-33"][0]
    points = mg.make_regular_grid(mg.Domain(-2.0, 2.0), m).points
    matrix = model.log_weight_matrix(thetas, points)
    shift = np.linspace(-3.0, 3.0, len(thetas))
    tiles = [(cols, block, block.copy())
             for cols, block, _ in mg.models.log_weight_tiles(model, thetas, points, shift=shift)]
    assert len(tiles) > 1
    assert np.shares_memory(tiles[0][1], tiles[-1][1])
    for cols, _, block in tiles:
        np.testing.assert_array_equal(block, matrix[:, cols] - shift[:, None])
    bounds = np.array([0, 5000, 9000, 9001, TOY_TILED_DRAWS])
    rows = list(mg.models.log_weight_tiles(model, thetas, points, rows=bounds))
    assert np.shares_memory(rows[0], rows[-1])
    copies = (r.copy() for r in mg.models.log_weight_tiles(model, thetas, points, rows=bounds))
    for lo, hi, tile in zip(bounds[:-1], bounds[1:], copies):
        np.testing.assert_array_equal(tile, matrix[lo:hi])


@pytest.mark.parametrize("lam", CASES["gp-2x2"].bad["finite positive pair"])
def test_gp_log_weights_reject_a_bad_lambda(gp_model, lam):
    # margrid's own message, for non-finite values too: neither a NaN curve
    # value nor a failure inside scipy
    thetas = np.zeros((2, gp_model.y.size))
    with pytest.raises(ValueError, match="finite positive pair"):
        gp_model.log_weight_matrix(thetas, [lam])
    with pytest.raises(ValueError):  # numpy's own for a ragged list
        gp_model.log_weight_matrix(thetas, [(1.0, 1.0), lam])
    with pytest.raises(ValueError, match="finite positive pair"):
        gp_model.exact_log_u(lam)


def test_gp_single_point_marginal_closed_form():
    # With one observation the marginal covariance is the scalar
    # tau1/tau2 + noise_var, so log z has a one-line closed form.
    y0 = 0.8
    model = mg.GpRegressionModel([0.0], [y0], noise_var=1.0 / 16.0, jitter_scale=0.0)
    points = np.array([(1.0, 1.0), (2.0, 0.5), (0.3, 4.0)])
    s = points[:, 0] / points[:, 1] + 1.0 / 16.0
    expected = -0.5 * (np.log(2 * np.pi * s) + y0**2 / s)
    log_z = model.exact_log_u(points) - model._log_priors(points)
    np.testing.assert_allclose(log_z, expected, rtol=0.0, atol=1e-12)


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
    cov = gp_cov(gp_model, lam)
    mean = cov @ np.linalg.solve(cov + gp_model.noise_var * np.eye(gp_model.y.size), gp_model.y)
    draws = point_draws(gp_model, lam, np.random.default_rng(2), 40_000)
    sd = draws.std(axis=0)
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * sd / math.sqrt(40_000))


def test_gp_banks_factor_each_point_once_per_grid(count_spectra):
    # the first bank on a grid takes one spectrum of B(tau2) per distinct
    # tau2, a second bank on the same grid none, and a bank on another grid
    # its own
    x, y = mg.make_synthetic_gp_dataset(n=4, seed=1)
    model = mg.GpRegressionModel(x, y)
    taken = count_spectra(model)
    domain = mg.Domain([0.5, 0.5], [2.0, 2.0])
    grid = mg.make_regular_grid(domain, (3, 2), scale="log")
    other = mg.make_regular_grid(domain, (2, 3), scale="log")
    first = mg.draw_sample_bank(model, grid, 5, master_seed=3)
    assert taken == grid.axes[1].tolist()
    again = mg.draw_sample_bank(model, grid, 5, master_seed=3)
    assert len(taken) == 2
    np.testing.assert_array_equal(again.thetas, first.thetas)
    mg.draw_sample_bank(model, other, 5, master_seed=3)
    assert taken[2:] == other.axes[1].tolist()
    # the kept sampler is matched by its points, so an equal grid built anew
    # reuses its spectra
    mg.draw_sample_bank(model, mg.make_regular_grid(domain, (2, 3), scale="log"), 5,
                        master_seed=4)
    assert len(taken) == 5


def test_gp_exact_log_u_adds_hyperprior(gp_model):
    # log N(y; 0, C_lam + noise_var I) by a dense solve, plus the hyperprior
    # log p(lam) = -log tau1 - log tau2
    lam = (0.9, 1.4)
    n, y = gp_model.y.size, gp_model.y
    cov = gp_cov(gp_model, lam) + gp_model.noise_var * np.eye(n)
    log_z = -0.5 * (n * _LOG_2PI + np.linalg.slogdet(cov)[1] + y @ np.linalg.solve(cov, y))
    expected = log_z - math.log(0.9) - math.log(1.4)
    assert gp_model.exact_log_u(lam) == pytest.approx(expected, abs=1e-12)


def gp_surface_grids():
    """gp-surface's model, simulation grid and evaluation grid."""
    model = mg.GpRegressionModel(*mg.make_synthetic_gp_dataset(16, 7))
    domain = mg.Domain([0.1, 0.1], [10.0, 10.0])
    return (model, mg.make_regular_grid(domain, [12, 12], "log"),
            mg.make_regular_grid(domain, [24, 24], "log"))


def test_gp_exact_reference_takes_one_spectrum_per_tau2_of_each_grid(count_spectra):
    # one exact_log_u call per grid, one spectrum per distinct tau2 of each:
    # 24 + 12 on gp-surface's grids, where one per point took 720
    model, sim, ev = gp_surface_grids()
    taken = count_spectra(model)
    mg.exact_reference(model, ev, sim)
    assert taken == np.unique(ev.points[:, 1]).tolist() + np.unique(sim.points[:, 1]).tolist()
    assert len(taken) == 36


def test_gp_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mg.GpRegressionModel([0.0, 1.0], [1.0])
    # at construction, with margrid's own message: a NaN would reach the
    # factors as NaN rows, an inf in x would warn, and an empty dataset
    # would have a marginal of -0.0
    for x, y, named in (([0.0, np.nan], [1.0, 2.0], "finite"),
                        ([0.0, np.inf], [1.0, 2.0], "finite"),
                        ([0.0, 1.0], [np.nan, 2.0], "finite"),
                        ([0.0, 1.0], [1.0, -np.inf], "finite"),
                        (np.zeros((2, 1, 1)), [1.0, 2.0], "vector or an"),
                        ([], [], "empty"),
                        (np.zeros((0, 2)), [], "empty")):
        with pytest.raises(ValueError, match=named):
            mg.GpRegressionModel(x, y)
    for noise_var in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            mg.GpRegressionModel([0.0], [1.0], noise_var=noise_var)
    for jitter_scale in (-1e-9, np.inf, np.nan):
        with pytest.raises(ValueError, match="jitter_scale"):
            mg.GpRegressionModel([0.0], [1.0], jitter_scale=jitter_scale)
    # draws of the wrong length or rank: margrid's own message, neither
    # numpy's broadcast error nor a matrix of the wrong shape
    model = mg.GpRegressionModel(*mg.make_synthetic_gp_dataset(4, 1))
    for thetas in (np.zeros((3, 5)), np.zeros((3, 4, 1)), np.zeros(5)):
        with pytest.raises(ValueError, match=r"GP draws must be an \(N, 4\) array"):
            model.log_weight_matrix(thetas, [[1.0, 1.0]])


def test_gp_factor_that_is_not_positive_definite_names_jitter_scale():
    # without jitter, B(tau2) at a tiny tau2 is a near all-ones matrix of
    # numerical rank far below n: its smallest eigenvalue is not above
    # n eps times its largest.  The whitening, the sampler and the exact
    # marginal check that one floor and raise one error, which names tau2
    # and the key that cures it, not numpy's bare "Matrix is not positive
    # definite".  At tau2 = 1e-4 the exact marginal once returned -39.17
    # while every fit failed; at 1e-3 the sign of the smallest eigenvalue,
    # and so whether it returned, depended on the BLAS kernel.  Above the
    # floor every eigenvalue of B is positive, and C_lam + noise_var I
    # positive definite at every tau1
    model = mg.GpRegressionModel(*mg.make_synthetic_gp_dataset(8, 3), jitter_scale=0.0)
    thetas = np.zeros((3, 8))
    for tau2, named in ((1e-7, r"tau2 = 1e-07"), (1e-4, r"tau2 = 0\.0001"),
                        (1e-3, r"tau2 = 0\.001 ")):
        grid = mg.HyperGrid(mg.Domain([0.5, tau2 / 2], [2.0, 2 * tau2]), [[1.0, tau2]])
        for call in (lambda: model._factor(tau2),
                     lambda: model.log_weight_matrix(thetas, [[1.0, tau2]]),
                     lambda: model.sampler(grid),
                     lambda: model.exact_log_u([1e12, tau2])):
            with pytest.raises(ValueError, match=named) as exc:
                call()
            assert "is not positive definite" in str(exc.value)
            assert "[model] jitter_scale" in str(exc.value)
            assert not isinstance(exc.value, np.linalg.LinAlgError)


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
    # the value as a plain number, not numpy's scalar repr
    with pytest.raises(mg.GridError, match=r"^lambda=0\.5 does not match"):
        asym_model.column_of(0.5)


def test_discrete_exact_log_u(asym_model):
    assert asym_model.exact_log_u([[0.0], [1.0]]) == pytest.approx(np.log([4.0, 3.0]))
    assert asym_model.exact_log_u(1.0) == pytest.approx([math.log(3.0)])
    # each atom's mass is its column's own sum, the one its sampler's CDF
    # divides by, bit for bit
    model, points = CASES["discrete-40x9"].model, CASES["discrete-40x9"].exact
    masses = [column.sum() for column in model.psi_table.T]
    np.testing.assert_array_equal(model.exact_log_u(points),
                                  np.log(masses) + np.log(model.prior))


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
    model = CASES["discrete"].model
    thetas, points = CASES["discrete"].columns["discrete"]
    fast = model.log_weight_matrix(thetas, points)
    assert np.isneginf(fast).any()
    # against the table and the prior themselves
    cols = [2, 0, 1, 2, 0]
    with np.errstate(divide="ignore"):
        direct = [np.log(model.psi_table[thetas, c]) + np.log(model.prior[c]) for c in cols]
    np.testing.assert_array_equal(fast, np.stack(direct, axis=1))
    # latent states are atom indices: none wraps around or truncates
    np.testing.assert_array_equal(model.log_weight_matrix(thetas.astype(float), points), fast)
    for bad in (-1, 2.5, 5, np.nan, np.inf):
        with pytest.raises(ValueError, match="atom indices"):
            model.log_weight_matrix(np.r_[thetas, bad], points)
    asym = mg.DiscreteModel(ASYM_TABLE)
    with pytest.raises(ValueError, match="atom indices"):
        mg.fit_emus(mg.SampleBank(asym.grid(), [-1, 0, 2.5, 1], [2, 2]), asym)


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
    # a NaN prior once gave a NaN exact marginal and a fit that blamed the
    # sampler; atoms 1e-9 apart once shared column 0 (a fit read u = [1, 1]
    # for 4 : 3), and atoms 1.5e-9 apart once both matched 0.75e-9
    for kwargs, named in (({"prior": [np.nan, 1.0]}, "prior must be"),
                          ({"prior": [1.0, np.inf]}, "prior must be"),
                          ({"atom_values": [np.nan, 1.0]}, "atom values must be"),
                          ({"atom_values": [0.0, -np.inf]}, "atom values must be"),
                          ({"atom_values": [0.0, 0.0]}, "atom values must be"),
                          ({"atom_values": [1.0, 1.0 - 1e-9]}, "atom values must be"),
                          ({"atom_values": [0.0, 1.5e-9]}, "atom values must be"),
                          ({"atom_values": [0.0, 2e-9]}, "atom values must be")):
        with pytest.raises(ValueError, match=named):
            mg.DiscreteModel(ASYM_TABLE, **kwargs)
    assert mg.DiscreteModel(ASYM_TABLE, atom_values=[0.0, 2.5e-9]).column_of(2.5e-9) == 1


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
