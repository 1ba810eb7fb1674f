"""Statistical models exposing local densities over a hyperparameter.

Every model provides three hooks, for hyperparameter values lam in its
domain, and may override the defaults of five more:

- ``log_psi(thetas, lam)``: log of the unnormalized local density
  psi_lam(theta) evaluated at a batch of latent states,
- ``log_prior(lam)``: log prior density over the hyperparameter,
- ``sample_local(lam, rng, size)``: exact draws from the normalized
  local density pi_lam = psi_lam / z(lam),
- optionally ``sample_local_many(points, rngs)``: one draw per row of
  points, row r from ``rngs[r]``, consuming each generator exactly as
  ``sample_local(points[r], rngs[r], 1)`` does; the base class loops,
  and the toy and discrete models override it with batched arithmetic
  (the griddy Gibbs chains of :mod:`margrid.baselines` call it once per
  lockstep iteration),
- optionally ``log_weight_matrix(thetas, points)``: the log-weights
  log(psi_lam(theta) p(lam)) of many values at once, shape (N, M), prior
  included; the base class loops over ``log_psi`` and ``log_prior``, and
  every bundled model overrides it with one batched evaluation,
- optionally ``grad_log_weight_matrix(thetas, points)``: their
  hyperparameter gradients, shape (N, M, p); the base class raises
  ``GradientUnavailableError``, and the toy and GP models override it,
- optionally ``log_weight_blocks(thetas, points, grads)``: the columns of
  ``log_weight_matrix`` (and, with ``grads``, of
  ``grad_log_weight_matrix``) in blocks; the base class yields one block
  of both whole matrices, and the GP model one block per length scale,
- optionally ``exact_log_u`` (a closed form for log z(lam) p(lam), used
  as an oracle by diagnostics and experiments).

The marginal quantity of interest is always u(lam) = z(lam) p(lam)
up to a lam-independent constant.

The estimators evaluate log-weights through ``log_weight_matrix(thetas,
points)``, one column per hyperparameter value.  ``DiscreteModel``
gathers table columns and the prior entries of the same columns.  The
two continuous models write the (N, M) matrix as one product
``stats @ coefs`` of an (N, k) matrix of per-draw statistics and a
(k, M) matrix of per-point coefficients (``_stats_times_coefs``):

- ``ToyBimodalModel``: -tau (theta - lam)^2 / 2 = -tau theta^2 / 2
  + tau theta lam - tau lam^2 / 2, so the statistics are
  [theta, mixture(theta) - tau theta^2 / 2, 1] and the coefficients
  [tau lam; 1; -tau lam^2 / 2 - log(2 pi / tau) / 2] (its prior is flat);
- ``GpRegressionModel``: per length scale, one Cholesky factor and one
  whitening solve give the whitened squares q_B of all draws, the
  statistics are [q_B, obs, 1, 1] and the coefficients
  [-1 / (2 scale); 1; c0; log p(lam)], the log prior last.

Every term past the first is a product with 1, so it is exact, and
dgemm, which adds the terms of an entry in order, rounds the product
exactly as the elementwise sum ((s0 c0 + s1) + c2) + ... does, with or
without FMA.  A one-row or one-column product would go to gemv instead,
which rounds differently on FMA kernels, so those take the elementwise
sum.  A column therefore never depends on its companions: ``log_psi`` is
the prior-free one-column case of the same arithmetic, and no bundled
model writes a column on its own.  ``grad_log_weight_matrix`` shares the
GP factor and two triangular solves of the draws among all points with
the same length scale; the toy model takes one outer difference.

Curves read both matrices through ``log_weight_blocks(thetas, points,
grads=False)``, which yields ``(cols, logw, grad)`` column
blocks that the curve reduces and drops one at a time.  The default
yields one block, ``log_weight_matrix`` (and ``grad_log_weight_matrix``
with ``grads``), which the toy and discrete models use.  The GP model
yields one block per distinct length scale, whose log-weights and
gradients share one factor and one whitening of the draws; its three
routes run the same per-length-scale kernel and the same sum, so a block
entry is bit-equal to the matching whole-matrix entry.
"""

from __future__ import annotations

import csv
import math
from collections import OrderedDict

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky
from scipy.linalg.blas import dtrsm
from scipy.special import expit

from .errors import DegenerateWeightError, GradientUnavailableError, GridError
from .grids import Domain, HyperGrid, _path_or_buffer, _read_csv_table

__all__ = [
    "Model",
    "DiscreteModel",
    "ToyBimodalModel",
    "GpRegressionModel",
    "make_synthetic_gp_dataset",
    "gp_dataset_to_csv",
    "gp_dataset_from_csv",
    "discrete_table_from_csv",
]

_LOG_2PI = float(np.log(2.0 * np.pi))

#: hyperparameter values whose GP factorizations are kept, least recently used dropped
GP_CACHE_SIZE = 1024


def _gauss_logpdf(x, mean, var):
    """Elementwise scalar Gaussian log density."""
    return -0.5 * (_LOG_2PI + np.log(var) + (x - mean) ** 2 / var)


def _stats_times_coefs(stats, coefs):
    """The (N, M) product of (N, k) per-draw statistics and (k, M)
    per-point coefficients, as a fresh C-ordered array.

    Every term of an entry past the first is a product with 1.  dgemm
    then rounds each entry as the elementwise sum ((s0 c0 + s1 c1) + ...)
    in order; a product with one row or one column would go to gemv,
    which rounds differently on FMA kernels, so it takes that sum here.
    """
    if stats.shape[0] > 1 and coefs.shape[1] > 1:
        return stats @ coefs
    out = stats[:, :1] * coefs[:1]
    for k in range(1, coefs.shape[0]):
        out += stats[:, k:k + 1] * coefs[k:k + 1]
    return out


class Model:
    """Interface shared by the model families; see the module docstring."""

    #: shape of one latent draw; () for scalar states
    theta_shape: tuple = ()

    def log_psi(self, thetas, lam):
        raise NotImplementedError

    def log_prior(self, lam) -> float:
        raise NotImplementedError

    def sample_local(self, lam, rng, size: int):
        raise NotImplementedError

    def sample_local_many(self, points, rngs):
        """One local draw per row of points, row r drawn from ``rngs[r]``.

        Each generator is consumed exactly as by
        ``sample_local(points[r], rngs[r], 1)``, so the draws are the same
        bits; models override this when a batched evaluation is cheaper.
        """
        return np.concatenate([self.sample_local(lam, g, 1) for lam, g in zip(points, rngs)])

    @property
    def has_exact_log_u(self) -> bool:
        return type(self).exact_log_u is not Model.exact_log_u

    def exact_log_u(self, lam) -> float:
        raise NotImplementedError(
            f"{type(self).__name__} has no closed form for the marginal"
        )

    def log_weight_matrix(self, thetas, points):
        """Matrix of log(psi_lam_j(theta_n) p(lam_j)), shape (N, L).

        The result is a fresh C-ordered float array, which the caller may
        overwrite; the estimators read it through ``np.ascontiguousarray``,
        so a model returning another layout costs a copy but changes no
        result bit.  The default loops over grid columns; models override
        this when a fully broadcast evaluation is cheaper.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((len(thetas), points.shape[0]))
        for j, lam in enumerate(points):
            out[:, j] = self.log_psi(thetas, lam) + self.log_prior(lam)
        return out

    def grad_log_weight_matrix(self, thetas, points):
        """Gradients of log(psi_lam_m(theta_n) p(lam_m)), shape (N, M, p).

        The gradient analogue of ``log_weight_matrix``, under the same
        contract: a fresh C-ordered float array.  Models with
        hyperparameter gradients override this; the default raises.
        """
        raise GradientUnavailableError(
            f"{type(self).__name__} does not implement hyperparameter gradients"
        )

    def log_weight_blocks(self, thetas, points, grads: bool = False):
        """Log-weights in column blocks: yields ``(cols, logw, grad)``.

        ``logw`` holds the ``log_weight_matrix`` columns ``cols`` of the
        points, as a fresh array the caller may overwrite; with ``grads``,
        ``grad`` holds the matching ``grad_log_weight_matrix`` columns, and
        otherwise None.  Curves reduce each block and drop it, so the whole
        (N, M) matrix need never exist.  The default yields one block of all
        columns; models override this when columns share work that is
        cheaper to do one block at a time.
        """
        logw = self.log_weight_matrix(thetas, points)
        grad = self.grad_log_weight_matrix(thetas, points) if grads else None
        yield np.arange(logw.shape[1]), logw, grad


def _as_lambda(lam) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.ndim != 1:
        raise ValueError("a hyperparameter value must be a flat vector")
    return lam


class DiscreteModel(Model):
    """Fully enumerable model over finitely many latent atoms.

    The local densities are columns of a nonnegative table
    ``psi_table[k, a] = psi_a(theta_k)`` with theta-atoms k = 0..K-1 and
    hyperparameter atoms a = 0..A-1 located at ``atom_values``.  Latent
    states are atom indices.  Everything about this model (transition
    matrix, marginals, off-grid kernel columns) can be computed exactly
    by summation, which makes it the reference oracle for the sampled
    estimators.
    """

    def __init__(self, psi_table, atom_values=None, prior=None):
        table = np.asarray(psi_table, dtype=float)
        if table.ndim != 2 or np.any(table < 0) or not np.all(np.isfinite(table)):
            raise ValueError("psi_table must be a nonnegative finite (K, A) array")
        if np.any(table.sum(axis=0) <= 0):
            raise DegenerateWeightError("every lambda-atom needs positive total mass")
        self.psi_table = table
        n_atoms = table.shape[1]
        if atom_values is None:
            atom_values = np.arange(n_atoms, dtype=float)
        self.atom_values = np.asarray(atom_values, dtype=float)
        if self.atom_values.shape != (n_atoms,):
            raise ValueError("need one atom value per table column")
        if prior is None:
            prior = np.ones(n_atoms)
        self.prior = np.asarray(prior, dtype=float)
        if self.prior.shape != (n_atoms,) or np.any(self.prior <= 0):
            raise ValueError("prior must be a positive vector over lambda-atoms")
        # per-column CDFs formed as Generator.choice(p=w / w.sum()) forms them
        self._cdfs = np.empty((n_atoms, table.shape[0]))
        for a in range(n_atoms):
            w = table[:, a]
            self._cdfs[a] = np.cumsum(w / w.sum())
            self._cdfs[a] /= self._cdfs[a, -1]

    def _columns(self, points) -> np.ndarray:
        """Table columns of many hyperparameter values, one per row of points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.ndim != 2 or points.shape[1] != 1:
            raise ValueError("discrete models have a one-dimensional hyperparameter")
        hits = np.abs(points - self.atom_values[None, :]) <= 1e-9
        missing = ~hits.any(axis=1)
        if np.any(missing):
            raise GridError(f"lambda={points[missing][0, 0]!r} does not match any model atom")
        return np.argmax(hits, axis=1)

    def column_of(self, lam) -> int:
        return int(self._columns(_as_lambda(lam)[None, :])[0])

    def grid(self, columns=None) -> HyperGrid:
        """Explicit grid over a subset of the lambda-atoms (all by default)."""
        if columns is None:
            columns = np.arange(self.atom_values.size)
        vals = self.atom_values[np.asarray(columns, dtype=int)]
        lo, hi = self.atom_values.min() - 1.0, self.atom_values.max() + 1.0
        return HyperGrid(Domain(lo, hi), vals[:, None])

    def log_psi(self, thetas, lam):
        idx = np.asarray(thetas, dtype=int).ravel()
        with np.errstate(divide="ignore"):
            return np.log(self.psi_table[idx, self.column_of(lam)])

    def log_prior(self, lam) -> float:
        return float(np.log(self.prior[self.column_of(lam)]))

    def log_weight_matrix(self, thetas, points):
        cols = self._columns(points)
        idx = np.asarray(thetas, dtype=int).ravel()
        with np.errstate(divide="ignore"):
            return np.log(self.psi_table[np.ix_(idx, cols)]) + np.log(self.prior[cols])

    def sample_local(self, lam, rng, size: int):
        col = self.column_of(lam)
        w = self.psi_table[:, col]
        return rng.choice(w.size, size=size, p=w / w.sum())

    def sample_local_many(self, points, rngs):
        # the inverse-CDF lookup of Generator.choice, one uniform per row
        cdfs = self._cdfs[self._columns(points)]
        return np.array([cdf.searchsorted(g.random(), side="right")
                         for cdf, g in zip(cdfs, rngs)])

    def exact_log_u(self, lam) -> float:
        col = self.column_of(lam)
        return float(np.log(self.psi_table[:, col].sum()) + np.log(self.prior[col]))


class ToyBimodalModel(Model):
    """Scalar location model with a sign-ambiguous Gaussian observation.

    One observation y is measured, with precision q, of either +theta or
    -theta with equal probability; theta carries a N(lam, 1/tau) prior
    tied to the hyperparameter lam, and the hyperparameter prior is flat.
    The marginal likelihood has the closed form

        z(lam) = 0.5 N(y; lam, s) + 0.5 N(y; -lam, s),  s = 1/q + 1/tau,

    bimodal in lam around +/- y for concentrated local densities, and the
    local density itself is an explicit two-component Gaussian mixture,
    so exact independent local draws are available at any lam.
    """

    def __init__(self, y: float = 1.0, q: float = 2.0, tau: float = 2.0):
        if q <= 0 or tau <= 0:
            raise ValueError("precisions q and tau must be positive")
        self.y = float(y)
        self.q = float(q)
        self.tau = float(tau)

    # -- local density ------------------------------------------------

    def _log_mixture(self, thetas):
        """lam-independent observation part log(0.5 N(y;th,1/q) + 0.5 N(y;-th,1/q))."""
        a = _gauss_logpdf(self.y, thetas, 1.0 / self.q)
        b = _gauss_logpdf(self.y, -thetas, 1.0 / self.q)
        return np.logaddexp(a, b) + np.log(0.5)

    def log_psi(self, thetas, lam):
        return self.log_weight_matrix(thetas, _as_lambda(lam)[None, :])[:, 0]

    def log_prior(self, lam) -> float:
        return 0.0

    @staticmethod
    def _points(points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.ndim != 2 or points.shape[1] != 1:
            raise ValueError("the toy model has a one-dimensional hyperparameter")
        return points

    def log_weight_matrix(self, thetas, points):
        """_log_mixture + _gauss_logpdf(theta, lam, 1/tau), shape (N, M),
        as [theta, mixture - tau theta^2/2, 1] @ [tau lam; 1; c2] with
        c2 = -tau lam^2/2 - log(2 pi/tau)/2; the flat prior adds nothing."""
        thetas = np.asarray(thetas, dtype=float).ravel()
        lams = self._points(points)[:, 0]
        stats = np.ones((thetas.size, 3))
        stats[:, 0] = thetas
        stats[:, 1] = self._log_mixture(thetas) - 0.5 * self.tau * thetas * thetas
        coefs = np.ones((3, lams.size))
        coefs[0] = self.tau * lams
        coefs[2] = -0.5 * (self.tau * lams * lams + _LOG_2PI - math.log(self.tau))
        return _stats_times_coefs(stats, coefs)

    def grad_log_weight_matrix(self, thetas, points):
        # tau (theta - lam) from one (N, M, 1) outer difference
        out = np.subtract.outer(np.asarray(thetas, dtype=float).ravel(), self._points(points))
        out *= self.tau
        return out

    def _local_mixture(self, lams):
        """Weight of the + component, the two means and the common
        standard deviation of pi_lam, per lam.

        Completing the square in theta shows
          pi_lam = w+ N(m+, v) + w- N(m-, v)
        with v = 1/(q+tau), m+- = (tau lam +- q y)/(q+tau) and component
        weights proportional to N(y; +-lam, s), s = 1/q + 1/tau.
        """
        s = 1.0 / self.q + 1.0 / self.tau
        w_plus = expit(_gauss_logpdf(self.y, lams, s) - _gauss_logpdf(self.y, -lams, s))
        m_plus = (self.q * self.y + self.tau * lams) / (self.q + self.tau)
        m_minus = (self.tau * lams - self.q * self.y) / (self.q + self.tau)
        return w_plus, m_plus, m_minus, np.sqrt(1.0 / (self.q + self.tau))

    def sample_local(self, lam, rng, size: int):
        w_plus, m_plus, m_minus, sd = self._local_mixture(_as_lambda(lam)[0])
        pick_plus = rng.random(size) < w_plus
        means = np.where(pick_plus, m_plus, m_minus)
        return means + sd * rng.standard_normal(size)

    def sample_local_many(self, points, rngs):
        w_plus, m_plus, m_minus, sd = self._local_mixture(
            np.atleast_2d(np.asarray(points, dtype=float))[:, 0])
        # per generator, the uniform and then the normal that sample_local draws
        u, z = np.array([(g.random(), g.standard_normal()) for g in rngs]).T
        return np.where(u < w_plus, m_plus, m_minus) + sd * z

    def exact_log_u(self, lam) -> float:
        lam = _as_lambda(lam)[0]
        s = 1.0 / self.q + 1.0 / self.tau
        return float(
            np.log(0.5)
            + np.logaddexp(_gauss_logpdf(self.y, lam, s), _gauss_logpdf(self.y, -lam, s))
        )


class GpRegressionModel(Model):
    """Gaussian process regression with a squared-exponential kernel.

    The latent state is the function-value vector theta at the inputs x,
    with prior N(0, C_lam), C_lam = (tau1/tau2) exp(-tau2 |x - x'|^2),
    observation y = theta + Gaussian noise of variance ``noise_var``, and
    an improper flat prior on (log tau1, log tau2), i.e.
    p(tau1, tau2) = 1/(tau1 tau2).  Everything needed here is conjugate:
    exact local draws come from the Gaussian posterior of theta given y
    at fixed lam, and log z(lam) = log N(y; 0, C_lam + noise_var I).

    A relative jitter (``jitter_scale`` times the mean kernel diagonal)
    is added to C_lam before factorization.

    The kernel diagonal is tau1/tau2, so the jittered covariance splits
    exactly into a scale and a matrix of tau2 alone:

        C_lam = (tau1/tau2) B(tau2),  B(tau2) = exp(-tau2 |x - x'|^2) + jitter_scale I.

    Hence log N(theta; 0, C_lam) = -(n log 2 pi + n log(tau1/tau2)
    + log det B + theta' B^{-1} theta / (tau1/tau2)) / 2, and the whitened
    squares theta' B^{-1} theta of a batch of draws serve every tau1 at
    that tau2.  An absolute jitter would not scale with tau1 and would
    break the split.  ``log_weight_matrix`` therefore factors B once per
    distinct tau2 among its points.  A log-weight is then affine in three
    per-draw statistics, the whitened square q_B, the observation term
    obs and 1:

        log psi_lam(theta) + log p(lam)
            = [q_B, obs, 1, 1] @ [-1/(2 scale); 1; c0; log p(lam)],
        c0 = -(n log 2 pi + n log scale + log det B) / 2,

    with the log prior last.  A block of columns sharing tau2 is that one
    product, and the whole matrix gathers q_B per column and adds the
    same terms in the same order, so both routes give the same bits; a
    one-column call (``log_psi``, or a lone tau2) takes the elementwise
    sum (see ``_stats_times_coefs``).  ``grad_log_weight_matrix`` shares
    the same factor, and
    ``log_weight_blocks`` yields the columns of one tau2 at a time from one
    factor and one whitening for both.  The per-value
    factorization of C_lam + noise_var I, cached by ``_entry`` with C_lam,
    serves the sampler and the exact marginal.
    """

    def __init__(self, x, y, noise_var: float = 1.0 / 16.0, jitter_scale: float = 1e-9):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        self.x = x
        self.y = np.asarray(y, dtype=float).ravel()
        if self.y.size != x.shape[0]:
            raise ValueError("x and y must have matching lengths")
        if noise_var <= 0:
            raise ValueError("noise_var must be positive")
        self.noise_var = float(noise_var)
        self.jitter_scale = float(jitter_scale)
        diff = x[:, None, :] - x[None, :, :]
        self._sqdist = np.sum(diff * diff, axis=-1)
        self.theta_shape = (self.y.size,)
        self._cache: OrderedDict = OrderedDict()

    # -- kernel factorizations, cached per hyperparameter value --------

    def _entry(self, lam):
        """The factorizations at lam, from an LRU cache of ``GP_CACHE_SIZE``
        values; an evicted value is factored again to the same bits."""
        lam = _as_lambda(lam)
        if lam.size != 2 or np.any(lam <= 0):
            raise ValueError("lam must be a positive pair (tau1, tau2)")
        key = (float(lam[0]), float(lam[1]))
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
        else:
            tau1, tau2 = key
            kernel = (tau1 / tau2) * np.exp(-tau2 * self._sqdist)
            jitter = self.jitter_scale * (tau1 / tau2)
            cov = kernel + jitter * np.eye(self.y.size)
            noisy = cov + self.noise_var * np.eye(self.y.size)
            chol_noisy = cho_factor(noisy, lower=True)
            entry = {
                "cov": cov,
                "chol_noisy": chol_noisy,
                "logdet_noisy": 2.0 * np.sum(np.log(np.diag(chol_noisy[0]))),
            }
            self._cache[key] = entry
            if len(self._cache) > GP_CACHE_SIZE:
                self._cache.popitem(last=False)
        return entry

    def _posterior(self, entry):
        if "post_chol" not in entry:
            cov = entry["cov"]
            gain = cho_solve(entry["chol_noisy"], cov)  # (C + s2 I)^{-1} C
            mean = gain.T @ self.y
            post = cov - cov @ gain
            post = 0.5 * (post + post.T)
            bump = 1e-12 * max(np.trace(post) / post.shape[0], 1.0)
            entry["post_mean"] = mean
            entry["post_chol"] = cholesky(post + bump * np.eye(post.shape[0]), lower=True)
        return entry["post_mean"], entry["post_chol"]

    # -- Model interface ------------------------------------------------

    def log_psi(self, thetas, lam):
        return self._log_weights(thetas, self._points(_as_lambda(lam)[None, :]),
                                 np.zeros(1))[:, 0]

    @staticmethod
    def _points(points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.ndim != 2 or points.shape[1] != 2 or np.any(points <= 0):
            raise ValueError("lam must be a positive pair (tau1, tau2)")
        return points

    @staticmethod
    def _draws(thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        return thetas[None, :] if thetas.ndim == 1 else thetas

    def _factor(self, tau2):
        """exp(-tau2 D) for the squared distances D, and the lower Cholesky
        factor of B(tau2)."""
        decay = np.exp(-tau2 * self._sqdist)
        return decay, cholesky(decay + self.jitter_scale * np.eye(self.y.size), lower=True)

    def _whiten(self, draws, tau2, grads: bool):
        """The per-tau2 kernel: one factor of B(tau2), one whitening of the
        Fortran-ordered draws.

        Returns log det B, the whitened squares q_B = theta' B^{-1} theta per
        draw, and with ``grads`` also tr(B^{-1} E) and q_E (see
        ``grad_log_weight_matrix``), whose solve reuses the whitened draws.
        """
        decay, chol = self._factor(tau2)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        # rows of the solution are L^{-1} theta_k: X L^T = Theta
        white = dtrsm(1.0, chol, draws, side=1, lower=1, trans_a=1)
        q_b = np.sum(white * white, axis=1)
        if not grads:
            return logdet, q_b, None
        E = decay * self._sqdist
        trace = np.trace(cho_solve((chol, True), E))
        # rows of V are (B^{-1} theta_k)': X L = W
        v = dtrsm(1.0, chol, white, side=1, lower=1)
        return logdet, q_b, (trace, np.einsum("ij,ij->i", v, v @ E))

    def _observation(self, thetas):
        """log N(y; theta, noise_var I) per draw, the lam-free part of log psi."""
        resid = self.y[None, :] - thetas
        return -0.5 * (self.y.size * (_LOG_2PI + np.log(self.noise_var))
                       + np.sum(resid * resid, axis=1) / self.noise_var)

    def _coefs(self, points, logdets, log_priors):
        """Coefficients (4, M) of the per-draw statistics [q_B, obs, 1, 1]:
        -1/(2 scale), 1, c0 = -(n log 2 pi + n log scale + log det B)/2 and
        the log prior, given log det B(tau2) per point."""
        scales = points[:, 0] / points[:, 1]
        coefs = np.ones((4, points.shape[0]))
        coefs[0] = -0.5 / scales
        coefs[2] = -0.5 * (self.y.size * (_LOG_2PI + np.log(scales)) + logdets)
        coefs[3] = log_priors
        return coefs

    def _fill_grads(self, q_b, q_e, traces, points):
        """Gradients (N, M, 2) from the per-column q_B, q_E and traces."""
        n = self.y.size
        tau1, tau2 = points[:, 0], points[:, 1]
        scales = tau1 / tau2
        quad_k = q_b / scales
        quad_e = q_e / scales
        out = np.empty(quad_k.shape + (2,))
        out[:, :, 0] = -0.5 * n / tau1 + 0.5 * quad_k / tau1 - 1.0 / tau1
        out[:, :, 1] = (0.5 * n / tau2 + 0.5 * traces
                        - 0.5 * quad_k / tau2 - 0.5 * quad_e - 1.0 / tau2)
        return out

    @staticmethod
    def _log_priors(points):
        """log p(lam) = -log tau1 - log tau2 for every row of points."""
        return -np.log(points[:, 0]) - np.log(points[:, 1])

    def log_weight_matrix(self, thetas, points):
        """Matrix of log(psi_lam_j(theta_n) p(lam_j)), shape (N, M).

        Columns that share tau2 share one Cholesky factor of B(tau2) and
        one whitening solve of all draws (see the class docstring); the
        (N, M) output then takes one gather of q_B and four in-place passes.
        A column depends only on its own point, never on which other points
        share the call.
        """
        points = self._points(points)
        return self._log_weights(thetas, points, self._log_priors(points))

    def _log_weights(self, thetas, points, log_priors):
        """``log_weight_matrix`` with the given log priors in place of
        p(lam); ``log_psi`` passes zeros."""
        thetas = self._draws(thetas)
        draws = np.asfortranarray(thetas)
        tau2s, group = np.unique(points[:, 1], return_inverse=True)
        logdets = np.empty(tau2s.size)
        qs = np.empty((thetas.shape[0], tau2s.size))
        for g, tau2 in enumerate(tau2s):
            logdets[g], qs[:, g], _ = self._whiten(draws, tau2, False)
        coefs = self._coefs(points, logdets[group], log_priors)
        out = np.empty((thetas.shape[0], points.shape[0]))
        # group is in range; mode="clip" keeps take from buffering out
        np.take(qs, group, axis=1, out=out, mode="clip")
        # the sum of _stats_times_coefs over [q_B, obs, 1, 1], term by term,
        # so that every entry is bit-equal to its log_weight_blocks entry
        out *= coefs[0]
        out += self._observation(thetas)[:, None]
        out += coefs[2]
        out += coefs[3]
        return out

    def log_weight_blocks(self, thetas, points, grads: bool = False):
        """One block per distinct tau2 among the points, in increasing tau2.

        Each block comes from one factor and one whitening of the draws,
        shared by its log-weights and, with ``grads``, its gradients; its
        log-weights are the product [q_B, obs, 1, 1] @ coefficients, whose
        entries are bit-equal to the matching columns of
        ``log_weight_matrix`` and ``grad_log_weight_matrix``.
        """
        points = self._points(points)
        thetas = self._draws(thetas)
        log_priors = self._log_priors(points)
        draws = np.asfortranarray(thetas)
        stats = np.ones((thetas.shape[0], 4))
        stats[:, 1] = self._observation(thetas)
        tau2s, group = np.unique(points[:, 1], return_inverse=True)
        for g, tau2 in enumerate(tau2s):
            cols = np.flatnonzero(group == g)
            logdet, q_b, extra = self._whiten(draws, tau2, grads)
            stats[:, 0] = q_b
            block = _stats_times_coefs(stats, self._coefs(
                points[cols], np.full(cols.size, logdet), log_priors[cols]))
            grad_block = None
            if grads:
                trace, q_e = extra
                grad_block = self._fill_grads(q_b[:, None], q_e[:, None], trace,
                                              points[cols])
            yield cols, block, grad_block

    def log_prior(self, lam) -> float:
        return float(self._log_priors(_as_lambda(lam)[None, :])[0])

    def grad_log_weight_matrix(self, thetas, points):
        """Gradients of log(psi_lam_m(theta_n) p(lam_m)) in (tau1, tau2),
        shape (N, M, 2).

        With K = scale B(tau2), scale = tau1/tau2, dK/dtau1 = K/tau1 and
        dK/dtau2 = -K/tau2 - scale E, E = exp(-tau2 D) .* D (the relative
        jitter folds into K for both derivatives),

            d/dtau1 = -n/(2 tau1) + quad_K/(2 tau1) - 1/tau1
            d/dtau2 = n/(2 tau2) + tr(B^{-1} E)/2 - quad_K/(2 tau2)
                      - quad_E/2 - 1/tau2

        where quad_K = theta' K^{-1} theta = q_B/scale, quad_E =
        theta' K^{-1} (scale E) K^{-1} theta = q_E/scale, and the last
        terms are the flat prior on (log tau1, log tau2).  Points that
        share tau2 share one factor of B, the whitened draws W = Theta L^{-T}
        (q_B = rowsum W^2) and V = W L^{-1} (q_E = rowsum V .* (V E)); each
        point then fills its two columns elementwise, so, as for
        ``log_weight_matrix``, a column never depends on its companions.
        """
        points = self._points(points)
        draws = np.asfortranarray(self._draws(thetas))
        tau2s, group = np.unique(points[:, 1], return_inverse=True)
        q_b = np.empty((draws.shape[0], tau2s.size))
        q_e = np.empty_like(q_b)
        traces = np.empty(tau2s.size)
        for g, tau2 in enumerate(tau2s):
            _, q_b[:, g], (traces[g], q_e[:, g]) = self._whiten(draws, tau2, True)
        return self._fill_grads(q_b[:, group], q_e[:, group], traces[group], points)

    def sample_local(self, lam, rng, size: int):
        entry = self._entry(lam)
        mean, chol_post = self._posterior(entry)
        z = rng.standard_normal((size, self.y.size))
        return mean[None, :] + z @ chol_post.T

    def log_marginal_likelihood(self, lam) -> float:
        """log N(y; 0, C_lam + noise_var I), the exact log z(lam)."""
        entry = self._entry(lam)
        n = self.y.size
        alpha = cho_solve(entry["chol_noisy"], self.y)
        return float(-0.5 * (n * _LOG_2PI + entry["logdet_noisy"] + self.y @ alpha))

    def exact_log_u(self, lam) -> float:
        return self.log_marginal_likelihood(lam) + self.log_prior(lam)


def make_synthetic_gp_dataset(n: int = 16, seed: int = 7, noise_var: float = 1.0 / 16.0):
    """Deterministic synthetic regression data for the GP model.

    Inputs on a regular design in [-2, 2]; responses are a smooth curve
    plus Gaussian noise with the model's observation variance.
    """
    rng = np.random.default_rng(seed)
    x = np.linspace(-2.0, 2.0, n)
    f = np.sin(2.0 * x) + 0.5 * x
    y = f + np.sqrt(noise_var) * rng.standard_normal(n)
    return x, y


def gp_dataset_to_csv(x, y, path_or_buf) -> None:
    """Write a regression dataset as CSV with columns x0..x{d-1},y."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(y, dtype=float).ravel()
    with _path_or_buffer(path_or_buf, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{d}" for d in range(x.shape[1])] + ["y"])
        for xi, yi in zip(x, y):
            writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])


def gp_dataset_from_csv(path_or_buf):
    """Read a regression dataset written by :func:`gp_dataset_to_csv`."""
    header, data = _read_csv_table(path_or_buf, "dataset CSV")
    if (header is None or header[-1] != "y"
            or not all(h.startswith("x") for h in header[:-1])):
        raise ValueError("dataset CSV header must be x0,...,y")
    x = data[:, :-1]
    if x.shape[1] == 1:
        x = x.ravel()
    return x, data[:, -1]


def discrete_table_from_csv(path_or_buf) -> np.ndarray:
    """Read a psi-table (rows = theta-atoms, columns = lambda-atoms)."""
    return _read_csv_table(path_or_buf, "psi-table CSV")[1]
