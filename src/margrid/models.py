"""Statistical models exposing local densities over a hyperparameter.

Every model provides two hooks and may provide two more; the estimators
use the local density psi_lam and the prior p(lam) only as their product:

- ``sampler(grid)``: a :class:`GridSampler` bound to the points of one
  grid, the only values at which the pipeline draws (banks, design blocks
  and griddy Gibbs states).  It holds each point's state, computed once:
  the toy mixture, the discrete CDF row, the GP posterior mean and root.
  Its ``draw(i, rng, size)`` gives exact draws at point i from the
  normalized local density pi_lam = psi_lam / z(lam), for banks and design
  blocks; its ``draw_rows(rows, rng)`` gives one draw per grid index, all
  from ``rng``, for the chains of :mod:`margrid.baselines`, and a one-row
  call consumes ``rng`` exactly as ``draw(rows[0], rng, 1)`` does,
- ``log_weight_matrix(thetas, points)``: the log-weights
  log(psi_lam(theta) p(lam)) of a batch of latent states against many
  values at once, shape (N, M), prior included,
- optionally ``log_weight_factors(thetas, points, grads=False)``: the same
  log-weights as per-draw statistics times per-point coefficients, the
  Monte Carlo maximum likelihood form (Geyer and Thompson 1992).  It
  yields ``(cols, stats, coefs)`` per group of columns: k per-draw
  statistics, each N values, and a (k, len(cols)) matrix, whose product
  is the log-weight columns ``cols``; with ``grads`` a group also yields
  ``(dstats, dcoefs)``, k' per-draw statistics and a (k', len(cols), p)
  array, whose product is those columns' hyperparameter gradients, the
  only place gradients come from.  A model that defines it inherits
  ``log_weight_matrix``,
- optionally ``exact_log_u(points)``: log z(lam) p(lam) in closed form,
  shape (M,), the oracle of diagnostics and experiments.

The marginal quantity of interest is always u(lam) = z(lam) p(lam)
up to a lam-independent constant.

The pipeline reads log-weights only through :func:`log_weight_tiles`,
which owns every tile: a fit's row ranges of whole point segments, a
curve's column tiles shifted by each draw's log-sum-exp, and the whole
matrix as one tile.  For a model with factors it forms each tile from
the groups' products (``_stats_times_coefs``); for a model without
(``DiscreteModel``, which gathers table columns and prior entries), it
evaluates ``log_weight_matrix`` on each row range, or once over all
columns for a curve, which then has no gradients.  The bundled factors:

- ``ToyBimodalModel``, one group: -tau (theta - lam)^2 / 2 = -tau
  theta^2 / 2 + tau theta lam - tau lam^2 / 2, so the statistics are
  [theta, mixture(theta) - tau theta^2 / 2, 1] and the coefficients
  [tau lam; 1; -tau lam^2 / 2 - log(2 pi / tau) / 2] (its prior is flat);
  the gradients tau (theta - lam) are [theta, 1] times [tau; -tau lam];
- ``GpRegressionModel``, one group per length scale: one Cholesky factor
  L, its triangular inverse and one product L^{-1} Theta' give the
  whitened squares q_B of all draws, the statistics are [q_B, obs, 1, 1]
  and the coefficients [-1 / (2 scale); 1; c0; log p(lam)], the log prior
  last; the gradients are [q_B, q_E, 1] times ``_grad_coefs``.  A draw's
  q_B and q_E may move in their last bits with the number of draws in the
  call (the product's blocking), as a curve's values do with its tile
  widths; the bit contract below holds for the products of fixed
  statistics.

One bit contract covers every tile.  Each term of a factor product past
the first is a product with 1, so it is exact, and dgemm, which adds the
terms of an entry in order, rounds the product exactly as the
elementwise sum ((s0 c0 + s1) + c2) + ... does, with or without FMA.  A
one-row or one-column product would go to gemv instead, which rounds
differently on FMA kernels, so those take the elementwise sum.  An entry
therefore depends only on its own draw's statistics and its own point's
coefficients: a column holds the bits of a one-point call, a row range
the bits of the same rows of the whole matrix, and a curve's tile, whose
shift is one more statistic -shift with coefficient 1 (x + (-s) 1 rounds
as x - s), the bits of the whole-matrix entries minus the shift.  A
model's factors keep the contract when every statistic or coefficient
past the first term is 1.  A fit forms all groups' columns as one
product (``_stacked_factors``), whose extra terms, a group's statistics
times another group's zero coefficients, are exact zeros between the
entry's own terms, so it rounds as each group's product.  All tiles of
one call are written into one buffer, so a yielded tile is valid only
until the next one is requested, and a caller that keeps one copies it.

Every model runs on numpy alone.  The GP model whitens the draws with
the triangular inverse (``_tri_inverse``, one substitution loop on the
identity) of a ``np.linalg.cholesky`` factor of B(tau2), and takes its
posterior and exact marginal from one ``np.linalg.eigh`` of B(tau2), each
once per distinct tau2 in a call (``_by_tau2``).  The toy component
weight is scipy's ``expit`` formula in numpy, so no margrid run imports
scipy's linear algebra: a process pays neither its import nor a second
BLAS library, whose thread pool would alternate with numpy's.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import DegenerateWeightError, GradientUnavailableError, GridError
from .grids import Domain, HyperGrid, _path_or_buffer, _read_csv_table

__all__ = [
    "Model",
    "GridSampler",
    "DiscreteModel",
    "ToyBimodalModel",
    "GpRegressionModel",
    "make_synthetic_gp_dataset",
    "gp_dataset_to_csv",
    "gp_dataset_from_csv",
    "discrete_table_from_csv",
]

_LOG_2PI = float(np.log(2.0 * np.pi))

#: largest distance at which a value matches a ``DiscreteModel`` atom
_ATOM_TOL = 1e-9

#: bytes of one cache-sized tile, read by both tilings: a curve's column
#: tile of log-weights (``log_weight_tiles``) and a fit's row tile of whole
#: point segments (``emus._row_tiles``)
TILE_BYTES = 1 << 20


def _gauss_logpdf(x, mean, var):
    """Elementwise scalar Gaussian log density."""
    return -0.5 * (_LOG_2PI + np.log(var) + (x - mean) ** 2 / var)


def _tri_inverse(chol):
    """L^{-1} of a lower triangular (n, n) ``chol``, as a C-ordered array
    exact to the triangle: the entries above the diagonal are exact zeros.
    The GP model whitens its draws, and takes the trace of its gradients,
    by products with it (``GpRegressionModel._whiten``).

    Row i of L^{-1} is one matrix-vector product of the rows already solved
    and row i of the identity, [L^{-1}[:i]; e_i]' @ [-L[i, :i], 1], then
    one divide by L[i, i].  The rows are the columns of a Fortran-ordered
    work array, whose transpose is returned, so each product reads one
    contiguous block.
    """
    n = chol.shape[0]
    coefs = np.negative(chol, order="C")
    np.fill_diagonal(coefs, 1.0)
    work = np.eye(n, order="F")
    col = np.empty(n)
    for i in range(n):
        np.matmul(work[:, :i + 1], coefs[i, :i + 1], out=col)
        np.divide(col, chol[i, i], out=work[:, i])
    return work.T


def _stats_times_coefs(stats, coefs, out=None):
    """The (N, M) product of (N, k) per-draw statistics and (k, M)
    per-point coefficients, written into ``out`` (a C-ordered (N, M)
    array) or into a fresh C-ordered array.

    Every term of an entry past the first is a product with 1.  dgemm
    then rounds each entry as the elementwise sum ((s0 c0 + s1 c1) + ...)
    in order; a product with one row or one column would go to gemv,
    which rounds differently on FMA kernels, so it takes that sum here.
    """
    if stats.shape[0] > 1 and coefs.shape[1] > 1:
        return np.matmul(stats, coefs, out=out)
    out = np.multiply(stats[:, :1], coefs[:1], out=out)
    for k in range(1, coefs.shape[0]):
        out += stats[:, k:k + 1] * coefs[k:k + 1]
    return out


def _stacked_factors(groups, n):
    """Every group's factors as one (N, K) statistics matrix and (K, M)
    coefficients, whose product is the whole log-weight matrix.

    A statistic that every group holds, as one array, at the same position
    is one column with each group's coefficients in its own columns; any
    other position is one column per group, with coefficients zero outside
    the group's columns.  Columns keep the groups' positions in order, so an
    entry's terms are its own group's in order with exact zeros between
    them, and its product rounds as the group's own does.  ``n`` draws give
    an (n, 0) matrix when there is no group.
    """
    m = sum(cols.size for cols, _, _ in groups)
    columns, rows = [], []
    for k, stat in enumerate(groups[0][1] if groups else ()):
        if all(stats[k] is stat for _, stats, _ in groups):
            columns.append(stat)
            rows.append(np.empty(m))
            for cols, _, coefs in groups:
                rows[-1][cols] = coefs[k]
            continue
        for cols, stats, coefs in groups:
            columns.append(stats[k])
            rows.append(np.zeros(m))
            rows[-1][cols] = coefs[k]
    if not columns:
        return np.empty((n, 0)), np.empty((0, m))
    return np.column_stack(columns), np.array(rows)


def log_weight_tiles(model, thetas, points, rows=None, shift=None, grads=False):
    """The log-weights of ``thetas`` against ``points`` in tiles: the one
    place the pipeline evaluates them (see the module docstring).

    Without ``shift``, yields the rows ``rows[t]:rows[t + 1]`` against all
    points, by default one range of every draw, the whole matrix; a fit
    passes the bounds of its row tiles of whole point segments.  With
    ``shift``, one value per draw, yields ``(cols, block, grad)``: column
    tiles of the log-weights minus the shift (a curve passes each draw's
    log-sum-exp) and, with ``grads``, the tile's gradient factors
    ``(dstats, dcoefs)``, otherwise None.  Every block is a C-ordered float
    array the caller may overwrite, valid until the next one is requested.

    For a model with factors, the groups' statistics and coefficients are
    stacked once per call (``_stacked_factors``), so a row range is one
    product, and all ranges share one buffer sized for the largest.  A
    curve's tiles append the statistic -shift with coefficient 1 to each
    group's product.
    Within a group, tiles start at multiples of T = 16 max(1, TILE_BYTES //
    (128 N)) columns (16 columns of N draws take 128 N bytes) and the last
    takes the remaining columns, so it is T to 2T - 1 wide: a column keeps
    its lane of a curve's matrix-vector products, and no narrow last tile
    is rounded apart.  The tiles share one buffer, reallocated only for a
    wider group.  A model without factors evaluates ``log_weight_matrix``
    on each row range, or once over all points for a curve, and raises
    ``GradientUnavailableError`` for gradients.
    """
    if not model.has_log_weight_factors:
        if grads:
            raise GradientUnavailableError(
                f"{type(model).__name__} does not implement hyperparameter gradients"
            )
        if shift is not None:
            logw = np.ascontiguousarray(model.log_weight_matrix(thetas, points), dtype=float)
            logw -= np.asarray(shift)[:, None]
            yield np.arange(logw.shape[1]), logw, None
            return
        bounds = (0, len(thetas)) if rows is None else rows
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield np.ascontiguousarray(model.log_weight_matrix(thetas[lo:hi], points),
                                       dtype=float)
        return
    if shift is None:
        groups = list(model.log_weight_factors(thetas, points))
        stats, coefs = _stacked_factors(groups, len(thetas))
        del groups
        bounds = (0, stats.shape[0]) if rows is None else rows
        buf = np.empty((max((b - a for a, b in zip(bounds[:-1], bounds[1:])), default=0),
                        coefs.shape[1]))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if coefs.size:
                _stats_times_coefs(stats[lo:hi], coefs, buf[:hi - lo])
            yield buf[:hi - lo]
        return
    buf = np.empty(0)
    for cols, stats, coefs, *grad in model.log_weight_factors(thetas, points, grads):
        stats = np.column_stack([*stats, np.negative(shift)])
        coefs = np.vstack([coefs, np.ones(cols.size)])
        n = stats.shape[0]
        width = 16 * max(1, TILE_BYTES // (128 * n))
        bounds = list(range(0, width * max(1, cols.size // width), width)) + [cols.size]
        if buf.size < n * (bounds[-1] - bounds[-2]):
            # the narrower buffer, and the last tile's view of it, go first
            buf = tile = None
            buf = np.empty(n * (bounds[-1] - bounds[-2]))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            tile = buf[:n * (hi - lo)].reshape(n, hi - lo)
            yield (cols[lo:hi], _stats_times_coefs(stats, coefs[:, lo:hi], tile),
                   (grad[0], grad[1][:, lo:hi]) if grads else None)
        # dropped before the model forms the next group
        del stats, grad


class GridSampler:
    """Exact local draws at the points of one grid (``Model.sampler``).

    Subclasses hold each point's state and supply ``draw_rows``; the
    default ``draw`` is ``draw_rows`` over ``size`` copies of one index.
    """

    def draw(self, i: int, rng, size: int):
        """``size`` draws from pi_lam at grid point ``i``, from ``rng``."""
        return self.draw_rows(np.full(size, i), rng)

    def draw_rows(self, rows, rng):
        """One draw per grid index in ``rows``, all from ``rng``; a one-row
        call consumes ``rng`` exactly as ``draw(rows[0], rng, 1)`` does."""
        raise NotImplementedError


class Model:
    """Interface shared by the model families; see the module docstring."""

    def sampler(self, grid: HyperGrid) -> GridSampler:
        """The :class:`GridSampler` of ``grid``'s points."""
        raise NotImplementedError

    @property
    def has_exact_log_u(self) -> bool:
        return type(self).exact_log_u is not Model.exact_log_u

    def exact_log_u(self, points) -> np.ndarray:
        """log z(lam) p(lam) in closed form, one float per row of the (M, p)
        ``points``, checked as ``log_weight_matrix`` checks them.

        >>> ToyBimodalModel().exact_log_u([[0.5], [1.0]]).shape
        (2,)
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no closed form for the marginal"
        )

    @property
    def has_log_weight_factors(self) -> bool:
        return type(self).log_weight_factors is not Model.log_weight_factors

    def log_weight_factors(self, thetas, points, grads: bool = False):
        """The log-weights as per-draw statistics times per-point
        coefficients: yields ``(cols, stats, coefs)`` per group of columns.

        ``cols`` are increasing indices into ``points``, and the groups
        together hold each point once.  ``stats`` is a sequence of k
        per-draw statistics, float arrays of N values, and their product
        sum_k stats[k][:, None] * coefs[k] with the C-ordered (k, len(cols))
        ``coefs`` is the ``log_weight_matrix`` columns ``cols``; every term
        past the first must be a product with 1 (see the module docstring).
        Every group gives the same k, and a statistic that every group
        holds at the same position may be one array, which a fit's one
        product then holds once (see the module docstring).  With ``grads``,
        a group also yields ``dstats``, k' per-draw statistics, and the
        C-ordered ``dcoefs`` (k', len(cols), p), whose product is the
        columns' hyperparameter gradients, shape (N, len(cols), p).  A
        model that defines this inherits ``log_weight_matrix``, and its
        fits and curves read only this.
        """
        raise NotImplementedError(f"{type(self).__name__} has no log-weight factors")

    def log_weight_matrix(self, thetas, points):
        """Matrix of log(psi_lam_j(theta_n) p(lam_j)), shape (N, M).

        The result is a fresh C-ordered float array, which the caller may
        overwrite; the estimators read it through ``np.ascontiguousarray``,
        so a model returning another layout costs a copy but changes no
        result bit.  A model with factors gets it as the one tile of
        :func:`log_weight_tiles`; a model without overrides it.
        """
        if not self.has_log_weight_factors:
            raise NotImplementedError
        return next(log_weight_tiles(self, thetas, points))


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
        # atoms closer than the match tolerance would share a table column
        if not (np.isfinite(self.atom_values).all()
                and np.all(np.diff(np.sort(self.atom_values)) > _ATOM_TOL)):
            raise ValueError(f"atom values must be finite and more than {_ATOM_TOL} apart")
        if prior is None:
            prior = np.ones(n_atoms)
        self.prior = np.asarray(prior, dtype=float)
        # written so that NaN fails it too
        if self.prior.shape != (n_atoms,) or not np.all((self.prior > 0) & (self.prior < np.inf)):
            raise ValueError("prior must be a finite positive vector over lambda-atoms")
        # per-column CDFs formed as Generator.choice(p=w / w.sum()) forms them
        self._cdfs = np.array([np.cumsum(w / w.sum()) for w in table.T])
        self._cdfs /= self._cdfs[:, -1:]

    def _columns(self, points) -> np.ndarray:
        """Table columns of many hyperparameter values, one per row of points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.ndim != 2 or points.shape[1] != 1:
            raise ValueError("discrete models have a one-dimensional hyperparameter")
        hits = np.abs(points - self.atom_values[None, :]) <= _ATOM_TOL
        missing = ~hits.any(axis=1)
        if np.any(missing):
            raise GridError(
                f"lambda={float(points[missing][0, 0])!r} does not match any model atom")
        return np.argmax(hits, axis=1)

    def column_of(self, lam) -> int:
        cols = self._columns(lam)
        if cols.size != 1:
            raise ValueError(f"expected one hyperparameter value, got {cols.size}")
        return int(cols[0])

    def grid(self, columns=None) -> HyperGrid:
        """Explicit grid over a subset of the lambda-atoms (all by default)."""
        if columns is None:
            columns = np.arange(self.atom_values.size)
        vals = self.atom_values[np.asarray(columns, dtype=int)]
        lo, hi = self.atom_values.min() - 1.0, self.atom_values.max() + 1.0
        return HyperGrid(Domain(lo, hi), vals[:, None])

    def log_weight_matrix(self, thetas, points):
        cols = self._columns(points)
        idx = np.asarray(thetas).ravel()
        # floor, not a remainder: inf % 1 warns
        if not np.all((idx >= 0) & (idx < self.psi_table.shape[0]) & (np.floor(idx) == idx)):
            raise ValueError(
                f"discrete latent states must be atom indices 0..{self.psi_table.shape[0] - 1}")
        idx = idx.astype(int)
        with np.errstate(divide="ignore"):
            return np.log(self.psi_table[np.ix_(idx, cols)]) + np.log(self.prior[cols])

    def sampler(self, grid):
        """Inverse-CDF draws from the CDF rows of ``grid``'s columns."""
        return _CdfSampler(self._cdfs[self._columns(grid.points)])

    def exact_log_u(self, points) -> np.ndarray:
        cols = self._columns(points)
        # each mass is the pairwise sum of one contiguous row: its column's own sum
        mass = np.ascontiguousarray(self.psi_table[:, cols].T).sum(axis=1)
        return np.log(mass) + np.log(self.prior[cols])


class _CdfSampler(GridSampler):
    def __init__(self, cdfs):
        self.cdfs = cdfs  # one CDF row per grid point

    def draw_rows(self, rows, rng):
        # the inverse-CDF lookup of Generator.choice(p=w / w.sum()): CDF entries <= u
        u = rng.random(len(rows))
        return (self.cdfs[rows] <= u[:, None]).sum(axis=1)


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
        if not (np.isfinite(y) and 0 < q < np.inf and 0 < tau < np.inf):
            raise ValueError("y must be finite and the precisions q and tau finite and positive")
        self.y = float(y)
        self.q = float(q)
        self.tau = float(tau)

    # -- local density ------------------------------------------------

    def _log_mixture(self, thetas):
        """lam-independent observation part log(0.5 N(y;th,1/q) + 0.5 N(y;-th,1/q))."""
        a = _gauss_logpdf(self.y, thetas, 1.0 / self.q)
        b = _gauss_logpdf(self.y, -thetas, 1.0 / self.q)
        return np.logaddexp(a, b) + np.log(0.5)

    @staticmethod
    def _points(points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.ndim != 2 or points.shape[1] != 1:
            raise ValueError("the toy model has a one-dimensional hyperparameter")
        if not np.isfinite(points).all():
            raise ValueError("toy hyperparameter values must be finite")
        return points

    def _stats_coefs(self, draws, lams):
        """Statistics [theta, mixture - tau theta^2/2, 1] per draw and
        coefficients [tau lam; 1; c2] per point, c2 = -tau lam^2/2
        - log(2 pi/tau)/2; the flat prior adds nothing."""
        stats = (draws, self._log_mixture(draws) - 0.5 * self.tau * draws * draws,
                 np.ones_like(draws))
        coefs = np.ones((3, lams.size))
        coefs[0] = self.tau * lams
        coefs[2] = -0.5 * (self.tau * lams * lams + _LOG_2PI - math.log(self.tau))
        return stats, coefs

    def log_weight_factors(self, thetas, points, grads: bool = False):
        """One group of every point: ``_stats_coefs``, whose product is
        _log_mixture + _gauss_logpdf(theta, lam, 1/tau); with ``grads``, the
        gradients tau (theta - lam) as [theta, 1] times [tau; -tau lam]."""
        lams = self._points(points)[:, 0]
        draws = np.asarray(thetas, dtype=float).ravel()
        grad = ()
        if grads:
            grad = ((draws, np.ones_like(draws)),
                    np.stack([np.full_like(lams, self.tau), -self.tau * lams])[:, :, None])
        # formed in the yield, so that only the caller holds the statistics
        yield (np.arange(lams.size), *self._stats_coefs(draws, lams), *grad)

    def _local_mixture(self, lams):
        """Weight of the + component, the two means and the common
        standard deviation of pi_lam, per lam.

        Completing the square in theta shows
          pi_lam = w+ N(m+, v) + w- N(m-, v)
        with v = 1/(q+tau), m+- = (tau lam +- q y)/(q+tau) and component
        weights proportional to N(y; +-lam, s), s = 1/q + 1/tau.
        """
        s = 1.0 / self.q + 1.0 / self.tau
        # expit(d) of d = log N(y; lam, s) - log N(y; -lam, s), by scipy's
        # formula 1 / (1 + exp(-d)) in numpy so that the toy model loads no
        # scipy; -d is the reversed difference, bit for bit, the cap keeps
        # exp finite, and past it expit(d) is below 1.3e-308 either way
        neg_d = _gauss_logpdf(self.y, -lams, s) - _gauss_logpdf(self.y, lams, s)
        w_plus = 1.0 / (1.0 + np.exp(np.minimum(neg_d, 709.0)))
        m_plus = (self.q * self.y + self.tau * lams) / (self.q + self.tau)
        m_minus = (self.tau * lams - self.q * self.y) / (self.q + self.tau)
        return w_plus, m_plus, m_minus, np.sqrt(1.0 / (self.q + self.tau))

    def sampler(self, grid):
        """Draws from the mixtures of ``grid``'s points, each computed once."""
        return _MixtureSampler(*self._local_mixture(self._points(grid.points)[:, 0]))

    def exact_log_u(self, points) -> np.ndarray:
        lams = self._points(points)[:, 0]
        s = 1.0 / self.q + 1.0 / self.tau
        return np.log(0.5) + np.logaddexp(_gauss_logpdf(self.y, lams, s),
                                          _gauss_logpdf(self.y, -lams, s))


class _MixtureSampler(GridSampler):
    def __init__(self, w_plus, m_plus, m_minus, sd):
        # ToyBimodalModel._local_mixture per grid point
        self.w_plus, self.m_plus, self.m_minus, self.sd = w_plus, m_plus, m_minus, sd

    def draw_rows(self, rows, rng):
        pick_plus = rng.random(len(rows)) < self.w_plus[rows]
        return (np.where(pick_plus, self.m_plus[rows], self.m_minus[rows])
                + self.sd * rng.standard_normal(len(rows)))


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
    break the split.  ``log_weight_factors`` therefore factors B once per
    distinct tau2 among its points.  A log-weight is then affine in three
    per-draw statistics, the whitened square q_B, the observation term
    obs and 1:

        log psi_lam(theta) + log p(lam)
            = [q_B, obs, 1, 1] @ [-1/(2 scale); 1; c0; log p(lam)],
        c0 = -(n log 2 pi + n log scale + log det B) / 2,

    with the log prior last: one group of columns per tau2, whose
    gradients come from the same factor and whitening (``_grad_coefs``).
    The factor is ``np.linalg.cholesky``, and a group whitens all draws by
    one product with its triangular inverse (``_whiten``).

    The posterior and the exact marginal take one spectrum B(tau2) = Q
    diag(Lam) Q' per tau2 instead (``_spectrum``; Rasmussen and Williams
    2006, sections 2.2-2.3).  With d = (tau1/tau2) Lam and e = d +
    noise_var, the posterior mean is Q (d/e .* Q'y), its covariance has the
    root Q diag(sqrt(d noise_var / e)), with no second factorization, and
    log z = -(n log 2 pi + sum log e + sum (Q'y)^2 / e) / 2.  The sampler
    builds its points' means and roots at construction, and the model
    keeps its last grid's sampler, so repeated banks on one grid take no
    further spectrum.  A B(tau2) of numerical rank below n raises one
    ValueError naming tau2 and ``jitter_scale`` (``_check``).
    """

    def __init__(self, x, y, noise_var: float = 1.0 / 16.0, jitter_scale: float = 1e-9):
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2):
            raise ValueError("x must be a vector or an (n, d) array of inputs")
        if x.ndim == 1:
            x = x[:, None]
        self.x = x
        self.y = np.asarray(y, dtype=float).ravel()
        if self.y.size != x.shape[0]:
            raise ValueError("x and y must have matching lengths")
        if self.y.size == 0:
            raise ValueError("the GP dataset is empty")
        if not (np.isfinite(x).all() and np.isfinite(self.y).all()):
            raise ValueError("the GP dataset's x and y must be finite")
        if not 0 < noise_var < np.inf:
            raise ValueError("noise_var must be finite and positive")
        self.noise_var = float(noise_var)
        if not 0 <= jitter_scale < np.inf:
            raise ValueError("jitter_scale must be finite and nonnegative")
        self.jitter_scale = float(jitter_scale)
        diff = x[:, None, :] - x[None, :, :]
        self._sqdist = np.sum(diff * diff, axis=-1)
        self._sampler = None

    # -- Model interface ------------------------------------------------

    @staticmethod
    def _points(points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        # written so that NaN fails it too
        if (points.ndim != 2 or points.shape[1] != 2
                or not np.all((points > 0) & (points < np.inf))):
            raise ValueError("lam must be a finite positive pair (tau1, tau2)")
        return points

    def _draws(self, thetas) -> np.ndarray:
        """The draws as an (N, n) array; one draw may come as a vector."""
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim == 1:
            thetas = thetas[None, :]
        if thetas.ndim != 2 or thetas.shape[1] != self.y.size:
            raise ValueError(f"GP draws must be an (N, {self.y.size}) array of function "
                             f"values at the inputs, got shape {thetas.shape}")
        return thetas

    def _kernel(self, tau2):
        """exp(-tau2 D), D the squared distances, and B(tau2) with its jitter."""
        decay = np.exp(-tau2 * self._sqdist)
        return decay, decay + self.jitter_scale * np.eye(self.y.size)

    def _check(self, tau2, vals):
        """Raise a ValueError naming tau2 and ``jitter_scale`` unless the
        smallest of B(tau2)'s increasing eigenvalues ``vals`` is above n eps
        times the largest, numpy's ``matrix_rank`` tolerance: below it, the
        BLAS kernel's rounding decides its sign.  The factor and the spectrum
        both check, so they accept the same tau2."""
        if not vals[0] > self.y.size * np.finfo(float).eps * vals[-1]:
            raise ValueError(
                f"the GP kernel matrix B(tau2) at tau2 = {float(tau2)!r} is not positive "
                f"definite: raise jitter_scale ([model] jitter_scale, now {self.jitter_scale!r})")

    def _factor(self, tau2):
        """exp(-tau2 D) and the lower Cholesky factor of a checked B(tau2)."""
        decay, kernel = self._kernel(tau2)
        self._check(tau2, np.linalg.eigvalsh(kernel))
        return decay, np.linalg.cholesky(kernel)

    def _spectrum(self, tau2):
        """Lam (increasing), Q and Q'y of a checked B(tau2) = Q diag(Lam) Q',
        the jitter inside Lam, by one ``np.linalg.eigh``."""
        vals, vecs = np.linalg.eigh(self._kernel(tau2)[1])
        self._check(tau2, vals)
        return vals, vecs, vecs.T @ self.y

    def _whiten(self, thetas, work, tau2, grads: bool):
        """The per-tau2 kernel: one factor L of B(tau2), its triangular
        inverse L^{-1} (:func:`_tri_inverse`), and one product whitening
        every draw at once, W = L^{-1} Theta', written into ``work[0]``.
        ``work`` is a C-ordered (k, n, N) array that the caller allocates
        once and this overwrites, k = 2 with ``grads`` and 1 without; the
        draws are W's columns, so ``thetas.T`` is read as a view and never
        copied.

        Returns log det B, the whitened squares q_B = theta' B^{-1} theta,
        the column sums of W .* W, and with ``grads`` also tr(B^{-1} E) and
        q_E (see ``_grad_coefs``) from the n x n M = L^{-1} E L^{-T}: tr(M),
        and the column sums of W .* (M W), with M W in ``work[1]``.

        A draw's statistics may move in their last bits with the number of
        draws in the call, which the products block by (see the module
        docstring).
        """
        decay, chol = self._factor(tau2)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        inv = _tri_inverse(chol)
        white = np.matmul(inv, thetas.T, out=work[0])
        q_b = np.einsum("ij,ij->j", white, white)
        extra = None
        if grads:
            m = inv @ (decay * self._sqdist) @ inv.T
            extra = (np.trace(m), np.einsum("ij,ij->j", white, np.matmul(m, white, out=work[1])))
        return logdet, q_b, extra

    def _observation(self, thetas):
        """log N(y; theta, noise_var I) per draw, the lam-free part of log psi."""
        resid = self.y[None, :] - thetas
        return -0.5 * (self.y.size * (_LOG_2PI + np.log(self.noise_var))
                       + np.sum(resid * resid, axis=1) / self.noise_var)

    def _coefs(self, points, logdets):
        """Coefficients (4, M) of the per-draw statistics [q_B, obs, 1, 1]:
        -1/(2 scale), 1, c0 = -(n log 2 pi + n log scale + log det B)/2 and
        the log prior, given log det B(tau2) per point."""
        scales = points[:, 0] / points[:, 1]
        coefs = np.ones((4, points.shape[0]))
        coefs[0] = -0.5 / scales
        coefs[2] = -0.5 * (self.y.size * (_LOG_2PI + np.log(scales)) + logdets)
        coefs[3] = self._log_priors(points)
        return coefs

    def _grad_coefs(self, points, trace):
        """Coefficients (3, M, 2) of the per-draw statistics [q_B, q_E, 1]
        whose product is the gradient of log(psi_lam_m(theta_n) p(lam_m)) in
        (tau1, tau2), for points that share one tau2 and so tr(B^{-1} E).

        With K = scale B(tau2), scale = tau1/tau2, dK/dtau1 = K/tau1 and
        dK/dtau2 = -K/tau2 - scale E, E = exp(-tau2 D) .* D (the relative
        jitter folds into K for both derivatives),

            d/dtau1 = -n/(2 tau1) + quad_K/(2 tau1) - 1/tau1
            d/dtau2 = n/(2 tau2) + tr(B^{-1} E)/2 - quad_K/(2 tau2)
                      - quad_E/2 - 1/tau2

        where quad_K = theta' K^{-1} theta = q_B/scale, quad_E =
        theta' K^{-1} (scale E) K^{-1} theta = q_E/scale, and the last
        terms are the flat prior on (log tau1, log tau2).  Since
        scale tau2 = tau1, the q_B coefficients are 1/(2 scale tau1) and
        -1/(2 tau1).  ``_whiten`` gives q_B = colsum W .* W from the
        whitened draws W = L^{-1} Theta', and, with M = L^{-1} E L^{-T},
        q_E = colsum W .* (M W) and tr(B^{-1} E) = tr(M).
        """
        n = self.y.size
        tau1, tau2 = points[:, 0], points[:, 1]
        scales = tau1 / tau2
        out = np.zeros((3, points.shape[0], 2))
        out[0, :, 0] = 0.5 / (scales * tau1)
        out[2, :, 0] = -(0.5 * n + 1.0) / tau1
        out[0, :, 1] = -0.5 / tau1
        out[1, :, 1] = -0.5 / scales
        out[2, :, 1] = (0.5 * n - 1.0) / tau2 + 0.5 * trace
        return out

    @staticmethod
    def _log_priors(points):
        """log p(lam) = -log tau1 - log tau2 for every row of points."""
        return -np.log(points[:, 0]) - np.log(points[:, 1])

    @staticmethod
    def _by_tau2(points):
        """Each distinct tau2 of checked points, increasing, and its points."""
        tau2s, group = np.unique(points[:, 1], return_inverse=True)
        return [(tau2, np.flatnonzero(group == g)) for g, tau2 in enumerate(tau2s)]

    def log_weight_factors(self, thetas, points, grads: bool = False):
        """One group per distinct tau2 among the points, in increasing tau2.

        A group takes one factor of B(tau2) and one whitening of the draws
        (``_whiten``, into one buffer per call; the draws are read, never
        copied), shared by its log-weights, the statistics [q_B, obs, 1, 1]
        times ``_coefs``, and with ``grads`` its gradients, [q_B, q_E, 1]
        times ``_grad_coefs``.  A column depends only on its own point,
        never on which other points share the call.
        """
        points = self._points(points)
        thetas = self._draws(thetas)
        # the observation terms and the ones are shared by every group;
        # obs first, so that its temporaries are gone before the whitening
        # buffer comes
        obs = self._observation(thetas)
        ones = np.ones_like(obs)
        work = np.empty((2 if grads else 1, thetas.shape[1], thetas.shape[0]))
        for tau2, cols in self._by_tau2(points):
            logdet, q_b, extra = self._whiten(thetas, work, tau2, grads)
            grad = ()
            if grads:
                trace, q_e = extra
                grad = ((q_b, q_e, ones), self._grad_coefs(points[cols], trace))
            yield (cols, (q_b, obs, ones, ones),
                   self._coefs(points[cols], np.full(cols.size, logdet)), *grad)

    def sampler(self, grid):
        """Posterior draws at ``grid``'s points.  The last grid's sampler is
        kept and served again for the same points, with its spectra."""
        points = self._points(grid.points)
        if self._sampler is None or not np.array_equal(self._sampler.points, points):
            self._sampler = _PosteriorSampler(self, points.copy())
        return self._sampler

    def exact_log_u(self, points) -> np.ndarray:
        """log z(lam) + log p(lam): log z = log N(y; 0, C_lam + noise_var I) =
        -(n log 2 pi + sum log e + sum (Q'y)^2 / e) / 2, e = d + noise_var (see
        the class docstring), every tau1 from one ``_spectrum`` per tau2."""
        points = self._points(points)
        out = self._log_priors(points)
        for tau2, cols in self._by_tau2(points):
            vals, _, qty = self._spectrum(tau2)
            noisy = (points[cols, :1] / tau2) * vals + self.noise_var
            out[cols] += -0.5 * (self.y.size * _LOG_2PI + np.sum(np.log(noisy), axis=1)
                                 + np.sum(qty * qty / noisy, axis=1))
        return out


class _PosteriorSampler(GridSampler):
    """Each point's posterior mean Q (d/e .* Q'y) and root scales
    sqrt(d noise_var / e), e = d + noise_var, from one ``_spectrum`` per
    distinct tau2 of the grid: a draw is mean + (z .* root) Q'."""

    def __init__(self, model, points):
        self.points = points
        self.means = np.empty((len(points), model.y.size))
        self.roots = np.empty_like(self.means)
        self.vecs = [None] * len(points)  # each point's Q, one array per tau2
        for tau2, cols in model._by_tau2(points):
            vals, vecs, qty = model._spectrum(tau2)
            for j in cols:
                d = (points[j, 0] / tau2) * vals
                noisy = d + model.noise_var
                self.means[j] = vecs @ (d / noisy * qty)
                self.roots[j] = np.sqrt(d * model.noise_var / noisy)
                self.vecs[j] = vecs

    def draw(self, i, rng, size):
        z = rng.standard_normal((size, self.means.shape[1]))
        return self.means[i] + (z * self.roots[i]) @ self.vecs[i].T

    def draw_rows(self, rows, rng):
        # one product per row: rows stacked into one product round apart
        # on some BLAS kernels
        return np.concatenate([self.draw(i, rng, 1) for i in rows])


def make_synthetic_gp_dataset(n: int = 16, seed: int = 7, noise_var: float = 1.0 / 16.0):
    """Deterministic synthetic regression data for the GP model.

    Inputs on a regular design in [-2, 2]; responses are a smooth curve
    plus Gaussian noise with the model's observation variance.
    """
    if n < 1:
        raise ValueError(f"a synthetic dataset needs n >= 1 points, got {n}")
    if not 0 < noise_var < np.inf:
        raise ValueError("noise_var must be finite and positive")
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
