"""Statistical models exposing local densities over a hyperparameter.

Every model provides two hooks and may override the defaults of three
more; the estimators use the local density psi_lam and the prior p(lam)
only as their product:

- ``sampler(grid)``: a :class:`GridSampler` bound to the points of one
  grid, the only values at which the pipeline draws (banks, design blocks
  and griddy Gibbs states).  It holds each point's state, computed once:
  the toy mixture, the discrete CDF row, the GP posterior mean and factor.
  Its ``draw(i, rng, size)`` gives exact draws at point i from the
  normalized local density pi_lam = psi_lam / z(lam), for banks and design
  blocks; its ``draw_rows(rows, rng)`` gives one draw per grid index, all
  from ``rng``, for the chains of :mod:`margrid.baselines`, and a one-row
  call consumes ``rng`` exactly as ``draw(rows[0], rng, 1)`` does,
- ``log_weight_matrix(thetas, points)``: the log-weights
  log(psi_lam(theta) p(lam)) of a batch of latent states against many
  values at once, shape (N, M), prior included; every bundled model
  writes it with one batched evaluation,
- optionally ``log_weight_rows(thetas, points, bounds)``: the rows of
  ``log_weight_matrix`` in the ranges ``bounds[t]:bounds[t + 1]``, which a
  fit reads tile by tile; the base class evaluates each range on its own,
  the toy model computes its statistics once and the GP model whitens
  all draws once, each then assembling one range at a time,
- optionally ``log_weight_blocks(thetas, points, grads)``: the columns of
  ``log_weight_matrix`` in blocks, each with, when ``grads`` is set, its
  hyperparameter gradients (the only place gradients come from); the
  base class yields one block of the whole matrix and raises
  ``GradientUnavailableError`` for gradients, the GP model yields one
  block per length scale and the toy model cache-sized tiles,
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
sum.  A column therefore never depends on its companions: a one-point
call gives the bits of the same column in any wider call.  Nor does a
row: fits read log-weights through ``log_weight_rows(thetas, points,
bounds)`` in row tiles, and the toy and GP models take the per-draw and
per-point work (statistics, coefficients, factors, whitened squares)
once for all draws and assemble each range with the same sum, so a
range holds the bits of the same rows of the whole matrix.

Curves read log-weights and gradients through ``log_weight_blocks(thetas,
points, grads=False)``, which yields ``(cols, logw, grad)`` column
blocks that the curve reduces and drops one at a time.  The default
yields one block, ``log_weight_matrix``, which the discrete model uses;
it has no gradients.  The GP model yields one block per distinct length
scale, whose log-weights and gradients share one factor and two
triangular solves of the draws; both its routes run the same
per-length-scale kernel and the same sum, so a block entry is bit-equal
to the matching ``log_weight_matrix`` entry.  The toy model computes its
statistics once and yields the product in column tiles of about
``TILE_BYTES`` (``_column_tiles``), with gradient tiles from one outer
difference, so a curve's passes over a tile (exponential, product,
gradient) run in cache; each tile is the same ``dgemm`` sum, so its
entries are the whole-matrix bits too.  A call writes its tiles into one
block buffer (and one gradient buffer) sized for its widest tile, and
its row ranges into one buffer sized for the largest, so the memory is
allocated once per call and not faulted in again for every tile.  The
hooks' contract allows this for every model: a yielded tile or range is
valid only until the next one is requested, and a caller that keeps one
copies it.

Only the GP model uses scipy: its methods that factor and solve import
``scipy.linalg`` on first use.  The toy and discrete models need numpy
alone (the toy component weight is scipy's ``expit`` formula written in
numpy), so a process that runs only them never pays for importing
scipy's linear algebra.
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

#: bytes of one cache-sized tile: a toy log-weight block, or the rows of
#: whole point segments that a fit normalizes and reduces at once
#: (``emus._row_tiles``)
TILE_BYTES = 1 << 20


def _gauss_logpdf(x, mean, var):
    """Elementwise scalar Gaussian log density."""
    return -0.5 * (_LOG_2PI + np.log(var) + (x - mean) ** 2 / var)


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


def _leading(buf, rows, cols):
    """The C-ordered (rows, cols) view of the first rows * cols entries of
    the flat ``buf``."""
    return buf[:rows * cols].reshape(rows, cols)


def _column_tiles(stats, coefs, grads: bool = False):
    """``_stats_times_coefs`` in cache-sized column tiles: yields
    ``(cols, block, grad)``.

    Tiles start at multiples of T = 16 max(1, TILE_BYTES // (128 N))
    columns (16 columns of N draws take 128 N bytes), and the last tile
    takes the remaining columns, so it is T to 2T - 1 wide.  A column then
    sits in the same lane of a matrix-vector product over a tile as over
    the whole matrix, and no narrow last tile is rounded apart.

    Every block is a leading view of one buffer sized for the widest tile
    (the last), so the call allocates its memory once and a block is valid
    only until the next one is requested.  With ``grads``, ``grad`` is a
    leading (N, len(cols)) view of a second such buffer, left for the
    caller to fill with the tile's gradients, and otherwise None.
    """
    n, m = stats.shape[0], coefs.shape[1]
    width = 16 * max(1, TILE_BYTES // (128 * n))
    bounds = list(range(0, width * max(1, m // width), width)) + [m]
    size = n * (m - bounds[-2])
    buf = np.empty(size)
    grad_buf = np.empty(size) if grads else None
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = _stats_times_coefs(stats, coefs[:, lo:hi], _leading(buf, n, hi - lo))
        yield (np.arange(lo, hi), block,
               None if grad_buf is None else _leading(grad_buf, n, hi - lo))


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

    def exact_log_u(self, lam) -> float:
        raise NotImplementedError(
            f"{type(self).__name__} has no closed form for the marginal"
        )

    def log_weight_matrix(self, thetas, points):
        """Matrix of log(psi_lam_j(theta_n) p(lam_j)), shape (N, L).

        The result is a fresh C-ordered float array, which the caller may
        overwrite; the estimators read it through ``np.ascontiguousarray``,
        so a model returning another layout costs a copy but changes no
        result bit.
        """
        raise NotImplementedError

    def log_weight_rows(self, thetas, points, bounds):
        """Log-weights in row ranges: yields the ``log_weight_matrix`` rows
        ``bounds[t]:bounds[t + 1]`` of the draws, in order.

        Each range comes as a C-ordered array the caller may overwrite,
        valid until the next range is requested: a model may write every
        range of one call into one buffer, so a caller copies a range it
        keeps.  A fit walks its bank in row tiles through this hook and
        drops each tile, so the whole (N, M) matrix need never exist.  The
        default evaluates each range's draws on their own; models override
        it when per-point or per-draw work is cheaper done once for all
        ranges, and every range must hold the bits of the same rows of one
        whole-matrix call.
        """
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield self.log_weight_matrix(thetas[lo:hi], points)

    def log_weight_blocks(self, thetas, points, grads: bool = False):
        """Log-weights in column blocks: yields ``(cols, logw, grad)``.

        ``logw`` holds the ``log_weight_matrix`` columns ``cols`` of the
        points; with ``grads``, ``grad`` holds their hyperparameter
        gradients, shape (N, len(cols), p), as a C-ordered array, and
        otherwise None.  Both are arrays the caller may overwrite, valid
        until the next block is requested: a model may write every block of
        one call into one buffer, so a caller copies a block it keeps.
        Curves reduce each block and drop it, so the whole (N, M) matrix
        need never exist.  The default yields one block of all columns and
        raises ``GradientUnavailableError`` for gradients; models override
        this when columns share work that is cheaper to do one block at a
        time, or when they have gradients.
        """
        if grads:
            raise GradientUnavailableError(
                f"{type(self).__name__} does not implement hyperparameter gradients"
            )
        logw = self.log_weight_matrix(thetas, points)
        yield np.arange(logw.shape[1]), logw, None


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
        self._cdfs = np.array([np.cumsum(w / w.sum()) for w in table.T])
        self._cdfs /= self._cdfs[:, -1:]

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

    def log_weight_matrix(self, thetas, points):
        cols = self._columns(points)
        idx = np.asarray(thetas, dtype=int).ravel()
        with np.errstate(divide="ignore"):
            return np.log(self.psi_table[np.ix_(idx, cols)]) + np.log(self.prior[cols])

    def sampler(self, grid):
        """Inverse-CDF draws from the CDF rows of ``grid``'s columns."""
        return _CdfSampler(self._cdfs[self._columns(grid.points)])

    def exact_log_u(self, lam) -> float:
        col = self.column_of(lam)
        return float(np.log(self.psi_table[:, col].sum()) + np.log(self.prior[col]))


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
        return points

    def _stats_coefs(self, thetas, points):
        """Statistics [theta, mixture - tau theta^2/2, 1] per draw and
        coefficients [tau lam; 1; c2] per point, c2 = -tau lam^2/2
        - log(2 pi/tau)/2; the flat prior adds nothing."""
        thetas = np.asarray(thetas, dtype=float).ravel()
        lams = self._points(points)[:, 0]
        stats = np.ones((thetas.size, 3))
        stats[:, 0] = thetas
        stats[:, 1] = self._log_mixture(thetas) - 0.5 * self.tau * thetas * thetas
        coefs = np.ones((3, lams.size))
        coefs[0] = self.tau * lams
        coefs[2] = -0.5 * (self.tau * lams * lams + _LOG_2PI - math.log(self.tau))
        return stats, coefs

    def log_weight_matrix(self, thetas, points):
        """_log_mixture + _gauss_logpdf(theta, lam, 1/tau), shape (N, M),
        as the product of ``_stats_coefs``."""
        return _stats_times_coefs(*self._stats_coefs(thetas, points))

    def log_weight_rows(self, thetas, points, bounds):
        """Row ranges of ``log_weight_matrix``: ``_stats_coefs`` once, then
        one ``_stats_times_coefs`` per range, written into one buffer sized
        for the largest range, whose entries are the whole-matrix bits (see
        the module docstring)."""
        stats, coefs = self._stats_coefs(thetas, points)
        m = coefs.shape[1]
        buf = np.empty(m * max(np.diff(bounds), default=0))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield _stats_times_coefs(stats[lo:hi], coefs, _leading(buf, hi - lo, m))

    def log_weight_blocks(self, thetas, points, grads: bool = False):
        """Cache-sized column tiles of ``log_weight_matrix`` (see
        ``_column_tiles``), from statistics computed once; with ``grads``,
        each tile's gradients tau (theta - lam), shape (N, len(cols), 1),
        one outer difference written into the tiles' second buffer and
        scaled in place.  Every entry is bit-equal to its whole-matrix
        entry."""
        points = self._points(points)
        stats, coefs = self._stats_coefs(thetas, points)
        for cols, block, grad in _column_tiles(stats, coefs, grads):
            if grads:
                np.subtract.outer(stats[:, 0], points[cols, 0], out=grad)
                grad *= self.tau
                grad = grad[:, :, None]
            yield cols, block, grad

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

    def exact_log_u(self, lam) -> float:
        lam = _as_lambda(lam)[0]
        s = 1.0 / self.q + 1.0 / self.tau
        return float(
            np.log(0.5)
            + np.logaddexp(_gauss_logpdf(self.y, lam, s), _gauss_logpdf(self.y, -lam, s))
        )


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
    one-point call, or a block of a lone tau2, takes the elementwise sum
    (see ``_stats_times_coefs``).  ``log_weight_blocks`` yields the
    columns of one tau2 at a time, with their gradients from the same
    factor and whitening (``_fill_grads``).  The per-value
    factorization of C_lam + noise_var I (``_cov_factor``) serves the
    sampler, which factors each grid point's posterior on its first draw,
    and the exact marginal.  The model keeps its last grid's sampler, so
    repeated banks on one grid factor each point once.

    The factors and triangular solves come from ``scipy.linalg``, which
    each method that needs them imports on first use, so importing this
    module loads no scipy.
    """

    def __init__(self, x, y, noise_var: float = 1.0 / 16.0, jitter_scale: float = 1e-9):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        self.x = x
        self.y = np.asarray(y, dtype=float).ravel()
        if self.y.size != x.shape[0]:
            raise ValueError("x and y must have matching lengths")
        if not 0 < noise_var < np.inf:
            raise ValueError("noise_var must be finite and positive")
        self.noise_var = float(noise_var)
        if not 0 <= jitter_scale < np.inf:
            raise ValueError("jitter_scale must be finite and nonnegative")
        self.jitter_scale = float(jitter_scale)
        diff = x[:, None, :] - x[None, :, :]
        self._sqdist = np.sum(diff * diff, axis=-1)
        self._sampler = None

    # -- kernel factorizations at one hyperparameter value --------------

    def _cov_factor(self, lam):
        """C_lam and the ``cho_factor`` of C_lam + noise_var I."""
        from scipy.linalg import cho_factor

        lam = _as_lambda(lam)
        if lam.size != 2 or np.any(lam <= 0):
            raise ValueError("lam must be a positive pair (tau1, tau2)")
        tau1, tau2 = float(lam[0]), float(lam[1])
        kernel = (tau1 / tau2) * np.exp(-tau2 * self._sqdist)
        jitter = self.jitter_scale * (tau1 / tau2)
        cov = kernel + jitter * np.eye(self.y.size)
        return cov, cho_factor(cov + self.noise_var * np.eye(self.y.size), lower=True)

    def _posterior(self, lam):
        """Mean and lower Cholesky factor of the posterior of theta at lam."""
        from scipy.linalg import cho_solve, cholesky

        cov, chol_noisy = self._cov_factor(lam)
        gain = cho_solve(chol_noisy, cov)  # (C + s2 I)^{-1} C
        mean = gain.T @ self.y
        post = cov - cov @ gain
        post = 0.5 * (post + post.T)
        bump = 1e-12 * max(np.trace(post) / post.shape[0], 1.0)
        return mean, cholesky(post + bump * np.eye(post.shape[0]), lower=True)

    # -- Model interface ------------------------------------------------

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
        from scipy.linalg import cholesky

        decay = np.exp(-tau2 * self._sqdist)
        return decay, cholesky(decay + self.jitter_scale * np.eye(self.y.size), lower=True)

    def _whiten(self, draws, work, tau2, grads: bool):
        """The per-tau2 kernel: one factor of B(tau2), one whitening of the
        Fortran-ordered draws, solved in ``work``, a Fortran-ordered array of
        their shape that the caller allocates once and this overwrites.

        Returns log det B, the whitened squares q_B = theta' B^{-1} theta per
        draw, and with ``grads`` also tr(B^{-1} E) and q_E (see
        ``_fill_grads``), whose solve reuses the whitened draws.
        """
        from scipy.linalg import cho_solve
        from scipy.linalg.blas import dtrsm

        decay, chol = self._factor(tau2)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        np.copyto(work, draws)
        # rows of the solution are L^{-1} theta_k: X L^T = Theta
        white = dtrsm(1.0, chol, work, side=1, lower=1, trans_a=1, overwrite_b=1)
        extra = None
        if grads:
            E = decay * self._sqdist
            trace = np.trace(cho_solve((chol, True), E))
            # rows of V are (B^{-1} theta_k)': X L = W, before W is squared
            v = dtrsm(1.0, chol, white, side=1, lower=1)
            extra = (trace, np.einsum("ij,ij->i", v, v @ E))
        q_b = np.multiply(white, white, out=white).sum(axis=1)
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

    def _fill_grads(self, q_b, q_e, traces, points):
        """Gradients of log(psi_lam_m(theta_n) p(lam_m)) in (tau1, tau2),
        shape (N, M, 2), from the per-column q_B, q_E and traces.

        With K = scale B(tau2), scale = tau1/tau2, dK/dtau1 = K/tau1 and
        dK/dtau2 = -K/tau2 - scale E, E = exp(-tau2 D) .* D (the relative
        jitter folds into K for both derivatives),

            d/dtau1 = -n/(2 tau1) + quad_K/(2 tau1) - 1/tau1
            d/dtau2 = n/(2 tau2) + tr(B^{-1} E)/2 - quad_K/(2 tau2)
                      - quad_E/2 - 1/tau2

        where quad_K = theta' K^{-1} theta = q_B/scale, quad_E =
        theta' K^{-1} (scale E) K^{-1} theta = q_E/scale, and the last
        terms are the flat prior on (log tau1, log tau2).  ``_whiten``
        gives q_B = rowsum W^2 from the whitened draws W = Theta L^{-T} and
        q_E = rowsum V .* (V E) from V = W L^{-1}; each point then fills its
        two columns elementwise, so a column never depends on its
        companions.
        """
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
        """Matrix of log(psi_lam_j(theta_n) p(lam_j)), shape (N, M): the
        one range of ``log_weight_rows`` that holds every draw.

        A column depends only on its own point, never on which other points
        share the call.
        """
        thetas = self._draws(thetas)
        return next(self.log_weight_rows(thetas, points, (0, thetas.shape[0])))

    def log_weight_rows(self, thetas, points, bounds):
        """Row ranges of ``log_weight_matrix``, from one pass over the draws.

        Columns that share tau2 share one Cholesky factor of B(tau2), and
        one whitening solve of all draws gives their q_B (see the class
        docstring), so B is factored once per distinct tau2 and every draw
        is whitened once per call, however many ranges it asks for.  Each
        (hi - lo, M) range then takes one gather of q_B and four in-place
        passes, elementwise, so a range holds the bits of the same rows of
        the whole matrix.
        """
        points = self._points(points)
        thetas = self._draws(thetas)
        draws = np.asfortranarray(thetas)
        work = np.empty_like(draws, order="F")
        tau2s, group = np.unique(points[:, 1], return_inverse=True)
        logdets = np.empty(tau2s.size)
        qs = np.empty((thetas.shape[0], tau2s.size))
        for g, tau2 in enumerate(tau2s):
            logdets[g], qs[:, g], _ = self._whiten(draws, work, tau2, False)
        del draws, work
        coefs = self._coefs(points, logdets[group])
        obs = self._observation(thetas)[:, None]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield self._assemble(qs[lo:hi], obs[lo:hi], group, coefs)

    @staticmethod
    def _assemble(qs, obs, group, coefs):
        """Log-weights of some draws from their q_B per distinct tau2
        (``qs``), their observation terms and the points' coefficients: one
        gather and four in-place passes."""
        out = np.empty((qs.shape[0], group.size))
        # group is in range; mode="clip" keeps take from buffering out
        np.take(qs, group, axis=1, out=out, mode="clip")
        # the sum of _stats_times_coefs over [q_B, obs, 1, 1], term by term,
        # so that every entry is bit-equal to its log_weight_blocks entry
        out *= coefs[0]
        out += obs
        out += coefs[2]
        out += coefs[3]
        return out

    def log_weight_blocks(self, thetas, points, grads: bool = False):
        """One block per distinct tau2 among the points, in increasing tau2.

        Each block comes from one factor and one whitening of the draws,
        shared by its log-weights and, with ``grads``, its gradients; its
        log-weights are the product [q_B, obs, 1, 1] @ coefficients, whose
        entries are bit-equal to the matching columns of
        ``log_weight_matrix``; its gradients come from ``_fill_grads``.
        """
        points = self._points(points)
        thetas = self._draws(thetas)
        draws = np.asfortranarray(thetas)
        work = np.empty_like(draws, order="F")
        stats = np.ones((thetas.shape[0], 4))
        stats[:, 1] = self._observation(thetas)
        tau2s, group = np.unique(points[:, 1], return_inverse=True)
        for g, tau2 in enumerate(tau2s):
            cols = np.flatnonzero(group == g)
            logdet, q_b, extra = self._whiten(draws, work, tau2, grads)
            stats[:, 0] = q_b
            block = _stats_times_coefs(
                stats, self._coefs(points[cols], np.full(cols.size, logdet)))
            grad_block = None
            if grads:
                trace, q_e = extra
                grad_block = self._fill_grads(q_b[:, None], q_e[:, None], trace,
                                              points[cols])
            yield cols, block, grad_block
            # the caller holds the block now: drop it before the next one
            del block, grad_block

    def sampler(self, grid):
        """Posterior draws at ``grid``'s points.  The last grid's sampler is
        kept and served again for the same points, with its factors."""
        points = self._points(grid.points)
        if self._sampler is None or not np.array_equal(self._sampler.points, points):
            self._sampler = _PosteriorSampler(self, points.copy())
        return self._sampler

    def log_marginal_likelihood(self, lam) -> float:
        """log N(y; 0, C_lam + noise_var I), the exact log z(lam)."""
        from scipy.linalg import cho_solve

        chol_noisy = self._cov_factor(lam)[1]
        n = self.y.size
        alpha = cho_solve(chol_noisy, self.y)
        logdet_noisy = 2.0 * np.sum(np.log(np.diag(chol_noisy[0])))
        return float(-0.5 * (n * _LOG_2PI + logdet_noisy + self.y @ alpha))

    def exact_log_u(self, lam) -> float:
        return self.log_marginal_likelihood(lam) + float(
            self._log_priors(_as_lambda(lam)[None, :])[0])


class _PosteriorSampler(GridSampler):
    def __init__(self, model, points):
        self.model, self.points = model, points
        self.posteriors = [None] * len(points)  # (mean, factor), on first draw

    def draw(self, i, rng, size):
        if self.posteriors[i] is None:
            self.posteriors[i] = self.model._posterior(self.points[i])
        mean, chol_post = self.posteriors[i]
        z = rng.standard_normal((size, mean.size))
        return mean[None, :] + z @ chol_post.T

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
