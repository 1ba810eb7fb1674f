"""Core estimator: reweighting local samples into a stationary vector.

Monte Carlo samples are drawn independently at each grid point from the
normalized local density pi_i.  For each sample the vector of log-weights
log(psi_j(theta) p(lam_j)) over all grid columns j is normalized by its
log-sum-exp and cached.  Averaging the normalized weights row by row gives
a row-stochastic matrix whose stationary vector, rescaled to sum L,
estimates the marginal u(lam_l) = z(lam_l) p(lam_l) on the grid up to a
common constant.

The stationary vector is computed by Grassmann-Taksar-Heyman state
reduction (Oper. Res. 33, 1985): states are censored out one at a time,
each pivot is the remaining off-diagonal mass of its row, and nothing is
ever subtracted, so every entry, however small, is accurate to working
precision relative to itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightError, NoOverlapError, ReducibleChainError
from .grids import HyperGrid
from .models import Model

__all__ = [
    "SampleBank",
    "LogWeightCache",
    "EmusEstimate",
    "child_rng",
    "draw_sample_bank",
    "compute_log_weights",
    "estimate_transition_matrix",
    "stationary_vector",
    "fit_emus",
    "bridge_ratio",
]

#: log-weights this far below a sample's maximum are floored to -inf
LOG_WEIGHT_FLOOR = 700.0

#: largest accepted relative stationary residual max|F'u - u| / max|u|
STATIONARY_RESIDUAL_TOL = 1e-6


def child_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent child generator for a (replicate, point, ...) context.

    Children are derived as SeedSequence(master_seed, spawn_key=key), so
    any (master, key) pair names the same stream on every run and
    platform, and distinct keys give statistically independent streams.
    """
    seq = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(seq)


@dataclass
class SampleBank:
    """Local samples grouped by grid point.

    Parameters
    ----------
    grid : HyperGrid
    samples : list of ndarray
        One array per grid point, leading axis of length counts[i].
    counts : ndarray of int
        Draws per point, all >= 1.
    """

    grid: HyperGrid
    samples: list
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=int)
        if len(self.samples) != len(self.grid) or self.counts.size != len(self.grid):
            raise ValueError("need one sample block and count per grid point")
        if np.any(self.counts < 1):
            raise ValueError("every grid point needs at least one sample")
        for i, block in enumerate(self.samples):
            if np.asarray(block).shape[0] != self.counts[i]:
                raise ValueError(f"sample block {i} does not match its count")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def flattened(self):
        """All samples stacked on axis 0, plus segment offsets (L+1,)."""
        stacked = np.concatenate([np.asarray(b) for b in self.samples], axis=0)
        offsets = np.concatenate([[0], np.cumsum(self.counts)])
        return stacked, offsets


def draw_sample_bank(model: Model, grid: HyperGrid, counts, master_seed: int,
                     spawn_prefix: tuple = ()) -> SampleBank:
    """Draw independent local samples at every grid point.

    The stream for point i is ``child_rng(master_seed, *spawn_prefix, i)``,
    so banks are reproducible point by point and replicate prefixes keep
    replicates independent.
    """
    counts = np.broadcast_to(np.asarray(counts, dtype=int), (len(grid),)).copy()
    samples = []
    for i, lam in enumerate(grid.points):
        rng = child_rng(master_seed, *spawn_prefix, i)
        samples.append(np.asarray(model.sample_local(lam, rng, int(counts[i]))))
    return SampleBank(grid=grid, samples=samples, counts=counts)


@dataclass
class LogWeightCache:
    """Cached normalized weights of every sample against every grid column.

    ``ratios[s, j]`` is psi_j(theta_s) p(lam_j) / sum_l psi_l(theta_s) p(lam_l),
    exactly 0 where the log-weight is more than LOG_WEIGHT_FLOOR below
    the sample's own maximum; ``lse`` is the per-sample log-sum-exp of
    the log-weights over columns.  ``offsets`` delimits the sample
    segments of each grid point.
    """

    ratios: np.ndarray
    lse: np.ndarray
    offsets: np.ndarray


def compute_log_weights(bank: SampleBank, model: Model) -> LogWeightCache:
    """Evaluate all sample-against-column log-weights; cache them normalized."""
    thetas, offsets = bank.flattened()
    points = bank.grid.points
    logw = np.ascontiguousarray(model.log_weight_matrix(thetas, points), dtype=float)
    row_max = np.max(logw, axis=1)
    bad = ~np.isfinite(row_max)
    if np.any(bad):
        s = int(np.argmax(bad))
        point = int(np.searchsorted(offsets, s, side="right") - 1)
        raise DegenerateWeightError(
            f"sample {s - offsets[point]} at grid point {point} has zero weight "
            "against every grid column; the local sampler and the grid are "
            "inconsistent or all weights underflowed"
        )
    logw[logw < (row_max[:, None] - LOG_WEIGHT_FLOOR)] = -np.inf
    # exp(logw - row_max) in place, normalized by its row sums: one (S, L)
    # buffer and one exp pass; floored entries become exp(-inf) = 0 exactly
    logw -= row_max[:, None]
    np.exp(logw, out=logw)
    sums = np.sum(logw, axis=1)
    logw /= sums[:, None]
    return LogWeightCache(ratios=logw, lse=row_max + np.log(sums), offsets=offsets)


def segment_mean(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Mean of each offset-delimited segment along axis 0."""
    sums = np.add.reduceat(values, offsets[:-1], axis=0)
    counts = np.diff(offsets).astype(float)
    shape = (-1,) + (1,) * (values.ndim - 1)
    return sums / counts.reshape(shape)


def segment_var(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Unbiased (ddof=1) variance of each offset-delimited segment along axis 0.

    Single-draw segments have no variance and are NaN, never zero.
    """
    out = np.full((offsets.size - 1,) + values.shape[1:], np.nan)
    for i, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        if hi - lo > 1:
            out[i] = np.var(values[lo:hi], axis=0, ddof=1)
    return out


def estimate_transition_matrix(bank: SampleBank, model: Model):
    """Row-stochastic matrix of mean normalized weights.

    Entry (i, j) averages psi_j(theta) p(lam_j) / sum_l psi_l(theta) p(lam_l)
    over the samples drawn at grid point i; rows sum to 1 up to floating
    point by construction.

    Returns
    -------
    (F, cache) : (ndarray of shape (L, L), LogWeightCache)
    """
    cache = compute_log_weights(bank, model)
    return segment_mean(cache.ratios, cache.offsets), cache


def stationary_vector(transition: np.ndarray) -> np.ndarray:
    """Left stationary vector of a row-stochastic matrix, scaled to sum L.

    Solves u = F^T u by GTH elimination.  States L-1, ..., 1 are censored
    out in turn: the pivot of state k is the off-diagonal mass of its row
    towards the states still present, its inflow column is divided by
    that pivot, and a rank-one update folds its excursions into the rows
    that remain.  Back substitution from u_0 = 1 then sums the inflow
    into each state.  Only the off-diagonal entries of F are read (its
    diagonal is 1 minus their row sum), and nothing is subtracted, so each
    entry of u is accurate to a few units of rounding relative to itself.

    A unique positive solution needs the grid to be irreducible: every
    pair of grid points connected through overlapping local densities.
    Zeros in the solution are structural, never rounding.  A zero pivot
    means states k..L-1 hold a closed class; back substitution then
    starts from u_k = 1 with zeros below k, an exact stationary vector of
    the reducible chain, and states its class never enters get zero
    inflow.  Any zero entry raises, and so does an inaccurate solve
    (residual above STATIONARY_RESIDUAL_TOL).  Fits that may clamp a
    degenerate solve instead go through :func:`fit_emus`.

    Raises
    ------
    ReducibleChainError
    """
    return _solve_stationary(transition, "raise")[0]


def _row_stochastic(transition) -> np.ndarray:
    """The matrix as a float array, or ValueError unless it is square and
    row-stochastic (entries >= -1e-12, row sums within 1e-8 of 1)."""
    F = np.asarray(transition, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ValueError("transition matrix must be square")
    # written so that NaN entries fail it too
    if not (np.all(F >= -1e-12) and np.max(np.abs(F.sum(axis=1) - 1.0)) <= 1e-8):
        raise ValueError("transition matrix must be row-stochastic")
    return F


def _solve_stationary(transition, on_degenerate):
    """Stationary vector and whether it was clamped; modes as in fit_emus."""
    if on_degenerate not in ("raise", "truncate"):
        raise ValueError(f"unknown on_degenerate mode {on_degenerate!r}")
    F = _row_stochastic(transition)
    n = F.shape[0]
    if n == 1:
        return np.ones(1), False

    P = F.copy()
    root = 0
    for k in range(n - 1, 0, -1):
        pivot = P[k, :k].sum()
        if pivot == 0.0:
            root = k
            break
        P[:k, k] /= pivot
        P[:k, :k] += P[:k, k, None] * P[k, None, :k]
    u = np.zeros(n)
    u[root] = 1.0
    for j in range(root + 1, n):
        u[j] = u[root:j] @ P[root:j, j]
    u *= n / u.sum()
    residual = np.max(np.abs(F.T @ u - u)) / np.max(u)
    if residual > STATIONARY_RESIDUAL_TOL:
        raise ReducibleChainError(
            f"stationary residual {residual:.3e} exceeds "
            f"{STATIONARY_RESIDUAL_TOL:.1e}; the stationary solve is inaccurate"
        )
    truncated = False
    if np.any(u <= 0.0):
        if on_degenerate == "raise":
            raise ReducibleChainError(
                "some grid points are unreachable: the transition matrix is "
                "reducible, so its stationary vector vanishes on them "
                "(grid-irreducibility assumption violated)"
            )
        floor = np.finfo(float).eps * np.max(u)
        u = np.where(u < floor, floor, u)
        u = u * (n / u.sum())
        truncated = True
    return u, truncated


@dataclass
class EmusEstimate:
    """Fitted estimate on a simulation grid.

    Fields
    ------
    bank : SampleBank
    cache : LogWeightCache
    transition : ndarray (L, L)
        Row-stochastic matrix of mean normalized weights.
    stationary : ndarray (L,)
        Estimated u(lam_l) up to a common constant, normalized to sum L.
    """

    bank: SampleBank
    cache: LogWeightCache
    transition: np.ndarray
    stationary: np.ndarray
    #: True when fit_emus clamped a degenerate solve; the only record of it
    truncated: bool = False

    @property
    def grid(self) -> HyperGrid:
        return self.bank.grid

    @property
    def counts(self) -> np.ndarray:
        return self.bank.counts


def fit_emus(bank: SampleBank, model: Model,
             on_degenerate: str = "raise") -> EmusEstimate:
    """Estimate the transition matrix and its stationary vector.

    With ``on_degenerate="raise"`` (default) a stationary vector with a
    zero entry (some grid points unreachable) raises ReducibleChainError.
    With ``"truncate"`` entries below a factor of machine epsilon under
    the largest one are clamped to that floor and the estimate's
    ``truncated`` flag is set, with no warning: callers that can
    self-correct (sequential designs accumulating overlap) use this for
    provisional fits.  An inaccurate solve always raises.
    """
    F, cache = estimate_transition_matrix(bank, model)
    u, truncated = _solve_stationary(F, on_degenerate)
    return EmusEstimate(bank=bank, cache=cache, transition=F, stationary=u,
                        truncated=truncated)


def bridge_ratio(transition: np.ndarray, i: int, j: int) -> float:
    """Pairwise estimate of u(lam_j)/u(lam_i) from one matrix entry pair.

    Detailed balance gives u_i F_ij = u_j F_ji, so F_ij / F_ji estimates
    u_j / u_i without solving the eigenproblem.  Only sensible when the
    two local densities overlap.
    """
    if i == j:
        return 1.0
    F = np.asarray(transition, dtype=float)
    if F[j, i] == 0.0:
        raise NoOverlapError(
            f"no overlap observed between grid points {i} and {j}: entry "
            f"({j}, {i}) is zero, the pairwise ratio is undefined"
        )
    return float(F[i, j] / F[j, i])
