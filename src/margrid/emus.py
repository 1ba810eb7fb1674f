"""Core estimator: reweighting local samples into a stationary vector.

Monte Carlo samples are drawn independently at each grid point from the
normalized local density pi_i and pooled: a :class:`SampleBank` stacks
every draw once, in grid order.  For each sample the vector of log-weights
log(psi_j(theta) p(lam_j)) over all grid columns j is normalized by its
log-sum-exp, which the fit keeps.  Averaging the normalized weights row
by row gives a row-stochastic matrix whose stationary vector, rescaled to
sum L, estimates the marginal u(lam_l) = z(lam_l) p(lam_l) on the grid up
to a common constant.  The fit walks the bank in row tiles of whole point
segments, each evaluated by ``models.log_weight_tiles`` (from the model's
factors where it has them): each tile is normalized in place, gives its
rows of the matrix, of the weights' variances R and of the log-sum-exps,
and is dropped, so the (S, L) matrix of normalized weights never exists
whole.

The stationary vector is computed by Grassmann-Taksar-Heyman state
reduction (Oper. Res. 33, 1985): states are censored out one at a time,
each pivot is the remaining off-diagonal mass of its row, and nothing is
ever subtracted, so every entry, however small, is accurate to working
precision relative to itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightError, ReducibleChainError
from .grids import HyperGrid
from . import models
from .models import Model, log_weight_tiles

__all__ = [
    "SampleBank",
    "EmusEstimate",
    "child_rng",
    "draw_sample_bank",
    "estimate_transition_matrix",
    "stationary_vector",
    "fit_emus",
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
    """Local samples of every grid point, stacked in one array.

    Parameters
    ----------
    grid : HyperGrid
    thetas : ndarray
        All draws stacked on axis 0 in grid order: point i's draws are
        the rows ``offsets[i]:offsets[i + 1]``.
    counts : ndarray of int
        Draws per point, all >= 1.
    """

    grid: HyperGrid
    thetas: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas)
        self.counts = np.asarray(self.counts, dtype=int)
        if self.counts.shape != (len(self.grid),):
            raise ValueError("need one count per grid point")
        if np.any(self.counts < 1):
            raise ValueError("every grid point needs at least one sample")
        if self.thetas.shape[:1] != (self.total,):
            raise ValueError("the stacked draws do not match the counts")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def offsets(self) -> np.ndarray:
        """Segment offsets (L+1,): point i's draws are rows offsets[i]:offsets[i+1]."""
        return np.concatenate([[0], np.cumsum(self.counts)])


def draw_sample_bank(model: Model, grid: HyperGrid, counts, master_seed: int,
                     spawn_prefix: tuple = ()) -> SampleBank:
    """Draw independent local samples at every grid point.

    The stream for point i is ``child_rng(master_seed, *spawn_prefix, i)``,
    so banks are reproducible point by point and replicate prefixes keep
    replicates independent.  The draws come from ``model.sampler(grid)``.
    """
    counts = np.broadcast_to(np.asarray(counts, dtype=int), (len(grid),)).copy()
    sampler = model.sampler(grid)
    draws = [sampler.draw(i, child_rng(master_seed, *spawn_prefix, i), int(counts[i]))
             for i in range(len(grid))]
    return SampleBank(grid=grid, thetas=np.concatenate(draws, axis=0), counts=counts)


def _normalize(logw: np.ndarray, offsets: np.ndarray, first: int) -> np.ndarray:
    """Normalize rows of log-weights in place into weights; returns their
    log-sum-exps.

    ``logw`` holds the bank's rows from ``first`` on, ``offsets`` the bank's
    segment offsets, which name a degenerate row's point.  Entries more
    than LOG_WEIGHT_FLOOR below their row's maximum become exactly 0; the
    rest become psi_j(theta) p(lam_j) / sum_l psi_l(theta) p(lam_l).  Every
    step is per row, so a row's bits do not depend on the rows beside it.
    """
    row_max = np.max(logw, axis=1)
    bad = ~np.isfinite(row_max)
    if np.any(bad):
        s = first + int(np.argmax(bad))
        point = int(np.searchsorted(offsets, s, side="right") - 1)
        raise DegenerateWeightError(
            f"sample {s - offsets[point]} at grid point {point} has zero weight "
            "against every grid column; the local sampler and the grid are "
            "inconsistent or all weights underflowed"
        )
    logw[logw < (row_max[:, None] - LOG_WEIGHT_FLOOR)] = -np.inf
    # exp(logw - row_max) in place, normalized by its row sums: one exp
    # pass; floored entries become exp(-inf) = 0 exactly
    logw -= row_max[:, None]
    np.exp(logw, out=logw)
    sums = np.sum(logw, axis=1)
    logw /= sums[:, None]
    return row_max + np.log(sums)


def _row_tiles(offsets: np.ndarray, row_bytes: int) -> list:
    """Segment bounds of row tiles of whole segments: tile t holds segments
    ``bounds[t]:bounds[t + 1]``.

    A tile is at most ``models.TILE_BYTES`` of rows of ``row_bytes`` each,
    so it stays in cache through every pass over it; a segment larger than
    that is a tile of its own.  Segments are never split, so the tiles change
    no bit of a segment's mean.
    """
    starts = offsets[:-1]
    rows = max(1, models.TILE_BYTES // row_bytes)
    bounds = [0]
    while bounds[-1] < starts.size:
        a = bounds[-1]
        b = int(np.searchsorted(offsets, starts[a] + rows, side="right")) - 1
        bounds.append(max(a + 1, b))
    return bounds


def segment_mean(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Mean of each offset-delimited segment along axis 0.

    ``np.add.reduceat`` sums each segment on its own, row after row, so a
    segment's mean has the same bits in any array that holds it whole.
    """
    counts = np.diff(offsets).astype(float)
    shape = (-1,) + (1,) * (values.ndim - 1)
    return np.add.reduceat(values, offsets[:-1], axis=0) / counts.reshape(shape)


def segment_var(values: np.ndarray, offsets: np.ndarray,
                means: np.ndarray | None = None) -> np.ndarray:
    """Unbiased (ddof=1) variance of each offset-delimited segment along
    axis 0, computed in place: ``values`` is overwritten.

    Whole-array: ``values`` is cut into blocks of g rows, g the greatest
    common divisor of the segment sizes, so no block straddles two
    segments; each block has the means of its segment (``means``, by
    default :func:`segment_mean`) subtracted in place, one ``einsum`` sums
    every block's squares, and ``np.add.reduceat`` sums the blocks of each
    segment.  Nothing of the size of ``values`` is allocated unless g is 1.
    Single-draw segments have no variance and are NaN, never zero.
    """
    if means is None:
        means = segment_mean(values, offsets)
    counts = np.diff(offsets)
    g = int(np.gcd.reduce(counts))
    blocks = values.reshape((-1, g) + values.shape[1:])
    blocks -= np.repeat(means, counts // g, axis=0)[:, None]
    squares = np.einsum("ij...,ij...->i...", blocks, blocks)
    # 0 / NaN is a quiet NaN: single-draw segments raise no warning
    denom = np.where(counts > 1, counts - 1.0, np.nan)
    shape = (-1,) + (1,) * (values.ndim - 1)
    return np.add.reduceat(squares, offsets[:-1] // g, axis=0) / denom.reshape(shape)


def estimate_transition_matrix(bank: SampleBank, model: Model):
    """Mean normalized weights, their variances and every draw's log-sum-exp,
    from one pass over the bank in row tiles.

    Entry (i, j) of F averages psi_j(theta) p(lam_j) / sum_l psi_l(theta)
    p(lam_l) over the samples drawn at grid point i, so rows sum to 1 up to
    floating point; R[i, j] is the unbiased variance of the same weights
    (:func:`segment_var`).  The bank is walked in ``_row_tiles`` of whole
    point segments, each from ``models.log_weight_tiles``: a tile is
    normalized in place (``_normalize``), its rows of F, R and the
    log-sum-exp are written, and it is dropped, so no (S, L) array exists.
    F and the log-sum-exps are the bits of the whole-matrix computation.

    Returns
    -------
    (F, R, lse) : (ndarray (L, L), ndarray (L, L), ndarray (S,))
    """
    offsets = bank.offsets
    L = len(bank.grid)
    F = np.empty((L, L))
    R = np.empty((L, L))
    lse = np.empty(bank.total)
    bounds = _row_tiles(offsets, 8 * L)
    tiles = log_weight_tiles(model, bank.thetas, bank.grid.points, rows=offsets[bounds])
    for a, b in zip(bounds[:-1], bounds[1:]):
        lo = offsets[a]
        logw = next(tiles)
        lse[lo:offsets[b]] = _normalize(logw, offsets, lo)
        local = offsets[a:b + 1] - lo
        F[a:b] = segment_mean(logw, local)
        R[a:b] = segment_var(logw, local, F[a:b])
        # dropped before the next tile is built
        del logw
    return F, R, lse


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
    transition : ndarray (L, L)
        Row-stochastic matrix of mean normalized weights.
    stationary : ndarray (L,)
        Estimated u(lam_l) up to a common constant, normalized to sum L.
    ratio_variances : ndarray (L, L)
        R, the per-row unbiased variances of the normalized weights (NaN
        rows for single-draw points).
    lse : ndarray (S,)
        Per-draw log-sum-exp of the log-weights over the grid columns.
    """

    bank: SampleBank
    transition: np.ndarray
    stationary: np.ndarray
    ratio_variances: np.ndarray
    lse: np.ndarray
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

    The fit keeps F, R and the per-draw log-sum-exps from one tiled pass
    (:func:`estimate_transition_matrix`), never the (S, L) matrix of
    normalized weights, so its memory grows as L^2 + S, not S L.
    """
    F, R, lse = estimate_transition_matrix(bank, model)
    u, truncated = _solve_stationary(F, on_degenerate)
    return EmusEstimate(bank=bank, transition=F, stationary=u, ratio_variances=R,
                        lse=lse, truncated=truncated)
