"""Sequential allocation of sampling effort over an evaluation grid.

The curve estimator's accuracy depends on where samples were taken.
:func:`optimal_weights` scores a fit over a denser evaluation grid in
one call: it reweights the fit onto that grid, then scores.  The
fitted curve's kernel summands b at the evaluation columns, divided by
their row sums r, are the normalized weights a; each sample carries the
mass k = c r, c_s = u_i/N_i.  With u = a'k, the fitted curve on the
evaluation grid, the grid matrix there is F = diag(1/u) Y'Y with
Y = diag(sqrt(k)) a: a symmetric product, so F is reversible with
respect to u and u'F = u' holds to rounding, with no stationary
solve.
The asymptotic-variance calculus then scores each candidate point by
u_m sqrt(tr(G' Xi_m G)), with G the group inverse of I - F on the
evaluation grid (one fundamental-matrix solve from u) and Xi_m the
covariance of the normalized weights under the local density of m.
Only those traces are needed, and each is read off the same sample
averages as E_m[a' H a] - f_m' H f_m with H = G G', where E_m weights
sample s by k_s a_sm / u_m, so scoring costs O(S M^2) for S samples and
M evaluation points and the grid size has no cap.  The incremental rule
converts the scores into next-batch weights given what has already been
spent, and a pivotal draw turns weights into integer allocations with
exactly the requested batch size and the prescribed inclusion
probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import group_inverse
from .emus import SampleBank, child_rng, fit_emus
from .errors import GridError, MargridError
from .functional import FunctionalEstimate
from .grids import HyperGrid
from .models import Model

__all__ = [
    "trace_weights",
    "optimal_weights",
    "incremental_weights",
    "pivotal_sample",
    "DesignState",
    "run_design_loop",
]


def _require_subset(sim_grid: HyperGrid, eval_grid: HyperGrid) -> None:
    """Raise GridError naming the first simulation point off the evaluation grid."""
    sim, ev = sim_grid.points, eval_grid.points
    if sim.shape[1] != ev.shape[1]:
        raise GridError("simulation and evaluation grids differ in dimension")
    hits = np.all(np.abs(ev[None] - sim[:, None]) <= 1e-12, axis=2)
    found = hits.any(axis=1)
    if not found.all():
        i = int(np.argmin(found))
        raise GridError(
            f"simulation point {i} is not on the evaluation grid; the "
            "reweighting identities need the simulation grid to be a subset"
        )


def _eval_grid_matrix(functional: FunctionalEstimate, eval_grid: HyperGrid):
    """(a, k, F, u): a fit reweighted onto a finer evaluation grid.

    The fitted curve supplies b, each cached sample's kernel summands at
    the evaluation columns, and u = c'b, its values there.  Dividing b in
    place by its row sums r gives the normalized weights a (the
    simulation columns are among b's, so every row sums to at least 1),
    and k = c r is each sample's mass, so u = a'k.  The expectation under
    the local density of point m weights sample s by k_s a_sm / u_m, and
    F_mj = sum_s k_s a_sm a_sj / u_m is one symmetric product Y'Y,
    Y = diag(sqrt(k)) a, scaled by 1/u: row-stochastic and reversible
    with respect to u, so u'F = u' holds to rounding, with no new
    sampling, log-weights or stationary solve.  Beside the (S, M)
    weights a, only Y is held while F is formed.
    """
    _require_subset(functional.emus.grid, eval_grid)
    with np.errstate(over="ignore"):  # an overflowing weight makes u infinite
        b = functional._ratio_matrix(eval_grid.points)
    u_eval = functional._curve(b)
    if not np.all((u_eval > 0) & (u_eval < np.inf)):
        raise MargridError(
            "the reweighted curve vanishes or overflows at some evaluation "
            "points; the evaluation grid reaches beyond the samples' support"
        )
    r = b.sum(axis=1)
    k = functional._weights * r
    a = np.divide(b, r[:, None], out=b)
    y = a * np.sqrt(k)[:, None]
    # y' y is one symmetric rank-S update (BLAS syrk), exactly symmetric
    F = y.T @ y
    F /= u_eval[:, None]
    return a, k, F, u_eval


def _traces(a: np.ndarray, k: np.ndarray, F: np.ndarray,
            G: np.ndarray) -> np.ndarray:
    """t_m = tr(G' Xi_m G) as E_m[a' H a] - f_m' H f_m, H = G G'."""
    H = G @ G.T
    # the quadratic form a' H a per sample is shared by every point m
    aH = a @ H
    aH *= a
    first = a.T @ (k * aH.sum(axis=1)) / (a.T @ k)
    second = np.sum((F @ H) * F, axis=1)
    return first - second


def trace_weights(a: np.ndarray, k: np.ndarray, F: np.ndarray, u: np.ndarray):
    """Allocation weights w_m proportional to u_m sqrt(t_m) from trace scores.

    G is the group inverse of I - F, formed from u, F's stationary
    vector (:func:`margrid.diagnostics.group_inverse`).  The trace
    t_m = tr(G' Xi_m G) of the weight covariance Xi_m =
    E_m[a a'] - f_m f_m' is evaluated as E_m[a' H a] - f_m' H f_m with
    H = G G', so no M x M x M moment tensor is formed.  ``a`` holds the
    normalized evaluation-grid weights per sample (or quadrature node),
    shape (S, M), and ``k`` the mass of each, shape (S,): the expectation
    under the local density of point m weights sample s by
    k_s a_sm / (a'k)_m, so no (S, M) matrix of local weights is formed.
    Row m of ``F`` is f_m.  Work is O(S M^2).

    Negative trace estimates (rounding far from the samples) are clipped
    to zero; if every trace vanishes the weights degenerate to uniform
    and the flag says so.

    Returns
    -------
    (w, degenerate) : (ndarray (M,), bool)
    """
    traces = np.clip(_traces(a, k, F, group_inverse(F, u)), 0.0, None)
    scores = u * np.sqrt(traces)
    total = scores.sum()
    if total <= 0:
        return np.full(u.size, 1.0 / u.size), True
    return scores / total, False


def optimal_weights(functional: FunctionalEstimate, eval_grid: HyperGrid):
    """Variance-optimal sampling fractions of a fit over an evaluation grid.

    The fit is reweighted onto ``eval_grid``, which must contain the
    simulation grid, and each point is scored by u_m sqrt(tr(G' Xi_m G)),
    G the group inverse of I - F there, through :func:`trace_weights`.
    The reweighted curve values u are F's stationary vector to rounding,
    because F is built reversible with respect to them, so G is formed
    from u with no stationary solve and no clamping.  The evaluation
    grid has no size cap: work grows as S M^2 for S cached samples.

    Returns
    -------
    (w, degenerate) : (ndarray (M,), bool)
    """
    return trace_weights(*_eval_grid_matrix(functional, eval_grid))


def incremental_weights(w_hat: np.ndarray, counts: np.ndarray, budget: int) -> np.ndarray:
    """Next-batch weights given target fractions and effort already spent.

    The target w_hat describes where the TOTAL effort should sit; with
    counts already placed and ``budget`` units to place now, the raw
    next-batch scores are (budget + sum(counts)) w - counts, clipped at
    zero and normalized.  w is the square-root stabilization of w_hat
    (sqrt(w_hat) renormalized to sum 1), which tempers extreme fractions
    estimated early.  The unclipped scores sum to the budget up to
    rounding, so only a budget lost to the rounding of the spent effort
    can leave no positive total, which raises ValueError.

    Returns
    -------
    w_bar : ndarray (M,)
    """
    w_hat = np.asarray(w_hat, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if np.any(w_hat < 0) or not np.isclose(w_hat.sum(), 1.0):
        raise ValueError("w_hat must be a probability vector")
    if budget <= 0:
        raise ValueError("budget must be positive")
    w = np.sqrt(w_hat)
    w = w / w.sum()
    scores = np.clip((budget + counts.sum()) * w - counts, 0.0, None)
    total = scores.sum()
    if total <= 0:
        raise ValueError(
            f"every point is already over-allocated: a budget of {budget} "
            f"is lost to rounding against {counts.sum():g} units already spent"
        )
    return scores / total


def pivotal_sample(expected_counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Integer allocation with the given expectations and exact total.

    ``expected_counts`` must be nonnegative with an integer sum B.
    Integer parts are kept; the fractional parts are resolved by the
    sequential pivotal rule (repeatedly confront two open units and let
    one of them resolve, preserving the pairwise sum and the individual
    expectations), so every unit is included with probability equal to
    its fractional part and the counts always sum to B exactly.  A pair
    whose fractions sum to within 1e-12 of 1 is resolved as summing to
    exactly 1.
    """
    p = np.asarray(expected_counts, dtype=float)
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("expected counts must be finite and nonnegative")
    total = p.sum()
    B = int(round(total))
    if abs(total - B) > 1e-6:
        raise ValueError(f"expected counts must sum to an integer, got {float(total)!r}")
    base = np.floor(p).astype(int)
    frac = p - base
    snap_high = frac > 1.0 - 1e-9
    base[snap_high] += 1
    frac[snap_high] = 0.0
    frac[frac < 1e-9] = 0.0

    chosen = np.zeros(p.size, dtype=bool)
    active = np.nonzero(frac > 0)[0]
    if active.size:
        carry = int(active[0])
        mass = frac[carry]
        for idx in active[1:]:
            idx = int(idx)
            pair = mass + frac[idx]
            # a pair summing to 1 up to rounding takes one fixed branch, so
            # last-bit changes in the input cannot change the allocation
            if abs(pair - 1.0) <= 1e-12:
                pair = 1.0
            if pair <= 1.0:
                if rng.random() * pair < frac[idx]:
                    carry, mass = idx, pair
                else:
                    mass = pair
            else:
                if rng.random() * (2.0 - pair) < 1.0 - frac[idx]:
                    chosen[carry] = True
                    carry, mass = idx, pair - 1.0
                else:
                    chosen[idx] = True
                    mass = pair - 1.0
        if mass > 0.5:
            chosen[carry] = True
    counts = base + chosen
    if counts.sum() != B:
        raise AssertionError("pivotal allocation lost mass; input sums drifted")
    return counts


@dataclass
class DesignState:
    """Cumulative allocation record of a sequential design run."""

    eval_grid: HyperGrid
    samples_per_block: int
    block_counts: np.ndarray
    history: list = field(default_factory=list)
    w_hat: np.ndarray | None = None
    degenerate: bool = False
    #: design rounds whose refit clamped a degenerate stationary solve
    truncated_iterations: list = field(default_factory=list)

    @property
    def draw_counts(self) -> np.ndarray:
        return self.block_counts * self.samples_per_block

    @property
    def total_draws(self) -> int:
        return int(self.draw_counts.sum())


def _even_indices(n: int, k: int) -> np.ndarray:
    """k evenly spread indices into n points; distinct for k <= n, spaced >= 1."""
    return np.round(np.linspace(0, n - 1, k)).astype(int)


def _bootstrap_allocation(M: int, blocks: int) -> np.ndarray:
    """Evenly spread first-iteration allocation over the evaluation grid."""
    base, rem = divmod(int(blocks), M)
    alloc = np.full(M, base, dtype=int)
    alloc[_even_indices(M, rem)] += 1
    return alloc


def run_design_loop(model: Model, eval_grid: HyperGrid, iterations: int,
                    blocks_per_iteration: int, samples_per_block: int,
                    master_seed: int):
    """Alternate estimation and allocation for a fixed number of rounds.

    Each iteration allocates ``blocks_per_iteration`` blocks over the
    evaluation grid (every block buys ``samples_per_block`` local
    draws), draws them, refits, and re-scores.  The first iteration has
    nothing to score and spreads its blocks uniformly over the grid.
    Draw streams are keyed by (iteration, point), the pivotal stream by
    (iteration,), all under ``master_seed``.  Refits clamp a degenerate
    stationary solve, since later rounds add overlap; the rounds whose
    fit was clamped are listed in ``state.truncated_iterations``.

    Returns
    -------
    (state, functional) : (DesignState, FunctionalEstimate)
        The allocation record and the fit after the final iteration.

    Raises
    ------
    ValueError
        If ``iterations`` is below 1: there would be no fit to return.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    M = len(eval_grid)
    state = DesignState(
        eval_grid=eval_grid,
        samples_per_block=int(samples_per_block),
        block_counts=np.zeros(M, dtype=int),
    )
    stash = [[] for _ in range(M)]  # the draws of each point, round by round
    functional = None
    for it in range(int(iterations)):
        try:
            if it == 0:
                sampler = model.sampler(eval_grid)  # bound once, for every round
                alloc = _bootstrap_allocation(M, blocks_per_iteration)
                w_used = np.full(M, 1.0 / M)
            else:
                w_hat, degenerate = optimal_weights(functional, eval_grid)
                state.w_hat, state.degenerate = w_hat, degenerate
                w_bar = incremental_weights(w_hat, state.block_counts, blocks_per_iteration)
                alloc = pivotal_sample(
                    blocks_per_iteration * w_bar, child_rng(master_seed, it)
                )
                w_used = w_hat
            for m in np.nonzero(alloc)[0]:
                rng = child_rng(master_seed, it, int(m))
                stash[m].append(sampler.draw(m, rng, int(alloc[m]) * samples_per_block))
            state.block_counts = state.block_counts + alloc
            state.history.append({"blocks": alloc, "weights": w_used})

            occupied = np.nonzero(state.block_counts)[0]
            sim_grid = HyperGrid(
                domain=eval_grid.domain,
                points=eval_grid.points[occupied],
                scale=eval_grid.scale,
            )
            # unvisited points stash nothing, so this is grid order over occupied
            thetas = np.concatenate([d for drawn in stash for d in drawn], axis=0)
            bank = SampleBank(grid=sim_grid, thetas=thetas,
                              counts=state.draw_counts[occupied])
            emus = fit_emus(bank, model, on_degenerate="truncate")
            if emus.truncated:
                state.truncated_iterations.append(it)
            functional = FunctionalEstimate(emus, model)
        except MargridError as exc:
            raise type(exc)(f"design iteration {it}: {exc}") from exc
    return state, functional
