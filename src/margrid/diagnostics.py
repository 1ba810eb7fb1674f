"""Variance diagnostics and spectral analysis of the estimated matrix.

The estimator's relative accuracy is controlled by two ingredients that
are both computable from the fitted object: the per-row sampling
variances of the normalized weights, and how strongly the grid chain
connects each pair of points.  The latter enters through first-visit
probabilities (probability that the chain started at i reaches j before
returning to i), through the group inverse of I - F (one
fundamental-matrix solve, for any irreducible matrix) and, for
reversible matrices, through the spectral gap.  The first-visit
probabilities into state i come from one inverse, the fundamental
matrix of the chain killed at i (Kemeny and Snell, Finite Markov
Chains, ch. 3), computed from the chain's off-diagonal entries and
killing masses without a single subtraction (the triplet representation
of Alfa, Xue and Ye, Math. Comp. 71, 2002), so Q is accurate entry by
entry and lies in [0, 1] up to the rounding of F's row sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .emus import EmusEstimate, _row_stochastic, segment_var, stationary_vector
from .errors import NotReversibleError, ReducibleChainError

__all__ = [
    "hitting_probabilities",
    "pointwise_variance_bound",
    "VarianceDiagnostics",
    "variance_diagnostics",
    "group_inverse",
    "spectral_gap",
]

#: largest accepted detailed-balance imbalance max|v_i F_ij - v_j F_ji|
DETAILED_BALANCE_TOL = 1e-8

#: killed systems inverted together in one stacked elimination
KILLED_BATCH = 32


def hitting_probabilities(transition: np.ndarray) -> np.ndarray:
    """First-visit probabilities Q[i, j] for all ordered pairs.

    Q[i, j] is the probability that the chain driven by the matrix,
    started at i, visits j before returning to i.  Column i comes from
    one inverse: N = (I - F_BB)^{-1} over the states B = complement of
    {i} is the Green's function of the chain killed at i, and the visits
    to j, starting from j, before the chain hits i are geometric with
    success probability Q[j, i], so Q[j, i] = 1 / N[j, j].  The diagonal
    is set to 1 by convention.

    N comes from :func:`_killed_inverse`, which reads only the
    off-diagonal entries of F (its diagonal is 1 minus their row sum)
    and never subtracts, so every entry of Q is accurate relative to
    itself.  Cost is O(L^4) time and O(KILLED_BATCH L^2) memory; the
    result does not depend on the batch size.  In a two-state chain Q is
    the off-diagonal of F, zero included.

    Raises
    ------
    ValueError
        If the matrix is not square and row-stochastic (NaN entries
        included), the check :func:`stationary_vector` makes.
    ReducibleChainError
        If some killed system of two or more states is singular (the
        matrix has absorbing subsets that avoid a state).
    """
    F = _row_stochastic(transition)
    n = F.shape[0]
    Q = np.ones((n, n))
    if n == 1:
        return Q
    m = n - 1
    states = np.arange(m)
    # one stack of killed chains and one of their inverses for every batch
    G_stack = np.empty((min(KILLED_BATCH, n), m, m))
    N_stack = np.empty_like(G_stack)
    for lo in range(0, n, KILLED_BATCH):
        cols = np.arange(lo, min(lo + KILLED_BATCH, n))
        G, N = G_stack[:cols.size], N_stack[:cols.size]
        for b, c in enumerate(cols):
            # the chain killed at c: F without row and column c
            G[b, :c, :c], G[b, :c, c:] = F[:c, :c], F[:c, c + 1:]
            G[b, c:, :c], G[b, c:, c:] = F[c + 1:, :c], F[c + 1:, c + 1:]
        G[:, states, states] = 0.0
        # keep[b] lists the states of the chain killed at cols[b]
        keep = states + (states >= cols[:, None])
        _killed_inverse(G, F[keep, cols[:, None]], N)
        Q[keep, cols[:, None]] = 1.0 / np.diagonal(N, axis1=1, axis2=2)
    return Q


def _killed_inverse(G: np.ndarray, kill: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Stacked (I - P)^{-1} of killed chains given as triplets, subtraction-free.

    ``G`` (b, m, m) holds the off-diagonal transition probabilities (zero
    diagonal) and ``kill`` (b, m) the killing mass of each state, so the
    diagonal of I - P is ``kill + G.sum(-1)``.  A recursive 2x2 block
    split: the leading block is a killed chain that also counts exits
    into the trailing block as killing, the Schur complement is the
    trailing block censored on the leading one (off-diagonals
    G22 + G21 N1 G12, killing mass k2 + G21 N1 k1), and every block of
    the inverse is a product of nonnegative matrices.  A lone state that
    is never killed has an infinite inverse; in a larger chain such a
    state raises ReducibleChainError.

    The inverse is written into ``out`` (b, m, m), which is returned: N1
    and N2 recurse into its diagonal blocks, N12 and N21 are written into
    its off-diagonal blocks, and N11 = N1 + N12 G21 N1 is updated in
    place, so no level assembles a new array.
    """
    m = kill.shape[1]
    if m == 1:
        with np.errstate(divide="ignore"):
            return np.divide(1.0, kill[:, :, None], out=out)
    h = m // 2
    G12, G21 = G[:, :h, h:], G[:, h:, :h]
    N1 = _finite(_killed_inverse(G[:, :h, :h], kill[:, :h] + G12.sum(axis=2),
                                 out[:, :h, :h]))
    G21N1 = G21 @ N1
    H = G[:, h:, h:] + G21N1 @ G12
    H[:, np.arange(m - h), np.arange(m - h)] = 0.0
    N2 = _finite(_killed_inverse(H, kill[:, h:] + (G21N1 @ kill[:, :h, None])[:, :, 0],
                                 out[:, h:, h:]))
    N12 = np.matmul(N1 @ G12, N2, out=out[:, :h, h:])
    np.matmul(N2, G21N1, out=out[:, h:, :h])
    N1 += N12 @ G21N1
    return out


def _finite(N: np.ndarray) -> np.ndarray:
    """N unchanged, or ReducibleChainError if a zero pivot made it infinite."""
    if not np.isfinite(N).all():
        raise ReducibleChainError(
            "a killed chain has a singular system; the matrix has absorbing "
            "subsets that avoid a state"
        )
    return N


def _bound_terms(R: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Per-row grid terms L sum_{j != i} R_ij / Q_ij^2 of the variance bound.

    Pairs with zero weight variance contribute nothing.  Rows whose R is
    NaN (single-draw points) are NaN; a zero Q_ij against a positive
    R_ij makes its row infinite.  The infinite entry is the only signal.
    """
    R = np.asarray(R, dtype=float)
    n = R.shape[0]
    off = ~np.eye(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = n * np.where(off & (R > 0), R / Q**2, 0.0).sum(axis=1)
    terms[np.isnan(R).any(axis=1)] = np.nan
    return terms


@dataclass
class VarianceDiagnostics:
    """Bundle of variance-related quantities for a fitted estimate."""

    R: np.ndarray
    Q: np.ndarray
    sampling_fractions: np.ndarray
    #: per-row grid terms L sum_{j != i} R_ij / Q_ij^2 of the bound
    grid_terms: np.ndarray
    rel_var_bound: float
    eq_sample: bool


def variance_diagnostics(estimate: EmusEstimate) -> VarianceDiagnostics:
    """Compute R, Q and the grid variance bound for a fitted estimate.

    The first-visit probabilities are those of the estimate's own
    matrix.  ``eq_sample`` records whether every point got the same
    number of draws; it is recorded, not enforced.
    """
    R = estimate.ratio_variances
    Q = hitting_probabilities(estimate.transition)
    counts = estimate.counts
    w = counts / counts.sum()
    terms = _bound_terms(R, Q)
    return VarianceDiagnostics(
        R=R,
        Q=Q,
        sampling_fractions=w,
        grid_terms=terms,
        rel_var_bound=float(np.sum(terms / w)),
        eq_sample=bool(np.all(counts == counts[0])),
    )


def pointwise_variance_bound(functional, lam, diagnostics: VarianceDiagnostics | None = None) -> float:
    """Bound on the asymptotic relative variance of the curve at one point.

    For an off-grid value the bound combines the grid term with the
    variances r_i(lam) of the kernel weights at lam:

        2 sum_i w_i^{-1} [ L sum_{j != i} R_ij / Q_ij^2
                           + (u_i^2 / u(lam)^2) r_i(lam) ]

    using the fitted values as plug-ins.  At a grid column lam = lam_j
    the kernel variances reduce to the corresponding column of R.
    Dividing by the total sample count N approximates the squared
    relative error of the curve value.
    """
    est = functional.emus
    if diagnostics is None:
        diagnostics = variance_diagnostics(est)
    grid_part = diagnostics.grid_terms
    if not np.all(np.isfinite(grid_part)):
        # NaN for single-draw points, otherwise infinite
        return float(np.sum(grid_part))
    # one kernel column serves both the per-point variances and the curve
    ratios = functional._ratio_matrix([lam])
    r = segment_var(ratios[:, 0].copy(), est.bank.offsets)
    u_lam = float(functional._curve(ratios)[0])
    if not u_lam > 0:
        return float("inf")
    point_part = (est.stationary**2 / u_lam**2) * r
    return float(2.0 * np.sum((grid_part + point_part) / diagnostics.sampling_fractions))


def _chain(transition, stationary):
    """F, checked by ``_row_stochastic``, and its stationary probability
    vector: ``stationary``, by default :func:`stationary_vector` of F, once
    it has one finite positive entry per state, scaled to sum 1."""
    F = _row_stochastic(transition)
    v = stationary_vector(F) if stationary is None else np.asarray(stationary, dtype=float)
    if v.shape != (F.shape[0],):
        raise ValueError(
            f"stationary vector has shape {v.shape}; the matrix has {F.shape[0]} states")
    if not np.isfinite(v).all():
        raise ValueError("stationary vector must be finite")
    if np.any(v <= 0):
        raise ReducibleChainError("stationary vector must be strictly positive")
    return F, v / v.sum()


def group_inverse(transition: np.ndarray, stationary: np.ndarray | None = None) -> np.ndarray:
    """Group inverse A^# of A = I - F for an irreducible row-stochastic F.

    One route for every irreducible matrix, reversible or not: the
    fundamental-matrix identity A^# = (I - F + 1 v^T)^{-1} - 1 v^T, with
    v the stationary probability vector (Kemeny and Snell, Finite Markov
    Chains, ch. 4; Meyer, SIAM Rev. 17, 1975).  A^# is the unique matrix
    with A A^# A = A, A^# A A^# = A^# and A A^# = A^# A, and it satisfies
    v^T A^# = 0 and A^# 1 = 0.  ``stationary`` defaults to
    :func:`stationary_vector` of the matrix; any positive scaling of it
    is accepted.  Cost is one dense O(L^3) solve.

    Raises
    ------
    ValueError
        If the matrix is not square and row-stochastic (NaN entries
        included), or ``stationary`` does not have one finite entry per
        state.
    ReducibleChainError
        If ``stationary`` has a nonpositive entry, or I - F + 1 v^T is
        singular (the matrix is not irreducible).
    """
    F, v = _chain(transition, stationary)
    n = F.shape[0]
    E = np.outer(np.ones(n), v)
    try:
        inv = np.linalg.solve(np.eye(n) - F + E, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise ReducibleChainError(
            "I - F + 1 v^T is singular; the matrix is not irreducible"
        ) from exc
    return inv - E


def spectral_gap(transition: np.ndarray, stationary: np.ndarray | None = None) -> float:
    """1 minus the second-largest eigenvalue magnitude of a reversible F.

    For F in detailed balance with its stationary probability vector v,
    D^{1/2} F D^{-1/2} (D = diag(v)) is symmetric, so F's eigenvalues
    are real and come from one symmetric eigensolve; the largest is the
    unit eigenvalue.  ``stationary`` defaults to
    :func:`stationary_vector` of the matrix.  A one-state chain has gap 1.

    Raises
    ------
    ValueError, ReducibleChainError
        For a matrix or ``stationary`` that :func:`group_inverse` rejects
        before its solve.
    NotReversibleError
        If detailed balance is violated: max|v_i F_ij - v_j F_ji| exceeds
        DETAILED_BALANCE_TOL.
    """
    F, v = _chain(transition, stationary)
    imbalance = np.max(np.abs(v[:, None] * F - (v[:, None] * F).T))
    if imbalance > DETAILED_BALANCE_TOL:
        raise NotReversibleError(
            f"detailed balance violated by {imbalance:.3e} "
            f"(> {DETAILED_BALANCE_TOL:.1e}); "
            "the spectral gap needs a reversible matrix"
        )
    d = np.sqrt(v)
    S = (d[:, None] * F) / d[None, :]
    # ascending: the last eigenvalue is the unit one
    eigvals = np.linalg.eigvalsh(0.5 * (S + S.T))
    if eigvals.size == 1:
        return 1.0
    return float(1.0 - np.max(np.abs(eigvals[:-1])))
