"""Stationary vector and first-visit probabilities against exact rational
arithmetic on small chains whose entries span twenty orders of magnitude,
and the group inverse of I - F on acceptance criterion 09's reversible
chains.

The chain is the one given by F's off-diagonal entries; its diagonal is
1 minus their row sum, so F's stored diagonal only carries the rounding
of that sum.  The stationary vector and first-visit probabilities depend
on the off-diagonals alone, and the reference is exact, so every entry
must come out to working precision relative to itself, however small it
is.  The group inverse is held to working precision in max norm.
"""

from fractions import Fraction

import numpy as np
import pytest

import margrid as mg


def spread_chain(rng, n):
    """Row-stochastic matrix with off-diagonal entries from 1e-20 to 0.5."""
    F = 10.0 ** rng.uniform(-20.0, np.log10(0.5), size=(n, n))
    np.fill_diagonal(F, 0.0)
    F *= np.minimum(1.0, 0.9 / F.sum(axis=1))[:, None]
    np.fill_diagonal(F, 1.0 - F.sum(axis=1))
    return F


def exact_chain(F):
    """F's off-diagonal entries as exact rationals, diagonal 1 minus their sum."""
    n = F.shape[0]
    P = [[Fraction(float(F[i, j])) for j in range(n)] for i in range(n)]
    for i in range(n):
        P[i][i] = 1 - sum(P[i][j] for j in range(n) if j != i)
    return P


def solve_exact(A, b):
    """Solve A x = b by Gauss-Jordan elimination over the rationals."""
    n = len(b)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c] / M[c][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [M[r][n] / M[r][r] for r in range(n)]


def exact_stationary(P):
    """Solution of u^T (I - P) = 0 scaled to sum len(P)."""
    n = len(P)
    A = [[int(i == j) - P[j][i] for j in range(n)] for i in range(n - 1)]
    A.append([Fraction(1)] * n)
    return solve_exact(A, [Fraction(0)] * (n - 1) + [Fraction(n)])


def exact_hitting(P):
    """Q[i][j] by first-step analysis: P_ij + sum_k P_ik h_k, where h_k is
    the probability of reaching j before i from k."""
    n = len(P)
    Q = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            B = [k for k in range(n) if k not in (i, j)]
            A = [[int(a == c) - P[a][c] for c in B] for a in B]
            h = solve_exact(A, [P[a][j] for a in B]) if B else []
            Q[i][j] = P[i][j] + sum(P[i][k] * hk for k, hk in zip(B, h))
    return Q


def exact_group_inverse(P):
    """(I - P)^# = (I - P + 1 v^T)^{-1} - 1 v^T over the rationals, column
    by column, with v the exact stationary probability vector."""
    n = len(P)
    v = [x / n for x in exact_stationary(P)]
    A = [[int(i == j) - P[i][j] + v[j] for j in range(n)] for i in range(n)]
    cols = [solve_exact(A, [Fraction(int(i == j)) for i in range(n)]) for j in range(n)]
    return [[cols[j][i] - v[j] for j in range(n)] for i in range(n)]


def reversible_chain(rng, n):
    """Criterion 09's chains: a symmetric positive kernel, row-normalized,
    and its stationary probability vector (the normalized row sums)."""
    base = rng.random((n, n)) + 0.1
    kernel = base + base.T
    row = kernel.sum(axis=1)
    return kernel / row[:, None], row / row.sum()


def max_relative_error(approx, exact):
    pairs = zip(np.ravel(approx), np.ravel(np.array(exact, dtype=object)))
    return float(max(abs(Fraction(float(a)) - e) / e for a, e in pairs))


CHAINS = [(n, seed) for n in range(2, 7) for seed in (1, 2, 3)]


@pytest.mark.parametrize("n,seed", CHAINS)
def test_stationary_vector_is_exact_to_working_precision(n, seed):
    F = spread_chain(np.random.default_rng(1000 * n + seed), n)
    u = mg.stationary_vector(F)
    assert max_relative_error(u, exact_stationary(exact_chain(F))) <= 1e-13


@pytest.mark.parametrize("n,seed", CHAINS)
def test_hitting_probabilities_are_exact_to_working_precision(n, seed):
    F = spread_chain(np.random.default_rng(1000 * n + seed), n)
    Q = mg.hitting_probabilities(F)
    assert max_relative_error(Q, exact_hitting(exact_chain(F))) <= 1e-13


def test_exact_group_inverse_has_the_defining_properties():
    P = exact_chain(reversible_chain(np.random.default_rng(3), 4)[0])
    n = len(P)
    A = [[int(i == j) - P[i][j] for j in range(n)] for i in range(n)]
    G = exact_group_inverse(P)

    def mul(X, Y):
        return [[sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    assert mul(mul(A, G), A) == A
    assert mul(mul(G, A), G) == G
    assert mul(A, G) == mul(G, A)


@pytest.mark.parametrize("n", range(3, 13))
def test_group_inverse_is_exact_to_working_precision(n):
    F, v = reversible_chain(np.random.default_rng(2000 + n), n)
    G = mg.group_inverse(F, v)
    exact = exact_group_inverse(exact_chain(F))
    err = max(abs(Fraction(float(G[i, j])) - exact[i][j])
              for i in range(n) for j in range(n))
    assert float(err / max(abs(x) for row in exact for x in row)) <= 1e-13
