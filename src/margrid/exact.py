"""Exact counterparts of the sampled estimators, by enumeration or quadrature.

Discrete models admit closed-form transition matrices and kernel columns
by direct summation over their atoms.  Scalar-latent models admit the
same objects by one-dimensional quadrature over theta.  Both are built
from the symmetric overlap form

    s_ij = integral of psi_i p_i psi_j p_j / sum_l psi_l p_l

whose row sums recover u on the grid and whose row normalization
recovers the transition matrix, so detailed balance u_i F_ij = u_j F_ji
holds exactly by construction.  These serve as oracles for the Monte
Carlo estimators, and the quadrature (F, u) feed the design scorer for
exact optimal allocation weights.
"""

from __future__ import annotations

import numpy as np

from .design import trace_weights
from .emus import SampleBank
from .grids import HyperGrid
from .models import DiscreteModel, Model

__all__ = [
    "enumerate_discrete_transition",
    "enumerate_discrete_kernel",
    "exhaustive_discrete_bank",
    "quadrature_transition_matrix",
    "quadrature_optimal_weights",
]


def _discrete_parts(model: DiscreteModel, columns):
    columns = np.asarray(
        np.arange(model.atom_values.size) if columns is None else columns, dtype=int
    )
    table = model.psi_table[:, columns] * model.prior[columns][None, :]
    return columns, table


def _overlap_to_transition(overlap: np.ndarray):
    """Row-normalize a symmetric overlap matrix into (F, u), u scaled to sum L."""
    overlap = 0.5 * (overlap + overlap.T)
    rowsums = overlap.sum(axis=1)
    F = overlap / rowsums[:, None]
    u = rowsums * (rowsums.size / rowsums.sum())
    return F, u


def enumerate_discrete_transition(model: DiscreteModel, columns=None):
    """Exact (F, u) over a subset of lambda-atoms by direct summation.

    F_ij sums psi_j(k) p_j / sum_l psi_l(k) p_l against the normalized
    local density of column i over all theta-atoms k; u collects
    z(lam_j) p(lam_j) scaled to sum L.
    """
    _, table = _discrete_parts(model, columns)
    denom = table.sum(axis=1)
    keep = denom > 0
    a = np.zeros_like(table)
    a[keep] = table[keep] / denom[keep, None]
    overlap = table.T @ a  # s_ij = sum_k psi_i p_i a_j(k), symmetric
    return _overlap_to_transition(overlap)


def enumerate_discrete_kernel(model: DiscreteModel, columns, target):
    """Exact kernel column f(lam_i, lam_target) and exact u at the target.

    The denominator runs over the simulation columns only, so the target
    may lie outside them; the returned u_target is on the raw z p scale
    (callers rescale to match whichever normalization their grid values
    use).  Atoms where the simulation columns have no mass contribute
    nothing (the local densities of the simulation columns never reach
    them).
    """
    columns, table = _discrete_parts(model, columns)
    tcol = model.column_of(np.atleast_1d(target))
    target_mass = model.psi_table[:, tcol] * model.prior[tcol]
    denom = table.sum(axis=1)
    keep = denom > 0
    ratio = np.zeros(table.shape[0])
    ratio[keep] = target_mass[keep] / denom[keep]
    z = table.sum(axis=0)
    kernel = (table * ratio[:, None]).sum(axis=0) / z
    return kernel, float(target_mass.sum())


def exhaustive_discrete_bank(model: DiscreteModel, columns=None) -> SampleBank:
    """Sample bank that enumerates each local density exactly.

    Requires integer psi-table entries: column i contributes each atom k
    repeated psi_i(k) times, so sample means over the bank equal exact
    sums against pi_i and the sampled estimators must reproduce the
    enumerated ones to rounding.
    """
    columns = np.asarray(
        np.arange(model.atom_values.size) if columns is None else columns, dtype=int
    )
    table = model.psi_table[:, columns]
    if not np.allclose(table, np.round(table)):
        raise ValueError("exhaustive banks need integer psi-table entries")
    grid = model.grid(columns)
    samples, counts = [], []
    atoms = np.arange(table.shape[0])
    for i in range(columns.size):
        reps = np.round(table[:, i]).astype(int)
        block = np.repeat(atoms, reps)
        samples.append(block)
        counts.append(block.size)
    return SampleBank(grid=grid, samples=samples, counts=np.asarray(counts))


def _quadrature_weight_table(model: Model, grid: HyperGrid, theta_nodes: np.ndarray):
    """Normalized weights a_j(theta_t) and mixture mass on theta nodes.

    Returns (A, mix, quad) where A[t, j] = psi_j p_j / sum_l psi_l p_l,
    mix[t] = sum_l psi_l(theta_t) p_l rescaled by a common constant, and
    quad are trapezoid weights on the theta nodes.
    """
    theta_nodes = np.asarray(theta_nodes, dtype=float).ravel()
    W = np.asarray(model.log_weight_matrix(theta_nodes, grid.points))
    lse = np.logaddexp.reduce(W, axis=1)
    A = np.exp(W - lse[:, None])
    mix = np.exp(lse - lse.max())
    quad = np.empty_like(theta_nodes)
    quad[0] = 0.5 * (theta_nodes[1] - theta_nodes[0])
    quad[-1] = 0.5 * (theta_nodes[-1] - theta_nodes[-2])
    quad[1:-1] = 0.5 * (theta_nodes[2:] - theta_nodes[:-2])
    return A, mix, quad


def quadrature_transition_matrix(model: Model, grid: HyperGrid, theta_nodes):
    """(F, u) for a scalar-latent model by trapezoid quadrature over theta.

    The symmetric overlap integrals are evaluated on the supplied theta
    nodes; the nodes must cover the support of every local density well
    enough for the intended accuracy.
    """
    A, mix, quad = _quadrature_weight_table(model, grid, theta_nodes)
    overlap = A.T @ (A * (mix * quad)[:, None])
    return _overlap_to_transition(overlap)


def quadrature_optimal_weights(model: Model, eval_grid: HyperGrid, theta_nodes):
    """Exact optimal sampling weights on an evaluation grid (scalar theta).

    Computes the grid matrix by quadrature and the allocation rule

        w_m proportional to u_m sqrt( tr( G^T Xi_m G ) ),  G = (I - F)^#,

    through the same scorer as the sampled design loop
    (:func:`margrid.design.trace_weights`, which forms G from u by the
    fundamental-matrix solve) with theta nodes in place of samples, each
    of mass mix * quad.  Returns (w, F, u).
    """
    A, mix, quad = _quadrature_weight_table(model, eval_grid, theta_nodes)
    # node mass: the local density of column m weights node t by k_t A_tm
    k = mix * quad
    F, u = _overlap_to_transition(A.T @ (A * k[:, None]))
    w, _ = trace_weights(A, k, F, u)
    return w, F, u
