"""Exception types raised by the estimation routines."""

from __future__ import annotations

__all__ = [
    "MargridError",
    "GridError",
    "ReducibleChainError",
    "NotReversibleError",
    "DegenerateWeightError",
    "GradientUnavailableError",
]


class MargridError(Exception):
    """Base class for errors raised by this package."""


class GridError(MargridError):
    """Invalid grid or domain specification."""


class ReducibleChainError(MargridError):
    """The estimated transition matrix does not have a unique positive
    stationary vector.

    This signals a violation of the grid-irreducibility assumption: every
    grid point must be reachable from every other through chains of
    pairwise-overlapping local densities.  Typical causes are grid spacing
    too wide for the local density width, or too few samples per point.
    """


class NotReversibleError(MargridError):
    """A routine that requires detailed balance (u_i F_ij = u_j F_ji)
    received a matrix that violates it beyond tolerance."""


class DegenerateWeightError(MargridError):
    """A weight vector or normalizing constant that must be positive came
    out zero or negative (all-underflowed weights, empty support, or a
    non-positive quadrature denominator)."""


class GradientUnavailableError(MargridError):
    """The model does not implement hyperparameter gradients."""
