"""Hyperparameter domains, tensor-product grids, and quadrature weights.

A grid is a finite ordered set of points in a box-shaped domain.  Regular
grids are built one axis at a time with the convention that an axis of
count n on [a, b] holds the points a + (b - a) * k/n for k = 1..n, i.e.
the upper bound is included and the lower bound is not.  Log-scaled axes
apply the same rule to log a and log b.  Points are ordered
lexicographically by dimension index (the last axis varies fastest).
"""

from __future__ import annotations

import contextlib
import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError

__all__ = [
    "Domain",
    "HyperGrid",
    "make_regular_grid",
    "trapezoid_weights",
    "grid_to_csv",
    "grid_from_csv",
]


@dataclass(frozen=True)
class Domain:
    """A box [lower_1, upper_1] x ... x [lower_p, upper_p]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise GridError("domain bounds must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise GridError("domain bounds must be finite")
        if not np.all(lower < upper):
            raise GridError("each lower bound must be strictly below its upper bound")

    @property
    def dim(self) -> int:
        return self.lower.size


@dataclass(frozen=True)
class HyperGrid:
    """An ordered set of points in a domain.

    Parameters
    ----------
    domain : Domain
    points : ndarray, shape (L, p)
        Grid points, one row each.
    scale : str
        "linear" or "log"; the coordinate scale in which a regular grid
        is evenly spaced.  Explicit point sets use "linear".
    axes : tuple of ndarray, optional
        Per-dimension axis values for tensor-product grids.  None for
        explicit point sets; required by quadrature and profile helpers.
    """

    domain: Domain
    points: np.ndarray
    scale: str = "linear"
    axes: tuple | None = field(default=None)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise GridError("points must be a nonempty (L, p) array")
        if pts.shape[1] != self.domain.dim:
            raise GridError("point dimension does not match the domain")
        if not np.all(np.isfinite(pts)):
            raise GridError("grid points must be finite")
        if self.scale not in ("linear", "log"):
            raise GridError(f"unknown scale {self.scale!r}")
        lo, hi = self.domain.lower, self.domain.upper
        if np.any(pts < lo - 1e-12) or np.any(pts > hi + 1e-12):
            raise GridError("grid points fall outside the domain")
        if self.axes is not None:
            axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
            object.__setattr__(self, "axes", axes)
            counts = tuple(a.size for a in axes)
            if int(np.prod(counts)) != pts.shape[0]:
                raise GridError("axes are inconsistent with the stored points")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def is_regular(self) -> bool:
        return self.axes is not None

    def working_points(self) -> np.ndarray:
        """Points in the grid's working scale (log coordinates for log grids).

        Nearest-neighbor lookups and spacing arguments should use this
        representation so that log grids behave uniformly.
        """
        if self.scale == "log":
            return np.log(self.points)
        return self.points


def make_regular_grid(domain: Domain, counts, scale: str = "linear") -> HyperGrid:
    """Build a tensor-product grid, evenly spaced in the given scale.

    Each axis with count n on [a, b] carries the points
    a + (b - a) * k/n for k = 1..n (computed in log coordinates when
    scale="log").  A count of 1 yields the upper bound alone.

    Examples
    --------
    >>> g = make_regular_grid(Domain(0.0, 1.0), 4)
    >>> g.points.ravel()
    array([0.25, 0.5 , 0.75, 1.  ])
    """
    counts = np.atleast_1d(np.asarray(counts, dtype=int))
    if counts.size == 1 and domain.dim > 1:
        counts = np.full(domain.dim, counts[0])
    if counts.size != domain.dim:
        raise GridError("need one count per dimension")
    if np.any(counts < 1):
        raise GridError("axis counts must be >= 1")
    if scale == "log":
        if np.any(domain.lower <= 0.0):
            raise GridError("log scale requires strictly positive domain bounds")
        lo, hi = np.log(domain.lower), np.log(domain.upper)
    elif scale == "linear":
        lo, hi = domain.lower, domain.upper
    else:
        raise GridError(f"unknown scale {scale!r}")

    axes = []
    for d in range(domain.dim):
        n = counts[d]
        k = np.arange(1, n + 1, dtype=float)
        ax = lo[d] + (hi[d] - lo[d]) * k / n
        if scale == "log":
            ax = np.exp(ax)
        axes.append(ax)
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    return HyperGrid(domain=domain, points=points, scale=scale, axes=tuple(axes))


def _axis_trapezoid(ax: np.ndarray) -> np.ndarray:
    """Trapezoid weights for one axis of stored (linear-scale) values."""
    n = ax.size
    if n == 1:
        return np.ones(1)
    w = np.empty(n)
    w[0] = 0.5 * (ax[1] - ax[0])
    w[-1] = 0.5 * (ax[-1] - ax[-2])
    if n > 2:
        w[1:-1] = 0.5 * (ax[2:] - ax[:-2])
    return w


def trapezoid_weights(grid: HyperGrid) -> np.ndarray:
    """Tensor-product trapezoid quadrature weights over the grid's points.

    Weights integrate over the convex hull of the stored points in
    linear coordinates (so sums approximate plain d-lambda integrals
    even for log-spaced grids), and are exact for integrands that are
    affine along each axis.  A single-point axis contributes weight 1.

    Raises
    ------
    GridError
        If the grid is not a tensor-product grid (no stored axes).
    """
    if grid.axes is None:
        raise GridError(
            "quadrature weights need a tensor-product grid from make_regular_grid"
        )
    per_axis = [_axis_trapezoid(ax) for ax in grid.axes]
    w = per_axis[0]
    for a in per_axis[1:]:
        w = np.multiply.outer(w, a)
    return w.ravel()


@contextlib.contextmanager
def _path_or_buffer(path_or_buf, mode: str):
    """Open a path for the duration of the block, or pass a text buffer through."""
    if isinstance(path_or_buf, (str, bytes, os.PathLike)):
        with open(path_or_buf, mode, newline="") as fh:
            yield fh
    else:
        yield path_or_buf


def _read_csv_table(path_or_buf, what: str):
    """Numeric CSV rows below an optional header, comment lines dropped.

    The first row is the header unless every entry parses as a number.
    Returns ``(header, data)`` with ``header`` None when absent and
    ``data`` a float array with one row per data line.

    Raises
    ------
    ValueError
        Naming ``what`` when the CSV syntax is broken, there is no data
        row, a value is not a number, or the rows and the header differ
        in length.
    """
    with _path_or_buffer(path_or_buf, "r") as fh:
        try:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        except csv.Error as exc:
            raise ValueError(f"{what} is not readable CSV: {exc}") from exc
    if not rows:
        raise ValueError(f"{what} has no rows")
    try:
        [float(v) for v in rows[0]]
        header, body = None, rows
    except ValueError:
        header, body = rows[0], rows[1:]
    if not body:
        raise ValueError(f"{what} has a header but no data rows")
    try:
        data = np.array([[float(v) for v in r] for r in body])
    except ValueError as exc:  # a non-number, or rows of unequal length
        raise ValueError(f"{what}: {exc}") from exc
    if header is not None and len(header) != data.shape[1]:
        raise ValueError(
            f"{what} header names {len(header)} columns but rows have {data.shape[1]}")
    return header, data


def grid_to_csv(grid: HyperGrid, path_or_buf) -> None:
    """Write grid points as CSV with header dim0,...,dim{p-1}."""
    with _path_or_buffer(path_or_buf, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"dim{d}" for d in range(grid.dim)])
        for row in grid.points:
            writer.writerow([repr(float(v)) for v in row])


def grid_from_csv(path_or_buf, domain: Domain | None = None, scale: str = "linear") -> HyperGrid:
    """Read an explicit grid from CSV (columns dim0..dim{p-1}).

    When no domain is given, the bounding box of the points (padded by
    zero width checks) is used.
    """
    header, pts = _read_csv_table(path_or_buf, "grid CSV")
    if header is None or not all(h.startswith("dim") for h in header):
        raise GridError("grid CSV header must be dim0,dim1,...")
    if domain is None:
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        pad = np.where(hi - lo > 0, 0.0, 1.0)
        domain = Domain(lo - pad, hi + pad)
    return HyperGrid(domain=domain, points=pts, scale=scale)
