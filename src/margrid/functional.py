"""Whole-curve estimation: the marginal as a function of the hyperparameter.

The same cached samples that produced the grid values extend the
estimate to arbitrary hyperparameter values.  For any lam in the domain
the curve is one product of per-sample weights and kernel summands,

    u(lam) = sum_s (u_i / N_i) exp( log psi_lam(theta_s) + log p(lam) - lse_s ),

with draw s taken at grid point i and lse_s its cached log-sum-exp over
the simulation columns.  Evaluating at a simulation point reproduces the
grid value (the kernel column coincides with the transition column); the
hyperparameter gradient (differentiating through the exponential) and
the ratio estimators of posterior expectations apply the same product to
other summands.

A curve is reduced tile by tile: ``models.log_weight_tiles`` yields the
log-weights, already shifted by each draw's lse_s, in column tiles
(cache-sized tiles of each of the model's factor groups, one tile of all
columns for a model without factors), and each tile is turned into
kernel weights B by one ``exp`` in place, reduced into the values,
gradients or expectation sums of its columns, and dropped.  Every
reduction is one matrix-vector product of a per-draw row and B: the
values c @ B, the phi-weighted values (c * phi) @ B, and for the
gradients, whose per-draw summands G are affine in per-draw statistics
(G = sum_k dstats[k] dcoefs[k]), the moments (c * dstats[k]) @ B that
the coefficients combine, as in Monte Carlo maximum likelihood (Geyer
and Thompson 1992).  No (samples, points) array outlives its tile, and
no gradient array of that size is formed at all, so a tile stays in
cache through all of its passes.  Callers that need the whole kernel
matrix (the design loop's evaluation-grid extension, the per-point
variances) read it from ``_ratio_matrix``.
Profiles and the argmax over an evaluation grid are reductions of curve
values already computed, so one curve serves all of them.
"""

from __future__ import annotations

import numpy as np

from .emus import EmusEstimate
from .errors import DegenerateWeightError
from .grids import HyperGrid, trapezoid_weights
from .models import Model, log_weight_tiles

__all__ = ["FunctionalEstimate", "argmax_on", "profile"]


class FunctionalEstimate:
    """Curve, gradient, and expectation estimators built on a fitted grid.

    Parameters
    ----------
    emus : EmusEstimate
    model : Model
        The model that produced the bank (needed to evaluate new
        log-weights at off-grid hyperparameter values).
    """

    def __init__(self, emus: EmusEstimate, model: Model):
        self.emus = emus
        self.model = model
        # c_s = u_i / N_i for every draw s at grid point i
        self._weights = np.repeat(emus.stationary / emus.counts, emus.counts)

    # -- kernel machinery -------------------------------------------------

    def _query_points(self, points) -> np.ndarray:
        """Values as an (M, p) array; flat input holds consecutive p-vectors."""
        points = np.asarray(points, dtype=float)
        dim = self.emus.grid.dim
        wrong_width = points.ndim == 2 and points.shape[1] != dim
        if points.ndim > 2 or wrong_width or points.size % dim:
            raise ValueError(f"points of shape {points.shape} do not fit grid dimension {dim}")
        return points.reshape(-1, dim)

    def _ratio_matrix(self, points) -> np.ndarray:
        """Kernel weights for many values at once, shape (samples, M)."""
        points = self._query_points(points)
        ratios = np.ascontiguousarray(
            self.model.log_weight_matrix(self.emus.bank.thetas, points), dtype=float
        )
        ratios -= self.emus.lse[:, None]
        return np.exp(ratios, out=ratios)

    def _curve(self, summands) -> np.ndarray:
        """The one product c @ summands, c_s = u_i / N_i: every curve is this,
        and the gradient moments and phi-weighted values are the same
        product with c times a per-draw row.

        It is a BLAS matrix-vector product, whose rounding depends on the
        width of ``summands``: OpenBLAS adds the columns past the last
        multiple of 4 in another order, which moves a value by a few units
        in the last place (2e-15 to 4.3e-15 relative measured at widths 1,
        2, 3 and 7).  So a GP curve value, reduced in the tiles of its
        length scale's group, may differ in its last bits with how many
        points share that group.  Within a group, tiles start at multiples
        of 16 columns and are at least 16 wide (or the whole group), so
        every column keeps the lane it has in one wide product of its group
        on one BLAS thread, and a tiled curve is the bits of the untiled
        one; a model without factors is reduced in one tile and sees only
        the point count.  A threaded BLAS may split a wide product between
        threads, which moves its last bits with the thread count (an
        untiled 33-point toy curve of 16384 draws, OpenBLAS 0.3.31 on a
        2-vCPU x86-64 host: up to 9.1e-15 relative between 1 and 2
        threads), while the toy tiles measured the same bits on 1 to 4
        threads.
        """
        return self._weights @ summands

    def _reduce(self, points, grads: bool = False, phi_vals=None):
        """Curve values at points, reduced one log-weight tile at a time.

        ``log_weight_tiles`` yields each tile already shifted by the draws'
        log-sum-exps, so one ``exp`` in place makes its kernel weights B,
        which reduce into the values c @ B; with ``phi_vals`` into the
        phi-weighted values (c * phi) @ B; and with ``grads``, whose tile
        gradients are G = sum_k dstats[k] dcoefs[k], into the gradients
        c @ (G * B) = sum_k dcoefs[k] * ((c * dstats[k]) @ B), the
        importance-weighted moments of the per-draw statistics.  Every
        reduction is one matrix-vector product of a per-draw row and B
        (see ``_curve`` for how its rounding depends on the tile width).
        Returns (values, gradients or None, weighted values or None).
        """
        points = self._query_points(points)
        c = self._weights
        values = np.empty(len(points))
        gradients = np.empty(points.shape) if grads else None
        weighted = np.empty(len(points)) if phi_vals is not None else None
        c_phi = None if phi_vals is None else c * phi_vals
        tiles = log_weight_tiles(self.model, self.emus.bank.thetas, points,
                                 shift=self.emus.lse, grads=grads)
        for cols, block, grad in tiles:
            np.exp(block, out=block)
            values[cols] = self._curve(block)
            if grads:
                dstats, dcoefs = grad
                moments = np.stack([(c * stat) @ block for stat in dstats])
                gradients[cols] = (moments[:, :, None] * dcoefs).sum(axis=0)
            if c_phi is not None:
                weighted[cols] = c_phi @ block
            # dropped before the next tile is built
            del block, grad
        return values, gradients, weighted

    # -- the curve ---------------------------------------------------------

    def marginal(self, lam) -> float:
        """Estimated u(lam) on the same scale as the grid values."""
        return float(self.marginal_many([lam])[0])

    def marginal_many(self, points) -> np.ndarray:
        """Curve values at many hyperparameter points, shape (M,)."""
        return self._reduce(points)[0]

    def gradient(self, lam) -> np.ndarray:
        """Hyperparameter gradient of the curve at lam, shape (p,).

        Differentiating each kernel summand through the exponential
        multiplies it by the model's gradient of log(psi_lam p(lam)).
        """
        return self.curve_with_gradient(lam)[1][0]

    def curve_with_gradient(self, points):
        """Values and gradients along a set of points: (M,), (M, p).

        Each tile of kernel weights serves both: its columns average into
        the curve values and, against the model's per-draw gradient
        statistics, into the moments that make the gradients.
        """
        values, gradients, _ = self._reduce(points, grads=True)
        return values, gradients

    # -- expectations over the hyperparameter -------------------------------

    def expectation(self, phi, eval_grid: HyperGrid,
                    quad_weights: np.ndarray | None = None) -> float:
        """Posterior expectation of a latent test function phi(theta).

        Quadrature over the evaluation grid turns the kernel identity
        into the ratio estimator

            sum_l u_l sum_m h_l(lam_m) D_m  /  sum_m u(lam_m) D_m

        where h multiplies phi into each kernel summand.  A constant phi
        returns that constant exactly because numerator and denominator
        are then the same finite sum.
        """
        if quad_weights is None:
            quad_weights = trapezoid_weights(eval_grid)
        phi_vals = np.asarray(phi(self.emus.bank.thetas), dtype=float)
        if phi_vals.shape != (self.emus.bank.total,):
            raise ValueError("phi must map the sample array to one value per sample")
        values, _, weighted = self._reduce(eval_grid.points, phi_vals=phi_vals)
        denominator = values @ quad_weights
        numerator = weighted @ quad_weights
        if not denominator > 0:
            raise DegenerateWeightError(
                "quadrature normalizer of the curve is not positive; the "
                "evaluation grid misses the estimate's support"
            )
        return float(numerator / denominator)

    def density(self, eval_grid: HyperGrid,
                quad_weights: np.ndarray | None = None) -> np.ndarray:
        """Curve values normalized by quadrature to integrate to 1."""
        if quad_weights is None:
            quad_weights = trapezoid_weights(eval_grid)
        values = self.marginal_many(eval_grid.points)
        total = values @ quad_weights
        if not total > 0:
            raise DegenerateWeightError("curve integrates to a nonpositive value")
        return values / total


# -- summaries of a curve over an evaluation grid ------------------------------


def profile(values, eval_grid: HyperGrid, axis: int):
    """Profile along one axis: max of the curve values over the other axes.

    ``values`` holds the curve at ``eval_grid.points``, for example from
    ``FunctionalEstimate.marginal_many``.  Returns (axis_values,
    profile_values).  Needs a tensor-product evaluation grid and an axis
    in ``range(eval_grid.dim)``.
    """
    if eval_grid.axes is None:
        raise ValueError("profiles need a tensor-product evaluation grid")
    shape = tuple(a.size for a in eval_grid.axes)
    if not 0 <= axis < len(shape):
        raise ValueError(f"axis {axis} is not an axis of a {len(shape)}-dimensional grid")
    cube = np.asarray(values, dtype=float).reshape(shape)
    other = tuple(d for d in range(len(shape)) if d != axis)
    return eval_grid.axes[axis], cube.max(axis=other) if other else cube


def argmax_on(values, eval_grid: HyperGrid):
    """Highest of the curve values at ``eval_grid.points``.

    Returns (point, value, flat_index); ties resolve to the first
    occurrence, which is the lexicographically smallest point under
    the grid's ordering.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(eval_grid),):
        raise ValueError(
            f"values of shape {values.shape} do not fit a grid of {len(eval_grid)} points")
    idx = int(np.argmax(values))
    return eval_grid.points[idx], float(values[idx]), idx
