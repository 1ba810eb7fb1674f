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

A curve is reduced block by block: the model yields its log-weights in
column blocks (``Model.log_weight_blocks``; one block per length scale
for the GP model, one block of all columns by default), and each block
is turned into kernel weights in place, reduced into the values,
gradients or expectation sums of its columns, and dropped.  No
(samples, points) array outlives its block.  Callers that need the whole
kernel matrix (the design loop's evaluation-grid extension, the
per-point variances) read it from ``_ratio_matrix``.  Profiles and the
argmax over an evaluation grid are reductions of curve values already
computed, so one curve serves all of them.
"""

from __future__ import annotations

import numpy as np

from .emus import EmusEstimate
from .errors import DegenerateWeightError
from .grids import HyperGrid, trapezoid_weights
from .models import Model

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
        self._thetas, self._offsets = emus.bank.flattened()
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
            self.model.log_weight_matrix(self._thetas, points), dtype=float
        )
        ratios -= self.emus.cache.lse[:, None]
        return np.exp(ratios, out=ratios)

    def _curve(self, summands) -> np.ndarray:
        """The one product c @ summands, c_s = u_i / N_i: every curve is this.

        It is a BLAS matrix-vector product, whose rounding depends on the
        width of ``summands``: OpenBLAS adds the columns past the last
        multiple of 4 in another order, which moves a value by a few units
        in the last place (2e-15 to 4.3e-15 relative measured at widths 1,
        2, 3 and 7).  So a GP curve value, reduced in the block of its
        length scale, may differ in its last bits with how many points share
        that block; models reduced in one block see only the point count.
        """
        return self._weights @ summands

    def _reduce(self, points, grads: bool = False, phi_vals=None):
        """Curve values at points, reduced one log-weight block at a time.

        Each block of ``model.log_weight_blocks`` becomes its kernel weights
        in place and is reduced into the values c @ B, with ``grads`` into
        the gradients c @ (G * B), and with ``phi_vals`` into the
        phi-weighted values c @ (B * phi); then it is dropped.  Returns
        (values, gradients or None, weighted values or None).
        """
        points = self._query_points(points)
        lse = self.emus.cache.lse[:, None]
        values = np.empty(len(points))
        gradients = np.empty(points.shape) if grads else None
        weighted = np.empty(len(points)) if phi_vals is not None else None
        blocks = self.model.log_weight_blocks(self._thetas, points, grads)
        for cols, block, grad in blocks:
            block = np.ascontiguousarray(block, dtype=float)
            block -= lse
            np.exp(block, out=block)
            values[cols] = self._curve(block)
            if grads:
                grad = np.ascontiguousarray(grad, dtype=float)
                grad *= block[:, :, None]
                gradients[cols] = self._curve(grad.reshape(len(block), -1)).reshape(
                    -1, points.shape[1])
            if phi_vals is not None:
                # phi weights the block in place: no second block-sized array
                block *= phi_vals[:, None]
                weighted[cols] = self._curve(block)
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

        Each block of kernel weights serves both: its columns average into
        the curve values and, multiplied into the model's gradient block,
        into the gradients.
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
        phi_vals = np.asarray(phi(self._thetas), dtype=float)
        if phi_vals.shape != (len(self._thetas),):
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
    profile_values).  Needs a tensor-product evaluation grid.
    """
    if eval_grid.axes is None:
        raise ValueError("profiles need a tensor-product evaluation grid")
    shape = tuple(a.size for a in eval_grid.axes)
    cube = np.asarray(values, dtype=float).reshape(shape)
    other = tuple(d for d in range(len(shape)) if d != axis)
    return eval_grid.axes[axis], cube.max(axis=other) if other else cube


def argmax_on(values, eval_grid: HyperGrid):
    """Highest of the curve values at ``eval_grid.points``.

    Returns (point, value, flat_index); ties resolve to the first
    occurrence, which is the lexicographically smallest point under
    the grid's ordering.
    """
    idx = int(np.argmax(values))
    return eval_grid.points[idx], float(values[idx]), idx
