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
"""

from __future__ import annotations

import numpy as np

from .emus import EmusEstimate, segment_mean, segment_var
from .errors import DegenerateWeightError
from .grids import HyperGrid, trapezoid_weights
from .models import Model

__all__ = ["FunctionalEstimate"]


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

    def _ratios(self, lam) -> np.ndarray:
        """Per-sample kernel weights exp(log psi p - lse) at one value."""
        return self._ratio_matrix([lam])[:, 0]

    def _ratio_matrix(self, points) -> np.ndarray:
        """Kernel weights for many values at once, shape (samples, M)."""
        points = self._query_points(points)
        log_priors = np.array([self.model.log_prior(lam) for lam in points])
        ratios = np.ascontiguousarray(
            self.model.log_weight_matrix(self._thetas, points, log_priors), dtype=float
        )
        ratios -= self.emus.cache.lse[:, None]
        return np.exp(ratios, out=ratios)

    def _curve(self, summands) -> np.ndarray:
        """The one product c @ summands, c_s = u_i / N_i: every curve is this."""
        return self._weights @ summands

    def kernel_values(self, lam) -> np.ndarray:
        """Mean kernel weight per grid point, shape (L,).

        At a simulation grid point this is the corresponding transition
        matrix column.
        """
        return segment_mean(self._ratios(lam), self._offsets)

    def kernel_ratio_variances(self, lam) -> np.ndarray:
        """Unbiased per-point variances of the kernel weights at lam."""
        return segment_var(self._ratios(lam), self._offsets)

    # -- the curve ---------------------------------------------------------

    def marginal(self, lam) -> float:
        """Estimated u(lam) on the same scale as the grid values."""
        return float(self.marginal_many([lam])[0])

    def marginal_many(self, points) -> np.ndarray:
        """Curve values at many hyperparameter points, shape (M,)."""
        return self._curve(self._ratio_matrix(points))

    def gradient(self, lam) -> np.ndarray:
        """Hyperparameter gradient of the curve at lam, shape (p,).

        Differentiating each kernel summand through the exponential
        multiplies it by the model's gradient of log(psi_lam p(lam)).
        """
        return self.curve_with_gradient(lam)[1][0]

    def curve_with_gradient(self, points):
        """Values and gradients along a set of points: (M,), (M, p).

        One ratio matrix serves both: its columns average into the curve
        values and, multiplied into the model's (samples, M, p) gradient
        matrix, into the gradients.
        """
        points = self._query_points(points)
        ratios = self._ratio_matrix(points)
        grads = np.ascontiguousarray(
            self.model.grad_log_weight_matrix(self._thetas, points), dtype=float
        )
        grads *= ratios[:, :, None]
        flat = grads.reshape(ratios.shape[0], -1)
        return self._curve(ratios), self._curve(flat).reshape(points.shape)

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
        ratios = self._ratio_matrix(eval_grid.points)
        phi_vals = np.asarray(phi(self._thetas), dtype=float)
        if phi_vals.shape != (ratios.shape[0],):
            raise ValueError("phi must map the sample array to one value per sample")
        denominator = self._curve(ratios) @ quad_weights
        # phi weights the same ratio matrix in place: no second (samples, M) array
        ratios *= phi_vals[:, None]
        numerator = self._curve(ratios) @ quad_weights
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

    # -- summaries over evaluation grids ------------------------------------

    def profile(self, eval_grid: HyperGrid, axis: int):
        """Profile along one axis: max of the curve over the other axes.

        Returns (axis_values, profile_values).  Needs a tensor-product
        evaluation grid.
        """
        if eval_grid.axes is None:
            raise ValueError("profiles need a tensor-product evaluation grid")
        values = self.marginal_many(eval_grid.points)
        shape = tuple(a.size for a in eval_grid.axes)
        cube = values.reshape(shape)
        other = tuple(d for d in range(len(shape)) if d != axis)
        profile = cube.max(axis=other) if other else cube
        return eval_grid.axes[axis], profile

    def argmax_on(self, eval_grid: HyperGrid):
        """Highest curve value over an evaluation grid.

        Returns (point, value, flat_index); ties resolve to the first
        occurrence, which is the lexicographically smallest point under
        the grid's ordering.
        """
        values = self.marginal_many(eval_grid.points)
        idx = int(np.argmax(values))
        return eval_grid.points[idx], float(values[idx]), idx
