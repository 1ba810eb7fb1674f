"""Baselines: griddy Gibbs sampling and nearest-neighbor extrapolation.

The griddy Gibbs sampler alternates one exact draw from the local
density at the current grid value with a categorical redraw of the grid
value given the latent state, weights proportional to psi_l(theta) p_l
over the grid.  Post-burn-in visit frequencies, scaled to sum L,
estimate the same grid values as the reweighting estimator but are
subject to mixing failure when the local densities are concentrated:
moves between well-separated modes require intermediate latent states
that the sampler never visits.

Replicate chains run in lockstep through :func:`run_griddy_chains`, each
on its own generator.  Its local draws go through the model's
``sample_local_many(points, rngs)``, an optional override of a loop over
``sample_local`` that must consume each generator exactly as that loop
does; the toy and discrete models batch it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightError
from .grids import HyperGrid
from .models import Model

__all__ = ["GibbsTrace", "run_griddy_gibbs", "run_griddy_chains",
           "nearest_neighbor_extrapolate"]


@dataclass
class GibbsTrace:
    """Visit counts and run settings of one griddy Gibbs chain."""

    visits: np.ndarray
    n_iter: int
    burn_in: int
    init_state: int

    @property
    def kept(self) -> int:
        return self.n_iter - self.burn_in

    def stationary_estimate(self) -> np.ndarray:
        """Visit frequencies scaled to sum L (the estimator's convention)."""
        if self.kept <= 0:
            raise ValueError("no post-burn-in iterations were kept")
        return self.visits * (self.visits.size / self.kept)


def run_griddy_gibbs(model: Model, grid: HyperGrid, n_iter: int,
                     rng: np.random.Generator, burn_in: int = 0,
                     init_state: int | None = None) -> GibbsTrace:
    """One griddy Gibbs chain: the one-chain case of :func:`run_griddy_chains`."""
    return run_griddy_chains(model, grid, n_iter, [rng], burn_in=burn_in,
                             init_state=init_state)[0]


def run_griddy_chains(model: Model, grid: HyperGrid, n_iter: int, rngs,
                      burn_in: int = 0,
                      init_state: int | None = None) -> list[GibbsTrace]:
    """Alternate local draws and categorical grid moves; count visits.

    Each iteration draws theta from the local density at the current
    grid point, then redraws the grid point with log-weights
    log(psi_l(theta) p_l) via the Gumbel-max rule.  States reached after
    the first ``burn_in`` iterations are counted, so the kept effort is
    n_iter - burn_in latent draws (burn_in defaults to 0 to keep effort
    comparisons exact).  Every chain starts at the grid midpoint state
    unless ``init_state`` says otherwise; the start is recorded as the
    trace's ``init_state``.

    Chain r runs on ``rngs[r]`` alone.  The chains advance in lockstep,
    one batched local draw, one (R, L) log-weight matrix and one row-wise
    argmax per iteration for all of them, while each generator is
    consumed in the order a lone chain consumes it (one local draw, then
    L Gumbel variates), so every chain's visits are those it would have
    on its own.
    """
    L = len(grid)
    if not 0 <= burn_in < n_iter:
        raise ValueError("need 0 <= burn_in < n_iter")
    start = L // 2 if init_state is None else int(init_state)
    if not 0 <= start < L:
        raise ValueError("init_state outside the grid")
    if len(rngs) == 0:
        raise ValueError("need at least one chain generator")
    points = grid.points
    states = np.full(len(rngs), start)
    chains = np.arange(len(rngs))
    visits = np.zeros((len(rngs), L), dtype=int)
    noise = np.empty((len(rngs), L))
    for t in range(n_iter):
        thetas = model.sample_local_many(points[states], rngs)
        logw = np.ascontiguousarray(model.log_weight_matrix(thetas, points), dtype=float)
        dead = np.flatnonzero(~np.isfinite(logw).any(axis=1))
        if dead.size:
            raise DegenerateWeightError(
                f"iteration {t}, chain {dead[0]}: the latent draw has zero "
                "weight against every grid value"
            )
        for r, g in enumerate(rngs):
            noise[r] = g.gumbel(size=L)
        states = np.argmax(logw + noise, axis=1)
        if t >= burn_in:
            visits[chains, states] += 1
    return [GibbsTrace(visits=v, n_iter=n_iter, burn_in=burn_in, init_state=start)
            for v in visits]


def nearest_neighbor_extrapolate(values: np.ndarray, sim_grid: HyperGrid,
                                 eval_grid: HyperGrid) -> np.ndarray:
    """Piecewise-constant extension of grid values to an evaluation grid.

    Each evaluation point takes the value of the Euclidean-nearest
    simulation point in the grid's working scale (log coordinates for
    log grids); ties resolve to the smallest simulation index.  This is
    the crude baseline against which the kernel-based curve is compared.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(sim_grid),):
        raise ValueError("need one value per simulation point")
    sim = sim_grid.working_points()
    ev = eval_grid.working_points() if eval_grid.scale == sim_grid.scale else None
    if ev is None or sim.shape[1] != eval_grid.dim:
        raise ValueError("simulation and evaluation grids must share scale and dimension")
    d2 = np.sum((ev[:, None, :] - sim[None, :, :]) ** 2, axis=-1)
    return values[np.argmin(d2, axis=1)]
