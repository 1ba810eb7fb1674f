"""Baseline: griddy Gibbs sampling over the simulation grid.

The griddy Gibbs sampler alternates one exact draw from the local
density at the current grid value with a categorical redraw of the grid
value given the latent state, weights proportional to psi_l(theta) p_l
over the grid.  Post-burn-in visit frequencies, scaled to sum L,
estimate the same grid values as the reweighting estimator but are
subject to mixing failure when the local densities are concentrated:
moves between well-separated modes require intermediate latent states
that the sampler never visits.

Replicate chains run side by side through :func:`run_griddy_chains`,
all on one generator.  Per iteration their local draws come from one
``draw_rows(states, rng)`` call on the grid's sampler
(``Model.sampler``); the toy and discrete samplers batch the rows.  A
one-row call consumes the generator as the sampler's ``draw`` does, so
one chain's visits are those of the plain per-iteration loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightError
from .grids import HyperGrid
from .models import Model

__all__ = ["GibbsTrace", "run_griddy_chains"]


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


def run_griddy_chains(model: Model, grid: HyperGrid, n_iter: int,
                      rng: np.random.Generator, n_chains: int, burn_in: int = 0,
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

    The R = ``n_chains`` chains share ``rng``: per iteration, one batched
    local draw, one (R, L) log-weight matrix, one (R, L) Gumbel draw and
    one row-wise argmax for all of them.  The chains are independent,
    since no chain's move reads another's draws; one chain consumes
    ``rng`` as the plain per-iteration loop does (one local draw, then L
    Gumbel variates).
    """
    L = len(grid)
    if not 0 <= burn_in < n_iter:
        raise ValueError("need 0 <= burn_in < n_iter")
    start = L // 2 if init_state is None else int(init_state)
    if not 0 <= start < L:
        raise ValueError("init_state outside the grid")
    if n_chains < 1:
        raise ValueError("need at least one chain")
    points = grid.points
    sampler = model.sampler(grid)
    states = np.full(n_chains, start)
    chains = np.arange(n_chains)
    visits = np.zeros((n_chains, L), dtype=int)
    for t in range(n_iter):
        thetas = sampler.draw_rows(states, rng)
        logw = np.ascontiguousarray(model.log_weight_matrix(thetas, points), dtype=float)
        dead = np.flatnonzero(~np.isfinite(logw).any(axis=1))
        if dead.size:
            raise DegenerateWeightError(
                f"iteration {t}, chain {dead[0]}: the latent draw has zero "
                "weight against every grid value"
            )
        states = np.argmax(logw + rng.gumbel(size=(n_chains, L)), axis=1)
        if t >= burn_in:
            visits[chains, states] += 1
    return [GibbsTrace(visits=v, n_iter=n_iter, burn_in=burn_in, init_state=start)
            for v in visits]
