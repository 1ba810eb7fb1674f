"""
Letting the estimate choose where to sample next
================================================

With a wide hyperparameter domain and concentrated local densities,
uniform sampling effort wastes most of its draws where the marginal
likelihood is negligible.  The sequential design loop spends a small
pilot round, scores every candidate grid point by how much its samples
would shrink the estimator's variance, and allocates the next round by
pivotal sampling from those scores.

Run:  python3 demos/design_loop.py
"""

import numpy as np

import margrid as mg

model = mg.ToyBimodalModel(y=1.0, q=32.0, tau=32.0)
ev = mg.make_regular_grid(mg.Domain(-6.0, 6.0), 48)

# Eight rounds of eight blocks of eight draws: 512 draws total.
state, fn = mg.run_design_loop(
    model, ev, iterations=8, blocks_per_iteration=8,
    samples_per_block=8, master_seed=31,
)

# Where did the effort go?  Print the rounds against the grid, marking
# each allocated block.
print("allocation by round (one column per grid point, left = -6, right = +6):")
for it, entry in enumerate(state.history):
    row = "".join("." if b == 0 else str(min(int(b), 9)) for b in entry["blocks"])
    print(f"  round {it}: {row}")
totals = state.draw_counts
occupied = np.nonzero(totals)[0]
print(f"\n{occupied.size} of {len(ev)} grid points ever sampled; "
      f"draws concentrate near the modes +-1:")
for m in occupied:
    print(f"  lam = {ev.points[m, 0]:+.2f}: {int(totals[m]):4d} draws")

# Compare against the same 512 draws spread uniformly over 8 points,
# repeating both protocols a few times and reading the normalized curve
# at the mode lam = +1.  Designed effort is both closer to the truth
# and steadier run to run.
uniform = mg.make_regular_grid(mg.Domain(-6.0, 6.0), 8)
quad = mg.trapezoid_weights(ev)
probe = int(np.argmin(np.abs(ev.points[:, 0] - 1.0)))


def density_at_mode(estimate):
    vals = estimate.marginal_many(ev.points)
    return float((vals / (vals @ quad))[probe])


designed_runs, uniform_runs = [], []
for r in range(8):
    _, fr = mg.run_design_loop(model, ev, 8, 8, 8, master_seed=31 + 100 * r)
    designed_runs.append(density_at_mode(fr))
    bank = mg.draw_sample_bank(model, uniform, 64, master_seed=31,
                               spawn_prefix=(r,))
    flat = mg.FunctionalEstimate(
        mg.fit_emus(bank, model, on_degenerate="truncate"), model
    )
    uniform_runs.append(density_at_mode(flat))

exact = np.exp(model.exact_log_u(ev.points))
exact /= exact @ quad
print(f"\ndensity at the mode lam = +1 (exact {exact[probe]:.3f}), 8 runs each:")
print(f"  designed: mean {np.mean(designed_runs):.3f}  "
      f"spread {np.std(designed_runs, ddof=1):.3f}")
print(f"  uniform : mean {np.mean(uniform_runs):.3f}  "
      f"spread {np.std(uniform_runs, ddof=1):.3f}")

# The loop's final variance scores, i.e. where it would sample next.
if state.w_hat is not None:
    top = np.argsort(state.w_hat)[-3:][::-1]
    print("\nhighest-scoring points for a further round:")
    for m in top:
        print(f"  lam = {ev.points[m, 0]:+.2f}: weight {state.w_hat[m]:.3f}")
