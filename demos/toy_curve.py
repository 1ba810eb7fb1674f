"""
Estimating a bimodal marginal likelihood curve from grid samples
================================================================

One observation y = 1 is measured, at precision q, of either +theta or
-theta with equal probability.  The marginal likelihood over the prior
location lam is therefore bimodal around +-1, and it has a closed form,
which makes this model a good first walk through the estimator: draw a
few local samples at each grid value, reweight them into a stochastic
matrix, read the grid marginals off its stationary vector, and then ask
for the curve anywhere in between.

Run:  python3 demos/toy_curve.py
"""

import numpy as np

import margrid as mg

# The model and a 16-point simulation grid on [-2, 2].  Higher tau
# concentrates the local densities and makes the problem harder; tau=16
# already separates the two modes visibly.
model = mg.ToyBimodalModel(y=1.0, q=64.0, tau=16.0)
grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 16)

# 64 independent local draws per grid value, all streams derived from
# one master seed.
bank = mg.draw_sample_bank(model, grid, 64, master_seed=7)
estimate = mg.fit_emus(bank, model)

# The grid values u_hat_l (normalized to sum L) against the closed form.
exact = mg.exact_stationary(model, grid)
print("grid value   u_hat      exact      rel err")
for lam, u_hat, u in zip(grid.points[:, 0], estimate.stationary, exact):
    print(f"{lam:10.2f} {u_hat:10.4f} {u:10.4f} {abs(u_hat - u) / u:10.1%}")

# The same fit also answers off-grid questions.  The curve reproduces
# the grid values exactly and interpolates with the cached weights in
# between; its maximizer should sit near a mode.
fn = mg.FunctionalEstimate(estimate, model)
dense = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 200)
peak, value, _ = mg.argmax_on(fn.marginal_many(dense.points), dense)
print(f"\ncurve maximum {value:.4f} at lam = {peak[0]:.3f} (modes sit near +-1)")

# Expectations of latent functions come from the same samples: E[theta]
# is 0 by symmetry, E[theta^2] is not.
print(f"E[theta]   = {fn.expectation(lambda th: th, dense):+.4f}")
print(f"E[theta^2] = {fn.expectation(lambda th: th**2, dense):+.4f}")

# Pairwise bridge ratios give a cheap consistency check: each matrix
# entry pair estimates a ratio of neighboring marginals without solving
# the eigenproblem.  Pick two neighbors inside the left mode.
i, j = 2, 3
ratio = mg.bridge_ratio(estimate.transition, i, j)
print(f"\nbridge ratio u_{j}/u_{i}: {ratio:.4f}  "
      f"(stationary ratio {estimate.stationary[j] / estimate.stationary[i]:.4f})")
