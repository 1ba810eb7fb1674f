"""
A Gaussian process marginal likelihood surface over two hyperparameters
=======================================================================

For GP regression with a squared-exponential kernel the marginal
likelihood of the kernel hyperparameters (tau1, tau2) is available in
closed form, so the estimator can be held against the truth over a
whole surface.  We fit from posterior samples on a coarse log-spaced
grid and evaluate on a finer one the samples never saw.

Run:  python3 demos/gp_surface.py
"""

import numpy as np

import margrid as mg

# A small synthetic dataset: a smooth curve observed with noise.
x, y = mg.make_synthetic_gp_dataset(n=16, seed=7)
model = mg.GpRegressionModel(x, y, noise_var=1.0 / 16.0)

# Simulate on a 9x9 log grid, evaluate on a 17x17 one.
domain = mg.Domain([0.1, 0.1], [10.0, 10.0])
sim = mg.make_regular_grid(domain, (9, 9), scale="log")
ev = mg.make_regular_grid(domain, (17, 17), scale="log")

bank = mg.draw_sample_bank(model, sim, 64, master_seed=7)
estimate = mg.fit_emus(bank, model)
fn = mg.FunctionalEstimate(estimate, model)

# Surface accuracy against the closed form, on the evaluation grid.
u_hat = fn.marginal_many(ev.points)
u_ref = mg.exact_reference(model, ev, sim)
err = mg.normalized_l2_error(u_hat, u_ref)
print(f"normalized L2 error over the 17x17 evaluation grid: {err:.4f}")

# Profiles: maximize the surface over one axis to look at the other.
# They, and the maximizer below, reduce the one curve evaluated above.
for axis, name in ((0, "tau1"), (1, "tau2")):
    values, profile = mg.profile(u_hat, ev, axis)
    best = values[np.argmax(profile)]
    print(f"profile over {name}: peak at {best:.3f}")

# The estimated maximizer lands on the same evaluation point as the
# exact surface's.
peak, value, _ = mg.argmax_on(u_hat, ev)
ex_peak = ev.points[np.argmax(u_ref)]
print(f"surface maximum {value:.4f} at (tau1, tau2) = ({peak[0]:.3f}, {peak[1]:.3f})")
print(f"exact maximizer on the same grid:           ({ex_peak[0]:.3f}, {ex_peak[1]:.3f})")

# How wrong would nearest-neighbor extension of the grid values be,
# compared to reweighting the samples properly?
nn = mg.nearest_neighbor_extrapolate(estimate.stationary, sim, ev)
print(f"nearest-neighbor extension error for comparison: "
      f"{mg.normalized_l2_error(nn, u_ref):.4f}")
