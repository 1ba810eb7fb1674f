"""End-to-end checks of the package's headline guarantees.

Each test prints one PASS or FAIL line with its wall time through the
reporting hook in conftest; measured margins (slopes, slack factors,
variance reductions) ride along on the same line.  Wall times are
informational only and never asserted.  Everything runs from fixed
seeds, so the whole suite is deterministic.
"""


import numpy as np
from conftest import record_note

import margrid as mg

SEED = 20260814

WIDE_TABLE = np.array(
    [[2, 1, 0], [1, 1, 0], [1, 1, 1], [0, 1, 1], [0, 0, 2]], dtype=float
)


def _toy(tau, q=64.0):
    """The running two-mode location example: y = 1 observed at precision q."""
    return mg.ToyBimodalModel(y=1.0, q=q, tau=tau)


def _gp_model():
    x, y = mg.make_synthetic_gp_dataset()
    return mg.GpRegressionModel(x, y)


def test_criterion_01_exhaustive_enumeration_recovers_exact_values():
    """A bank that enumerates every latent column gives exact answers.

    The transition matrix, the stationary vector, and the interpolated
    curve at a held-out column all match direct enumeration to 1e-12,
    in well under a second.
    """
    model = mg.DiscreteModel(WIDE_TABLE)
    sim_cols = [0.0, 2.0]
    bank = mg.exhaustive_discrete_bank(model, sim_cols)
    est = mg.fit_emus(bank, model)
    F_exact, u_exact = mg.enumerate_discrete_transition(model, sim_cols)
    assert np.max(np.abs(est.transition - F_exact)) < 1e-12
    assert np.max(np.abs(est.stationary - u_exact)) < 1e-12

    # curve value at the held-out middle column, on the fitted scale
    fn = mg.FunctionalEstimate(est, model)
    _, u_target_raw = mg.enumerate_discrete_kernel(model, sim_cols, 1.0)
    z_sim = np.exp([model.exact_log_u(c) for c in sim_cols])
    expected = u_target_raw * len(sim_cols) / z_sim.sum()
    assert abs(fn.marginal(1.0) - expected) < 1e-12

    full = mg.exhaustive_discrete_bank(model)
    est_full = mg.fit_emus(full, model)
    exact_full = mg.exact_stationary(model, est_full.grid)
    assert np.max(np.abs(est_full.stationary - exact_full)) < 1e-12


def test_criterion_02_detailed_balance_and_left_eigenvector():
    """The grid matrix is reversible and u is its left eigenvector.

    u_i F_ij = u_j F_ji and F'u = u hold to 1e-12 both on an enumerable
    model and on a quadrature-computed matrix for the two-mode location
    model over 8 grid points.
    """
    cases = [mg.enumerate_discrete_transition(mg.DiscreteModel(WIDE_TABLE))]
    toy = _toy(2.0)
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 8)
    cases.append(
        mg.quadrature_transition_matrix(toy, grid, np.linspace(-3.0, 3.0, 6001))
    )
    for F, u in cases:
        flow = u[:, None] * F
        assert np.max(np.abs(flow - flow.T)) < 1e-12
        assert np.max(np.abs(F.T @ u - u)) < 1e-12


def test_criterion_03_curve_interpolates_grid_values():
    """The fitted curve reproduces the grid values it was built from.

    |u_hat(lam_l) - u_hat_l| < 1e-12 at every grid point on
    independently seeded stochastic runs of all three bundled models.
    """
    worst = 0.0

    def check(fn, est):
        nonlocal worst
        grid = est.grid
        gap = np.max(np.abs(fn.marginal_many(grid.points) - est.stationary))
        gap = max(gap, abs(fn.marginal(grid.points[0]) - est.stationary[0]))
        worst = max(worst, gap)
        assert gap < 1e-12

    toy = _toy(2.0)
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 16)
    for shift in range(5):
        bank = mg.draw_sample_bank(toy, grid, 24, master_seed=SEED + shift)
        est = mg.fit_emus(bank, toy)
        check(mg.FunctionalEstimate(est, toy), est)

    gp = _gp_model()
    gp_grid = mg.make_regular_grid(
        mg.Domain([0.2, 0.2], [5.0, 5.0]), (5, 5), scale="log"
    )
    bank = mg.draw_sample_bank(gp, gp_grid, 8, master_seed=SEED)
    est = mg.fit_emus(bank, gp)
    check(mg.FunctionalEstimate(est, gp), est)

    disc = mg.DiscreteModel(WIDE_TABLE)
    bank = mg.draw_sample_bank(disc, disc.grid([0, 1, 2]), 32, master_seed=SEED)
    est = mg.fit_emus(bank, disc)
    check(mg.FunctionalEstimate(est, disc), est)

    record_note(
        "test_criterion_03_curve_interpolates_grid_values",
        f"worst gap {worst:.1e}",
    )


def test_criterion_04_error_shrinks_at_the_monte_carlo_rate():
    """The fixed-grid error decays like 1/sqrt(N) in the per-point effort.

    Sixteen grid points on [-2, 2], per-point draws swept over
    2^4..2^10 with 32 replicates each: the log-log slope of the mean
    normalized-L2 error must land in [-0.65, -0.35].
    """
    model = _toy(2.0)
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 16)
    exact = mg.exact_stationary(model, grid)
    sweep = [2**k for k in range(4, 11)]
    mean_err = []
    for i, n in enumerate(sweep):
        errs = [
            mg.normalized_l2_error(
                mg.fit_emus(
                    mg.draw_sample_bank(
                        model, grid, n, master_seed=41, spawn_prefix=(i, r)
                    ),
                    model,
                ).stationary,
                exact,
            )
            for r in range(32)
        ]
        mean_err.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log(sweep), np.log(mean_err), 1)[0])
    record_note(
        "test_criterion_04_error_shrinks_at_the_monte_carlo_rate",
        f"slope {slope:.3f}",
    )
    assert -0.65 < slope < -0.35


def test_criterion_05_grid_estimator_beats_single_chain():
    """Grid reweighting versus one griddy Gibbs chain at matched effort.

    With 16 draws per grid point against 16 * L chain iterations over 32
    replicates, the grid estimator's mean L1 error must be strictly
    lower at tau = 100, and at tau = 1000 the chain must trap (zero
    visits to one sign of the domain) in at least 90% of runs.
    """
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 16)
    n_iter = 16 * len(grid)
    reps = 32

    model = _toy(100.0)
    exact = mg.exact_stationary(model, grid)
    emus_err, gibbs_err = [], []
    for r in range(reps):
        bank = mg.draw_sample_bank(
            model, grid, 16, master_seed=SEED, spawn_prefix=(0, r)
        )
        est = mg.fit_emus(bank, model, on_degenerate="truncate")
        emus_err.append(mg.mean_abs_error(est.stationary, exact))
        trace = mg.run_griddy_gibbs(model, grid, n_iter, mg.child_rng(SEED, 1, r))
        gibbs_err.append(mg.mean_abs_error(trace.stationary_estimate(), exact))
    e_mean = float(np.mean(emus_err))
    g_mean = float(np.mean(gibbs_err))
    assert e_mean < g_mean

    hot = _toy(1000.0)
    signs = np.sign(grid.points[:, 0])
    trapped = 0
    for r in range(reps):
        trace = mg.run_griddy_gibbs(hot, grid, n_iter, mg.child_rng(SEED, 2, r))
        neg = int(trace.visits[signs < 0].sum())
        pos = int(trace.visits[signs > 0].sum())
        trapped += (neg == 0) or (pos == 0)
    frac = trapped / reps
    record_note(
        "test_criterion_05_grid_estimator_beats_single_chain",
        f"L1 {e_mean:.3f} vs {g_mean:.3f}; trapped {frac:.0%}",
    )
    assert frac >= 0.90


def test_criterion_06_gp_surface_matches_closed_form():
    """The sampled GP marginal-likelihood surface tracks the exact one.

    A 9x9 log-spaced simulation grid with 64 draws per point, evaluated
    on a 17x17 grid: the median normalized-L2 error against the closed
    form over 8 replicates must stay below 0.1.
    """
    model = _gp_model()
    domain = mg.Domain([0.1, 0.1], [10.0, 10.0])
    sim = mg.make_regular_grid(domain, (9, 9), scale="log")
    ev = mg.make_regular_grid(domain, (17, 17), scale="log")
    ref = mg.exact_reference(model, ev, sim)
    errs = []
    for r in range(8):
        bank = mg.draw_sample_bank(model, sim, 64, master_seed=SEED, spawn_prefix=(r,))
        fn = mg.FunctionalEstimate(mg.fit_emus(bank, model), model)
        errs.append(mg.normalized_l2_error(fn.marginal_many(ev.points), ref))
    med = float(np.median(errs))
    record_note(
        "test_criterion_06_gp_surface_matches_closed_form",
        f"median normalized L2 {med:.4f}",
    )
    assert med < 0.1


def test_criterion_07_constant_expectation_is_exact():
    """E[phi] with phi identically one returns exactly 1 on every model."""

    def ones(thetas):
        return np.ones(np.asarray(thetas).shape[0])

    toy = _toy(2.0)
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 8)
    bank = mg.draw_sample_bank(toy, grid, 32, master_seed=SEED)
    fn = mg.FunctionalEstimate(mg.fit_emus(bank, toy), toy)
    ev = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 41)
    assert abs(fn.expectation(ones, ev) - 1.0) < 1e-12

    gp = _gp_model()
    gp_grid = mg.make_regular_grid(
        mg.Domain([0.2, 0.2], [5.0, 5.0]), (4, 4), scale="log"
    )
    bank = mg.draw_sample_bank(gp, gp_grid, 8, master_seed=SEED)
    fn = mg.FunctionalEstimate(mg.fit_emus(bank, gp), gp)
    gp_ev = mg.make_regular_grid(
        mg.Domain([0.2, 0.2], [5.0, 5.0]), (7, 7), scale="log"
    )
    assert abs(fn.expectation(ones, gp_ev) - 1.0) < 1e-12

    disc = mg.DiscreteModel(WIDE_TABLE)
    bank = mg.draw_sample_bank(disc, disc.grid([0, 1, 2]), 16, master_seed=SEED)
    fn = mg.FunctionalEstimate(mg.fit_emus(bank, disc), disc)
    # the column grid is scattered, so supply plain uniform quadrature weights
    assert abs(fn.expectation(ones, disc.grid([0, 1, 2]), np.ones(3)) - 1.0) < 1e-12


def test_criterion_08_gradient_matches_finite_differences():
    """Analytic curve gradients agree with central differences.

    Relative error below 1e-6 at 20 random hyperparameter values each
    for the toy and GP models, differencing the same fitted curve that
    supplies the analytic gradient.  The five-point central stencil
    keeps the differencing error itself well under the tolerance even
    where the curve has large high-order derivatives.
    """

    def central_fd(f, lam, k, h):
        """Fourth-order central difference along component k."""
        shifted = []
        for step in (-2.0 * h, -h, h, 2.0 * h):
            p = lam.copy()
            p[k] += step
            shifted.append(f(p))
        return (shifted[0] - 8.0 * shifted[1] + 8.0 * shifted[2] - shifted[3]) / (
            12.0 * h
        )

    rng = np.random.default_rng(SEED)
    worst = 0.0

    toy = _toy(2.0)
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 8)
    bank = mg.draw_sample_bank(toy, grid, 64, master_seed=SEED)
    fn = mg.FunctionalEstimate(mg.fit_emus(bank, toy), toy)
    for lam in rng.uniform(-1.8, 1.8, size=(20, 1)):
        g = float(fn.gradient(lam)[0])
        fd = central_fd(fn.marginal, lam, 0, 1e-3 * max(1.0, abs(lam[0])))
        rel = abs(fd - g) / max(abs(g), abs(fd))
        worst = max(worst, rel)
        assert rel < 1e-6

    gp = _gp_model()
    gp_grid = mg.make_regular_grid(
        mg.Domain([0.1, 0.1], [10.0, 10.0]), (6, 6), scale="log"
    )
    bank = mg.draw_sample_bank(gp, gp_grid, 16, master_seed=SEED)
    gfn = mg.FunctionalEstimate(mg.fit_emus(bank, gp), gp)
    for _ in range(20):
        lam = rng.uniform([0.3, 0.3], [6.0, 6.0])
        g = gfn.gradient(lam)
        fd = np.array(
            [central_fd(gfn.marginal, lam, k, 1e-3 * lam[k]) for k in range(2)]
        )
        rel = np.linalg.norm(fd - g) / max(np.linalg.norm(g), np.linalg.norm(fd))
        worst = max(worst, rel)
        assert rel < 1e-6

    record_note(
        "test_criterion_08_gradient_matches_finite_differences",
        f"worst relative error {worst:.1e}",
    )


def test_criterion_09_group_inverse_norm_bound_holds():
    """The group-inverse norm bound from reversibility and the gap.

    For 100 random reversible chains with 3 to 12 states, the 2-norm of
    the group inverse of (I - F) never exceeds
    sqrt(max(v) max(1/v)) / gap for stationary v.
    """
    rng = np.random.default_rng(SEED)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(3, 13))
        base = rng.random((n, n)) + 0.1
        kernel = base + base.T
        row = kernel.sum(axis=1)
        F = kernel / row[:, None]
        v = row / row.sum()
        G = mg.group_inverse(F, v)
        bound = np.sqrt(v.max() * (1.0 / v).max()) / mg.spectral_gap(F, v)
        violations += np.linalg.norm(G, 2) > bound * (1.0 + 1e-12)
    assert violations == 0


def test_criterion_10_variance_bound_covers_observed_error():
    """The plug-in variance bound dominates the observed squared error.

    Toy model (tau = 2) on 8 grid points with 64 draws each: over 64
    replicates, the empirical squared relative error of every grid value
    stays below twice the bound divided by the total draw count, and the
    worst observed ratio is reported.
    """
    model = _toy(2.0)
    grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 8)
    exact = mg.exact_stationary(model, grid)
    reps = 64
    n_total = 8 * 64
    u_hats, bounds = [], []
    for r in range(reps):
        bank = mg.draw_sample_bank(model, grid, 64, master_seed=SEED, spawn_prefix=(r,))
        est = mg.fit_emus(bank, model)
        u_hats.append(est.stationary)
        bounds.append(mg.variance_diagnostics(est).rel_var_bound)
    emp = np.mean(((np.array(u_hats) - exact) / exact) ** 2, axis=0)
    per_draw = float(np.mean(bounds)) / n_total
    slack = float(np.max(emp) / per_draw)
    record_note(
        "test_criterion_10_variance_bound_covers_observed_error",
        f"max error/bound ratio {slack:.3f} (limit 2.0)",
    )
    assert np.all(emp <= 2.0 * per_draw)


def test_criterion_11_adaptive_allocation_reduces_mode_variance():
    """Sequential allocation beats uniform effort at the curve's modes.

    Two-mode model with q = tau = 32 on [-6, 6]: eight design rounds of
    eight blocks of eight draws against the same 512 draws spread over
    eight uniform grid points, 32 replicates each.  The replicate
    variance of the normalized curve at both modes must drop by at least
    20%.  The exact optimal allocation weights (by quadrature) must put
    under 1% of their mass outside [-2, 2] and peak locally at 0.
    """
    model = mg.ToyBimodalModel(y=1.0, q=32.0, tau=32.0)
    domain = mg.Domain(-6.0, 6.0)
    ev = mg.make_regular_grid(domain, 48)
    quad = mg.trapezoid_weights(ev)
    probes = [int(np.argmin(np.abs(ev.points[:, 0] - m))) for m in (-1.0, 1.0)]
    uniform = mg.make_regular_grid(domain, 8)
    reps = 32

    def density_at_probes(fn):
        vals = fn.marginal_many(ev.points)
        return (vals / (vals @ quad))[probes]

    designed, flat = [], []
    for r in range(reps):
        sub = int(
            np.random.SeedSequence(SEED, spawn_key=(2, r)).generate_state(
                1, np.uint64
            )[0]
        )
        _, fn = mg.run_design_loop(model, ev, 8, 8, 8, master_seed=sub)
        designed.append(density_at_probes(fn))
        bank = mg.draw_sample_bank(
            model, uniform, 64, master_seed=SEED, spawn_prefix=(3, r)
        )
        est = mg.fit_emus(bank, model, on_degenerate="truncate")
        flat.append(density_at_probes(mg.FunctionalEstimate(est, model)))
    var_designed = np.var(np.array(designed), axis=0, ddof=1)
    var_uniform = np.var(np.array(flat), axis=0, ddof=1)
    reduction = 1.0 - var_designed / var_uniform
    record_note(
        "test_criterion_11_adaptive_allocation_reduces_mode_variance",
        f"variance reductions {reduction[0]:.2f}, {reduction[1]:.2f}",
    )
    assert np.all(reduction >= 0.20)

    w, _, _ = mg.quadrature_optimal_weights(model, ev, np.linspace(-4.0, 4.0, 4001))
    outside = float(w[np.abs(ev.points[:, 0]) > 2.0].sum())
    assert outside < 0.01
    center = int(np.argmin(np.abs(ev.points[:, 0])))
    assert w[center] > w[center - 1] and w[center] > w[center + 1]


def test_criterion_12_pivotal_counts_and_inclusion_probabilities():
    """Pivotal draws always spend the budget and match their targets.

    The counts sum to the budget on every draw, and over 1e5 draws the
    per-point selection frequencies stay within three standard errors of
    fractional targets.
    """
    rng = np.random.default_rng(SEED)
    for _ in range(300):
        M = int(rng.integers(2, 13))
        budget = int(rng.integers(1, 10))
        counts = mg.pivotal_sample(budget * rng.dirichlet(np.ones(M)), rng)
        assert int(counts.sum()) == budget

    p = np.array([0.5, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6, 0.1, 0.2, 0.2])
    draws = 100_000
    totals = np.zeros(p.size)
    for _ in range(draws):
        totals += mg.pivotal_sample(p, rng)
    deviation = np.abs(totals / draws - p) / np.sqrt(p * (1.0 - p) / draws)
    record_note(
        "test_criterion_12_pivotal_counts_and_inclusion_probabilities",
        f"max deviation {deviation.max():.2f} s.e.",
    )
    assert np.all(deviation <= 3.0)
