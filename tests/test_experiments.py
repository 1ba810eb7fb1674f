"""Config plumbing, error metrics, and the experiment runners."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest

import margrid as mg

TOY_TEXT = """
[model]
kind = toy
y = 1.0
q = 2.0
tau = 2.0

[domain]
lower = -2.0
upper = 2.0

[grids]
sim_counts = 6
eval_counts = 12

[sampling]
samples_per_point = 32
master_seed = 11
replicates = 3
"""


# -- configuration -----------------------------------------------------------


def test_config_parses_with_inline_comments():
    cfg = mg.ExperimentConfig.from_text(
        "[model]\nkind = toy  # the closed-form family\n[domain]\n"
        "lower = -1\nupper = 1 ; inline\n[grids]\nsim_counts = 4\n")
    assert cfg.get("model", "kind") == "toy"
    assert cfg.floats("domain", "upper") == [1.0]


def test_config_missing_key_names_section_and_key():
    cfg = mg.ExperimentConfig.from_text("[domain]\nlower = 0\n")
    with pytest.raises(mg.GridError) as err:
        cfg.floats("domain", "upper")
    assert "[domain] upper" in str(err.value)
    assert cfg.ints("grids", "sim_counts", fallback=(5,)) == [5]


def test_config_sha_is_stable_and_text_sensitive():
    a = mg.ExperimentConfig.from_text(TOY_TEXT)
    b = mg.ExperimentConfig.from_text(TOY_TEXT)
    c = mg.ExperimentConfig.from_text(TOY_TEXT + "\n")
    assert a.sha256 == b.sha256
    assert a.sha256 != c.sha256


def test_config_checks_referenced_paths(tmp_path):
    with pytest.raises(FileNotFoundError):
        mg.ExperimentConfig.from_text(
            "[model]\nkind = discrete\ntable = missing.csv\n",
            base_dir=str(tmp_path))
    table = tmp_path / "table.csv"
    table.write_text("psi0,psi1\n1,0\n1,1\n0,1\n")
    cfg = mg.ExperimentConfig.from_text(
        "[model]\nkind = discrete\ntable = table.csv\n", base_dir=str(tmp_path))
    assert cfg.resolve_path("table.csv") == str(table)


def test_config_load_echo_round_trip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(TOY_TEXT)
    cfg = mg.ExperimentConfig.load(path)
    assert cfg.path == str(path)
    echo = cfg.echo()
    assert echo["model"]["kind"] == "toy"
    assert echo["sampling"]["master_seed"] == "11"


def test_build_model_and_grids_from_config():
    cfg = mg.ExperimentConfig.from_text(TOY_TEXT)
    model = mg.build_model(cfg)
    assert isinstance(model, mg.ToyBimodalModel)
    assert model.q == 2.0
    sim, ev = mg.build_grids(cfg, model)
    assert len(sim) == 6 and len(ev) == 12
    assert sim.domain.lower[0] == -2.0


def test_build_grids_discrete_uses_model_atoms(tmp_path):
    table = tmp_path / "t.csv"
    table.write_text("psi0,psi1,psi2\n2,1,0\n1,1,0\n1,1,1\n0,1,1\n0,0,2\n")
    cfg = mg.ExperimentConfig.from_text(
        "[model]\nkind = discrete\ntable = t.csv\n"
        "[grids]\nsim_columns = 0 2\n", base_dir=str(tmp_path))
    model = mg.build_model(cfg)
    sim, ev = mg.build_grids(cfg, model)
    assert sim.points[:, 0].tolist() == [0.0, 2.0]
    assert ev.points[:, 0].tolist() == [0.0, 2.0]


# -- metrics -----------------------------------------------------------------


def test_mean_abs_error_is_scale_invariant():
    u = np.array([2.0, 1.0, 1.0])
    v = np.array([4.0, 2.0, 2.0])
    assert mg.mean_abs_error(u, v) == 0.0
    w = np.array([1.0, 1.0, 2.0])
    # Normalized to sum 3: u -> (1.5, .75, .75), w -> (.75, .75, 1.5).
    assert mg.mean_abs_error(u, w) == pytest.approx((0.75 + 0.0 + 0.75) / 3)
    assert mg.mean_abs_error(10 * u, w) == pytest.approx(mg.mean_abs_error(u, w))


def test_normalized_l2_error_hand_case():
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert mg.normalized_l2_error(u, v) == pytest.approx(math.sqrt(2.0))
    assert mg.normalized_l2_error(u, 5 * u) == 0.0


def test_exact_stationary_matches_closed_form(toy_model, toy_grid):
    u = mg.exact_stationary(toy_model, toy_grid)
    assert u.sum() == pytest.approx(len(toy_grid))
    logs = toy_model.exact_log_u(toy_grid.points)
    ratio = u / np.exp(logs - logs.max())
    np.testing.assert_allclose(ratio, ratio[0])


def test_exact_reference_is_on_the_fit_scale(toy_model, toy_grid):
    ev = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 16)
    ref = mg.exact_reference(toy_model, ev, toy_grid)
    # Restricting to the simulation points recovers exact_stationary.
    on_sim = mg.exact_reference(toy_model, toy_grid, toy_grid)
    np.testing.assert_array_equal(on_sim, mg.exact_stationary(toy_model, toy_grid))
    assert ref.shape == (16,)
    assert np.all(ref > 0)


def test_rank_one_table_has_zero_estimation_error():
    # Columns proportional to each other make every normalized weight a
    # constant, so the estimator is exact at any sample size.
    model = mg.DiscreteModel(np.array([
        [1.0, 2.0],
        [2.0, 4.0],
        [1.0, 2.0],
    ]))
    for n in (2, 8, 64):
        bank = mg.draw_sample_bank(model, model.grid(), n, master_seed=n)
        emus = mg.fit_emus(bank, model)
        err = mg.mean_abs_error(emus.stationary, mg.exact_stationary(model, model.grid()))
        assert err == pytest.approx(0.0, abs=1e-14)


# -- runners ------------------------------------------------------------------


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def test_run_estimate_outputs(tmp_path):
    cfg = mg.ExperimentConfig.from_text(TOY_TEXT)
    out = tmp_path / "est"
    mg.run_estimate(cfg, str(out))
    manifest = read_manifest(out)
    assert manifest["command"] == "estimate"
    assert manifest["master_seed"] == 11
    assert manifest["replicates"] == 3
    assert manifest["config"]["model"]["kind"] == "toy"
    assert set(manifest["outputs"]) >= {"curve.csv", "diagnostics.csv", "errors.csv"}

    curve = (out / "curve.csv").read_text().splitlines()
    assert curve[0].startswith("# config_sha256=")
    assert curve[1] == f"# master_seed=11"
    assert curve[2] == "dim0,u_hat,u_exact"
    assert len(curve) == 3 + 12

    errors = (out / "errors.csv").read_text().splitlines()
    assert errors[2] == "replicate,l1_sim_grid,normalized_l2_eval_grid"
    assert len(errors) == 3 + 3


def test_run_estimate_reruns_are_byte_identical(tmp_path):
    cfg = mg.ExperimentConfig.from_text(TOY_TEXT)
    a, b = tmp_path / "a", tmp_path / "b"
    mg.run_estimate(cfg, str(a))
    mg.run_estimate(cfg, str(b))
    for name in ("curve.csv", "errors.csv", "manifest.json"):
        assert (b / name).read_bytes() == (a / name).read_bytes()


def test_run_estimate_single_draw_points_have_no_bound_term(tmp_path):
    # A point with one draw has no weight variance, so its bound term is
    # unavailable (NaN), like the overall bound, never zero.
    text = TOY_TEXT.replace("samples_per_point = 32",
                            "samples_per_point = 1 32 32 32 32 32")
    out = tmp_path / "one"
    manifest = mg.run_estimate(mg.ExperimentConfig.from_text(text), str(out),
                               replicates=1)
    assert manifest["summary"]["rel_var_bound"] == "nan"
    rows = (out / "diagnostics.csv").read_text().splitlines()
    assert rows[2] == "point,dim0,n_draws,u_hat,bound_term"
    terms = [float(row.split(",")[-1]) for row in rows[3:]]
    assert len(terms) == 6
    assert math.isnan(terms[0])
    assert all(t > 0 for t in terms[1:])


def test_run_estimate_seed_override(tmp_path):
    cfg = mg.ExperimentConfig.from_text(TOY_TEXT)
    out = tmp_path / "s"
    mg.run_estimate(cfg, str(out), seed=77, replicates=2)
    manifest = read_manifest(out)
    assert manifest["master_seed"] == 77
    assert manifest["replicates"] == 2


def test_run_estimate_holds_one_fit_at_a_time(tmp_path):
    # 32 points x 256 draws: one fit's (S, L) weight matrix would be 2 MiB,
    # so a run that kept its 6 fits would peak past 12 MiB
    text = (TOY_TEXT.replace("sim_counts = 6", "sim_counts = 32")
            .replace("samples_per_point = 32", "samples_per_point = 256")
            .replace("replicates = 3", "replicates = 6"))
    cfg = mg.ExperimentConfig.from_text(text)
    cache_bytes = 32 * 256 * 32 * 8
    mg.run_estimate(cfg, str(tmp_path / "warm"))
    tracemalloc.start()
    try:
        mg.run_estimate(cfg, str(tmp_path / "est"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * cache_bytes, peak / cache_bytes


class NoClosedFormToy(mg.ToyBimodalModel):
    """The toy model with its closed-form marginal hidden."""

    exact_log_u = mg.Model.exact_log_u


def test_runners_respect_models_without_an_exact_reference(tmp_path, monkeypatch):
    model = NoClosedFormToy()
    assert model.has_exact_log_u is False
    assert mg.ToyBimodalModel().has_exact_log_u is True
    monkeypatch.setattr(mg.experiments, "build_model", lambda config: model)
    cfg = mg.ExperimentConfig.from_text(TOY_TEXT)

    with pytest.raises(mg.GridError):
        mg.run_compare(cfg, str(tmp_path / "cmp"), replicates=1)
    with pytest.raises(mg.GridError):
        mg.run_rate_study(cfg, str(tmp_path / "rate"), replicates=1)

    out = tmp_path / "est"
    manifest = mg.run_estimate(cfg, str(out), replicates=1)
    curve = (out / "curve.csv").read_text().splitlines()
    assert curve[2] == "dim0,u_hat"
    assert len(curve) == 3 + 12
    assert "errors.csv" not in manifest["outputs"]
    assert not (out / "errors.csv").exists()


def test_run_estimate_without_a_reference_fits_replicate_0_only(tmp_path, monkeypatch):
    # with no exact curve only replicate 0 reaches an output, so it is the
    # only replicate drawn and fitted, and the manifest counts that one
    model = NoClosedFormToy()
    monkeypatch.setattr(mg.experiments, "build_model", lambda config: model)
    cfg = mg.ExperimentConfig.from_text(TOY_TEXT)
    mg.run_estimate(cfg, str(tmp_path / "one"), replicates=1)
    fits = []
    fit = mg.experiments.fit_emus

    def counted(bank, model, **kwargs):
        fits.append(bank)
        return fit(bank, model, **kwargs)

    monkeypatch.setattr(mg.experiments, "fit_emus", counted)
    manifest = mg.run_estimate(cfg, str(tmp_path / "four"), replicates=4)
    assert len(fits) == 1
    assert manifest["replicates"] == 1
    assert read_manifest(tmp_path / "four")["replicates"] == 1
    for name in ("curve.csv", "diagnostics.csv"):
        assert (tmp_path / "four" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_run_compare_single_point_grid_agrees(tmp_path):
    # On a one-point grid both estimators are exact after normalization,
    # so every error entry is zero.
    text = TOY_TEXT.replace("sim_counts = 6", "sim_counts = 1").replace(
        "eval_counts = 12", "eval_counts = 1")
    cfg = mg.ExperimentConfig.from_text(text)
    out = tmp_path / "cmp"
    mg.run_compare(cfg, str(out), replicates=2)
    rows = (out / "compare.csv").read_text().splitlines()[3:]
    for row in rows:
        tau, rep, emus_l1, gibbs_l1 = row.split(",")[:4]
        assert float(emus_l1) == 0.0
        assert float(gibbs_l1) == 0.0
    manifest = read_manifest(out)
    effort = manifest["summary"]["effort"]
    assert effort["draws_per_method"] == 32
    assert effort["parity"] is True


def test_run_compare_tau_sweep_and_truncation_reporting(tmp_path):
    text = TOY_TEXT + "\n[compare]\ntau_sweep = 2 1000\nburn_in = 0\n"
    cfg = mg.ExperimentConfig.from_text(text)
    out = tmp_path / "sweep"
    mg.run_compare(cfg, str(out), replicates=2, seed=5)
    manifest = read_manifest(out)
    per_tau = manifest["summary"]["per_tau"]
    assert [entry["tau"] for entry in per_tau] == [2.0, 1000.0]
    for entry in per_tau:
        assert 0.0 <= entry["truncated_fit_fraction"] <= 1.0
        assert entry["emus_mean_l1"] >= 0.0
    rows = (out / "compare.csv").read_text().splitlines()
    assert rows[2] == ("tau,replicate,emus_l1,gibbs_l1,"
                       "gibbs_neg_visits,gibbs_pos_visits")
    assert len(rows) == 3 + 2 * 2


def test_run_compare_lockstep_chains_write_the_one_chain_bytes(tmp_path, monkeypatch):
    # with one replicate, compare.csv from the batched chains must be
    # byte-identical to the one written when the chain runs through the
    # unbatched per-iteration loop on the same stream
    from test_baselines import griddy_gibbs_oracle

    text = TOY_TEXT + "\n[compare]\ntau_sweep = 2 100 1000\nburn_in = 4\n"
    cfg = mg.ExperimentConfig.from_text(text)
    mg.run_compare(cfg, str(tmp_path / "batched"), replicates=1, seed=5)

    calls = []

    def one_by_one(model, grid, n_iter, rng, n_chains, burn_in=0, init_state=None):
        calls.append(n_chains)
        return [griddy_gibbs_oracle(model, grid, n_iter, rng, burn_in, init_state)]

    monkeypatch.setattr(mg.experiments, "run_griddy_chains", one_by_one)
    mg.run_compare(cfg, str(tmp_path / "oracle"), replicates=1, seed=5)
    assert calls == [1, 1, 1]
    batched = (tmp_path / "batched" / "compare.csv").read_bytes()
    assert batched == (tmp_path / "oracle" / "compare.csv").read_bytes()
    assert batched.count(b"\n") == 3 + 3


def test_run_rate_study_shapes_and_dense_trend(tmp_path):
    text = """
[model]
kind = toy

[domain]
lower = -2.0
upper = 2.0

[grids]
sim_counts = 4

[sampling]
master_seed = 20260814
replicates = 3

[rate]
n_sweep = 16 32 64 128
l_sweep = 4 8 16
fixed_n = 8
dense_replicates = 3
"""
    cfg = mg.ExperimentConfig.from_text(text)
    out = tmp_path / "rate"
    mg.run_rate_study(cfg, str(out))
    manifest = read_manifest(out)

    fixed = manifest["summary"]["fixed_grid"]
    assert fixed["slope_last_half"] < 0.0

    rows = (out / "rates.csv").read_text().splitlines()
    assert rows[2] == "regime,sweep_value,n_replicates,error_mean,error_median"
    dense = [row.split(",") for row in rows[3:] if row.startswith("dense")]
    assert [int(r[1]) for r in dense] == [4, 8, 16]
    medians = [float(r[4]) for r in dense]
    # Densifying the grid at fixed per-point effort must help overall;
    # per-step monotonicity of a 3-replicate median is noise-limited, so
    # only the endpoint comparison and the fitted trend are asserted.
    assert medians[-1] < medians[0]
    slope = np.polyfit(np.log([4, 8, 16]), np.log(medians), 1)[0]
    assert slope < 0.0
    assert manifest["summary"]["dense_grid"]["nonincreasing"] in (True, False)


def test_run_design_study_outputs(tmp_path):
    text = """
[model]
kind = toy

[domain]
lower = -2.0
upper = 2.0

[grids]
sim_counts = 8

[sampling]
master_seed = 3

[design]
iterations = 3
blocks_per_iteration = 4
samples_per_block = 8
"""
    cfg = mg.ExperimentConfig.from_text(text)
    out = tmp_path / "design"
    mg.run_design_study(cfg, str(out))
    manifest = read_manifest(out)
    assert manifest["command"] == "design"
    rows = (out / "design.csv").read_text().splitlines()
    assert rows[2] == "iteration,point,weight,allocated"
    assert len(rows) == 3 + 3 * 8
    placed = {}
    for row in rows[3:]:
        it, point, weight, allocated = row.split(",")
        placed[it] = placed.get(it, 0) + int(allocated)
    assert all(v == 4 * 8 for v in placed.values())


def test_design_variance_study_counts_clamped_fits(tmp_path, monkeypatch):
    # Clamp the fit of design replicate 1 and of uniform replicate 0 (the
    # flag a degenerate stationary solve sets); each count reads 1.
    import margrid.experiments as experiments

    real_loop, real_fit = experiments.run_design_loop, experiments.fit_emus
    loops, fits = [], []

    def clamping_loop(*args, **kwargs):
        state, fn = real_loop(*args, **kwargs)
        loops.append(None)
        fn.emus.truncated = len(loops) == 3  # the master run, then replicates 0, 1
        return state, fn

    def clamping_fit(*args, **kwargs):
        emus = real_fit(*args, **kwargs)
        fits.append(None)
        emus.truncated = len(fits) == 1
        return emus

    monkeypatch.setattr(experiments, "run_design_loop", clamping_loop)
    monkeypatch.setattr(experiments, "fit_emus", clamping_fit)
    text = """
[model]
kind = toy

[domain]
lower = -2.0
upper = 2.0

[grids]
sim_counts = 8

[sampling]
master_seed = 3
replicates = 3

[design]
iterations = 2
blocks_per_iteration = 4
samples_per_block = 8
probe_points = -1 1
"""
    out = tmp_path / "design"
    mg.run_design_study(mg.ExperimentConfig.from_text(text), str(out))
    study = read_manifest(out)["summary"]["variance_study"]
    assert (len(loops), len(fits)) == (4, 3)
    assert study["truncated_design_runs"] == 1
    assert study["truncated_uniform_runs"] == 1
    assert study["failed_design_runs"] == study["failed_uniform_runs"] == 0
