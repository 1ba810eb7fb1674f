"""End-to-end command line runs: flags, outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from margrid.cli import main
from margrid.experiments import ExperimentConfig

SMALL_TOY = """
[model]
kind = toy
y = 1.0
q = 2.0
tau = 2.0

[domain]
lower = -2.0
upper = 2.0

[grids]
sim_counts = 4
eval_counts = 8

[sampling]
samples_per_point = 16
master_seed = 21
replicates = 2

[rate]
n_sweep = 16 32 64
l_sweep = 4 8
fixed_n = 8
dense_replicates = 2

[design]
iterations = 2
blocks_per_iteration = 4
samples_per_block = 4
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_TOY)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def test_estimate_subcommand(config_path, tmp_path, capsys):
    out = tmp_path / "est"
    assert run_cli("estimate", "--config", config_path, "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "estimate: wrote" in printed
    assert "manifest.json" in printed
    for name in ("curve.csv", "diagnostics.csv", "errors.csv", "manifest.json"):
        assert (out / name).exists()


@pytest.mark.parametrize("command", ["estimate", "compare", "rate-study", "design"])
def test_reruns_are_byte_identical(config_path, tmp_path, command):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(command, "--config", config_path, "--out", str(a)) == 0
    assert run_cli(command, "--config", config_path, "--out", str(b)) == 0
    names = sorted(p.name for p in a.iterdir())
    assert "manifest.json" in names and len(names) > 1
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_and_replicates_flags(config_path, tmp_path):
    out = tmp_path / "o"
    assert run_cli("estimate", "--config", config_path, "--out", str(out),
                   "--seed", "999", "--replicates", "4") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 999
    assert manifest["replicates"] == 4
    errors = (out / "errors.csv").read_text().splitlines()
    assert len(errors) == 3 + 4
    assert errors[1] == "# master_seed=999"


def test_compare_subcommand(config_path, tmp_path):
    out = tmp_path / "cmp"
    assert run_cli("compare", "--config", config_path, "--out", str(out)) == 0
    rows = (out / "compare.csv").read_text().splitlines()
    assert rows[2] == ("tau,replicate,emus_l1,gibbs_l1,"
                       "gibbs_neg_visits,gibbs_pos_visits")


def test_design_subcommand(config_path, tmp_path):
    out = tmp_path / "des"
    assert run_cli("design", "--config", config_path, "--out", str(out)) == 0
    rows = (out / "design.csv").read_text().splitlines()
    assert rows[0].startswith("# config_sha256=")
    assert rows[2] == "iteration,point,weight,allocated"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "design"
    assert "versions" in manifest and "margrid" in manifest["versions"]


SMALL_GP = """
[model]
kind = gp
n_data = 8
jitter_scale = 1e-9

[domain]
lower = 0.25 0.25
upper = 16 16
scale = log

[grids]
sim_counts = 6 6
eval_counts = 7 7

[sampling]
samples_per_point = 8
master_seed = 5
replicates = 2

[rate]
n_sweep = 8 16
l_sweep = 4 6
fixed_n = 8
dense_replicates = 2
"""

SMALL_DISCRETE = """
[model]
kind = discrete
table = table.csv

[sampling]
samples_per_point = 8
master_seed = 5
replicates = 2

[rate]
n_sweep = 8 16
"""

# a 5x4 psi-table: every theta-atom weighs on every lambda-atom
SMALL_TABLE = "1,2,1,1\n2,1,1,2\n1,1,2,1\n3,1,1,1\n1,2,3,2\n"

ESTIMATE_OUTPUTS = ("curve.csv", "diagnostics.csv", "errors.csv", "manifest.json")


@pytest.mark.parametrize("kind,text,command,outputs", [
    ("gp", SMALL_GP, "estimate", ESTIMATE_OUTPUTS + ("profile_axis0.csv", "profile_axis1.csv")),
    ("gp", SMALL_GP, "compare", ("compare.csv", "manifest.json")),
    ("gp", SMALL_GP, "rate-study", ("rates.csv", "manifest.json")),
    ("gp", SMALL_GP, "design", ("design.csv", "manifest.json")),
    ("discrete", SMALL_DISCRETE, "estimate", ESTIMATE_OUTPUTS),
    ("discrete", SMALL_DISCRETE, "compare", ("compare.csv", "manifest.json")),
    ("discrete", SMALL_DISCRETE, "rate-study", ("rates.csv", "manifest.json")),
    ("discrete", SMALL_DISCRETE, "design", ("design.csv", "manifest.json")),
], ids=["gp-estimate", "gp-compare", "gp-rate-study", "gp-design", "discrete-estimate",
        "discrete-compare", "discrete-rate-study", "discrete-design"])
def test_gp_and_discrete_studies_run_end_to_end(tmp_path, kind, text, command, outputs):
    # every command, twice, under pyproject's warnings-as-errors filter
    (tmp_path / "table.csv").write_text(SMALL_TABLE)
    path = tmp_path / f"{kind}.ini"
    path.write_text(text)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(command, "--config", str(path), "--out", str(a)) == 0
    assert run_cli(command, "--config", str(path), "--out", str(b)) == 0
    assert sorted(p.name for p in a.iterdir()) == sorted(outputs)
    for name in outputs:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert json.loads((a / "manifest.json").read_text())["command"] == command


_SCIPY_FREE_RUN = """
import sys

import numpy as np

import margrid as mg
import margrid.cli

toy = mg.ToyBimodalModel()
grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 8)
fit = mg.fit_emus(mg.draw_sample_bank(toy, grid, 32, master_seed=1), toy)
mg.variance_diagnostics(fit)
fn = mg.FunctionalEstimate(fit, toy)
fn.marginal_many(grid.points)
fn.expectation(lambda t: t * t, grid)
table = mg.DiscreteModel(np.loadtxt(sys.argv[2], delimiter=","))
mg.fit_emus(mg.draw_sample_bank(table, table.grid(), 16, master_seed=1), table)
assert margrid.cli.main(["estimate", "--config", sys.argv[1], "--out", sys.argv[3]]) == 0
loaded = {"scipy.linalg", "scipy.special"} & set(sys.modules)
assert not loaded, sorted(loaded)
mg.GpRegressionModel(*mg.make_synthetic_gp_dataset(n=4)).exact_log_u([1.0, 1.0])
assert "scipy.linalg" in sys.modules
"""


def test_toy_and_discrete_runs_load_no_scipy(tmp_path):
    # only the GP model needs scipy.linalg, which it imports on first use,
    # so a toy or discrete process never pays for importing it
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    (tmp_path / "toy.ini").write_text(SMALL_TOY)
    (tmp_path / "table.csv").write_text(SMALL_TABLE)
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", _SCIPY_FREE_RUN, str(tmp_path / "toy.ini"),
         str(tmp_path / "table.csv"), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_missing_config_file_fails_cleanly(tmp_path, capsys):
    code = run_cli("estimate", "--config", str(tmp_path / "nope.ini"),
                   "--out", str(tmp_path / "x"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


# an integer numpy cannot hold: int64 ends at 2**63 - 1
TOO_BIG = "99999999999999999999"


def test_incomplete_config_fails_cleanly(tmp_path, capsys):
    domain = "[domain]\nlower = -2\nupper = 2\n"
    for text, named in (
        ("[model]\nkind = toy\n", "config needs [domain] lower"),
        ("[model]\nkind = discrete\n", "config needs [model] table"),
        (f"{domain}[grids]\nsim_counts = {TOO_BIG}\n", "[grids] sim_counts"),
    ):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        out = tmp_path / "x"
        code = run_cli("estimate", "--config", str(path), "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {named}")
        assert not list(out.glob("*"))


@pytest.mark.parametrize("kind,key,text,what", [
    ("discrete", "table", "", "psi-table CSV"),
    ("discrete", "table", "# only a comment\n", "psi-table CSV"),
    ("discrete", "table", "psi0,psi1\n", "psi-table CSV"),
    ("gp", "dataset", "", "dataset CSV"),
    ("gp", "dataset", "x0,y\n", "dataset CSV"),
    ("gp", "dataset", "x0,y\n1,2,3\n4,5,6\n", "dataset CSV"),
    ("discrete", "table", "1,2\n3\n", "psi-table CSV"),
], ids=["empty", "comment-only", "header-only", "dataset-empty", "dataset-header-only",
        "dataset-header-mismatch", "ragged-rows"])
def test_empty_table_csv_fails_cleanly(tmp_path, capsys, kind, key, text, what):
    (tmp_path / "input.csv").write_text(text)
    path = tmp_path / "model.ini"
    path.write_text(f"[model]\nkind = {kind}\n{key} = input.csv\n")
    code = run_cli("estimate", "--config", str(path),
                   "--out", str(tmp_path / "x"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert what in err


def test_unknown_subcommand_is_a_usage_error(config_path, tmp_path):
    for argv in (("explode", "--config", config_path, "--out", str(tmp_path)),
                 ("estimate", "--config", config_path, "--out", str(tmp_path),
                  "--threads", "2")):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2


_COUNTS_BELOW_ONE = [
    ("flag-zero", ("--replicates", "0"), (), "--replicates"),
    ("flag-negative", ("--replicates", "-1"), (), "--replicates"),
    ("config-zero", (), (("\nreplicates = 2", "\nreplicates = 0"),), "[sampling] replicates"),
    ("seed-flag-negative", ("--seed", "-1"), (), "--seed"),
    ("seed-negative", (), (("master_seed = 21", "master_seed = -1"),), "[sampling] master_seed"),
    ("seed-word", (), (("master_seed = 21", "master_seed = word"),), "[sampling] master_seed"),
]

# probe_points that no grid point stands for: on a 2-D GP grid (once read
# as the diagonal points (p, p)), and at or below 0 on a log-scale axis
_BAD_PROBES = [
    ("2d", (("kind = toy", "kind = gp\nn_data = 8"),
            ("lower = -2.0\nupper = 2.0", "lower = 0.25 0.25\nupper = 16 16\nscale = log"),
            ("probe_points = -1 1", "probe_points = 1.0 3.0 2.0"))),
    ("log-nonpositive", (("lower = -2.0", "lower = 0.25\nscale = log"),)),
]


@pytest.mark.parametrize("command,override,edits,key", [
    pytest.param(command, override, edits, key, id=f"{command}-{name}")
    for command in ("estimate", "compare", "rate-study", "design")
    for name, override, edits, key in _COUNTS_BELOW_ONE
] + [
    pytest.param("rate-study", (), (("dense_replicates = 2", "dense_replicates = 0"),),
                 "[rate] dense_replicates", id="rate-study-dense-zero"),
] + [
    pytest.param("design", (), ((f"{name} = {was}", f"{name} = {value}"),),
                 f"[design] {name}", id=f"design-{name}-{value}")
    for name, was, value in (("iterations", 2, 0), ("iterations", 2, -1),
                             ("blocks_per_iteration", 4, 0),
                             ("samples_per_block", 4, 0))
] + [
    pytest.param("design", (), (("[design]", f"[design]\nbaseline_points = {value}"),),
                 "[design] baseline_points", id=f"design-baseline_points-{value}")
    for value in (0, -1)
] + [
    pytest.param("design", (), edits, "[design] probe_points", id=f"design-probe-points-{name}")
    for name, edits in _BAD_PROBES
] + [
    # one evaluation point gives every replicate density 1 and a 0/0 reduction
    pytest.param("design", (), (("eval_counts = 8", "eval_counts = 1"),),
                 "[grids] eval_counts", id="design-probe-points-one-eval-point"),
] + [
    # the square-root rule always applies; the old switch is not ignored
    pytest.param("design", (), (("[design]", "[design]\nstabilize = false"),),
                 "[design] stabilize", id="design-stabilize-key"),
] + [
    pytest.param(command, (), (("kind = toy", "kind = discrete"),), "[model] table",
                 id=f"{command}-discrete-without-table")
    for command in ("estimate", "compare", "rate-study", "design")
] + [
    pytest.param(command, (), ((f"{name} = {was}", f"{name} = {TOO_BIG}"),),
                 f"[{section}] {name}", id=f"{command}-{name}-too-big")
    for command, section, name, was in (
        ("estimate", "grids", "sim_counts", 4), ("estimate", "grids", "eval_counts", 8),
        ("compare", "sampling", "samples_per_point", 16),
        ("rate-study", "rate", "n_sweep", "16 32 64"), ("rate-study", "rate", "l_sweep", "4 8"),
        ("rate-study", "rate", "fixed_n", 8), ("design", "design", "samples_per_block", 4))
] + [
    # a value that does not parse names its key, whichever reader fails
    pytest.param(command, (), ((f"{name} = {was}", f"{name} = {value}"),),
                 f"[{section}] {name}", id=f"{command}-{name}-not-a-number")
    for command, section, name, was, value in (
        ("estimate", "domain", "lower", "-2.0", "word"),
        ("estimate", "model", "q", "2.0", "word"),
        ("estimate", "grids", "sim_counts", "4", "word"),
        ("rate-study", "rate", "n_sweep", "16 32 64", "16 word"),
        ("design", "design", "probe_points", "-1 1", "-1 word"))
])
def test_replicate_counts_below_one_fail_cleanly(tmp_path, capsys, command,
                                                 override, edits, key):
    # probe_points make design run its replicate study too
    text = SMALL_TOY.replace("[design]", "[design]\nprobe_points = -1 1")
    for edit in edits:
        text = text.replace(*edit)
    path = tmp_path / "exp.ini"
    path.write_text(text)
    code = run_cli(command, "--config", str(path), "--out", str(tmp_path / "x"),
                   *override)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert key in err
    assert not list((tmp_path / "x").glob("*"))


def test_design_probe_points_on_a_discrete_grid_fail_cleanly(tmp_path, capsys):
    # the probe densities need a tensor-product grid, which a discrete
    # model's atoms are not; the key is named before design.csv is written
    (tmp_path / "table.csv").write_text(SMALL_TABLE)
    path = tmp_path / "discrete.ini"
    path.write_text(SMALL_DISCRETE + "\n[design]\nprobe_points = 1\n")
    out = tmp_path / "x"
    assert run_cli("design", "--config", str(path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [design] probe_points ")
    assert not list(out.glob("*"))


@pytest.mark.parametrize("command", ["estimate", "compare", "rate-study", "design"])
@pytest.mark.parametrize("edit,named", [
    (("iterations = 2", "iteratons = 2"), "[design] iteratons"),
    (("[design]", "[desgin]"), "[desgin]"),
    (("[model]", "[DEFAULT]\nreplicates = 2\n\n[model]"), "[model] replicates"),
], ids=["misspelled-key", "unknown-section", "default-key"])
def test_unknown_config_keys_fail_before_any_file(tmp_path, capsys, command, edit, named):
    # a key no runner reads is an error, not a silent default; a [DEFAULT]
    # key is a key of every section
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_TOY.replace(*edit))
    out = tmp_path / "x"
    assert run_cli(command, "--config", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"error: {named} is not a config ")
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_gp_jitter_scale_must_be_finite_and_nonnegative(tmp_path, capsys, value):
    path = tmp_path / "gp.ini"
    path.write_text(SMALL_GP.replace("jitter_scale = 1e-9", f"jitter_scale = {value}"))
    out = tmp_path / "x"
    assert run_cli("estimate", "--config", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(
        "error: jitter_scale must be finite and nonnegative")
    assert not list(out.glob("*"))


@pytest.mark.parametrize("command", ["estimate", "compare", "rate-study", "design"])
@pytest.mark.parametrize("edit,message", [
    ("n_data = 0", "error: [model] n_data must be at least 1, got 0"),
    ("noise_var = -1", "error: noise_var must be finite and positive"),
    ("noise_var = nan", "error: noise_var must be finite and positive"),
], ids=["n_data-0", "noise_var-negative", "noise_var-nan"])
def test_gp_synthetic_dataset_values_are_checked_before_use(tmp_path, capsys, command,
                                                            edit, message):
    # n_data = 0 once ran estimate to exit 0 on a model with no observations,
    # and noise_var = -1 once warned from the dataset's noise draw
    path = tmp_path / "gp.ini"
    path.write_text(SMALL_GP.replace("n_data = 8", edit))
    out = tmp_path / "x"
    assert run_cli(command, "--config", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not list(out.glob("*"))


@pytest.mark.parametrize("command", ["estimate", "compare", "rate-study", "design"])
@pytest.mark.parametrize("value", ["9", "-1", "0 0"])
def test_discrete_sim_columns_must_be_distinct_table_columns(tmp_path, capsys, command,
                                                             value):
    # 9 once raised IndexError, -1 picked the last column and 0 0 repeated
    # a grid point
    (tmp_path / "table.csv").write_text(SMALL_TABLE)
    path = tmp_path / "discrete.ini"
    path.write_text(SMALL_DISCRETE + f"\n[grids]\nsim_columns = {value}\n")
    out = tmp_path / "x"
    assert run_cli(command, "--config", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(
        "error: [grids] sim_columns must be distinct columns in [0, 4)")
    assert not list(out.glob("*"))


def test_shipped_and_test_configs_load(tmp_path):
    (tmp_path / "table.csv").write_text(SMALL_TABLE)
    for text in (SMALL_TOY, SMALL_GP, SMALL_DISCRETE):
        ExperimentConfig.from_text(text, base_dir=str(tmp_path))
    bench = Path(__file__).resolve().parents[1] / "bench" / "study.ini"
    assert ExperimentConfig.load(bench).get("design", "probe_points") == "-1 1"


def test_design_without_iterations_writes_nothing(tmp_path, capsys):
    # without probe_points this once exited 0 with an empty design.csv
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_TOY.replace("iterations = 2", "iterations = 0"))
    out = tmp_path / "x"
    assert run_cli("design", "--config", str(path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [design] iterations must be at least 1, got 0")
    assert not (out / "design.csv").exists()


@pytest.mark.parametrize("override,edit,key", [
    (("--replicates", "1"), None, "--replicates"),
    ((), ("\nreplicates = 2", "\nreplicates = 1"), "[sampling] replicates"),
], ids=["flag", "config"])
def test_design_variance_study_needs_two_replicates(tmp_path, capsys, override, edit, key):
    text = SMALL_TOY.replace("[design]", "[design]\nprobe_points = -1 1")
    if edit is not None:
        text = text.replace(*edit)
    path = tmp_path / "exp.ini"
    path.write_text(text)
    code = run_cli("design", "--config", str(path), "--out", str(tmp_path / "x"),
                   *override)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be at least 2 with [design] probe_points")


def test_design_variance_study_needs_two_successful_replicates(tmp_path, capsys,
                                                               monkeypatch):
    # The master-seed run succeeds and all but one replicate run fails.
    import margrid.experiments as experiments
    from margrid import ReducibleChainError

    real_loop = experiments.run_design_loop
    calls = []

    def flaky_loop(*args, **kwargs):
        calls.append(None)
        if len(calls) > 2:
            raise ReducibleChainError("no overlap")
        return real_loop(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_design_loop", flaky_loop)
    text = SMALL_TOY.replace("[design]", "[design]\nprobe_points = -1 1")
    path = tmp_path / "exp.ini"
    path.write_text(text)
    out = tmp_path / "x"
    code = run_cli("design", "--config", str(path), "--out", str(out),
                   "--replicates", "3")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the variance study needs at least 2 successful "
                          "replicates per method, got 1 design and 3 uniform of 3")
    assert not (out / "design_variance.csv").exists()
