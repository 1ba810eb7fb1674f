"""The benchmark's own tests; not part of the repository's test suite.

    python3 -m pytest bench/test_bench.py -q

The smoke tests run every workload for exactly one op, untraced and
traced, and hold the printed metric names and units to BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracer as tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_op_smoke_run_matches_spec(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    printed = "\n".join(proc.stdout.strip().splitlines()[:-1])
    for name in got:
        assert name in printed


def test_spec_lists_the_runner_metrics():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.per_layer_names()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_perturbed_stationary_vector_fails_interpolation(monkeypatch):
    import margrid as mg
    import workloads

    workload = workloads.ToyDiagnose()
    seed = workloads.op_seed(1, 0)
    failed, _err, _ = workload.check(workload.op(seed, tracing.NullTracer()))
    assert failed == []

    fit = mg.fit_emus

    def perturbed_fit(bank, model, **kwargs):
        est = fit(bank, model, **kwargs)
        j = int(est.stationary.argmax())
        est.stationary[j] *= 1.0 + 1e-9
        return est

    monkeypatch.setattr(workloads.mg, "fit_emus", perturbed_fit)
    failed, _err, _ = workload.check(workload.op(seed, tracing.NullTracer()))
    assert "interpolation" in failed


def test_missing_target_is_absent_not_an_error(monkeypatch):
    targets = tracing.TARGETS + [
        ("emus.no_such_routine", "margrid.emus", "no_such_routine", None),
        ("models.no_such_method", "margrid.models", "Model.no_such_method", None),
        ("gone.module", "margrid.no_such_module", "anything", None),
    ]
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["emus.no_such_routine", "models.no_such_method",
                                 "gone.module"]
    finally:
        tracer.uninstall()


def test_self_time_excludes_children():
    import margrid as mg

    tracer = tracing.Tracer()
    tracer.install()
    try:
        model = mg.ToyBimodalModel(y=1.0, q=64.0, tau=16.0)
        grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), 8)
        with tracer.op_span(0):
            mg.fit_emus(mg.draw_sample_bank(model, grid, 16, 3), model)
        mg.fit_emus(mg.draw_sample_bank(model, grid, 16, 3), model)  # outside any op
    finally:
        tracer.uninstall()
    assert not hasattr(mg.fit_emus, "__wrapped__")
    row = tracer.per_op()[0]
    calls, self_s, total, _ = row["emus.fit_emus"]
    assert calls == 1
    children = row["emus.estimate_transition_matrix"][2]
    assert self_s == pytest.approx(total - children, abs=1e-9)
    assert row["models.sample_local"][0] == 8
    assert set(tracer.per_op()) == {0}


def test_tail_percentile_keeps_ten_ops_beyond():
    value, pct, n = run.tail_percentile([float(i) for i in range(1, 101)])
    assert (value, pct, n) == (90.0, 90, 100)
    value, pct, n = run.tail_percentile([3.0, 1.0, 2.0])
    assert (value, pct, n) == (2.0, 50, 3)


def test_exits_nonzero_without_the_program():
    bare = os.path.join(ROOT, ".bench_out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _bench("--workload", "toy-diagnose", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
