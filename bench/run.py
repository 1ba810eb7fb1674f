"""Benchmark runner: one workload, closed loop, one client.

    python3 bench/run.py --workload toy-diagnose --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and uses ``src/`` directly;
nothing needs building.  Set-up is timed in separate worker processes
(start through ``import margrid``, building the model and grids, and one
discarded warm-up op) and reported as the median of ``SETUP_SAMPLES``.
The last of those workers then runs ops back to back for ``--seconds``.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the wrapped layers are timed and the result carries the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name with its unit, the environment,
and the names of any failed checks.  A missing ``src/margrid`` or a
failing worker exits nonzero without a result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, BENCH_DIR)
from tracer import per_layer_names  # noqa: E402  (stdlib-only module)

WORKLOADS = ("toy-diagnose", "gp-surface", "design-m128", "cli-studies")

#: set-up runs per untraced run; set-up time is their median
SETUP_SAMPLES = 3

#: the whole run must end within this many seconds
DEADLINE_S = 170.0

PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("curve_l2_err", "ratio"),
]

#: printed with every untraced run but not part of the result: the median
#: of 4 to 30 ops moves between the shared host's speed levels from run to
#: run and spreads more than any allowed bound (see NOTES.md)
OP_LATENCY = [("op_s.p50", "s"), ("op_s.tail", "s")]


class BenchError(RuntimeError):
    pass


def tail_percentile(times):
    """Highest percentile with at least ten ops beyond it, floored at the median.

    Returns (value, percentile, n) with nearest-rank percentiles.
    """
    ordered = sorted(times)
    n = len(ordered)
    pct = max(50, math.floor(100.0 * (n - 10) / n)) if n else 50
    rank = max(1, math.ceil(pct / 100.0 * n))
    return ordered[rank - 1], pct, n


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {"nproc": affinity, "cpu": cpu, "python": platform.python_version(),
            **PINNED_THREADS}


class Worker:
    """One workload process and its line protocol."""

    def __init__(self, args, setup_only: bool, deadline: float):
        env = dict(os.environ)
        env.update(PINNED_THREADS)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR]
        if setup_only:
            cmd.append("--setup-only")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
        # a worker still running at the deadline is killed, which ends readline
        self.watchdog = threading.Timer(max(0.0, deadline - self.started), self.proc.kill)
        self.watchdog.start()

    def expect(self, tag: str) -> dict:
        """Wait for the next message, which must carry ``tag``."""
        line = self.proc.stdout.readline()
        if not line.startswith(tag + " "):
            raise BenchError(f"worker ended without {tag} (exit code {self.proc.wait()})")
        return json.loads(line[len(tag) + 1:])

    def close(self) -> None:
        """Wait for the worker to end (killing it if it is still running)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.watchdog.cancel()
        self.proc.stdout.close()


def run(args) -> tuple[dict, list, list]:
    deadline = time.perf_counter() + DEADLINE_S
    setups, probes = [], []
    samples = 1 if args.trace else SETUP_SAMPLES
    result = None
    for i in range(samples):
        measuring = i == samples - 1
        worker = Worker(args, setup_only=not measuring, deadline=deadline)
        try:
            probe = worker.expect("READY")
            setups.append(time.perf_counter() - worker.started)
            if probe["probe_failed"]:
                raise BenchError("warm-up op failed: " + ", ".join(probe["probe_failed"]))
            probes.append(probe)
            if measuring:
                result = worker.expect("RESULT")
            if worker.proc.wait() != 0:
                raise BenchError(f"worker exited with code {worker.proc.returncode}")
        finally:
            worker.close()
    return result, setups, probes


def report(args, result, setups, probes):
    times = result["op_times"]
    attempted = len(times)
    failed = int(result["failed_ops"])
    checks = dict(result["failed_checks"])
    correct = failed == 0

    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
             f"trace {args.trace}  closed loop, 1 client"]
    lines.append("env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    if args.trace:
        units = dict(per_layer_names())
        values = result["per_layer"]
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        absent = set(result["absent"])
        for name, unit in units.items():
            layer = name.rsplit(".", 1)[0]
            note = "  (absent)" if layer in absent else ""
            lines.append(f"{name:44s} {values[name]:.6g} {unit}{note}")
        lines.append("share of op time inside each span, children included:")
        for name, share in sorted(result["shares"].items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:42s} {100.0 * share:5.1f} %")
        lines.append(f"spans {result['spans']} written to "
                     f"{os.path.relpath(result['spans_file'], ROOT)}")
    else:
        tail, pct, n = tail_percentile(times)
        errs = [p["curve_l2_err"] for p in probes]
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": attempted / sum(times),
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail,
            "peak_rss_mb": result["peak_rss_mb"],
            "curve_l2_err": errs[-1],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        notes = {
            "setup_s": f"median of {len(setups)}: " + ", ".join(f"{s:.4f}" for s in setups),
            "op_s.p50": f"n={n}, not in the result",
            "op_s.tail": f"p{pct}, n={n}, not in the result",
            "curve_l2_err": "warm-up op at the fixed probe seed",
        }
        for name, unit in END_TO_END + OP_LATENCY:
            lines.append(f"{name:14s} {values[name]:.6g} {unit}  {notes.get(name, '')}".rstrip())
        if len(set(errs)) > 1:
            checks["curve_l2_err_repeats"] = 1
            correct = False
    lines.append(f"failed_frac    {failed / attempted:.6g}  ({failed}/{attempted} ops failed)")
    lines.append("failed checks: " + (", ".join(f"{k} x{v}" for k, v in sorted(checks.items()))
                                      if checks else "none"))
    summary = {"correct": bool(correct), "attempted": attempted, "failed": failed,
               "metrics": metrics}
    return lines, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (0 runs exactly one op)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "margrid", "__init__.py")):
        print("error: no margrid sources under src/ next to the benchmark", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        result, setups, probes = run(args)
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result["env"] = {**environment(), **result.get("versions", {})}
    lines, summary = report(args, result, setups, probes)
    record = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"args": vars(args), "env": result["env"], "lines": lines,
                   "summary": summary, "op_times": result["op_times"],
                   "setup_samples": setups}, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
