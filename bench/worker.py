"""One workload process: set up, run a discarded warm-up op, then ops.

Started by ``run.py`` with the thread pools already pinned in its
environment.  Talks to the parent over its original standard output,
one JSON line per message:

- ``READY``: set-up is done (the parent times set-up up to this line);
  carries the warm-up op's checks and curve error;
- ``RESULT``: after the timed ops; carries op times, failures, peak RSS
  and, for a traced run, the per-layer metrics.

Anything the program itself prints goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _send(channel, tag: str, payload: dict) -> None:
    channel.write(f"{tag} {json.dumps(payload)}\n")
    channel.flush()


def _versions() -> dict:
    import numpy
    import scipy

    import margrid

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"margrid": margrid.__version__, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _run_op(workload, seed: int, op_id: int, tracer):
    """Run one op and its checks: (seconds, failed check names, curve error, extras)."""
    t0 = time.perf_counter()
    try:
        with tracer.op_span(op_id):
            out = workload.op(seed, tracer)
    except Exception as exc:  # an op that raises counts as failed
        elapsed = time.perf_counter() - t0
        return elapsed, [f"raised:{type(exc).__name__}: {exc}"], float("nan"), {}
    elapsed = time.perf_counter() - t0
    try:
        failed, err, extras = workload.check(out)
    except Exception as exc:
        return elapsed, [f"check_raised:{type(exc).__name__}: {exc}"], float("nan"), {}
    return elapsed, failed, err, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    # keep the protocol channel for ourselves; route everything else to stderr
    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    import resource

    import tracer as tracing
    import workloads

    workload = workloads.build(args.workload, args.out_dir)
    _, failed, err, _ = _run_op(workload, workloads.PROBE_SEED, -1, tracing.NullTracer())
    _send(channel, "READY", {"probe_failed": failed, "curve_l2_err": err})
    if args.setup_only:
        return 0

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracer.install()
    times, failures, failed_ops = [], {}, 0
    repeat = getattr(workload, "repeat_inputs", False)
    start = time.perf_counter()
    k = 0
    while True:
        seed = workloads.op_seed(args.seed, 0 if repeat else k)
        elapsed, failed, _err, extras = _run_op(workload, seed, k, tracer)
        times.append(elapsed)
        for name in failed:
            failures[name] = failures.get(name, 0) + 1
        failed_ops += bool(failed)
        if args.trace:
            for key, value in extras.items():
                tracer.add_op_amount(k, key, value)
        k += 1
        if time.perf_counter() - start >= args.seconds:
            break

    result = {
        "op_times": times,
        "failed_ops": failed_ops,
        "failed_checks": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if args.trace:
        tracer.uninstall()
        result["per_layer"] = tracer.per_layer_metrics()
        result["shares"] = tracer.inclusive_shares()
        result["absent"] = tracer.absent
        path = os.path.join(args.out_dir, f"spans-{args.workload}.npz")
        tracer.save(path)
        result["spans_file"] = path
        result["spans"] = len(tracer.start)
    _send(channel, "RESULT", result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
