"""The four benchmark workloads: set-up, one op, and the op's checks.

Each workload is a class.  Constructing it is the set-up (model, grids,
exact references).  ``op(master_seed, tracer)`` runs one closed-loop
op and returns its outputs; ``check(out)`` returns the names of the
checks that failed plus the op's normalized L2 curve error against the
closed form.  Checks run outside the timed op.

Sizes are fixed here and echoed in BENCHMARK.json and NOTES.md.  All
randomness comes from the master seed passed to ``op``.

Each ``curve_tol`` is about twice the largest per-op error seen over
80 to 300 seeds, and below the error of a flat curve on the same
evaluation grid (0.063 for toy-diagnose, 0.10 for gp-surface, 0.089 for
design-m128, 0.18 for the 33-point grid of cli-studies), so an estimator
that loses the curve's shape fails it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile

import numpy as np

import margrid as mg
import margrid.cli

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: the warm-up op of every workload runs at this fixed master seed, so its
#: curve error (the ``curve_l2_err`` metric) repeats exactly on every run
PROBE_SEED = 7

#: interpolation identity: the curve at a grid point is its stationary value,
#: to this multiple of the vector's largest entry.  The tolerance is relative
#: to the whole vector, not per entry, because the stationary solve rounds on
#: that scale: GP stationary vectors span 1e-45..16, and entries that small
#: carry a relative error of up to 1e-9 while the vector is exact to 1e-15.
INTERP_RTOL = 1e-12


def op_seed(seed: int, k: int) -> int:
    """Master seed of op k in a run with benchmark seed ``seed``."""
    seq = np.random.SeedSequence(int(seed), spawn_key=(int(k),))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def non_finite(out: dict) -> list[str]:
    """Names of float outputs that hold a NaN or an infinity."""
    bad = []
    for key, value in out.items():
        arr = np.asarray(value) if isinstance(value, (float, np.ndarray)) else None
        if arr is not None and arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
            bad.append(f"finite:{key}")
    return bad


def interpolation_holds(curve_at_grid, stationary) -> bool:
    """True when the curve at the simulation points equals the stationary vector."""
    curve_at_grid = np.asarray(curve_at_grid, dtype=float)
    stationary = np.asarray(stationary, dtype=float)
    return bool(np.max(np.abs(curve_at_grid - stationary))
                <= INTERP_RTOL * np.max(np.abs(stationary)))


def stationary_ok(u, L: int) -> list[str]:
    failed = []
    if not np.all(u > 0):
        failed.append("stationary_positive")
    if not abs(u.sum() - L) <= 1e-9 * L:
        failed.append("stationary_sums_to_L")
    return failed


class ToyDiagnose:
    """One fit followed by diagnostics and many curve queries (toy model)."""

    name = "toy-diagnose"
    L = 64
    per_point = 256
    eval_points = 256
    curve_tol = 0.03

    def __init__(self):
        self.model = mg.ToyBimodalModel(y=1.0, q=64.0, tau=16.0)
        domain = mg.Domain(-2.0, 2.0)
        self.grid = mg.make_regular_grid(domain, self.L)
        self.eval_grid = mg.make_regular_grid(domain, self.eval_points)
        self.reference = mg.exact_reference(self.model, self.eval_grid, self.grid)

    def op(self, master_seed: int, tracer) -> dict:
        bank = mg.draw_sample_bank(self.model, self.grid, self.per_point, master_seed)
        est = mg.fit_emus(bank, self.model)
        diag = mg.variance_diagnostics(est)
        fn = mg.FunctionalEstimate(est, self.model)
        curve = fn.marginal_many(self.eval_grid.points)
        grid_values, grid_grads = fn.curve_with_gradient(self.grid.points)
        second_moment = fn.expectation(lambda th: th**2, self.eval_grid)
        return {
            "stationary": est.stationary,
            "curve": curve,
            "grid_values": grid_values,
            "grid_grads": grid_grads,
            "second_moment": float(second_moment),
            "rel_var_bound": float(diag.rel_var_bound),
        }

    def check(self, out: dict):
        failed = non_finite(out)
        failed += stationary_ok(out["stationary"], self.L)
        if not interpolation_holds(out["grid_values"], out["stationary"]):
            failed.append("interpolation")
        if not np.isfinite(out["rel_var_bound"]):
            failed.append("rel_var_bound_finite")
        err = mg.normalized_l2_error(out["curve"], self.reference)
        if not err <= self.curve_tol:
            failed.append("curve_l2_err_tol")
        return failed, err, {}


class GpSurface:
    """Fit and curve of a 2-D GP surface; the model instance is reused."""

    name = "gp-surface"
    sim_counts = (12, 12)
    per_point = 64
    eval_counts = (24, 24)
    grad_points = 16
    curve_tol = 0.09

    def __init__(self):
        x, y = mg.make_synthetic_gp_dataset(16, 7)
        self.model = mg.GpRegressionModel(x, y)
        domain = mg.Domain(np.array([0.1, 0.1]), np.array([10.0, 10.0]))
        self.grid = mg.make_regular_grid(domain, list(self.sim_counts), "log")
        self.eval_grid = mg.make_regular_grid(domain, list(self.eval_counts), "log")
        self.reference = mg.exact_reference(self.model, self.eval_grid, self.grid)

    def op(self, master_seed: int, tracer) -> dict:
        bank = mg.draw_sample_bank(self.model, self.grid, self.per_point, master_seed)
        est = mg.fit_emus(bank, self.model)
        fn = mg.FunctionalEstimate(est, self.model)
        curve = fn.marginal_many(self.eval_grid.points)
        rng = np.random.default_rng(master_seed)
        idx = np.sort(rng.choice(len(self.grid), self.grad_points, replace=False))
        values, grads = fn.curve_with_gradient(self.grid.points[idx])
        return {
            "stationary": est.stationary,
            "curve": curve,
            "grid_index": idx,
            "grid_values": values,
            "grid_grads": grads,
        }

    def check(self, out: dict):
        failed = non_finite(out)
        failed += stationary_ok(out["stationary"], len(self.grid))
        if not interpolation_holds(out["grid_values"], out["stationary"][out["grid_index"]]):
            failed.append("interpolation")
        if not np.all(np.isfinite(out["grid_grads"])):
            failed.append("gradients_finite")
        err = mg.normalized_l2_error(out["curve"], self.reference)
        if not err <= self.curve_tol:
            failed.append("curve_l2_err_tol")
        return failed, err, {}


class DesignM128:
    """The sequential design loop at the largest evaluation grid it allows."""

    name = "design-m128"
    eval_points = 128
    iterations = 8
    blocks_per_iteration = 32
    samples_per_block = 16
    curve_tol = 0.08

    def __init__(self):
        self.model = mg.ToyBimodalModel(y=1.0, q=64.0, tau=16.0)
        self.eval_grid = mg.make_regular_grid(mg.Domain(-2.0, 2.0), self.eval_points)

    @property
    def draws(self) -> int:
        return self.iterations * self.blocks_per_iteration * self.samples_per_block

    def op(self, master_seed: int, tracer) -> dict:
        state, fn = mg.run_design_loop(
            self.model, self.eval_grid, self.iterations,
            self.blocks_per_iteration, self.samples_per_block, master_seed,
        )
        return {"state": state, "functional": fn}

    def check(self, out: dict):
        state, fn = out["state"], out["functional"]
        failed = []
        if state.total_draws != self.draws or fn.emus.bank.total != self.draws:
            failed.append("draws_placed")
        per_iter = [int(np.sum(h["blocks"])) for h in state.history]
        summed = np.sum([h["blocks"] for h in state.history], axis=0)
        if (per_iter != [self.blocks_per_iteration] * self.iterations
                or not np.array_equal(summed, state.block_counts)):
            failed.append("block_counts")
        curve = fn.marginal_many(self.eval_grid.points)
        failed += non_finite({"curve": curve, "stationary": fn.emus.stationary,
                              "w_hat": state.w_hat})
        reference = mg.exact_reference(self.model, self.eval_grid, fn.emus.grid)
        err = mg.normalized_l2_error(curve, reference)
        if not err <= self.curve_tol:
            failed.append("curve_l2_err_tol")
        return failed, err, {}


class CliStudies:
    """The four CLI commands in-process on a committed config."""

    name = "cli-studies"
    config_path = os.path.join(BENCH_DIR, "study.ini")
    curve_tol = 0.08
    #: every op of a run uses the run's first op seed, so that each op's
    #: output files can be held byte-identical to the first op's
    repeat_inputs = True

    def __init__(self, scratch_dir: str):
        self.scratch_dir = scratch_dir
        self.reference_digest = None

    def op(self, master_seed: int, tracer) -> dict:
        out_dir = tempfile.mkdtemp(prefix="cli-", dir=self.scratch_dir)
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for cmd in ("estimate", "compare", "rate-study", "design"):
                target = os.path.join(out_dir, cmd)
                with tracer.span(f"cli.main.{cmd}"):
                    codes[cmd] = margrid.cli.main(
                        [cmd, "--config", self.config_path, "--out", target,
                         "--seed", str(master_seed)])
        return {"codes": codes, "out_dir": out_dir, "master_seed": master_seed}

    def check(self, out: dict):
        out_dir = out["out_dir"]
        try:
            failed = [f"exit_code:{cmd}" for cmd, rc in out["codes"].items() if rc != 0]
            digest = hashlib.sha256()
            written = 0
            for root, dirs, files in os.walk(out_dir):
                dirs.sort()
                for name in sorted(files):
                    path = os.path.join(root, name)
                    with open(path, "rb") as fh:
                        data = fh.read()
                    written += len(data)
                    digest.update(os.path.relpath(path, out_dir).encode())
                    digest.update(data)
            # ops of one run share a seed, so every op must match the first
            key = (out["master_seed"], digest.hexdigest())
            if self.reference_digest is None or self.reference_digest[0] != key[0]:
                self.reference_digest = key
            elif self.reference_digest != key:
                failed.append("byte_identical")
            err = float("nan")
            manifest_path = os.path.join(out_dir, "estimate", "manifest.json")
            if os.path.exists(manifest_path):
                with open(manifest_path) as fh:
                    manifest = json.load(fh)
                err = float(manifest["summary"]["mean_normalized_l2_eval_grid"])
            if not err <= self.curve_tol:
                failed.append("curve_l2_err_tol")
            return failed, err, {"experiments.bytes_written": written}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (ToyDiagnose, GpSurface, DesignM128, CliStudies)}


def build(name: str, scratch_dir: str):
    cls = WORKLOADS[name]
    return cls(scratch_dir) if cls is CliStudies else cls()
