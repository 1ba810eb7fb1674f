"""Span tracer that wraps margrid's public entry points from outside.

Nothing under ``src/`` is edited.  Each target is rebound where callers
look it up:

- a module-level function is replaced in every ``margrid`` module whose
  namespace holds that same function object (the defining module, the
  modules that imported it, and the package namespace);
- a method is replaced on the named class and on every subclass that
  defines its own version, so overrides are traced under the same name.

A target that no longer exists is recorded as absent and reports zero,
so a change that deletes a routine still runs the benchmark.

Spans carry a name, start, end, parent span and op id.  They are kept
in flat lists while the benchmark runs and written out at the end.
Only calls made on the installing thread while an op is open are
recorded; every workload runs single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import threading
import time


def _result_entries(args, kwargs, result):
    return getattr(result, "size", 0)


def _result_nbytes(args, kwargs, result):
    """Bytes of every array the result holds, computed from array sizes."""
    if hasattr(result, "nbytes"):
        return result.nbytes
    return sum(getattr(v, "nbytes", 0) for v in vars(result).values())


def _gibbs_iters(args, kwargs, result):
    return getattr(result, "n_iter", 0)


# (span name, module, attribute, optional (suffix, unit, amount function)).
# "Class.attr" names a method; the layer prefix is the defining module.
TARGETS = [
    ("models.log_weight_matrix", "margrid.models", "Model.log_weight_matrix",
     ("entries", "count", _result_entries)),
    ("models.log_psi", "margrid.models", "Model.log_psi", None),
    ("models.sample_local", "margrid.models", "Model.sample_local", None),
    ("models.grad_log_psi_prior", "margrid.models", "Model.grad_log_psi_prior", None),
    ("emus.draw_sample_bank", "margrid.emus", "draw_sample_bank", None),
    ("emus.compute_log_weights", "margrid.emus", "compute_log_weights", None),
    ("emus.estimate_transition_matrix", "margrid.emus", "estimate_transition_matrix", None),
    ("emus.stationary_vector", "margrid.emus", "stationary_vector", None),
    ("emus.fit_emus", "margrid.emus", "fit_emus", None),
    ("diagnostics.variance_diagnostics", "margrid.diagnostics", "variance_diagnostics", None),
    ("diagnostics.hitting_probabilities", "margrid.diagnostics", "hitting_probabilities", None),
    ("diagnostics.weight_ratio_variances", "margrid.diagnostics", "weight_ratio_variances", None),
    ("diagnostics.relative_variance_bound", "margrid.diagnostics", "relative_variance_bound", None),
    ("diagnostics.group_inverse", "margrid.diagnostics", "group_inverse", None),
    ("functional.marginal_many", "margrid.functional", "FunctionalEstimate.marginal_many", None),
    ("functional.curve_with_gradient", "margrid.functional",
     "FunctionalEstimate.curve_with_gradient", None),
    ("functional.gradient", "margrid.functional", "FunctionalEstimate.gradient", None),
    ("functional.expectation", "margrid.functional", "FunctionalEstimate.expectation", None),
    ("design.run_design_loop", "margrid.design", "run_design_loop", None),
    ("design.extend_to_eval_grid", "margrid.design", "extend_to_eval_grid", None),
    ("design.estimate_cross_moments", "margrid.design", "estimate_cross_moments",
     ("bytes", "B", _result_nbytes)),
    ("design.optimal_weights", "margrid.design", "optimal_weights", None),
    ("design.incremental_weights", "margrid.design", "incremental_weights", None),
    ("design.pivotal_sample", "margrid.design", "pivotal_sample", None),
    ("baselines.run_griddy_gibbs", "margrid.baselines", "run_griddy_gibbs",
     ("iters", "count", _gibbs_iters)),
]

#: spans the cli-studies workload opens around each in-process command
CLI_COMMANDS = ("estimate", "compare", "rate-study", "design")

OP_SPAN = "op"


def per_layer_names():
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for name, _module, _attr, amount in TARGETS:
        names.append((f"{name}.calls", "count"))
        names.append((f"{name}.self_s", "s"))
        if amount is not None:
            names.append((f"{name}.{amount[0]}", amount[1]))
    names.append(("baselines.gibbs_iters_per_s", "1/s"))
    names += [(f"cli.main.{cmd}.s", "s") for cmd in CLI_COMMANDS]
    names.append(("experiments.self_s", "s"))
    names.append(("experiments.bytes_written", "B"))
    names.append(("op.self_s", "s"))
    names.append(("traced.ops_per_s", "1/s"))
    return names


class NullTracer:
    """Stands in for the tracer in untraced runs."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def op_span(self, op_id: int):
        return contextlib.nullcontext()


class Tracer:
    """Records nested spans of wrapped calls, grouped by op."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, in start order
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.amount: list[float] = []
        self._stack: list[int] = []
        self._op = None
        self._thread = threading.get_ident()
        self._restore: list = []
        self.absent: list[str] = []
        self.op_amounts: dict[int, dict[str, float]] = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.amount.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _recording(self) -> bool:
        return self._op is not None and threading.get_ident() == self._thread

    @contextlib.contextmanager
    def span(self, name: str):
        """Span opened by the benchmark's own code (ops, CLI commands)."""
        if not self._recording():
            yield
            return
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """Root span of one op; wrapped calls are recorded only inside it."""
        self._op = op_id
        try:
            with self.span(OP_SPAN):
                yield
        finally:
            self._op = None

    def add_op_amount(self, op_id: int, key: str, value: float) -> None:
        self.op_amounts.setdefault(op_id, {})[key] = float(value)

    def _wrap(self, fn, name: str, amount_fn):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._recording():
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if amount_fn is not None:
                tracer.amount[idx] = float(amount_fn(args, kwargs, result))
            return result

        return wrapper

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        for name, module_name, attr, amount in TARGETS:
            amount_fn = amount[2] if amount is not None else None
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            if "." in attr:
                done = self._install_method(module, attr, name, amount_fn)
            else:
                done = self._install_function(module, attr, name, amount_fn)
            if not done:
                self.absent.append(name)

    def _install_function(self, module, attr, name, amount_fn) -> bool:
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapper = self._wrap(original, name, amount_fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "margrid" or mod_name.startswith("margrid.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))
        return True

    def _install_method(self, module, attr, name, amount_fn) -> bool:
        cls_name, method = attr.split(".", 1)
        base = getattr(module, cls_name, None)
        if not isinstance(base, type):
            return False
        found = False
        todo, seen = [base], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            original = cls.__dict__.get(method)
            if callable(original):
                setattr(cls, method, self._wrap(original, name, amount_fn))
                self._restore.append((cls, method, original))
                found = True
        return found

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def save(self, path) -> None:
        """Write the spans as compressed columns (numpy ``.npz``)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int64),
            amount=np.array(self.amount),
        )

    def per_op(self):
        """{op id: {span name: [calls, self seconds, total seconds, amount]}}."""
        n = len(self.start)
        child = [0.0] * n
        for idx in range(n):
            p = self.parent[idx]
            if p >= 0:
                child[p] += self.end[idx] - self.start[idx]
        table: dict[int, dict[str, list]] = {}
        for idx in range(n):
            dur = self.end[idx] - self.start[idx]
            row = table.setdefault(self.op[idx], {}).setdefault(
                self.names[self.span_name[idx]], [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur - child[idx]
            row[2] += dur
            row[3] += self.amount[idx]
        return table

    def inclusive_shares(self) -> dict[str, float]:
        """Share of all op time spent inside each span name, children included.

        Recursive calls of one name would be counted twice; none of the
        wrapped routines recurse.
        """
        table = self.per_op()
        totals: dict[str, float] = {}
        for row in table.values():
            for name, (_calls, _self_s, total, _amount) in row.items():
                totals[name] = totals.get(name, 0.0) + total
        op_total = totals.pop(OP_SPAN, 0.0)
        if op_total <= 0:
            return {}
        return {name: t / op_total for name, t in totals.items()}

    def per_layer_metrics(self) -> dict[str, float]:
        """Per-op medians of every per-layer metric; absent ones are 0."""
        table = self.per_op()
        ops = sorted(table)

        def med(values):
            return float(statistics.median(values)) if values else 0.0

        def column(name, field):
            return [table[k].get(name, [0, 0.0, 0.0, 0.0])[field] for k in ops]

        out: dict[str, float] = {}
        for name, _module, _attr, amount in TARGETS:
            out[f"{name}.calls"] = med(column(name, 0))
            out[f"{name}.self_s"] = med(column(name, 1))
            if amount is not None:
                out[f"{name}.{amount[0]}"] = med(column(name, 3))
        gibbs_s = sum(column("baselines.run_griddy_gibbs", 2))
        gibbs_iters = sum(column("baselines.run_griddy_gibbs", 3))
        out["baselines.gibbs_iters_per_s"] = gibbs_iters / gibbs_s if gibbs_s > 0 else 0.0
        experiments = [0.0] * len(ops)
        for cmd in CLI_COMMANDS:
            span = f"cli.main.{cmd}"
            out[f"{span}.s"] = med(column(span, 2))
            experiments = [a + b for a, b in zip(experiments, column(span, 1))]
        out["experiments.self_s"] = med(experiments)
        out["experiments.bytes_written"] = med(
            [self.op_amounts.get(k, {}).get("experiments.bytes_written", 0.0) for k in ops])
        out["op.self_s"] = med(column(OP_SPAN, 1))
        op_total = sum(column(OP_SPAN, 2))
        out["traced.ops_per_s"] = len(ops) / op_total if op_total > 0 else 0.0
        return out
