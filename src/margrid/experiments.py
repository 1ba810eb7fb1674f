"""Config-driven experiment runners behind the command line.

Each runner loads its parameters from an :class:`ExperimentConfig`
(a flat ``key = value`` file with sections), executes one study, writes
plot-ready CSV files plus a JSON run manifest into an output directory,
and returns the manifest as a dict.  Runners are plain functions so
tests and notebooks can call them without going through ``argv``.

Determinism contract: every output embeds the config hash and the
master seed, all randomness is derived from the master seed through
documented spawn keys, and rerunning with an identical config and seed
reproduces every output byte for byte (floats are written via ``repr``,
manifests carry no timestamps).
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .baselines import run_griddy_chains
from .design import _even_indices, run_design_loop
from .emus import child_rng, draw_sample_bank, fit_emus
from .errors import GridError, MargridError
from .functional import FunctionalEstimate, argmax_on, profile
from .grids import Domain, HyperGrid, make_regular_grid, trapezoid_weights
from .models import (
    DiscreteModel,
    GpRegressionModel,
    Model,
    ToyBimodalModel,
    discrete_table_from_csv,
    gp_dataset_from_csv,
    make_synthetic_gp_dataset,
)
from .diagnostics import variance_diagnostics

__all__ = [
    "ExperimentConfig",
    "build_model",
    "build_grids",
    "mean_abs_error",
    "normalized_l2_error",
    "exact_stationary",
    "exact_reference",
    "run_estimate",
    "run_compare",
    "run_rate_study",
    "run_design_study",
]


# --------------------------------------------------------------------------
# configuration

#: the keys each config section may hold: exactly the keys the runners read
CONFIG_KEYS = {
    "model": {"kind", "y", "q", "tau", "table", "dataset", "n_data", "dataset_seed",
              "noise_var", "jitter_scale"},
    "domain": {"lower", "upper", "scale"},
    "grids": {"sim_counts", "eval_counts", "sim_columns"},
    "sampling": {"samples_per_point", "master_seed", "replicates"},
    "compare": {"tau_sweep", "burn_in"},
    "rate": {"n_sweep", "l_sweep", "fixed_n", "dense_replicates"},
    "design": {"iterations", "blocks_per_iteration", "samples_per_block",
               "probe_points", "baseline_points"},
}


@dataclass
class ExperimentConfig:
    """A parsed experiment file plus the hash of its raw bytes.

    Sections and keys are interpreted by the individual runners; the
    common ones are ``[model]`` (kind and its parameters), ``[domain]``
    (lower/upper/scale), ``[grids]`` (per-axis point counts) and
    ``[sampling]`` (samples per point, master seed, replicate count).
    Any section or key outside ``CONFIG_KEYS`` fails at load time, and a
    ``[DEFAULT]`` key counts as a key of every section.  Paths inside the
    file resolve relative to the file itself and are checked at load time.
    """

    parser: configparser.ConfigParser
    sha256: str
    path: str | None = None
    base_dir: str = "."

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path, "rb") as fh:
            raw = fh.read()
        cfg = cls.from_text(raw.decode("utf-8"), base_dir=os.path.dirname(os.path.abspath(path)))
        cfg.path = str(path)
        return cfg

    @classmethod
    def from_text(cls, text: str, base_dir: str = ".") -> "ExperimentConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(text)
        cfg = cls(
            parser=parser,
            sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
            base_dir=base_dir,
        )
        cfg._check_keys()
        cfg._check_paths()
        return cfg

    # -- typed accessors -----------------------------------------------------

    def get(self, section: str, key: str, fallback=None):
        return self.parser.get(section, key, fallback=fallback)

    def getint(self, section: str, key: str, fallback=None):
        return self._one(section, key, fallback, _INT64)

    def getfloat(self, section: str, key: str, fallback=None):
        return self._one(section, key, fallback, _FLOAT)

    def getseed(self, section: str, key: str, fallback=None):
        # a seed is any nonnegative integer: SeedSequence takes them unbounded
        return _at_least(self._one(section, key, fallback, (int, "an integer")),
                         f"[{section}] {key}", 0)

    def floats(self, section: str, key: str, fallback=None):
        return self._many(section, key, fallback, _FLOAT)

    def ints(self, section: str, key: str, fallback=None):
        return self._many(section, key, fallback, _INT64)

    def _one(self, section: str, key: str, fallback, kind):
        raw = self.get(section, key)
        return fallback if raw is None else _parse(section, key, raw, kind)

    def _many(self, section: str, key: str, fallback, kind):
        raw = self.get(section, key)
        if raw is None:
            if fallback is None:
                raise GridError(f"config needs [{section}] {key}")
            return list(fallback)
        return [_parse(section, key, tok, kind) for tok in raw.replace(",", " ").split()]

    def resolve_path(self, value: str) -> str:
        return value if os.path.isabs(value) else os.path.join(self.base_dir, value)

    def echo(self) -> dict:
        return {s: dict(self.parser.items(s)) for s in self.parser.sections()}

    def _check_keys(self) -> None:
        for section in self.parser.sections():
            if section not in CONFIG_KEYS:
                raise GridError(f"[{section}] is not a config section")
            # options() includes the [DEFAULT] keys
            for key in self.parser.options(section):
                if key not in CONFIG_KEYS[section]:
                    raise GridError(f"[{section}] {key} is not a config key")

    def _check_paths(self) -> None:
        for key in ("table", "dataset"):
            value = self.get("model", key)
            if value is None or value == "synthetic":
                continue
            full = self.resolve_path(value)
            if not os.path.exists(full):
                raise FileNotFoundError(f"[model] {key} = {value}: no such file")


#: config value types, each a parser of one token and what it expects
_INT64 = (lambda token: int(np.int64(int(token))), "a 64-bit integer")
_FLOAT = (float, "a number")


def _parse(section: str, key: str, token: str, kind):
    """One config token read as ``kind``, or GridError naming its key."""
    parse, what = kind
    try:
        return parse(token)
    except (ValueError, OverflowError):
        raise GridError(f"[{section}] {key} = {token!r} is not {what}") from None


def _resolve_seed(config: ExperimentConfig, seed) -> int:
    if seed is not None:
        return _at_least(int(seed), "--seed", 0)
    return config.getseed("sampling", "master_seed", fallback=0)


def _at_least(value: int, key: str, least: int = 1, why: str = "") -> int:
    if value < least:
        raise GridError(f"{key} must be at least {least}{why}, got {value}")
    return value


def _resolve_replicates(config: ExperimentConfig, replicates, least: int = 1,
                        why: str = "") -> int:
    if replicates is not None:
        return _at_least(int(replicates), "--replicates", least, why)
    return _at_least(config.getint("sampling", "replicates", fallback=32),
                     "[sampling] replicates", least, why)


def build_model(config: ExperimentConfig) -> Model:
    """Instantiate the model named by the ``[model]`` section."""
    kind = config.get("model", "kind", fallback="toy")
    if kind == "toy":
        return ToyBimodalModel(
            y=config.getfloat("model", "y", fallback=1.0),
            q=config.getfloat("model", "q", fallback=2.0),
            tau=config.getfloat("model", "tau", fallback=2.0),
        )
    if kind == "discrete":
        table = config.get("model", "table")
        if table is None:
            raise GridError("config needs [model] table")
        return DiscreteModel(discrete_table_from_csv(config.resolve_path(table)))
    if kind in ("gp-regression", "gp"):
        noise_var = config.getfloat("model", "noise_var", fallback=1.0 / 16.0)
        dataset = config.get("model", "dataset", fallback="synthetic")
        if dataset == "synthetic":
            x, y = make_synthetic_gp_dataset(
                n=_at_least(config.getint("model", "n_data", fallback=16), "[model] n_data"),
                seed=config.getseed("model", "dataset_seed", fallback=7),
                noise_var=noise_var,
            )
        else:
            x, y = gp_dataset_from_csv(config.resolve_path(dataset))
        return GpRegressionModel(
            x, y, noise_var=noise_var,
            jitter_scale=config.getfloat("model", "jitter_scale", fallback=1e-9),
        )
    raise GridError(f"unknown model kind {kind!r}")


def build_grids(config: ExperimentConfig, model: Model | None = None):
    """Simulation and evaluation grids named by ``[domain]`` / ``[grids]``.

    Discrete models carry their own hyperparameter atoms, so for them
    both grids are the model's atom grid (optionally restricted with
    ``sim_columns``) and the domain section is ignored.
    """
    kind = config.get("model", "kind", fallback="toy")
    if kind == "discrete":
        if model is None:
            model = build_model(config)
        columns = config.ints("grids", "sim_columns", fallback=())
        n_atoms = model.atom_values.size
        if len(set(columns)) < len(columns) or not set(columns) <= set(range(n_atoms)):
            raise GridError(f"[grids] sim_columns must be distinct columns in [0, {n_atoms}), "
                            f"got {columns}")
        grid = model.grid(columns if columns else None)
        return grid, grid
    lower = config.floats("domain", "lower")
    upper = config.floats("domain", "upper")
    scale = config.get("domain", "scale", fallback="linear")
    domain = Domain(np.array(lower), np.array(upper))
    sim_counts = config.ints("grids", "sim_counts")
    eval_counts = config.ints("grids", "eval_counts", fallback=sim_counts)
    sim_grid = make_regular_grid(domain, sim_counts, scale)
    eval_grid = make_regular_grid(domain, eval_counts, scale)
    return sim_grid, eval_grid


def _sample_counts(config: ExperimentConfig, n_points: int) -> np.ndarray:
    per = config.ints("sampling", "samples_per_point", fallback=(16,))
    if len(per) == 1:
        return np.full(n_points, per[0], dtype=int)
    if len(per) != n_points:
        raise GridError(
            f"samples_per_point lists {len(per)} values for {n_points} grid points"
        )
    return np.asarray(per, dtype=int)


# --------------------------------------------------------------------------
# error metrics and exact references


def _normalizer(name, u, absolute=False):
    """``u`` as a float array and the sum an error metric divides it by, of
    its absolute values with ``absolute``: a ValueError naming ``name``
    unless ``u`` is finite and that sum finite and positive."""
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise ValueError(f"{name} must be finite")
    with np.errstate(over="ignore"):
        total = (np.abs(u) if absolute else u).sum()
    if not 0 < total < np.inf:
        raise ValueError(f"{name} must have a finite positive sum, got {float(total)!r}")
    return u, total


def mean_abs_error(u_hat, u_ref) -> float:
    """Mean absolute difference after normalizing both vectors to sum L."""
    u_hat, hat_sum = _normalizer("u_hat", u_hat)
    u_ref, ref_sum = _normalizer("u_ref", u_ref)
    n = u_hat.size
    return float(np.mean(np.abs(u_hat * (n / hat_sum) - u_ref * (n / ref_sum))))


def normalized_l2_error(u_hat, u_ref) -> float:
    """Euclidean distance between the two vectors rescaled to unit 1-norm."""
    u_hat, hat_norm = _normalizer("u_hat", u_hat, absolute=True)
    u_ref, ref_norm = _normalizer("u_ref", u_ref, absolute=True)
    return float(np.linalg.norm(u_hat / hat_norm - u_ref / ref_norm))


def exact_stationary(model: Model, grid: HyperGrid) -> np.ndarray:
    """Exact stationary vector over a grid, normalized to sum L."""
    return exact_reference(model, grid, grid)


def exact_reference(model: Model, eval_grid: HyperGrid, sim_grid: HyperGrid) -> np.ndarray:
    """Exact curve over the evaluation grid, on the fitted curve's scale.

    The fitted curve interpolates a stationary vector that sums to L
    over the simulation grid, so the comparable exact values are the
    raw curve rescaled by L over its simulation-grid total, from one
    ``model.exact_log_u`` call per grid.
    """
    log_e, log_s = (model.exact_log_u(g.points) for g in (eval_grid, sim_grid))
    shift = max(log_e.max(), log_s.max())
    z_e = np.exp(log_e - shift)
    total = np.exp(log_s - shift).sum()
    if total == 0.0:
        raise MargridError("the exact curve underflows on the whole simulation grid")
    return z_e * (len(sim_grid) / total)


# --------------------------------------------------------------------------
# output plumbing


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(outputs: list, out_dir: str, name: str, header, rows, comments) -> None:
    """Write ``out_dir/name`` and record ``name`` in the runner's ``outputs``."""
    with open(os.path.join(out_dir, name), "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")
    outputs.append(name)


def _comments(config: ExperimentConfig, master_seed: int):
    return (f"config_sha256={config.sha256}", f"master_seed={master_seed}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    return obj


def _versions() -> dict:
    import scipy

    from . import __version__

    return {
        "margrid": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(str(v) for v in __import__("sys").version_info[:3]),
    }


def _manifest_skeleton(command: str, config: ExperimentConfig, master_seed: int,
                       replicates: int) -> dict:
    return {
        "command": command,
        "config": config.echo(),
        "config_sha256": config.sha256,
        "master_seed": int(master_seed),
        "replicates": int(replicates),
        "versions": _versions(),
    }


def _write_manifest(out_dir: str, manifest: dict) -> dict:
    payload = _jsonable(manifest)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def _point_header(grid: HyperGrid):
    return [f"dim{k}" for k in range(grid.points.shape[1])]


# --------------------------------------------------------------------------
# runners


def run_estimate(config: ExperimentConfig, out_dir: str, *, seed=None,
                 replicates=None) -> dict:
    """Fit the curve estimator and write it over the evaluation grid.

    Outputs: ``curve.csv`` (evaluation-grid curve, with the exact
    reference column when the model supports one), one
    ``profile_axis*.csv`` per hyperparameter axis, ``diagnostics.csv``
    (per simulation point), ``errors.csv`` (per-replicate error metrics
    against the exact reference), and ``manifest.json``.  Replicate r
    draws its bank with spawn keys (r, point_index).

    Replicates are fitted one at a time and each fit is dropped once its
    errors are taken; replicate 0 also keeps its curve, stationary vector
    and diagnostics.  A model without an exact reference has no errors to
    take, so only replicate 0 is drawn and fitted, and the manifest's
    ``replicates`` counts the replicates fitted.  Files are written after
    the last replicate, so a failed fit leaves none.
    """
    os.makedirs(out_dir, exist_ok=True)
    model = build_model(config)
    sim_grid, eval_grid = build_grids(config, model)
    counts = _sample_counts(config, len(sim_grid))
    master = _resolve_seed(config, seed)
    reps = _resolve_replicates(config, replicates)
    have_exact = model.has_exact_log_u
    if have_exact:
        reference = exact_reference(model, eval_grid, sim_grid)
        exact_sim = exact_stationary(model, sim_grid)

    # replicates past 0 only feed errors.csv, which needs the reference
    if not have_exact:
        reps = 1
    err_rows = []
    for r in range(reps):
        bank = draw_sample_bank(model, sim_grid, counts, master, spawn_prefix=(r,))
        emus = fit_emus(bank, model)
        curve = FunctionalEstimate(emus, model).marginal_many(eval_grid.points)
        if r == 0:
            # profiles, the argmax and the diagnostics read replicate 0 only
            curve0, u0, diag = curve, emus.stationary, variance_diagnostics(emus)
        if have_exact:
            err_rows.append((r, mean_abs_error(emus.stationary, exact_sim),
                             normalized_l2_error(curve, reference)))
        del bank, emus  # before the next replicate draws

    comments = _comments(config, master)
    outputs = []
    columns = {"u_hat": curve0}
    if have_exact:
        columns["u_exact"] = reference
    _write_csv(outputs, out_dir, "curve.csv", _point_header(eval_grid) + list(columns),
               [(*p, *v) for p, *v in zip(eval_grid.points, *columns.values())], comments)

    if eval_grid.axes is not None:
        for axis in range(eval_grid.points.shape[1]):
            values, prof = profile(curve0, eval_grid, axis)
            _write_csv(outputs, out_dir, f"profile_axis{axis}.csv",
                       [f"dim{axis}", "u_profile"],
                       list(zip(values, prof)), comments)

    per_point = diag.grid_terms / diag.sampling_fractions
    diag_rows = [
        (i, *sim_grid.points[i], counts[i], u0[i], per_point[i])
        for i in range(len(sim_grid))
    ]
    _write_csv(outputs, out_dir, "diagnostics.csv",
               ["point"] + _point_header(sim_grid) + ["n_draws", "u_hat", "bound_term"],
               diag_rows, comments)

    summary: dict = {
        "rel_var_bound": diag.rel_var_bound,
        "equal_allocation": diag.eq_sample,
        "total_draws": int(counts.sum()),
    }
    argmax_point, argmax_value, argmax_index = argmax_on(curve0, eval_grid)
    summary["argmax"] = {
        "point": list(argmax_point),
        "value": argmax_value,
        "index": argmax_index,
    }

    if have_exact:
        _write_csv(outputs, out_dir, "errors.csv",
                   ["replicate", "l1_sim_grid", "normalized_l2_eval_grid"],
                   err_rows, comments)
        errs = np.array([(r[1], r[2]) for r in err_rows])
        summary["mean_l1_sim_grid"] = errs[:, 0].mean()
        summary["mean_normalized_l2_eval_grid"] = errs[:, 1].mean()

    manifest = _manifest_skeleton("estimate", config, master, reps)
    manifest["summary"] = summary
    manifest["outputs"] = sorted(outputs)
    return _write_manifest(out_dir, manifest)


def run_compare(config: ExperimentConfig, out_dir: str, *, seed=None,
                replicates=None) -> dict:
    """Grid estimator against the single-chain Gibbs baseline.

    Both methods see the same total number of latent draws per
    replicate: the chain runs for sum(N_l) + burn_in iterations so its
    kept sweeps match the bank size exactly (asserted, and recorded in
    the manifest).  For toy models a ``tau_sweep`` list in the
    ``[compare]`` section repeats the study across prior precisions.
    Spawn keys: bank (sweep, replicate, 0, point), chain stream
    (sweep, 1).  All replicate chains of a sweep run side by side on
    that one stream.
    """
    os.makedirs(out_dir, exist_ok=True)
    base_model = build_model(config)
    if not base_model.has_exact_log_u:
        raise GridError("compare needs a model with an exact reference curve")
    sim_grid, _ = build_grids(config, base_model)
    counts = _sample_counts(config, len(sim_grid))
    master = _resolve_seed(config, seed)
    reps = _resolve_replicates(config, replicates)
    burn_in = config.getint("compare", "burn_in", fallback=0)
    total = int(counts.sum())
    n_iter = total + burn_in

    kind = config.get("model", "kind", fallback="toy")
    sweep = config.floats("compare", "tau_sweep", fallback=()) if kind == "toy" else []
    models = ([(tau, ToyBimodalModel(y=base_model.y, q=base_model.q, tau=tau)) for tau in sweep]
              or [(float("nan"), base_model)])

    first_axis = sim_grid.points[:, 0]
    rows = []
    per_tau = []
    for s, (tau, model) in enumerate(models):
        exact_sim = exact_stationary(model, sim_grid)
        # the sweep deliberately enters regimes where neighboring windows
        # stop overlapping, so fit in the clamping mode and report how
        # often it fired instead of aborting the study
        grid_l1, truncated = [], []
        for r in range(reps):
            bank = draw_sample_bank(model, sim_grid, counts, master,
                                    spawn_prefix=(s, r, 0))
            emus = fit_emus(bank, model, on_degenerate="truncate")
            grid_l1.append(mean_abs_error(emus.stationary, exact_sim))
            truncated.append(emus.truncated)
        traces = run_griddy_chains(model, sim_grid, n_iter, child_rng(master, s, 1), reps,
                                   burn_in=burn_in)
        sweep_rows = []
        for r, trace in enumerate(traces):
            if trace.kept != total:
                raise AssertionError("effort parity broken between methods")
            sweep_rows.append((
                tau, r, grid_l1[r],
                mean_abs_error(trace.stationary_estimate(), exact_sim),
                int(trace.visits[first_axis < 0].sum()),
                int(trace.visits[first_axis > 0].sum()),
            ))
        rows.extend(sweep_rows)
        arr = np.array([(a, b) for _, _, a, b, _, _ in sweep_rows])
        trapped = np.array([(neg == 0 or pos == 0) for *_, neg, pos in sweep_rows])
        per_tau.append({
            "tau": tau,
            "emus_mean_l1": arr[:, 0].mean(),
            "gibbs_mean_l1": arr[:, 1].mean(),
            "one_sided_fraction": trapped.mean(),
            "truncated_fit_fraction": float(np.mean(truncated)),
        })

    outputs = []
    _write_csv(outputs, out_dir, "compare.csv",
               ["tau", "replicate", "emus_l1", "gibbs_l1",
                "gibbs_neg_visits", "gibbs_pos_visits"],
               rows, _comments(config, master))

    manifest = _manifest_skeleton("compare", config, master, reps)
    manifest["summary"] = {
        "per_tau": per_tau,
        "effort": {
            "draws_per_method": total,
            "gibbs_burn_in": burn_in,
            "parity": True,
        },
    }
    manifest["outputs"] = sorted(outputs)
    return _write_manifest(out_dir, manifest)


def run_rate_study(config: ExperimentConfig, out_dir: str, *, seed=None,
                   replicates=None) -> dict:
    """Error against sampling effort in two regimes.

    Fixed-grid: the simulation grid stays put while the per-point draw
    count sweeps over ``n_sweep``; the manifest reports the log-log
    slope fitted over the last half of the sweep.  Dense-grid: the
    per-point count stays at ``fixed_n`` while the grid count sweeps
    over ``l_sweep`` (continuous models only); the manifest reports
    whether the per-count median error is non-increasing.  Errors are
    normalized-L2 distances on the evaluation grid (on the simulation
    grid itself for discrete models).  Spawn keys: (regime, sweep
    position, replicate, point).
    """
    os.makedirs(out_dir, exist_ok=True)
    model = build_model(config)
    if not model.has_exact_log_u:
        raise GridError("rate study needs a model with an exact reference curve")
    sim_grid, eval_grid = build_grids(config, model)
    master = _resolve_seed(config, seed)
    reps = _resolve_replicates(config, replicates)
    n_sweep = config.ints("rate", "n_sweep", fallback=(16, 32, 64, 128, 256, 512, 1024))
    l_sweep = config.ints("rate", "l_sweep", fallback=(8, 16, 32, 64, 128))
    fixed_n = config.getint("rate", "fixed_n", fallback=4)
    dense_reps = _at_least(config.getint("rate", "dense_replicates", fallback=3),
                           "[rate] dense_replicates")
    discrete = isinstance(model, DiscreteModel)

    if discrete:
        reference = exact_stationary(model, sim_grid)
    else:
        reference = exact_reference(model, eval_grid, sim_grid)

    def fit_error(grid, n_per_point, prefix, ref):
        bank = draw_sample_bank(model, grid,
                                np.full(len(grid), n_per_point, dtype=int),
                                master, spawn_prefix=prefix)
        emus = fit_emus(bank, model)
        if discrete:
            return normalized_l2_error(emus.stationary, ref)
        curve = FunctionalEstimate(emus, model).marginal_many(eval_grid.points)
        return normalized_l2_error(curve, ref)

    rows = []
    fixed_means = []
    for j, n_per in enumerate(n_sweep):
        errs = np.array([fit_error(sim_grid, n_per, (0, j, r), reference)
                         for r in range(reps)])
        fixed_means.append(errs.mean())
        rows.append(("fixed-grid", n_per, reps, errs.mean(), float(np.median(errs))))

    half = len(n_sweep) // 2
    # a zero mean error has no logarithm, so it leaves the slope undefined
    if len(n_sweep) - half >= 2 and min(fixed_means[half:]) > 0:
        slope = float(np.polyfit(np.log(np.asarray(n_sweep[half:], dtype=float)),
                                 np.log(np.asarray(fixed_means[half:])), 1)[0])
    else:
        slope = float("nan")

    dense_medians = []
    if not discrete:
        for k, L in enumerate(l_sweep):
            dense_counts = [L] * sim_grid.domain.dim
            grid_k = make_regular_grid(sim_grid.domain, dense_counts, sim_grid.scale)
            ref_k = exact_reference(model, eval_grid, grid_k)
            errs = np.array([fit_error(grid_k, fixed_n, (1, k, r), ref_k)
                             for r in range(dense_reps)])
            med = float(np.median(errs))
            dense_medians.append(med)
            rows.append(("dense-grid", L, dense_reps, errs.mean(), med))

    outputs = []
    _write_csv(outputs, out_dir, "rates.csv",
               ["regime", "sweep_value", "n_replicates", "error_mean", "error_median"],
               rows, _comments(config, master))

    manifest = _manifest_skeleton("rate-study", config, master, reps)
    manifest["summary"] = {
        "fixed_grid": {
            "n_sweep": list(n_sweep),
            "mean_errors": fixed_means,
            "slope_last_half": slope,
            "slope_window": list(n_sweep[half:]),
        },
        "dense_grid": {
            "l_sweep": list(l_sweep) if not discrete else [],
            "median_errors": dense_medians,
            "nonincreasing": bool(np.all(np.diff(dense_medians) <= 0.0))
            if dense_medians else None,
            "fixed_n": fixed_n,
        },
    }
    manifest["outputs"] = sorted(outputs)
    return _write_manifest(out_dir, manifest)


def run_design_study(config: ExperimentConfig, out_dir: str, *, seed=None,
                     replicates=None) -> dict:
    """Sequential allocation run plus a variance comparison at equal effort.

    Writes ``design.csv`` (per-iteration ``iteration,point,weight,
    allocated`` history of one run under the master seed); the manifest
    lists the rounds of that run whose fit clamped a degenerate
    stationary solve as ``truncated_iterations``.  When the
    ``[design]`` section lists ``probe_points`` (values in the domain of
    a one-dimensional grid), also reruns the loop
    ``replicates`` times against a uniform fixed-site baseline of equal
    total effort and writes ``design_variance.csv`` with the
    density values at the probes; the manifest then carries the
    replicate variances, their reduction ratios, and the counts of
    replicates whose density came from a clamped fit
    (``truncated_design_runs``: the final fit of a design run;
    ``truncated_uniform_runs``: the one baseline fit).  Replicate seeds
    derive from the master via spawn keys (2, r) for design runs and
    (3, r) for baseline banks.
    """
    os.makedirs(out_dir, exist_ok=True)
    model = build_model(config)
    _, eval_grid = build_grids(config, model)
    master = _resolve_seed(config, seed)
    probes = config.floats("design", "probe_points", fallback=())
    if probes:
        # the probe densities integrate the curve with trapezoid weights
        if eval_grid.axes is None:
            raise GridError("[design] probe_points need a tensor-product evaluation "
                            "grid; this model's grid is not one")
        # a probe is looked up on the grid's one axis, in its working scale
        if eval_grid.dim != 1:
            raise GridError(f"[design] probe_points need a one-dimensional grid, "
                            f"got {eval_grid.dim} dimensions")
        # on one point every density is 1, so both variances are 0
        if len(eval_grid) < 2:
            raise GridError("[design] probe_points need at least 2 evaluation points, "
                            f"got [grids] eval_counts = {len(eval_grid)}")
        lo, hi = float(eval_grid.domain.lower[0]), float(eval_grid.domain.upper[0])
        outside = [p for p in probes if not lo <= p <= hi]
        if outside:
            raise GridError(f"[design] probe_points {outside[0]!r} lies outside the "
                            f"domain [{lo!r}, {hi!r}]")
    reps = _resolve_replicates(config, replicates, 2 if probes else 1,
                               " with [design] probe_points")
    iterations = _at_least(config.getint("design", "iterations", fallback=8),
                           "[design] iterations")
    blocks = _at_least(config.getint("design", "blocks_per_iteration", fallback=8),
                       "[design] blocks_per_iteration")
    per_block = _at_least(config.getint("design", "samples_per_block", fallback=8),
                          "[design] samples_per_block")
    n_sites = _at_least(config.getint("design", "baseline_points", fallback=blocks),
                        "[design] baseline_points")
    comments = _comments(config, master)

    state, _ = run_design_loop(model, eval_grid, iterations, blocks, per_block, master)
    outputs = []
    history_rows = [
        (it, m, record["weights"][m], record["blocks"][m] * per_block)
        for it, record in enumerate(state.history) for m in range(len(eval_grid))
    ]
    _write_csv(outputs, out_dir, "design.csv",
               ["iteration", "point", "weight", "allocated"], history_rows, comments)

    manifest = _manifest_skeleton("design", config, master, reps)
    summary: dict = {
        "total_draws": state.total_draws,
        "degenerate_score": state.degenerate,
        "points_visited": int(np.count_nonzero(state.block_counts)),
        "truncated_iterations": state.truncated_iterations,
    }

    if probes:
        quad = trapezoid_weights(eval_grid)
        working = eval_grid.working_points()
        probe_pts = np.array(probes)[:, None]
        probe_work = np.log(probe_pts) if eval_grid.scale == "log" else probe_pts
        probe_idx = [
            int(np.argmin(((working - pw) ** 2).sum(axis=1))) for pw in probe_work
        ]
        total = state.total_draws
        site_idx = _even_indices(len(eval_grid), min(n_sites, len(eval_grid)))
        base_counts = np.full(site_idx.size, total // site_idx.size, dtype=int)
        base_counts[: total - base_counts.sum()] += 1
        sub_grid = HyperGrid(domain=eval_grid.domain,
                             points=eval_grid.points[site_idx],
                             scale=eval_grid.scale)

        failed = (np.full(len(probe_idx), np.nan), False)

        def one_design(r: int):
            rep_master = int(np.random.SeedSequence(
                master, spawn_key=(2, r)).generate_state(1, dtype=np.uint64)[0])
            try:
                _, fn = run_design_loop(model, eval_grid, iterations, blocks,
                                        per_block, rep_master)
                return fn.density(eval_grid, quad)[probe_idx], fn.emus.truncated
            except MargridError:
                return failed

        def one_uniform(r: int):
            bank = draw_sample_bank(model, sub_grid, base_counts, master,
                                    spawn_prefix=(3, r))
            try:
                emus = fit_emus(bank, model, on_degenerate="truncate")
                return (FunctionalEstimate(emus, model).density(eval_grid, quad)[probe_idx],
                        emus.truncated)
            except MargridError:
                return failed

        design_vals, design_clamped = zip(*[one_design(r) for r in range(reps)])
        uniform_vals, uniform_clamped = zip(*[one_uniform(r) for r in range(reps)])
        design_vals, uniform_vals = np.array(design_vals), np.array(uniform_vals)

        ok_d = ~np.isnan(design_vals).any(axis=1)
        ok_u = ~np.isnan(uniform_vals).any(axis=1)
        if min(ok_d.sum(), ok_u.sum()) < 2:
            raise GridError(
                "the variance study needs at least 2 successful replicates per "
                f"method, got {ok_d.sum()} design and {ok_u.sum()} uniform of {reps}"
            )
        var_rows = []
        for r in range(reps):
            for probe, value in zip(probes, design_vals[r]):
                var_rows.append(("design", r, probe, value))
            for probe, value in zip(probes, uniform_vals[r]):
                var_rows.append(("uniform", r, probe, value))
        _write_csv(outputs, out_dir, "design_variance.csv",
                   ["method", "replicate", "probe", "density"],
                   var_rows, comments)

        var_d = design_vals[ok_d].var(axis=0, ddof=1)
        var_u = uniform_vals[ok_u].var(axis=0, ddof=1)
        summary["variance_study"] = {
            "probe_points": list(probes),
            "baseline_sites": int(site_idx.size),
            "design_variance": var_d,
            "uniform_variance": var_u,
            "variance_reduction": 1.0 - var_d / var_u,
            "failed_design_runs": int((~ok_d).sum()),
            "failed_uniform_runs": int((~ok_u).sum()),
            "truncated_design_runs": sum(design_clamped),
            "truncated_uniform_runs": sum(uniform_clamped),
        }

    manifest["summary"] = summary
    manifest["outputs"] = sorted(outputs)
    return _write_manifest(out_dir, manifest)
