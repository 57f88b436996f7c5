"""Experiment harness: JSON configs in, CSV/JSON artifacts out.

A config fully determines a run; the harness writes three artifacts into
the output directory (the NATVB_OUTDIR environment variable, else the
working directory; see run_dirs for several configs run together):

  * trace.csv    - per-iteration rows, every float in shortest
                   round-trip decimal form so replays are byte-identical;
  * summary.json - final objective/residual/iterations plus seeds,
                   config hash, and RNG algorithm;
  * config.used.json - the fully resolved config; feeding it back to
                   `run` reproduces the trace byte for byte.

The schema is versioned and strict: unknown keys are rejected, because
silently ignored knobs are how replays drift. SCHEMA is the one place
where a key's type, default and range live. Timing is reported in the
summary only, never in the trace, so traces stay deterministic.

The runners only adapt a config to one of the library's loops,
blr.blr_run or deep.train, and return its rows (blr.BLRTraceRow or
deep.TrainTraceRow, whose fields are the trace header) with a function
that builds the summary. One contract covers every failure: a domain
error or failed certificate (exit 3 or 4 under `natvb run`) writes every
row recorded before it, under the loop's own header, and then
propagates. The loops hand their rows over as the exception's
partial_trace; a failure in building the summary, after every step
succeeded, writes all the rows.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import time
from pathlib import Path, PurePath

import numpy as np

from .blr import BLRConfig, BLRTraceRow, blr_run, vb_objective
from .deep import (TrainTraceRow, VONState, adam_init, ivon_init, rmsprop_init,
                   train)
from .errors import CERTIFICATE_ERRORS, DomainError, LeftDomain, MissingHessian
from .gaussian import DiagGaussian, FullGaussian
from .losses import check_derivatives
from .models import (make_logistic_data, make_ridge_data, make_spirals_mlp,
                     ridge_exact_posterior, ridge_loss)
from .natgrad import ESTIMATOR_KINDS, EstimatorSpec, check_support
from .seeding import RNG_ALGORITHM, make_rng

SCHEMA_VERSION = 1
ENV_OUTDIR = "NATVB_OUTDIR"


class ConfigError(ValueError):
    """Invalid or schema-violating experiment configuration."""


def output_dir() -> Path:
    return Path(os.environ.get(ENV_OUTDIR, "."))


def _require(cfg: dict, context: str) -> dict:
    """Check a block against its SCHEMA entry; returns it with (copied) defaults."""
    entry = SCHEMA[context]
    if not isinstance(cfg, dict):
        raise ConfigError(f"{context} must be an object")
    unknown = set(cfg) - set(entry)
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {sorted(unknown)}")
    missing = {key for key, (_, default, _) in entry.items() if default is _REQUIRED} - set(cfg)
    if missing:
        raise ConfigError(f"missing keys in {context}: {sorted(missing)}")
    out = {key: _coerce(cfg[key], kind, f"{context}.{key}") if key in cfg else copy.copy(default)
           for key, (kind, default, _) in entry.items()}
    for key, (_, _, valid) in entry.items():
        if valid and not valid[0](out[key]):
            raise ConfigError(f"{context}.{key} must be {valid[1]}, got {out[key]}")
    return out


def _kind_block(block: str, cfg) -> dict:
    """Check a model or optimizer block against the SCHEMA entry its kind picks."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config.{block} must be an object")
    context = f"{block}({cfg.get('kind')})"
    if context not in SCHEMA:
        raise ConfigError(f"unknown {block} kind {cfg.get('kind')!r}")
    return _require(cfg, context)


def _one_of(*choices):
    return (lambda v: v in choices, "one of " + ", ".join(map(repr, choices)))


def _names_a_file(name: str) -> bool:
    path = PurePath(name)
    return (not path.is_absolute() and ".." not in path.parts and "\0" not in name
            and name.rpartition("/")[2] not in ("", "."))


def _clashes(paths) -> bool:
    """Whether two of paths name one file, or one names a directory another needs."""
    paths = [PurePath(path) for path in paths]
    parents = {parent for path in paths for parent in path.parents}
    return len(set(paths)) < len(paths) or not parents.isdisjoint(paths)


#: a key with no default
_REQUIRED = object()
#: valid ranges, each a (test, text) pair. Seeds key SeedSequence, which takes
#: non-negative integers only and splits one of 2**32 or more into several
#: 32-bit words: (seed + (tag << 32), t) would then be (seed, tag, t), one
#: of the per-step stream tuples, so seeds must fit in one word.
_SEED = (lambda v: 0 <= v < 2**32, ">= 0 and < 2**32")
_VERSION = (lambda v: v == SCHEMA_VERSION, str(SCHEMA_VERSION))
_NONNEG = (lambda v: v >= 0, ">= 0")
_POS = (lambda v: v > 0, "> 0")
_RATE = (lambda v: 0 < v <= 1, "in (0, 1]")
_DECAY = (lambda v: 0 <= v < 1, "in [0, 1)")
_WIDTHS = (lambda v: all(type(w) is int and w > 0 for w in v), "a list of integers > 0")
_FILE = (_names_a_file, "a relative path with no '..' part that names a file")
_KIND = (str, _REQUIRED, None)

#: every config key, by block: key -> (type, default or _REQUIRED, valid
#: range or None). This is the one place a key's type, default and range
#: live; resolve_config adds only the rules that tie keys together. A model
#: or optimizer block's entry is picked by its kind.
SCHEMA = {
    "config": {"schema_version": (int, _REQUIRED, _VERSION),
               "model": (dict, _REQUIRED, None), "optimizer": (dict, _REQUIRED, None),
               "seed": (int, 0, _SEED), "output": (dict, {}, None)},
    "output": {"trace": (str, "trace.csv", _FILE), "summary": (str, "summary.json", _FILE),
               "config": (str, "config.used.json", _FILE)},
    "model(ridge)": {"kind": _KIND, "n": (int, 20, _POS), "p": (int, 3, _POS),
                     "data_seed": (int, 0, _SEED), "noise": (float, 1.0, None),
                     "prior_precision": (float, 1.0, _POS)},
    "model(logistic)": {"kind": _KIND, "n": (int, 100, _POS), "p": (int, 2, _POS),
                        "data_seed": (int, 0, _SEED), "scale": (float, 3.0, None),
                        "prior_precision": (float, 1.0, _POS)},
    # one width per hidden layer; [] is a network with no hidden layer. No
    # prior suits IVON/Adam/RMSprop; BLR and VON need one (resolve_config)
    "model(spirals_mlp)": {"kind": _KIND, "n": (int, 500, _POS),
                           "hidden": (list, [16, 16], _WIDTHS), "noise": (float, 0.05, None),
                           "data_seed": (int, 0, _SEED), "prior_precision": (float, 0.0, _NONNEG)},
    "optimizer(blr)": {"kind": _KIND, "family": (str, "full", _one_of("full", "diag")),
                       "learning_rate": (float, 1.0, _RATE), "max_iter": (int, 100, _POS),
                       "tol": (float, 1e-9, None),
                       "estimator": (str, "exact", _one_of(*ESTIMATOR_KINDS)),
                       "n_samples": (int, 1, _POS), "init_mean": (float, 0.0, None),
                       "init_precision": (float, 1.0, _POS),
                       "max_rate_halvings": (int, 20, _NONNEG)},
    "optimizer(von)": {"kind": _KIND, "learning_rate": (float, 0.1, _RATE),
                       "steps": (int, 500, _NONNEG), "n_samples": (int, 4, _POS),
                       "init_mean": (float, 0.0, None), "init_precision": (float, 1.0, _POS),
                       "prec_floor": (float, 0.0, _NONNEG), "batch_size": (int, 0, _NONNEG)},
    "optimizer(ivon)": {"kind": _KIND, "step_size": (float, 0.3, _POS),
                        "steps": (int, 5000, _NONNEG), "hess_init": (float, 1.0, None),
                        "hess_rate": (float, 3e-3, _RATE), "weight_decay": (float, 1e-2, None),
                        "beta1": (float, 0.9, _DECAY), "ess": (float, 3e4, _POS),
                        "damping": (float, 0.0, _NONNEG), "init_seed": (int, 0, _SEED),
                        "batch_size": (int, 0, _NONNEG)},
    "optimizer(adam)": {"kind": _KIND, "step_size": (float, 1e-3, _POS),
                        "steps": (int, 1000, _NONNEG), "beta1": (float, 0.9, _DECAY),
                        "beta2": (float, 0.999, _DECAY), "damping": (float, 1e-8, _NONNEG),
                        "init_seed": (int, 0, _SEED), "batch_size": (int, 0, _NONNEG)},
    "optimizer(rmsprop)": {"kind": _KIND, "step_size": (float, 1e-2, _POS),
                           "steps": (int, 1000, _NONNEG), "scale_rate": (float, 0.1, _RATE),
                           "damping": (float, 1e-8, _NONNEG), "init_seed": (int, 0, _SEED),
                           "batch_size": (int, 0, _NONNEG)},
}


_TYPE_NAMES = {int: "an integer", str: "a string", dict: "an object", list: "a list"}


def _coerce(value, kind, where: str):
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{where} must be a number")
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        # json reads NaN and Infinity; no key has a use for them
        if not math.isfinite(number):
            raise ConfigError(f"{where} must be a finite number, got {value}")
        return number
    # bool is an int subclass, and true is not a count
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{where} must be {_TYPE_NAMES[kind]}")
    return value


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            cfg = json.load(handle)
    # ValueError: malformed JSON, or an integer beyond int()'s digit limit
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be an object")
    return cfg


def resolve_config(cfg: dict) -> dict:
    """Validate and fill defaults; the result is what the sidecar records."""
    top = _require(cfg, "config")
    model = top["model"] = _kind_block("model", top["model"])
    opt = top["optimizer"] = _kind_block("optimizer", top["optimizer"])
    # IVON samples with precision ess * (h + delta0), h starting at hess_init
    if opt["kind"] == "ivon" and not opt["hess_init"] + opt["weight_decay"] > 0:
        raise ConfigError("optimizer(ivon).hess_init + weight_decay must be > 0, got "
                          f"{opt['hess_init']} + {opt['weight_decay']}")
    # without a prior the MLP's VB objective is unbounded below: precisions
    # collapse and the entropy grows without limit
    if opt["kind"] in ("blr", "von") and model["prior_precision"] == 0:
        raise ConfigError(f"optimizer({opt['kind']}) needs "
                          f"model({model['kind']}).prior_precision > 0")
    # ridge's loss is one closed-form quadratic, with no data points to draw
    if model["kind"] == "ridge" and opt.get("batch_size"):
        raise ConfigError(f"optimizer({opt['kind']}).batch_size must be 0 "
                          "on model(ridge), which has no data to minibatch")
    names = top["output"] = _require(top["output"], "output")
    # a file written twice, or where another needs a directory, loses output
    if _clashes(names.values()):
        raise ConfigError("output.trace, output.summary and output.config must name "
                          f"different files, none inside another, got {names}")
    return top


def build_model(model_cfg: dict):
    kind = model_cfg["kind"]
    if kind == "ridge":
        model = make_ridge_data(model_cfg["data_seed"], model_cfg["n"],
                                model_cfg["p"], noise=model_cfg["noise"],
                                prior_precision=model_cfg["prior_precision"])
        return model, ridge_loss(model)
    if kind == "logistic":
        loss = make_logistic_data(model_cfg["data_seed"], model_cfg["n"],
                                  model_cfg["p"], scale=model_cfg["scale"],
                                  prior_precision=model_cfg["prior_precision"])
        return loss, loss
    loss = make_spirals_mlp(model_cfg["data_seed"], n=model_cfg["n"],
                            hidden=tuple(model_cfg["hidden"]),
                            noise=model_cfg["noise"],
                            prior_precision=model_cfg["prior_precision"])
    return loss, loss


# -- formatting ---------------------------------------------------------

def format_cell(value) -> str:
    """Shortest round-trip decimal for floats; plain text otherwise."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    return str(value)


def write_trace(path: Path, columns, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(format_cell(cell) for cell in row) + "\n")


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- runners ------------------------------------------------------------

def _blr_family(opt: dict, dim: int):
    return (FullGaussian if opt["family"] == "full" else DiagGaussian)(dim)


def _blr_runner(resolved: dict, loss):
    opt = resolved["optimizer"]
    family = _blr_family(opt, loss.dim)
    full = opt["family"] == "full"
    precision = opt["init_precision"] * (np.eye(loss.dim) if full else np.ones(loss.dim))
    lam0 = family.from_moment(np.full(loss.dim, opt["init_mean"]), precision)
    spec = EstimatorSpec(opt["estimator"], opt["n_samples"], resolved["seed"])
    cfg = BLRConfig(opt["learning_rate"], opt["max_iter"], opt["tol"], spec,
                    opt["max_rate_halvings"])
    run = blr_run(family, lam0, loss, cfg)
    return run.trace, lambda: {"iterations": run.state.t, "converged": run.converged,
                               "final_objective": run.trace[-1].objective,
                               "final_residual": run.trace[-1].residual}


def _deep_runner(resolved: dict, loss):
    opt = resolved["optimizer"]
    seed = resolved["seed"]
    kind = opt["kind"]
    if kind == "von":
        state = VONState(np.full(loss.dim, opt["init_mean"]),
                         np.full(loss.dim, opt["init_precision"]),
                         learning_rate=opt["learning_rate"],
                         n_samples=opt["n_samples"], seed=seed,
                         prec_floor=opt["prec_floor"])
    else:
        theta0 = (loss.init_params(opt["init_seed"]) if hasattr(loss, "init_params")
                  else np.zeros(loss.dim))
        if kind == "ivon":
            state = ivon_init(theta0, step_size=opt["step_size"],
                              hess_init=opt["hess_init"], hess_rate=opt["hess_rate"],
                              weight_decay=opt["weight_decay"], beta1=opt["beta1"],
                              damping=opt["damping"], ess=opt["ess"], seed=seed)
        elif kind == "adam":
            state = adam_init(theta0, step_size=opt["step_size"], beta1=opt["beta1"],
                              beta2=opt["beta2"], damping=opt["damping"])
        else:
            state = rmsprop_init(theta0, step_size=opt["step_size"],
                                 scale_rate=opt["scale_rate"], damping=opt["damping"])
    record = train(state, loss, opt["steps"], batch_size=opt["batch_size"] or None,
                   seed=seed)
    rows, final = record.rows, record.final_state

    def summary() -> dict:
        values = {"iterations": opt["steps"], "final_loss": rows[-1].loss}
        if kind == "von":
            family = DiagGaussian(loss.dim)
            values["final_objective"] = vb_objective(
                family, family.from_moment(final.mean, final.prec), loss)
            values["min_scale"] = min(row.scale_min for row in rows)
        if hasattr(loss, "mean_data_loss"):
            point = final.mean if hasattr(final, "mean") else final.theta
            values["mean_data_loss"] = loss.mean_data_loss(point)
        return values

    return rows, summary


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_experiment(cfg: dict, out_dir: Path | None = None) -> dict:
    """Execute one config; returns the summary written to summary.json.

    Raises ConfigError for schema problems and for a BLR estimator that
    cannot serve the model on the chosen family (natgrad.check_support),
    with nothing written, and for an output directory that cannot be
    created (a path through a regular file, say), before the derivative
    gate runs. A domain error or certificate failure
    (errors.CERTIFICATE_ERRORS), in the loop or in building the summary,
    propagates after trace.csv is written with the loop's header and
    every row recorded before it, and no summary.json.
    """
    resolved = resolve_config(cfg)
    out_dir = Path(out_dir) if out_dir is not None else output_dir()
    out_paths = {key: out_dir / name for key, name in resolved["output"].items()}
    _, loss = build_model(resolved["model"])
    opt = resolved["optimizer"]
    if opt["kind"] == "blr":
        try:
            check_support(_blr_family(opt, loss.dim), loss, opt["estimator"])
        except (ValueError, MissingHessian) as exc:
            raise ConfigError(f"optimizer(blr): {exc}") from exc
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {out_dir}: "
                          f"{exc.strerror}") from exc
    rng = make_rng(resolved["seed"], 0xC)
    probe = [rng.standard_normal(loss.dim) * 0.3 for _ in range(2)]
    check_derivatives(loss, probe)
    runner, row_type = ((_blr_runner, BLRTraceRow) if opt["kind"] == "blr"
                        else (_deep_runner, TrainTraceRow))
    started = time.time()
    rows: list = []
    try:
        rows, summarise = runner(resolved, loss)
        summary = summarise()
    except (DomainError, LeftDomain, *CERTIFICATE_ERRORS) as exc:
        write_trace(out_paths["trace"], row_type._fields,
                    getattr(exc, "partial_trace", rows))
        raise
    summary.update({
        "seed": resolved["seed"],
        "optimizer": opt["kind"],
        "model": resolved["model"]["kind"],
        "config_hash": config_hash(resolved),
        "rng_algorithm": RNG_ALGORITHM,
        "wall_time_s": time.time() - started,
    })
    write_trace(out_paths["trace"], row_type._fields, rows)
    write_json(out_paths["summary"], summary)
    write_json(out_paths["config"], resolved)
    return summary


def run_dirs(named_configs: list[tuple[str, dict]], out_dir: Path) -> list[Path]:
    """Output directory for each of several (name, config) pairs run together.

    The runs share out_dir unless two of them would write the same
    artifact there, or one would need another's artifact as a directory;
    then each run writes into out_dir/<name>. Raises
    ConfigError, before anything runs, if that needs two runs with the
    same name or if any artifact already exists, so that no run's output
    replaces another's.
    """
    out_dir = Path(out_dir)
    names = [name for name, _ in named_configs]
    files = [list(resolve_config(cfg)["output"].values()) for _, cfg in named_configs]
    shared = [out_dir / artifact for run_files in files for artifact in run_files]
    if not _clashes(shared):
        dirs = [out_dir] * len(names)
    elif len(set(names)) == len(names):
        dirs = [out_dir / name for name in names]
    else:
        raise ConfigError(f"configs {sorted(names)} would write the same artifacts; "
                          "give them distinct file names or output names")
    for run_dir, run_files in zip(dirs, files):
        for artifact in run_files:
            if (run_dir / artifact).exists():
                raise ConfigError(f"refusing to overwrite {run_dir / artifact}")
    return dirs


def compare_runs(cfg_a: dict, cfg_b: dict, out_dir: Path | None = None,
                 joint_name: str = "compare.csv") -> Path:
    """Run two configs side by side and emit a joint CSV keyed on step.

    Each trace's first column is its step (BLR's t starts at 1, the deep
    optimizers' step at 0); a joint row holds each run's row of that
    step, or empty cells where the run has none.
    """
    out_dir = Path(out_dir) if out_dir is not None else output_dir()
    results = []
    for tag, cfg in (("a", cfg_a), ("b", cfg_b)):
        resolved = resolve_config(cfg)
        resolved["output"] = {key: f"{tag}.{name}" for key, name
                              in resolved["output"].items()}
        run_experiment(resolved, out_dir)
        results.append(resolved)
    joint = out_dir / joint_name
    tables = []
    for tag, resolved in zip(("a", "b"), results):
        with open(out_dir / resolved["output"]["trace"], encoding="utf-8") as handle:
            lines = [line.rstrip("\n").split(",") for line in handle]
        tables.append((tag, lines[0], lines[1:]))
    with open(joint, "w", encoding="utf-8", newline="") as handle:
        header = ["step"]
        for tag, cols, _ in tables:
            header.extend(f"{tag}_{c}" for c in cols[1:])
        handle.write(",".join(header) + "\n")
        by_step = [{row[0]: row[1:] for row in rows} for _, _, rows in tables]
        for step in sorted(set().union(*by_step), key=int):
            cells = [step]
            for (_, cols, _), rows in zip(tables, by_step):
                cells.extend(rows.get(step, [""] * (len(cols) - 1)))
            handle.write(",".join(cells) + "\n")
    return joint


def ridge_oracle(cfg: dict) -> dict:
    """Exact ridge posterior for a config's model block, as plain lists."""
    resolved_model = _kind_block("model", cfg.get("model", {}))
    if resolved_model["kind"] != "ridge":
        raise ConfigError("oracle ridge needs a ridge model block")
    model, _ = build_model(resolved_model)
    mean, precision = ridge_exact_posterior(model)
    return {"mean": mean.tolist(), "precision": precision.tolist(),
            "covariance": np.linalg.inv(precision).tolist()}
