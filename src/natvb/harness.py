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
silently ignored knobs are how replays drift. Timing is reported in the
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

import hashlib
import json
import math
import os
import time
from pathlib import Path

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


def _require(cfg: dict, context: str, required: dict, optional: dict) -> dict:
    """Strict key validation with defaults; returns the resolved mapping."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{context} must be an object")
    unknown = set(cfg) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {sorted(unknown)}")
    missing = set(required) - set(cfg)
    if missing:
        raise ConfigError(f"missing keys in {context}: {sorted(missing)}")
    out = {}
    for key, kind in required.items():
        out[key] = _coerce(cfg[key], kind, f"{context}.{key}")
    for key, (kind, default) in optional.items():
        out[key] = _coerce(cfg[key], kind, f"{context}.{key}") if key in cfg else default
    for key, value in out.items():
        valid = _RANGES.get(f"{context}.{key}") or _RANGES.get(key)
        if valid and not valid[0](value):
            raise ConfigError(f"{context}.{key} must be {valid[1]}, got {value}")
    return out


#: the valid range of each numeric key, in every block that has it unless a
#: "block.key" entry says otherwise. Seeds key SeedSequence, which takes
#: non-negative integers only and splits one of 2**32 or more into several
#: 32-bit words: (seed + (tag << 32), t) would then be (seed, tag, t), one
#: of the per-step stream tuples, so seeds must fit in one word.
_RANGES = {
    **dict.fromkeys("seed data_seed init_seed".split(),
                    (lambda v: 0 <= v < 2**32, ">= 0 and < 2**32")),
    **dict.fromkeys("steps batch_size max_rate_halvings prec_floor damping".split(),
                    (lambda v: v >= 0, ">= 0")),
    **dict.fromkeys("n p max_iter n_samples init_precision ess step_size "
                    "prior_precision".split(),
                    (lambda v: v > 0, "> 0")),
    **dict.fromkeys("learning_rate hess_rate scale_rate".split(),
                    (lambda v: 0 < v <= 1, "in (0, 1]")),
    **dict.fromkeys("beta1 beta2".split(), (lambda v: 0 <= v < 1, "in [0, 1)")),
    # no prior suits IVON/Adam/RMSprop; BLR and VON need one (resolve_config)
    "model(spirals_mlp).prior_precision": (lambda v: v >= 0, ">= 0"),
}


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
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{where} must be an integer")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string")
        return value
    if kind is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object")
        return value
    if kind is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        return value
    raise AssertionError(f"unhandled kind {kind}")


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
    top = _require(cfg, "config",
                   required={"schema_version": int, "model": dict, "optimizer": dict},
                   optional={"seed": (int, 0), "output": (dict, {})})
    if top["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {top['schema_version']}")
    top["model"] = _resolve_model(top["model"])
    top["optimizer"] = _resolve_optimizer(top["optimizer"])
    # without a prior the MLP's VB objective is unbounded below: precisions
    # collapse and the entropy grows without limit
    if top["optimizer"]["kind"] in ("blr", "von") and top["model"]["prior_precision"] == 0:
        raise ConfigError(f"optimizer({top['optimizer']['kind']}) needs "
                          f"model({top['model']['kind']}).prior_precision > 0")
    # ridge's loss is one closed-form quadratic, with no data points to draw
    if top["model"]["kind"] == "ridge" and top["optimizer"].get("batch_size"):
        raise ConfigError(f"optimizer({top['optimizer']['kind']}).batch_size must be 0 "
                          "on model(ridge), which has no data to minibatch")
    top["output"] = _require(top["output"], "output", required={},
                             optional={"trace": (str, "trace.csv"),
                                       "summary": (str, "summary.json"),
                                       "config": (str, "config.used.json")})
    return top


def _resolve_model(cfg: dict) -> dict:
    kind = cfg.get("kind")
    if kind == "ridge":
        return _require(cfg, "model(ridge)", {"kind": str},
                        {"n": (int, 20), "p": (int, 3), "data_seed": (int, 0),
                         "noise": (float, 1.0), "prior_precision": (float, 1.0)})
    if kind == "logistic":
        return _require(cfg, "model(logistic)", {"kind": str},
                        {"n": (int, 100), "p": (int, 2), "data_seed": (int, 0),
                         "scale": (float, 3.0), "prior_precision": (float, 1.0)})
    if kind == "spirals_mlp":
        block = _require(cfg, "model(spirals_mlp)", {"kind": str},
                       {"n": (int, 500), "hidden": (list, [16, 16]),
                        "noise": (float, 0.05), "data_seed": (int, 0),
                        "prior_precision": (float, 0.0)})
        # one width per hidden layer; [] is a network with no hidden layer
        for i, width in enumerate(block["hidden"]):
            where = f"model(spirals_mlp).hidden[{i}]"
            if not _coerce(width, int, where) > 0:
                raise ConfigError(f"{where} must be > 0, got {width}")
        return block
    raise ConfigError(f"unknown model kind {kind!r}")


_OPT_SCHEMAS = {
    "blr": ({"kind": str},
            {"family": (str, "full"), "learning_rate": (float, 1.0),
             "max_iter": (int, 100), "tol": (float, 1e-9),
             "estimator": (str, "exact"), "n_samples": (int, 1),
             "init_mean": (float, 0.0), "init_precision": (float, 1.0),
             "max_rate_halvings": (int, 20)}),
    "von": ({"kind": str},
            {"learning_rate": (float, 0.1), "steps": (int, 500),
             "n_samples": (int, 4), "init_mean": (float, 0.0),
             "init_precision": (float, 1.0), "prec_floor": (float, 0.0),
             "batch_size": (int, 0)}),
    "ivon": ({"kind": str},
             {"step_size": (float, 0.3), "steps": (int, 5000),
              "hess_init": (float, 1.0), "hess_rate": (float, 3e-3),
              "weight_decay": (float, 1e-2), "beta1": (float, 0.9),
              "ess": (float, 3e4), "damping": (float, 0.0),
              "init_seed": (int, 0), "batch_size": (int, 0)}),
    "adam": ({"kind": str},
             {"step_size": (float, 1e-3), "steps": (int, 1000),
              "beta1": (float, 0.9), "beta2": (float, 0.999),
              "damping": (float, 1e-8), "init_seed": (int, 0),
              "batch_size": (int, 0)}),
    "rmsprop": ({"kind": str},
                {"step_size": (float, 1e-2), "steps": (int, 1000),
                 "scale_rate": (float, 0.1), "damping": (float, 1e-8),
                 "init_seed": (int, 0), "batch_size": (int, 0)}),
}


def _resolve_optimizer(cfg: dict) -> dict:
    kind = cfg.get("kind")
    if kind not in _OPT_SCHEMAS:
        raise ConfigError(f"unknown optimizer kind {kind!r}")
    required, optional = _OPT_SCHEMAS[kind]
    block = _require(cfg, f"optimizer({kind})", required, optional)
    if kind == "blr":
        if block["family"] not in ("full", "diag"):
            raise ConfigError("optimizer.family must be 'full' or 'diag'")
        if block["estimator"] not in ESTIMATOR_KINDS:
            raise ConfigError(f"unknown estimator {block['estimator']!r}")
    # IVON samples with precision ess * (h + delta0), h starting at hess_init
    if kind == "ivon" and not block["hess_init"] + block["weight_decay"] > 0:
        raise ConfigError("optimizer(ivon).hess_init + weight_decay must be > 0, got "
                          f"{block['hess_init']} + {block['weight_decay']}")
    return block


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
    with nothing written. A domain error or certificate failure
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
    artifact there; then each run writes into out_dir/<name>. Raises
    ConfigError, before anything runs, if that needs two runs with the
    same name or if any artifact already exists, so that no run's output
    replaces another's.
    """
    out_dir = Path(out_dir)
    names = [name for name, _ in named_configs]
    files = [list(resolve_config(cfg)["output"].values()) for _, cfg in named_configs]
    shared = [out_dir / artifact for run_files in files for artifact in run_files]
    if len(set(shared)) == len(shared):
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
    resolved_model = _resolve_model(cfg.get("model", {}))
    if resolved_model["kind"] != "ridge":
        raise ConfigError("oracle ridge needs a ridge model block")
    model, _ = build_model(resolved_model)
    mean, precision = ridge_exact_posterior(model)
    return {"mean": mean.tolist(), "precision": precision.tolist(),
            "covariance": np.linalg.inv(precision).tolist()}
