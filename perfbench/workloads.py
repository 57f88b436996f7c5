"""The benchmark's workloads: one experiment config each, plus output checks.

A workload turns the benchmark seed into a config (the seed goes into
``seed`` and the model's ``data_seed``) and checks what a run wrote.
Every run of an invocation must also write a byte-identical trace.csv
whose values are all finite; ``check_run`` enforces that for all
workloads before the workload's own check.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular


class CheckFailed(Exception):
    """A run finished but its outputs are wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: dict
    optimizer: dict
    #: (config, summary, trace rows) -> None; raises CheckFailed
    check: Callable[[dict, dict, list[list[float]]], None]

    def config(self, seed: int) -> dict:
        return {"schema_version": 1, "seed": seed,
                "model": {**self.model, "data_seed": seed},
                "optimizer": dict(self.optimizer)}


def ridge_log_evidence(x: np.ndarray, y: np.ndarray, tau: float) -> float:
    """log N(y; 0, I + X X'/tau), the exact evidence of unit-noise ridge."""
    low = np.linalg.cholesky(np.eye(y.size) + x @ x.T / tau)
    z = solve_triangular(low, y, lower=True)
    return float(-0.5 * z @ z - np.sum(np.log(np.diag(low)))
                 - 0.5 * y.size * np.log(2.0 * np.pi))


def _check_ridge(config, summary, rows):
    # at the exact posterior the VB objective is the negative log evidence
    from natvb.harness import build_model, resolve_config

    model, _ = build_model(resolve_config(config)["model"])
    target = -ridge_log_evidence(model.x, model.y, model.prior_precision)
    got = summary["final_objective"]
    if not abs(got - target) <= 1e-9 * max(1.0, abs(target)):
        raise CheckFailed(f"final objective {got!r} != closed form {target!r}")


def _check_logistic(config, summary, rows):
    first, last = rows[0][2], rows[-1][2]
    if not last < first:
        raise CheckFailed(f"objective did not decrease: {first!r} -> {last!r}")


def _check_spirals(config, summary, rows):
    # IVON's retraction keeps the posterior precision positive; no loss
    # threshold, since some seeds diverge before they recover
    worst = min(row[3] for row in rows)
    if not worst > 0.0:
        raise CheckFailed(f"scale_min reached {worst!r}")


WORKLOADS = {w.name: w for w in (
    Workload("ridge_full",
             "conjugate full-covariance BLR whose time is the per-step certificates",
             {"kind": "ridge", "n": 200, "p": 20},
             {"kind": "blr", "family": "full", "learning_rate": 0.5,
              "max_iter": 40, "estimator": "exact"},
             _check_ridge),
    Workload("logistic_mc",
             "sampled full-covariance BLR with time spread over every BLR layer",
             {"kind": "logistic", "n": 500, "p": 8},
             {"kind": "blr", "family": "full", "learning_rate": 0.3,
              "max_iter": 100, "estimator": "mc", "n_samples": 32},
             _check_logistic),
    Workload("spirals_ivon",
             "IVON on an MLP that bypasses Gaussian families and BLR entirely",
             {"kind": "spirals_mlp", "n": 500, "hidden": [16, 16]},
             {"kind": "ivon", "step_size": 0.3, "steps": 2000, "hess_rate": 3e-3,
              "weight_decay": 1e-2, "ess": 3e4, "batch_size": 100},
             _check_spirals),
)}


def read_trace(path: Path) -> tuple[str, list[list[float]]]:
    """sha256 of trace.csv and its rows as floats; raises CheckFailed if not finite."""
    blob = path.read_bytes()
    rows = []
    for line in blob.decode("utf-8").splitlines()[1:]:
        row = [float(cell) for cell in line.split(",")]
        if not all(math.isfinite(v) for v in row):
            raise CheckFailed(f"non-finite value in trace row {line!r}")
        rows.append(row)
    if not rows:
        raise CheckFailed("trace.csv has no rows")
    return hashlib.sha256(blob).hexdigest(), rows


def check_run(workload: Workload, config: dict, summary: dict, out_dir: Path,
              reference_digest: str | None) -> str:
    """Check one run's outputs; returns the trace digest."""
    digest, rows = read_trace(out_dir / "trace.csv")
    if reference_digest is not None and digest != reference_digest:
        raise CheckFailed("trace.csv differs from the first run of this invocation")
    workload.check(config, summary, rows)
    return digest
