import ast
import collections
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from natvb import blr, deep, expfam, harness, losses
from natvb.cli import main
from natvb.errors import (BayesFilterViolation, DomainError, LeftDomain, SingularFisher,
                          SolverFailure)
from natvb.gaussian import DiagGaussian, FullGaussian
from natvb.harness import (ConfigError, build_model, compare_runs, format_cell,
                           resolve_config, ridge_oracle, run_experiment)
from natvb.losses import check_derivatives
from natvb.models import make_ridge_data, ridge_exact_posterior
from natvb.natgrad import EstimatorSpec

from test_trace_digests import HALVING_CONFIG, PINNED, folded  # noqa: F401 (fixture)

#: the halving config with K=2 fails its Bayes-filter check at step 5 on the
#: folded estimate stream ((seed << 20) ^ t,), which its tests put back
FILTER_FAIL_CONFIG = {**HALVING_CONFIG,
                      "optimizer": {**HALVING_CONFIG["optimizer"], "n_samples": 2}}
#: its partial trace, rows 1-5, as the harness's own loop wrote it
FILTER_FAIL_DIGEST = "aa2c2b72c3a1f1cb3f6f6cef69011ee2c44c817780a4df27fceedfb4f50180ef"


def base_config(**overrides):
    cfg = {
        "schema_version": 1,
        "seed": 42,
        "model": {"kind": "ridge", "n": 20, "p": 3, "data_seed": 7},
        "optimizer": {"kind": "blr", "family": "full", "learning_rate": 1.0,
                      "max_iter": 5, "estimator": "exact"},
    }
    cfg.update(overrides)
    return cfg


# -- config validation ---------------------------------------------------------

def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="unknown keys"):
        resolve_config(base_config(extra=1))
    with pytest.raises(ConfigError, match="unknown keys"):
        resolve_config(base_config(model={"kind": "ridge", "bogus": 2}))
    with pytest.raises(ConfigError, match="unknown keys"):
        resolve_config(base_config(
            optimizer={"kind": "adam", "learning_rate": 0.1}))


def test_schema_version_enforced():
    with pytest.raises(ConfigError, match="schema_version"):
        resolve_config(base_config(schema_version=99))


def test_kind_validation():
    with pytest.raises(ConfigError, match="model kind"):
        resolve_config(base_config(model={"kind": "linear"}))
    with pytest.raises(ConfigError, match="optimizer kind"):
        resolve_config(base_config(optimizer={"kind": "sgd"}))
    with pytest.raises(ConfigError, match="estimator"):
        resolve_config(base_config(optimizer={"kind": "blr", "estimator": "magic"}))


def test_type_checks():
    with pytest.raises(ConfigError, match="must be an integer"):
        resolve_config(base_config(seed="abc"))
    with pytest.raises(ConfigError, match="must be a number"):
        resolve_config(base_config(
            optimizer={"kind": "blr", "learning_rate": "fast"}))


def test_defaults_filled():
    resolved = resolve_config(base_config())
    assert resolved["optimizer"]["tol"] == 1e-9
    assert resolved["output"]["trace"] == "trace.csv"


def _logistic_mc(**optimizer):
    return base_config(model={"kind": "logistic", "n": 30, "p": 2, "data_seed": 3},
                       optimizer={"kind": "blr", "estimator": "mc", "n_samples": 4,
                                  **optimizer})


def test_negative_seeds_rejected():
    for bad in (_logistic_mc() | {"seed": -1},
                base_config(model={"kind": "ridge", "data_seed": -1}),
                base_config(optimizer={"kind": "ivon", "init_seed": -1})):
        with pytest.raises(ConfigError, match="must be >= 0"):
            resolve_config(bad)


def test_cli_run_negative_seed_exit_2(tmp_path, monkeypatch):
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    assert main(["run", write_cfg(tmp_path, _logistic_mc() | {"seed": -1})]) == 2
    assert not (tmp_path / "out").exists()


_LOGISTIC_SMALL = {"kind": "logistic", "n": 30, "p": 2, "data_seed": 3}
_SPIRALS_SMALL = {"kind": "spirals_mlp", "n": 20, "data_seed": 3}


def _seed_configs(seed):
    """One small config per seed key, that key set to seed."""
    return {"seed": base_config(seed=seed),
            "data_seed": base_config(model={"kind": "ridge", "n": 20, "p": 3,
                                            "data_seed": seed}),
            "init_seed": base_config(model=_LOGISTIC_SMALL,
                                     optimizer={"kind": "ivon", "steps": 3,
                                                "init_seed": seed})}


@pytest.mark.parametrize("key", ["seed", "data_seed", "init_seed"])
def test_cli_run_seed_of_2_32_exit_2(key, tmp_path, monkeypatch):
    # SeedSequence splits a seed of 2**32 or more into 32-bit words, so
    # (seed + (tag << 32), t) would draw the per-step stream (seed, tag, t)
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    with pytest.raises(ConfigError, match=f"{key} must be >= 0 and < 2\\*\\*32"):
        resolve_config(_seed_configs(2**32)[key])
    assert main(["run", write_cfg(tmp_path, _seed_configs(2**32)[key])]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["seed", "data_seed", "init_seed"])
def test_cli_run_seed_of_2_32_minus_1_runs(key, tmp_path, monkeypatch):
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    assert main(["run", write_cfg(tmp_path, _seed_configs(2**32 - 1)[key])]) == 0
    assert (tmp_path / "out" / "trace.csv").exists()


@pytest.mark.parametrize("model,optimizer", [
    ({}, {"kind": "blr", "max_iter": 0}),
    ({}, {"kind": "blr", "max_iter": -3}),
    ({}, {"kind": "blr", "n_samples": 0}),
    ({}, {"kind": "blr", "learning_rate": 0.0}),
    ({}, {"kind": "blr", "learning_rate": 2.0}),
    ({}, {"kind": "blr", "max_rate_halvings": -1}),
    ({}, {"kind": "blr", "init_precision": -1.0}),
    ({"n": 0}, {"kind": "blr"}),
    ({"p": 0}, {"kind": "blr"}),
    (_LOGISTIC_SMALL, {"kind": "von", "steps": -1}),
    (_LOGISTIC_SMALL, {"kind": "von", "learning_rate": 2.0}),
    (_LOGISTIC_SMALL, {"kind": "von", "n_samples": 0}),
    (_LOGISTIC_SMALL, {"kind": "von", "init_precision": -1.0}),
    (_LOGISTIC_SMALL, {"kind": "ivon", "steps": -1}),
    (_LOGISTIC_SMALL, {"kind": "ivon", "batch_size": -5}),
    (_LOGISTIC_SMALL, {"kind": "ivon", "ess": 0.0}),
    (_LOGISTIC_SMALL, {"kind": "rmsprop", "scale_rate": 5.0}),
    # IVON's sampling precision is ess * (hess_init + weight_decay) at step 1
    (_LOGISTIC_SMALL, {"kind": "ivon", "hess_init": -1.0}),
    (_LOGISTIC_SMALL, {"kind": "ivon", "weight_decay": -1.0}),
    (_SPIRALS_SMALL | {"hidden": ["a"]}, {"kind": "ivon", "steps": 2}),
    (_SPIRALS_SMALL | {"hidden": [0]}, {"kind": "ivon", "steps": 2}),
    (_LOGISTIC_SMALL, {"kind": "von", "prec_floor": -1e9}),
    (_LOGISTIC_SMALL, {"kind": "ivon", "beta1": 1.0}),
    (_LOGISTIC_SMALL, {"kind": "adam", "beta1": 1.0}),
    (_LOGISTIC_SMALL, {"kind": "adam", "beta1": -0.1}),
    (_LOGISTIC_SMALL, {"kind": "adam", "beta2": 1.0}),
    (_LOGISTIC_SMALL, {"kind": "adam", "step_size": 0.0}),
    (_LOGISTIC_SMALL, {"kind": "ivon", "step_size": -0.3}),
    (_LOGISTIC_SMALL, {"kind": "rmsprop", "damping": -1e-8}),
    (_LOGISTIC_SMALL, {"kind": "ivon", "damping": -1.0}),
    ({"prior_precision": 0.0}, {"kind": "blr"}),
    (_LOGISTIC_SMALL | {"prior_precision": -1.0}, {"kind": "von"}),
    (_SPIRALS_SMALL | {"prior_precision": -1.0}, {"kind": "ivon", "steps": 2}),
    # json reads NaN and Infinity, which every float key refuses, as it
    # does an integer beyond the float range
    (_LOGISTIC_SMALL | {"prior_precision": float("inf")}, {"kind": "blr"}),
    ({}, {"kind": "blr", "init_mean": float("nan")}),
    ({}, {"kind": "blr", "tol": -float("inf")}),
    ({"noise": 10 ** 400}, {"kind": "blr"}),
])
def test_cli_run_out_of_range_values_exit_2(model, optimizer, tmp_path, monkeypatch):
    # rejected with the schema, before the derivative gate or any artifact
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    cfg = base_config(model={"kind": "ridge", "data_seed": 7, **model}, optimizer=optimizer)
    with pytest.raises(ConfigError, match="must be"):
        resolve_config(cfg)
    assert main(["run", write_cfg(tmp_path, cfg)]) == 2
    assert not (tmp_path / "out").exists()


def test_cli_oracle_ridge_rejects_out_of_range_prior(tmp_path):
    cfg = base_config(model={"kind": "ridge", "data_seed": 7, "prior_precision": 0.0})
    assert main(["oracle", "ridge", write_cfg(tmp_path, cfg)]) == 2


@pytest.mark.parametrize("target", ["nope", "laplace"])
def test_cli_oracle_of_an_unknown_target_exits_2(tmp_path, capsys, target):
    # the target is an argparse choice: the command line does not parse
    with pytest.raises(SystemExit) as info:
        main(["oracle", target, write_cfg(tmp_path, base_config())])
    assert info.value.code == 2
    assert f"invalid choice: '{target}'" in capsys.readouterr().err


def test_cli_oracle_ridge_exits_3_on_a_numerically_singular_posterior(tmp_path, capsys):
    # tau > 0 passes the config check, but X'X (rank 1 at n = 1) + 1e-300 I
    # rounds to a singular precision
    cfg = base_config(model={"kind": "ridge", "n": 1, "p": 3, "data_seed": 7,
                             "prior_precision": 1e-300})
    assert main(["oracle", "ridge", write_cfg(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "not numerically positive definite" in err and "Traceback" not in err
    assert err.startswith("domain error during oracle: ")


@pytest.mark.parametrize("optimizer", [{"kind": "blr", "family": "diag",
                                        "estimator": "reparam", "max_iter": 3},
                                       {"kind": "von", "steps": 3}])
def test_cli_run_blr_and_von_need_a_prior_on_the_mlp(optimizer, tmp_path, monkeypatch):
    # the MLP's default prior precision is 0, under which the VB objective is
    # unbounded below; rejected with the schema, before the derivative gate
    gates = []
    monkeypatch.setattr(harness, "check_derivatives", lambda *args: gates.append(1))
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    cfg = base_config(model=_SPIRALS_SMALL, optimizer=optimizer)
    with pytest.raises(ConfigError, match="prior_precision > 0"):
        resolve_config(cfg)
    assert main(["run", write_cfg(tmp_path, cfg)]) == 2
    assert not (tmp_path / "out").exists() and not gates
    cfg["model"] = _SPIRALS_SMALL | {"prior_precision": 0.5}
    assert build_model(resolve_config(cfg)["model"])[1].prior_precision == 0.5


@pytest.mark.parametrize("kind", ["von", "ivon", "adam", "rmsprop"])
def test_cli_run_ridge_has_no_data_to_minibatch(kind, tmp_path, monkeypatch):
    # ridge's loss is one quadratic with no data points: a batch_size is
    # rejected with the schema, before the derivative gate; 0 runs full-data
    gates = []
    monkeypatch.setattr(harness, "check_derivatives", lambda *args: gates.append(1))
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    cfg = base_config(optimizer={"kind": kind, "steps": 5, "batch_size": 5})
    with pytest.raises(ConfigError, match="no data to minibatch"):
        resolve_config(cfg)
    assert main(["run", write_cfg(tmp_path, cfg)]) == 2
    assert not (tmp_path / "out").exists() and not gates
    cfg["optimizer"]["batch_size"] = 0
    assert main(["run", write_cfg(tmp_path, cfg)]) == 0
    assert (tmp_path / "out" / "summary.json").exists()


def test_spirals_without_hidden_layers_is_valid(tmp_path):
    cfg = base_config(model=_SPIRALS_SMALL | {"hidden": []},
                      optimizer={"kind": "ivon", "steps": 2})
    summary = run_experiment(cfg, tmp_path)
    assert summary["iterations"] == 2
    assert build_model(resolve_config(cfg)["model"])[1].layer_sizes == [2, 1]


# -- run_experiment --------------------------------------------------------------

def test_ridge_blr_run_artifacts(tmp_path):
    # a conjugate rate-1 run converges in exactly one reported iteration
    summary = run_experiment(base_config(), tmp_path)
    assert summary["iterations"] == 1
    assert summary["final_residual"] <= 1e-10
    assert summary["rng_algorithm"] == "philox4x64"
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,rho,objective,residual"
    assert len(trace) == summary["iterations"] + 1
    sidecar = json.loads((tmp_path / "config.used.json").read_text())
    assert sidecar["optimizer"]["tol"] == 1e-9
    saved = json.loads((tmp_path / "summary.json").read_text())
    assert saved["config_hash"] == summary["config_hash"]


def test_rate_one_reports_single_productive_iteration(tmp_path):
    summary = run_experiment(base_config(), tmp_path)
    rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    assert len(rows) == 1
    t, _, _, residual = rows[0].split(",")
    assert t == "1" and float(residual) <= 1e-10


def test_von_run_deterministic_byte_for_byte(tmp_path):
    cfg = base_config(
        model={"kind": "logistic", "n": 60, "p": 2, "data_seed": 21},
        optimizer={"kind": "von", "learning_rate": 0.1, "steps": 40,
                   "n_samples": 4})
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    assert ((tmp_path / "a" / "trace.csv").read_bytes()
            == (tmp_path / "b" / "trace.csv").read_bytes())


def test_sidecar_replay_reproduces_trace(tmp_path):
    cfg = base_config(
        model={"kind": "logistic", "n": 60, "p": 2, "data_seed": 5},
        optimizer={"kind": "ivon", "steps": 30, "step_size": 0.1, "ess": 100.0})
    run_experiment(cfg, tmp_path / "a")
    sidecar = json.loads((tmp_path / "a" / "config.used.json").read_text())
    run_experiment(sidecar, tmp_path / "b")
    assert ((tmp_path / "a" / "trace.csv").read_bytes()
            == (tmp_path / "b" / "trace.csv").read_bytes())


def test_adam_and_rmsprop_runners(tmp_path):
    for kind in ("adam", "rmsprop"):
        cfg = base_config(
            model={"kind": "logistic", "n": 60, "p": 2, "data_seed": 3},
            optimizer={"kind": kind, "steps": 50, "step_size": 0.05},
            output={"trace": f"{kind}.csv", "summary": f"{kind}.json",
                    "config": f"{kind}.used.json"})
        summary = run_experiment(cfg, tmp_path)
        rows = (tmp_path / f"{kind}.csv").read_text().splitlines()
        assert len(rows) == 52  # header + initial row + 50 steps
        assert summary["final_loss"] < float(rows[1].split(",")[1])


def test_compare_emits_joint_csv(tmp_path):
    joint = compare_runs(
        base_config(),
        base_config(optimizer={"kind": "blr", "family": "full",
                               "learning_rate": 0.5, "max_iter": 30,
                               "estimator": "exact"}),
        tmp_path)
    lines = joint.read_text().splitlines()
    assert lines[0].startswith("step,a_rho")
    assert "b_rho" in lines[0]
    assert len(lines) > 2


def test_compare_joins_rows_on_each_trace_step(tmp_path):
    # BLR's trace starts at t = 1, Adam's at step 0
    joint = compare_runs(base_config(), base_config(optimizer={"kind": "adam", "steps": 3}),
                         tmp_path)
    lines = [line.split(",") for line in joint.read_text().splitlines()]

    def by_step(name):
        rows = (tmp_path / name).read_text().splitlines()[1:]
        return {row.split(",")[0]: row.split(",")[1:] for row in rows}

    blr_rows, adam_rows = by_step("a.trace.csv"), by_step("b.trace.csv")
    assert "0" not in blr_rows and "0" in adam_rows
    assert [line[0] for line in lines[1:]] == sorted({*blr_rows, *adam_rows}, key=int)
    for step, *cells in lines[1:]:
        assert cells == blr_rows.get(step, [""] * 3) + adam_rows.get(step, [""] * 4)


def _count_estimates(monkeypatch):
    steps = []
    original = blr.estimate_natgrad

    def counting(*args, **kwargs):
        steps.append(kwargs["step"])
        return original(*args, **kwargs)

    monkeypatch.setattr(blr, "estimate_natgrad", counting)
    return steps


RIDGE_CONVERGES = base_config(optimizer={"kind": "blr", "family": "full",
                                         "learning_rate": 0.5, "max_iter": 60,
                                         "estimator": "exact"})
BLR_CONFIGS = pytest.mark.parametrize("config", [RIDGE_CONVERGES, HALVING_CONFIG],
                                      ids=["ridge_converges", "reparam_halvings"])


def _library_run(config, **overrides):
    """blr_run on the model, family, start and rate of a harness config."""
    resolved = resolve_config(config)
    opt = resolved["optimizer"]
    _, loss = build_model(resolved["model"])
    mean0 = np.full(loss.dim, opt["init_mean"])
    if opt["family"] == "full":
        family = FullGaussian(loss.dim)
        lam0 = family.from_moment(mean0, opt["init_precision"] * np.eye(loss.dim))
    else:
        family = DiagGaussian(loss.dim)
        lam0 = family.from_moment(mean0, np.full(loss.dim, opt["init_precision"]))
    spec = EstimatorSpec(opt["estimator"], opt["n_samples"], resolved["seed"])
    cfg = blr.BLRConfig(opt["learning_rate"], opt["max_iter"], opt["tol"], spec,
                        **overrides)
    return blr.blr_run(family, lam0, loss, cfg)


def _trace_lines(rows):
    return [",".join(format_cell(cell) for cell in row) for row in rows]


@pytest.mark.parametrize("value, cell", [
    (0.1, "0.1"), (np.float64(0.1), "0.1"), (np.float32(0.1), "0.10000000149011612"),
    (np.float64(-1e300), "-1e+300"), (3, "3"), (True, "True"),
])
def test_format_cell_writes_every_float_in_shortest_round_trip_form(value, cell):
    # np.float64 subclasses float, and under numpy 2 its repr names the type
    assert format_cell(value) == cell


@pytest.mark.parametrize("config,via", [
    (RIDGE_CONVERGES, "run_experiment"), (HALVING_CONFIG, "run_experiment"),
    (RIDGE_CONVERGES, "blr_run"), (HALVING_CONFIG, "blr_run"),
], ids=["ridge_converges", "reparam_halvings",
        "blr_run-ridge_converges", "blr_run-reparam_halvings"])
def test_blr_run_estimates_once_per_iterate(config, via, tmp_path, monkeypatch):
    # the residual at an iterate, the step from it and that step's rate
    # halvings share one estimate
    steps = _count_estimates(monkeypatch)
    if via == "blr_run":
        iterations = _library_run(config).state.t
    else:
        iterations = run_experiment(config, tmp_path)["iterations"]
    assert steps == list(range(iterations + 1))


@BLR_CONFIGS
def test_blr_run_rows_are_the_trace_rows_bitwise(config, tmp_path):
    run = _library_run(config)
    summary = run_experiment(config, tmp_path)
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[1:] == _trace_lines(run.trace)
    assert (summary["iterations"], summary["converged"], summary["final_residual"]) \
        == (run.state.t, run.converged, run.trace[-1].residual)


def test_blr_run_without_halvings_leaves_the_domain():
    # the halving config's second step needs rate 0.5 (LOOPED_ROWS)
    with pytest.raises(LeftDomain, match="after 0 halvings") as excinfo:
        _library_run(HALVING_CONFIG, max_rate_halvings=0)
    assert [row.t for row in excinfo.value.partial_trace] == [1]


@pytest.mark.usefixtures("folded")
def test_blr_run_filter_violation_carries_partial_rows(tmp_path):
    with pytest.raises(BayesFilterViolation, match="at step 5") as excinfo:
        _library_run(FILTER_FAIL_CONFIG)
    rows = excinfo.value.partial_trace
    assert [row.t for row in rows] == [1, 2, 3, 4, 5]
    with pytest.raises(BayesFilterViolation, match="at step 5"):
        run_experiment(FILTER_FAIL_CONFIG, tmp_path)
    trace = (tmp_path / "trace.csv").read_bytes()
    assert trace.decode().splitlines()[1:] == _trace_lines(rows)
    assert hashlib.sha256(trace).hexdigest() == FILTER_FAIL_DIGEST


def test_ridge_oracle_matches_library_oracle():
    cfg = base_config()
    oracle = ridge_oracle(cfg)
    model = make_ridge_data(7, 20, 3)
    mean, precision = ridge_exact_posterior(model)
    np.testing.assert_allclose(oracle["mean"], mean, rtol=1e-12)
    np.testing.assert_allclose(oracle["precision"], precision, rtol=1e-12)


# -- CLI exit codes ----------------------------------------------------------------

def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_run_success(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    code = main(["run", write_cfg(tmp_path, base_config())])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["final_residual"] <= 1e-10


def test_cli_run_config_error_exit_2(tmp_path, monkeypatch):
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    bad = base_config(model={"kind": "ridge", "bogus": 1})
    assert main(["run", write_cfg(tmp_path, bad)]) == 2
    assert not (tmp_path / "out" / "trace.csv").exists()


def _without(key):
    cfg = base_config()
    del cfg[key]
    return cfg


@pytest.mark.parametrize("command,cfg,named", [
    ("run", [base_config()], "config"),
    ("run", _without("schema_version"), "config: ['schema_version']"),
    ("run", _without("model"), "config: ['model']"),
    ("run", _without("optimizer"), "config: ['optimizer']"),
    ("run", base_config(model=["ridge"]), "config.model"),
    ("run", base_config(optimizer="blr"), "config.optimizer"),
    ("run", base_config(output=["trace.csv"]), "config.output"),
    ("run", base_config(output={"trace": 3}), "output.trace"),
    ("run", base_config(model=_SPIRALS_SMALL | {"hidden": 16},
                        optimizer={"kind": "ivon", "steps": 2}), "model(spirals_mlp).hidden"),
    ("run", base_config(optimizer={"kind": "blr", "family": "dense"}), "family"),
    ("oracle", base_config(model=_LOGISTIC_SMALL), "ridge model"),
    ("oracle", base_config(model=[1]), "config.model"),
])
def test_cli_malformed_config_exits_2_naming_the_key(command, cfg, named, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    argv = ["oracle", "ridge"] if command == "oracle" else [command]
    assert main(argv + [write_cfg(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


_DIFFERENT_FILES = "output.trace, output.summary and output.config must name different files"


@pytest.mark.parametrize("output,named", [
    ({"trace": ""}, "output.trace"),
    ({"trace": "."}, "output.trace"),
    ({"summary": "sub/"}, "output.summary"),
    ({"config": "sub/."}, "output.config"),
    ({"trace": "../trace.csv"}, "output.trace"),
    ({"trace": "sub/../trace.csv"}, "output.trace"),
    ({"trace": "{tmp}/trace.csv"}, "output.trace"),
    ({"trace": "t\0.csv"}, "output.trace"),
    ({"trace": "same.json", "summary": "same.json"}, _DIFFERENT_FILES),
    ({"trace": "t.csv", "config": "./t.csv"}, _DIFFERENT_FILES),
    ({"summary": "x", "config": "x/c.json"}, _DIFFERENT_FILES),
])
def test_output_names_that_would_lose_output_are_rejected(output, named, tmp_path,
                                                          monkeypatch):
    # found with the schema, before the derivative gate, not after the run
    gates = []
    monkeypatch.setattr(harness, "check_derivatives", lambda *args: gates.append(1))
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    cfg = base_config(output={key: name.format(tmp=tmp_path) for key, name in output.items()})
    with pytest.raises(ConfigError, match=re.escape(named)):
        resolve_config(cfg)
    assert main(["run", write_cfg(tmp_path, cfg)]) == 2
    assert not (tmp_path / "out").exists() and not gates


def test_output_names_may_be_nested_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    cfg = base_config(output={"trace": "sub/t.csv", "summary": "./s.json"})
    assert main(["run", write_cfg(tmp_path, cfg)]) == 0
    for name in ("sub/t.csv", "s.json", "config.used.json"):
        assert (tmp_path / "out" / name).is_file()


def test_cli_run_refuses_two_configs_sharing_an_absolute_trace(tmp_path, monkeypatch):
    # each config alone is fine at the parent; together the second run's
    # trace would replace the first's, outside $NATVB_OUTDIR
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    shared = str(tmp_path / "shared.csv")
    paths = [write_cfg(tmp_path, base_config(seed=seed, output={"trace": shared}),
                       f"{name}.json") for name, seed in (("a", 1), ("b", 2))]
    assert main(["run", *paths]) == 2
    assert not (tmp_path / "shared.csv").exists() and not (tmp_path / "out").exists()


def test_cli_run_separates_configs_whose_artifacts_nest(tmp_path, monkeypatch):
    # a's trace "x" is a file where b's summary "x/s.json" needs a directory
    out = tmp_path / "out"
    monkeypatch.setenv("NATVB_OUTDIR", str(out))
    configs = {"a": base_config(output={"trace": "x", "summary": "a.json",
                                        "config": "a.used.json"}),
               "b": base_config(seed=43, output={"trace": "b.csv", "summary": "x/s.json",
                                                 "config": "b.used.json"})}
    paths = [write_cfg(tmp_path, cfg, f"{name}.json") for name, cfg in configs.items()]
    assert main(["run", *paths]) == 0
    assert (out / "a" / "x").is_file() and (out / "b" / "x" / "s.json").is_file()


class _RecordingPool:
    """A ProcessPoolExecutor stand-in that records max_workers and starts no process."""

    sizes: list = []

    def __init__(self, max_workers=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs,code,workers", [("2", 0, [2]), ("64", 0, [2]), ("1", 0, []),
                                               ("0", 2, []), ("-3", 2, [])])
def test_cli_run_jobs_caps_the_pool_at_the_number_of_configs(jobs, code, workers, tmp_path,
                                                             monkeypatch, capsys):
    import concurrent.futures

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    paths = [write_cfg(tmp_path, base_config(seed=seed), f"{name}.json")
             for name, seed in (("a", 1), ("b", 2))]
    assert main(["run", *paths, "--jobs", jobs]) == code
    assert _RecordingPool.sizes == workers
    if code == 2:
        assert capsys.readouterr().err.startswith("config error: --jobs must be >= 1")
    assert (tmp_path / "out" / "b" / "trace.csv").is_file() == (code == 0)


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("outdir", ["a_file", "a_file/sub"])
def test_cli_unusable_output_directory_exits_2_before_the_gate(command, outdir, tmp_path,
                                                                monkeypatch, capsys):
    # a path through a regular file: found before the derivative gate and
    # the loop, not when the trace is written
    (tmp_path / "a_file").write_text("")
    called = []

    def never(*args, **kwargs):
        called.append(args)
        raise AssertionError("ran with an unusable output directory")

    for name in ("check_derivatives", "_blr_runner", "_deep_runner"):
        monkeypatch.setattr(harness, name, never)
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / outdir))
    path = write_cfg(tmp_path, base_config())
    assert main([command, path] + ([path] if command == "compare" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot use output directory {tmp_path / outdir}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert called == []


@pytest.mark.parametrize("output, make, why", [
    # a component longer than the file system's name limit
    ({"trace": "x" * 300 + ".csv"}, None, "File name too long"),
    ({"summary": "sub"}, lambda out: (out / "sub").mkdir(), "it is a directory"),
    ({"summary": "sub/s.json"}, lambda out: (out / "sub").write_text(""), "File exists"),
])
def test_cli_unwritable_artifact_exits_2_before_the_gate(output, make, why, tmp_path,
                                                         monkeypatch, capsys):
    # found when the run starts, not after the whole run when it is written
    out = tmp_path / "out"
    out.mkdir()
    if make is not None:
        make(out)
    before = sorted(out.rglob("*"))
    gates = []
    monkeypatch.setattr(harness, "check_derivatives", lambda *args: gates.append(args))
    monkeypatch.setenv("NATVB_OUTDIR", str(out))
    assert main(["run", write_cfg(tmp_path, base_config(output=output))]) == 2
    (name,) = output.values()
    err = capsys.readouterr().err
    assert err == f"config error: cannot write output {out / name}: {why}\n"
    assert gates == []
    assert sorted(out.rglob("*")) == before


def test_cli_run_malformed_json_exit_2(tmp_path, monkeypatch):
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    # more digits than Python's int parsing takes
    path.write_text('{"schema_version": ' + "9" * 5000 + "}")
    assert main(["run", str(path)]) == 2


def test_cli_run_domain_error_exit_3_partial_trace(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    cfg = base_config(
        model={"kind": "logistic", "n": 30, "p": 2, "data_seed": 3},
        optimizer={"kind": "von", "learning_rate": 0.1, "steps": 10,
                   "n_samples": 2, "prec_floor": 100.0})
    assert main(["run", write_cfg(tmp_path, cfg)]) == 3
    assert capsys.readouterr().err.startswith("domain error during run: ")
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("step,")  # partial trace flushed
    assert not (tmp_path / "out" / "summary.json").exists()


def _domain_exit_alone(capsys, argv) -> None:
    """main(argv) exits 3 with its one stderr line and no RuntimeWarning."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("domain error during run: "), err


def test_cli_deep_run_stops_before_a_non_finite_row(tmp_path, monkeypatch, capsys):
    # a precision of 1e-320 samples at scale 1e160: the loss overflows at step 1
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    cfg = base_config(model={"kind": "logistic", "n": 40, "p": 3},
                      optimizer={"kind": "von", "steps": 3, "n_samples": 2,
                                 "init_precision": 1e-320})
    _domain_exit_alone(capsys, ["run", write_cfg(tmp_path, cfg)])
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert len(trace) == 2 and trace[0].startswith("step,") and trace[1].startswith("0,")
    assert not (tmp_path / "out" / "summary.json").exists()


def test_cli_ivon_run_stops_before_a_non_finite_row(tmp_path, monkeypatch, capsys):
    # h = 1e-300 with no prior precision: the retraction's (h - h_est)^2 / h
    # overflows, and the step-2 row's scale range is infinite
    ivon = {"kind": "ivon", "hess_init": 1e-300, "weight_decay": 0.0, "ess": 1.0}
    model = {"kind": "logistic", "n": 40, "p": 3}
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "short"))
    short = base_config(model=model, optimizer={**ivon, "steps": 1})
    assert main(["run", write_cfg(tmp_path, short, "short.json")]) == 0
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    cfg = base_config(model=model, optimizer={**ivon, "steps": 4})
    _domain_exit_alone(capsys, ["run", write_cfg(tmp_path, cfg)])
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    # exactly the rows before it: those of a run that stops one step short
    assert len(trace) == 3 and trace[2].startswith("1,")
    assert trace == (tmp_path / "short" / "trace.csv").read_text().splitlines()
    assert not (tmp_path / "out" / "summary.json").exists()


def test_cli_deep_run_whose_summary_fails_keeps_every_row(tmp_path, monkeypatch):
    # every step succeeds (there are none), then the summary's from_moment
    # rejects the precision 1e-320: exit 3 with the initial row still written
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    cfg = base_config(model={"kind": "logistic", "n": 40, "p": 3},
                      optimizer={"kind": "von", "steps": 0, "init_precision": 1e-320})
    assert main(["run", write_cfg(tmp_path, cfg)]) == 3
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert len(trace) == 2
    assert trace[0] == "step,loss,grad_norm,scale_min,scale_max"
    assert trace[1].startswith("0,")
    assert not (tmp_path / "out" / "summary.json").exists()


_TABLE_MODELS = {"ridge": {"kind": "ridge", "n": 12, "p": 2, "data_seed": 3},
                 "logistic": {"kind": "logistic", "n": 30, "p": 2, "data_seed": 3},
                 "spirals_mlp": {"kind": "spirals_mlp", "n": 20, "hidden": [2],
                                 "data_seed": 3, "prior_precision": 1.0}}
#: (model, family, estimator) configs no BLR run can serve: reparam needs a
#: diagonal family, exact needs a loss linear in T or closed-form
#: expectations, delta and mc the family's Hessian, and the MLP has none
_UNSUPPORTED = {("ridge", "full", "reparam"),
                ("logistic", "full", "exact"), ("logistic", "diag", "exact"),
                ("logistic", "full", "reparam"),
                *(("spirals_mlp", family, estimator)
                  for family in ("full", "diag")
                  for estimator in ("exact", "delta", "mc", "reparam")
                  if (family, estimator) != ("diag", "reparam"))}


@pytest.mark.parametrize("estimator", ["exact", "delta", "mc", "reparam"])
@pytest.mark.parametrize("family", ["full", "diag"])
@pytest.mark.parametrize("model", sorted(_TABLE_MODELS))
def test_cli_run_blr_support_table(model, family, estimator, tmp_path, monkeypatch):
    # a combination no run can serve exits 2 before the derivative gate, with
    # nothing written; every other one runs
    gates = []

    def counted_gate(loss, points):
        gates.append(1)
        return check_derivatives(loss, points)

    monkeypatch.setattr(harness, "check_derivatives", counted_gate)
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    cfg = base_config(model=_TABLE_MODELS[model],
                      optimizer={"kind": "blr", "family": family, "max_iter": 3,
                                 "estimator": estimator, "n_samples": 2})
    unsupported = (model, family, estimator) in _UNSUPPORTED
    assert main(["run", write_cfg(tmp_path, cfg)]) == (2 if unsupported else 0)
    assert (tmp_path / "out").exists() != unsupported
    assert len(gates) == (0 if unsupported else 1)


@pytest.mark.parametrize("family", ["diag", "full"])
def test_cli_run_non_finite_estimate_exit_3_partial_trace(family, tmp_path, monkeypatch):
    # precision 1e-320 makes q's variance overflow, so from_moment rejects
    # the initial iterate: a domain error, with the trace header flushed
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    cfg = base_config(model={"kind": "logistic", "n": 40, "p": 3, "data_seed": 3},
                      optimizer={"kind": "blr", "family": family, "estimator": "mc",
                                 "n_samples": 2, "init_precision": 1e-320})
    assert main(["run", write_cfg(tmp_path, cfg)]) == 3
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert trace == ["t,rho,objective,residual"]
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.usefixtures("folded")
def test_filter_violation_flushes_partial_trace(tmp_path, monkeypatch, capsys):
    with pytest.raises(BayesFilterViolation, match="at step 5"):
        run_experiment(FILTER_FAIL_CONFIG, tmp_path / "lib")
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    assert main(["run", write_cfg(tmp_path, FILTER_FAIL_CONFIG)]) == 4
    assert capsys.readouterr().err.startswith(
        "certificate failure during run: Bayes-filter form violated at step 5")
    for out in (tmp_path / "lib", tmp_path / "out"):
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "t,rho,objective,residual"
        assert [row.split(",")[0] for row in trace[1:]] == ["1", "2", "3", "4", "5"]
        assert not (out / "summary.json").exists()


@pytest.mark.parametrize("error", [SolverFailure, SingularFisher])
def test_cross_check_failure_exit_4_partial_trace(error, tmp_path, monkeypatch):
    # the Fisher solve at the third iterate of every run is corrupted, off
    # by one (SolverFailure) or not finite (SingularFisher); the cross-check
    # at that third checked iterate fails, after two rows
    corruption = 1.0 if error is SolverFailure else np.nan
    third = []
    step_at_rate = blr._step_at_rate

    def tagging(state, *args):
        new = step_at_rate(state, *args)
        if new.t == 3:
            third.append(new.lam)
        return new

    fisher_solve = FullGaussian.fisher_solve

    def corrupting(self, lam, w):
        solved = fisher_solve(self, lam, w)
        for row, x in zip(solved, lam):
            if any(x is y for y in third):
                row += corruption
        return solved

    monkeypatch.setattr(blr, "_step_at_rate", tagging)
    monkeypatch.setattr(FullGaussian, "fisher_solve", corrupting)
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    cfg = base_config(optimizer={"kind": "blr", "family": "full", "learning_rate": 0.5,
                                 "max_iter": 10, "estimator": "exact"})
    with pytest.raises(error) as excinfo:
        run_experiment(cfg, tmp_path / "lib")
    assert [row.t for row in excinfo.value.partial_trace] == [1, 2]
    assert main(["run", write_cfg(tmp_path, cfg)]) == 4
    assert main(["compare", write_cfg(tmp_path, cfg), write_cfg(tmp_path, cfg)]) == 4
    for name in ("trace.csv", "a.trace.csv"):
        assert len((tmp_path / "out" / name).read_text().splitlines()) == 1 + 2
    assert not (tmp_path / "out" / "summary.json").exists()


def test_deep_domain_error_writes_rows_before_it(tmp_path, monkeypatch):
    # deep.train hands its rows over as blr_run does: rows 0-2 were recorded
    # before IVON's step from t = 2 failed
    original = deep.ivon_step

    def failing_at_two(state, *args, **kwargs):
        if state.t == 2:
            raise DomainError("injected")
        return original(state, *args, **kwargs)

    monkeypatch.setattr(deep, "ivon_step", failing_at_two)
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    cfg = base_config(optimizer={"kind": "ivon", "steps": 5})
    with pytest.raises(DomainError, match="injected"):
        run_experiment(cfg, tmp_path / "lib")
    assert main(["run", write_cfg(tmp_path, cfg)]) == 3
    for out in (tmp_path / "lib", tmp_path / "out"):
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "step,loss,grad_norm,scale_min,scale_max"
        assert [row.split(",")[0] for row in trace[1:]] == ["0", "1", "2"]
        assert not (out / "summary.json").exists()


def test_cli_verify_scope_and_sabotage():
    assert main(["verify", "--scope", "conjugate"]) == 0
    assert main(["verify", "--scope", "entropy", "--sabotage", "eq4"]) == 1
    assert main(["verify", "--scope", "nope"]) == 2
    assert main(["verify", "--sabotage", "nope"]) == 2


def test_verify_passes_a_sabotage_id_to_its_own_check_alone(monkeypatch, capsys):
    from natvb import verify

    names = [name for name, _, _ in verify.CHECKS]
    assert set(verify.SABOTAGE_IDS.values()) <= set(names)
    calls = []

    def spy(name):
        def check(*args):
            calls.append((name, args))
            return True, "spied"
        return check

    monkeypatch.setattr(verify, "CHECKS", [(n, s, spy(n)) for n, s, _ in verify.CHECKS])
    for sabotage, target in verify.SABOTAGE_IDS.items():
        calls.clear()
        verify.run_verify(sabotage=sabotage)
        assert calls == [(n, (sabotage,) if n == target else ()) for n in names]
    calls.clear()
    verify.run_verify()
    assert calls == [(n, ()) for n in names]


def test_verify_fails_a_check_whose_error_is_nan(monkeypatch):
    # Python's max(worst, nan) keeps worst, which would pass the check
    from natvb import verify

    for family in (DiagGaussian, FullGaussian):
        monkeypatch.setattr(family, "dual_to_natural",
                            lambda self, mu: np.full(len(mu), np.nan))
    passed, message = verify.check_duality_roundtrip()
    assert not passed and message.startswith("max_rel_err=nan")


def test_python_m_natvb_runs_the_cli(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-m", "natvb", "verify", "--scope", "seeding"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "1 checks, 0 failures"


def test_cli_verify_whole_table_passes(capsys):
    # multiplicative-form and von-blr run blr_run and VON's sampled core
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS") for line in lines) == 16
    assert any(line.startswith("PASS  step-streams [seeding]") for line in lines)
    assert lines[-1] == "16 checks, 0 failures"


def test_cli_compare_and_oracle(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    a = write_cfg(tmp_path, base_config(), "a.json")
    b = write_cfg(tmp_path, base_config(seed=43), "b.json")
    assert main(["compare", a, b]) == 0
    capsys.readouterr()
    assert main(["oracle", "ridge", a]) == 0
    posterior = json.loads(capsys.readouterr().out)
    assert len(posterior["mean"]) == 3


def test_cli_run_jobs_parallel(tmp_path, monkeypatch):
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    a = write_cfg(tmp_path, base_config(
        output={"trace": "a.csv", "summary": "a.json", "config": "a.used.json"}),
        "a.json")
    b = write_cfg(tmp_path, base_config(
        seed=99,
        output={"trace": "b.csv", "summary": "b.json", "config": "b.used.json"}),
        "b.json")
    assert main(["run", a, b, "--jobs", "2"]) == 0
    assert (tmp_path / "out" / "a.csv").exists()
    assert (tmp_path / "out" / "b.csv").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_run_several_configs_keeps_every_artifact(tmp_path, monkeypatch, jobs):
    out = tmp_path / "out"
    monkeypatch.setenv("NATVB_OUTDIR", str(out))
    configs = {"a": base_config(),
               "b": base_config(seed=43, model={"kind": "ridge", "n": 20, "p": 3,
                                                "data_seed": 8})}
    paths = [write_cfg(tmp_path, cfg, f"{name}.json") for name, cfg in configs.items()]
    assert main(["run", *paths, "--jobs", jobs]) == 0
    assert not (out / "trace.csv").exists()
    for name, cfg in configs.items():
        assert json.loads((out / name / "summary.json").read_text())["seed"] == cfg["seed"]
        assert json.loads((out / name / "config.used.json").read_text())["seed"] == cfg["seed"]
    traces = [(out / name / "trace.csv").read_bytes() for name in configs]
    assert traces[0] != traces[1]
    # running them again would overwrite: refused before anything runs
    assert main(["run", *paths]) == 2
    assert [(out / name / "trace.csv").read_bytes() for name in configs] == traces


def test_cli_run_refuses_same_named_colliding_configs(tmp_path, monkeypatch):
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    (tmp_path / "x").mkdir()
    (tmp_path / "y").mkdir()
    a = write_cfg(tmp_path / "x", base_config(), "cfg.json")
    b = write_cfg(tmp_path / "y", base_config(seed=43), "cfg.json")
    assert main(["run", a, b]) == 2
    assert not (tmp_path / "out").exists()


# -- the runners only adapt --------------------------------------------------------

_TRY_NODES = tuple(getattr(ast, name) for name in ("Try", "TryStar") if hasattr(ast, name))


def _hand_off_drift(func: ast.FunctionDef) -> list[str]:
    """What in a runner would take over run_experiment's failure hand-off."""
    found = [f"try at line {node.lineno}" for node in ast.walk(func)
             if isinstance(node, _TRY_NODES)]
    params = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
    found += [f"parameter {arg.arg}" for arg in params if arg.arg == "out"]
    return found


def test_hand_off_scan_sees_try_and_out():
    def scan(code):
        return _hand_off_drift(ast.parse(code).body[0])

    assert scan("def r(resolved, loss, out):\n    pass") == ["parameter out"]
    assert scan("def r(resolved, loss, *, out=None):\n    pass") == ["parameter out"]
    nested = ("def r(resolved, loss):\n    def s():\n        try:\n            pass\n"
              "        finally:\n            pass\n    return [], s")
    assert scan(nested) == ["try at line 3"]
    assert scan("def r(resolved, loss):\n    rows = out = []\n    return rows, None") == []


@pytest.mark.parametrize("name", ["_blr_runner", "_deep_runner"])
def test_runners_leave_the_failure_hand_off_to_run_experiment(name):
    # a runner returns (rows, summary builder); the loops hand over a failed
    # run's rows as partial_trace, which run_experiment alone writes
    func = ast.parse(inspect.getsource(getattr(harness, name))).body[0]
    assert _hand_off_drift(func) == []


# -- work counts -----------------------------------------------------------------

def test_pinned_ridge_run_does_each_piece_of_work_once(tmp_path, monkeypatch):
    # the counts a run of one pinned config makes: a change that brings
    # back a repeated T(probes), a log density or a per-point loss call
    # in the finite differences fails here
    counts = collections.Counter()
    scopes = []

    def spy(owner, name, scope=False):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name, scopes[-1] if scopes else None] += 1
            if scope:
                scopes.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                if scope:
                    scopes.pop()

        monkeypatch.setattr(owner, name, wrapper)

    spy(harness, "check_derivatives", scope=True)
    spy(losses, "central_diff_batch", scope=True)
    spy(losses.LossModel, "axis_values", scope=True)
    spy(harness, "blr_run", scope=True)
    spy(blr, "probe_stats", scope=True)
    spy(blr, "filter_spreads")
    spy(blr, "natgrad_via_dual")
    spy(FullGaussian, "sufficient_stats_batch")
    spy(expfam.ExpFamily, "log_density")
    for name in ("value", "gradient", "value_batch", "gradient_batch"):
        spy(losses.QuadraticLoss, name)
    config, _ = PINNED["blr_full_exact_ridge"]
    run_experiment(config, tmp_path)
    checks = counts["probe_stats", "blr_run"]
    assert checks >= 10
    # one T(probes) per Bayes-filter check, and none anywhere else
    assert counts["sufficient_stats_batch", "probe_stats"] == checks
    # the run's steps fit one block: one stacked gap and one stacked
    # cross-check for all of them
    assert counts["filter_spreads", "blr_run"] == 1
    assert counts["natgrad_via_dual", "blr_run"] == 1
    assert sum(n for (name, _), n in counts.items()
               if name == "sufficient_stats_batch") == checks
    # no log density anywhere in the run, the BLR loop included
    assert sum(n for (name, _), n in counts.items() if name == "log_density") == 0
    # the gate differences two probes through one batched call each (the
    # default axis_values for the gradient, central_diff_batch for the
    # Hessian), and makes per-point calls only in the override checks'
    # reference loops and for the analytic gradient at each probe
    assert counts["value_batch", "axis_values"] == 2
    assert counts["value_batch", "central_diff_batch"] == 0
    assert counts["gradient_batch", "central_diff_batch"] == 2
    assert counts["value", "axis_values"] == 0
    assert counts["value", "central_diff_batch"] == 0
    assert counts["gradient", "central_diff_batch"] == 0
    assert counts["value", "check_derivatives"] == 2
    assert counts["gradient", "check_derivatives"] == 2 + 2
