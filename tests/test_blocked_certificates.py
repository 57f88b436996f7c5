"""blr_run checks its certificates a block of steps at a time.

The reference here is the loop that checks each step's Bayes-filter
form and inverse-Fisher cross-check as it takes the step. Blocked runs
must give its Bayes-filter spreads bit for bit, and under every injected failure the
same exception, message, partial trace and `natvb run` exit code.
"""

import copy
import json

import numpy as np
import pytest

from natvb import blr, natgrad
from natvb._linalg import row_norms
from natvb.blr import BLRConfig, BLRTraceRow
from natvb.cli import main
from natvb.errors import (CERTIFICATE_ERRORS, BayesFilterViolation, DomainError,
                          LeftDomain, SingularFisher, SolverFailure)
from natvb.gaussian import DiagGaussian, FullGaussian
from natvb.harness import build_model, resolve_config, run_experiment
from natvb.natgrad import EstimatorSpec, natgrad_via_dual
from natvb.seeding import ESTIMATE_STREAM, StepStreams
from natvb.verify import check_multiplicative_form

from conftest import random_lam
from test_trace_digests import HALVING_CONFIG


def _config(model, optimizer, seed=1):
    return {"schema_version": 1, "seed": seed, "model": {**model, "data_seed": seed},
            "optimizer": optimizer}


#: the benchmark's two BLR workloads at seed 1
RIDGE_FULL = _config({"kind": "ridge", "n": 200, "p": 20},
                     {"kind": "blr", "family": "full", "learning_rate": 0.5,
                      "max_iter": 40, "estimator": "exact"})
LOGISTIC_MC = _config({"kind": "logistic", "n": 500, "p": 8},
                      {"kind": "blr", "family": "full", "learning_rate": 0.3,
                       "max_iter": 100, "estimator": "mc", "n_samples": 32})
#: a short ridge run that neither converges nor leaves the domain in 12 steps
RIDGE_SHORT = _config({"kind": "ridge", "n": 20, "p": 3},
                      {"kind": "blr", "family": "full", "learning_rate": 0.5,
                       "max_iter": 12, "estimator": "exact"})
#: a valid logistic run whose Bayes-filter spread reaches 2.980e-08 at step 16
LOGISTIC_DIAG_REPARAM = {"schema_version": 1, "seed": 1,
                         "model": {"kind": "logistic", "n": 200, "p": 5, "data_seed": 0},
                         "optimizer": {"kind": "blr", "family": "diag", "learning_rate": 1.0,
                                       "max_iter": 20, "estimator": "reparam",
                                       "n_samples": 2}}


def _inputs(config):
    """(family, lam0, loss, cfg) as the harness builds them for a BLR config."""
    resolved = resolve_config(config)
    opt = resolved["optimizer"]
    _, loss = build_model(resolved["model"])
    full = opt["family"] == "full"
    family = (FullGaussian if full else DiagGaussian)(loss.dim)
    precision = opt["init_precision"] * (np.eye(loss.dim) if full else np.ones(loss.dim))
    lam0 = family.from_moment(np.full(loss.dim, opt["init_mean"]), precision)
    spec = EstimatorSpec(opt["estimator"], opt["n_samples"], resolved["seed"])
    cfg = BLRConfig(opt["learning_rate"], opt["max_iter"], opt["tol"], spec,
                    opt["max_rate_halvings"])
    return family, lam0, loss, cfg


def _stepwise_run(family, lam0, loss, cfg):
    """blr_run's loop with each step's certificates checked as it is taken:
    (trace, Bayes-filter spreads), or the first failure with partial_trace."""
    spec = cfg.estimator
    trace, spreads = [], []
    deterministic = spec.kind in ("exact", "delta")
    streams = None if deterministic else StepStreams(spec.seed, *ESTIMATE_STREAM)

    def estimate_at(state):
        rng = None if streams is None else streams.at(state.t)
        return blr.estimate_natgrad(family, state.lam, loss, spec, step=state.t, rng=rng)

    try:
        state = blr.blr_init(family, lam0)
        estimate = estimate_at(state)
        for _ in range(cfg.max_iter):
            prev = state
            state, rho = blr._step_with_halvings(prev, cfg, estimate)
            spreads.append(blr.multiplicative_form_check(prev, state, rho))
            estimate = estimate_at(state)
            residual = blr.fixed_point_residual(family, state.lam, loss, spec, step=state.t)
            objective = blr.vb_objective(family, state.lam, loss, spec)
            trace.append(BLRTraceRow(state.t, rho, objective, residual))
            rel_change = (np.linalg.norm(state.lam.coords - prev.lam.coords)
                          / max(1.0, np.linalg.norm(prev.lam.coords)))
            if deterministic and (residual <= cfg.tol or rel_change <= cfg.tol):
                break
    except (DomainError, LeftDomain, *CERTIFICATE_ERRORS) as exc:
        exc.partial_trace = trace
        raise
    return trace, spreads


def _block_of(monkeypatch, family, size):
    """Make blr_run check its certificates size steps at a time on family."""
    monkeypatch.setattr(blr, "_CHECK_ELEMENTS", size * blr.FILTER_PROBES * family.param_dim)


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


# -- reports --------------------------------------------------------------------

@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("config", [RIDGE_FULL, LOGISTIC_MC, HALVING_CONFIG],
                         ids=["ridge_full", "logistic_mc", "diag_reparam_halvings"])
def test_blocked_reports_equal_stepwise_checks_bitwise(config, block, monkeypatch):
    inputs = _inputs(config)
    family = inputs[0]
    if block is not None:
        _block_of(monkeypatch, family, block)
    size = max(1, blr._CHECK_ELEMENTS // (blr.FILTER_PROBES * family.param_dim))
    run = blr.blr_run(*inputs)
    trace, spreads = _stepwise_run(*inputs)
    if block is not None or config is RIDGE_FULL:
        assert run.state.t > size  # longer than one block
    assert run.trace == trace
    assert run.filter_spreads.dtype == np.float64
    assert [s.hex() for s in run.filter_spreads.tolist()] == [s.hex() for s in spreads]


# -- failure order --------------------------------------------------------------

class _Injector:
    """Failures tied to iterates: `made[t]` is the iterate blr made at step t - 1."""

    def __init__(self, monkeypatch):
        self.made = {}
        self.monkeypatch = monkeypatch
        self.step_at_rate = blr._step_at_rate
        self.left_at = None
        monkeypatch.setattr(blr, "_step_at_rate", self._stepping)

    def _stepping(self, state, rho, estimate):
        if state.t == self.left_at:
            raise LeftDomain(f"BLR step {state.t} left the domain", iteration=state.t)
        new = self.step_at_rate(state, rho, estimate)
        self.made[new.t] = new.lam
        return new

    def _is_made(self, lam, t):
        return self.made.get(t) is lam

    def filter_failure(self, step):
        """The Bayes-filter check of the step from iterate `step` reads spread 1."""
        spreads = blr.filter_spreads

        def failing(steps, stats):
            out = spreads(steps, stats)
            out[[s_t.t == step for s_t, _, _ in steps]] = 1.0
            return out

        self.monkeypatch.setattr(blr, "filter_spreads", failing)

    def cross_check_failure(self, step, error):
        """The cross-check at the iterate step `step` made fails with error."""
        corruption = 1.0 if error is SolverFailure else np.nan
        fisher_solve = FullGaussian.fisher_solve

        def corrupting(family, lam, w):
            solved = fisher_solve(family, lam, w)
            for row, x in zip(solved, lam):
                if self._is_made(x, step + 1):
                    row += corruption
            return solved

        self.monkeypatch.setattr(FullGaussian, "fisher_solve", corrupting)

    def non_finite_estimate(self, step):
        """The estimate at the iterate step `step` made is not finite: there
        estimate_natgrad is handed a loss whose natural coefficients are NaN,
        so its own finiteness check raises."""
        estimate = blr.estimate_natgrad

        def non_finite(family, lam, loss, *args, **kwargs):
            if self._is_made(lam, step + 1):
                loss = copy.copy(loss)
                loss.natural_coefficients = lambda fam: np.full(fam.param_dim, np.nan)
            return estimate(family, lam, loss, *args, **kwargs)

        self.monkeypatch.setattr(blr, "estimate_natgrad", non_finite)


def _outcome(run):
    try:
        run()
    except Exception as exc:  # any type: the outcome is compared whole
        return type(exc), str(exc), getattr(exc, "partial_trace", None)
    raise AssertionError("the injected failure did not propagate")


EXIT_CODES = {DomainError: 3, LeftDomain: 3, BayesFilterViolation: 4,
              SolverFailure: 4, SingularFisher: 4}

#: with blocks of 4: a block's first step, a middle one, its last, the
#: first past its boundary, and the last of the second block
STEPS = [0, 2, 3, 4, 7]


#: each injected failure: what it does to the run's steps from `step` on,
#: and the error the step-by-step order raises first
FAILURES = {
    "filter": (lambda inj, k: inj.filter_failure(k), BayesFilterViolation),
    "SolverFailure": (lambda inj, k: inj.cross_check_failure(k, SolverFailure),
                      SolverFailure),
    "SingularFisher": (lambda inj, k: inj.cross_check_failure(k, SingularFisher),
                       SingularFisher),
    "estimate": (lambda inj, k: inj.non_finite_estimate(k), DomainError),
    # at one step the filter check comes before the cross-check
    "filter_then_cross_check": (lambda inj, k: (inj.filter_failure(k),
                                                inj.cross_check_failure(k, SolverFailure)),
                                BayesFilterViolation),
    "cross_check_then_filter": (lambda inj, k: (inj.cross_check_failure(k, SingularFisher),
                                                inj.filter_failure(k + 1)),
                                SingularFisher),
    # a queued failure comes before a later step's domain exit
    "filter_then_left": (lambda inj, k: (inj.filter_failure(k),
                                         setattr(inj, "left_at", k + 2)),
                         BayesFilterViolation),
    "cross_check_then_left": (lambda inj, k: (inj.cross_check_failure(k, SolverFailure),
                                              setattr(inj, "left_at", k + 1)),
                              SolverFailure),
}


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("failure", list(FAILURES))
def test_blocked_failures_match_the_stepwise_order(failure, step, tmp_path, monkeypatch):
    inputs = _inputs(RIDGE_SHORT)
    _block_of(monkeypatch, inputs[0], 4)
    inject, error = FAILURES[failure]
    inject(_Injector(monkeypatch), step)
    want = _outcome(lambda: _stepwise_run(*inputs))
    assert _outcome(lambda: blr.blr_run(*inputs)) == want
    rows = want[2]
    assert want[0] is error
    assert [row.t for row in rows] == list(range(1, step + 1))

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(RIDGE_SHORT))
    monkeypatch.setenv("NATVB_OUTDIR", str(tmp_path / "out"))
    assert main(["run", str(path)]) == EXIT_CODES[error]
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert len(lines) == 1 + len(rows)
    assert not (tmp_path / "out" / "summary.json").exists()


def test_an_interruption_with_no_failed_certificate_propagates(monkeypatch):
    # the queued certificates all pass: the LeftDomain itself comes out
    inputs = _inputs(RIDGE_SHORT)
    _block_of(monkeypatch, inputs[0], 4)
    _Injector(monkeypatch).left_at = 6
    want = _outcome(lambda: _stepwise_run(*inputs))
    assert want[0] is LeftDomain
    assert _outcome(lambda: blr.blr_run(*inputs)) == want


# -- the stacked cross-check -----------------------------------------------------

@pytest.mark.parametrize("family", [FullGaussian, DiagGaussian])
def test_stacked_fisher_products_are_the_one_parameter_products(family, rng):
    for dim in (1, 2, 5, 12, 20):
        fam = family(dim)
        lams = [fam.natural(random_lam(rng, fam)) for _ in range(3)]
        v = rng.standard_normal((3, fam.param_dim))
        for method in (fam.fisher_vp, fam.fisher_solve):
            block = method(lams, v)
            assert block.shape == v.shape
            for row, lam, vec in zip(block, lams, v):
                assert _same_bits(row, method(lam, vec))


def test_block_cross_check_raises_the_first_failing_row(monkeypatch):
    fam = FullGaussian(2)
    lams = [fam.from_moment(np.full(2, k), np.eye(2) * (k + 1.0)) for k in range(4)]
    grads = np.ones((4, fam.param_dim))
    solved = natgrad_via_dual(fam, lams, grads)
    for row, lam, grad in zip(solved, lams, grads):
        assert _same_bits(row, natgrad_via_dual(fam, lam, grad))
    # Fisher-vector products corrupted in rows 1 and 3
    bad = fam.fisher_vp(lams, grads)
    bad[3] = np.nan
    bad[1] += 5.0
    monkeypatch.setattr(FullGaussian, "fisher_vp", lambda self, lam, v: bad.copy())
    with pytest.raises(SolverFailure, match="relative error") as excinfo:
        natgrad_via_dual(fam, lams, grads)
    assert excinfo.value.row == 1
    bad[1] = np.nan
    with pytest.raises(SingularFisher) as excinfo:
        natgrad_via_dual(fam, lams, grads)
    assert excinfo.value.row == 1


# -- one bound for blr_run and the single-step checks ----------------------------

def _replayed_states(family, lam0, loss, cfg, steps):
    """blr_init's state and the iterates of blr_run's first steps, for a run
    that takes every step at cfg's rate."""
    states = [blr.blr_init(family, lam0)]
    for _ in range(steps):
        states.append(blr.blr_step(states[-1], loss, cfg))
    return states


def test_blr_run_and_the_filter_check_read_one_bound(monkeypatch):
    inputs = _inputs(RIDGE_SHORT)
    rho = inputs[3].learning_rate
    run = blr.blr_run(*inputs)
    assert {row.rho for row in run.trace} == {rho}
    # just below the largest spread: its first step is the first over the bound
    step = int(np.argmax(run.filter_spreads))
    assert 0 < step < len(run.trace) - 1
    monkeypatch.setattr(blr, "FILTER_TOL", np.nextafter(run.filter_spreads[step], 0.0))
    with pytest.raises(BayesFilterViolation, match=f"at step {step} ") as excinfo:
        blr.blr_run(*inputs)
    assert excinfo.value.partial_trace == run.trace[:step]
    states = _replayed_states(*inputs, step + 1)
    for t in range(step):
        blr.multiplicative_form_check(states[t], states[t + 1], rho)
    with pytest.raises(BayesFilterViolation, match=f"at step {step} "):
        blr.multiplicative_form_check(states[step], states[step + 1], rho)


def test_verify_row_prints_the_filter_bound_it_applies(monkeypatch):
    assert check_multiplicative_form()[1].endswith("(tol 1e-8); corruption detected")
    # a moved bound is the one the row reports, in its shortest form
    monkeypatch.setattr(blr, "FILTER_TOL", 2.5e-8)
    assert check_multiplicative_form()[1].endswith("(tol 2.5e-8); corruption detected")


def test_blr_run_and_fixed_point_residual_read_one_cross_check_bound(monkeypatch):
    family, lam0, loss, cfg = inputs = _inputs(RIDGE_SHORT)
    spec = cfg.estimator
    run = blr.blr_run(*inputs)
    iterates = _replayed_states(*inputs, len(run.trace))[1:]
    errors = []
    for state in iterates:
        # natgrad_via_dual's round-trip error at the iterate, as it forms it
        grad_mu = blr.estimate_natgrad(family, state.lam, loss, spec, step=state.t)[None]
        solved = family.fisher_solve([state.lam], family.fisher_vp([state.lam], grad_mu))
        errors.append(float((row_norms(solved - grad_mu)
                             / np.maximum(1.0, row_norms(grad_mu)))[0]))
    k = int(np.argmax(errors))
    assert 0 < k < len(errors) - 1
    # a bound between the largest error and every error before it
    monkeypatch.setattr(natgrad, "DUAL_RTOL", (errors[k] + max(errors[:k])) / 2)
    with pytest.raises(SolverFailure, match="relative error") as excinfo:
        blr.blr_run(*inputs)
    # iterate k + 1 is made by step k, whose row is the first not kept
    assert excinfo.value.partial_trace == run.trace[:k]
    for state in iterates[:k]:
        blr.fixed_point_residual(family, state.lam, loss, spec, step=state.t)
    with pytest.raises(SolverFailure, match="relative error"):
        blr.fixed_point_residual(family, iterates[k].lam, loss, spec, step=iterates[k].t)


@pytest.mark.xfail(strict=True, raises=BayesFilterViolation,
                   reason="ROADMAP item 8: FILTER_TOL is an absolute 1e-8, and this "
                          "valid run's roundoff spread is 2.980e-08 at step 16")
def test_filter_check_passes_a_valid_logistic_run(tmp_path):
    assert run_experiment(LOGISTIC_DIAG_REPARAM, tmp_path)["iterations"] == 20
