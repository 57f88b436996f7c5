"""blr_run checks its certificates a block of steps at a time.

The reference here is the loop that checks each step's Bayes-filter
form and inverse-Fisher cross-check as it takes the step. Blocked runs
must give its reports bit for bit, and under every injected failure the
same exception, message, partial trace and `natvb run` exit code.
"""

import copy
import json

import numpy as np
import pytest

from natvb import blr
from natvb.blr import BLRConfig, BLRTraceRow
from natvb.cli import main
from natvb.errors import (CERTIFICATE_ERRORS, BayesFilterViolation, DomainError,
                          LeftDomain, SingularFisher, SolverFailure)
from natvb.gaussian import DiagGaussian, FullGaussian
from natvb.harness import build_model, resolve_config
from natvb.natgrad import EstimatorSpec, natgrad_via_dual
from natvb.seeding import ESTIMATE_STREAM, StepStreams

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
    (trace, reports), or the first failure with partial_trace."""
    spec = cfg.estimator
    trace, reports = [], []
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
            report = blr.multiplicative_form_check(prev, state, rho)
            if not report.passed:
                raise BayesFilterViolation(
                    f"Bayes-filter form violated at step {prev.t} "
                    f"(spread {report.spread:.3e} > {report.tol:.1e})")
            reports.append(report)
            estimate = estimate_at(state)
            residual = blr.fixed_point_residual(family, state.lam, loss, spec,
                                                step=state.t, estimate=estimate)
            objective = blr.vb_objective(family, state.lam, loss, spec)
            trace.append(BLRTraceRow(state.t, rho, objective, residual))
            rel_change = (np.linalg.norm(state.lam.coords - prev.lam.coords)
                          / max(1.0, np.linalg.norm(prev.lam.coords)))
            if deterministic and (residual <= cfg.tol or rel_change <= cfg.tol):
                break
    except (DomainError, LeftDomain, *CERTIFICATE_ERRORS) as exc:
        exc.partial_trace = trace
        raise
    return trace, reports


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
    trace, reports = _stepwise_run(*inputs)
    if block is not None or config is RIDGE_FULL:
        assert run.iterations > size  # longer than one block
    assert run.trace == trace
    assert run.multiplicative_reports == reports
    assert [r.spread.hex() for r in run.multiplicative_reports] == \
        [r.spread.hex() for r in reports]


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


def test_block_cross_check_raises_the_first_failing_row():
    fam = FullGaussian(2)
    lams = [fam.from_moment(np.full(2, k), np.eye(2) * (k + 1.0)) for k in range(4)]
    grads = np.ones((4, fam.param_dim))
    solved = natgrad_via_dual(fam, lams, grads)
    for row, lam, grad in zip(solved, lams, grads):
        assert _same_bits(row, natgrad_via_dual(fam, lam, grad))
    bad = fam.fisher_vp(lams, grads)
    bad[3] = np.nan
    bad[1] += 5.0
    with pytest.raises(SolverFailure, match="relative error") as excinfo:
        natgrad_via_dual(fam, lams, grads, bad)
    assert excinfo.value.row == 1
    bad[1] = np.nan
    with pytest.raises(SingularFisher) as excinfo:
        natgrad_via_dual(fam, lams, grads, bad)
    assert excinfo.value.row == 1
