"""Per-layer spans and counts, recorded from outside the natvb package.

For the length of a traced run, the public functions of each layer are
rebound to wrappers that push a span on a stack, count the call and
charge the span's self time (its duration minus its children's) to the
span's layer. Rebinding happens where the caller looks the name up: a
function imported with ``from .blr import fixed_point_residual`` is
rebound in ``natvb.harness``, a method on the class that defines it.
Nothing in ``src/`` is edited, and ``uninstall`` puts every original
back.

Layers are the package's modules: harness, losses (the derivative
gate), models (loss evaluations), blr (the step and its certificates),
natgrad (estimators), gaussian and expfam (family primitives) and deep.
The span the benchmark opens around ``run_experiment`` belongs to no
layer; its self time is the run's unattributed time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

LAYERS = ("harness", "losses", "models", "blr", "natgrad", "gaussian",
          "expfam", "deep")
ROOT = "run_experiment"
DEEP_LOOP = "deep.train"


class Tracer:
    """Span stack plus per-span and per-layer accumulators for one run."""

    def __init__(self):
        self.stack: list[list] = []  # [span, layer, start, child seconds]
        self.span_total: dict[str, float] = defaultdict(float)
        self.span_self: dict[str, float] = defaultdict(float)
        self.span_calls: dict[str, int] = defaultdict(int)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def enter(self, span: str, layer: str) -> None:
        self.stack.append([span, layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        span, layer, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        self.span_total[span] += duration
        self.span_self[span] += duration - child
        self.span_calls[span] += 1
        self.layer_self[layer] += duration - child
        if self.stack:
            self.stack[-1][3] += duration


def _batch_arg(args, kwargs):
    # LossModel methods take (self, theta, batch=None)
    return args[2] if len(args) > 2 else kwargs.get("batch")


def _model_value_span(tracer, args, kwargs):
    if tracer.parent() == DEEP_LOOP:
        return "models.full_data_eval"
    return "models.value"


def _model_gradient_span(tracer, args, kwargs):
    if _batch_arg(args, kwargs) is not None:
        return "models.batch_grad"
    if tracer.parent() == DEEP_LOOP:
        return "models.full_data_eval"
    return "models.gradient"


def _wrap(tracer, fn, span, layer, count, retry=None):
    """Wrapper recording one span per call; span may depend on the call."""
    retry_exc, retry_count = retry if retry else ((), None)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = span(tracer, args, kwargs) if callable(span) else span
        tracer.counts[count] += 1
        tracer.enter(name, layer)
        try:
            return fn(*args, **kwargs)
        except retry_exc:
            tracer.counts[retry_count] += 1
            raise
        finally:
            tracer.exit()

    return wrapper


# (attribute name, span, layer, count) per owner; the owner is a module
# namespace where callers look the name up, or the class defining it.

_GAUSSIAN_METHODS = {
    "fisher": ("gaussian.fisher", "gaussian", "gaussian.fisher_calls"),
    "sample": ("gaussian.sample", "gaussian", "gaussian.sample_calls"),
    "contains_natural": ("expfam.domain_check", "expfam", "expfam.domain_checks"),
}
_GAUSSIAN_PRIMITIVES = ("split_natural", "contains_expectation", "to_mean_cov",
                        "to_mean_var", "to_moment", "from_moment", "cumulant",
                        "natural_to_dual", "dual_to_natural", "sufficient_stats")
_EXPFAM_METHODS = ("natural", "entropy", "entropy_gradient", "fenchel_conjugate",
                   "kl_divergence")
_MODEL_METHODS = {
    "value": (_model_value_span, "models.value_evals"),
    "gradient": (_model_gradient_span, "models.grad_evals"),
    "hessian_full": ("models.hessian", "models.hessian_evals"),
    "hessian_diag": ("models.hessian", "models.hessian_evals"),
    "mean_data_loss": ("models.mean_data_loss", "models.value_evals"),
    "expected_value": ("models.expected", "models.expectation_evals"),
    "expected_gradient": ("models.expected", "models.expectation_evals"),
    "expected_hessian": ("models.expected", "models.expectation_evals"),
    "natural_coefficients": ("models.natural_coefficients",
                             "models.expectation_evals"),
}


def _targets(natvb):
    harness, blr, natgrad, deep = natvb.harness, natvb.blr, natvb.natgrad, natvb.deep
    gaussian, expfam, models, losses = (natvb.gaussian, natvb.expfam,
                                        natvb.models, natvb.losses)
    left_domain = (natvb.errors.LeftDomain, "blr.step_retries")
    out = []

    def add(owner, names, span, layer, count=None, retry=None):
        for name in names:
            out.append((owner, name, span, layer, count or span + "_calls", retry))

    add(harness, ["resolve_config"], "harness.config", "harness")
    add(harness, ["build_model"], "harness.build_model", "harness")
    add(harness, ["_blr_runner", "_deep_runner"], "harness.runner", "harness")
    add(harness, ["write_trace", "write_json"], "harness.write", "harness")
    add(harness, ["check_derivatives"], "losses.derivative_gate", "losses")
    add(harness, ["make_ridge_data", "ridge_loss", "make_logistic_data",
                  "make_spirals_mlp"], "models.make_data", "models")
    add(harness, ["blr_init"], "blr.init", "blr")
    add(harness, ["blr_step"], "blr.step", "blr", "blr.step_attempts", left_domain)
    add(harness, ["multiplicative_form_check"], "blr.filter_check", "blr")
    add(harness, ["fixed_point_residual"], "blr.residual", "blr")
    add(harness, ["vb_objective"], "blr.objective", "blr")
    add(blr, ["estimate_natgrad"], "natgrad.estimate", "natgrad")
    add(blr, ["natgrad_via_dual"], "natgrad.dual_check", "natgrad")
    add(blr, ["expected_loss"], "natgrad.expected_loss", "natgrad")
    add(harness, ["train"], DEEP_LOOP, "deep")
    add(harness, ["ivon_init", "adam_init", "rmsprop_init"], "deep.init", "deep")
    add(deep, ["ivon_step", "von_step", "adam_step", "rmsprop_step"],
        "deep.step", "deep", "deep.steps")
    # every Cholesky factorisation, under the names the modules import
    add(gaussian, ["cholesky"], "gaussian.cholesky", "gaussian",
        "gaussian.cholesky_calls")
    for module in (natgrad, blr, models):
        add(module, ["cho_factor"], "gaussian.cholesky", "gaussian",
            "gaussian.cholesky_calls")
    for cls in (gaussian.FullGaussian, gaussian.DiagGaussian):
        for name, (span, layer, count) in _GAUSSIAN_METHODS.items():
            add(cls, [name], span, layer, count)
        add(cls, _GAUSSIAN_PRIMITIVES, "gaussian.primitive", "gaussian")
    add(expfam.ExpFamily, _EXPFAM_METHODS, "expfam.derived", "expfam")
    add(expfam.ExpFamily, ["log_density"], "expfam.log_density", "expfam",
        "expfam.log_density_calls")
    for cls in (losses.QuadraticLoss, models.LogisticModel, models.MLPModel):
        for name, (span, count) in _MODEL_METHODS.items():
            add(cls, [name], span, "models", count)
    return out


def install(tracer: Tracer, natvb) -> tuple[list, list[str]]:
    """Rebind every target to a traced wrapper.

    Returns the list ``uninstall`` needs and the module-level names that
    were not found (a refactor may move a name; its metrics then read
    zero). A class is patched only for the methods it defines itself, so
    inherited defaults such as ``LossModel.hessian_full`` keep their
    identity and the ``provides_*`` capability probes answer as before.
    """
    saved, missing = [], []
    for owner, name, span, layer, count, retry in _targets(natvb):
        if name not in vars(owner):
            if not isinstance(owner, type):
                missing.append(f"{owner.__name__}.{name}")
            continue
        original = vars(owner)[name]
        saved.append((owner, name, original))
        setattr(owner, name, _wrap(tracer, original, span, layer, count, retry))
    return saved, missing


def uninstall(saved: list) -> None:
    for owner, name, original in reversed(saved):
        setattr(owner, name, original)
