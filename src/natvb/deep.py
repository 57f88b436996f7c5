"""Diagonal-Gaussian stochastic optimizers and their scale-vector baselines.

RMSprop and Adam maintain a moving average of squared gradients and
divide the step by its square root:

    v <- (1 - beta) v + beta g^2
    theta <- theta - alpha g / (sqrt(v) + c).

The variational online Newton (VON) update has the same shape but is a
natural-gradient step on the VB objective for q = N(m, diag(s)^-1):
gradients are evaluated at samples from q, the squared gradient is
replaced by the Hessian diagonal, and the mean step divides by the new
scale itself, with no square root:

    s <- (1 - rho) s + rho E_q[diag H(theta)]
    m <- m - rho E_q[grad loss(theta)] / s.

IVON is the practical single-sample variant: the Hessian diagonal comes
from gradients alone via the reparameterization identity
E_q[diag H] = E_q[grad * s * (theta - m)], gradient noise is smoothed by
momentum, and the scale update carries a second-order retraction term
0.5 rho^2 (h - h_est)^2 / (h + delta0) that keeps the posterior precision
positive unconditionally. The prior precision delta0 enters the mean
update as a weight-decay term and completes the denominator h + delta0.

All step functions are pure (state in, state out); the training loop is
sequential and deterministic for a fixed seed.

A state is validated once, when a caller (or an *_init function) builds
it: its arrays are copied into 1-D float vectors of one length and its
scale checked (a NaN fails every scale check). Every step returns a
state built without that pass, because its arrays are the step's own
fresh vectors and the step has checked what it can break itself:
RMSprop's scale against zero, VON's precision against its positivity
floor, IVON's h + delta0 (each raising LeftDomain); Adam's moments have
no invariant to break. A state a VON, IVON, RMSprop or Adam step returns
is trusted from there on. The train loop picks the step function and the
row's accessors once per run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from .blr import rate_at
from .errors import CERTIFICATE_ERRORS, DomainError, LeftDomain
from .losses import LossModel
from .natgrad import gaussian_moments, reparam_hessian_terms
from .seeding import SAMPLE_STREAM, StepStreams, make_rng


def _vec(x, dim: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1).copy()
    if dim is not None and v.size != dim:
        raise ValueError(f"expected vector of length {dim}, got {v.size}")
    return v


def _advanced(state, **changes):
    """A copy of state with changes, built without __post_init__.

    For a step's next state only: the changed arrays must be the step's
    own fresh 1-D vectors of the state's length, already checked.
    """
    new = object.__new__(type(state))
    vars(new).update(vars(state), **changes)
    return new


def ema(old: np.ndarray, new: np.ndarray, rate: float) -> np.ndarray:
    """(1 - rate) * old + rate * new, the scale-vector moving average."""
    return (1.0 - rate) * old + rate * new


def preconditioned_step(theta: np.ndarray, grad: np.ndarray, scale: np.ndarray,
                        step_size: float, damping: float = 0.0,
                        sqrt_scale: bool = False) -> np.ndarray:
    """theta - step_size * grad / (scale + damping), optionally sqrt(scale).

    The shared arithmetic of RMSprop (sqrt_scale=True) and the VON mean
    update (sqrt_scale=False): substituting squared gradients for the
    curvature and inserting the square root turns one into the other.
    """
    denom = (np.sqrt(scale) if sqrt_scale else scale) + damping
    return theta - step_size * grad / denom


# -- RMSprop -----------------------------------------------------------

@dataclass(frozen=True)
class RMSpropState:
    theta: np.ndarray
    scale: np.ndarray
    step_size: float
    scale_rate: float
    damping: float
    t: int = 0

    def __post_init__(self):
        object.__setattr__(self, "theta", _vec(self.theta))
        object.__setattr__(self, "scale", _vec(self.scale, self.theta.size))
        if not (self.scale >= 0.0).all():
            raise ValueError("scale vector must be nonnegative")


def rmsprop_init(theta0, step_size: float = 1e-2, scale_rate: float = 0.1,
                 damping: float = 1e-8) -> RMSpropState:
    theta0 = _vec(theta0)
    return RMSpropState(theta0, np.zeros_like(theta0), step_size, scale_rate, damping)


def rmsprop_step(state: RMSpropState, grad) -> RMSpropState:
    """Scale update first, then the square-root-preconditioned step.

    A scale that fails its nonnegativity check (a NaN gradient leaves a
    NaN scale) raises LeftDomain.
    """
    grad = _vec(grad, state.theta.size)
    scale = ema(state.scale, grad ** 2, state.scale_rate)
    if not (scale >= 0.0).all():
        raise LeftDomain(f"RMSprop scale left the domain at step {state.t}",
                         iterate=scale, iteration=state.t)
    theta = preconditioned_step(state.theta, grad, scale, state.step_size,
                                state.damping, sqrt_scale=True)
    return _advanced(state, theta=theta, scale=scale, t=state.t + 1)


# -- Adam --------------------------------------------------------------

@dataclass(frozen=True)
class AdamState:
    """Bias-corrected double-EMA baseline in its standard form."""

    theta: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    step_size: float
    beta1: float
    beta2: float
    damping: float
    t: int = 0

    def __post_init__(self):
        object.__setattr__(self, "theta", _vec(self.theta))
        object.__setattr__(self, "m1", _vec(self.m1, self.theta.size))
        object.__setattr__(self, "m2", _vec(self.m2, self.theta.size))


def adam_init(theta0, step_size: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, damping: float = 1e-8) -> AdamState:
    theta0 = _vec(theta0)
    zeros = np.zeros_like(theta0)
    return AdamState(theta0, zeros, zeros.copy(), step_size, beta1, beta2, damping)


def adam_step(state: AdamState, grad) -> AdamState:
    grad = _vec(grad, state.theta.size)
    t = state.t + 1
    m1 = state.beta1 * state.m1 + (1.0 - state.beta1) * grad
    m2 = state.beta2 * state.m2 + (1.0 - state.beta2) * grad ** 2
    m1_hat = m1 / (1.0 - state.beta1 ** t)
    m2_hat = m2 / (1.0 - state.beta2 ** t)
    theta = preconditioned_step(state.theta, m1_hat, m2_hat, state.step_size,
                                state.damping, sqrt_scale=True)
    return _advanced(state, theta=theta, m1=m1, m2=m2, t=t)


# -- VON ---------------------------------------------------------------

@dataclass(frozen=True)
class VONState:
    """Posterior iterate N(m, diag(s)^-1) plus sampling configuration."""

    mean: np.ndarray
    prec: np.ndarray
    learning_rate: float | Callable[[int], float]
    n_samples: int = 1
    seed: int = 0
    #: positivity floor; crossing it raises LeftDomain
    prec_floor: float = 0.0
    t: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mean", _vec(self.mean))
        object.__setattr__(self, "prec", _vec(self.prec, self.mean.size))
        if not (self.prec > 0.0).all():
            raise ValueError("precision diagonal must be positive")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        # so that a step's floor check also keeps the precision positive
        if not self.prec_floor >= 0.0:
            raise ValueError(f"prec_floor must be >= 0, got {self.prec_floor}")


def _sample_rng(state) -> np.random.Generator:
    return make_rng(state.seed, *SAMPLE_STREAM, state.t)


def von_step(state: VONState, loss: LossModel, batch=None,
             rng: np.random.Generator | None = None) -> VONState:
    """One natural-gradient step: scale first, then the Newton-like mean step.

    The moments E_q[grad] and E_q[diag H] come from the BLR estimators'
    core, natgrad.gaussian_moments: exact (closed form at cov =
    diag(1/prec)) when the loss provides expectations and there is no
    batch; otherwise mc on K samples from the current posterior when the
    loss provides its Hessian diagonal, reparam when not. The samples are
    mean + z / sqrt(prec) for K standard-normal rows z of rng, step
    state.t's sample stream make_rng(state.seed, *SAMPLE_STREAM, state.t)
    when not given.
    """
    rho = rate_at(state.learning_rate, state.t)
    mean, prec = state.mean, state.prec
    if loss.provides_expectations and batch is None:
        grad_mean, hess_mean = gaussian_moments(loss, "exact", mean, np.diag(1.0 / prec),
                                                diag=True)
    else:
        rng = _sample_rng(state) if rng is None else rng
        z = rng.standard_normal((state.n_samples, mean.size))
        kind = "mc" if loss.provides_hessian_diag else "reparam"
        grad_mean, hess_mean = gaussian_moments(
            loss, kind, mean, thetas=mean + (1.0 / np.sqrt(prec)) * z, prec=prec,
            diag=True, batch=batch)
    new_prec = ema(prec, hess_mean, rho)
    if not (new_prec > state.prec_floor).all():
        raise LeftDomain(
            f"VON precision crossed the positivity floor at step {state.t}",
            iterate=new_prec, iteration=state.t)
    new_mean = preconditioned_step(mean, grad_mean, new_prec, rho, sqrt_scale=False)
    # VONState's length check is skipped: a moment of another shape would
    # broadcast the mean out of shape
    if new_mean.shape != mean.shape:
        raise ValueError(f"expected moments of shape {mean.shape}, got gradient "
                         f"{np.shape(grad_mean)} and Hessian {np.shape(hess_mean)}")
    return _advanced(state, mean=new_mean, prec=new_prec, t=state.t + 1)


# -- IVON --------------------------------------------------------------

@dataclass(frozen=True)
class IVONState:
    """Mean, Hessian estimate, and gradient momentum of the improved VON.

    Validated once, at construction: the arrays are copied into 1-D float
    vectors of one length and h + delta0 must be positive. A state that
    ivon_step returns skips that pass: its arrays are the step's own fresh
    vectors, and the step has just made the positivity check itself.
    """

    mean: np.ndarray
    hess: np.ndarray
    grad_momentum: np.ndarray
    step_size: float
    beta1: float = 0.9
    #: learning rate of the Hessian estimate (1 - beta2 analogue)
    hess_rate: float = 1e-3
    #: prior precision; acts as weight decay and completes h + delta0
    weight_decay: float = 1e-4
    #: optional extra damping in the mean-update denominator
    damping: float = 0.0
    #: effective sample size scaling the sampling precision
    ess: float = 1.0
    seed: int = 0
    t: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mean", _vec(self.mean))
        object.__setattr__(self, "hess", _vec(self.hess, self.mean.size))
        object.__setattr__(self, "grad_momentum",
                           _vec(self.grad_momentum, self.mean.size))
        if not (self.hess + self.weight_decay > 0.0).all():
            raise ValueError("posterior precision h + delta0 must be positive")


def ivon_init(theta0, *, step_size: float, hess_init: float = 1.0,
              beta1: float = 0.9, hess_rate: float = 1e-3,
              weight_decay: float = 1e-4, damping: float = 0.0,
              ess: float = 1.0, seed: int = 0) -> IVONState:
    theta0 = _vec(theta0)
    return IVONState(theta0, np.full_like(theta0, float(hess_init)),
                     np.zeros_like(theta0), step_size, beta1, hess_rate,
                     weight_decay, damping, ess, seed)


def _sample_and_estimate(state: IVONState, prec: np.ndarray, loss: LossModel,
                         rng: np.random.Generator, batch, theta_sample):
    if theta_sample is None:
        theta = rng.standard_normal(state.mean.size)
        theta /= np.sqrt(prec)
        theta += state.mean
    else:
        theta = _vec(theta_sample, state.mean.size)
    grad = loss.gradient(theta, batch)
    return theta, grad, reparam_hessian_terms(grad, prec, theta, state.mean)


def ivon_step(state: IVONState, loss: LossModel, batch=None,
              theta_sample=None, rng: np.random.Generator | None = None) -> IVONState:
    """One single-sample step; the retraction keeps h + delta0 positive.

    The sample comes from rng, step state.t's sample stream
    make_rng(state.seed, *SAMPLE_STREAM, state.t) when not given.

    With u = h + delta0 the scale update gives
    u_new >= min over estimates of (1-rho) u + rho v + rho^2 (u-v)^2 / (2u) = u/2,
    so LeftDomain below indicates a bug, not a reachable state.

    u is formed once and serves the sampling precision ess * u and the
    retraction's denominator; u_new serves the LeftDomain check and the
    mean step's denominator. Every vector is a fresh temporary updated in
    place, in the order of the update's formulas, so the bits are those of
    the formulas as written; an update in place also keeps each vector
    the state's shape, so a gradient of another shape raises ValueError.
    The returned state is built without IVONState's validation: its
    arrays are these fresh 1-D vectors, and the LeftDomain check is the
    positivity check it would repeat.
    """
    rho = rate_at(state.hess_rate, state.t)
    delta0 = state.weight_decay
    beta1 = state.beta1
    old_hess = state.hess
    rng = _sample_rng(state) if rng is None else rng
    u = old_hess + delta0
    _, grad, hess_est = _sample_and_estimate(state, u * state.ess, loss, rng, batch,
                                             theta_sample)
    # beta1 m + (1 - beta1) g
    momentum = state.grad_momentum * beta1
    momentum += grad * (1.0 - beta1)
    # ema(h, h_est, rho) + 0.5 rho^2 (h - h_est)^2 / u
    retraction = old_hess - hess_est
    np.square(retraction, out=retraction)
    retraction *= 0.5 * rho ** 2
    retraction /= u
    hess = old_hess * (1.0 - rho)
    hess_est *= rho
    hess += hess_est
    hess += retraction
    u_new = hess + delta0
    if not (u_new > 0.0).all():
        raise LeftDomain(
            f"IVON posterior precision left the domain at step {state.t}",
            iterate=hess, iteration=state.t)
    t = state.t + 1
    # preconditioned_step(m, momentum / (1 - beta1^t) + delta0 m, u_new,
    # step_size, damping) with sqrt_scale=False
    mean = state.mean
    move = momentum / (1.0 - beta1 ** t)
    move += mean * delta0
    move *= state.step_size
    u_new += state.damping
    move /= u_new
    return _advanced(state, mean=mean - move, hess=hess, grad_momentum=momentum, t=t)


# -- training loop -----------------------------------------------------

class TrainTraceRow(NamedTuple):
    step: int
    loss: float
    grad_norm: float
    scale_min: float
    scale_max: float


@dataclass
class TrainRunRecord:
    """The per-step rows of a training run and the state it ended in."""

    rows: list[TrainTraceRow]
    final_state: object = None
    wall_time_s: float = 0.0


def _optimizer(state, loss: LossModel):
    """(step, eval_point, scale) of the state's optimizer, chosen once per run.

    step(state, batch) makes one step; eval_point(state) is where a row
    is recorded (theta, or the posterior mean) and scale(state) the
    vector whose range it records. VON and IVON draw step t's samples
    from one seeding.StepStreams on the state's sample stream.
    """
    if isinstance(state, VONState):
        samples = StepStreams(state.seed, *SAMPLE_STREAM)
        return (lambda s, batch: von_step(s, loss, batch, rng=samples.at(s.t)),
                attrgetter("mean"), attrgetter("prec"))
    if isinstance(state, IVONState):
        samples = StepStreams(state.seed, *SAMPLE_STREAM)
        return (lambda s, batch: ivon_step(s, loss, batch, rng=samples.at(s.t)),
                attrgetter("mean"), lambda s: s.hess + s.weight_decay)
    if isinstance(state, RMSpropState):
        return (lambda s, batch: rmsprop_step(s, loss.gradient(s.theta, batch)),
                attrgetter("theta"), attrgetter("scale"))
    if isinstance(state, AdamState):
        return (lambda s, batch: adam_step(s, loss.gradient(s.theta, batch)),
                attrgetter("theta"), attrgetter("m2"))
    raise TypeError(f"unknown optimizer state {type(state).__name__}")


def train(state, loss: LossModel, steps: int, *, batch_size: int | None = None,
          seed: int = 0) -> TrainRunRecord:
    """Run the step loop with minibatching; deterministic for a fixed seed.

    Rows record the full-data loss and gradient norm at the current
    evaluation point (theta, or the posterior mean), both from one
    `value_and_gradient` call (one fused forward pass for losses that
    override it), and the scale vector's range, as TrainTraceRow. A step
    that leaves its domain, or a row that would hold a non-finite value,
    raises LeftDomain. That and any other domain error or failed
    certificate (errors.CERTIFICATE_ERRORS) propagate with the rows
    recorded before it as partial_trace, the hand-off blr.blr_run makes
    too; the harness writes them under TrainTraceRow's fields. Step t's
    minibatch is drawn on stream (seed, 0xBA7C, t), and VON's and IVON's
    samples on their own step streams, each through one
    seeding.StepStreams.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if batch_size is not None and loss.n_data is None:
        raise ValueError("loss has no data to minibatch")
    start = time.perf_counter()
    rows: list[TrainTraceRow] = []
    # one generator per stream, rewound to each step's key
    batches = StepStreams(seed, 0xBA7C) if batch_size is not None else None
    step, eval_point, scale_vector = _optimizer(state, loss)
    size = min(batch_size, loss.n_data) if batches is not None else None

    def record(step_index: int, current) -> None:
        value, grad = loss.value_and_gradient(eval_point(current))
        scale = scale_vector(current)
        row = TrainTraceRow(step_index, float(value), float(np.linalg.norm(grad)),
                            float(scale.min()), float(scale.max()))
        if not all(map(math.isfinite, row[1:])):
            raise LeftDomain(f"non-finite trace row at step {step_index}: {row}",
                             iteration=step_index)
        rows.append(row)

    try:
        record(0, state)
        for t in range(steps):
            batch = None
            if batches is not None:
                batch = batches.at(t).choice(loss.n_data, size=size, replace=False)
            state = step(state, batch)
            record(t + 1, state)
    except (DomainError, LeftDomain, *CERTIFICATE_ERRORS) as exc:
        exc.partial_trace = rows
        raise
    return TrainRunRecord(rows, state, time.perf_counter() - start)
