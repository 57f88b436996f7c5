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
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import LeftDomain
from .losses import LossModel
from .seeding import RNG_ALGORITHM, make_rng


def _vec(x, dim: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1).copy()
    if dim is not None and v.size != dim:
        raise ValueError(f"expected vector of length {dim}, got {v.size}")
    return v


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


def _rate_at(rate, t: int) -> float:
    value = float(rate(t) if callable(rate) else rate)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {value} at step {t}")
    return value


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
        if np.any(self.scale < 0.0):
            raise ValueError("scale vector must be nonnegative")


def rmsprop_init(theta0, step_size: float = 1e-2, scale_rate: float = 0.1,
                 damping: float = 1e-8) -> RMSpropState:
    theta0 = _vec(theta0)
    return RMSpropState(theta0, np.zeros_like(theta0), step_size, scale_rate, damping)


def rmsprop_step(state: RMSpropState, grad) -> RMSpropState:
    """Scale update first, then the square-root-preconditioned step."""
    grad = _vec(grad, state.theta.size)
    scale = ema(state.scale, grad ** 2, state.scale_rate)
    theta = preconditioned_step(state.theta, grad, scale, state.step_size,
                                state.damping, sqrt_scale=True)
    return replace(state, theta=theta, scale=scale, t=state.t + 1)


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
    return replace(state, theta=theta, m1=m1, m2=m2, t=t)


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
        if np.any(self.prec <= 0.0):
            raise ValueError("precision diagonal must be positive")


def von_step(state: VONState, loss: LossModel, batch=None) -> VONState:
    """One natural-gradient step: scale first, then the Newton-like mean step.

    Expectations are closed-form when the loss provides them; otherwise
    K samples are drawn from the current posterior, with the Hessian
    diagonal taken from the loss when available and estimated from
    gradients by the reparameterization identity when not.
    """
    rho = _rate_at(state.learning_rate, state.t)
    mean, prec = state.mean, state.prec
    if loss.provides_expectations and batch is None:
        cov = np.diag(1.0 / prec)
        grad_mean = loss.expected_gradient(mean, cov)
        hess_mean = np.diag(np.atleast_2d(loss.expected_hessian(mean, cov)))
    else:
        rng = make_rng(state.seed, state.t)
        sigma = 1.0 / np.sqrt(prec)
        grad_sum = np.zeros_like(mean)
        hess_sum = np.zeros_like(mean)
        for _ in range(state.n_samples):
            theta = mean + sigma * rng.standard_normal(mean.size)
            grad = loss.gradient(theta, batch)
            grad_sum += grad
            if loss.provides_hessian_diag:
                hess_sum += loss.hessian_diag(theta, batch)
            else:
                hess_sum += grad * prec * (theta - mean)
        grad_mean = grad_sum / state.n_samples
        hess_mean = hess_sum / state.n_samples
    new_prec = ema(prec, hess_mean, rho)
    if np.any(new_prec <= state.prec_floor):
        raise LeftDomain(
            f"VON precision crossed the positivity floor at step {state.t}",
            iterate=new_prec, iteration=state.t)
    new_mean = preconditioned_step(mean, grad_mean, new_prec, rho, sqrt_scale=False)
    return replace(state, mean=new_mean, prec=new_prec, t=state.t + 1)


# -- IVON --------------------------------------------------------------

@dataclass(frozen=True)
class IVONState:
    """Mean, Hessian estimate, and gradient momentum of the improved VON."""

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
    bias_correction: bool = True
    t: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mean", _vec(self.mean))
        object.__setattr__(self, "hess", _vec(self.hess, self.mean.size))
        object.__setattr__(self, "grad_momentum",
                           _vec(self.grad_momentum, self.mean.size))
        if np.any(self.hess + self.weight_decay <= 0.0):
            raise ValueError("posterior precision h + delta0 must be positive")


def ivon_init(theta0, *, step_size: float, hess_init: float = 1.0,
              beta1: float = 0.9, hess_rate: float = 1e-3,
              weight_decay: float = 1e-4, damping: float = 0.0,
              ess: float = 1.0, seed: int = 0,
              bias_correction: bool = True) -> IVONState:
    theta0 = _vec(theta0)
    return IVONState(theta0, np.full_like(theta0, float(hess_init)),
                     np.zeros_like(theta0), step_size, beta1, hess_rate,
                     weight_decay, damping, ess, seed, bias_correction)


def ivon_sample_and_estimate(state: IVONState, loss: LossModel,
                             rng: np.random.Generator, batch=None,
                             theta_sample=None):
    """Lines 1-2 of the step: sample, gradient, reparameterization Hessian.

    Returns (theta, grad, hess_est) with hess_est = grad * prec * (theta - m)
    for prec = ess * (h + delta0), the precision theta was sampled with.
    """
    prec = state.ess * (state.hess + state.weight_decay)
    if theta_sample is None:
        theta = state.mean + rng.standard_normal(state.mean.size) / np.sqrt(prec)
    else:
        theta = _vec(theta_sample, state.mean.size)
    grad = loss.gradient(theta, batch)
    hess_est = grad * prec * (theta - state.mean)
    return theta, grad, hess_est


def ivon_step(state: IVONState, loss: LossModel, batch=None,
              theta_sample=None) -> IVONState:
    """One single-sample step; the retraction keeps h + delta0 positive.

    With u = h + delta0 the scale update gives
    u_new >= min over estimates of (1-rho) u + rho v + rho^2 (u-v)^2 / (2u) = u/2,
    so LeftDomain below indicates a bug, not a reachable state.
    """
    rho = _rate_at(state.hess_rate, state.t)
    delta0 = state.weight_decay
    rng = make_rng(state.seed, state.t)
    _, grad, hess_est = ivon_sample_and_estimate(state, loss, rng, batch,
                                                 theta_sample)
    momentum = state.beta1 * state.grad_momentum + (1.0 - state.beta1) * grad
    hess = (ema(state.hess, hess_est, rho)
            + 0.5 * rho ** 2 * (state.hess - hess_est) ** 2 / (state.hess + delta0))
    if np.any(hess + delta0 <= 0.0):
        raise LeftDomain(
            f"IVON posterior precision left the domain at step {state.t}",
            iterate=hess, iteration=state.t)
    t = state.t + 1
    numerator = momentum / (1.0 - state.beta1 ** t) if state.bias_correction else momentum
    mean = preconditioned_step(state.mean, numerator + delta0 * state.mean,
                               hess + delta0, state.step_size, state.damping,
                               sqrt_scale=False)
    return replace(state, mean=mean, hess=hess, grad_momentum=momentum, t=t)


# -- training loop -----------------------------------------------------

@dataclass
class TrainRunRecord:
    """Append-only per-step metrics plus the configuration that produced them."""

    columns: tuple[str, ...]
    rows: list[tuple]
    metadata: dict
    final_state: object = None
    wall_time_s: float = 0.0


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _eval_point(state) -> np.ndarray:
    return state.mean if isinstance(state, (VONState, IVONState)) else state.theta


def _scale_vector(state) -> np.ndarray:
    if isinstance(state, VONState):
        return state.prec
    if isinstance(state, IVONState):
        return state.hess + state.weight_decay
    if isinstance(state, AdamState):
        return state.m2
    return state.scale


def train(state, loss: LossModel, steps: int, *, batch_size: int | None = None,
          seed: int = 0, metadata: dict | None = None) -> TrainRunRecord:
    """Run the step loop with minibatching; deterministic for a fixed seed.

    Rows record the full-data loss and gradient norm at the current
    evaluation point (theta, or the posterior mean), both from one
    `value_and_gradient` call (one fused forward pass for losses that
    override it), and the scale vector's range. Step errors propagate
    with their iteration index.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if batch_size is not None and loss.n_data is None:
        raise ValueError("loss has no data to minibatch")
    start = time.perf_counter()
    meta = dict(metadata or {})
    meta.setdefault("rng_algorithm", RNG_ALGORITHM)
    meta.setdefault("seed", int(seed))
    columns = ("step", "loss", "grad_norm", "scale_min", "scale_max")
    rows: list[tuple] = []

    def record(step_index: int, current) -> None:
        value, grad = loss.value_and_gradient(_eval_point(current))
        scale = _scale_vector(current)
        rows.append((step_index, float(value), float(np.linalg.norm(grad)),
                     float(np.min(scale)), float(np.max(scale))))

    record(0, state)
    for t in range(steps):
        batch = None
        if batch_size is not None:
            rng = make_rng(seed, 0xBA7C, t)
            batch = rng.choice(loss.n_data, size=min(batch_size, loss.n_data),
                               replace=False)
        try:
            if isinstance(state, VONState):
                state = von_step(state, loss, batch)
            elif isinstance(state, IVONState):
                state = ivon_step(state, loss, batch)
            elif isinstance(state, RMSpropState):
                state = rmsprop_step(state, loss.gradient(state.theta, batch))
            elif isinstance(state, AdamState):
                state = adam_step(state, loss.gradient(state.theta, batch))
            else:
                raise TypeError(f"unknown optimizer state {type(state).__name__}")
        except LeftDomain as exc:
            # let callers flush what was recorded before the failing step
            exc.partial_record = TrainRunRecord(columns, rows, meta, state,
                                                time.perf_counter() - start)
            raise
        record(t + 1, state)
    return TrainRunRecord(columns, rows, meta, state, time.perf_counter() - start)
