"""Natural-gradient descent on the variational objective.

The iteration

    lam_{t+1} = (1 - rho_t) lam_t + rho_t * tilde_lam_t,
    tilde_lam_t = grad_mu E_{q_t}[-loss(theta)],

performs natural-gradient descent on L(q) = E_q[loss] - H(q) in natural
coordinates and mirror descent in dual coordinates. Three reformulations
of the same step are implemented and cross-checked against each other:

  * the multiplicative (Bayes-filter) form, where q_{t+1} is proportional
    to q_t^(1-rho) times an exponential-family likelihood built from
    tilde_lam (verified pointwise by multiplicative_form_check);
  * the mirror-descent proximal problem, linearizing L in mu with a
    KL(q || q_t)/rho proximity term (solved numerically by
    mirror_descent_step_numeric and compared to the closed form);
  * the conjugate special case, where the loss is linear in T(theta) and
    one step with rho = 1 lands exactly on the posterior
    lam* = tilde_lam_lik + tilde_lam_prior (conjugate_posterior, whose
    one check is family.natural of the sum).

The rate is a number in (0, 1], checked once when BLRConfig is built;
rho_t is below it only on a step blr_run retries at a halved rate.

Stationarity is certified by fixed_point_residual: at an optimum the
natural parameter equals the natural gradient of the expected negative
loss evaluated at itself. The estimate at an iterate serves both that
certificate and the step taken from the iterate, so blr_run, the one
iteration loop, computes it once and forms the residual inline.

blr_run certifies every step with both checks, which share one
contract: each returns its number (the spread, the residual) and raises
its error. Each check's one bound is a module constant read at call
time (FILTER_TOL on the grid FILTER_PROBES, PROBE_SEED; natgrad.DUAL_RTOL),
so blr_run and the single-step checks agree. blr_run checks a block of
steps at a time: it records each residual's value as it goes and queues
the Bayes-filter check (its probes' T, formed per step by probe_stats)
and the residual's inverse-Fisher cross-check. A block is checked by one
stacked filter_spreads and one stacked natgrad_via_dual, in step order,
so the spreads kept and the first failure raised are those of a
step-by-step check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._linalg import cho_factor, cho_solve, norm
from .errors import (BayesFilterViolation, DomainError, LeftDomain, NonPDHessian,
                     SingularFisher, SolverFailure)
from .expfam import ExpFamily, NaturalParams
from .losses import LossModel
from .natgrad import (EstimatorSpec, estimate_natgrad, expected_loss,
                      natgrad_via_dual)
from .seeding import ESTIMATE_STREAM, StepStreams, fixed_normals


@dataclass(frozen=True)
class BLRConfig:
    """Loop parameters: rate, budget, tolerance, estimator, retries.

    The rate (checked_rate, stored as a float) and max_iter >= 1 are
    checked once, when built."""

    learning_rate: float = 1.0
    max_iter: int = 100
    #: residual or relative natural-parameter change declaring convergence
    #: (deterministic estimators only; stochastic runs use the budget)
    tol: float = 1e-9
    estimator: EstimatorSpec = field(default_factory=EstimatorSpec)
    #: times blr_run halves a step's rate before a domain exit propagates
    max_rate_halvings: int = 20

    def __post_init__(self):
        object.__setattr__(self, "learning_rate", checked_rate(self.learning_rate))
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def checked_rate(rate) -> float:
    """rate as a float in (0, 1], else ValueError: the rule BLRConfig and
    VON's and IVON's states apply to their rates when built."""
    value = float(rate)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {value}")
    return value


@dataclass(frozen=True)
class BLRState:
    """One iterate: natural coordinates lam (its family is lam.family) plus
    the natural gradient that made it."""

    t: int
    lam: NaturalParams
    tilde_lambda: np.ndarray | None = None


def blr_init(family: ExpFamily, lam0) -> BLRState:
    return BLRState(0, family.natural(lam0))


def blr_step(state: BLRState, loss: LossModel, cfg: BLRConfig,
             batch=None, estimate: np.ndarray | None = None) -> BLRState:
    """One convex-combination update in natural coordinates.

    estimate, if given, must be tilde_lam at state.lam under
    cfg.estimator on step state.t's stream; it does not depend on the
    rate, so retries reuse it.
    Raises LeftDomain with the offending iterate if family.natural
    rejects the combination; blr_run retries such a step at half the rate.
    """
    if estimate is None:
        estimate = estimate_natgrad(state.lam.family, state.lam, loss, cfg.estimator,
                                    step=state.t, batch=batch)
    return _step_at_rate(state, cfg.learning_rate, estimate)


def _step_at_rate(state: BLRState, rho: float, estimate: np.ndarray) -> BLRState:
    """blr_step's update at a given rate rho in (0, 1]."""
    family = state.lam.family
    new_lam = (1.0 - rho) * state.lam.coords + rho * estimate
    try:
        lam = family.natural(new_lam)
    except DomainError as exc:
        raise LeftDomain(
            f"BLR step {state.t} left the domain of {family.name!r}",
            iterate=new_lam, iteration=state.t) from exc
    return BLRState(state.t + 1, lam, estimate)


# -- conjugate path ----------------------------------------------------

def conjugate_posterior(family: ExpFamily, lam_lik, lam_prior) -> NaturalParams:
    """Bayes' rule as addition: lam* = lam_lik + lam_prior.

    family.natural is the one check of the sum, and factors it once:
    DomainError if it is not finite or not a proper posterior,
    FamilyMismatch if it does not have the family's length.
    """
    return family.natural(np.add(lam_lik, lam_prior))


# -- step verifiers ----------------------------------------------------

#: the Bayes-filter check's one bound and probe grid, read at call time by
#: multiplicative_form_check, probe_stats and blr_run alike
FILTER_TOL, FILTER_PROBES, PROBE_SEED = 1e-8, 10, 1009


def _filter_violation(t: int, spread: float) -> BayesFilterViolation:
    return BayesFilterViolation(f"Bayes-filter form violated at step {t} "
                                f"(spread {spread:.3e} > {FILTER_TOL:.1e})")


def multiplicative_form_check(state_t: BLRState, state_t1: BLRState, rho: float) -> float:
    """A step's Bayes-filter spread; BayesFilterViolation if over FILTER_TOL or NaN.

    log q_{t+1}(theta) - [(1-rho) log q_t(theta) + rho <tilde_lam, T(theta)>]
    must be constant in theta on a grid of FILTER_PROBES points from q_t. The
    grid is the standard-normal block of make_rng(PROBE_SEED), drawn once
    per (FILTER_PROBES, P, PROBE_SEED) by seeding.fixed_normals and transported
    to q_t, so it is the grid family.sample would draw with that
    generator, without redrawing it at every step. T(probes) is formed
    once (probe_stats); each log q is log_density's arithmetic, T @ lam -
    A(lam), on it, with A read off the validated iterate (filter_spreads,
    here for a block of one step).
    """
    if state_t1.tilde_lambda is None:
        raise ValueError("state_t1 carries no natural-gradient estimate")
    stats = probe_stats(state_t)
    spread = float(filter_spreads([(state_t, state_t1, rho)], stats[None])[0])
    if not spread <= FILTER_TOL:
        raise _filter_violation(state_t.t, spread)
    return spread


def probe_stats(state_t: BLRState) -> np.ndarray:
    """T at the Bayes-filter check's probe grid on q_t, shape (FILTER_PROBES, param_dim)."""
    family = state_t.lam.family
    z = fixed_normals((FILTER_PROBES, family.theta_dim), PROBE_SEED)
    return family.sufficient_stats_batch(family._transport(state_t.lam, z))


def filter_spreads(steps, stats: np.ndarray) -> np.ndarray:
    """The Bayes-filter gaps' spread for each of a block of B steps.

    steps holds B (state_t, state_t1, rho) and stats their probe_stats,
    shape (B, FILTER_PROBES, param_dim). The 3B products of T(probes) with
    lam_{t+1}, lam_t and tilde_lam are one stacked matmul whose every
    product is the gemv a single step would take, so each spread is
    bitwise the one-step value.
    """
    family = steps[0][0].lam.family
    lams = [(family.natural(s_t.lam), family.natural(s_t1.lam)) for s_t, s_t1, _ in steps]
    coeffs = np.array([(lam_t1.coords, lam_t.coords, s_t1.tilde_lambda)
                       for (lam_t, lam_t1), (_, s_t1, _) in zip(lams, steps)])
    cumulants = np.array([(lam_t1.derived.cumulant, lam_t.derived.cumulant)
                          for lam_t, lam_t1 in lams])
    rho = np.array([r for _, _, r in steps])[:, None]
    next_, prev, tilde = np.moveaxis(np.matmul(stats[:, None], coeffs[..., None])[..., 0],
                                     1, 0)
    # one gap per probe: log q_{t+1} - (1-rho) log q_t - rho <tilde_lam, T>
    gaps = ((next_ - cumulants[:, :1]) - (1.0 - rho) * (prev - cumulants[:, 1:])
            - rho * tilde)
    return np.max(gaps, axis=1) - np.min(gaps, axis=1)


def _residual(lam: NaturalParams, estimate: np.ndarray) -> float:
    return norm(lam.coords - estimate) / max(1.0, norm(lam.coords))


def fixed_point_residual(family: ExpFamily, lam, loss: LossModel,
                         spec: EstimatorSpec, step: int = 0) -> float:
    """|| lam - tilde_lam(lam) || / max(1, ||lam||); ~0 certifies stationarity.

    Estimates tilde_lam at (lam, step) under spec and cross-checks the
    inverse-Fisher form of the optimality condition with natgrad_via_dual
    (solving F x = grad_lam must reproduce the dual-coordinate gradient),
    through Fisher-vector products that never form F; the cross-check
    does not change the value.
    """
    lam = family.natural(lam)
    estimate = estimate_natgrad(family, lam, loss, spec, step=step)
    natgrad_via_dual(family, lam, estimate)
    return _residual(lam, estimate)


def vb_objective(family: ExpFamily, lam, loss: LossModel,
                 spec: EstimatorSpec | None = None) -> float:
    """L(q_lam) = E_q[loss] - H(q_lam)."""
    lam = family.natural(lam)
    return expected_loss(family, lam, loss, spec) - family.entropy(lam)


# -- mirror descent ----------------------------------------------------

#: the mirror-descent solve's gradient-norm bound and Newton budget
MIRROR_GRAD_TOL, MIRROR_MAX_ITER = 1e-10, 200


def mirror_descent_step_numeric(family: ExpFamily, lam_t, tilde_lam, rho: float) -> np.ndarray:
    """Solve the proximal problem of one step numerically in dual coordinates.

        argmin_mu  <mu, lam_t - tilde_lam> + KL(q_mu || q_t) / rho

    by damped Newton on the scalar objective (analytic gradient
    lam_t - tilde_lam + (lam(mu) - lam_t)/rho, curvature from the Fisher
    metric). Returns the natural coordinates of the minimizer, which must
    agree with the closed-form convex combination. rho passes checked_rate.
    Raises SolverFailure if the gradient norm does not reach
    MIRROR_GRAD_TOL within MIRROR_MAX_ITER Newton steps.
    """
    lam_t = family.natural(lam_t)
    tilde = np.asarray(tilde_lam, dtype=float).reshape(-1)
    rho = checked_rate(rho)
    slope = lam_t.coords - tilde
    cum_t = family.cumulant(lam_t)

    def objective(mu: np.ndarray) -> tuple[float, NaturalParams]:
        lam = family.natural(family.dual_to_natural(mu))
        kl = cum_t - family.cumulant(lam) - float((lam_t.coords - lam.coords) @ mu)
        return float(slope @ mu) + kl / rho, lam

    mu = family.natural_to_dual(lam_t)
    value, lam = objective(mu)
    for _ in range(MIRROR_MAX_ITER):
        grad = slope + (lam.coords - lam_t.coords) / rho
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= MIRROR_GRAD_TOL:
            return lam.coords
        direction = -rho * (family.fisher(lam) @ grad)
        step_size = 1.0
        while step_size > 1e-12:
            candidate = mu + step_size * direction
            try:
                new_value, new_lam = objective(candidate)
            except DomainError:
                step_size *= 0.5
                continue
            new_grad = slope + (new_lam.coords - lam_t.coords) / rho
            new_grad_norm = float(np.linalg.norm(new_grad))
            # Armijo decrease, or gradient contraction once objective
            # differences fall below roundoff near the optimum
            if (new_value <= value + 1e-4 * step_size * float(grad @ direction)
                    or new_grad_norm <= 0.9 * grad_norm):
                mu, value, lam = candidate, new_value, new_lam
                break
            step_size *= 0.5
        else:
            raise SolverFailure("mirror-descent line search stalled")
    grad = slope + (lam.coords - lam_t.coords) / rho
    if np.linalg.norm(grad) <= MIRROR_GRAD_TOL:
        return lam.coords
    raise SolverFailure(
        f"mirror-descent solve stopped at gradient norm {np.linalg.norm(grad):.3e}")


# -- Newton recovery ---------------------------------------------------

def newton_recovery_step(loss: LossModel, mean_t) -> tuple[np.ndarray, np.ndarray]:
    """One Newton step and its curvature:

        m_{t+1} = m_t - H(m_t)^-1 grad(m_t),   S_{t+1} = H(m_t).

    Identical to a delta-method BLR step with rho = 1 on the
    full-covariance family. Raises NonPDHessian when H(m_t) is not PD.
    """
    mean_t = np.asarray(mean_t, dtype=float).reshape(-1)
    hess = loss.hessian_full(mean_t)
    try:
        factor = cho_factor(hess, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NonPDHessian("Newton step needs a positive-definite Hessian") from exc
    new_mean = mean_t - cho_solve(factor, loss.gradient(mean_t))
    return new_mean, hess


# -- run loop ----------------------------------------------------------

#: elements the queued probe statistics of one block of certificates may
#: hold, FILTER_PROBES x param_dim per step (8 bytes each); the block's
#: other temporaries, the cross-check's stacked P x P matrices, are each smaller
_CHECK_ELEMENTS = 1 << 16


class BLRTraceRow(NamedTuple):
    t: int
    rho: float
    objective: float
    residual: float


@dataclass
class BLRRun:
    state: BLRState
    trace: list[BLRTraceRow]
    converged: bool
    #: every step's Bayes-filter spread, in step order
    filter_spreads: np.ndarray


def _step_with_halvings(state: BLRState, cfg: BLRConfig,
                        estimate: np.ndarray) -> tuple[BLRState, float]:
    """blr_step from state, halving the rate while the step leaves the domain."""
    rho = cfg.learning_rate
    for _ in range(cfg.max_rate_halvings + 1):
        try:
            return _step_at_rate(state, rho, estimate), rho
        except LeftDomain:
            rho *= 0.5
    raise LeftDomain(f"no valid step after {cfg.max_rate_halvings} halvings",
                     iteration=state.t)


def _certify(steps: list, stats: list, estimates: list, trace: list) -> np.ndarray:
    """Check a block of queued steps' certificates, in the order blr_run takes
    them: step j's Bayes-filter check, then the cross-check at the iterate
    it made. steps holds (state_t, state_t1, rho), stats their
    probe_stats, and estimates the estimates at the new iterates, which
    may lack the last.

    The first failure raises, with the rows recorded before its step as
    partial_trace; else returns the steps' Bayes-filter spreads.
    """
    spreads = filter_spreads(steps, np.array(stats))
    passed = spreads <= FILTER_TOL
    n_filter = len(steps) if passed.all() else int(np.argmin(passed))
    # the cross-checks that come before the first failed filter check
    n_cross = min(n_filter, len(estimates))
    if n_cross:
        try:
            natgrad_via_dual(steps[0][0].lam.family, [step[1].lam for step in steps[:n_cross]],
                             np.array(estimates[:n_cross]))
        except (SingularFisher, SolverFailure) as exc:
            exc.partial_trace = trace[:steps[exc.row][0].t]
            raise
    if n_filter < len(steps):
        t = steps[n_filter][0].t
        exc = _filter_violation(t, spreads[n_filter])
        exc.partial_trace = trace[:t]
        raise exc
    return spreads


def blr_run(family: ExpFamily, lam0, loss: LossModel, cfg: BLRConfig) -> BLRRun:
    """Iterate blr_step to convergence or budget, certifying every step.

    Each iterate's estimate serves its residual, the step from it and
    that step's rate-halving retries. Each row holds the step's rate and
    the objective and residual at the new iterate. Deterministic kinds
    stop once the residual or the relative change of lam reaches cfg.tol.
    Sampled kinds take step t's draws from one seeding.StepStreams on
    (spec.seed, *ESTIMATE_STREAM, t): the stream estimate_natgrad would
    make for step t, without a new SeedSequence and Philox per step.

    Every step's two certificates are checked: multiplicative_form_check
    (a failure raises BayesFilterViolation) and fixed_point_residual's
    inverse-Fisher cross-check (SolverFailure, SingularFisher). They are
    queued and checked a block of steps at a time: one stacked
    filter_spreads and one stacked natgrad_via_dual per block, whose
    size keeps the queued probe statistics within _CHECK_ELEMENTS
    elements. A block is checked when it fills, when the loop ends and
    before any exception leaves the loop, in step order (step t's filter
    check, then the cross-check at the iterate it made), so the first
    failure raised is the one a step-by-step check would raise. A
    failure, or a domain error that no earlier certificate failure
    precedes, propagates with the rows recorded before its step as
    partial_trace, the hand-off deep.train makes too; the harness writes
    them under BLRTraceRow's fields.
    """
    spec = cfg.estimator
    trace: list[BLRTraceRow] = []
    spreads: list[np.ndarray] = []
    converged = False
    deterministic = spec.kind in ("exact", "delta")
    streams = None if deterministic else StepStreams(spec.seed, *ESTIMATE_STREAM)
    block = max(1, _CHECK_ELEMENTS // (FILTER_PROBES * family.param_dim))
    # queued certificates: steps, their probe statistics, and the estimates
    # at the iterates they made
    queue: list[tuple[BLRState, BLRState, float]] = []
    stats: list[np.ndarray] = []
    estimates: list[np.ndarray] = []

    def estimate_at(state: BLRState) -> np.ndarray:
        rng = None if streams is None else streams.at(state.t)
        return estimate_natgrad(family, state.lam, loss, spec, step=state.t, rng=rng)

    def certify() -> None:
        pending = queue[:], stats[:], estimates[:]
        for part in (queue, stats, estimates):
            part.clear()
        if pending[0]:
            spreads.append(_certify(*pending, trace))

    try:
        state = blr_init(family, lam0)
        estimate = estimate_at(state)
        for _ in range(cfg.max_iter):
            prev = state
            state, rho = _step_with_halvings(prev, cfg, estimate)
            queue.append((prev, state, rho))
            stats.append(probe_stats(prev))
            # stationarity certificate at the fresh iterate; a conjugate
            # rate-1 jump therefore reports convergence after its one step
            estimate = estimate_at(state)
            estimates.append(estimate)
            residual = _residual(state.lam, estimate)
            objective = vb_objective(family, state.lam, loss, spec)
            trace.append(BLRTraceRow(state.t, rho, objective, residual))
            if len(queue) == block:
                certify()
            rel_change = (norm(state.lam.coords - prev.lam.coords)
                          / max(1.0, norm(prev.lam.coords)))
            if deterministic and (residual <= cfg.tol or rel_change <= cfg.tol):
                converged = True
                break
    except (DomainError, LeftDomain) as exc:
        exc.partial_trace = trace
        raise
    finally:
        # the certificates still queued when the loop ends or an exception
        # leaves it come first in step order: a failed one is raised
        # (and replaces any exception in flight)
        certify()
    return BLRRun(state, trace, converged, np.concatenate(spreads))
