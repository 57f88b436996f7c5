"""Natural gradients of expected losses.

The central quantity is

    tilde_lam = grad_mu E_q[-loss(theta)],

the gradient of the expected negative loss in dual coordinates, which
equals the Fisher-preconditioned gradient in natural coordinates. For
Gaussians it is built from two expectations under q by the identity

    tilde_lam = -( E_q[grad loss] - E_q[H] m ;  E_q[H]/2 ),

a method of the family (gaussian_identity), whose hessian_kind picks the
full Hessian or its diagonal. One core, gaussian_moments, defines how
each estimator kind takes E_q[grad loss] and E_q[H]:

  exact   - the loss's closed-form Gaussian expectations (affine gradient);
  delta   - point evaluation at the mean;
  mc      - Monte Carlo over K draws from q with the loss Hessian, one
            LossModel.gradient_and_mean_hessian call on the (K, P) block,
            which a loss can serve from one pass over its data (logistic
            regression: one logit product and one sigmoid, and the mean
            Hessian X' diag(mean_k w_k) X + tau I without K matrices);
  reparam - Monte Carlo with the Hessian diagonal from gradients alone,
            grad(theta) * s * (theta - m), the reparameterization identity
            (diagonal families), one gradient_batch call.

One entry point, estimate_natgrad, serves every kind: a loss linear in
T(theta) takes the natural-coefficient fast path (tilde_lam is its
coefficient vector c, exactly, at every iterate). QuadraticLoss
memoises c per family as one read-only array, and the fast path checks
a read-only vector once and then returns it as it is, so a conjugate
run builds and scans c once, not once per iterate. Otherwise it checks
support (check_support, which the harness calls too), draws a sampled
kind's K samples on the step's stream, and assembles the identity from
the core's moments. exact is full-data only and rejects a minibatch;
delta evaluates at the mean on the minibatch it is given. Only exact and
the closed-form or quadrature objective read the covariance; the rest
read lam's derived mean and precision, so on the diagonal family they
form no (P, P) array. VON's step (deep.von_step) takes its moments from
the same core. The objective's Monte Carlo fallback makes one
value_batch call, on a fixed-seed block of standard normals that is
drawn once (seeding.fixed_normals) and moved to each iterate by the
family's transport.

natgrad_via_dual certifies the identity behind all of this: mapping a
dual-coordinate gradient to natural coordinates with F and back with
F^-1 must reproduce it. Both maps are the families' closed-form
Jacobian-vector products (fisher_vp, fisher_solve), so the certificate
never forms the dense Fisher and costs O(P^3) per parameter on the full
family. It takes a block of parameters at once, as blr_run checks its
iterates, and stacks the products. Its one bound is DUAL_RTOL, read at
call time by every caller.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ._linalg import row_norms
from .errors import DomainError, MissingHessian, SingularFisher, SolverFailure
from .expfam import ExpFamily
from .losses import LossModel
from .quadrature import gaussian_expectation
from .seeding import ESTIMATE_STREAM, STREAMS, fixed_normals, make_rng

ESTIMATOR_KINDS = ("exact", "delta", "mc", "reparam")
#: the relative error natgrad_via_dual allows in F^-1 (F grad_mu) = grad_mu
DUAL_RTOL = 1e-6
_FULL_DATA_ONLY = "the exact estimator's closed forms are full-data only; got a minibatch"
#: read-only natural-coefficient vectors _linear_estimate has checked, by
#: id; an entry goes when its vector is collected, so no id is read stale
_CHECKED_COEFFICIENTS = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class EstimatorSpec:
    """How to estimate natural gradients: kind, sample count K, base seed."""

    kind: str = "exact"
    n_samples: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def linear_loss_natgrad(family: ExpFamily, coeff) -> np.ndarray:
    """grad_mu E_q[loss] for loss = <-coeff, T(theta)> (+ additive constant).

    Equals -coeff exactly, independent of the query distribution:
    E_q[<-coeff, T>] = <-coeff, mu> is linear in mu.
    """
    coeff = np.asarray(coeff, dtype=float).reshape(-1)
    if coeff.size != family.param_dim:
        raise ValueError("coefficient length does not match the family")
    return -coeff


def natgrad_via_dual(family: ExpFamily, lam, grad_wrt_mu) -> np.ndarray:
    """Cross-check of the dual-coordinate identity F(lam)^-1 grad_lam = grad_mu.

    Solves F(lam) x = grad_lam for grad_lam the chain-rule image
    F(lam) grad_mu and verifies x matches grad_wrt_mu within DUAL_RTOL
    before returning it. Both products go through family.fisher_vp and
    family.fisher_solve, the closed-form Jacobians of lam -> mu and
    mu -> lam, so F is never formed: O(P^3) per parameter on the full
    family. Raises SingularFisher if the solve is not finite and
    SolverFailure if the identity is violated.

    Given a block, a sequence of B parameters lam with (B, param_dim)
    gradients, it checks the B identities with one stacked fisher_vp and
    one stacked fisher_solve and returns the solutions as rows; the error
    raised is the first failing row's, with that row's index as its
    `row` attribute. One parameter is the block B = 1.
    """
    grad_mu = np.asarray(grad_wrt_mu, dtype=float)
    one = grad_mu.ndim != 2
    lams = [family.natural(lam)] if one else [family.natural(x) for x in lam]
    grad_mu = grad_mu.reshape(len(lams), -1)
    solved = family.fisher_solve(lams, family.fisher_vp(lams, grad_mu))
    finite = np.isfinite(solved).all(axis=1)
    # a row that is not finite fails on that alone; its error is not read
    with np.errstate(invalid="ignore", over="ignore"):
        err = row_norms(solved - grad_mu) / np.maximum(1.0, row_norms(grad_mu))
    failed = ~finite | (err > DUAL_RTOL)
    if failed.any():
        row = int(np.argmax(failed))
        if not finite[row]:
            exc = SingularFisher("the Fisher solve is not finite")
        else:
            exc = SolverFailure(f"dual-coordinate identity violated: relative error "
                                f"{err[row]:.3e} > {DUAL_RTOL:.1e}")
        exc.row = row
        raise exc
    return solved[0] if one else solved


def check_support(family: ExpFamily, loss: LossModel, kind: str) -> None:
    """Raise unless estimator kind can serve (family, loss); else return None.

    The one support decision: the harness calls it before a run starts,
    estimate_natgrad before it estimates. exact needs a loss linear in
    T(theta) or closed-form expectations; every other kind needs the
    family's Gaussian identity (family.hessian_kind), delta and mc the
    loss Hessian of that kind, and reparam a diagonal family. A missing
    loss Hessian raises MissingHessian, anything else ValueError.
    """
    _check_support(family, loss, kind, kind == "exact"
                   and loss.natural_coefficients(family) is not None)


def _check_support(family: ExpFamily, loss: LossModel, kind: str, linear: bool) -> None:
    """check_support, told whether the loss is linear in the family's T(theta)
    (read for exact only), which estimate_natgrad has already asked."""
    hessian = family.hessian_kind
    if kind == "exact":
        if not linear and not (loss.provides_expectations and hessian):
            raise ValueError(f"{type(loss).__name__} supports no exact estimator "
                             f"on {family.name!r}; use delta, mc, or reparam")
    elif hessian is None:
        raise ValueError(f"Gaussian identity needs a Gaussian family, got {family.name!r}")
    elif kind == "reparam":
        if hessian != "diag":
            raise ValueError("reparam curvature is only defined for diagonal families")
    elif not (loss.provides_hessian_full if hessian == "full"
              else loss.provides_hessian_diag):
        raise MissingHessian(f"{kind} estimator on {family.name!r} needs hessian_{hessian}")


def reparam_hessian_terms(grads, prec, thetas, mean) -> np.ndarray:
    """grad(theta) * s * (theta - m) per draw of N(m, diag(s)^-1); each is
    unbiased for diag(E_q[H]) (the reparameterization identity)."""
    return grads * prec * (thetas - mean)


def gaussian_moments(loss: LossModel, kind: str, mean, cov=None, thetas=None, prec=None,
                     diag: bool = False, batch=None) -> tuple[np.ndarray, np.ndarray]:
    """(E_q[grad loss], E_q[H]) under q = N(mean, cov) as estimator kind takes them.

    exact reads the loss's closed forms at (mean, cov), which are full-data
    only: a minibatch raises ValueError. The other kinds use the minibatch
    batch: delta evaluates the gradient and Hessian at the mean; mc and
    reparam average over the K rows of thetas, draws from q, mc by one
    gradient_and_mean_hessian call, reparam by one gradient_batch call and
    the reparameterization terms for q = N(mean, diag(prec)^-1). H is the
    diagonal if diag, else the full matrix.
    """
    if kind == "exact":
        if batch is not None:
            raise ValueError(_FULL_DATA_ONLY)
        grad = loss.expected_gradient(mean, cov)
        hess = loss.expected_hessian(mean, cov)
        return grad, np.diag(np.atleast_2d(hess)) if diag else hess
    if kind == "delta":
        hessian = loss.hessian_diag if diag else loss.hessian_full
        return loss.gradient(mean, batch), hessian(mean, batch)
    n_samples = len(thetas)
    if kind == "mc":
        grads, hess = loss.gradient_and_mean_hessian(thetas, batch, diag=diag)
    else:
        grads = loss.gradient_batch(thetas, batch)
        hess = reparam_hessian_terms(grads, prec, thetas, mean).sum(axis=0) / n_samples
    return grads.sum(axis=0) / n_samples, hess


def estimate_natgrad(family: ExpFamily, lam, loss: LossModel,
                     spec: EstimatorSpec, step: int = 0,
                     batch=None, rng: np.random.Generator | None = None) -> np.ndarray:
    """tilde_lam at lam under spec; stochastic kinds draw on the step's stream.

    exact takes the natural-coefficient fast path when the loss is linear
    in T(theta) (_linear_estimate). Every other case checks support,
    reads lam once, and takes gaussian_moments to the family's Gaussian
    identity. exact is full-data only: with a minibatch it raises
    ValueError. A sampled kind draws its K samples from family.sample on
    rng when given, which must be that step's stream
    (seeding.StepStreams(spec.seed, *ESTIMATE_STREAM).at(step)), else on
    make_rng(spec.seed, *ESTIMATE_STREAM, step); a negative step names no
    stream (ValueError). A non-finite estimate raises DomainError.
    """
    kind = spec.kind
    coeff = loss.natural_coefficients(family) if kind == "exact" else None
    if coeff is not None:
        if batch is not None:
            raise ValueError(_FULL_DATA_ONLY)
        return _linear_estimate(family, coeff, step)
    _check_support(family, loss, kind, linear=False)
    lam = family.natural(lam)
    thetas = None
    if kind in ("mc", "reparam"):
        rng = make_rng(spec.seed, *ESTIMATE_STREAM, step) if rng is None else rng
        thetas = family.sample(lam, spec.n_samples, rng)
    factor = lam.derived
    cov = family.to_mean_cov(lam)[1] if kind == "exact" else None
    grad, hess = gaussian_moments(loss, kind, factor.mean, cov, thetas, factor.prec,
                                  family.hessian_kind == "diag", batch)
    return _finite_estimate(family.gaussian_identity(factor.mean, grad, hess), kind, step)


def _finite_estimate(tilde: np.ndarray, kind: str, step: int) -> np.ndarray:
    if not np.isfinite(tilde).all():
        raise DomainError(f"{kind} natural-gradient estimate at step {step} "
                          "is not finite")
    return tilde


def _linear_estimate(family: ExpFamily, coeff, step: int) -> np.ndarray:
    """tilde_lam = coeff for a loss linear in T(theta), -linear_loss_natgrad.

    A 1-D float vector that cannot change, read-only and owning its data,
    is kept in _CHECKED_COEFFICIENTS once it passes the checks (its
    length, then finiteness) and, handed in again, returned as it is
    after a length check: a loss that memoises its coefficients, as
    QuadraticLoss does per family, has them scanned once per run, not
    once per iterate. Anything else is checked at every call.
    """
    if _CHECKED_COEFFICIENTS.get(id(coeff)) is coeff:
        if coeff.size != family.param_dim:
            raise ValueError("coefficient length does not match the family")
        return coeff
    tilde = _finite_estimate(-linear_loss_natgrad(family, coeff), "exact", step)
    if (type(coeff) is np.ndarray and coeff.dtype == np.float64 and coeff.ndim == 1
            and coeff.flags.owndata and not coeff.flags.writeable):
        _CHECKED_COEFFICIENTS[id(coeff)] = coeff
    return tilde


def expected_loss(family: ExpFamily, lam, loss: LossModel,
                  spec: EstimatorSpec | None = None) -> float:
    """E_q[loss]: closed form when available, quadrature for P <= 2, else MC.

    The Monte Carlo fallback averages value_batch over max(K, 2) draws of
    stream (spec.seed, STREAMS.objective_mc); spec defaults to 10,000
    samples at seed 0. The standard normals behind them are drawn once per
    (K, P, seed) (seeding.fixed_normals) and transported to q_lam, so every
    iterate of a run reuses the same block: the draws family.sample would
    make from that stream, without drawing them again.
    """
    lam = family.natural(lam)
    if loss.provides_expectations:
        return loss.expected_value(*family.to_mean_cov(lam))
    if family.theta_dim <= 2:
        return gaussian_expectation(loss.value_batch, *family.to_mean_cov(lam))
    spec = spec or EstimatorSpec(kind="mc", n_samples=10_000, seed=0)
    z = fixed_normals((max(spec.n_samples, 2), family.theta_dim), spec.seed, STREAMS.objective_mc)
    values = loss.value_batch(family._transport(lam, z))
    # np.mean's two steps, a sum and a division by the count, without its dispatch
    return float(values.sum() / values.size)
