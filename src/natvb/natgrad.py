"""Natural gradients of expected losses.

The central quantity is

    tilde_lam = grad_mu E_q[-loss(theta)],

the gradient of the expected negative loss in dual coordinates, which
equals the Fisher-preconditioned gradient in natural coordinates. Four
estimators are provided:

  exact   - closed form: either the loss is linear in T(theta) (the
            natural-coefficient fast path) or it has affine gradient so
            the Gaussian moment identities apply with exact expectations;
  delta   - expectations replaced by point evaluation at the mean;
  mc      - Monte Carlo over K posterior samples using the loss Hessian
            (full matrix for full-covariance families, diagonal for
            diagonal ones);
  reparam - Monte Carlo with the Hessian diagonal estimated from
            gradients alone via grad(theta) * s * (theta - m), the
            reparameterization-trick identity (diagonal families).

Every estimator takes (family, lam, loss, ...) and returns tilde_lam as
a 1-D array. For Gaussians the assembly uses the gradient/Hessian identity

    tilde_lam = -E_q[ (grad loss(theta) - H(theta) m ;  H(theta)/2) ],

a method of the family (gaussian_identity), whose hessian_kind picks the
full Hessian or its diagonal. check_support, which the estimators and
the harness both call, decides which (family, loss, kind) are served.

The sampled kinds and VON's sampled step share one batched core,
sampled_moments: the K draws reach the loss as one (K, P) array. The mc
kind makes one LossModel.gradient_and_mean_hessian call, which a loss
can serve from one pass over its data; for logistic regression that is
one logit product and one sigmoid for both halves.
Only the mean Hessian enters the identity, so a loss can return it
without forming K matrices; for logistic regression it is
X' diag(mean_k w_k) X + tau I, one product. The reparam kind needs
gradient_batch alone. The objective's Monte Carlo fallback likewise
makes one value_batch call, on a fixed-seed block of standard normals
that is drawn once (seeding.fixed_normals) and moved to each iterate by
the family's transport.

natgrad_via_dual certifies the identity behind all of this: mapping a
dual-coordinate gradient to natural coordinates with F and back with
F^-1 must reproduce it. Both maps are the families' closed-form
Jacobian-vector products (fisher_vp, fisher_solve), so the certificate
never forms the dense Fisher and costs O(P^3) per parameter on the full
family. It takes a block of parameters at once, as blr_run checks its
iterates, and stacks the products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import row_norms
from .errors import DomainError, MissingHessian, SingularFisher, SolverFailure
from .expfam import ExpFamily
from .losses import LossModel
from .quadrature import gaussian_expectation
from .seeding import ESTIMATE_STREAM, fixed_normals, make_rng

ESTIMATOR_KINDS = ("exact", "delta", "mc", "reparam")


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


def natgrad_via_dual(family: ExpFamily, lam, grad_wrt_mu,
                     grad_wrt_lambda=None, rtol: float = 1e-6) -> np.ndarray:
    """Cross-check of the dual-coordinate identity F(lam)^-1 grad_lam = grad_mu.

    Solves F(lam) x = grad_lam (grad_lam defaults to the chain-rule image
    F(lam) grad_mu) and verifies x matches grad_wrt_mu within rtol before
    returning it. Both products go through family.fisher_vp and
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
    if grad_wrt_lambda is None:
        grad_lam = family.fisher_vp(lams, grad_mu)
    else:
        grad_lam = np.asarray(grad_wrt_lambda, dtype=float).reshape(grad_mu.shape)
    solved = family.fisher_solve(lams, grad_lam)
    finite = np.isfinite(solved).all(axis=1)
    # a row that is not finite fails on that alone; its error is not read
    with np.errstate(invalid="ignore", over="ignore"):
        err = row_norms(solved - grad_mu) / np.maximum(1.0, row_norms(grad_mu))
    failed = ~finite | (err > rtol)
    if failed.any():
        row = int(np.argmax(failed))
        if not finite[row]:
            exc = SingularFisher("the Fisher solve is not finite")
        else:
            exc = SolverFailure(f"dual-coordinate identity violated: relative error "
                                f"{err[row]:.3e} > {rtol:.1e}")
        exc.row = row
        raise exc
    return solved[0] if one else solved


def check_support(family: ExpFamily, loss: LossModel, kind: str) -> None:
    """Raise unless estimator kind can serve (family, loss); else return None.

    The one support decision: the harness calls it before a run starts,
    each estimator before it estimates. exact needs a loss linear in
    T(theta) or closed-form expectations; every other kind needs the
    family's Gaussian identity (family.hessian_kind), delta and mc the
    loss Hessian of that kind, and reparam a diagonal family. A missing
    loss Hessian raises MissingHessian, anything else ValueError.
    """
    hessian = family.hessian_kind
    if kind == "exact":
        if loss.natural_coefficients(family) is None and not (
                loss.provides_expectations and hessian):
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


def natgrad_exact(family: ExpFamily, lam, loss: LossModel) -> np.ndarray:
    """Closed-form tilde_lam; available for linear-in-T and affine-gradient losses."""
    coeff = loss.natural_coefficients(family)
    if coeff is not None:
        return -linear_loss_natgrad(family, coeff)
    check_support(family, loss, "exact")
    mean, cov = family.to_mean_cov(lam)
    grad = loss.expected_gradient(mean, cov)
    hess = loss.expected_hessian(mean, cov)
    if family.hessian_kind == "diag":
        hess = np.diag(np.atleast_2d(hess))
    return family.gaussian_identity(mean, grad, hess)


def natgrad_delta_method(family: ExpFamily, lam, loss: LossModel) -> np.ndarray:
    """Gaussian identity with expectations replaced by evaluation at the mean."""
    check_support(family, loss, "delta")
    mean, _ = family.to_mean_cov(lam)
    grad = loss.gradient(mean)
    if family.hessian_kind == "diag":
        hess = loss.hessian_diag(mean)
    else:
        hess = loss.hessian_full(mean)
    return family.gaussian_identity(mean, grad, hess)


def reparam_hessian_terms(grads, prec, thetas, mean) -> np.ndarray:
    """grad(theta) * s * (theta - m) per draw of N(m, diag(s)^-1); each is
    unbiased for diag(E_q[H]) (the reparameterization identity)."""
    return grads * prec * (thetas - mean)


def sampled_moments(loss: LossModel, thetas: np.ndarray, mean: np.ndarray,
                    prec=None, curvature: str = "hessian", diag: bool = False,
                    batch=None) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo (E_q[grad], E_q[H]) over the K rows of thetas, draws from q.

    curvature="hessian" makes one gradient_and_mean_hessian call (diagonal
    H if diag); "reparam" one gradient_batch call, q = N(mean, diag(prec)^-1).
    """
    n_samples = len(thetas)
    if curvature == "hessian":
        grads, hess = loss.gradient_and_mean_hessian(thetas, batch, diag=diag)
    else:
        grads = loss.gradient_batch(thetas, batch)
        hess = reparam_hessian_terms(grads, prec, thetas, mean).sum(axis=0) / n_samples
    return grads.sum(axis=0) / n_samples, hess


def natgrad_gaussian_identity(family: ExpFamily, lam, loss: LossModel,
                              n_samples: int, seed: int | np.random.Generator,
                              batch=None, curvature: str = "hessian") -> np.ndarray:
    """Monte Carlo tilde_lam over K samples from q.

    The samples come from make_rng(seed), or from seed itself when it is
    a Generator.

    curvature="hessian" takes the loss Hessian of the family's
    hessian_kind; curvature="reparam" (diagonal families) the
    gradient-only reparameterization estimate of its diagonal. The K
    samples go to the loss as one (K, P) array: one
    gradient_and_mean_hessian call for curvature="hessian", one
    gradient_batch call otherwise.
    """
    check_support(family, loss, "mc" if curvature == "hessian" else "reparam")
    lam = family.natural(lam)
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    thetas = family.sample(lam, n_samples, rng)
    mean, _ = family.to_mean_cov(lam)
    prec = family.split_natural(lam)[1] if curvature == "reparam" else None
    diag = family.hessian_kind == "diag"
    grad, hess = sampled_moments(loss, thetas, mean, prec, curvature, diag, batch)
    return family.gaussian_identity(mean, grad, hess)


def estimate_natgrad(family: ExpFamily, lam, loss: LossModel,
                     spec: EstimatorSpec, step: int = 0,
                     batch=None, rng: np.random.Generator | None = None) -> np.ndarray:
    """tilde_lam at lam under spec; stochastic kinds draw on the step's stream.

    A sampled kind draws from rng when given, which must be that step's
    stream (seeding.StepStreams(spec.seed, *ESTIMATE_STREAM).at(step)),
    else from make_rng(spec.seed, *ESTIMATE_STREAM, step); a negative
    step names no stream (ValueError). A non-finite estimate raises
    DomainError.
    """
    if spec.kind == "exact":
        tilde = natgrad_exact(family, lam, loss)
    elif spec.kind == "delta":
        tilde = natgrad_delta_method(family, lam, loss)
    else:
        curvature = "hessian" if spec.kind == "mc" else "reparam"
        source = make_rng(spec.seed, *ESTIMATE_STREAM, step) if rng is None else rng
        tilde = natgrad_gaussian_identity(family, lam, loss, spec.n_samples, source,
                                          batch=batch, curvature=curvature)
    if not np.all(np.isfinite(tilde)):
        raise DomainError(f"{spec.kind} natural-gradient estimate at step {step} "
                          "is not finite")
    return tilde


def expected_loss(family: ExpFamily, lam, loss: LossModel,
                  spec: EstimatorSpec | None = None) -> float:
    """E_q[loss]: closed form when available, quadrature for P <= 2, else MC.

    The Monte Carlo fallback averages value_batch over max(K, 2) draws of
    stream (spec.seed, 0xE); spec defaults to 10,000 samples at seed 0.
    The standard normals behind them are drawn once per (K, P, seed)
    (seeding.fixed_normals) and transported to q_lam, so every iterate of
    a run reuses the same block: the same draws family.sample would make
    from make_rng(spec.seed, 0xE), without drawing them again.
    """
    lam = family.natural(lam)
    mean, cov = family.to_mean_cov(lam)
    if loss.provides_expectations:
        return loss.expected_value(mean, cov)
    if family.theta_dim <= 2:
        return gaussian_expectation(lambda ts: loss.value_batch(ts), mean, cov)
    spec = spec or EstimatorSpec(kind="mc", n_samples=10_000, seed=0)
    z = fixed_normals((max(spec.n_samples, 2), family.theta_dim), spec.seed, 0xE)
    return float(np.mean(loss.value_batch(family.transport(lam, z))))
