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

For Gaussians the assembly uses the gradient/Hessian identity

    tilde_lam = -E_q[ (grad loss(theta) - H(theta) m ;  H(theta)/2) ].

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
never forms the dense Fisher and costs O(P^3) on the full family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingHessian, SingularFisher, SolverFailure
from .expfam import ExpFamily
from .gaussian import DiagGaussian, ExpFamDistribution, FullGaussian, sym_to_coeff
from .losses import LossModel
from .quadrature import gaussian_expectation
from .seeding import fixed_normals, make_rng

ESTIMATOR_KINDS = ("exact", "delta", "mc", "reparam")
#: sampled estimators draw step t's samples on stream (seed << 20) ^ t,
#: which is distinct for every (seed >= 0, step) pair only while step < 2**20
SAMPLED_STEP_LIMIT = 1 << 20


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


@dataclass(frozen=True)
class NatGradEstimate:
    """tilde_lam with provenance: estimator kind, sample count, seed."""

    tilde_lambda: np.ndarray
    kind: str
    n_samples: int = 0
    seed: int | None = None

    def __post_init__(self):
        vec = np.asarray(self.tilde_lambda, dtype=float).reshape(-1)
        if not np.all(np.isfinite(vec)):
            raise ValueError("natural-gradient estimate must be finite")
        object.__setattr__(self, "tilde_lambda", vec)


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
    mu -> lam, so F is never formed: O(P^3) per call on the full family.
    Raises SingularFisher if the solve is not finite and SolverFailure if
    the identity is violated.
    """
    lam = family._check_natural(lam)
    grad_mu = np.asarray(grad_wrt_mu, dtype=float).reshape(-1)
    if grad_wrt_lambda is None:
        grad_lam = family.fisher_vp(lam, grad_mu)
    else:
        grad_lam = np.asarray(grad_wrt_lambda, dtype=float).reshape(-1)
    solved = family.fisher_solve(lam, grad_lam)
    if not np.all(np.isfinite(solved)):
        raise SingularFisher("the Fisher solve is not finite")
    err = float(np.linalg.norm(solved - grad_mu)) / max(1.0, float(np.linalg.norm(grad_mu)))
    if err > rtol:
        raise SolverFailure(
            f"dual-coordinate identity violated: relative error {err:.3e} > {rtol:.1e}")
    return solved


def assemble_tilde(family: ExpFamily, mean: np.ndarray, grad: np.ndarray,
                   hess) -> np.ndarray:
    """Map (E[grad], E[H]) into tilde_lam for a Gaussian family."""
    if isinstance(family, FullGaussian):
        hess = np.atleast_2d(np.asarray(hess, dtype=float))
        lin = -grad + hess @ mean
        return np.concatenate([lin, sym_to_coeff(-0.5 * hess)])
    if isinstance(family, DiagGaussian):
        hdiag = np.asarray(hess, dtype=float).reshape(-1)
        lin = -grad + hdiag * mean
        return np.concatenate([lin, -0.5 * hdiag])
    raise ValueError(f"Gaussian identity needs a Gaussian family, got {family.name!r}")


def natgrad_exact(dist: ExpFamDistribution, loss: LossModel) -> NatGradEstimate:
    """Closed-form tilde_lam; available for linear-in-T and affine-gradient losses."""
    family = dist.family
    coeff = loss.natural_coefficients(family)
    if coeff is not None:
        return NatGradEstimate(-linear_loss_natgrad(family, coeff), "exact")
    if loss.provides_expectations:
        mean, cov = family.to_mean_cov(dist.coords)
        grad = loss.expected_gradient(mean, cov)
        hess = loss.expected_hessian(mean, cov)
        if isinstance(family, DiagGaussian):
            hess = np.diag(np.atleast_2d(hess))
        return NatGradEstimate(assemble_tilde(family, mean, grad, hess), "exact")
    raise ValueError(
        f"{type(loss).__name__} supports no exact estimator; use delta, mc, or reparam")


def natgrad_delta_method(dist: ExpFamDistribution, loss: LossModel) -> NatGradEstimate:
    """Gaussian identity with expectations replaced by evaluation at the mean."""
    family = dist.family
    mean, _ = family.to_mean_cov(dist.coords)
    grad = loss.gradient(mean)
    if isinstance(family, FullGaussian):
        hess = loss.hessian_full(mean)
    else:
        hess = loss.hessian_diag(mean)
    return NatGradEstimate(assemble_tilde(family, mean, grad, hess), "delta")


def reparam_hessian_diag_estimate(dist: ExpFamDistribution, loss: LossModel,
                                  theta_sample, batch=None) -> np.ndarray:
    """Hessian-diagonal estimate grad(theta) * s * (theta - m) at one sample.

    Unbiased for diag(E_q[H]) when theta_sample ~ q and q is the diagonal
    Gaussian with mean m and precision s.
    """
    family = dist.family
    if not isinstance(family, DiagGaussian):
        raise ValueError("reparameterization estimator needs a diagonal Gaussian")
    theta = np.asarray(theta_sample, dtype=float).reshape(-1)
    lin, prec = family.split_natural(dist.coords)
    return reparam_hessian_terms(loss.gradient(theta, batch), prec, theta, lin / prec)


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


def natgrad_gaussian_identity(dist: ExpFamDistribution, loss: LossModel,
                              n_samples: int, seed: int, batch=None,
                              curvature: str = "hessian") -> NatGradEstimate:
    """Monte Carlo tilde_lam over K samples from q.

    Full-covariance families need loss.hessian_full. Diagonal families
    use loss.hessian_diag when curvature="hessian" and the gradient-only
    reparameterization estimate when curvature="reparam". The K samples
    go to the loss as one (K, P) array: one gradient_and_mean_hessian
    call for curvature="hessian", one gradient_batch call otherwise.
    """
    family = dist.family
    full = isinstance(family, FullGaussian)
    if not (full or isinstance(family, DiagGaussian)):
        raise ValueError(f"Gaussian identity needs a Gaussian family, got {family.name!r}")
    if full and curvature != "hessian":
        raise ValueError("reparam curvature is only defined for diagonal families")
    if full and not loss.provides_hessian_full:
        raise MissingHessian("Gaussian-identity estimator needs hessian_full")
    if curvature == "hessian" and not full and not loss.provides_hessian_diag:
        raise MissingHessian("mc estimator on a diagonal family needs hessian_diag")
    thetas = family.sample(dist.coords, n_samples, make_rng(seed))
    mean, _ = family.to_mean_cov(dist.coords)
    prec = family.split_natural(dist.coords)[1] if curvature == "reparam" else None
    grad, hess = sampled_moments(loss, thetas, mean, prec, curvature, not full, batch)
    kind = "mc" if curvature == "hessian" else "reparam"
    return NatGradEstimate(assemble_tilde(family, mean, grad, hess), kind, n_samples, seed)


def estimate_natgrad(family: ExpFamily, lam, loss: LossModel,
                     spec: EstimatorSpec, step: int = 0,
                     batch=None) -> NatGradEstimate:
    """Dispatch on spec.kind; stochastic kinds fold the step into the seed.

    A sampled kind needs 0 <= step < SAMPLED_STEP_LIMIT (ValueError
    otherwise), so that no two steps or seeds share a stream.
    """
    dist = ExpFamDistribution.from_coords(family, lam)
    if spec.kind == "exact":
        return natgrad_exact(dist, loss)
    if spec.kind == "delta":
        return natgrad_delta_method(dist, loss)
    if not 0 <= step < SAMPLED_STEP_LIMIT:
        raise ValueError(f"a sampled estimate needs 0 <= step < {SAMPLED_STEP_LIMIT}, "
                         f"got step {step}")
    seed = _fold_seed(spec.seed, step)
    curvature = "hessian" if spec.kind == "mc" else "reparam"
    return natgrad_gaussian_identity(dist, loss, spec.n_samples, seed,
                                     batch=batch, curvature=curvature)


def _fold_seed(seed: int, step: int) -> int:
    # stable per-step stream id; SeedSequence does the real mixing
    return (int(seed) << 20) ^ int(step)


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
    lam = family._check_natural(lam)
    mean, cov = family.to_mean_cov(lam)
    try:
        return loss.expected_value(mean, cov)
    except NotImplementedError:
        pass
    if family.theta_dim <= 2:
        return gaussian_expectation(lambda ts: loss.value_batch(ts), mean, cov)
    spec = spec or EstimatorSpec(kind="mc", n_samples=10_000, seed=0)
    z = fixed_normals((max(spec.n_samples, 2), family.theta_dim), spec.seed, 0xE)
    return float(np.mean(loss.value_batch(family.transport(lam, z))))
