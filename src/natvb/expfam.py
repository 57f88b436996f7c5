"""Exponential families in dual coordinates.

A family member has density

    q(theta) = exp[ <lam, T(theta)> - A(lam) ],

with natural parameter lam in an open set, sufficient statistic T, and
strictly convex cumulant A. The base measure is fixed to h = 1
throughout: the entropy-gradient identity below is derived under that
assumption, so no base-measure hook is offered.

Two coordinate systems are exposed:

  * natural coordinates lam (the coefficient in front of T), and
  * expectation (dual) coordinates mu = E[T(theta)] = grad A(lam).

The map lam <-> mu is a bijection on minimal families. Everything below
follows from three identities:

    mu(lam)    = grad A(lam)
    F(lam)     = hess A(lam) = Cov[T(theta)]          (Fisher matrix)
    grad_lam H = -F(lam) lam                          (entropy gradient)

Since F is the Jacobian of lam -> mu, F v is a directional derivative of
natural_to_dual and F^-1 w one of dual_to_natural, so a family can apply
F and its inverse without forming F (fisher_vp, fisher_solve).

Concrete families implement the primitives (cumulant, conversions,
Fisher and its products, T, sampling); entropy, Fenchel conjugate, KL
and its dual gradient are derived here once.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FamilyMismatch


def _as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise DomainError("coordinates must be finite")
    return v


@dataclass(frozen=True)
class NaturalParams:
    """Natural coordinates lam, validated against a family's open domain.

    Construct through `family.natural(coords)`; direct construction skips
    the domain check.
    """

    coords: np.ndarray
    family: "ExpFamily | None" = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coords", _as_vector(self.coords))


@dataclass(frozen=True)
class ExpectationParams:
    """Dual coordinates mu = E[T(theta)]; realizable iff some lam maps to them."""

    coords: np.ndarray
    family: "ExpFamily | None" = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coords", _as_vector(self.coords))


class ExpFamily(abc.ABC):
    """A minimal exponential family with h = 1.

    Subclasses fix the statistic T and provide the primitives; parameter
    vectors are plain 1-D float arrays in the documented layout. All
    methods are pure. A family may hold a bounded memo of pure results
    (FullGaussian keeps the factorisation of its last few natural
    parameters, as read-only arrays); a memo changes no result, so
    families and parameter vectors can still be shared across threads.
    `natvb run --jobs` runs configs in separate processes, so no memo is
    shared between runs.

    The Gaussian identity the natural-gradient estimators assemble with
    is a method of the Gaussian families, gaussian_identity, which the
    families that have it announce through hessian_kind.
    """

    #: dimension of theta
    theta_dim: int
    #: dimension of lam and mu
    param_dim: int
    #: short identifier used in configs and error messages
    name: str
    #: the loss Hessian the family's gaussian_identity takes: "full" (the
    #: (P, P) matrix) or "diag" (its diagonal); None if it has no such identity
    hessian_kind: str | None = None

    # families are stateless: equal name means the same family
    def __eq__(self, other):
        return isinstance(other, ExpFamily) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    # -- primitives -------------------------------------------------

    @abc.abstractmethod
    def contains_natural(self, lam) -> bool:
        """Whether lam lies in the family's open domain."""

    @abc.abstractmethod
    def contains_expectation(self, mu) -> bool:
        """Whether mu is realizable (interior of the moment range)."""

    @abc.abstractmethod
    def cumulant(self, lam) -> float:
        """Log normalizer A(lam)."""

    @abc.abstractmethod
    def natural_to_dual(self, lam) -> np.ndarray:
        """mu(lam) = E[T(theta)] = grad A(lam)."""

    @abc.abstractmethod
    def dual_to_natural(self, mu) -> np.ndarray:
        """Inverse of natural_to_dual."""

    @abc.abstractmethod
    def fisher(self, lam) -> np.ndarray:
        """F(lam) = Cov[T(theta)], the Jacobian of natural_to_dual."""

    @abc.abstractmethod
    def fisher_vp(self, lam, v) -> np.ndarray:
        """F(lam) v without forming F: the JVP of natural_to_dual."""

    @abc.abstractmethod
    def fisher_solve(self, lam, w) -> np.ndarray:
        """F(lam)^-1 w without forming F: the JVP of dual_to_natural at mu(lam)."""

    @abc.abstractmethod
    def sufficient_stats(self, theta) -> np.ndarray:
        """T(theta) in the moment layout, so that <lam, T> is a dot product."""

    @abc.abstractmethod
    def sample(self, lam, size: int, rng: np.random.Generator) -> np.ndarray:
        """size i.i.d. draws, shape (size, theta_dim); size must be >= 1."""

    @abc.abstractmethod
    def sufficient_stats_batch(self, thetas) -> np.ndarray:
        """T(theta) for each row of an (n, theta_dim) array; shape (n, param_dim)."""

    # -- validated wrappers ------------------------------------------

    def natural(self, coords) -> NaturalParams:
        coords = self._check_natural(coords)
        return NaturalParams(coords, self)

    def expectation(self, coords) -> ExpectationParams:
        coords = self._check_expectation(coords)
        return ExpectationParams(coords, self)

    def _coords(self, params, kind: str) -> np.ndarray:
        if isinstance(params, (NaturalParams, ExpectationParams)):
            if params.family is not None and params.family != self:
                raise FamilyMismatch(
                    f"parameters built for family {params.family.name!r}, "
                    f"used with {self.name!r}")
            coords = params.coords
        else:
            coords = _as_vector(params)
        if coords.size != self.param_dim:
            raise FamilyMismatch(
                f"{kind} coordinates have length {coords.size}, "
                f"family {self.name!r} needs {self.param_dim}")
        return coords

    def _check_natural(self, lam) -> np.ndarray:
        coords = self._coords(lam, "natural")
        if not self.contains_natural(coords):
            raise DomainError(f"natural parameters outside the domain of {self.name!r}")
        return coords

    def _check_expectation(self, mu) -> np.ndarray:
        coords = self._coords(mu, "expectation")
        if not self.contains_expectation(coords):
            raise DomainError(f"expectation parameters not realizable in {self.name!r}")
        return coords

    def _tangent(self, v) -> np.ndarray:
        """A direction in parameter space: a 1-D float array of length param_dim."""
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.size != self.param_dim:
            raise ValueError(f"direction must have length {self.param_dim}")
        return v

    def _theta_rows(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.theta_dim:
            raise ValueError(f"thetas must have shape (n, {self.theta_dim})")
        return thetas

    # -- derived operations ------------------------------------------

    def log_density(self, lam, theta):
        """log q(theta) = <lam, T(theta)> - A(lam)  (h = 1).

        theta is one point (returns a float) or an (n, theta_dim) array of
        points, one per row (returns n values); lam is validated once.
        """
        lam = self._check_natural(lam)
        if np.ndim(theta) == 2:
            return self.sufficient_stats_batch(theta) @ lam - self.cumulant(lam)
        t = self.sufficient_stats(theta)
        return float(lam @ t - self.cumulant(lam))

    def entropy(self, lam) -> float:
        """H(q) = A(lam) - <lam, grad A(lam)>."""
        lam = self._check_natural(lam)
        mu = self.natural_to_dual(lam)
        return float(self.cumulant(lam) - lam @ mu)

    def entropy_gradient(self, lam) -> np.ndarray:
        """grad_lam H(q_lam) = -F(lam) lam."""
        lam = self._check_natural(lam)
        return -(self.fisher(lam) @ lam)

    def fenchel_conjugate(self, mu) -> float:
        """A*(mu) = <lam(mu), mu> - A(lam(mu)); equals the negative entropy."""
        mu = self._check_expectation(mu)
        lam = self.dual_to_natural(mu)
        return float(lam @ mu - self.cumulant(lam))

    def kl_divergence(self, lam_a, lam_b) -> float:
        """KL(q_a || q_b), the Bregman divergence of A:

        KL = A(lam_b) - A(lam_a) - <lam_b - lam_a, mu_a>.
        """
        lam_a = self._check_natural(lam_a)
        lam_b = self._check_natural(lam_b)
        mu_a = self.natural_to_dual(lam_a)
        return float(self.cumulant(lam_b) - self.cumulant(lam_a)
                     - (lam_b - lam_a) @ mu_a)

    def kl_gradient_wrt_dual(self, lam, lam_ref) -> np.ndarray:
        """grad_mu KL(q_lam || q_ref) = lam - lam_ref."""
        lam = self._check_natural(lam)
        lam_ref = self._check_natural(lam_ref)
        return lam - lam_ref
