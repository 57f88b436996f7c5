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
F and its inverse without forming F (fisher_vp, fisher_solve), to one
parameter or to a block of them at once.

natural() and expectation() are each coordinate system's one domain
check: a per-family primitive (_derive, _derive_expectation) raises
DomainError outside the domain or returns what checking computed, which
the validated parameters carry as `derived` for every later method. The
natural side's `derived` also carries A(lam) as its `cumulant` field, so
each parameter's log normalizer is computed once, at validation, and
cumulant() reads it. lam lies in the domain when natural(lam) does not
raise, and a caller keeps what it returned instead of asking twice.
These checks are the only way a NaturalParams or ExpectationParams
comes to exist, so every parameter carries its family and `derived`.

Concrete families implement the primitives (the two derivations,
conversions, Fisher-vector products, T of a block of points, sampling);
the domain checks, single-point T, cumulant, entropy, Fenchel
conjugate, KL and its dual gradient are derived here once.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FamilyMismatch


@dataclass(frozen=True, eq=False)
class _Params:
    """Coordinates a family validated, with the family and what its check derived.

    Built only by the family's check, natural() or expectation(), so the
    coordinates are a read-only, finite copy of the right length. Equal
    when of one class, with equal families and equal coordinates; what
    the family derived plays no part.
    """

    coords: np.ndarray
    family: "ExpFamily"
    #: what the family's check derived from coords
    derived: object = field(repr=False)

    def __eq__(self, other):
        return (type(other) is type(self) and self.family == other.family
                and np.array_equal(self.coords, other.coords))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which array_equal counts as equal
        return hash((type(self), self.family, (self.coords + 0.0).tobytes()))


class NaturalParams(_Params):
    """Natural coordinates lam in a family's open domain.

    `family.natural(coords)` builds them: it freezes a copy of the
    coordinates and stores what _derive computed from them.
    """


class ExpectationParams(_Params):
    """Dual coordinates mu = E[T(theta)] that some lam maps to.

    `family.expectation(coords)` builds them, as natural() does NaturalParams.
    """


class ExpFamily(abc.ABC):
    """A minimal exponential family with h = 1.

    Subclasses fix the statistic T and provide the primitives. Methods
    take NaturalParams/ExpectationParams or plain 1-D float arrays in the
    documented layout. All methods are pure and families hold no state,
    so families and validated parameters (whose arrays are read-only)
    can be shared across threads.

    The Gaussian identity the natural-gradient estimators assemble with,
    gaussian_identity, and the coefficient maps quadratic_to_natural and
    natural_to_quadratic are methods of the families with a hessian_kind.
    """

    #: dimension of theta
    theta_dim: int
    #: dimension of lam and mu
    param_dim: int
    #: short identifier used in configs and error messages
    name: str
    #: the Hessian gaussian_identity and the coefficient maps (quadratic_to_natural)
    #: take: "full" (the (P, P) matrix) or "diag" (its diagonal); None if neither
    hessian_kind: str | None = None

    # families are stateless: equal name means the same family
    def __eq__(self, other):
        return isinstance(other, ExpFamily) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    # -- primitives -------------------------------------------------

    @abc.abstractmethod
    def _derive(self, coords: np.ndarray):
        """What natural() stores for finite lam = coords, or DomainError.

        The result has a `cumulant` field holding A(lam) as a float.
        """

    @abc.abstractmethod
    def _derive_expectation(self, coords: np.ndarray):
        """What expectation() stores for finite mu = coords, or DomainError."""

    @abc.abstractmethod
    def natural_to_dual(self, lam) -> np.ndarray:
        """mu(lam) = E[T(theta)] = grad A(lam)."""

    @abc.abstractmethod
    def dual_to_natural(self, mu) -> np.ndarray:
        """Inverse of natural_to_dual."""

    @abc.abstractmethod
    def fisher_vp(self, lam, v) -> np.ndarray:
        """F(lam) v without forming F: the JVP of natural_to_dual.

        A block of B parameters lam with directions v of shape (B,
        param_dim) gives the B products as rows, from stacked arithmetic.
        """

    @abc.abstractmethod
    def fisher_solve(self, lam, w) -> np.ndarray:
        """F(lam)^-1 w without forming F: the JVP of dual_to_natural at mu(lam).

        Takes a block of B parameters and (B, param_dim) rows as fisher_vp does.
        """

    @abc.abstractmethod
    def sample(self, lam, size: int, rng: np.random.Generator) -> np.ndarray:
        """size i.i.d. draws, shape (size, theta_dim); size must be >= 1."""

    @abc.abstractmethod
    def sufficient_stats_batch(self, thetas) -> np.ndarray:
        """T(theta) for each row of an (n, theta_dim) array; shape (n, param_dim)."""

    # -- the domain checks --------------------------------------------

    def natural(self, lam) -> NaturalParams:
        """lam as validated NaturalParams: the family's one natural-side check.

        Parameters that this family, or an equal one, validated are
        returned as they are. Anything else is copied, frozen, scanned
        once and checked by _derive. Raises DomainError outside the domain
        and FamilyMismatch for ExpectationParams, another family's, or a wrong length.
        """
        return self._validated(lam, NaturalParams, self._derive)

    def expectation(self, mu) -> ExpectationParams:
        """mu as validated ExpectationParams; the dual-side twin of natural()."""
        return self._validated(mu, ExpectationParams, self._derive_expectation)

    def _validated(self, params, kind: type, derive):
        if type(params) is kind and params.family is self:
            return params
        if isinstance(params, _Params):
            if not isinstance(params, kind):
                raise FamilyMismatch(f"{type(params).__name__} given to {self.name!r} "
                                     f"where {kind.__name__} are needed")
            if params.family == self:
                return params
            raise FamilyMismatch(f"parameters built for family {params.family.name!r}, "
                                 f"used with {self.name!r}")
        coords = np.array(params, dtype=float).reshape(-1)
        if coords.size != self.param_dim:
            raise FamilyMismatch(
                f"{kind.__name__} have length {coords.size}, "
                f"family {self.name!r} needs {self.param_dim}")
        if not np.isfinite(coords).all():
            raise DomainError("coordinates must be finite")
        coords.setflags(write=False)
        return kind(coords, self, derive(coords))

    def _tangent_block(self, lam, v) -> tuple[list, np.ndarray, bool]:
        """(derived factors, directions as (B, param_dim) rows, whether one).

        A 2-D v holds B directions, one at each parameter of the sequence
        lam; anything else is one direction of length param_dim at the one
        parameter lam. Each parameter is validated by natural().
        """
        v = np.asarray(v, dtype=float)
        one = v.ndim != 2
        lams = [lam] if one else list(lam)
        v = v.reshape(len(lams), -1) if one else v
        if v.shape[1] != self.param_dim:
            raise ValueError(f"direction must have length {self.param_dim}")
        if v.shape[0] != len(lams):
            raise ValueError(f"{v.shape[0]} directions given for {len(lams)} parameters")
        return [self.natural(x).derived for x in lams], v, one

    def sufficient_stats(self, theta) -> np.ndarray:
        """T(theta) in the moment layout, so that <lam, T> is a dot product:
        the one row of sufficient_stats_batch."""
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.size != self.theta_dim:
            raise ValueError(f"theta must have length {self.theta_dim}")
        return self.sufficient_stats_batch(theta[None])[0]

    def _theta_rows(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.theta_dim:
            raise ValueError(f"thetas must have shape (n, {self.theta_dim})")
        return thetas

    # -- derived operations ------------------------------------------

    def cumulant(self, lam) -> float:
        """Log normalizer A(lam), as _derive computed it when lam was validated."""
        return self.natural(lam).derived.cumulant

    def log_density(self, lam, theta):
        """log q(theta) = <lam, T(theta)> - A(lam)  (h = 1).

        theta is one point (returns a float) or an (n, theta_dim) array of
        points, one per row (returns n values); lam is validated once.
        """
        lam = self.natural(lam)
        if np.ndim(theta) == 2:
            return self.sufficient_stats_batch(theta) @ lam.coords - self.cumulant(lam)
        t = self.sufficient_stats(theta)
        return float(lam.coords @ t - self.cumulant(lam))

    def entropy(self, lam) -> float:
        """H(q) = A(lam) - <lam, grad A(lam)>."""
        lam = self.natural(lam)
        mu = self.natural_to_dual(lam)
        return float(self.cumulant(lam) - lam.coords @ mu)

    def entropy_gradient(self, lam) -> np.ndarray:
        """grad_lam H(q_lam) = -F(lam) lam, computed through fisher_vp."""
        lam = self.natural(lam)
        return -self.fisher_vp(lam, lam.coords)

    def fenchel_conjugate(self, mu) -> float:
        """A*(mu) = <lam(mu), mu> - A(lam(mu)); equals the negative entropy."""
        mu = self.expectation(mu)
        lam = self.natural(self.dual_to_natural(mu))
        return float(lam.coords @ mu.coords - self.cumulant(lam))

    def kl_divergence(self, lam_a, lam_b) -> float:
        """KL(q_a || q_b), the Bregman divergence of A:

        KL = A(lam_b) - A(lam_a) - <lam_b - lam_a, mu_a>.
        """
        lam_a = self.natural(lam_a)
        lam_b = self.natural(lam_b)
        mu_a = self.natural_to_dual(lam_a)
        return float(self.cumulant(lam_b) - self.cumulant(lam_a)
                     - (lam_b.coords - lam_a.coords) @ mu_a)

    def kl_gradient_wrt_dual(self, lam, lam_ref) -> np.ndarray:
        """grad_mu KL(q_lam || q_ref) = lam - lam_ref."""
        return self.natural(lam).coords - self.natural(lam_ref).coords
