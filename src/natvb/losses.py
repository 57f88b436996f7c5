"""Loss models: targets of the form loss(theta) = -log(likelihood * prior).

A LossModel exposes value/gradient and, when available, Hessian
information plus closed-form Gaussian expectations. Data-backed losses
(ridge, logistic, MLP) live in `models`; here are the interface, the
quadratic workhorse, and the built-in finite-difference verifier that
every loss must pass before an experiment uses it.

Minibatch convention: `batch` is an index array into the data; the data
term is rescaled by N/|batch| so the minibatch gradient is unbiased for
the full-data loss. Losses without data structure reject batches.
"""

from __future__ import annotations

import numpy as np

from .errors import MissingHessian
from .gaussian import DiagGaussian, FullGaussian, sym_to_coeff, coeff_to_sym
from .numdiff import central_diff_gradient, central_diff_jacobian


class LossModel:
    """Interface for losses over theta in R^dim."""

    dim: int
    #: number of data points when the loss is minibatchable, else None
    n_data: int | None = None

    def value(self, theta, batch=None) -> float:
        raise NotImplementedError

    def value_batch(self, thetas, batch=None) -> np.ndarray:
        """Loss at each row of thetas; override when vectorizable."""
        return np.array([self.value(t, batch) for t in np.atleast_2d(thetas)])

    def gradient(self, theta, batch=None) -> np.ndarray:
        raise NotImplementedError

    def value_and_gradient(self, theta, batch=None) -> tuple[float, np.ndarray]:
        """(value, gradient) at theta; override to share one forward pass."""
        return self.value(theta, batch), self.gradient(theta, batch)

    def hessian_diag(self, theta, batch=None) -> np.ndarray:
        raise MissingHessian(f"{type(self).__name__} provides no Hessian diagonal")

    def hessian_full(self, theta, batch=None) -> np.ndarray:
        raise MissingHessian(f"{type(self).__name__} provides no full Hessian")

    # Batched forms over the rows of a (K, dim) array, for the Monte Carlo
    # estimators. The defaults loop over the per-theta methods; overrides
    # must agree with them to roundoff, which check_derivatives enforces.

    def gradient_batch(self, thetas, batch=None) -> np.ndarray:
        """Gradient at each row of thetas, shape (K, dim)."""
        return np.array([self.gradient(t, batch) for t in np.atleast_2d(thetas)])

    def mean_hessian_full(self, thetas, batch=None) -> np.ndarray:
        """Mean of hessian_full over the rows of thetas."""
        thetas = np.atleast_2d(thetas)
        total = np.zeros((self.dim, self.dim))
        for theta in thetas:
            total += self.hessian_full(theta, batch)
        return total / len(thetas)

    def mean_hessian_diag(self, thetas, batch=None) -> np.ndarray:
        """Mean of hessian_diag over the rows of thetas."""
        thetas = np.atleast_2d(thetas)
        total = np.zeros(self.dim)
        for theta in thetas:
            total += self.hessian_diag(theta, batch)
        return total / len(thetas)

    # Closed-form Gaussian expectations, for the exact estimator path.
    # Available only when the loss admits them (affine gradient).

    def expected_value(self, mean, cov) -> float:
        raise NotImplementedError(f"{type(self).__name__} has no closed-form expectations")

    def expected_gradient(self, mean, cov) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no closed-form expectations")

    def expected_hessian(self, mean, cov) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no closed-form expectations")

    def natural_coefficients(self, family) -> np.ndarray | None:
        """Coefficients c with loss = <-c, T(theta)> + const, or None.

        Losses linear in the family's sufficient statistic return c in
        the family's coefficient layout; the natural gradient of the
        expected loss is then exactly -c, independent of the query
        distribution.
        """
        return None

    @property
    def provides_hessian_diag(self) -> bool:
        return type(self).hessian_diag is not LossModel.hessian_diag

    @property
    def provides_hessian_full(self) -> bool:
        return type(self).hessian_full is not LossModel.hessian_full

    @property
    def provides_expectations(self) -> bool:
        return type(self).expected_gradient is not LossModel.expected_gradient

    def _no_batch(self, batch):
        if batch is not None:
            raise ValueError(f"{type(self).__name__} has no minibatch structure")


#: batched methods with the capability each needs (None: always available)
_BATCHED = (("value_batch", None), ("gradient_batch", None),
            ("mean_hessian_full", "provides_hessian_full"),
            ("mean_hessian_diag", "provides_hessian_diag"))
#: relative gap allowed between a batched override and its per-theta loop
_BATCH_RTOL = 1e-10


def check_derivatives(loss: LossModel, points, grad_rtol: float = 1e-4,
                      hess_rtol: float = 1e-3) -> dict:
    """Verify gradient (and provided Hessians) against central differences,
    overridden batched methods against their per-theta loops, and an
    overridden value_and_gradient against value and gradient.

    The batched and fused checks run on the full data and, for
    minibatchable losses, on every other datum. Raises ValueError on
    the first violation; returns the worst relative errors seen otherwise.
    Every loss in an experiment goes through this gate first.
    """
    worst = {"gradient": 0.0, "hessian_full": 0.0, "hessian_diag": 0.0,
             "batched": 0.0}
    for theta in points:
        theta = np.asarray(theta, dtype=float)
        fd_grad = central_diff_gradient(lambda x: loss.value(x), theta)
        scale = max(1.0, float(np.linalg.norm(fd_grad)))
        err = float(np.linalg.norm(loss.gradient(theta) - fd_grad)) / scale
        worst["gradient"] = max(worst["gradient"], err)
        if err > grad_rtol:
            raise ValueError(f"gradient mismatch {err:.3e} > {grad_rtol:.1e} at {theta}")
        if loss.provides_hessian_full:
            fd_hess = central_diff_jacobian(lambda x: loss.gradient(x), theta)
            fd_hess = 0.5 * (fd_hess + fd_hess.T)
            scale = max(1.0, float(np.linalg.norm(fd_hess)))
            err = float(np.linalg.norm(loss.hessian_full(theta) - fd_hess)) / scale
            worst["hessian_full"] = max(worst["hessian_full"], err)
            if err > hess_rtol:
                raise ValueError(f"hessian mismatch {err:.3e} > {hess_rtol:.1e} at {theta}")
        if loss.provides_hessian_diag:
            fd_hess = central_diff_jacobian(lambda x: loss.gradient(x), theta)
            fd_diag = np.diag(fd_hess)
            scale = max(1.0, float(np.linalg.norm(fd_diag)))
            err = float(np.linalg.norm(loss.hessian_diag(theta) - fd_diag)) / scale
            worst["hessian_diag"] = max(worst["hessian_diag"], err)
            if err > hess_rtol:
                raise ValueError(f"hessian diagonal mismatch {err:.3e} > {hess_rtol:.1e} at {theta}")
    thetas = np.array([np.asarray(theta, dtype=float).reshape(-1) for theta in points])
    batches = [None] if loss.n_data is None else [None, np.arange(0, loss.n_data, 2)]
    for name, needs in _BATCHED:
        if getattr(type(loss), name) is getattr(LossModel, name):
            continue  # the default is the loop itself
        if needs is not None and not getattr(loss, needs):
            continue
        for batch in batches:
            got = getattr(loss, name)(thetas, batch)
            ref = getattr(LossModel, name)(loss, thetas, batch)
            err = float(np.linalg.norm(got - ref)) / max(1.0, float(np.linalg.norm(ref)))
            worst["batched"] = max(worst["batched"], err)
            if err > _BATCH_RTOL:
                raise ValueError(f"batched {name} differs from its per-theta method: "
                                 f"{err:.3e} > {_BATCH_RTOL:.1e}")
    if type(loss).value_and_gradient is not LossModel.value_and_gradient:
        for theta in thetas:
            for batch in batches:
                value, grad = loss.value_and_gradient(theta, batch)
                ref_value, ref_grad = LossModel.value_and_gradient(loss, theta, batch)
                err = max(abs(value - ref_value) / max(1.0, abs(ref_value)),
                          float(np.linalg.norm(grad - ref_grad))
                          / max(1.0, float(np.linalg.norm(ref_grad))))
                worst["batched"] = max(worst["batched"], err)
                if err > _BATCH_RTOL:
                    raise ValueError(f"value_and_gradient differs from value and gradient: "
                                     f"{err:.3e} > {_BATCH_RTOL:.1e}")
    return worst


class QuadraticLoss(LossModel):
    """loss(theta) = 1/2 theta' A theta - b' theta + const, A symmetric.

    Linear in the Gaussian sufficient statistic, so every expectation is
    closed-form and the natural-coefficient fast path applies.
    """

    def __init__(self, quad: np.ndarray, lin: np.ndarray, const: float = 0.0):
        quad = np.atleast_2d(np.asarray(quad, dtype=float))
        lin = np.asarray(lin, dtype=float).reshape(-1)
        if quad.shape != (lin.size, lin.size):
            raise ValueError("quadratic and linear terms have mismatched shapes")
        if np.max(np.abs(quad - quad.T)) > 1e-12 * max(1.0, np.max(np.abs(quad))):
            raise ValueError("quadratic term must be symmetric")
        self.quad = quad
        self.lin = lin
        self.const = float(const)
        self.dim = lin.size

    @classmethod
    def from_natural_coeff(cls, family, coeff, const: float = 0.0) -> "QuadraticLoss":
        """Loss <-coeff, T(theta)> + const for a Gaussian family's layout."""
        coeff = np.asarray(coeff, dtype=float).reshape(-1)
        if coeff.size != family.param_dim:
            raise ValueError("coefficient length does not match the family")
        p = family.theta_dim
        if isinstance(family, FullGaussian):
            quad = -2.0 * coeff_to_sym(coeff[p:], p)
        elif isinstance(family, DiagGaussian):
            quad = np.diag(-2.0 * coeff[p:])
        else:
            raise ValueError(f"unsupported family {family.name!r}")
        return cls(quad, coeff[:p], const)

    def value(self, theta, batch=None) -> float:
        self._no_batch(batch)
        theta = np.asarray(theta, dtype=float).reshape(-1)
        return float(0.5 * theta @ self.quad @ theta - self.lin @ theta + self.const)

    def gradient(self, theta, batch=None) -> np.ndarray:
        self._no_batch(batch)
        theta = np.asarray(theta, dtype=float).reshape(-1)
        return self.quad @ theta - self.lin

    def hessian_diag(self, theta, batch=None) -> np.ndarray:
        self._no_batch(batch)
        return np.diag(self.quad).copy()

    def hessian_full(self, theta, batch=None) -> np.ndarray:
        self._no_batch(batch)
        return self.quad.copy()

    def expected_value(self, mean, cov) -> float:
        mean = np.asarray(mean, dtype=float).reshape(-1)
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        return float(0.5 * (mean @ self.quad @ mean + np.trace(self.quad @ cov))
                     - self.lin @ mean + self.const)

    def expected_gradient(self, mean, cov) -> np.ndarray:
        mean = np.asarray(mean, dtype=float).reshape(-1)
        return self.quad @ mean - self.lin

    def expected_hessian(self, mean, cov) -> np.ndarray:
        return self.quad.copy()

    def natural_coefficients(self, family) -> np.ndarray | None:
        if family.theta_dim != self.dim:
            return None
        if isinstance(family, FullGaussian):
            return np.concatenate([self.lin, sym_to_coeff(-0.5 * self.quad)])
        if isinstance(family, DiagGaussian):
            off = self.quad - np.diag(np.diag(self.quad))
            if np.any(off != 0.0):
                return None
            return np.concatenate([self.lin, -0.5 * np.diag(self.quad)])
        return None


class ZeroLoss(LossModel):
    """Identically zero loss; handy degenerate case in tests and checks."""

    def __init__(self, dim: int):
        self.dim = int(dim)

    def value(self, theta, batch=None) -> float:
        return 0.0

    def gradient(self, theta, batch=None) -> np.ndarray:
        return np.zeros(self.dim)

    def hessian_diag(self, theta, batch=None) -> np.ndarray:
        return np.zeros(self.dim)

    def hessian_full(self, theta, batch=None) -> np.ndarray:
        return np.zeros((self.dim, self.dim))

    def expected_value(self, mean, cov) -> float:
        return 0.0

    def expected_gradient(self, mean, cov) -> np.ndarray:
        return np.zeros(self.dim)

    def expected_hessian(self, mean, cov) -> np.ndarray:
        return np.zeros((self.dim, self.dim))

    def natural_coefficients(self, family) -> np.ndarray | None:
        return np.zeros(family.param_dim)
