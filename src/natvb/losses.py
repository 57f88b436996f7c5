"""Loss models: targets of the form loss(theta) = -log(likelihood * prior).

A LossModel exposes value/gradient and, when available, Hessian
information plus closed-form Gaussian expectations. Data-backed losses
(ridge, logistic, MLP) live in `models`; the MLP's loss leaves out the
prior's normaliser, as its tau may be 0. Here are the interface, the
quadratic workhorse, and the built-in finite-difference verifier that
every loss must pass before an experiment uses it.

Minibatch convention: `batch` is an index array into the data; the data
term is rescaled by N/|batch| so the minibatch gradient is unbiased for
the full-data loss. Losses without data structure reject batches.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, MissingHessian
from .gaussian import DiagGaussian, FullGaussian, sym_to_coeff, coeff_to_sym
from .numdiff import axis_steps, central_diff_batch, central_quotient, perturbed_blocks


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

    def axis_values(self, theta, steps) -> np.ndarray:
        """Full-data loss at theta + steps_j e_j (row 0) and theta - steps_j e_j
        (row 1) for every coordinate j, shape (2, dim): the points
        numdiff.perturbed_blocks forms, from which check_derivatives takes
        the gradient's central differences.

        The default evaluates value_batch on those blocks of rows. Override
        when moving one coordinate costs less than a full evaluation; the
        gate holds an override to the per-row value loop.
        """
        theta = np.asarray(theta, dtype=float).reshape(-1)
        out = np.empty((2, theta.size))
        for coords, rows in perturbed_blocks(theta, np.asarray(steps, dtype=float)):
            out[:, coords] = np.asarray(self.value_batch(rows)).reshape(2, coords.size)
        return out

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
    # gradient_and_mean_hessian is a loss's one batched curvature call.

    def gradient_batch(self, thetas, batch=None) -> np.ndarray:
        """Gradient at each row of thetas, shape (K, dim)."""
        return np.array([self.gradient(t, batch) for t in np.atleast_2d(thetas)])

    def gradient_and_mean_hessian(self, thetas, batch=None, diag: bool = False):
        """(gradient_batch, mean of hessian_diag if diag else of hessian_full
        over the rows of thetas).

        The pair a Monte Carlo estimate needs; override to share one pass
        over the data between its two halves.
        """
        grads = self.gradient_batch(thetas, batch)
        thetas = np.atleast_2d(thetas)
        hessian = self.hessian_diag if diag else self.hessian_full
        total = np.zeros(self.dim) if diag else np.zeros((self.dim, self.dim))
        for theta in thetas:
            total += hessian(theta, batch)
        return grads, total / len(thetas)

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


#: relative gap allowed between a batched override and its per-theta loop
_BATCH_RTOL = 1e-10


def _relative_gap(got, ref) -> float:
    return float(np.linalg.norm(got - ref)) / max(1.0, float(np.linalg.norm(ref)))


def _check_batched(loss: LossModel, names, thetas, batches, worst: dict) -> None:
    """Hold the overridden batched methods among names to their per-theta loops."""
    for name in names:
        if getattr(type(loss), name) is getattr(LossModel, name):
            continue  # the default is the loop itself
        for batch in batches:
            got = getattr(loss, name)(thetas, batch)
            ref = getattr(LossModel, name)(loss, thetas, batch)
            err = _relative_gap(got, ref)
            worst["batched"] = max(worst["batched"], err)
            if not err <= _BATCH_RTOL:
                raise ValueError(f"batched {name} differs from its per-theta method: "
                                 f"{err:.3e} > {_BATCH_RTOL:.1e}")


def _check_fused(loss: LossModel, thetas, batches, worst: dict) -> None:
    """Hold overridden value_and_gradient and gradient_and_mean_hessian to
    the separate calls they combine: value and gradient, gradient_batch and
    the per-theta Hessian loop."""
    if type(loss).value_and_gradient is not LossModel.value_and_gradient:
        for theta in thetas:
            for batch in batches:
                value, grad = loss.value_and_gradient(theta, batch)
                ref_value, ref_grad = LossModel.value_and_gradient(loss, theta, batch)
                err = max(abs(value - ref_value) / max(1.0, abs(ref_value)),
                          _relative_gap(grad, ref_grad))
                worst["batched"] = max(worst["batched"], err)
                if not err <= _BATCH_RTOL:
                    raise ValueError(f"value_and_gradient differs from value and gradient: "
                                     f"{err:.3e} > {_BATCH_RTOL:.1e}")
    if type(loss).gradient_and_mean_hessian is not LossModel.gradient_and_mean_hessian:
        diags = ([False] if loss.provides_hessian_full else []) + (
            [True] if loss.provides_hessian_diag else [])
        for diag in diags:
            for batch in batches:
                grads, hess = loss.gradient_and_mean_hessian(thetas, batch, diag)
                ref_grads, ref_hess = LossModel.gradient_and_mean_hessian(
                    loss, thetas, batch, diag)
                err = max(_relative_gap(grads, ref_grads), _relative_gap(hess, ref_hess))
                worst["batched"] = max(worst["batched"], err)
                if not err <= _BATCH_RTOL:
                    raise ValueError(f"gradient_and_mean_hessian differs from gradient_batch "
                                     f"and the per-theta Hessians: {err:.3e} > {_BATCH_RTOL:.1e}")


#: coordinates at which an overridden axis_values is held to the value loop
_AXIS_SAMPLES = 17


def _gradient_differences(loss: LossModel, points, worst: dict) -> list[np.ndarray]:
    """The gradient's central differences at each point, from axis_values.

    An override's values at every point are held to the per-row value
    loop at _AXIS_SAMPLES evenly spaced coordinates, both signs, before
    any difference is taken; the default, value_batch on numdiff's blocks
    of perturbed rows, is not.
    """
    steps = [axis_steps(theta) for theta in points]
    values = [np.asarray(loss.axis_values(theta, step)) for theta, step in zip(points, steps)]
    if type(loss).axis_values is not LossModel.axis_values:
        dim = points[0].size
        # evenly spaced from 0 to dim - 1, distinct: consecutive ones are >= 1 apart
        coords = (np.arange(dim) if dim <= _AXIS_SAMPLES
                  else np.arange(_AXIS_SAMPLES) * (dim - 1) // (_AXIS_SAMPLES - 1))
        for theta, step, vals in zip(points, steps, values):
            ref = np.concatenate([LossModel.value_batch(loss, rows).reshape(2, -1) for _, rows
                                  in perturbed_blocks(theta, step, coords)], axis=1)
            err = _relative_gap(vals[:, coords], ref)
            worst["axes"] = max(worst["axes"], err)
            if not err <= _BATCH_RTOL:
                raise ValueError(f"axis_values differs from value at the perturbed points: "
                                 f"{err:.3e} > {_BATCH_RTOL:.1e}")
    return [central_quotient(plus, minus, step) for step, (plus, minus) in zip(steps, values)]


def check_derivatives(loss: LossModel, points, grad_rtol: float = 1e-4,
                      hess_rtol: float = 1e-3) -> dict:
    """Verify overridden batched methods against their per-theta loops,
    overridden fused methods (value_and_gradient, gradient_and_mean_hessian)
    against the separate calls they combine, and the gradient (and
    provided Hessians) against central differences.

    The gradient's central differences come from axis_values, the loss
    at every perturbed point of a probe (by default value_batch on a
    block of perturbed rows per call), through numdiff.central_quotient.
    The Hessians' go through gradient_batch, a block of perturbed rows
    per call. So each override is checked against its loop first:
    value_batch, then axis_values (at _AXIS_SAMPLES evenly spaced
    coordinates of each probe, both signs, against the per-row value
    loop; the gap is worst["axes"]), before any difference is taken;
    gradient_batch and the rest before
    the Hessians' differences, so that a wrong gradient is reported as a
    gradient mismatch. The batched override checks run on the full data
    and, for minibatchable losses, on every other datum; axis_values is
    full-data only. Raises ValueError on the first violation, a NaN error
    included; returns the worst relative errors seen otherwise.
    Every loss in an experiment goes through this gate first.
    """
    worst = {"gradient": 0.0, "hessian_full": 0.0, "hessian_diag": 0.0,
             "batched": 0.0, "axes": 0.0}
    points = [np.asarray(theta, dtype=float).reshape(-1) for theta in points]
    thetas = np.array(points)
    batches = [None] if loss.n_data is None else [None, np.arange(0, loss.n_data, 2)]
    _check_batched(loss, ("value_batch",), thetas, batches, worst)
    for theta, fd_grad in zip(points, _gradient_differences(loss, points, worst)):
        scale = max(1.0, float(np.linalg.norm(fd_grad)))
        err = float(np.linalg.norm(loss.gradient(theta) - fd_grad)) / scale
        worst["gradient"] = max(worst["gradient"], err)
        if not err <= grad_rtol:
            raise ValueError(f"gradient mismatch {err:.3e} > {grad_rtol:.1e} at {theta}")
    _check_batched(loss, ("gradient_batch",), thetas, batches, worst)
    _check_fused(loss, thetas, batches, worst)
    if not (loss.provides_hessian_full or loss.provides_hessian_diag):
        return worst
    for theta in points:
        fd_jac = central_diff_batch(loss.gradient_batch, theta)
        if loss.provides_hessian_full:
            fd_hess = 0.5 * (fd_jac + fd_jac.T)
            scale = max(1.0, float(np.linalg.norm(fd_hess)))
            err = float(np.linalg.norm(loss.hessian_full(theta) - fd_hess)) / scale
            worst["hessian_full"] = max(worst["hessian_full"], err)
            if not err <= hess_rtol:
                raise ValueError(f"hessian mismatch {err:.3e} > {hess_rtol:.1e} at {theta}")
        if loss.provides_hessian_diag:
            fd_diag = np.diag(fd_jac)
            scale = max(1.0, float(np.linalg.norm(fd_diag)))
            err = float(np.linalg.norm(loss.hessian_diag(theta) - fd_diag)) / scale
            worst["hessian_diag"] = max(worst["hessian_diag"], err)
            if not err <= hess_rtol:
                raise ValueError(f"hessian diagonal mismatch {err:.3e} > {hess_rtol:.1e} at {theta}")
    return worst


class QuadraticLoss(LossModel):
    """loss(theta) = 1/2 theta' A theta - b' theta + const, A symmetric.

    Linear in the Gaussian sufficient statistic, so every expectation is
    closed-form and the natural-coefficient fast path applies.
    """

    def __init__(self, quad: np.ndarray, lin: np.ndarray, const: float = 0.0):
        # read-only copies: the natural coefficients memoised from them stay true
        quad = np.atleast_2d(np.array(quad, dtype=float))
        lin = np.array(lin, dtype=float).reshape(-1)
        if quad.shape != (lin.size, lin.size):
            raise ValueError("quadratic and linear terms have mismatched shapes")
        const = float(const)
        # before the symmetry test, which NaN passes and inf warns on
        if not (np.isfinite(quad).all() and np.isfinite(lin).all() and np.isfinite(const)):
            raise DomainError("quadratic loss terms must be finite")
        if np.max(np.abs(quad - quad.T)) > 1e-12 * max(1.0, np.max(np.abs(quad))):
            raise ValueError("quadratic term must be symmetric")
        quad.setflags(write=False)
        lin.setflags(write=False)
        self.quad = quad
        self.lin = lin
        self.const = const
        self.dim = lin.size
        #: natural_coefficients per family (families hash by name)
        self._coefficients = {}

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

    # Batched forms as stacked products: each row makes the per-theta
    # call's BLAS calls (gemv, then dot), so it equals value or gradient
    # bit for bit, which a plain thetas @ quad (one gemm) does not.

    def value_batch(self, thetas, batch=None) -> np.ndarray:
        self._no_batch(batch)
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        cols = thetas[:, :, None]
        quad_form = np.matmul(np.matmul(0.5 * thetas[:, None, :], self.quad), cols)
        return quad_form[:, 0, 0] - np.matmul(self.lin, cols)[:, 0] + self.const

    def gradient_batch(self, thetas, batch=None) -> np.ndarray:
        self._no_batch(batch)
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        return np.matmul(self.quad, thetas[:, :, None])[:, :, 0] - self.lin

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
        """The family's coefficients, built once per family and read-only."""
        try:
            return self._coefficients[family]
        except KeyError:
            coeff = self._coefficients[family] = self._build_coefficients(family)
        if coeff is not None:
            coeff.setflags(write=False)
        return coeff

    def _build_coefficients(self, family) -> np.ndarray | None:
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
