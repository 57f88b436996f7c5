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
    # Available only when the loss admits them (affine gradient). cov and
    # E[H] take the family's layout: (P, P), or a diagonal Gaussian's (P,).

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
        return _overrides(self, "hessian_diag")

    @property
    def provides_hessian_full(self) -> bool:
        return _overrides(self, "hessian_full")

    @property
    def provides_expectations(self) -> bool:
        return _overrides(self, "expected_gradient")

    def _no_batch(self, batch):
        if batch is not None:
            raise ValueError(f"{type(self).__name__} has no minibatch structure")


def _overrides(loss: LossModel, name: str) -> bool:
    """Whether loss's class replaces LossModel's method name."""
    return getattr(type(loss), name) is not getattr(LossModel, name)


#: relative gap allowed between a batched override and its per-theta loop
_BATCH_RTOL = 1e-10
#: relative gap allowed between the gradient, or a provided Hessian, and
#: its central differences
_GRAD_RTOL, _HESS_RTOL = 1e-4, 1e-3


def _relative_gap(got, ref) -> float:
    return float(np.linalg.norm(got - ref)) / max(1.0, float(np.linalg.norm(ref)))


def _hold(worst: dict, key: str, err: float, tol: float, what: str, at=None) -> None:
    """The gate's one comparison: record err under worst[key], then raise
    ValueError("<what> <err> > <tol>[ at <at>]") unless err <= tol, so a
    NaN err fails."""
    worst[key] = max(worst[key], err)
    if not err <= tol:
        where = "" if at is None else f" at {at}"
        raise ValueError(f"{what} {err:.3e} > {tol:.1e}{where}")


def _check_batched(loss: LossModel, name, thetas, batches, worst: dict) -> None:
    """Hold an overridden batched method to its per-theta loop."""
    if not _overrides(loss, name):
        return  # the default is the loop itself
    for batch in batches:
        got = getattr(loss, name)(thetas, batch)
        ref = getattr(LossModel, name)(loss, thetas, batch)
        _hold(worst, "batched", _relative_gap(got, ref), _BATCH_RTOL,
              f"batched {name} differs from its per-theta method:")


def _check_fused(loss: LossModel, thetas, batches, worst: dict) -> None:
    """Hold overridden value_and_gradient and gradient_and_mean_hessian to
    the separate calls they combine: value and gradient, gradient_batch and
    the per-theta Hessian loop."""
    if _overrides(loss, "value_and_gradient"):
        for theta in thetas:
            for batch in batches:
                value, grad = loss.value_and_gradient(theta, batch)
                ref_value, ref_grad = LossModel.value_and_gradient(loss, theta, batch)
                # np.max, not max: max drops a NaN that comes second
                err = float(np.max((abs(value - ref_value) / max(1.0, abs(ref_value)),
                                    _relative_gap(grad, ref_grad))))
                _hold(worst, "batched", err, _BATCH_RTOL,
                      "value_and_gradient differs from value and gradient:")
    if _overrides(loss, "gradient_and_mean_hessian"):
        diags = ([False] if loss.provides_hessian_full else []) + (
            [True] if loss.provides_hessian_diag else [])
        for diag in diags:
            for batch in batches:
                grads, hess = loss.gradient_and_mean_hessian(thetas, batch, diag)
                ref_grads, ref_hess = LossModel.gradient_and_mean_hessian(
                    loss, thetas, batch, diag)
                err = float(np.max((_relative_gap(grads, ref_grads),
                                    _relative_gap(hess, ref_hess))))
                _hold(worst, "batched", err, _BATCH_RTOL, "gradient_and_mean_hessian "
                      "differs from gradient_batch and the per-theta Hessians:")


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
    if _overrides(loss, "axis_values"):
        dim = points[0].size
        # evenly spaced from 0 to dim - 1, distinct: consecutive ones are >= 1 apart
        coords = (np.arange(dim) if dim <= _AXIS_SAMPLES
                  else np.arange(_AXIS_SAMPLES) * (dim - 1) // (_AXIS_SAMPLES - 1))
        for theta, step, vals in zip(points, steps, values):
            ref = np.concatenate([LossModel.value_batch(loss, rows).reshape(2, -1) for _, rows
                                  in perturbed_blocks(theta, step, coords)], axis=1)
            _hold(worst, "axes", _relative_gap(vals[:, coords], ref), _BATCH_RTOL,
                  "axis_values differs from value at the perturbed points:")
    return [central_quotient(plus, minus, step) for step, (plus, minus) in zip(steps, values)]


def check_derivatives(loss: LossModel, points) -> dict:
    """The derivative gate every loss in an experiment goes through first.

    Holds each overridden batched method to its per-theta loop, each
    overridden fused method (value_and_gradient, gradient_and_mean_hessian)
    to the separate calls it combines, and the gradient and the provided
    Hessians to central differences, all by relative error: the gradient's
    differences come from axis_values, the Hessians' from gradient_batch.
    An override is checked before any difference taken through it, so a
    wrong value_batch or axis_values is not reported as a gradient
    mismatch, nor a wrong gradient_batch as a Hessian one. The batched
    checks run on the full data and, for minibatchable losses, on every
    other datum; axis_values is held to the value loop at _AXIS_SAMPLES
    coordinates of each probe, on the full data only.

    Returns the worst relative error under each check's key; raises
    ValueError at the first one above its tolerance or NaN.
    """
    worst = {"gradient": 0.0, "hessian_full": 0.0, "hessian_diag": 0.0,
             "batched": 0.0, "axes": 0.0}
    points = [np.asarray(theta, dtype=float).reshape(-1) for theta in points]
    thetas = np.array(points)
    batches = [None] if loss.n_data is None else [None, np.arange(0, loss.n_data, 2)]
    _check_batched(loss, "value_batch", thetas, batches, worst)
    for theta, fd_grad in zip(points, _gradient_differences(loss, points, worst)):
        _hold(worst, "gradient", _relative_gap(loss.gradient(theta), fd_grad), _GRAD_RTOL,
              "gradient mismatch", theta)
    _check_batched(loss, "gradient_batch", thetas, batches, worst)
    _check_fused(loss, thetas, batches, worst)
    if not (loss.provides_hessian_full or loss.provides_hessian_diag):
        return worst
    for theta in points:
        fd_jac = central_diff_batch(loss.gradient_batch, theta)
        if loss.provides_hessian_full:
            _hold(worst, "hessian_full",
                  _relative_gap(loss.hessian_full(theta), 0.5 * (fd_jac + fd_jac.T)),
                  _HESS_RTOL, "hessian mismatch", theta)
        if loss.provides_hessian_diag:
            _hold(worst, "hessian_diag",
                  _relative_gap(loss.hessian_diag(theta), np.diag(fd_jac)),
                  _HESS_RTOL, "hessian diagonal mismatch", theta)
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
        if family.hessian_kind is None:
            raise ValueError(f"unsupported family {family.name!r}")
        quad, lin = family.natural_to_quadratic(coeff)
        return cls(np.diag(quad) if family.hessian_kind == "diag" else quad, lin, const)

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
        cov = np.asarray(cov, dtype=float)
        trace = (np.sum(np.diag(self.quad) * cov) if cov.ndim == 1
                 else np.trace(self.quad @ np.atleast_2d(cov)))
        return float(0.5 * (mean @ self.quad @ mean + trace) - self.lin @ mean + self.const)

    def expected_gradient(self, mean, cov) -> np.ndarray:
        mean = np.asarray(mean, dtype=float).reshape(-1)
        return self.quad @ mean - self.lin

    def expected_hessian(self, mean, cov) -> np.ndarray:
        return np.diag(self.quad).copy() if np.ndim(cov) == 1 else self.quad.copy()

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
        if family.theta_dim != self.dim or family.hessian_kind is None:
            return None
        hess = self.quad
        if family.hessian_kind == "diag":
            hess = np.diag(hess)
            # a diagonal family has no coefficient for an off-diagonal term
            if np.count_nonzero(self.quad) != np.count_nonzero(hess):
                return None
        return family.quadratic_to_natural(hess, self.lin)
