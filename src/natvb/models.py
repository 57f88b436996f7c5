"""Loss-model zoo with exact oracles and seeded synthetic datasets.

Ridge regression is the conjugate workhorse: its negative log joint is
quadratic in theta, so the posterior N(m*, S*^-1) with

    S* = X'X + tau I,   m* = S*^-1 X'y

is available from a dense solve, and the same posterior is reachable as
an addition of natural-parameter blocks (X'y ; -X'X/2) + (0 ; -tau I/2).
The two routes are kept as independent code paths and checked against
each other.

Logistic regression and a small tanh MLP provide non-conjugate targets
for the sampled-estimator optimizers. All datasets are generated in-repo
from seeds; nothing is downloaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .blr import ConjugateModel
from .errors import DomainError, SingularSystem
from .gaussian import FullGaussian, GaussianMoment, sym_to_coeff
from .losses import LossModel, QuadraticLoss
from .seeding import make_rng

_LOG_2PI = float(np.log(2.0 * np.pi))


# -- ridge regression ---------------------------------------------------

@dataclass(frozen=True)
class RidgeModel:
    """Linear-Gaussian data with unit noise and an isotropic Gaussian prior."""

    x: np.ndarray
    y: np.ndarray
    prior_precision: float = 1.0

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if x.shape[0] != y.size or x.shape[0] < 1 or x.shape[1] < 1:
            raise DomainError("design matrix and targets have mismatched shapes")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DomainError("data must be finite")
        if not self.prior_precision > 0.0:
            raise DomainError("prior precision must be positive")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


def ridge_loss(model: RidgeModel) -> QuadraticLoss:
    """Negative log joint as a quadratic loss (normalization constants included)."""
    x, y, tau = model.x, model.y, model.prior_precision
    quad = x.T @ x + tau * np.eye(model.p)
    const = (0.5 * float(y @ y) + 0.5 * (model.n + model.p) * _LOG_2PI
             - 0.5 * model.p * np.log(tau))
    return QuadraticLoss(quad, x.T @ y, const)


def ridge_exact_posterior(model: RidgeModel) -> GaussianMoment:
    """Posterior by a direct dense solve: S* = X'X + tau I, m* = S*^-1 X'y."""
    prec = model.x.T @ model.x + model.prior_precision * np.eye(model.p)
    try:
        factor = cho_factor(prec, lower=True)
    except np.linalg.LinAlgError as exc:
        # unreachable for tau > 0, which RidgeModel guarantees
        raise SingularSystem("ridge posterior precision is singular") from exc
    return GaussianMoment(cho_solve(factor, model.x.T @ model.y), prec)


def ridge_natural_coefficients(model: RidgeModel) -> tuple[np.ndarray, np.ndarray]:
    """Likelihood and prior natural-parameter blocks (X'y ; -X'X/2), (0 ; -tau I/2)."""
    p = model.p
    lam_lik = np.concatenate([model.x.T @ model.y,
                              sym_to_coeff(-0.5 * model.x.T @ model.x)])
    lam_prior = np.concatenate([np.zeros(p),
                                sym_to_coeff(-0.5 * model.prior_precision * np.eye(p))])
    return lam_lik, lam_prior


def ridge_conjugate_model(model: RidgeModel) -> ConjugateModel:
    lam_lik, lam_prior = ridge_natural_coefficients(model)
    return ConjugateModel(FullGaussian(model.p), lam_lik, lam_prior)


def make_ridge_data(seed: int, n: int, p: int, noise: float = 1.0,
                    prior_precision: float = 1.0) -> RidgeModel:
    rng = make_rng(seed, 0x51)
    x = rng.standard_normal((n, p))
    theta = rng.standard_normal(p)
    y = x @ theta + noise * rng.standard_normal(n)
    return RidgeModel(x, y, prior_precision)


# -- logistic regression -------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


class LogisticModel(LossModel):
    """Bernoulli likelihood with logit X theta and Gaussian prior.

    Non-conjugate test loss; exposes the full Hessian and its diagonal,
    and unbiased minibatch versions via N/|batch| rescaling of the data
    term.
    """

    def __init__(self, x, y, prior_precision: float = 1.0):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.shape[0] != y.size:
            raise DomainError("design matrix and labels have mismatched shapes")
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise DomainError("labels must be binary")
        if not np.all(np.isfinite(x)):
            raise DomainError("features must be finite")
        if not prior_precision > 0.0:
            raise DomainError("prior precision must be positive")
        self.x = x
        self.y = y
        self.prior_precision = float(prior_precision)
        self.dim = x.shape[1]
        self.n_data = x.shape[0]

    def _design(self, batch):
        if batch is None:
            return self.x, self.y, 1.0
        batch = np.asarray(batch, dtype=int)
        return self.x[batch], self.y[batch], self.n_data / batch.size

    def value(self, theta, batch=None) -> float:
        return float(self.value_batch(np.atleast_2d(theta), batch)[0])

    def value_batch(self, thetas, batch=None) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        x, y, scale = self._design(batch)
        z = thetas @ x.T
        tau = self.prior_precision
        prior = (0.5 * tau * np.sum(thetas ** 2, axis=1)
                 + 0.5 * self.dim * (_LOG_2PI - np.log(tau)))
        return scale * np.sum(_softplus(z) - y * z, axis=1) + prior

    def gradient(self, theta, batch=None) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        x, y, scale = self._design(batch)
        resid = _sigmoid(x @ theta) - y
        return scale * (x.T @ resid) + self.prior_precision * theta

    def hessian_full(self, theta, batch=None) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        x, _, scale = self._design(batch)
        w = _sigmoid(x @ theta)
        w = w * (1.0 - w)
        return scale * (x.T * w) @ x + self.prior_precision * np.eye(self.dim)

    def hessian_diag(self, theta, batch=None) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        x, _, scale = self._design(batch)
        w = _sigmoid(x @ theta)
        w = w * (1.0 - w)
        return scale * (w @ x ** 2) + self.prior_precision

    # Batched forms: one (K, N) logit matrix for all samples. The mean
    # Hessian is linear in the curvature weights w = s(1 - s), so
    # mean_k H(theta_k) = X' diag(mean_k w_k) X + tau I is one product.

    def gradient_batch(self, thetas, batch=None) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        x, y, scale = self._design(batch)
        resid = _sigmoid(thetas @ x.T) - y
        return scale * (resid @ x) + self.prior_precision * thetas

    def _mean_weights(self, thetas, batch):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        x, _, scale = self._design(batch)
        w = _sigmoid(thetas @ x.T)
        w = w * (1.0 - w)
        return x, scale, w.sum(axis=0) / thetas.shape[0]

    def mean_hessian_full(self, thetas, batch=None) -> np.ndarray:
        x, scale, w = self._mean_weights(thetas, batch)
        return scale * (x.T * w) @ x + self.prior_precision * np.eye(self.dim)

    def mean_hessian_diag(self, thetas, batch=None) -> np.ndarray:
        x, scale, w = self._mean_weights(thetas, batch)
        return scale * (w @ x ** 2) + self.prior_precision


def make_logistic_data(seed: int, n: int, p: int, scale: float = 3.0,
                       prior_precision: float = 1.0) -> LogisticModel:
    """Linearly-separable-with-noise labels from a random direction."""
    rng = make_rng(seed, 0x10)
    x = rng.standard_normal((n, p))
    theta = scale * rng.standard_normal(p) / np.sqrt(p)
    y = (rng.uniform(size=n) < _sigmoid(x @ theta)).astype(float)
    return LogisticModel(x, y, prior_precision)


# -- small MLP classifier -------------------------------------------------

class MLPModel(LossModel):
    """Tanh MLP with a linear logit output and Bernoulli likelihood.

    Gradients come from handwritten backpropagation over the flattened
    parameter vector (weights then bias, layer by layer). No Hessians:
    the sampled-curvature optimizers estimate them from gradients.
    """

    def __init__(self, layer_sizes, x, y, prior_precision: float = 0.0,
                 activation: str = "tanh"):
        if activation != "tanh":
            raise ValueError(f"unsupported activation {activation!r}")
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2 or sizes[-1] != 1:
            raise ValueError("layer sizes must end in a single logit output")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.shape[1] != sizes[0] or x.shape[0] != y.size:
            raise DomainError("dataset does not match the input layer")
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise DomainError("labels must be binary")
        if not np.all(np.isfinite(x)):
            raise DomainError("features must be finite")
        prior_precision = float(prior_precision)
        if not (np.isfinite(prior_precision) and prior_precision >= 0.0):
            raise DomainError("prior precision must be finite and nonnegative")
        self.layer_sizes = sizes
        self.activation = activation
        self.x = x
        self.y = y
        self.prior_precision = prior_precision
        self.n_data = x.shape[0]
        self.shapes = [(sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1)]
        # (w_start, b_start, end, out, in) of each layer in the flat vector
        spans = []
        offset = 0
        for out_n, in_n in self.shapes:
            b_start = offset + out_n * in_n
            spans.append((offset, b_start, b_start + out_n, out_n, in_n))
            offset = b_start + out_n
        self._spans = tuple(spans)
        self.dim = offset

    def unpack(self, theta) -> list[tuple[np.ndarray, np.ndarray]]:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.size != self.dim:
            raise ValueError(f"parameter vector must have length {self.dim}")
        return [(theta[w_start:b_start].reshape(out_n, in_n), theta[b_start:end])
                for w_start, b_start, end, out_n, in_n in self._spans]

    def init_params(self, seed: int) -> np.ndarray:
        """Scaled-normal initialization of the flattened parameter vector."""
        rng = make_rng(seed, 0x111)
        parts = []
        for out_n, in_n in self.shapes:
            parts.append(rng.standard_normal(out_n * in_n) / np.sqrt(in_n))
            parts.append(np.zeros(out_n))
        return np.concatenate(parts)

    def _forward(self, theta, x):
        layers = self.unpack(theta)
        acts = [x]
        for w, b in layers[:-1]:
            h = acts[-1] @ w.T
            h += b
            acts.append(np.tanh(h, out=h))
        w, b = layers[-1]
        logits = acts[-1] @ w.T
        logits += b
        return layers, acts, logits.reshape(-1)

    def logits(self, theta, x=None) -> np.ndarray:
        _, _, z = self._forward(theta, self.x if x is None else np.atleast_2d(x))
        return z

    def _batch(self, batch):
        if batch is None:
            return self.x, self.y, 1.0
        batch = np.asarray(batch, dtype=int)
        return self.x[batch], self.y[batch], self.n_data / batch.size

    def _value(self, theta, z, y, scale) -> float:
        data = float(np.sum(_softplus(z) - y * z))
        return scale * data + 0.5 * self.prior_precision * float(theta @ theta)

    def _backprop(self, theta, layers, acts, z, y, scale) -> np.ndarray:
        """Gradient from one forward pass, written layer by layer into one vector.

        Overwrites the hidden activations in acts (never acts[0], the input).
        """
        flat = np.empty(self.dim)
        delta = (_sigmoid(z) - y).reshape(-1, 1)
        last = len(layers) - 1
        for idx in range(last, -1, -1):
            w_start, b_start, end, out_n, in_n = self._spans[idx]
            a = acts[idx]
            np.matmul(delta.T, a, out=flat[w_start:b_start].reshape(out_n, in_n))
            delta.sum(axis=0, out=flat[b_start:end])
            if idx > 0:
                w, _ = layers[idx]
                # a k=1 product is exact, so the broadcast equals delta @ w
                delta = delta * w if idx == last else delta @ w
                np.square(a, out=a)
                np.subtract(1.0, a, out=a)
                delta *= a
        flat *= scale
        flat += self.prior_precision * theta
        return flat

    def value(self, theta, batch=None) -> float:
        x, y, scale = self._batch(batch)
        theta = np.asarray(theta, dtype=float).reshape(-1)
        _, _, z = self._forward(theta, x)
        return self._value(theta, z, y, scale)

    def gradient(self, theta, batch=None) -> np.ndarray:
        x, y, scale = self._batch(batch)
        theta = np.asarray(theta, dtype=float).reshape(-1)
        layers, acts, z = self._forward(theta, x)
        return self._backprop(theta, layers, acts, z, y, scale)

    def value_and_gradient(self, theta, batch=None) -> tuple[float, np.ndarray]:
        x, y, scale = self._batch(batch)
        theta = np.asarray(theta, dtype=float).reshape(-1)
        layers, acts, z = self._forward(theta, x)
        return (self._value(theta, z, y, scale),
                self._backprop(theta, layers, acts, z, y, scale))

    def mean_data_loss(self, theta) -> float:
        """Mean Bernoulli cross-entropy over the full dataset (the training metric)."""
        _, _, z = self._forward(theta, self.x)
        return float(np.mean(_softplus(z) - self.y * z))

    def accuracy(self, theta) -> float:
        _, _, z = self._forward(theta, self.x)
        return float(np.mean((z > 0.0) == (self.y > 0.5)))


def two_spirals(n: int, seed: int, noise: float = 0.03,
                turns: float = 1.5) -> tuple[np.ndarray, np.ndarray]:
    """The interleaved two-spirals classification set, n points in [-1, 1]^2."""
    rng = make_rng(seed, 0x599)
    n0 = n // 2
    counts = (n0, n - n0)
    points, labels = [], []
    for cls, count in enumerate(counts):
        t = np.sqrt(rng.uniform(0.05, 1.0, size=count)) * turns * 2.0 * np.pi
        radius = t / (turns * 2.0 * np.pi)
        angle = t + cls * np.pi
        xy = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
        xy += noise * rng.standard_normal(xy.shape)
        points.append(xy)
        labels.append(np.full(count, float(cls)))
    return np.concatenate(points), np.concatenate(labels)


def make_spirals_mlp(seed: int, n: int = 500, hidden: tuple[int, int] = (16, 16),
                     noise: float = 0.03, prior_precision: float = 0.0) -> MLPModel:
    x, y = two_spirals(n, seed, noise=noise)
    sizes = [2, *hidden, 1]
    return MLPModel(sizes, x, y, prior_precision=prior_precision)
