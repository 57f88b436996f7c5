"""Loss-model zoo with exact oracles and seeded synthetic datasets.

Ridge regression is the conjugate workhorse: its negative log joint is
quadratic in theta, so the posterior N(m*, S*^-1) with

    S* = X'X + tau I,   m* = S*^-1 X'y

is available from a dense solve, and the same posterior is reachable as
an addition of natural-parameter blocks (X'y ; -X'X/2) + (0 ; -tau I/2).
The two routes are kept as independent code paths and checked against
each other.

Logistic regression and a small tanh MLP provide non-conjugate targets
for the sampled-estimator optimizers. Both are BernoulliLoss subclasses:
the base owns the data validation, the minibatch design and the data
term; each subclass maps theta to logits and adds its Gaussian prior.
All datasets are generated in-repo from seeds; nothing is downloaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import cho_factor, cho_solve
from .blr import ConjugateModel
from .errors import DomainError
from .gaussian import FullGaussian, sym_to_coeff
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
        if not 0.0 < self.prior_precision < np.inf:
            raise DomainError("prior precision must be positive and finite")
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


def ridge_exact_posterior(model: RidgeModel) -> tuple[np.ndarray, np.ndarray]:
    """Posterior (m*, S*) by a direct dense solve: S* = X'X + tau I, m* = S*^-1 X'y.

    The oracle that the natural-parameter route is checked against, so
    it returns plain arrays and never goes through a family.
    """
    prec = model.x.T @ model.x + model.prior_precision * np.eye(model.p)
    try:
        factor = cho_factor(prec, lower=True)
    except np.linalg.LinAlgError as exc:
        # tau > 0 does not keep X'X + tau I numerically positive definite:
        # a tau far below the scale of X'X rounds away
        raise DomainError("ridge posterior precision is not numerically "
                          "positive definite") from exc
    return cho_solve(factor, model.x.T @ model.y), prec


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
    """0.5 * (1 + tanh(0.5 z)) in z itself, bit for bit; z must be the caller's own."""
    z *= 0.5
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5
    return z


def _softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) as max(z, 0) + log1p(e^-|z|), elementwise.

    The split never overflows and stays within 2 ULP of the exact value.
    It differs from np.logaddexp(0, z) by a few ULP at most, equals it at
    +-0, +-inf, nan and the float range's ends (without logaddexp's
    warning on nan), and costs about a fifth as much. Loss values use it;
    no gradient does, and each looks it up here by name. It allocates its
    output and one temporary, max(z, 0).
    """
    z = np.asarray(z, dtype=float)
    out = np.abs(z)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(z, 0.0)
    return out


class BernoulliLoss(LossModel):
    """Bernoulli likelihood of binary labels y at logits z(theta).

    Owns the data validation (tau finite and >= 0), the minibatch design
    (its data term rescaled by N/|batch|) and the data term
    sum_i softplus(z_i) - y_i z_i. Subclasses map theta to logits, add
    their prior, and define value, gradient and any Hessian themselves:
    perfbench/layers.py hooks only a class's own methods.
    """

    def __init__(self, x, y, prior_precision: float):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.shape[0] != y.size:
            raise DomainError("features and labels have mismatched shapes")
        if y.size < 1:
            raise DomainError("a Bernoulli loss needs at least one datum")
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise DomainError("labels must be binary")
        if not np.all(np.isfinite(x)):
            raise DomainError("features must be finite")
        prior_precision = float(prior_precision)
        if not (np.isfinite(prior_precision) and prior_precision >= 0.0):
            raise DomainError("prior precision must be finite and nonnegative")
        self.x = x
        self.y = y
        self.prior_precision = prior_precision
        self.n_data = x.shape[0]

    def _design(self, batch):
        """(features, labels, N/|batch|) of a minibatch, or of all the data."""
        if batch is None:
            return self.x, self.y, 1.0
        batch = np.asarray(batch, dtype=int)
        if batch.size == 0:
            raise DomainError("a minibatch needs at least one datum")
        return self.x[batch], self.y[batch], self.n_data / batch.size

    @staticmethod
    def _data_terms(z, y) -> np.ndarray:
        """The data term at each row of logits z (its last axis runs over the data).
        Overwrites z, the caller's own array; _softplus's output is the one kept."""
        terms = _softplus(z)
        z *= y
        terms -= z
        return terms.sum(axis=-1)


class LogisticModel(BernoulliLoss):
    """Bernoulli likelihood with logit X theta and Gaussian prior.

    Non-conjugate test loss with the full Hessian and its diagonal. Its
    value includes the prior's normaliser, so tau must be > 0.
    """

    def __init__(self, x, y, prior_precision: float = 1.0):
        super().__init__(x, y, prior_precision)
        if not self.prior_precision > 0.0:
            raise DomainError("prior precision must be positive")
        self.dim = self.x.shape[1]
        self._prior_norm = 0.5 * self.dim * (_LOG_2PI - np.log(self.prior_precision))
        self._tau_eye = self.prior_precision * np.eye(self.dim)
        self._tau_eye.setflags(write=False)

    def value(self, theta, batch=None) -> float:
        return float(self.value_batch(np.atleast_2d(theta), batch)[0])

    def value_batch(self, thetas, batch=None) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        x, y, scale = self._design(batch)
        return scale * self._data_terms(thetas @ x.T, y) + (
            0.5 * self.prior_precision * np.sum(thetas ** 2, axis=1) + self._prior_norm)

    def gradient(self, theta, batch=None) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        x, y, scale = self._design(batch)
        return scale * (x.T @ (_sigmoid(x @ theta) - y)) + self.prior_precision * theta

    # one row's mean Hessian: its sum of one term, divided by 1, keeps every bit
    def hessian_full(self, theta, batch=None) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        x, _, scale = self._design(batch)
        return self._mean_hessian(x, scale, _sigmoid(x @ theta)[None], diag=False)

    def hessian_diag(self, theta, batch=None) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        x, _, scale = self._design(batch)
        return self._mean_hessian(x, scale, _sigmoid(x @ theta)[None], diag=True)

    # Batched forms: one (K, N) logit matrix for all samples, overwritten by its
    # sigmoid s, then (once w = s(1 - s) has the one new buffer) by s - y. The
    # mean Hessian is linear in w: mean_k H(theta_k) = X' diag(mean_k w_k) X + tau I.

    def _batch_pass(self, thetas, batch, diag):
        """(gradient rows, the mean Hessian or None for diag None) of a (K, P) array."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        x, y, scale = self._design(batch)
        sig = _sigmoid(thetas @ x.T)
        hess = None if diag is None else self._mean_hessian(x, scale, sig, diag)
        sig -= y
        return scale * (sig @ x) + self.prior_precision * thetas, hess

    def _mean_hessian(self, x, scale, sig, diag: bool) -> np.ndarray:
        w = np.subtract(1.0, sig)
        w *= sig
        w = w.sum(axis=0) / sig.shape[0]
        if diag:
            return scale * (w @ x ** 2) + self.prior_precision
        xw = x.T * w
        xw *= scale
        return xw @ x + self._tau_eye

    def gradient_batch(self, thetas, batch=None) -> np.ndarray:
        return self._batch_pass(thetas, batch, None)[0]

    def gradient_and_mean_hessian(self, thetas, batch=None, diag: bool = False):
        return self._batch_pass(thetas, batch, diag)


def make_logistic_data(seed: int, n: int, p: int, scale: float = 3.0,
                       prior_precision: float = 1.0) -> LogisticModel:
    """Linearly-separable-with-noise labels from a random direction."""
    rng = make_rng(seed, 0x10)
    x = rng.standard_normal((n, p))
    theta = scale * rng.standard_normal(p) / np.sqrt(p)
    y = (rng.uniform(size=n) < _sigmoid(x @ theta)).astype(float)
    return LogisticModel(x, y, prior_precision)


# -- small MLP classifier -------------------------------------------------

class MLPModel(BernoulliLoss):
    """Tanh MLP with a linear logit output and Bernoulli likelihood.

    Gradients come from handwritten backpropagation over the flattened
    parameter vector (weights then bias, layer by layer). No Hessians:
    the sampled-curvature optimizers estimate them from gradients. The
    prior term 0.5 tau |theta|^2 has no normaliser, as tau may be 0.

    axis_values, the losses the derivative gate differences, runs one
    forward pass and moves only what each perturbed coordinate touches: a
    weight W[i, k] or bias b[i] of a hidden layer shifts unit i's
    pre-activation by move * a[:, k] or by move; the unit's new activation
    reaches the logits through the output weight w_out[i] from the last
    hidden layer, and as a rank-1 change of the next pre-activations
    through any layers between; an output-layer coordinate moves the
    logits directly. A column (one perturbed point) costs n_data
    activations of one unit, plus n_data times the width of each hidden
    layer the change passes through whole, where value costs a full
    forward pass. Columns go in chunks whose largest temporary stays
    within _AXIS_CHUNK elements, one column at least.
    """

    #: elements a chunk's largest temporary in axis_values may hold (a
    #: column of a change carried through a hidden layer may exceed it)
    _AXIS_CHUNK = 2048

    def __init__(self, layer_sizes, x, y, prior_precision: float = 0.0):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2 or sizes[-1] != 1:
            raise ValueError("layer sizes must end in a single logit output")
        super().__init__(x, y, prior_precision)
        if self.x.shape[1] != sizes[0]:
            raise DomainError("dataset does not match the input layer")
        self.layer_sizes = sizes
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

    def _forward(self, theta, x, pre=None):
        """(layers, activations, logits); with a list pre, also appends each
        hidden layer's pre-activation to it."""
        layers = self.unpack(theta)
        acts = [x]
        for w, b in layers[:-1]:
            # a C-ordered copy of w.T: the same bits, about half the time
            h = acts[-1] @ np.ascontiguousarray(w.T)
            h += b
            if pre is not None:
                pre.append(h.copy())
            acts.append(np.tanh(h, out=h))
        w, b = layers[-1]
        logits = acts[-1] @ np.ascontiguousarray(w.T)
        logits += b
        return layers, acts, logits.reshape(-1)

    def logits(self, theta, x=None) -> np.ndarray:
        _, _, z = self._forward(theta, self.x if x is None else np.atleast_2d(x))
        return z

    def _value(self, theta, z, y, scale) -> float:
        return (scale * float(self._data_terms(z, y))
                + 0.5 * self.prior_precision * float(theta @ theta))

    def _backprop(self, theta, layers, acts, z, y, scale) -> np.ndarray:
        """Gradient from one forward pass, written layer by layer into one vector.

        Overwrites z and the hidden activations in acts (never acts[0], the input).
        """
        flat = np.empty(self.dim)
        delta = _sigmoid(z).reshape(-1, 1)
        delta -= y[:, None]
        last = len(layers) - 1
        for idx in range(last, -1, -1):
            w_start, b_start, end, out_n, in_n = self._spans[idx]
            a = acts[idx]
            np.matmul(delta.T, a, out=flat[w_start:b_start].reshape(out_n, in_n))
            if delta.shape[1] > 1:
                # adds the rows in order, as sum does, at a third of its cost
                np.einsum("ij->j", delta, out=flat[b_start:end])
            else:
                # a pairwise sum: einsum would give other bits
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

    def _pass(self, theta, batch):
        """(theta, layers, activations, logits, labels, scale) of one forward pass."""
        x, y, scale = self._design(batch)
        theta = np.asarray(theta, dtype=float).reshape(-1)
        return (theta, *self._forward(theta, x), y, scale)

    def value(self, theta, batch=None) -> float:
        theta, _, _, z, y, scale = self._pass(theta, batch)
        return self._value(theta, z, y, scale)

    def gradient(self, theta, batch=None) -> np.ndarray:
        return self._backprop(*self._pass(theta, batch))

    def value_and_gradient(self, theta, batch=None) -> tuple[float, np.ndarray]:
        theta, layers, acts, z, y, scale = self._pass(theta, batch)
        value = self._value(theta, z.copy(), y, scale)  # each overwrites its logits
        return value, self._backprop(theta, layers, acts, z, y, scale)

    def axis_values(self, theta, steps) -> np.ndarray:
        # The loss is _value's data term plus the prior on
        # |theta|^2 + 2 move theta_j + move^2 of each moved point.
        theta = np.asarray(theta, dtype=float).reshape(-1)
        steps = np.asarray(steps, dtype=float).reshape(-1)
        pre = []
        layers, acts, z = self._forward(theta, self.x, pre)
        # the moves the perturbed points make, fl(theta_j +- h_j) - theta_j
        moves = np.stack([theta + steps, theta - steps])
        moves -= theta
        prior = 0.5 * self.prior_precision * (
            float(theta @ theta) + 2.0 * moves * theta + moves ** 2)
        out = np.empty((2, self.dim))
        for idx, (w_start, b_start, end, out_n, in_n) in enumerate(self._spans):
            # a column per perturbed point: n_data rows, times the widest
            # hidden layer the change passes through whole
            col_size = self.n_data * max(self.layer_sizes[idx + 2:-1], default=1)
            chunk = max(1, self._AXIS_CHUNK // col_size)
            for lo in (*range(w_start, b_start, chunk), *range(b_start, end, chunk)):
                coords = np.arange(lo, min(lo + chunk, b_start if lo < b_start else end))
                if lo < b_start:
                    units, inputs = np.divmod(coords - w_start, in_n)
                else:
                    units, inputs = coords - b_start, None
                for sign in (0, 1):
                    z_moved = self._moved_logits(layers, pre, acts, z, idx, units, inputs,
                                                 moves[sign, coords][:, None])
                    out[sign, coords] = self._data_terms(z_moved, self.y)
        out += prior
        return out

    def _moved_logits(self, layers, pre, acts, z, idx, units, inputs, move) -> np.ndarray:
        """Logits, shape (columns, n_data), after column c's coordinate in
        layer idx moves by move[c]: the weight from input inputs[c] to unit
        units[c], or that unit's bias when inputs is None. The weight adds
        move * a[:, k] to the unit's pre-activation, the bias adds move."""
        last = len(layers) - 1
        base = z if idx == last else pre[idx].T[units]
        if inputs is None:
            moved = base + move
        else:
            moved = acts[idx].T[inputs]
            moved *= move
            moved += base
        if idx == last:
            return moved
        np.tanh(moved, out=moved)
        moved -= acts[idx + 1].T[units]
        # the unit's change moves the next layer's pre-activations by a
        # rank-1 term (a k = 1 product: exact, and unlike a broadcast
        # multiply it makes no buffered copy of its output)
        moved = np.matmul(moved[:, :, None], layers[idx + 1][0].T[units][:, None, :])
        for k in range(idx + 1, last):
            moved += pre[k]
            np.tanh(moved, out=moved)
            moved -= acts[k + 1]
            moved = moved @ layers[k + 1][0].T
        moved = moved[:, :, 0]
        moved += z
        return moved

    def mean_data_loss(self, theta) -> float:
        """Mean Bernoulli cross-entropy over the full dataset (the training metric)."""
        _, _, z = self._forward(theta, self.x)
        # np.mean's two steps, a sum and a division by the count, so no bit moves
        return float(self._data_terms(z, self.y) / self.n_data)


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
