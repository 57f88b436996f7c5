"""The Bernoulli kernels held bit for bit to their allocating forms.

The _reference_* functions are verbatim copies of LogisticModel's and
MLPModel's kernels as they were before each pass allocated its output
once and worked in place. The kernels must equal them bit for bit, leave
every input as it was, return nothing that aliases an input, and reach
natvb.models._softplus by its module name on every loss-value path.
"""

import numpy as np
import pytest

import natvb.models
from natvb.gaussian import FullGaussian
from natvb.models import MLPModel, _softplus, make_logistic_data, make_spirals_mlp
from natvb.natgrad import EstimatorSpec, expected_loss
from natvb.seeding import make_rng

_LOG_2PI = float(np.log(2.0 * np.pi))


# -- the pre-change kernels, verbatim -----------------------------------------

def _reference_sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _reference_data_terms(z, y):
    return np.sum(_softplus(z) - y * z, axis=-1)


def _reference_value_batch(model, thetas, batch=None):
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    x, y, scale = model._design(batch)
    z = thetas @ x.T
    tau = model.prior_precision
    prior = (0.5 * tau * np.sum(thetas ** 2, axis=1)
             + 0.5 * model.dim * (_LOG_2PI - np.log(tau)))
    return scale * _reference_data_terms(z, y) + prior


def _reference_gradient(model, theta, batch=None):
    theta = np.asarray(theta, dtype=float).reshape(-1)
    x, y, scale = model._design(batch)
    resid = _reference_sigmoid(x @ theta) - y
    return scale * (x.T @ resid) + model.prior_precision * theta


def _reference_hessian(model, theta, batch=None, diag=False):
    theta = np.asarray(theta, dtype=float).reshape(-1)
    x, _, scale = model._design(batch)
    return _reference_mean_hessian(model, x, scale, _reference_sigmoid(x @ theta)[None],
                                   diag=diag)


def _reference_sigmoid_batch(model, thetas, batch):
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    x, y, scale = model._design(batch)
    return thetas, x, y, scale, _reference_sigmoid(thetas @ x.T)


def _reference_gradients(model, thetas, x, y, scale, sig):
    return scale * ((sig - y) @ x) + model.prior_precision * thetas


def _reference_mean_hessian(model, x, scale, sig, diag):
    w = sig * (1.0 - sig)
    w = w.sum(axis=0) / sig.shape[0]
    if diag:
        return scale * (w @ x ** 2) + model.prior_precision
    return scale * (x.T * w) @ x + model.prior_precision * np.eye(model.dim)


def _reference_gradient_batch(model, thetas, batch=None):
    thetas, x, y, scale, sig = _reference_sigmoid_batch(model, thetas, batch)
    return _reference_gradients(model, thetas, x, y, scale, sig)


def _reference_gradient_and_mean_hessian(model, thetas, batch=None, diag=False):
    thetas, x, y, scale, sig = _reference_sigmoid_batch(model, thetas, batch)
    return (_reference_gradients(model, thetas, x, y, scale, sig),
            _reference_mean_hessian(model, x, scale, sig, diag))


def _reference_forward(mlp, theta, x, pre=None):
    layers = mlp.unpack(theta)
    acts = [x]
    for w, b in layers[:-1]:
        h = acts[-1] @ w.T
        h += b
        if pre is None:
            acts.append(np.tanh(h, out=h))
        else:
            pre.append(h)
            acts.append(np.tanh(h))
    w, b = layers[-1]
    logits = acts[-1] @ w.T
    logits += b
    return layers, acts, logits.reshape(-1)


def _reference_backprop(mlp, theta, layers, acts, z, y, scale):
    flat = np.empty(mlp.dim)
    delta = (_reference_sigmoid(z) - y).reshape(-1, 1)
    last = len(layers) - 1
    for idx in range(last, -1, -1):
        w_start, b_start, end, out_n, in_n = mlp._spans[idx]
        a = acts[idx]
        np.matmul(delta.T, a, out=flat[w_start:b_start].reshape(out_n, in_n))
        if delta.shape[1] > 1:
            np.einsum("ij->j", delta, out=flat[b_start:end])
        else:
            delta.sum(axis=0, out=flat[b_start:end])
        if idx > 0:
            w, _ = layers[idx]
            delta = delta * w if idx == last else delta @ w
            np.square(a, out=a)
            np.subtract(1.0, a, out=a)
            delta *= a
    flat *= scale
    flat += mlp.prior_precision * theta
    return flat


def _reference_value(mlp, theta, z, y, scale):
    return (scale * float(_reference_data_terms(z, y))
            + 0.5 * mlp.prior_precision * float(theta @ theta))


# -- shared cases ----------------------------------------------------------------

def _logistic(n=60, p=5, tau=0.7):
    return make_logistic_data(3, n, p, prior_precision=tau)


def _batches(n, rng):
    return (None, rng.choice(n, size=n // 3, replace=False))


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    # array_equal counts -0.0 == 0.0; the bytes tell them apart
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2, 32])
@pytest.mark.parametrize("diag", [False, True])
def test_logistic_batch_kernels_equal_their_references(k, diag):
    for n, p, tau in ((60, 5, 0.7), (500, 8, 1.0)):
        model = _logistic(n, p, tau)
        rng = make_rng(26, k, n)
        thetas = 1.5 * rng.standard_normal((k, p))
        for batch in _batches(n, rng):
            _same(model.value_batch(thetas, batch),
                  _reference_value_batch(model, thetas, batch))
            _same(model.gradient_batch(thetas, batch),
                  _reference_gradient_batch(model, thetas, batch))
            grads, hess = model.gradient_and_mean_hessian(thetas, batch, diag=diag)
            ref_grads, ref_hess = _reference_gradient_and_mean_hessian(model, thetas,
                                                                       batch, diag)
            _same(grads, ref_grads)
            _same(hess, ref_hess)


def test_logistic_per_theta_kernels_equal_their_references():
    model = _logistic()
    rng = make_rng(26, 1)
    for _ in range(4):
        theta = 2.0 * rng.standard_normal(model.dim)
        for batch in _batches(model.n_data, rng):
            assert model.value(theta, batch) == float(
                _reference_value_batch(model, theta[None], batch)[0])
            _same(model.gradient(theta, batch), _reference_gradient(model, theta, batch))
            _same(model.hessian_full(theta, batch), _reference_hessian(model, theta, batch))
            _same(model.hessian_diag(theta, batch),
                  _reference_hessian(model, theta, batch, diag=True))


def test_logistic_kernels_at_extreme_logits():
    # saturated sigmoids (w = 0 exactly) and softplus's large-|z| branch
    model = _logistic(40, 3)
    thetas = np.array([[300.0, -200.0, 50.0], [-1e3, 1e3, 0.0], [0.0, 0.0, 0.0]])
    _same(model.value_batch(thetas), _reference_value_batch(model, thetas))
    for diag in (False, True):
        got = model.gradient_and_mean_hessian(thetas, diag=diag)
        want = _reference_gradient_and_mean_hessian(model, thetas, diag=diag)
        _same(got[0], want[0])
        _same(got[1], want[1])


def test_data_terms_equal_their_reference_on_every_layout():
    rng = make_rng(26, 2)
    y = (rng.uniform(size=50) < 0.5).astype(float)
    logits = 4.0 * rng.standard_normal((7, 50))
    # a 1-D row, a C-ordered block, and the (columns, n, 1)[:, :, 0] view
    # MLPModel.axis_values hands over
    for fresh in (lambda: logits[0].copy(), logits.copy,
                  lambda: np.matmul(logits[:, :, None], np.ones((1, 1)))[:, :, 0]):
        want = _reference_data_terms(fresh(), y)
        _same(natvb.models.BernoulliLoss._data_terms(fresh(), y), want)


@pytest.mark.parametrize("sizes", [[2, 1], [2, 5, 1], [2, 16, 16, 1], [3, 1, 4, 1]])
def test_mlp_kernels_equal_their_references(sizes):
    rng = make_rng(26, 3, len(sizes), sizes[1])
    for n, batch_size in ((37, 11), (500, 100)):
        x = rng.standard_normal((n, sizes[0]))
        y = (rng.uniform(size=n) < 0.5).astype(float)
        mlp = MLPModel(sizes, x, y, prior_precision=0.3)
        for _ in range(2):
            theta = rng.standard_normal(mlp.dim)
            for batch in (None, rng.choice(n, size=batch_size, replace=False)):
                xb, yb, scale = mlp._design(batch)
                pre, ref_pre = [], []
                layers, acts, z = mlp._forward(theta, xb, pre)
                _, ref_acts, ref_z = _reference_forward(mlp, theta, xb, ref_pre)
                _same(z, ref_z)
                for got, want in zip(acts + pre, ref_acts + ref_pre, strict=True):
                    _same(got, want)
                want_value = _reference_value(mlp, theta, ref_z, yb, scale)
                want_grad = _reference_backprop(mlp, theta, *_reference_forward(
                    mlp, theta, xb)[:3], yb, scale)
                _same(mlp._backprop(theta, layers, acts, z, yb, scale), want_grad)
                value, grad = mlp.value_and_gradient(theta, batch)
                assert value == mlp.value(theta, batch) == want_value
                _same(grad, want_grad)
                _same(mlp.gradient(theta, batch), want_grad)
            assert mlp.mean_data_loss(theta) == float(
                _reference_data_terms(_reference_forward(mlp, theta, x)[2], y) / n)


# -- purity ------------------------------------------------------------------------

def _frozen_copies(*arrays):
    return [(a, a.copy()) for a in arrays]


def _check_pure(before, outputs):
    for arr, copy in before:
        _same(arr, copy)
    for out in outputs:
        for arr, _ in before:
            assert not np.shares_memory(out, arr)


@pytest.mark.parametrize("k", [1, 2, 32])
def test_logistic_kernels_change_no_input_and_alias_none(k):
    model = _logistic()
    rng = make_rng(26, 4, k)
    thetas = rng.standard_normal((k, model.dim))
    theta = thetas[0].copy()
    for batch in _batches(model.n_data, rng):
        inputs = [model.x, model.y, thetas, theta] + ([] if batch is None else [batch])
        before = _frozen_copies(*inputs)
        outs = [model.value_batch(thetas, batch), model.gradient_batch(thetas, batch),
                *model.gradient_and_mean_hessian(thetas, batch),
                *model.gradient_and_mean_hessian(thetas, batch, diag=True),
                model.gradient(theta, batch), model.hessian_full(theta, batch),
                model.hessian_diag(theta, batch)]
        _check_pure(before, outs)
        # a second call returns fresh arrays: no constant leaks out to be written
        hess = model.gradient_and_mean_hessian(thetas, batch)[1]
        assert not np.shares_memory(hess, model.gradient_and_mean_hessian(thetas, batch)[1])
        assert hess.flags.writeable


def test_mlp_kernels_change_no_input_and_alias_none():
    mlp = make_spirals_mlp(4, n=40, hidden=(5, 3), prior_precision=0.4)
    rng = make_rng(26, 5)
    theta = rng.standard_normal(mlp.dim)
    steps = np.full(mlp.dim, 1e-4)
    for batch in _batches(mlp.n_data, rng):
        inputs = [mlp.x, mlp.y, theta, steps] + ([] if batch is None else [batch])
        before = _frozen_copies(*inputs)
        value, grad = mlp.value_and_gradient(theta, batch)
        outs = [grad, mlp.gradient(theta, batch), mlp._forward(theta, mlp.x)[2],
                mlp.axis_values(theta, steps)]
        mlp.value(theta, batch)
        mlp.mean_data_loss(theta)
        _check_pure(before, outs)


# -- _softplus is looked up by name --------------------------------------------------

def test_every_loss_value_path_reaches_softplus_by_name(monkeypatch):
    calls = []

    def spy(z):
        calls.append(np.shape(z))
        return _softplus(z)

    logistic = _logistic()
    mlp = make_spirals_mlp(4, n=40, hidden=(5, 3), prior_precision=0.4)
    theta = make_rng(26, 6).standard_normal(mlp.dim)
    thetas = make_rng(26, 7).standard_normal((3, logistic.dim))
    fam = FullGaussian(logistic.dim)
    lam = fam.from_moment(np.zeros(logistic.dim), np.eye(logistic.dim))
    paths = {
        "logistic.value": lambda: logistic.value(thetas[0]),
        "logistic.value_batch": lambda: logistic.value_batch(thetas),
        "logistic.value_batch(batch)": lambda: logistic.value_batch(thetas, [1, 4, 9]),
        "expected_loss": lambda: expected_loss(fam, lam, logistic,
                                               EstimatorSpec("mc", n_samples=8)),
        "mlp.value": lambda: mlp.value(theta),
        "mlp.value_and_gradient": lambda: mlp.value_and_gradient(theta, [0, 5])[0],
        "mlp.mean_data_loss": lambda: mlp.mean_data_loss(theta),
        "mlp.axis_values": lambda: mlp.axis_values(theta, np.full(mlp.dim, 1e-4)),
    }
    unspied = {name: path() for name, path in paths.items()}
    monkeypatch.setattr(natvb.models, "_softplus", spy)
    for name, path in paths.items():
        calls.clear()
        got = path()
        assert calls, f"{name} never looked up natvb.models._softplus"
        _same(got, unspied[name])
