import numpy as np
import pytest

from natvb.blr import conjugate_posterior
from natvb.errors import DomainError
from natvb.gaussian import FullGaussian
from natvb.losses import check_derivatives
from natvb.models import (MLPModel, RidgeModel,
                          make_logistic_data, make_ridge_data,
                          make_spirals_mlp, ridge_conjugate_model,
                          ridge_exact_posterior, ridge_loss,
                          ridge_natural_coefficients, two_spirals)
from natvb.seeding import make_rng


# -- ridge oracle ----------------------------------------------------------

def test_ridge_posterior_identity_design():
    model = RidgeModel(np.eye(2), [1.0, 2.0], 1.0)
    post = ridge_exact_posterior(model)
    np.testing.assert_allclose(post.precision, 2.0 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(post.mean, [0.5, 1.0], atol=1e-14)


def test_ridge_posterior_zero_targets():
    rng = make_rng(1)
    x = rng.standard_normal((10, 3))
    model = RidgeModel(x, np.zeros(10), 2.0)
    post = ridge_exact_posterior(model)
    np.testing.assert_array_equal(post.mean, np.zeros(3))
    np.testing.assert_allclose(post.precision, x.T @ x + 2.0 * np.eye(3))


def test_ridge_two_code_paths_agree_100_instances():
    rng = make_rng(2)
    for trial in range(100):
        n = int(rng.integers(1, 101))
        p = int(rng.integers(1, 11))
        model = make_ridge_data(5000 + trial, n, p,
                                prior_precision=float(rng.uniform(0.2, 3.0)))
        fam = FullGaussian(p)
        post = ridge_exact_posterior(model)
        lam_solve = fam.from_moment(post.mean, post.precision)
        lam_add = conjugate_posterior(ridge_conjugate_model(model)).coords
        scale = max(1.0, np.max(np.abs(lam_solve)))
        assert np.max(np.abs(lam_solve - lam_add)) / scale < 1e-10


def test_ridge_natural_coefficients_blocks():
    model = RidgeModel(np.eye(2), [1.0, 2.0], 1.0)
    lam_lik, lam_prior = ridge_natural_coefficients(model)
    np.testing.assert_array_equal(lam_lik[:2], [1.0, 2.0])        # X'y
    np.testing.assert_allclose(lam_lik[2:], [-0.5, 0.0, -0.5])    # -X'X/2
    np.testing.assert_array_equal(lam_prior[:2], [0.0, 0.0])
    np.testing.assert_allclose(lam_prior[2:], [-0.5, 0.0, -0.5])  # -tau I/2


def test_ridge_zero_design_zero_likelihood_block():
    model = RidgeModel(np.zeros((4, 2)), np.ones(4), 1.0)
    lam_lik, _ = ridge_natural_coefficients(model)
    np.testing.assert_array_equal(lam_lik, np.zeros(5))


def test_ridge_coefficients_match_log_likelihood_on_probe_grid():
    # <lam_lik, T(theta)> - log p(y|theta) must be constant in theta
    model = make_ridge_data(3, 15, 3)
    lam_lik, _ = ridge_natural_coefficients(model)
    fam = FullGaussian(3)
    rng = make_rng(4)
    gaps = []
    for _ in range(10):
        theta = rng.standard_normal(3)
        resid = model.y - model.x @ theta
        loglik = -0.5 * float(resid @ resid) - 0.5 * model.n * np.log(2 * np.pi)
        gaps.append(float(lam_lik @ fam.sufficient_stats(theta)) - loglik)
    assert max(gaps) - min(gaps) < 1e-9


def test_ridge_loss_is_negative_log_joint():
    model = make_ridge_data(5, 10, 2)
    loss = ridge_loss(model)
    rng = make_rng(6)
    tau = model.prior_precision
    for _ in range(5):
        theta = rng.standard_normal(2)
        resid = model.y - model.x @ theta
        direct = (0.5 * float(resid @ resid) + 0.5 * model.n * np.log(2 * np.pi)
                  + 0.5 * tau * float(theta @ theta)
                  + 0.5 * 2 * np.log(2 * np.pi / tau))
        assert np.isclose(loss.value(theta), direct, rtol=1e-12)


def test_ridge_model_validation():
    with pytest.raises(DomainError):
        RidgeModel(np.eye(2), [1.0], 1.0)
    with pytest.raises(DomainError):
        RidgeModel(np.eye(2), [1.0, np.nan], 1.0)
    with pytest.raises(DomainError):
        RidgeModel(np.eye(2), [1.0, 2.0], 0.0)


# -- loss zoo derivative gate -------------------------------------------------

def test_zoo_losses_pass_derivative_verifier():
    rng = make_rng(7)
    ridge = ridge_loss(make_ridge_data(8, 12, 3))
    logistic = make_logistic_data(9, 30, 3)
    mlp = make_spirals_mlp(10, n=60, hidden=(5, 4))
    for loss in (ridge, logistic):
        pts = [rng.standard_normal(loss.dim) * 0.7 for _ in range(3)]
        check_derivatives(loss, pts)
    check_derivatives(mlp, [mlp.init_params(1),
                            rng.standard_normal(mlp.dim) * 0.4])


def test_logistic_hessian_diag_matches_full():
    loss = make_logistic_data(11, 25, 3)
    theta = make_rng(12).standard_normal(3)
    np.testing.assert_allclose(loss.hessian_diag(theta),
                               np.diag(loss.hessian_full(theta)), rtol=1e-12)


def test_logistic_minibatch_hessians_rescaled():
    loss = make_logistic_data(13, 24, 2)
    theta = np.array([0.3, -0.2])
    batches = [np.arange(i, i + 8) for i in range(0, 24, 8)]
    avg = np.mean([loss.hessian_full(theta, b) for b in batches], axis=0)
    np.testing.assert_allclose(avg, loss.hessian_full(theta), rtol=1e-10)


# -- two spirals and the MLP ---------------------------------------------------

def test_two_spirals_shape_and_balance():
    x, y = two_spirals(500, seed=0)
    assert x.shape == (500, 2) and y.shape == (500,)
    assert set(np.unique(y)) == {0.0, 1.0}
    assert abs(y.mean() - 0.5) < 0.01
    assert np.max(np.abs(x)) < 1.5


def test_two_spirals_deterministic():
    xa, ya = two_spirals(100, seed=5)
    xb, yb = two_spirals(100, seed=5)
    np.testing.assert_array_equal(xa, xb)
    xc, _ = two_spirals(100, seed=6)
    assert not np.array_equal(xa, xc)


def test_mlp_parameter_packing_roundtrip():
    mlp = make_spirals_mlp(1, n=40, hidden=(4, 3))
    assert mlp.dim == (2 * 4 + 4) + (4 * 3 + 3) + (3 * 1 + 1)
    theta = mlp.init_params(2)
    layers = mlp.unpack(theta)
    flat = np.concatenate([np.concatenate([w.ravel(), b]) for w, b in layers])
    np.testing.assert_array_equal(flat, theta)


def test_mlp_validation():
    with pytest.raises(ValueError):
        MLPModel([2, 4, 2], np.zeros((5, 2)), np.zeros(5))  # output must be 1
    with pytest.raises(DomainError):
        MLPModel([3, 4, 1], np.zeros((5, 2)), np.zeros(5))  # input mismatch
    with pytest.raises(ValueError):
        MLPModel([2, 4, 1], np.zeros((5, 2)), np.zeros(5), activation="relu")


def test_mlp_mean_data_loss_at_chance():
    mlp = make_spirals_mlp(3, n=100, hidden=(4,))
    theta = np.zeros(mlp.dim)  # zero logits
    assert np.isclose(mlp.mean_data_loss(theta), np.log(2.0), atol=1e-12)


def test_mlp_prior_precision_enters_value_and_gradient():
    x, y = two_spirals(30, seed=4)
    plain = MLPModel([2, 4, 1], x, y, prior_precision=0.0)
    reg = MLPModel([2, 4, 1], x, y, prior_precision=0.7)
    theta = plain.init_params(5)
    assert np.isclose(reg.value(theta) - plain.value(theta),
                      0.35 * float(theta @ theta), rtol=1e-10)
    np.testing.assert_allclose(reg.gradient(theta) - plain.gradient(theta),
                               0.7 * theta, atol=1e-10)


def test_mlp_minibatch_gradient_unbiased():
    mlp = make_spirals_mlp(6, n=40, hidden=(4,))
    theta = mlp.init_params(7)
    batches = [np.arange(i, i + 10) for i in range(0, 40, 10)]
    avg = np.mean([mlp.gradient(theta, b) for b in batches], axis=0)
    np.testing.assert_allclose(avg, mlp.gradient(theta), rtol=1e-9, atol=1e-12)


def test_mlp_rejects_nonfinite_features_and_bad_prior():
    x, y = two_spirals(10, seed=1)
    for bad in (np.nan, np.inf):
        x_bad = x.copy()
        x_bad[3, 1] = bad
        with pytest.raises(DomainError):
            MLPModel([2, 4, 1], x_bad, y)
    for prior in (-0.5, np.nan, np.inf):
        with pytest.raises(DomainError):
            MLPModel([2, 4, 1], x, y, prior_precision=prior)
    assert MLPModel([2, 4, 1], x, y, prior_precision=0.0).prior_precision == 0.0


# -- the MLP kernel against the per-layer unpack/concatenate reference -------

def _reference_forward(mlp, theta, x):
    layers = mlp.unpack(theta)
    acts = [x]
    for w, b in layers[:-1]:
        acts.append(np.tanh(acts[-1] @ w.T + b))
    w, b = layers[-1]
    return layers, acts, (acts[-1] @ w.T + b).reshape(-1)


def _reference_value_and_gradient(mlp, theta, batch=None):
    if batch is None:
        x, y, scale = mlp.x, mlp.y, 1.0
    else:
        x, y, scale = mlp.x[batch], mlp.y[batch], mlp.n_data / len(batch)
    layers, acts, z = _reference_forward(mlp, theta, x)
    data = float(np.sum(np.logaddexp(0.0, z) - y * z))
    value = scale * data + 0.5 * mlp.prior_precision * float(theta @ theta)
    delta = (0.5 * (1.0 + np.tanh(0.5 * z)) - y).reshape(-1, 1)
    grads = [None] * len(layers)
    for idx in range(len(layers) - 1, -1, -1):
        w, _ = layers[idx]
        grads[idx] = (delta.T @ acts[idx], delta.sum(axis=0))
        if idx > 0:
            delta = (delta @ w) * (1.0 - acts[idx] ** 2)
    flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    return value, scale * flat + mlp.prior_precision * theta


@pytest.mark.parametrize("sizes", [[2, 1], [2, 5, 1], [2, 16, 16, 1], [3, 1, 4, 1]])
def test_mlp_kernel_bitwise_equals_reference(sizes):
    rng = make_rng(40, len(sizes), sizes[1])
    x = rng.standard_normal((37, sizes[0]))
    y = (rng.uniform(size=37) < 0.5).astype(float)
    mlp = MLPModel(sizes, x, y, prior_precision=0.3)
    x_before = mlp.x.copy()
    for _ in range(3):
        theta = rng.standard_normal(mlp.dim)
        np.testing.assert_array_equal(mlp.logits(theta),
                                      _reference_forward(mlp, theta, x)[2])
        for batch in (None, rng.choice(37, size=11, replace=False)):
            value, grad = _reference_value_and_gradient(mlp, theta, batch)
            fused_value, fused_grad = mlp.value_and_gradient(theta, batch)
            assert mlp.value(theta, batch) == value == fused_value
            np.testing.assert_array_equal(mlp.gradient(theta, batch), grad)
            np.testing.assert_array_equal(fused_grad, grad)
    np.testing.assert_array_equal(mlp.x, x_before)


def test_mlp_outputs_do_not_alias():
    mlp = make_spirals_mlp(2, n=30, hidden=(4, 3))
    theta = mlp.init_params(3)
    first, second = mlp.gradient(theta), mlp.gradient(theta)
    _, fused = mlp.value_and_gradient(theta)
    logits = mlp.logits(theta), mlp.logits(theta)
    for a, b in ((first, second), (first, fused), logits):
        assert not np.shares_memory(a, b)
    for out in (first, second, fused, *logits):
        assert not np.shares_memory(out, mlp.x) and not np.shares_memory(out, theta)
    first[:] = 0.0
    np.testing.assert_array_equal(second, fused)


def test_mlp_fused_method_passes_the_derivative_gate():
    mlp = make_spirals_mlp(4, n=40, hidden=(5,))
    worst = check_derivatives(mlp, [mlp.init_params(1), mlp.init_params(2)])
    assert worst["batched"] == 0.0
