import collections
import importlib.util
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from natvb.blr import conjugate_posterior
from natvb.errors import DomainError
from natvb.gaussian import FullGaussian
from natvb.harness import build_model, resolve_config
from natvb.losses import LossModel, QuadraticLoss, check_derivatives
from natvb.models import (LogisticModel, MLPModel, RidgeModel, _softplus,
                          make_logistic_data, make_ridge_data,
                          make_spirals_mlp, ridge_conjugate_model,
                          ridge_exact_posterior, ridge_loss,
                          ridge_natural_coefficients, two_spirals)
from natvb.numdiff import axis_steps, perturbed_blocks
from natvb.seeding import make_rng


# -- ridge oracle ----------------------------------------------------------

def test_ridge_posterior_identity_design():
    model = RidgeModel(np.eye(2), [1.0, 2.0], 1.0)
    mean, precision = ridge_exact_posterior(model)
    np.testing.assert_allclose(precision, 2.0 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(mean, [0.5, 1.0], atol=1e-14)


def test_ridge_posterior_zero_targets():
    rng = make_rng(1)
    x = rng.standard_normal((10, 3))
    model = RidgeModel(x, np.zeros(10), 2.0)
    mean, precision = ridge_exact_posterior(model)
    np.testing.assert_array_equal(mean, np.zeros(3))
    np.testing.assert_allclose(precision, x.T @ x + 2.0 * np.eye(3))


def test_ridge_two_code_paths_agree_100_instances():
    rng = make_rng(2)
    for trial in range(100):
        n = int(rng.integers(1, 101))
        p = int(rng.integers(1, 11))
        model = make_ridge_data(5000 + trial, n, p,
                                prior_precision=float(rng.uniform(0.2, 3.0)))
        fam = FullGaussian(p)
        lam_solve = fam.from_moment(*ridge_exact_posterior(model)).coords
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


# -- the softplus kernel behind every loss value -------------------------------

def _ulps(got, ref):
    """|got - ref| in units of the float64 spacing at ref."""
    ref64 = ref.astype(float)
    return (np.abs(got.astype(np.longdouble) - ref)
            / np.spacing(np.abs(ref64)).astype(np.longdouble)).astype(float)


@pytest.mark.parametrize("draw", [
    lambda rng: rng.normal(0.0, 3.0, 200_000),
    lambda rng: rng.normal(0.0, 40.0, 200_000),
    lambda rng: rng.uniform(-745.0, 745.0, 200_000),
])
def test_softplus_within_ulps_of_oracles(draw):
    z = draw(make_rng(41))
    got = _softplus(z)
    assert np.max(_ulps(got, np.logaddexp(0.0, z).astype(np.longdouble))) <= 4.0
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble has no extra precision on this platform")
    zl = z.astype(np.longdouble)
    exact = np.maximum(zl, 0.0) + np.log1p(np.exp(-np.abs(zl)))
    assert np.max(_ulps(got, exact)) <= 2.0


def test_softplus_special_values_match_logaddexp():
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320, -1e-320,
                        709.0, -709.0, 750.0, -750.0, 1e308, -1e308])
    with np.errstate(invalid="ignore"):
        ref = np.logaddexp(0.0, special)
    np.testing.assert_array_equal(_softplus(special), ref)
    assert _softplus(np.array([0.0]))[0] == np.log(2.0)


def test_softplus_does_not_warn_on_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="raise", divide="raise", over="raise"):
            out = _softplus(np.array([np.nan, 1.0, -np.inf]))
    assert np.isnan(out[0]) and out[2] == 0.0


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
    # the value kernel itself is held to its oracle in test_softplus_*
    data = float(np.sum(_softplus(z) - y * z))
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
    # n = 500 with batches of 100: the spirals workload's shapes, where a
    # width-16 hidden layer's delta is (500, 16) or (100, 16)
    for n, batch_size in ((37, 11), (500, 100)):
        x = rng.standard_normal((n, sizes[0]))
        y = (rng.uniform(size=n) < 0.5).astype(float)
        mlp = MLPModel(sizes, x, y, prior_precision=0.3)
        x_before = mlp.x.copy()
        for _ in range(3):
            theta = rng.standard_normal(mlp.dim)
            np.testing.assert_array_equal(mlp.logits(theta),
                                          _reference_forward(mlp, theta, x)[2])
            for batch in (None, rng.choice(n, size=batch_size, replace=False)):
                value, grad = _reference_value_and_gradient(mlp, theta, batch)
                fused_value, fused_grad = mlp.value_and_gradient(theta, batch)
                assert mlp.value(theta, batch) == value == fused_value
                np.testing.assert_array_equal(mlp.gradient(theta, batch).view(np.int64),
                                              grad.view(np.int64))
                np.testing.assert_array_equal(fused_grad.view(np.int64),
                                              grad.view(np.int64))
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


# -- the shared Bernoulli likelihood ------------------------------------------

@pytest.mark.parametrize("tau", [np.inf, np.nan])
def test_data_models_reject_a_nonfinite_prior_precision(tau):
    x, y = two_spirals(20, seed=2)
    for build in (lambda: RidgeModel(x, y, tau), lambda: LogisticModel(x, y, tau),
                  lambda: MLPModel([2, 3, 1], x, y, tau)):
        with pytest.raises(DomainError):
            build()


def test_bernoulli_models_share_the_data_checks():
    x, y = two_spirals(20, seed=2)
    # the logistic value carries the prior's normaliser log(tau); the MLP's does not
    with pytest.raises(DomainError):
        LogisticModel(x, y, 0.0)
    for build in (lambda: LogisticModel(x, y[:-1]), lambda: MLPModel([2, 3, 1], x, y[:-1]),
                  lambda: LogisticModel(x, 2.0 * y), lambda: MLPModel([2, 3, 1], x, 2.0 * y)):
        with pytest.raises(DomainError):
            build()


@pytest.mark.parametrize("n, p", [(40, 2), (200, 5), (500, 8)])
def test_single_layer_mlp_is_logistic_regression(n, p):
    # MLPModel([p, 1]) with output bias 0 is the logistic model less its
    # prior normaliser 0.5 p (log 2 pi - log tau)
    tau = 0.7
    logistic = make_logistic_data(n + p, n, p, prior_precision=tau)
    mlp = MLPModel([p, 1], logistic.x, logistic.y, tau)
    normaliser = 0.5 * p * (np.log(2.0 * np.pi) - np.log(tau))
    rng = make_rng(n, p)
    for batch in (None, rng.choice(n, size=n // 4, replace=False)):
        for _ in range(3):
            w = rng.standard_normal(p)
            theta = np.append(w, 0.0)
            np.testing.assert_allclose(mlp.value(theta, batch),
                                       logistic.value(w, batch) - normaliser,
                                       rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(mlp.gradient(theta, batch)[:p],
                                       logistic.gradient(w, batch), rtol=1e-13, atol=0.0)


def _perfbench_layers():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: the methods each hooked class defined itself before BernoulliLoss existed
_DEFINED_BEFORE_MERGE = {
    QuadraticLoss: {"value", "gradient", "hessian_diag", "hessian_full", "expected_value",
                    "expected_gradient", "expected_hessian", "natural_coefficients"},
    LogisticModel: {"value", "gradient", "hessian_full", "hessian_diag"},
    MLPModel: {"value", "gradient", "mean_data_loss"},
}


def test_hooked_model_methods_stay_on_their_classes():
    # perfbench's install patches only names in vars(cls): a hooked method
    # moved into a base class would silently read zero in the models.* metrics
    table = _perfbench_layers()._MODEL_METHODS
    for cls, names in _DEFINED_BEFORE_MERGE.items():
        hooked = names & set(table)
        assert hooked, cls.__name__
        assert hooked <= set(vars(cls)), (cls.__name__, hooked - set(vars(cls)))


def test_mlp_fused_method_passes_the_derivative_gate():
    mlp = make_spirals_mlp(4, n=40, hidden=(5,))
    worst = check_derivatives(mlp, [mlp.init_params(1), mlp.init_params(2)])
    assert worst["batched"] == 0.0


# -- the MLP's axis values and the derivative gate ----------------------------

def _perturbed_values(loss, theta):
    """The loss at the points numdiff forms, one per-row value call each."""
    steps = axis_steps(theta)
    want = np.empty((2, theta.size))
    for coords, rows in perturbed_blocks(theta, steps):
        want[:, coords] = np.reshape([loss.value(row) for row in rows], (2, -1))
    return steps, want


@pytest.mark.parametrize("hidden", [(), (5,), (16, 16), (4, 4, 4)])
@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_mlp_axis_values_equal_the_value_loop(hidden, tau):
    mlp = make_spirals_mlp(6, n=50, hidden=hidden, prior_precision=tau)
    rng = make_rng(8)
    for theta in (mlp.init_params(2), 2.5 * rng.standard_normal(mlp.dim)):
        theta[[0, mlp.dim // 2, mlp.dim - 1]] = 0.0
        theta[1] = -0.0
        theta[2] = 3.0
        assert np.any(np.abs(theta) > 1.0)
        steps, want = _perturbed_values(mlp, theta)
        got = mlp.axis_values(theta, steps)
        assert got.shape == (2, mlp.dim)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_mlp_axis_values_leave_their_inputs_alone():
    mlp = make_spirals_mlp(6, n=30, hidden=(4, 3), prior_precision=0.5)
    theta = mlp.init_params(1)
    steps = axis_steps(theta)
    before = theta.copy(), steps.copy(), mlp.x.copy()
    mlp.axis_values(theta, steps)
    for after, was in zip((theta, steps, mlp.x), before):
        np.testing.assert_array_equal(after, was)


def _spirals_gate():
    """The spirals_ivon benchmark workload's model and derivative-gate probes."""
    config = {"schema_version": 1, "seed": 1,
              "model": {"kind": "spirals_mlp", "n": 500, "hidden": [16, 16],
                        "data_seed": 1},
              "optimizer": {"kind": "ivon", "step_size": 0.3, "steps": 2000,
                            "hess_rate": 3e-3, "weight_decay": 1e-2, "ess": 3e4,
                            "batch_size": 100}}
    _, loss = build_model(resolve_config(config)["model"])
    rng = make_rng(1, 0xC)
    return loss, [rng.standard_normal(loss.dim) * 0.3 for _ in range(2)]


#: coordinates of the (2, 16, 16, 1) net: a first-layer weight, a first-layer
#: bias, a hidden weight and the output bias
_SPIRALS_COORDS = {"first weight": 5, "first bias": 40, "hidden weight": 100,
                   "output bias": 336}


@pytest.mark.parametrize("coord", _SPIRALS_COORDS.values(), ids=_SPIRALS_COORDS.keys())
def test_gate_rejects_an_mlp_gradient_wrong_in_one_coordinate(coord):
    mlp = make_spirals_mlp(3, n=60, hidden=(16, 16))

    class OneWrong(MLPModel):
        def gradient(self, theta, batch=None):
            grad = super().gradient(theta, batch)
            grad[coord] += 1e-3 * max(1.0, float(np.linalg.norm(grad)))
            return grad

    loss = OneWrong(mlp.layer_sizes, mlp.x, mlp.y)
    assert loss.dim == 337
    rng = make_rng(4)
    with pytest.raises(ValueError, match="gradient mismatch"):
        check_derivatives(loss, [0.3 * rng.standard_normal(loss.dim) for _ in range(2)])


def _drifting_axes(coord, rel):
    """A (2, 16, 16, 1) MLP whose axis_values is off by rel at coord (+ side)."""
    mlp = make_spirals_mlp(3, n=60, hidden=(16, 16))

    class Drifting(MLPModel):
        def gradient(self, theta, batch=None):
            Drifting.gradients += 1
            return super().gradient(theta, batch)

        def axis_values(self, theta, steps):
            values = super().axis_values(theta, steps)
            values[0, coord] *= 1.0 + rel
            return values

    Drifting.gradients = 0
    return Drifting(mlp.layer_sizes, mlp.x, mlp.y)


def test_gate_checks_axis_values_at_sampled_coordinates_first():
    sampled = np.unique(np.linspace(0, 336, 17).round().astype(int))
    assert 105 in sampled
    loss = _drifting_axes(105, 1e-8)
    rng = make_rng(4)
    with pytest.raises(ValueError, match="axis_values differs from value"):
        check_derivatives(loss, [0.3 * rng.standard_normal(loss.dim) for _ in range(2)])
    assert type(loss).gradients == 0  # no gradient was compared


def test_gate_rejects_axis_values_drifting_at_an_unsampled_coordinate():
    loss = _drifting_axes(100, 1e-6)
    rng = make_rng(4)
    with pytest.raises(ValueError, match="gradient mismatch"):
        check_derivatives(loss, [0.3 * rng.standard_normal(loss.dim) for _ in range(2)])


def test_spirals_gate_work_and_memory(monkeypatch):
    # the benchmark's spirals_ivon gate: its differences make no per-row
    # call and no value_batch call, and its tracemalloc peak is no higher
    # than when it differenced one full forward pass per perturbed point
    # (389480 bytes, the peak the row-by-row gate reached here)
    loss, probe = _spirals_gate()
    check_derivatives(loss, probe)
    tracemalloc.start()
    try:
        worst = check_derivatives(loss, probe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 389480
    assert worst["axes"] < 1e-13 and worst["gradient"] < 1e-8

    counts = collections.Counter()
    inside = []

    def spy(owner, name, scope=False):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name, bool(inside)] += 1
            if scope:
                inside.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                if scope:
                    inside.pop()

        monkeypatch.setattr(owner, name, wrapper)

    spy(MLPModel, "axis_values", scope=True)
    spy(MLPModel, "value")
    spy(LossModel, "value_batch")
    check_derivatives(loss, probe)
    assert counts["axis_values", False] == 2
    # nothing per row, nothing batched inside the differences
    assert counts["value", True] == counts["value_batch", True] == 0
    # 17 coordinates x 2 signs x 2 probes in the axis_values check, then
    # value_and_gradient's check at 2 probes x (full data, half the data)
    assert counts["value", False] == 68 + 4
