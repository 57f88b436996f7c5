import warnings

import numpy as np
import pytest

import natvb.losses
import natvb.numdiff
from natvb.errors import DomainError, MissingHessian
from natvb.gaussian import DiagGaussian, FullGaussian, sym_to_coeff
from natvb.losses import LossModel, QuadraticLoss, check_derivatives
from natvb.harness import build_model, resolve_config
from natvb.models import LogisticModel, make_logistic_data
from natvb.numdiff import central_diff_batch
from natvb.seeding import make_rng

from conftest import zero_loss


def make_quadratic(rng, dim):
    a = rng.standard_normal((dim, dim))
    return QuadraticLoss(a @ a.T + np.eye(dim), rng.standard_normal(dim),
                         rng.standard_normal())


def test_quadratic_value_gradient_hessian(rng):
    loss = make_quadratic(rng, 3)
    theta = rng.standard_normal(3)
    assert np.isclose(loss.value(theta),
                      0.5 * theta @ loss.quad @ theta - loss.lin @ theta + loss.const)
    np.testing.assert_allclose(loss.gradient(theta), loss.quad @ theta - loss.lin)
    np.testing.assert_array_equal(loss.hessian_full(theta), loss.quad)
    np.testing.assert_array_equal(loss.hessian_diag(theta), np.diag(loss.quad))


def test_quadratic_expected_moments(rng):
    loss = make_quadratic(rng, 2)
    mean = rng.standard_normal(2)
    a = rng.standard_normal((2, 2))
    cov = a @ a.T + np.eye(2)
    draws = mean + make_rng(4).standard_normal((400_000, 2)) @ np.linalg.cholesky(cov).T
    vals = np.array([loss.value(t) for t in draws[:100_000]])
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(loss.expected_value(mean, cov) - vals.mean()) < 3 * se
    np.testing.assert_allclose(loss.expected_gradient(mean, cov),
                               loss.quad @ mean - loss.lin)


def test_quadratic_rejects_asymmetric():
    with pytest.raises(ValueError):
        QuadraticLoss(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2))


@pytest.mark.parametrize("quad, lin, const", [
    ([[np.nan]], [0.0], 0.0),  # passes the symmetry test: nan > tol is False
    ([[1.0, np.inf], [np.inf, 1.0]], [0.0, 0.0], 0.0),  # inf - inf warned there
    ([[1.0, 0.0], [0.0, -np.inf]], [0.0, 0.0], 0.0),
    ([[1.0]], [np.nan], 0.0),
    ([[1.0, 0.0], [0.0, 1.0]], [0.0, np.inf], 0.0),
    ([[1.0]], [0.0], np.nan),
    ([[1.0]], [0.0], -np.inf),
])
def test_quadratic_rejects_non_finite_terms_at_construction(quad, lin, const):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite"):
            QuadraticLoss(np.array(quad), np.array(lin), const)


def test_natural_coefficients_roundtrip_full(rng):
    fam = FullGaussian(3)
    coeff = rng.standard_normal(fam.param_dim)
    loss = QuadraticLoss.from_natural_coeff(fam, coeff)
    # the round-trip through (quad, lin) must be bitwise
    np.testing.assert_array_equal(loss.natural_coefficients(fam), coeff)
    # and the loss is literally <-coeff, T(theta)> + const
    theta = rng.standard_normal(3)
    assert np.isclose(loss.value(theta),
                      -float(coeff @ fam.sufficient_stats(theta)), atol=1e-12)


def test_natural_coefficients_roundtrip_diag(rng):
    fam = DiagGaussian(4)
    coeff = rng.standard_normal(fam.param_dim)
    loss = QuadraticLoss.from_natural_coeff(fam, coeff)
    np.testing.assert_array_equal(loss.natural_coefficients(fam), coeff)
    theta = rng.standard_normal(4)
    assert np.isclose(loss.value(theta),
                      -float(coeff @ fam.sufficient_stats(theta)), atol=1e-12)


def test_natural_coefficients_none_for_offdiagonal_on_diag_family(rng):
    loss = make_quadratic(rng, 2)  # dense quadratic term
    assert loss.natural_coefficients(DiagGaussian(2)) is None
    # but the same loss is linear in the full family's statistic
    full_coeff = loss.natural_coefficients(FullGaussian(2))
    np.testing.assert_array_equal(full_coeff[2:], sym_to_coeff(-0.5 * loss.quad))


def test_zero_loss_is_identically_zero():
    loss = zero_loss(3)
    assert loss.value(np.ones(3)) == 0.0
    np.testing.assert_array_equal(loss.gradient(np.ones(3)), np.zeros(3))
    np.testing.assert_array_equal(loss.natural_coefficients(DiagGaussian(3)),
                                  np.zeros(6))


def test_check_derivatives_passes_for_consistent_loss(rng):
    loss = make_quadratic(rng, 3)
    worst = check_derivatives(loss, [rng.standard_normal(3) for _ in range(3)])
    assert worst["gradient"] < 1e-4


def test_check_derivatives_catches_wrong_gradient():
    class Broken(QuadraticLoss):
        def gradient(self, theta, batch=None):
            return super().gradient(theta, batch) + 0.01

    loss = Broken(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="gradient mismatch"):
        check_derivatives(loss, [np.ones(2)])


def test_check_derivatives_catches_nan_gradient():
    # a NaN error compares False with the tolerance either way round
    class Broken(QuadraticLoss):
        def gradient(self, theta, batch=None):
            return np.full(self.dim, np.nan)

    loss = Broken(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="gradient mismatch nan"):
        check_derivatives(loss, [np.ones(2)])


def test_check_derivatives_catches_wrong_hessian():
    class Broken(QuadraticLoss):
        def hessian_full(self, theta, batch=None):
            return super().hessian_full(theta, batch) + 0.05

    loss = Broken(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="hessian mismatch"):
        check_derivatives(loss, [np.ones(2)])


def test_check_derivatives_catches_wrong_hessian_diag():
    class Broken(QuadraticLoss):
        def hessian_diag(self, theta, batch=None):
            return super().hessian_diag(theta, batch) + 0.05

    loss = Broken(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="hessian diagonal mismatch"):
        check_derivatives(loss, [np.ones(2)])


def test_check_derivatives_one_jacobian_per_probe(rng):
    # both Hessian checks read the same finite-difference Jacobian: per
    # probe one gradient_batch call on its 2P perturbed rows, and no
    # per-point gradient call from the differences
    class Counting(QuadraticLoss):
        batch_rows = []
        calls = 0

        def gradient(self, theta, batch=None):
            Counting.calls += 1
            return super().gradient(theta, batch)

        def gradient_batch(self, thetas, batch=None):
            Counting.batch_rows.append(len(thetas))
            return super().gradient_batch(thetas, batch)

    p = 3
    a = rng.standard_normal((p, p))
    loss = Counting(a @ a.T + np.eye(p), rng.standard_normal(p))
    assert loss.provides_hessian_full and loss.provides_hessian_diag
    worst = check_derivatives(loss, [rng.standard_normal(p) for _ in range(2)])
    # the override check on the two probes, then one Jacobian per probe
    assert Counting.batch_rows == [2, 2 * p, 2 * p]
    # the override check's per-theta loop and the analytic gradient per probe
    assert Counting.calls == 2 + 2
    assert worst["hessian_full"] < 1e-6 and worst["hessian_diag"] < 1e-6


@pytest.mark.parametrize("p", [1, 4, 20, 40])
def test_quadratic_batched_methods_equal_per_theta_loop_bitwise(p, rng):
    loss = make_quadratic(rng, p)
    for k in (1, 2, 40):
        for order in ("C", "F"):
            thetas = np.asarray(3.0 * rng.standard_normal((k, p)), order=order)
            np.testing.assert_array_equal(
                loss.value_batch(thetas), [loss.value(t) for t in thetas])
            np.testing.assert_array_equal(
                loss.gradient_batch(thetas), [loss.gradient(t) for t in thetas])


#: check_derivatives' worst errors on the ridge_full benchmark workload at
#: seed 1 (ridge, n=200, P=20) when it differenced one point at a time
RIDGE_FULL_WORST = {"axes": 0.0, "batched": 0.0, "gradient": float.fromhex("0x1.5bfd6424c3dfbp-35"),
                    "hessian_diag": float.fromhex("0x1.fd079840c4756p-38"),
                    "hessian_full": float.fromhex("0x1.0e35227a78d93p-36")}


def test_check_derivatives_keeps_the_per_point_worst_errors_on_ridge():
    config = {"schema_version": 1, "seed": 1,
              "model": {"kind": "ridge", "n": 200, "p": 20, "data_seed": 1},
              "optimizer": {"kind": "blr", "family": "full", "learning_rate": 0.5,
                            "max_iter": 40, "estimator": "exact"}}
    _, loss = build_model(resolve_config(config)["model"])
    probe_rng = make_rng(1, 0xC)
    probe = [probe_rng.standard_normal(loss.dim) * 0.3 for _ in range(2)]
    assert check_derivatives(loss, probe) == RIDGE_FULL_WORST


@pytest.mark.parametrize("coord", [0, 23, 39])
def test_check_derivatives_rejects_one_wrong_gradient_coordinate(coord, rng):
    # P = 40: every coordinate's difference comes from the same batched call
    base = make_quadratic(rng, 40)

    def shift(grads):
        grads = np.array(grads)
        grads[..., coord] += 1e-2 * (1.0 + np.linalg.norm(grads, axis=-1))
        return grads

    class OneWrong(QuadraticLoss):
        def gradient(self, theta, batch=None):
            return shift(super().gradient(theta, batch))

        def gradient_batch(self, thetas, batch=None):
            return shift(super().gradient_batch(thetas, batch))

    loss = OneWrong(base.quad, base.lin, base.const)
    with pytest.raises(ValueError, match="gradient mismatch"):
        check_derivatives(loss, [0.3 * rng.standard_normal(40) for _ in range(2)])


def test_check_derivatives_checks_value_batch_before_differencing(monkeypatch):
    class Broken(QuadraticLoss):
        def value_batch(self, thetas, batch=None):
            return super().value_batch(thetas, batch) + 1e-3

    def no_differences(*args, **kwargs):
        raise AssertionError("finite differences ran before the override check")

    monkeypatch.setattr(natvb.losses, "central_diff_batch", no_differences)
    monkeypatch.setattr(natvb.losses, "central_quotient", no_differences)
    with pytest.raises(ValueError, match="batched value_batch differs from its per-theta"):
        check_derivatives(Broken(np.eye(3), np.zeros(3)), [np.ones(3)])


def _per_coordinate_differences(f, x):
    """Central differences one coordinate at a time, as they were taken
    before they were batched: (the +h rows, the -h rows, f's differences)."""
    h = 1e-5 * np.maximum(1.0, np.abs(x))
    plus, minus, cols = [], [], []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h[i]
        plus.append(x + e)
        minus.append(x - e)
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h[i]))
    return np.array(plus), np.array(minus), np.stack(cols, axis=-1)


@pytest.mark.parametrize("block", [7, natvb.numdiff.BLOCK_COORDS])
def test_central_differences_in_blocks_equal_per_coordinate_bitwise(block, monkeypatch,
                                                                    rng):
    loss = make_quadratic(rng, 40)
    theta = rng.standard_normal(40)
    theta[[3, 30]] = -0.0
    monkeypatch.setattr(natvb.numdiff, "BLOCK_COORDS", block)
    for f, f_batch in ((loss.value, loss.value_batch), (loss.gradient, loss.gradient_batch)):
        plus, minus, want = _per_coordinate_differences(f, theta)
        rows = []

        def recording(thetas):
            rows.append(thetas.copy())
            return f_batch(thetas)

        np.testing.assert_array_equal(central_diff_batch(recording, theta), want)
        assert [len(r) for r in rows] == [2 * min(block, 40 - start)
                                          for start in range(0, 40, block)]
        # the perturbed rows themselves, signed zeros included
        half = [len(r) // 2 for r in rows]
        assert (np.concatenate([r[:k] for r, k in zip(rows, half)]).tobytes()
                == plus.tobytes())
        assert (np.concatenate([r[k:] for r, k in zip(rows, half)]).tobytes()
                == minus.tobytes())


@pytest.mark.parametrize("p", [3, 40, 70])
def test_default_axis_values_give_central_diff_batch_differences_bitwise(p, rng):
    # the quotient of the default's values is what the gate took before
    # axis_values existed, blocks, signed zeros and all
    theta = 2.0 * rng.standard_normal(p)
    theta[[0, p - 1]] = [-0.0, 0.0]
    data = make_logistic_data(4, 30, p)
    for loss in (make_quadratic(rng, p), data):
        steps = natvb.numdiff.axis_steps(theta)
        plus, minus = loss.axis_values(theta, steps)
        want = central_diff_batch(loss.value_batch, theta)
        assert natvb.numdiff.central_quotient(plus, minus, steps).tobytes() == want.tobytes()


def test_check_derivatives_checks_value_batch_before_axis_values():
    class Broken(QuadraticLoss):
        def value_batch(self, thetas, batch=None):
            return super().value_batch(thetas, batch) + 1e-3

        def axis_values(self, theta, steps):
            raise AssertionError("axis_values ran before the value_batch check")

    with pytest.raises(ValueError, match="batched value_batch differs"):
        check_derivatives(Broken(np.eye(3), np.zeros(3)), [np.ones(3)])


def test_missing_hessian_signalled():
    class GradOnly(LossModel):
        dim = 2

        def value(self, theta, batch=None):
            return float(np.sum(np.asarray(theta) ** 4))

        def gradient(self, theta, batch=None):
            return 4.0 * np.asarray(theta, dtype=float) ** 3

    loss = GradOnly()
    assert not loss.provides_hessian_full
    with pytest.raises(MissingHessian):
        loss.hessian_full(np.zeros(2))


def test_no_batch_structure_rejected(rng):
    loss = make_quadratic(rng, 2)
    with pytest.raises(ValueError, match="minibatch"):
        loss.value(np.zeros(2), batch=np.array([0]))


def test_minibatch_rescaling_unbiased():
    # averaging the minibatch gradient over all batches of a partition
    # recovers the full-data gradient
    loss = make_logistic_data(3, 40, 3)
    theta = make_rng(10).standard_normal(3)
    full = loss.gradient(theta)
    batches = [np.arange(i, i + 10) for i in range(0, 40, 10)]
    avg = np.mean([loss.gradient(theta, b) for b in batches], axis=0)
    np.testing.assert_allclose(avg, full, rtol=1e-10, atol=1e-12)
    full_val = loss.value(theta)
    avg_val = np.mean([loss.value(theta, b) for b in batches])
    assert np.isclose(avg_val, full_val, rtol=1e-10)


def test_logistic_value_batch_matches_value():
    loss = make_logistic_data(5, 30, 2)
    thetas = make_rng(6).standard_normal((7, 2))
    batch_vals = loss.value_batch(thetas)
    np.testing.assert_allclose(batch_vals,
                               [loss.value(t) for t in thetas], rtol=1e-12)


def test_logistic_labels_validated():
    with pytest.raises(Exception):
        LogisticModel(np.ones((3, 2)), [0.0, 2.0, 1.0])


def _drifting_logistic(method, drift):
    """A logistic loss whose batched `method` is off by `drift`."""
    data = make_logistic_data(3, 40, 3)

    class Drifting(LogisticModel):
        pass

    def drifted(self, thetas, batch=None):
        return drift(getattr(LogisticModel, method)(self, thetas, batch), batch)

    setattr(Drifting, method, drifted)
    return Drifting(data.x, data.y)


@pytest.mark.parametrize("method,drift", [
    ("gradient_batch", lambda out, batch: out * (1.0 + 1e-8)),
    # forgets the N/|batch| rescaling, so only the minibatch check sees it
    ("gradient_batch", lambda out, batch: out if batch is None else out / 2.0),
])
def test_check_derivatives_catches_drifting_batched_override(method, drift):
    loss = _drifting_logistic(method, drift)
    points = [np.full(3, 0.1), np.array([0.3, -0.2, 0.5])]
    with pytest.raises(ValueError, match=f"batched {method}"):
        check_derivatives(loss, points)


def test_check_derivatives_catches_drifting_value_batch(rng):
    class Drifting(QuadraticLoss):
        def value_batch(self, thetas, batch=None):
            return super().value_batch(thetas, batch) + 1e-7

    loss = Drifting(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="batched value_batch"):
        check_derivatives(loss, [np.ones(2)])


def test_check_derivatives_reports_batched_error():
    loss = make_logistic_data(3, 40, 3)
    worst = check_derivatives(loss, [np.full(3, 0.1), np.array([0.3, -0.2, 0.5])])
    assert 0.0 <= worst["batched"] < 1e-12


@pytest.mark.parametrize("drift", [
    lambda value, grad, batch: (value * (1.0 + 1e-8), grad),
    lambda value, grad, batch: (value, grad + 1e-7),
    # forgets the N/|batch| rescaling, so only the minibatch check sees it
    lambda value, grad, batch: (value, grad if batch is None else grad / 2.0),
])
def test_check_derivatives_catches_drifting_value_and_gradient(drift):
    data = make_logistic_data(3, 40, 3)

    class Drifting(LogisticModel):
        def value_and_gradient(self, theta, batch=None):
            return drift(*super().value_and_gradient(theta, batch), batch)

    loss = Drifting(data.x, data.y)
    points = [np.full(3, 0.1), np.array([0.3, -0.2, 0.5])]
    with pytest.raises(ValueError, match="value_and_gradient"):
        check_derivatives(loss, points)


def test_check_derivatives_reports_fused_error():
    data = make_logistic_data(3, 40, 3)

    class Fused(LogisticModel):
        def value_and_gradient(self, theta, batch=None):
            value, grad = super().value_and_gradient(theta, batch)
            return value * (1.0 + 1e-12), grad

    worst = check_derivatives(Fused(data.x, data.y), [np.full(3, 0.1)])
    assert 1e-13 < worst["batched"] < 1e-11


@pytest.mark.parametrize("drift", [
    lambda grads, hess, batch, diag: (grads * (1.0 + 1e-8), hess),
    lambda grads, hess, batch, diag: (grads, hess + 1e-7),
    # forgets the N/|batch| rescaling, so only the minibatch check sees it
    lambda grads, hess, batch, diag: (grads, hess if batch is None else hess / 2.0),
    # wrong only on the diagonal route
    lambda grads, hess, batch, diag: (grads, hess * 1.001 if diag else hess),
    # wrong only on one route, by a matrix or a small shift
    lambda grads, hess, batch, diag: (grads, hess if diag else hess - np.eye(hess.shape[0])),
    lambda grads, hess, batch, diag: (grads, hess + 1e-6 if diag else hess),
])
def test_check_derivatives_catches_drifting_gradient_and_mean_hessian(drift):
    data = make_logistic_data(3, 40, 3)

    class Drifting(LogisticModel):
        def gradient_and_mean_hessian(self, thetas, batch=None, diag=False):
            return drift(*super().gradient_and_mean_hessian(thetas, batch, diag),
                         batch, diag)

    loss = Drifting(data.x, data.y)
    points = [np.full(3, 0.1), np.array([0.3, -0.2, 0.5])]
    with pytest.raises(ValueError, match="gradient_and_mean_hessian"):
        check_derivatives(loss, points)


def test_gradient_and_mean_hessian_default_is_the_separate_calls(rng):
    loss = make_quadratic(rng, 3)
    thetas = rng.standard_normal((4, 3))
    for diag, hessian in ((False, loss.hessian_full), (True, loss.hessian_diag)):
        grads, hess = loss.gradient_and_mean_hessian(thetas, diag=diag)
        np.testing.assert_array_equal(grads, loss.gradient_batch(thetas))
        total = np.zeros_like(hessian(thetas[0]))
        for theta in thetas:
            total += hessian(theta)
        np.testing.assert_array_equal(hess, total / len(thetas))


def test_value_and_gradient_default_is_value_then_gradient(rng):
    loss = make_quadratic(rng, 3)
    theta = rng.standard_normal(3)
    value, grad = loss.value_and_gradient(theta)
    assert value == loss.value(theta)
    np.testing.assert_array_equal(grad, loss.gradient(theta))
