import numpy as np
import pytest

from natvb.errors import MissingHessian
from natvb.gaussian import DiagGaussian, FullGaussian, sym_to_coeff
from natvb.losses import LossModel, QuadraticLoss, ZeroLoss, check_derivatives
from natvb.models import LogisticModel, make_logistic_data
from natvb.seeding import make_rng


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
    loss = ZeroLoss(3)
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
    # probe one gradient call plus 2P for the Jacobian (1 + 4P before)
    class Counting(QuadraticLoss):
        calls = 0

        def gradient(self, theta, batch=None):
            Counting.calls += 1
            return super().gradient(theta, batch)

    p = 3
    a = rng.standard_normal((p, p))
    loss = Counting(a @ a.T + np.eye(p), rng.standard_normal(p))
    assert loss.provides_hessian_full and loss.provides_hessian_diag
    worst = check_derivatives(loss, [rng.standard_normal(p) for _ in range(2)])
    assert Counting.calls == 2 * (1 + 2 * p)
    assert worst["hessian_full"] < 1e-6 and worst["hessian_diag"] < 1e-6


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
    ("mean_hessian_full", lambda out, batch: out - np.eye(out.shape[0])),
    ("mean_hessian_diag", lambda out, batch: out + 1e-6),
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
    for diag, hessian in ((False, loss.mean_hessian_full), (True, loss.mean_hessian_diag)):
        grads, hess = loss.gradient_and_mean_hessian(thetas, diag=diag)
        np.testing.assert_array_equal(grads, loss.gradient_batch(thetas))
        np.testing.assert_array_equal(hess, hessian(thetas))


def test_value_and_gradient_default_is_value_then_gradient(rng):
    loss = make_quadratic(rng, 3)
    theta = rng.standard_normal(3)
    value, grad = loss.value_and_gradient(theta)
    assert value == loss.value(theta)
    np.testing.assert_array_equal(grad, loss.gradient(theta))
