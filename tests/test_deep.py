from dataclasses import fields, replace

import numpy as np
import pytest

from natvb.blr import BLRConfig, blr_init, blr_step
from natvb.deep import (IVONState, RMSpropState, TrainTraceRow, VONState, adam_init,
                        _sample_and_estimate, adam_step, ema, ivon_init, ivon_step,
                        preconditioned_step, rmsprop_init, rmsprop_step,
                        train, von_step)
from natvb.errors import LeftDomain
from natvb.gaussian import DiagGaussian
from natvb.losses import LossModel, QuadraticLoss
from natvb.models import make_logistic_data, make_spirals_mlp
from natvb.natgrad import EstimatorSpec, reparam_hessian_terms
from natvb.seeding import SAMPLE_STREAM, make_rng

from conftest import zero_loss
from test_validate_once import _same_bits


# -- RMSprop -----------------------------------------------------------------

def test_rmsprop_zero_gradient_decays_scale():
    state = rmsprop_init(np.array([1.0, -1.0]), step_size=0.1, scale_rate=0.25)
    state = replace(state, scale=np.array([4.0, 8.0]))
    new = rmsprop_step(state, np.zeros(2))
    np.testing.assert_array_equal(new.theta, state.theta)
    np.testing.assert_allclose(new.scale, 0.75 * state.scale)


def test_rmsprop_ema_fixed_point():
    grad = np.array([1.0, -2.0])
    state = rmsprop_init(np.zeros(2), step_size=0.1, scale_rate=0.37, damping=1e-8)
    state = replace(state, scale=grad ** 2)
    new = rmsprop_step(state, grad)
    np.testing.assert_array_equal(new.scale, grad ** 2)
    np.testing.assert_allclose(new.theta, -0.1 * grad / (np.abs(grad) + 1e-8))


def test_rmsprop_golden_trace():
    # frozen from a straight-line reference run:
    # alpha=0.1, beta=0.5, c=1e-8, g=(1,-2) for three steps
    state = rmsprop_init(np.zeros(2), step_size=0.1, scale_rate=0.5, damping=1e-8)
    grad = np.array([1.0, -2.0])
    golden = [
        ([-0.14142135423730953, 0.1414213552373095], [0.5, 2.0]),
        ([-0.25689140674190136, 0.256891408408568], [0.75, 3.0]),
        ([-0.363795902364014, 0.3637959046021092], [0.875, 3.5]),
    ]
    for theta_ref, scale_ref in golden:
        state = rmsprop_step(state, grad)
        np.testing.assert_allclose(state.theta, theta_ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(state.scale, scale_ref, rtol=0, atol=1e-15)


def test_rmsprop_scale_updated_before_theta():
    # the denominator uses the new scale, not the old one
    state = rmsprop_init(np.zeros(1), step_size=1.0, scale_rate=1.0, damping=0.0)
    new = rmsprop_step(state, np.array([2.0]))
    np.testing.assert_allclose(new.theta, [-1.0])  # 2 / sqrt(4), not 2 / sqrt(0)


def test_rmsprop_step_rejects_a_nan_gradient():
    # a NaN gradient leaves a NaN scale, which fails the nonnegativity check
    state = replace(rmsprop_init(np.zeros(2), step_size=0.1), t=4)
    with pytest.raises(LeftDomain, match="RMSprop scale") as excinfo:
        rmsprop_step(state, np.array([1.0, np.nan]))
    assert excinfo.value.iteration == 4
    assert np.isnan(excinfo.value.iterate[1]) and excinfo.value.iterate[0] > 0.0


# -- Adam --------------------------------------------------------------------

def test_adam_zero_gradient_no_movement():
    state = adam_init(np.array([0.3, -0.7]), step_size=0.1)
    new = adam_step(state, np.zeros(2))
    np.testing.assert_array_equal(new.theta, state.theta)


def test_adam_constant_gradient_sign_steps():
    # with bias correction and damping -> 0, every step is -alpha * sign(g)
    grad = np.array([0.5, -3.0])
    state = adam_init(np.zeros(2), step_size=0.01, damping=0.0)
    for _ in range(5):
        prev = state.theta.copy()
        state = adam_step(state, grad)
        np.testing.assert_allclose(state.theta - prev, -0.01 * np.sign(grad),
                                   rtol=1e-9)


def test_adam_golden_trace():
    # frozen from a straight-line reference run:
    # alpha=0.1, beta1=0.9, beta2=0.999, eps=1e-8, g=(1,-2) for three steps
    state = adam_init(np.zeros(2), step_size=0.1)
    grad = np.array([1.0, -2.0])
    golden = [
        [-0.09999999900000002, 0.0999999995],
        [-0.19999999799999935, 0.19999999899999932],
        [-0.29999999699999935, 0.29999999849999925],
    ]
    for theta_ref in golden:
        state = adam_step(state, grad)
        np.testing.assert_allclose(state.theta, theta_ref, rtol=0, atol=1e-15)


# -- the step contract RMSprop and Adam share with VON and IVON ---------------

_SCALE_STEPS = {
    "rmsprop": (rmsprop_step, lambda p, rng: RMSpropState(
        rng.standard_normal(p), rng.uniform(0.0, 2.0, p), step_size=rng.uniform(0.01, 1.0),
        scale_rate=rng.uniform(0.0, 1.0), damping=1e-8, t=int(rng.integers(0, 100))),
        ("theta", "scale")),
    "adam": (adam_step, lambda p, rng: adam_init(
        rng.standard_normal(p), step_size=rng.uniform(0.01, 1.0),
        beta1=rng.uniform(0.0, 0.99), beta2=rng.uniform(0.9, 0.9999)),
        ("theta", "m1", "m2")),
}


def _reference_scale_step(kind, state, grad):
    """The step as it was written with dataclasses.replace, which copies and
    re-validates the state."""
    if kind == "rmsprop":
        scale = ema(state.scale, grad ** 2, state.scale_rate)
        theta = preconditioned_step(state.theta, grad, scale, state.step_size,
                                    state.damping, sqrt_scale=True)
        return replace(state, theta=theta, scale=scale, t=state.t + 1)
    t = state.t + 1
    m1 = state.beta1 * state.m1 + (1.0 - state.beta1) * grad
    m2 = state.beta2 * state.m2 + (1.0 - state.beta2) * grad ** 2
    theta = preconditioned_step(state.theta, m1 / (1.0 - state.beta1 ** t),
                                m2 / (1.0 - state.beta2 ** t), state.step_size,
                                state.damping, sqrt_scale=True)
    return replace(state, theta=theta, m1=m1, m2=m2, t=t)


@pytest.mark.parametrize("kind", sorted(_SCALE_STEPS))
def test_scale_steps_return_trusted_states_with_the_replace_bits(kind):
    step, make_state, arrays = _SCALE_STEPS[kind]
    rng = make_rng(71, kind == "adam")
    for p in (1, 3, 7):
        state = make_state(p, rng)
        for _ in range(4):
            grad = rng.standard_normal(p)
            before = {name: getattr(state, name).copy() for name in arrays}
            new = step(state, list(grad))
            ref = _reference_scale_step(kind, state, grad)
            assert type(new) is type(state) and new.t == ref.t
            for field in fields(new):
                if field.name in arrays:
                    out = getattr(new, field.name)
                    assert _same_bits(out, getattr(ref, field.name))
                    assert out.ndim == 1 and out.dtype == np.float64
                    # pure: the input is untouched and the output its own array
                    assert _same_bits(getattr(state, field.name), before[field.name])
                    assert not any(np.shares_memory(out, getattr(state, name))
                                   for name in arrays)
                else:
                    assert getattr(new, field.name) == getattr(ref, field.name)
            state = new


class _NaNMinibatchGradient(QuadraticLoss):
    """A quadratic whose full-data terms are finite and whose every
    minibatch gradient is NaN."""

    n_data = 4

    def gradient(self, theta, batch=None):
        grad = super().gradient(theta)
        return grad if batch is None else np.full_like(grad, np.nan)


@pytest.mark.parametrize("init, iteration", [(rmsprop_init, 0), (adam_init, 1)])
def test_train_ends_a_nan_gradient_in_left_domain_with_partial_trace(init, iteration):
    # RMSprop's step 0 stops at its NaN scale, Adam's row 1 at its NaN theta:
    # either way the run fails as VON's and IVON's do, with the rows before it
    loss = _NaNMinibatchGradient(np.eye(2), np.ones(2))
    with np.errstate(invalid="ignore"), pytest.raises(LeftDomain) as excinfo:
        train(init(np.zeros(2), step_size=0.1), loss, steps=5, batch_size=2, seed=3)
    partial = excinfo.value.partial_trace
    assert [row.step for row in partial] == [0]
    assert excinfo.value.iteration == iteration


# -- VON ----------------------------------------------------------------------

def test_von_exact_rate_one_is_newton_jump(rng):
    # diagonal quadratic with exact expectations: one step lands on the optimum
    p = 4
    curv = rng.uniform(0.5, 3.0, p)
    lin = rng.standard_normal(p)
    loss = QuadraticLoss(np.diag(curv), lin)
    state = VONState(rng.standard_normal(p), np.ones(p), learning_rate=1.0)
    state = von_step(state, loss)
    np.testing.assert_allclose(state.prec, curv, atol=1e-14)
    np.testing.assert_allclose(state.mean, lin / curv, atol=1e-12)


def test_von_zero_loss_decays_to_floor():
    state = VONState(np.ones(2), np.ones(2), learning_rate=0.5, prec_floor=0.05)
    loss = zero_loss(2)
    seen = []
    with pytest.raises(LeftDomain) as excinfo:
        for _ in range(20):
            state = von_step(state, loss)
            seen.append(state.prec.copy())
            np.testing.assert_array_equal(state.mean, np.ones(2))
    assert excinfo.value.iteration == len(seen)
    assert all(np.all(b < a) for a, b in zip(seen, seen[1:]))  # monotone decay


def test_von_equals_blr_exact_20_steps(rng):
    p = 5
    curv = rng.uniform(0.5, 3.0, p)
    loss = QuadraticLoss(np.diag(curv), rng.standard_normal(p))
    fam = DiagGaussian(p)
    mean0, prec0 = rng.standard_normal(p), rng.uniform(0.5, 2.0, p)
    von = VONState(mean0, prec0, learning_rate=0.3)
    blr = blr_init(fam, fam.from_moment(mean0, prec0))
    cfg = BLRConfig(0.3, 1, estimator=EstimatorSpec("exact"))
    for _ in range(20):
        von = von_step(von, loss)
        blr = blr_step(blr, loss, cfg)
        lam_von = fam.from_moment(von.mean, von.prec).coords
        denom = np.maximum(1.0, np.abs(blr.lam.coords))
        assert np.max(np.abs(lam_von - blr.lam.coords) / denom) < 1e-12


def test_von_sampled_path_converges_on_logistic():
    loss = make_logistic_data(21, 100, 2)
    state = VONState(np.zeros(2), np.ones(2), learning_rate=0.1,
                     n_samples=4, seed=7)
    for _ in range(300):
        state = von_step(state, loss)
    # posterior mode of this problem is near the Newton solution
    from natvb.blr import newton_recovery_step
    mode = np.zeros(2)
    for _ in range(20):
        mode, _ = newton_recovery_step(loss, mode)
    assert np.linalg.norm(state.mean - mode) < 0.25


def test_von_reparam_fallback_when_no_hessian():
    # a gradient-only view of a quadratic forces the reparameterization
    # estimate of the curvature; VON still finds the loss geometry
    loss = QuadraticLoss(np.diag([1.0, 2.0]), np.zeros(2))

    class GradientOnly(LossModel):
        dim = 2

        def value(self, theta, batch=None):
            return loss.value(theta, batch)

        def gradient(self, theta, batch=None):
            return loss.gradient(theta, batch)

    state = VONState(np.array([2.0, -1.0]), np.ones(2), learning_rate=0.05,
                     n_samples=8, seed=3)
    tail, tail_means = [], []
    for t in range(400):
        state = von_step(state, GradientOnly())
        if t >= 200:
            tail.append(state.prec.copy())
            tail_means.append(state.mean)
    np.testing.assert_allclose(np.mean(tail, axis=0), [1.0, 2.0], atol=0.3)
    # the mean's tail average, whose spread over seeds is about 0.025; one
    # iterate's is about 0.06, too wide to pin at a fixed seed
    np.testing.assert_allclose(np.mean(tail_means, axis=0), np.zeros(2), atol=0.1)


def test_von_step_returns_fresh_vectors_and_leaves_its_input():
    loss = make_logistic_data(22, 50, 3)
    state = VONState(np.array([0.1, -0.2, 0.3]), np.array([1.0, 2.0, 0.5]),
                     learning_rate=0.2, n_samples=3, seed=4, t=7)
    mean, prec = state.mean.copy(), state.prec.copy()
    new = von_step(state, loss)
    np.testing.assert_array_equal(state.mean, mean)
    np.testing.assert_array_equal(state.prec, prec)
    assert type(new) is VONState and new.t == 8 and new.seed == 4
    for out in (new.mean, new.prec):
        assert out.shape == (3,) and out.dtype == np.float64
        for arr in (state.mean, state.prec):
            assert not np.shares_memory(out, arr)
    assert not np.shares_memory(new.mean, new.prec)


def test_von_state_rejects_a_floor_below_zero():
    # a step checks only the floor, so the floor must keep the precision positive
    for floor in (-1e-9, np.nan):
        with pytest.raises(ValueError, match="prec_floor"):
            VONState(np.zeros(2), np.ones(2), learning_rate=0.5, prec_floor=floor)


def test_von_state_rejects_no_samples():
    # the estimator core averages over the draws, as EstimatorSpec requires
    for n_samples in (0, -1):
        with pytest.raises(ValueError, match="n_samples"):
            VONState(np.zeros(2), np.ones(2), learning_rate=0.5, n_samples=n_samples)


_RATED = {
    "BLRConfig": lambda rate: BLRConfig(rate, 1).learning_rate,
    "VONState": lambda rate: VONState(np.zeros(2), np.ones(2), learning_rate=rate).learning_rate,
    "IVONState": lambda rate: IVONState(np.zeros(2), np.ones(2), np.zeros(2), step_size=0.1,
                                        hess_rate=rate).hess_rate,
    "ivon_init": lambda rate: ivon_init(np.zeros(2), step_size=0.1, hess_rate=rate).hess_rate,
}


@pytest.mark.parametrize("rate_of", _RATED.values(), ids=_RATED.keys())
def test_one_rate_rule_for_blr_von_and_ivon(rate_of):
    # a rate is checked once, when its config or state is built, and stored
    # as a float, so an int rate of 1 still writes the trace's rho cell as 1.0
    for bad in (0.0, 1.5, np.nan):
        with pytest.raises(ValueError, match=rf"^rate must be in \(0, 1\], got {bad}$"):
            rate_of(bad)
    with pytest.raises(TypeError):
        rate_of(lambda t: 0.5)
    for rate, stored in ((np.float32(0.25), 0.25), (1, 1.0)):
        value = rate_of(rate)
        assert type(value) is float and value == stored


def test_states_reject_a_nan_scale():
    # each check asks every element to lie inside the domain, which NaN does not
    with pytest.raises(ValueError, match="precision diagonal"):
        VONState(np.zeros(2), [np.nan, 1.0], learning_rate=0.5)
    with pytest.raises(ValueError, match="h \\+ delta0"):
        IVONState(np.zeros(2), [np.nan, 1.0], np.zeros(2), step_size=0.1)
    with pytest.raises(ValueError, match="h \\+ delta0"):
        IVONState(np.zeros(2), np.ones(2), np.zeros(2), step_size=0.1, weight_decay=np.nan)
    with pytest.raises(ValueError, match="nonnegative"):
        RMSpropState(np.zeros(2), [1.0, np.nan], step_size=0.1, scale_rate=0.1,
                     damping=1e-8)


def test_von_step_rejects_a_nan_precision():
    class NaNCurvature(QuadraticLoss):
        def expected_hessian(self, mean, cov):
            return np.full(np.shape(cov), np.nan)  # in cov's layout, a vector here

    state = VONState(np.zeros(2), np.ones(2), learning_rate=0.5)
    with pytest.raises(LeftDomain, match="floor"):
        von_step(state, NaNCurvature(np.eye(2), np.zeros(2)))


def test_von_rate_one_onto_zero_curvature_leaves_the_default_floor():
    # the floor test is strict: a precision of exactly 0, which the mean
    # step would divide by, leaves the domain at the default floor 0
    state = VONState(np.zeros(3), np.ones(3), learning_rate=1.0)
    assert state.prec_floor == 0.0
    with pytest.raises(LeftDomain, match="floor") as excinfo:
        von_step(state, QuadraticLoss(np.zeros((3, 3)), np.ones(3)))
    assert excinfo.value.iteration == 0
    np.testing.assert_array_equal(excinfo.value.iterate, np.zeros(3))


def test_von_step_rejects_moments_of_the_wrong_shape():
    base = QuadraticLoss(np.eye(3), np.zeros(3))

    class ColumnMoments(QuadraticLoss):
        def expected_gradient(self, mean, cov):
            return base.expected_gradient(mean, cov).reshape(-1, 1)

    state = VONState(np.zeros(3), np.ones(3), learning_rate=0.5)
    with pytest.raises(ValueError, match="shape"):
        von_step(state, ColumnMoments(np.eye(3), np.zeros(3)))


# -- IVON ------------------------------------------------------------------------

def test_ivon_zero_signal_step_algebra():
    # forced sample at the mean with a zero loss: hess estimate is 0, the mean
    # holds still (no weight decay), and h follows EMA decay plus retraction
    state = IVONState(np.array([1.0, -2.0]), np.array([1.0, 2.0]), np.zeros(2),
                      step_size=0.1, beta1=0.9, hess_rate=0.2, weight_decay=0.0,
                      ess=1.0)
    new = ivon_step(state, zero_loss(2), theta_sample=state.mean)
    np.testing.assert_array_equal(new.mean, state.mean)
    expected = 0.8 * state.hess + 0.5 * 0.2 ** 2 * state.hess ** 2 / state.hess
    np.testing.assert_allclose(new.hess, expected, rtol=1e-15)


def test_ivon_retraction_vanishes_at_fixed_point():
    # when the estimate equals the current h, the update is plain EMA (no-op)
    state = ivon_init(np.zeros(1), step_size=0.0, hess_init=2.0, hess_rate=0.3,
                      weight_decay=0.1, ess=1.0)
    curv = np.array([2.0])  # matches hess_init
    loss = QuadraticLoss(np.diag(curv), np.zeros(1))
    prec = state.ess * (state.hess + state.weight_decay)
    # choose the sample so that grad*(theta-m)*prec == h exactly
    offset = np.sqrt(state.hess / (curv * prec))
    new = ivon_step(state, loss, theta_sample=state.mean + offset)
    np.testing.assert_allclose(new.hess, state.hess, rtol=1e-12)


def test_ivon_hessian_estimate_unbiased_frozen_state():
    rng_true = make_rng(51)
    p = 2
    curv = rng_true.uniform(0.5, 2.5, p)
    loss = QuadraticLoss(np.diag(curv), rng_true.standard_normal(p))
    state = ivon_init(rng_true.standard_normal(p), step_size=0.1, hess_init=1.2,
                      weight_decay=1e-2, ess=2.0, seed=5)
    total = np.zeros(p)
    total_sq = np.zeros(p)
    # the precision ivon_step samples with, ess * (h + delta0)
    prec = state.ess * (state.hess + state.weight_decay)
    reps = 100_000
    for k in range(reps):
        _, _, est = _sample_and_estimate(state, prec, loss, make_rng(5, k), None, None)
        total += est
        total_sq += est ** 2
    avg = total / reps
    se = np.sqrt((total_sq / reps - avg ** 2) / reps)
    assert np.all(np.abs(avg - curv) < 3.0 * se)


def test_ivon_positivity_under_adversarial_settings():
    rng = make_rng(52)
    loss = QuadraticLoss(np.diag(rng.uniform(0.1, 5.0, 4)), rng.standard_normal(4))
    state = ivon_init(rng.standard_normal(4), step_size=0.3, hess_init=0.2,
                      hess_rate=0.95, weight_decay=1e-4, ess=3.0, seed=11)
    for _ in range(3000):
        state = ivon_step(state, loss)
        assert np.min(state.hess + state.weight_decay) > 0.0


def test_ivon_mean_update_has_no_square_root():
    # through ivon_step itself: sampled at the mean, the Hessian estimate is 0,
    # so h = 4 quadruples the new scale exactly and must quarter the mean's
    # move (1/s, not 1/sqrt(s), which would halve it)
    loss = QuadraticLoss(np.eye(1), np.array([-1.0]))  # gradient 1 at 0
    moves = []
    for hess0 in (1.0, 4.0):
        state = ivon_init(np.zeros(1), step_size=1.0, hess_init=hess0, weight_decay=0.0)
        new = ivon_step(state, loss, theta_sample=state.mean)
        moves.append(new.mean[0] - state.mean[0])
    assert moves[0] != 0.0
    assert moves[1] / moves[0] == 0.25


def test_ivon_bias_correction_flag():
    loss = QuadraticLoss(np.zeros((1, 1)), np.array([-1.0]))
    kwargs = dict(step_size=0.5, hess_init=1.0, hess_rate=1e-9,
                  weight_decay=0.0, ess=1.0)
    corrected = ivon_step(ivon_init(np.zeros(1), **kwargs), loss,
                          theta_sample=np.zeros(1))
    # first step: momentum = (1-beta1) g; the correction divides by (1-beta1)
    assert abs(corrected.mean[0]) == pytest.approx(0.5, rel=1e-8)


def _reference_ivon_step(state, loss, batch=None, theta_sample=None, rng=None):
    """The step as the update's formulas read, each vector a new temporary:
    (mean, hess, grad_momentum, t) of the next state."""
    rho = state.hess_rate
    delta0 = state.weight_decay
    rng = make_rng(state.seed, *SAMPLE_STREAM, state.t) if rng is None else rng
    prec = state.ess * (state.hess + state.weight_decay)
    if theta_sample is None:
        theta = state.mean + rng.standard_normal(state.mean.size) / np.sqrt(prec)
    else:
        theta = np.asarray(theta_sample, dtype=float).reshape(-1).copy()
    grad = loss.gradient(theta, batch)
    hess_est = reparam_hessian_terms(grad, prec, theta, state.mean)
    momentum = state.beta1 * state.grad_momentum + (1.0 - state.beta1) * grad
    hess = (ema(state.hess, hess_est, rho)
            + 0.5 * rho ** 2 * (state.hess - hess_est) ** 2 / (state.hess + delta0))
    t = state.t + 1
    mean = preconditioned_step(state.mean,
                               momentum / (1.0 - state.beta1 ** t) + delta0 * state.mean,
                               hess + delta0, state.step_size, state.damping,
                               sqrt_scale=False)
    return mean, hess, momentum, t


_IVON_ARRAYS = ("mean", "hess", "grad_momentum")


@pytest.mark.parametrize("damping", [0.0, 0.05])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
@pytest.mark.parametrize("sampled", [True, False])
@pytest.mark.parametrize("minibatch", [False, True])
def test_ivon_step_bitwise_equals_reference(damping, weight_decay, sampled, minibatch):
    rng = make_rng(70, int(damping > 0), int(weight_decay > 0), int(sampled),
                   int(minibatch))
    loss = make_spirals_mlp(3, n=60, hidden=(5, 4))
    p = loss.dim
    for k in range(6):
        # h may be negative where delta0 > 0 keeps h + delta0 positive
        low = -0.5 * weight_decay if k % 2 else 0.05
        state = IVONState(rng.standard_normal(p), rng.uniform(low, 3.0, p),
                          rng.standard_normal(p), step_size=rng.uniform(0.01, 1.0),
                          beta1=rng.uniform(0.0, 0.99), hess_rate=rng.uniform(1e-4, 1.0),
                          weight_decay=weight_decay, damping=damping,
                          ess=10.0 ** rng.uniform(0.0, 4.0),
                          seed=int(rng.integers(2 ** 32)), t=int(rng.integers(0, 100)))
        theta_sample = None if sampled else state.mean + 0.1 * rng.standard_normal(p)
        batch = rng.choice(60, size=20, replace=False) if minibatch else None
        before = {name: getattr(state, name).copy() for name in _IVON_ARRAYS}
        sample_before = None if sampled else theta_sample.copy()
        # the step's own stream, and a generator the caller hands over
        given = k % 3 == 2
        new = ivon_step(state, loss, batch, theta_sample,
                        rng=make_rng(k, 9) if given else None)
        mean, hess, momentum, t = _reference_ivon_step(
            state, loss, batch, theta_sample, rng=make_rng(k, 9) if given else None)
        assert _same_bits(new.mean, mean)
        assert _same_bits(new.hess, hess)
        assert _same_bits(new.grad_momentum, momentum)
        assert new.t == t and type(new) is IVONState
        for field in fields(IVONState):
            if field.name not in (*_IVON_ARRAYS, "t"):
                assert getattr(new, field.name) == getattr(state, field.name)
        # pure: the inputs are untouched and nothing returned aliases them
        for name in _IVON_ARRAYS:
            assert _same_bits(getattr(state, name), before[name])
        if not sampled:
            assert _same_bits(theta_sample, sample_before)
        inputs = [getattr(state, name) for name in _IVON_ARRAYS]
        inputs += [] if sampled else [theta_sample]
        outputs = [getattr(new, name) for name in _IVON_ARRAYS]
        for i, out in enumerate(outputs):
            assert out.ndim == 1 and out.size == p and out.dtype == np.float64
            for other in inputs + outputs[i + 1:]:
                assert not np.shares_memory(out, other)


def test_ivon_state_is_validated_at_construction():
    # a state a caller builds, or ivon_init builds, is checked and copied once
    mean = np.zeros(3)
    state = IVONState(mean, np.ones(3), np.zeros(3), step_size=0.1)
    mean[0] = 5.0
    assert state.mean[0] == 0.0
    assert IVONState([[1.0], [2.0]], [1.0, 1.0], [0.0, 0.0], step_size=0.1).mean.shape == (2,)
    with pytest.raises(ValueError, match="length 3"):
        IVONState(np.zeros(3), np.ones(2), np.zeros(3), step_size=0.1)
    with pytest.raises(ValueError, match="length 3"):
        IVONState(np.zeros(3), np.ones(3), np.zeros(4), step_size=0.1)
    with pytest.raises(ValueError, match="h \\+ delta0"):
        IVONState(np.zeros(2), np.array([1.0, -0.5]), np.zeros(2), step_size=0.1,
                  weight_decay=0.5)
    with pytest.raises(ValueError, match="h \\+ delta0"):
        ivon_init(np.zeros(2), step_size=0.1, hess_init=-1.0, weight_decay=0.5)


def test_ivon_step_rejects_a_nan_precision():
    # ess (h + delta0) underflows to 0, so the sample and everything after it
    # is NaN; the step must stop there rather than return h = mean = NaN
    state = ivon_init(np.zeros(3), step_size=0.3, hess_init=1e-315, weight_decay=0.0,
                      ess=1e-10)
    with np.errstate(all="ignore"), pytest.raises(LeftDomain, match="left the domain"):
        ivon_step(state, make_logistic_data(0, 40, 3))


def test_ivon_step_rejects_a_gradient_of_the_wrong_shape():
    class ColumnGradient(LossModel):
        dim = 3

        def value(self, theta, batch=None):
            return 0.0

        def gradient(self, theta, batch=None):
            return np.ones((3, 1))

    state = ivon_init(np.zeros(3), step_size=0.1, seed=2)
    with pytest.raises(ValueError):
        ivon_step(state, ColumnGradient())


# -- structural correspondence -----------------------------------------------------

def test_von_arithmetic_reproduces_rmsprop(rng):
    # squared-gradient curvature + square root + sampling off == RMSprop,
    # asserted exactly on 5 random traces
    for _ in range(5):
        p = int(rng.integers(1, 6))
        state = rmsprop_init(rng.standard_normal(p), step_size=0.07,
                             scale_rate=0.4, damping=1e-8)
        state = replace(state, scale=rng.uniform(0.0, 2.0, p))
        witness_theta, witness_scale = state.theta, state.scale
        for _ in range(6):
            grad = rng.standard_normal(p)
            witness_scale = ema(witness_scale, grad ** 2, state.scale_rate)
            witness_theta = preconditioned_step(witness_theta, grad, witness_scale,
                                                state.step_size, state.damping,
                                                sqrt_scale=True)
            state = rmsprop_step(state, grad)
            np.testing.assert_array_equal(state.theta, witness_theta)
            np.testing.assert_array_equal(state.scale, witness_scale)


def test_rmsprop_correspondence_row_fails_a_moving_average_both_share(monkeypatch):
    # verify holds rmsprop_step and VON's helpers to the update written out,
    # so an ema that both call and that rounds differently fails the row
    from natvb import deep, verify

    assert verify.check_rmsprop_correspondence() == (True, "exact match on 5 random traces")

    def mutant(old, new, rate):
        return old + rate * (new - old)

    monkeypatch.setattr(deep, "ema", mutant)
    monkeypatch.setattr(verify, "ema", mutant)
    assert verify.check_rmsprop_correspondence() == (
        False, "substituted update diverged from rmsprop_step")


# -- train loop ---------------------------------------------------------------------

def test_train_budget_zero_keeps_initial_row():
    loss = make_logistic_data(61, 30, 2)
    record = train(adam_init(np.zeros(2)), loss, steps=0, seed=1)
    assert len(record.rows) == 1
    assert record.rows[0][0] == 0
    assert TrainTraceRow._fields[0] == "step"


def test_train_deterministic_given_seed():
    loss = make_logistic_data(62, 40, 2)
    state = VONState(np.zeros(2), np.ones(2), learning_rate=0.1, n_samples=2,
                     seed=9)
    a = train(state, loss, steps=25, batch_size=10, seed=3)
    b = train(state, loss, steps=25, batch_size=10, seed=3)
    assert a.rows == b.rows
    c = train(state, loss, steps=25, batch_size=10, seed=4)
    assert a.rows != c.rows


def test_train_rejects_batch_without_data():
    loss = QuadraticLoss(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        train(adam_init(np.zeros(2)), loss, steps=1, batch_size=4, seed=0)


def test_train_records_scale_range():
    loss = make_logistic_data(63, 40, 2)
    state = VONState(np.zeros(2), np.ones(2), learning_rate=0.2, n_samples=2,
                     seed=1)
    record = train(state, loss, steps=10, seed=1)
    for row in record.rows:
        assert row[3] <= row[4]  # scale_min <= scale_max
        assert row[3] > 0.0


def test_train_propagates_left_domain_with_partial_trace():
    state = VONState(np.ones(1), np.ones(1), learning_rate=0.9, prec_floor=0.5)
    with pytest.raises(LeftDomain) as excinfo:
        train(state, zero_loss(1), steps=10, seed=0)
    partial = excinfo.value.partial_trace
    assert partial[0][0] == 0
