"""One estimator core: estimate_natgrad and von_step against the code they replaced.

The references below are the per-kind estimator functions and VON's
moment branches as they read before the one core, gaussian_moments,
took their place. Every estimate, and every VON step, must equal them
bit for bit: same expressions, same order, same draws.
"""

import numpy as np
import pytest

from natvb.deep import VONState, ema, preconditioned_step, von_step
from natvb.errors import DomainError, LeftDomain, MissingHessian
from natvb.gaussian import DiagGaussian, FullGaussian
from natvb.losses import LossModel, QuadraticLoss
from natvb.models import make_logistic_data, make_spirals_mlp
from natvb.natgrad import EstimatorSpec, check_support, estimate_natgrad, reparam_hessian_terms
from natvb.seeding import ESTIMATE_STREAM, SAMPLE_STREAM, make_rng

from conftest import random_lam


# -- the replaced estimators, verbatim ---------------------------------------------

def _reference_natgrad_exact(family, lam, loss):
    coeff = loss.natural_coefficients(family)
    if coeff is not None:
        # -linear_loss_natgrad(family, coeff), the function since removed
        return -(-np.asarray(coeff, dtype=float).reshape(-1))
    check_support(family, loss, "exact")
    mean, cov = family.to_mean_cov(lam)
    if family.hessian_kind == "diag":
        cov = np.diag(cov)  # the dense covariance the old route took
    grad = loss.expected_gradient(mean, cov)
    hess = loss.expected_hessian(mean, cov)
    if family.hessian_kind == "diag":
        hess = np.diag(np.atleast_2d(hess))
    return family.gaussian_identity(mean, grad, hess)


# the one change: delta now evaluates at the mean on the minibatch it is
# given, where the replaced function ignored it (batch=None is verbatim)
def _reference_natgrad_delta_method(family, lam, loss, batch=None):
    check_support(family, loss, "delta")
    mean, _ = family.to_mean_cov(lam)
    grad = loss.gradient(mean, batch)
    if family.hessian_kind == "diag":
        hess = loss.hessian_diag(mean, batch)
    else:
        hess = loss.hessian_full(mean, batch)
    return family.gaussian_identity(mean, grad, hess)


def _reference_mean_hessian(loss, thetas, batch, diag):
    thetas = np.atleast_2d(thetas)
    total = np.zeros(loss.dim) if diag else np.zeros((loss.dim, loss.dim))
    for theta in thetas:
        total += loss.hessian_diag(theta, batch) if diag else loss.hessian_full(theta, batch)
    return total / len(thetas)


def _reference_sampled_moments(loss, thetas, mean, prec=None, curvature="hessian",
                               diag=False, batch=None):
    n_samples = len(thetas)
    if curvature == "hessian":
        if type(loss).gradient_and_mean_hessian is LossModel.gradient_and_mean_hessian:
            # the defaults the fused call combined: gradient_batch, then the mean Hessian
            grads = loss.gradient_batch(thetas, batch)
            hess = _reference_mean_hessian(loss, thetas, batch, diag)
        else:
            grads, hess = loss.gradient_and_mean_hessian(thetas, batch, diag=diag)
    else:
        grads = loss.gradient_batch(thetas, batch)
        hess = reparam_hessian_terms(grads, prec, thetas, mean).sum(axis=0) / n_samples
    return grads.sum(axis=0) / n_samples, hess


def _reference_natgrad_gaussian_identity(family, lam, loss, n_samples, seed,
                                         batch=None, curvature="hessian"):
    check_support(family, loss, "mc" if curvature == "hessian" else "reparam")
    lam = family.natural(lam)
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    thetas = family.sample(lam, n_samples, rng)
    mean, _ = family.to_mean_cov(lam)
    prec = family.natural(lam).derived.prec if curvature == "reparam" else None
    diag = family.hessian_kind == "diag"
    grad, hess = _reference_sampled_moments(loss, thetas, mean, prec, curvature, diag,
                                            batch)
    return family.gaussian_identity(mean, grad, hess)


def _reference_estimate(family, lam, loss, spec, step=0, batch=None):
    if spec.kind == "exact":
        return _reference_natgrad_exact(family, lam, loss)
    if spec.kind == "delta":
        return _reference_natgrad_delta_method(family, lam, loss, batch)
    curvature = "hessian" if spec.kind == "mc" else "reparam"
    return _reference_natgrad_gaussian_identity(
        family, lam, loss, spec.n_samples, make_rng(spec.seed, *ESTIMATE_STREAM, step),
        batch=batch, curvature=curvature)


def _reference_von_step(state, loss, batch=None, rng=None):
    """(mean, prec) of VON's next state, its moments as von_step took them."""
    rho = float(state.learning_rate)
    mean, prec = state.mean, state.prec
    if loss.provides_expectations and batch is None:
        cov = np.diag(1.0 / prec)
        grad_mean = loss.expected_gradient(mean, cov)
        hess_mean = np.diag(np.atleast_2d(loss.expected_hessian(mean, cov)))
    else:
        rng = make_rng(state.seed, *SAMPLE_STREAM, state.t) if rng is None else rng
        z = rng.standard_normal((state.n_samples, mean.size))
        curvature = "hessian" if loss.provides_hessian_diag else "reparam"
        grad_mean, hess_mean = _reference_sampled_moments(
            loss, mean + (1.0 / np.sqrt(prec)) * z, mean, prec, curvature, diag=True,
            batch=batch)
    new_prec = ema(prec, hess_mean, rho)
    return preconditioned_step(mean, grad_mean, new_prec, rho, sqrt_scale=False), new_prec


# -- the cases ------------------------------------------------------------------------

def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _outcome(fn):
    """fn()'s array, or the type and message of what it raised."""
    try:
        return fn()
    except (ValueError, MissingHessian, DomainError) as exc:
        return type(exc), str(exc)


def _losses():
    rng = make_rng(240)
    a = rng.standard_normal((3, 3))
    logistic = make_logistic_data(5, 60, 3)
    return {
        "quad_diag": QuadraticLoss(np.diag(rng.uniform(0.5, 2.0, 3)),
                                   rng.standard_normal(3)),
        "quad_full": QuadraticLoss(a @ a.T + np.eye(3), rng.standard_normal(3)),
        "logistic": logistic,
        "mlp": make_spirals_mlp(2, n=40, hidden=(4,)),
    }


LOSSES = _losses()
#: (loss, minibatch) pairs: a loss without data takes no minibatch
DATA = [(name, minibatch) for name, loss in LOSSES.items()
        for minibatch in ([False] if loss.n_data is None else [False, True])]


def _batch(rng, loss, minibatch):
    return rng.choice(loss.n_data, size=loss.n_data // 3, replace=False) if minibatch \
        else None


@pytest.mark.parametrize("loss_name,minibatch", DATA)
@pytest.mark.parametrize("family_type", [FullGaussian, DiagGaussian])
@pytest.mark.parametrize("kind", ["exact", "delta", "mc", "reparam"])
def test_estimate_equals_the_replaced_estimators_bitwise(kind, family_type, loss_name,
                                                          minibatch):
    loss = LOSSES[loss_name]
    fam = family_type(loss.dim)
    rng = make_rng(241)
    batch = _batch(rng, loss, minibatch)
    served = 0
    for step in range(3):
        lam = random_lam(rng, fam)
        spec = EstimatorSpec(kind, 5, seed=step + 2)
        got = _outcome(lambda: estimate_natgrad(fam, lam, loss, spec, step=step,
                                                batch=batch))
        want = _outcome(lambda: _reference_estimate(fam, lam, loss, spec, step, batch))
        if isinstance(want, tuple):
            assert got == want
            continue
        served += 1
        assert _same_bits(got, want), (kind, loss_name)
        # the generator of the step's stream, handed in, makes the same draws
        handed = estimate_natgrad(fam, lam, loss, spec, step=step, batch=batch,
                                  rng=make_rng(spec.seed, *ESTIMATE_STREAM, step))
        assert _same_bits(handed, want)
    # every kind serves some loss on each family; the combinations it
    # cannot serve raise what they raised before
    supported = {
        ("exact", "quad_diag"), ("exact", "quad_full"),
        ("delta", "quad_diag"), ("delta", "quad_full"), ("delta", "logistic"),
        ("mc", "quad_diag"), ("mc", "quad_full"), ("mc", "logistic"),
    }
    if family_type is DiagGaussian:
        supported |= {("reparam", name) for name in LOSSES}
    assert served == (3 if (kind, loss_name) in supported else 0)


@pytest.mark.parametrize("loss_name,minibatch", DATA)
def test_von_step_equals_its_replaced_moment_branches_bitwise(loss_name, minibatch):
    # quadratics take the exact route, logistic regression mc and the MLP
    # reparam; every loss with data is sampled on a minibatch too
    loss = LOSSES[loss_name]
    rng = make_rng(243)
    batch = _batch(rng, loss, minibatch)
    stepped = 0
    for k in range(4):
        state = VONState(rng.standard_normal(loss.dim), rng.uniform(2.0, 4.0, loss.dim),
                         learning_rate=0.05 * (k + 1), n_samples=k + 1, seed=k, t=k)
        given = k % 2 == 1
        mean, prec = _reference_von_step(state, loss, batch,
                                         rng=make_rng(k, 7) if given else None)
        if not (prec > 0.0).all():
            with pytest.raises(LeftDomain) as excinfo:
                von_step(state, loss, batch, rng=make_rng(k, 7) if given else None)
            assert _same_bits(excinfo.value.iterate, prec)
            continue
        new = von_step(state, loss, batch, rng=make_rng(k, 7) if given else None)
        assert _same_bits(new.mean, mean), (loss_name, k)
        assert _same_bits(new.prec, prec), (loss_name, k)
        assert new.t == state.t + 1
        stepped += 1
    assert stepped >= 2
