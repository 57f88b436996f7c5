"""Every argument check that no other test reaches raises its own error.

Each case calls one public entry point with one bad argument and checks
the exception's type and message.
"""

import re

import numpy as np
import pytest

from natvb.blr import BLRConfig, blr_run, conjugate_posterior, mirror_descent_step_numeric
from natvb.deep import adam_init, train
from natvb.errors import DomainError, FamilyMismatch
from natvb.gaussian import DiagGaussian, FullGaussian
from natvb.harness import ConfigError, resolve_config
from natvb.losses import QuadraticLoss
from natvb.models import MLPModel
from natvb.quadrature import gaussian_expectation

FAMILIES = (FullGaussian, DiagGaussian)


def _standard(family):
    """N(0, I) in family on R^2."""
    fam = family(2)
    return fam, fam.from_moment(np.zeros(2), np.eye(2) if family is FullGaussian else np.ones(2))


def _fisher_vp_three_for_two(family):
    fam, lam = _standard(family)
    fam.fisher_vp([lam, lam], np.zeros((3, fam.param_dim)))


def _conjugate(family, lik):
    fam, lam = _standard(family)
    conjugate_posterior(fam, lik(fam), lam.coords)


def _mirror_step(rho):
    fam, lam = _standard(FullGaussian)
    mirror_descent_step_numeric(fam, lam, lam.coords, rho)


def _blr_without_steps():
    fam, lam = _standard(FullGaussian)
    blr_run(fam, lam, QuadraticLoss(np.eye(2), np.zeros(2)), BLRConfig(0.5, 0))


def _train(state, steps):
    train(state, QuadraticLoss(np.eye(2), np.zeros(2)), steps)


def _mlp_unpack():
    mlp = MLPModel([2, 1], np.zeros((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]))
    mlp.unpack(np.zeros(mlp.dim + 1))


CASES = {
    "coefficient of the wrong length": (
        lambda: QuadraticLoss.from_natural_coeff(FullGaussian(2), np.zeros(4)),
        ValueError, "coefficient length does not match the family"),
    "quadratic loss of mismatched shapes": (
        lambda: QuadraticLoss(np.eye(2), np.zeros(3)),
        ValueError, "quadratic and linear terms have mismatched shapes"),
    **{f"{family.__name__} statistic of the wrong length": (
        lambda family=family: family(2).sufficient_stats(np.zeros(3)),
        ValueError, "theta must have length 2") for family in FAMILIES},
    **{f"{family.__name__} on R^0": (
        lambda family=family: family(0), ValueError, "theta_dim must be >= 1")
       for family in FAMILIES},
    **{f"{family.__name__} fisher_vp, 3 directions for 2 parameters": (
        lambda family=family: _fisher_vp_three_for_two(family),
        ValueError, "3 directions given for 2 parameters") for family in FAMILIES},
    "conjugate block of the wrong length": (
        lambda: conjugate_posterior(FullGaussian(2), np.zeros(4), np.zeros(4)),
        FamilyMismatch, "NaturalParams have length 4, family 'gaussian_full_2' needs 5"),
    "non-finite conjugate block": (
        lambda: _conjugate(DiagGaussian, lambda fam: np.full(fam.param_dim, np.nan)),
        DomainError, "coordinates must be finite"),
    **{f"mirror descent at rho {rho}": (
        lambda rho=rho: _mirror_step(rho), ValueError, f"rate must be in (0, 1], got {rho}")
       for rho in (0.0, 1.5, float("nan"))},
    "blr_run with max_iter 0": (_blr_without_steps, ValueError, "max_iter must be >= 1"),
    "train for -1 steps": (
        lambda: _train(adam_init(np.zeros(2)), -1), ValueError, "steps must be >= 0"),
    "train an unknown state": (
        lambda: _train(object(), 1), TypeError, "unknown optimizer state object"),
    "MLP parameters of the wrong length": (
        _mlp_unpack, ValueError, "parameter vector must have length 3"),
    "quadrature in 3-D": (
        lambda: gaussian_expectation(lambda t: t[:, 0], np.zeros(3), np.eye(3)),
        ValueError, "quadrature supports dimension <= 2, got 3"),
    "a config that is no object": (
        lambda: resolve_config([]), ConfigError, "config must be an object"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_bad_argument_raises(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error
