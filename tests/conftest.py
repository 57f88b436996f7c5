import numpy as np
import pytest

from natvb.gaussian import DiagGaussian, FullGaussian
from natvb.losses import QuadraticLoss
from natvb.seeding import make_rng


def zero_loss(dim):
    """The identically zero loss on R^dim, as a quadratic with zero terms."""
    return QuadraticLoss(np.zeros((dim, dim)), np.zeros(dim))


def random_instance(rng, max_dim=6, kind=None):
    """One random (family, lam) pair with well-conditioned parameters;
    lam is a plain coordinate vector."""
    p = int(rng.integers(1, max_dim + 1))
    mean = rng.standard_normal(p)
    if kind is None:
        kind = "diag" if rng.uniform() < 0.5 else "full"
    if kind == "diag":
        fam = DiagGaussian(p)
        return fam, fam.from_moment(mean, rng.uniform(0.3, 3.0, p)).coords
    fam = FullGaussian(p)
    a = rng.standard_normal((p, p))
    return fam, fam.from_moment(mean, a @ a.T + (0.5 + 0.3 * p) * np.eye(p)).coords


def random_lam(rng, fam):
    """Another valid natural-parameter vector of the same family."""
    p = fam.theta_dim
    mean = rng.standard_normal(p)
    if isinstance(fam, DiagGaussian):
        return fam.from_moment(mean, rng.uniform(0.3, 3.0, p)).coords
    a = rng.standard_normal((p, p))
    return fam.from_moment(mean, a @ a.T + (0.5 + 0.3 * p) * np.eye(p)).coords


@pytest.fixture
def rng():
    return make_rng(20240817)
