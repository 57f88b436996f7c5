import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natvb.errors import DomainError, FamilyMismatch
from natvb.expfam import ExpectationParams, ExpFamily, NaturalParams
from natvb.gaussian import DiagGaussian, FullGaussian, sym_to_moment
from natvb.numdiff import central_diff_jacobian
from natvb.seeding import make_rng
from natvb.verify import dense_fisher

from conftest import random_instance, random_lam

LOG_2PI = np.log(2.0 * np.pi)


# -- parameter types ----------------------------------------------------

def test_natural_params_reject_nonfinite():
    # the family's check is the one way to build a parameter, and it scans
    fam = FullGaussian(1)
    with pytest.raises(DomainError):
        fam.natural(np.array([0.0, np.nan]))
    with pytest.raises(DomainError):
        fam.expectation(np.array([np.inf, 1.0]))
    for kind in (NaturalParams, ExpectationParams):
        for args in (([0.0, np.nan],), ([0.0, np.nan], fam)):
            with pytest.raises(TypeError):
                kind(*args)


def test_family_factories_validate_domain():
    fam = FullGaussian(1)
    lam = fam.natural([0.0, -0.5])
    assert isinstance(lam, NaturalParams)
    with pytest.raises(DomainError):
        fam.natural([0.0, 0.5])  # positive quadratic coefficient
    with pytest.raises(DomainError):
        fam.expectation([1.0, 0.5])  # implied variance -0.5
    mu = fam.expectation([0.0, 1.0])
    assert isinstance(mu, ExpectationParams)


def test_family_mismatch_detected():
    full = FullGaussian(2)
    diag = DiagGaussian(2)
    lam = full.natural(full.from_moment([0.0, 0.0], np.eye(2)))
    with pytest.raises(FamilyMismatch):
        diag.cumulant(lam)
    with pytest.raises(FamilyMismatch):
        full.cumulant(np.zeros(3))


@pytest.mark.parametrize("fam", [FullGaussian(2), DiagGaussian(3)], ids=lambda f: f.name)
def test_params_equality_and_hash(fam, rng):
    x = random_lam(rng, fam)
    lam = fam.natural(x)
    # each derived again, the second by an equal family object
    same = [fam.natural(x.copy()), type(fam)(fam.theta_dim).natural(x)]
    for other in same:
        assert lam == other and not lam != other
        assert hash(lam) == hash(other)
    assert len({lam, *same}) == 1
    moved = x.copy()
    moved[-1] *= 1.5
    assert lam != fam.natural(moved)
    assert lam != fam.expectation(fam.natural_to_dual(lam))
    assert lam != x  # an array is not a parameter
    # array_equal counts -0.0 and 0.0 equal, so the hashes agree too
    zeroed = x.copy()
    zeroed[0] = 0.0
    signed = zeroed.copy()
    signed[0] = -0.0
    assert fam.natural(zeroed) == type(fam)(fam.theta_dim).natural(signed)
    assert hash(fam.natural(zeroed)) == hash(type(fam)(fam.theta_dim).natural(signed))


def test_params_of_different_families_with_equal_coords_differ():
    # both families of dimension 1 take (m s, -s/2): same length, same density
    coords = [0.3, -0.5]
    full, diag = FullGaussian(1).natural(coords), DiagGaussian(1).natural(coords)
    assert full != diag
    assert len({full, diag}) == 2
    assert FullGaussian(1).expectation([0.0, 1.0]) != DiagGaussian(1).expectation([0.0, 1.0])


def test_same_family_different_objects_interoperate():
    lam = FullGaussian(2).natural(FullGaussian(2).from_moment([1.0, 0.0], np.eye(2)))
    assert np.isfinite(FullGaussian(2).cumulant(lam))


# -- cumulant -----------------------------------------------------------

def test_cumulant_standard_normal():
    fam = FullGaussian(1)
    assert np.isclose(fam.cumulant([0.0, -0.5]), 0.5 * LOG_2PI, atol=1e-12)


def test_cumulant_rejects_positive_precision_coefficient():
    with pytest.raises(DomainError):
        FullGaussian(1).cumulant([0.0, 0.5])


def test_cumulant_matches_quadrature_2d_diag(rng):
    # log of the numerical normalizer of exp<lam, T(theta)> on a grid
    fam = DiagGaussian(2)
    for trial in range(5):
        lam = random_lam(rng, fam)
        mean, var = fam.to_mean_cov(lam)
        grid = [np.linspace(m - 12 * np.sqrt(v), m + 12 * np.sqrt(v), 4001)
                for m, v in zip(mean, var)]
        gx, gy = np.meshgrid(grid[0], grid[1], indexing="ij")
        expo = (lam[0] * gx + lam[1] * gy + lam[2] * gx ** 2 + lam[3] * gy ** 2)
        integral = np.trapezoid(np.trapezoid(np.exp(expo), grid[1], axis=1), grid[0])
        assert np.isclose(fam.cumulant(lam), np.log(integral), atol=1e-5)


# -- dual coordinates ----------------------------------------------------

def test_natural_to_dual_known_values():
    fam = FullGaussian(1)
    np.testing.assert_allclose(fam.natural_to_dual([0.0, -0.5]), [0.0, 1.0],
                               atol=1e-14)
    # S=2, m=1: E[theta]=1, E[theta^2]=1+0.5
    np.testing.assert_allclose(fam.natural_to_dual([2.0, -1.0]), [1.0, 1.5],
                               atol=1e-14)


def test_natural_to_dual_matches_cumulant_gradient(rng):
    for _ in range(8):
        fam, lam = random_instance(rng, max_dim=4)
        fd = central_diff_jacobian(fam.cumulant, lam)
        np.testing.assert_allclose(fam.natural_to_dual(lam), fd,
                                   rtol=1e-5, atol=1e-7)


def test_dual_to_natural_known_values():
    fam = FullGaussian(1)
    np.testing.assert_allclose(fam.dual_to_natural([0.0, 1.0]), [0.0, -0.5],
                               atol=1e-14)
    with pytest.raises(DomainError):
        fam.dual_to_natural([1.0, 0.5])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_duality_roundtrip_property(seed):
    fam, lam = random_instance(make_rng(seed), max_dim=6)
    back = fam.dual_to_natural(fam.natural_to_dual(lam))
    np.testing.assert_allclose(back, lam, rtol=1e-10, atol=1e-10)
    mu = fam.natural_to_dual(lam)
    again = fam.natural_to_dual(fam.dual_to_natural(mu))
    np.testing.assert_allclose(again, mu, rtol=1e-10, atol=1e-10)


# -- Fisher ---------------------------------------------------------------

def test_families_give_the_fisher_only_as_products():
    # no family forms the dense D x D Fisher; verify.dense_fisher is its oracle
    for cls in (ExpFamily, FullGaussian, DiagGaussian):
        assert not hasattr(cls, "fisher")
    assert ExpFamily.__abstractmethods__ == {
        "_derive", "_derive_expectation", "natural_to_dual", "dual_to_natural",
        "fisher_vp", "fisher_solve", "sample", "sufficient_stats_batch"}


def test_fisher_standard_normal():
    fam = FullGaussian(1)
    np.testing.assert_allclose(dense_fisher(fam, [0.0, -0.5]), [[1.0, 0.0], [0.0, 2.0]],
                               atol=1e-14)


def test_fisher_matches_finite_difference_jacobian(rng):
    for _ in range(8):
        fam, lam = random_instance(rng, max_dim=4)
        fisher = dense_fisher(fam, lam)
        fd = central_diff_jacobian(fam.natural_to_dual, lam)
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(fisher - fd)) / scale < 1e-4


def test_fisher_matches_monte_carlo_covariance():
    fam, lam = random_instance(make_rng(7), max_dim=2, kind="full")
    draws = fam.sample(lam, 1_000_000, make_rng(8))
    stats = fam.sufficient_stats_batch(draws)
    centered = stats - stats.mean(axis=0)
    fisher = dense_fisher(fam, lam)
    for i in range(fam.param_dim):
        for j in range(i, fam.param_dim):
            products = centered[:, i] * centered[:, j]
            se = products.std(ddof=1) / np.sqrt(products.size)
            assert abs(fisher[i, j] - products.mean()) < 3.0 * se + 1e-6


def test_fisher_positive_definite_everywhere(rng):
    for _ in range(20):
        fam, lam = random_instance(rng)
        eigvals = np.linalg.eigvalsh(dense_fisher(fam, lam))
        assert eigvals.min() > 0.0


# -- entropy and its gradient ---------------------------------------------

def test_entropy_known_values():
    fam = FullGaussian(1)
    h_std = 0.5 * np.log(2.0 * np.pi * np.e)
    assert np.isclose(fam.entropy([0.0, -0.5]), h_std, atol=1e-12)
    lam = fam.from_moment([0.0], [[0.25]])  # variance 4
    assert np.isclose(fam.entropy(lam), h_std + 0.5 * np.log(4.0), atol=1e-12)


def test_entropy_matches_monte_carlo():
    fam, lam = random_instance(make_rng(9), max_dim=3)
    draws = fam.sample(lam, 200_000, make_rng(10))
    logs = fam.log_density(lam, draws)
    se = logs.std(ddof=1) / np.sqrt(logs.size)
    assert abs(fam.entropy(lam) - (-logs.mean())) < 3.0 * se


def test_entropy_gradient_is_exactly_minus_fisher_lambda(rng):
    for _ in range(10):
        fam, lam = random_instance(rng)
        expected = -(dense_fisher(fam, lam) @ lam)
        # fisher_vp's product against the oracle's: roundoff apart
        bound = 1e-12 * max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(fam.entropy_gradient(lam) - expected)) <= bound


def test_entropy_gradient_standard_normal():
    np.testing.assert_allclose(FullGaussian(1).entropy_gradient([0.0, -0.5]),
                               [0.0, 1.0], atol=1e-14)


def test_entropy_gradient_matches_finite_differences():
    fam = FullGaussian(1)
    lam = np.array([0.0, -1.0])
    fd = central_diff_jacobian(fam.entropy, lam)
    np.testing.assert_allclose(fam.entropy_gradient(lam), fd, rtol=1e-5, atol=1e-8)


def test_entropy_gradient_identity_analytic_diag(rng):
    # grad[A - <lam, grad A>] computed from closed-form diagonal quantities
    fam = DiagGaussian(3)
    for _ in range(5):
        lam = random_lam(rng, fam)
        prec = fam.natural(lam).derived.prec
        # H = sum log(2 pi e / s_i) / 2 depends on lam only through s = -2 lam_quad,
        # so dH/dlam_lin = 0 and dH/dlam_quad = 1/s
        analytic = np.concatenate([np.zeros(3), 1.0 / prec])
        np.testing.assert_allclose(fam.entropy_gradient(lam), analytic,
                                   rtol=1e-10, atol=1e-10)


def test_entropy_gradient_at_p200_is_sigma_in_small_memory():
    # H = -log det(S)/2 + const, so grad_lam H is (0, Sigma) in the moment
    # layout. At P = 200, D = 20,300, and a dense F would take D^2 * 8 bytes
    # = 3.3 GB; the Fisher-vector product needs a few (P, P) arrays
    p = 200
    fam = FullGaussian(p)
    rng = make_rng(34)
    a = rng.standard_normal((p, p)) / np.sqrt(p)
    lam = fam.from_moment(rng.standard_normal(p), a @ a.T + np.eye(p))
    tracemalloc.start()
    try:
        grad = fam.entropy_gradient(lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = np.concatenate([np.zeros(p), sym_to_moment(fam.to_mean_cov(lam)[1])])
    assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want))
    assert peak < 16 * 2 ** 20


# -- Fenchel conjugate -----------------------------------------------------

def test_fenchel_standard_normal():
    fam = FullGaussian(1)
    assert np.isclose(fam.fenchel_conjugate([0.0, 1.0]),
                      -0.5 * np.log(2.0 * np.pi * np.e), atol=1e-12)


def test_fenchel_equals_negative_entropy_at_dual():
    fam = FullGaussian(1)
    mu = np.array([1.0, 1.5])
    assert np.isclose(fam.fenchel_conjugate(mu), -fam.entropy([2.0, -1.0]),
                      atol=1e-12)


def test_fenchel_young_equality(rng):
    for _ in range(10):
        fam, lam = random_instance(rng)
        mu = fam.natural_to_dual(lam)
        gap = (fam.fenchel_conjugate(mu) + fam.cumulant(lam) - float(lam @ mu))
        assert abs(gap) < 1e-10


def test_entropy_plus_fenchel_is_zero(rng):
    for _ in range(10):
        fam, lam = random_instance(rng)
        assert abs(fam.entropy(lam)
                   + fam.fenchel_conjugate(fam.natural_to_dual(lam))) < 1e-10


# -- KL divergence ---------------------------------------------------------

def test_kl_zero_on_identical_params(rng):
    fam, lam = random_instance(rng)
    assert fam.kl_divergence(lam, lam) == pytest.approx(0.0, abs=1e-12)


def test_kl_unit_gaussians_mean_shift():
    fam = FullGaussian(1)
    lam_a = fam.from_moment([0.0], [[1.0]])
    lam_b = fam.from_moment([1.0], [[1.0]])
    assert np.isclose(fam.kl_divergence(lam_a, lam_b), 0.5, atol=1e-12)


def test_kl_matches_monte_carlo():
    rng = make_rng(11)
    fam, lam_a = random_instance(rng, max_dim=3)
    lam_b = random_lam(rng, fam)
    draws = fam.sample(lam_a, 200_000, make_rng(12))
    diffs = fam.log_density(lam_a, draws) - fam.log_density(lam_b, draws)
    se = diffs.std(ddof=1) / np.sqrt(diffs.size)
    assert abs(fam.kl_divergence(lam_a, lam_b) - diffs.mean()) < 3.0 * se


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_kl_nonnegative_property(seed):
    rng = make_rng(seed)
    fam, lam_a = random_instance(rng, max_dim=4)
    lam_b = random_lam(rng, fam)
    assert fam.kl_divergence(lam_a, lam_b) >= -1e-12


def test_kl_gradient_wrt_dual_is_parameter_difference(rng):
    fam, lam = random_instance(rng)
    np.testing.assert_array_equal(fam.kl_gradient_wrt_dual(lam, lam),
                                  np.zeros(fam.param_dim))
    fam1 = FullGaussian(1)
    np.testing.assert_allclose(
        fam1.kl_gradient_wrt_dual([2.0, -1.0], [0.0, -0.5]), [2.0, -0.5])


def test_kl_gradient_matches_finite_differences(rng):
    for _ in range(5):
        fam, lam = random_instance(rng, max_dim=3)
        lam_ref = random_lam(rng, fam)
        grad = fam.kl_gradient_wrt_dual(lam, lam_ref)
        fd = central_diff_jacobian(
            lambda mu: fam.kl_divergence(fam.dual_to_natural(mu), lam_ref),
            fam.natural_to_dual(lam))
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(grad - fd)) / scale < 1e-5
