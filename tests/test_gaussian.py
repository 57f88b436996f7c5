import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from natvb.blr import BLRConfig, blr_run
from natvb.errors import DomainError, FamilyMismatch
from natvb.expfam import NaturalParams
from natvb.gaussian import (DiagGaussian, FullGaussian, coeff_to_sym,
                            moment_to_sym, sym_to_coeff, sym_to_moment)
from natvb.models import make_ridge_data, ridge_loss
from natvb.natgrad import EstimatorSpec
from natvb.seeding import _FIXED_DRAWS, RNG_ALGORITHM, fixed_normals, make_rng
from natvb.verify import dense_fisher

from conftest import random_instance, random_lam


# -- flattening ----------------------------------------------------------

def test_coeff_layout_roundtrip(rng):
    for dim in (1, 2, 5):
        a = rng.standard_normal((dim, dim))
        sym = a + a.T
        np.testing.assert_array_equal(coeff_to_sym(sym_to_coeff(sym), dim), sym)
        np.testing.assert_array_equal(moment_to_sym(sym_to_moment(sym), dim), sym)


def test_coeff_layout_makes_inner_product_a_dot(rng):
    # <M, theta theta'>_F must equal the dot of the coefficient vector
    # with the moment-layout statistic
    for _ in range(5):
        dim = int(rng.integers(1, 5))
        a = rng.standard_normal((dim, dim))
        sym = a + a.T
        theta = rng.standard_normal(dim)
        frob = float(np.sum(sym * np.outer(theta, theta)))
        dot = float(sym_to_coeff(sym) @ sym_to_moment(np.outer(theta, theta)))
        assert np.isclose(frob, dot, atol=1e-12)


# -- moment conversions ----------------------------------------------------

def test_from_moment_standard_normal_2d():
    lam = FullGaussian(2).from_moment([0.0, 0.0], np.eye(2))
    np.testing.assert_array_equal(lam.coords, [0.0, 0.0, -0.5, 0.0, -0.5])


def test_from_moment_1d():
    lam = FullGaussian(1).from_moment([1.0], np.array([[2.0]]))
    np.testing.assert_array_equal(lam.coords, [2.0, -1.0])


def test_from_moment_rejects_indefinite_precision():
    with pytest.raises(DomainError):
        FullGaussian(2).from_moment([0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(DomainError):
        DiagGaussian(1).from_moment([0.0], np.array([-1.0]))


def test_from_moment_rejects_asymmetric_precision():
    # _derive reads only the upper triangle, so an asymmetric S would be
    # silently replaced by another matrix
    with pytest.raises(DomainError, match="symmetric"):
        FullGaussian(2).from_moment([0.0, 0.0], np.array([[2.0, 0.5], [0.0, 2.0]]))
    # roundoff-level asymmetry, as from a product a @ a.T, is accepted
    FullGaussian(2).from_moment([0.0, 0.0], np.array([[2.0, 0.5], [0.5 + 1e-15, 2.0]]))


@pytest.mark.parametrize("family, prec", [(FullGaussian, np.eye(3)),
                                          (DiagGaussian, np.ones(3))], ids=["full", "diag"])
def test_from_moment_returns_validated_params(family, prec, cholesky_calls):
    fam = family(3)
    lam = fam.from_moment(np.arange(3.0), prec)
    assert isinstance(lam, NaturalParams) and lam.family == fam
    assert fam.natural(lam) is lam
    # the full family's only factorisation is natural()'s
    assert len(cholesky_calls) == (1 if family is FullGaussian else 0)
    with pytest.raises(DomainError, match="shape"):
        fam.from_moment(np.zeros(2), prec)


def test_random_moments_reproduce_gaussian_identities(rng):
    # E[theta] = m and E[theta theta'] = m m' + S^-1 in dual coordinates
    for _ in range(10):
        p = int(rng.integers(1, 5))
        mean = rng.standard_normal(p)
        a = rng.standard_normal((p, p))
        prec = a @ a.T + (0.5 + 0.3 * p) * np.eye(p)
        fam = FullGaussian(p)
        mu = fam.natural_to_dual(fam.from_moment(mean, prec))
        np.testing.assert_allclose(mu[:p], mean, rtol=1e-10, atol=1e-10)
        second = moment_to_sym(mu[p:], p)
        np.testing.assert_allclose(second,
                                   np.outer(mean, mean) + np.linalg.inv(prec),
                                   rtol=1e-10, atol=1e-10)


def test_conversion_closure_200_instances_per_family():
    rng = make_rng(8181)
    for kind in ("full", "diag"):
        for _ in range(200):
            p = int(rng.integers(1, 11))
            mean = rng.standard_normal(p)
            if kind == "diag":
                fam = DiagGaussian(p)
                prec = rng.uniform(0.2, 4.0, p)
            else:
                fam = FullGaussian(p)
                a = rng.standard_normal((p, p))
                prec = a @ a.T + (0.5 + 0.3 * p) * np.eye(p)
            lam = fam.from_moment(mean, prec)
            back = fam.natural(fam.dual_to_natural(fam.natural_to_dual(lam)))
            np.testing.assert_allclose(fam.to_mean_cov(back)[0], mean, rtol=1e-10,
                                       atol=1e-10)
            np.testing.assert_allclose(fam.natural(back).derived.prec, prec, rtol=1e-10,
                                       atol=1e-10)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), diag=st.booleans())
def test_conversion_closure_property(seed, diag):
    rng = make_rng(seed)
    p = int(rng.integers(1, 11))
    mean = rng.standard_normal(p)
    if diag:
        fam = DiagGaussian(p)
        prec = rng.uniform(0.2, 4.0, p)
    else:
        fam = FullGaussian(p)
        a = rng.standard_normal((p, p))
        prec = a @ a.T + (0.5 + 0.3 * p) * np.eye(p)
    lam = fam.from_moment(mean, prec)
    back = fam.natural(fam.dual_to_natural(fam.natural_to_dual(lam)))
    np.testing.assert_allclose(fam.to_mean_cov(back)[0], mean, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(fam.natural(back).derived.prec, prec, rtol=1e-9, atol=1e-9)


# -- diagonal family is the restriction of the full family ------------------

def _diag_positions(p):
    """Where the diagonal family's coordinates sit in the full layout: the
    linear rows, then the (i, i) pairs."""
    rows, cols = np.triu_indices(p)
    return np.concatenate([np.arange(p), p + np.flatnonzero(rows == cols)])


def test_diag_agrees_with_full_on_diagonal_instances(rng):
    for _ in range(10):
        p = int(rng.integers(1, 6))
        mean = rng.standard_normal(p)
        prec = rng.uniform(0.3, 3.0, p)
        diag, full = DiagGaussian(p), FullGaussian(p)
        lam_d = diag.from_moment(mean, prec)
        lam_f = full.from_moment(mean, np.diag(prec))
        assert np.isclose(diag.cumulant(lam_d), full.cumulant(lam_f), atol=1e-12)
        assert np.isclose(diag.entropy(lam_d), full.entropy(lam_f), atol=1e-12)
        mean2 = rng.standard_normal(p)
        prec2 = rng.uniform(0.3, 3.0, p)
        kl_d = diag.kl_divergence(lam_d, diag.from_moment(mean2, prec2))
        kl_f = full.kl_divergence(lam_f, full.from_moment(mean2, np.diag(prec2)))
        assert np.isclose(kl_d, kl_f, atol=1e-12)
        # the diagonal product is the full one on a direction that moves
        # only the diagonal pairs, read at the linear rows and those pairs;
        # no solve version: off-diagonal pairs couple to the mean
        shared = _diag_positions(p)
        v = rng.standard_normal(2 * p)
        embedded = np.zeros(full.param_dim)
        embedded[shared] = v
        np.testing.assert_allclose(full.fisher_vp(lam_f, embedded)[shared],
                                   diag.fisher_vp(lam_d, v), rtol=0, atol=1e-12)


def test_dense_fisher_of_the_diagonal_family_is_the_full_one_restricted(rng):
    # one oracle serves both families
    for _ in range(5):
        p = int(rng.integers(1, 6))
        mean, prec = rng.standard_normal(p), rng.uniform(0.3, 3.0, p)
        shared = _diag_positions(p)
        full = dense_fisher(FullGaussian(p), FullGaussian(p).from_moment(mean, np.diag(prec)))
        diag = dense_fisher(DiagGaussian(p), DiagGaussian(p).from_moment(mean, prec))
        # the full covariance comes from a Cholesky solve, the diagonal one from 1/s
        np.testing.assert_allclose(diag, full[np.ix_(shared, shared)], rtol=1e-13, atol=0)


def test_sufficient_stats_reproduce_quadratic_form(rng):
    for _ in range(10):
        p = int(rng.integers(1, 6))
        mean = rng.standard_normal(p)
        a = rng.standard_normal((p, p))
        prec = a @ a.T + (0.5 + 0.3 * p) * np.eye(p)
        fam = FullGaussian(p)
        lam = fam.from_moment(mean, prec)
        theta = rng.standard_normal(p)
        lhs = float(lam.coords @ fam.sufficient_stats(theta))
        rhs = float(mean @ prec @ theta - 0.5 * theta @ prec @ theta)
        assert np.isclose(lhs, rhs, atol=1e-12)


# -- sampling ---------------------------------------------------------------

def test_sample_mean_clt_bound():
    draws = FullGaussian(1).sample([0.0, -0.5], 1_000_000, make_rng(123))
    assert abs(draws.mean()) < 4.0 / np.sqrt(draws.shape[0])


def test_sample_determinism_contract():
    fam, lam = random_instance(make_rng(33), max_dim=3)
    a = fam.sample(lam, 1000, make_rng(9))
    b = fam.sample(lam, 1000, make_rng(9))
    np.testing.assert_array_equal(a, b)
    c = fam.sample(lam, 1000, make_rng(10))
    assert not np.array_equal(a, c)
    assert RNG_ALGORITHM == "philox4x64"
    assert isinstance(make_rng(9).bit_generator, np.random.Philox)


def test_sample_recovers_strong_correlation():
    cov = np.array([[1.0, 0.9], [0.9, 1.0]])
    fam = FullGaussian(2)
    lam = fam.from_moment([0.0, 0.0], np.linalg.inv(cov))
    draws = fam.sample(lam, 1_000_000, make_rng(77))
    corr = np.corrcoef(draws.T)[0, 1]
    assert abs(corr - 0.9) < 0.01


def test_sample_covariance_matches_precision_inverse(rng):
    fam, lam = random_instance(rng, max_dim=3, kind="full")
    draws = fam.sample(lam, 200_000, make_rng(5))
    mean, cov = fam.to_mean_cov(lam)
    np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.02)
    np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.05)


def test_sample_count_validation():
    for family in (FullGaussian, DiagGaussian):
        with pytest.raises(ValueError):
            family(1).sample([0.0, -0.5], 0, make_rng(1))


@pytest.mark.parametrize("kind", ["full", "diag"])
def test_transport_of_generator_draws_is_sample_bitwise(kind):
    for seed in range(5):
        fam, lam = random_instance(make_rng(34, seed), kind=kind)
        for size in (1, 7):
            z = make_rng(seed).standard_normal((size, fam.theta_dim))
            np.testing.assert_array_equal(fam.transport(lam, z),
                                          fam.sample(lam, size, make_rng(seed)))


def test_transport_validates_draw_shape():
    for family in (FullGaussian, DiagGaussian):
        fam = family(2)
        lam = fam.from_moment(np.zeros(2), np.ones(2) if family is DiagGaussian
                              else np.eye(2))
        for bad in (np.zeros(2), np.zeros((3, 1)), np.zeros((0, 2))):
            with pytest.raises(ValueError):
                fam.transport(lam, bad)


def test_fixed_normals_equal_a_fresh_generator_bitwise():
    for shape, seed, stream in (((10, 3), 1009, ()), ((32, 8), 4, (0xE,)),
                                (5, 0, (1, 2))):
        got = fixed_normals(shape, seed, *stream)
        np.testing.assert_array_equal(
            got, make_rng(seed, *stream).standard_normal(shape))
        assert fixed_normals(shape, seed, *stream) is got


def test_fixed_normals_read_only_and_bounded():
    draws = fixed_normals((4, 2), 7, 1)
    with pytest.raises(ValueError):
        draws[0, 0] = 1.0
    for seed in range(3 * _FIXED_DRAWS):
        fixed_normals((2, 2), 1000 + seed)
    assert fixed_normals.cache_info().currsize <= _FIXED_DRAWS
    # an evicted block is drawn again, to the same bits
    np.testing.assert_array_equal(fixed_normals((4, 2), 7, 1), draws)


# -- log density -------------------------------------------------------------

def test_log_density_standard_normal_at_zero():
    assert np.isclose(FullGaussian(1).log_density([0.0, -0.5], [0.0]),
                      -0.5 * np.log(2.0 * np.pi), atol=1e-12)


def test_log_density_at_mean():
    fam = FullGaussian(1)
    sigma2 = 2.7
    lam = fam.from_moment([1.3], [[1.0 / sigma2]])
    assert np.isclose(fam.log_density(lam, [1.3]),
                      -0.5 * np.log(2.0 * np.pi * sigma2), atol=1e-12)


def test_log_density_matches_direct_gaussian_formula(rng):
    for _ in range(10):
        fam, lam = random_instance(rng, max_dim=4, kind="full")
        mean, cov = fam.to_mean_cov(lam)
        theta = rng.standard_normal(fam.theta_dim)
        diff = theta - mean
        direct = (-0.5 * fam.theta_dim * np.log(2.0 * np.pi)
                  - 0.5 * np.linalg.slogdet(cov)[1]
                  - 0.5 * diff @ np.linalg.solve(cov, diff))
        assert np.isclose(fam.log_density(lam, theta), direct, atol=1e-8)


def test_density_normalizes_on_quadrature_grid(rng):
    # 1-D members integrate to 1 within 1e-6 on a dense grid
    for kind in ("full", "diag"):
        fam, lam = random_instance(rng, max_dim=1, kind=kind)
        mean, cov = fam.to_mean_cov(lam)
        if kind == "diag":
            cov = np.diag(cov)  # the diagonal family's covariance is its variance vector
        sd = np.sqrt(cov[0, 0])
        grid = np.linspace(mean[0] - 10 * sd, mean[0] + 10 * sd, 20001)
        dens = np.array([np.exp(fam.log_density(lam, [g])) for g in grid])
        assert abs(np.trapezoid(dens, grid) - 1.0) < 1e-6


# -- Gaussian identity ---------------------------------------------------------

def test_gaussian_identity_of_a_quadratic_is_its_coefficient(rng):
    # for loss theta'A theta/2 - b'theta the moments are (A m - b, A) at any
    # m, and the identity returns the loss's natural coefficients (b, -A/2)
    for p in (1, 3):
        a = rng.standard_normal((p, p))
        quad, lin, mean = a @ a.T + np.eye(p), rng.standard_normal(p), rng.standard_normal(p)
        full = FullGaussian(p).gaussian_identity(mean, quad @ mean - lin, quad)
        np.testing.assert_allclose(full, np.concatenate([lin, sym_to_coeff(-0.5 * quad)]),
                                   rtol=1e-12, atol=1e-12)
        hdiag = np.diag(quad)
        diag = DiagGaussian(p).gaussian_identity(mean, hdiag * mean - lin, hdiag)
        np.testing.assert_allclose(diag, np.concatenate([lin, -0.5 * hdiag]),
                                   rtol=1e-12, atol=1e-12)


def test_gaussian_identity_diag_is_full_restricted(rng):
    # on a diagonal Hessian the full family's identity, read on the shared
    # coordinates (linear block and the quadratic block's diagonal), is the
    # diagonal family's, bit for bit; the off-diagonal entries are zero
    p = 4
    mean, grad, hdiag = rng.standard_normal(p), rng.standard_normal(p), rng.uniform(0.1, 2.0, p)
    full = FullGaussian(p).gaussian_identity(mean, grad, np.diag(hdiag))
    diag = DiagGaussian(p).gaussian_identity(mean, grad, hdiag)
    quad = coeff_to_sym(full[p:], p)
    np.testing.assert_array_equal(np.concatenate([full[:p], np.diag(quad)]), diag)
    assert not np.any(quad - np.diag(np.diag(quad)))


# -- the coefficient layout's two maps -----------------------------------------

def _random_quadratic(rng, fam, *stack):
    """(hess, lin) of random quadratics in fam's hessian_kind layout, with
    leading axes stack."""
    p = fam.theta_dim
    if fam.hessian_kind == "diag":
        return rng.standard_normal((*stack, p)), rng.standard_normal((*stack, p))
    a = rng.standard_normal((*stack, p, p))
    return a + np.swapaxes(a, -1, -2), rng.standard_normal((*stack, p))


@pytest.mark.parametrize("family", [FullGaussian, DiagGaussian])
@pytest.mark.parametrize("p", [1, 4])
def test_quadratic_maps_write_the_coefficient_layout(rng, family, p):
    # <c, T(theta)> = lin'theta - theta'H theta/2, and natural_to_quadratic
    # undoes quadratic_to_natural bit for bit (its scalings are powers of 2)
    fam = family(p)
    hess, lin = _random_quadratic(rng, fam)
    coeff = fam.quadratic_to_natural(hess, lin)
    assert coeff.shape == (fam.param_dim,)
    h_mat = np.diag(hess) if fam.hessian_kind == "diag" else hess
    for theta in rng.standard_normal((3, p)):
        assert np.isclose(coeff @ fam.sufficient_stats(theta),
                          lin @ theta - 0.5 * theta @ h_mat @ theta, rtol=1e-12, atol=1e-12)
    back_hess, back_lin = fam.natural_to_quadratic(coeff)
    np.testing.assert_array_equal(back_hess, hess)
    np.testing.assert_array_equal(back_lin, lin)


@pytest.mark.parametrize("family", [FullGaussian, DiagGaussian])
def test_quadratic_maps_keep_leading_axes(rng, family):
    fam = family(3)
    hess, lin = _random_quadratic(rng, fam, 2, 5)
    coeff = fam.quadratic_to_natural(hess, lin)
    assert coeff.shape == (2, 5, fam.param_dim)
    back_hess, back_lin = fam.natural_to_quadratic(coeff)
    for i in range(2):
        for j in range(5):
            np.testing.assert_array_equal(coeff[i, j],
                                          fam.quadratic_to_natural(hess[i, j], lin[i, j]))
            single_hess, single_lin = fam.natural_to_quadratic(coeff[i, j])
            np.testing.assert_array_equal(back_hess[i, j], single_hess)
            np.testing.assert_array_equal(back_lin[i, j], single_lin)


# -- vectorised helpers against their loop definitions ------------------------

def _pairs(dim):
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def loop_sym_to_coeff(mat):
    return np.array([mat[i, j] if i == j else 2.0 * mat[i, j]
                     for i, j in _pairs(mat.shape[0])])


def loop_coeff_to_sym(vec, dim):
    mat = np.zeros((dim, dim))
    for a, (i, j) in enumerate(_pairs(dim)):
        if i == j:
            mat[i, i] = vec[a]
        else:
            mat[i, j] = mat[j, i] = 0.5 * vec[a]
    return mat


def loop_sym_to_moment(mat):
    return np.array([mat[i, j] for i, j in _pairs(mat.shape[0])])


def loop_moment_to_sym(vec, dim):
    mat = np.zeros((dim, dim))
    for a, (i, j) in enumerate(_pairs(dim)):
        mat[i, j] = mat[j, i] = vec[a]
    return mat


def loop_full_stats(theta):
    return np.concatenate([theta, [theta[i] * theta[j] for i, j in _pairs(theta.size)]])


@pytest.mark.parametrize("dim", range(1, 8))
def test_layout_helpers_bitwise_equal_loops(dim, rng):
    a = rng.standard_normal((dim, dim))
    sym = a + a.T
    vec = rng.standard_normal(dim * (dim + 1) // 2)
    np.testing.assert_array_equal(sym_to_coeff(sym), loop_sym_to_coeff(sym))
    np.testing.assert_array_equal(coeff_to_sym(vec, dim), loop_coeff_to_sym(vec, dim))
    np.testing.assert_array_equal(sym_to_moment(sym), loop_sym_to_moment(sym))
    np.testing.assert_array_equal(moment_to_sym(vec, dim), loop_moment_to_sym(vec, dim))
    theta = rng.standard_normal(dim)
    np.testing.assert_array_equal(FullGaussian(dim).sufficient_stats(theta),
                                  loop_full_stats(theta))


def conditioned_lam(rng, fam, cond):
    """Random lam whose precision has condition number cond."""
    p = fam.theta_dim
    eigs = np.logspace(0.0, np.log10(cond), p) * rng.uniform(0.3, 3.0)
    mean = 3.0 * rng.standard_normal(p)
    if isinstance(fam, DiagGaussian):
        return fam.from_moment(mean, rng.permutation(eigs))
    basis, _ = np.linalg.qr(rng.standard_normal((p, p)))
    prec = basis @ np.diag(eigs) @ basis.T
    return fam.from_moment(mean, 0.5 * (prec + prec.T))


def rel_err(got, want):
    return float(np.linalg.norm(got - want)) / float(np.linalg.norm(want))


# cond(S) up to 1e2: beyond that the dense Cholesky reference itself loses
# digits, since cond(F) grows like cond(S)^2
@pytest.mark.parametrize("family", [FullGaussian, DiagGaussian])
@pytest.mark.parametrize("dim", [*range(1, 8), 12])
def test_fisher_products_match_dense_fisher(family, dim, rng):
    fam = family(dim)
    for cond in (1.0, 10.0, 100.0):
        for _ in range(3):
            lam = conditioned_lam(rng, fam, cond)
            fisher = dense_fisher(fam, lam)
            v = rng.standard_normal(fam.param_dim)
            assert rel_err(fam.fisher_vp(lam, v), fisher @ v) <= 1e-10
            assert rel_err(fam.fisher_solve(lam, v),
                           cho_solve(cho_factor(fisher, lower=True), v)) <= 1e-10


@pytest.mark.parametrize("family", [FullGaussian, DiagGaussian])
def test_fisher_products_validate_inputs(family):
    fam = family(2)
    lam = fam.from_moment(np.zeros(2), np.ones(2) if family is DiagGaussian
                          else np.eye(2))
    for method in (fam.fisher_vp, fam.fisher_solve):
        with pytest.raises(ValueError):
            method(lam, np.ones(fam.param_dim + 1))
        with pytest.raises(DomainError):
            method(np.zeros(fam.param_dim), np.ones(fam.param_dim))


@pytest.mark.parametrize("kind", ["full", "diag"])
def test_single_point_stats_are_the_batch_row_at_every_magnitude(kind):
    # T(theta) is written once per family, for a block; the one-point form
    # is its row, bit for bit, and equals the per-family form it replaced
    rng = make_rng(3737)
    for exponent in range(-150, 151, 10):
        for _ in range(10):
            p = int(rng.integers(1, 9))
            fam = FullGaussian(p) if kind == "full" else DiagGaussian(p)
            theta = rng.standard_normal(p) * 10.0 ** exponent
            single = fam.sufficient_stats(theta)
            np.testing.assert_array_equal(single, fam.sufficient_stats_batch(theta[None])[0])
            if kind == "full":
                rows, cols = np.triu_indices(p)
                replaced = np.concatenate([theta, theta[rows] * theta[cols]])
            else:
                replaced = np.concatenate([theta, theta ** 2])
            np.testing.assert_array_equal(single, replaced)


@pytest.mark.parametrize("kind", ["full", "diag"])
def test_batched_stats_and_log_densities_match_single_calls(kind, rng):
    eps = np.finfo(float).eps
    for _ in range(5):
        fam, lam = random_instance(rng, kind=kind)
        thetas = fam.sample(lam, 7, rng)
        stats = fam.sufficient_stats_batch(thetas)
        logs = fam.log_density(lam, thetas)
        assert stats.shape == (7, fam.param_dim) and logs.shape == (7,)
        cumulant = fam.cumulant(lam)
        for theta, row, log in zip(thetas, stats, logs):
            np.testing.assert_array_equal(row, fam.sufficient_stats(theta))
            single = fam.log_density(lam, theta)
            assert isinstance(single, float)
            # the batch takes one matrix-vector product where the single
            # call takes a dot, so the sums may round differently
            bound = 4 * fam.param_dim * eps * (np.abs(lam) @ np.abs(row) + abs(cumulant))
            assert abs(log - single) <= bound


def test_batched_stats_reject_wrong_shape():
    for fam in (FullGaussian(3), DiagGaussian(3)):
        with pytest.raises(ValueError):
            fam.sufficient_stats_batch(np.zeros(3))
        with pytest.raises(ValueError):
            fam.sufficient_stats_batch(np.zeros((2, 4)))


# -- the factorisation memo ------------------------------------------------

@pytest.fixture
def cholesky_calls(monkeypatch):
    """Count every Cholesky factorisation the gaussian module runs."""
    from natvb import gaussian
    calls = []
    original = gaussian.cholesky

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(gaussian, "cholesky", counting)
    return calls


def _derived_outputs(family, lam):
    """Every route that reads the factorisation, each on the family that family() returns."""
    mean = family().to_mean_cov(lam)[0]
    return [mean, family().to_mean_cov(lam)[1], family().cumulant(lam),
            family().sample(lam, 5, make_rng(3)), family().log_density(lam, mean),
            family().log_density(lam, np.vstack([mean, 2 * mean])),
            family().entropy(lam), family().fisher_vp(lam, np.ones(family().param_dim))]


def test_one_cholesky_per_natural_parameter(cholesky_calls, rng):
    p = 4
    a = rng.standard_normal((p, p))
    prec = a @ a.T + np.eye(p)
    # built without the family, so that building it factors nothing
    lam = np.concatenate([prec @ rng.standard_normal(p), sym_to_coeff(-0.5 * prec)])
    validated = FullGaussian(p).natural(lam)
    assert len(cholesky_calls) == 1
    # every route, on any equal family, reads the validated parameter's factor
    outputs = _derived_outputs(lambda: FullGaussian(p), validated)
    assert len(cholesky_calls) == 1
    assert FullGaussian(p).natural(validated) is validated
    # raw coordinates are checked on every use and agree bit for bit
    for got, want in zip(outputs, _derived_outputs(lambda: FullGaussian(p), lam)):
        np.testing.assert_array_equal(got, want)
    assert len(cholesky_calls) == 1 + 8


def test_blr_run_factors_each_iterate_once(cholesky_calls):
    model = make_ridge_data(5, 30, 3)
    fam = FullGaussian(3)
    before = len(cholesky_calls)
    lam0 = fam.from_moment(np.zeros(3), np.eye(3))
    run = blr_run(fam, lam0, ridge_loss(model),
                  BLRConfig(learning_rate=0.5, max_iter=12, estimator=EstimatorSpec("exact")))
    # no step was halved, so each iterate is validated once, lam0 included
    assert [row.rho for row in run.trace] == [0.5] * run.state.t
    assert len(cholesky_calls) - before == run.state.t + 1


def test_full_dual_to_natural_factors_once(cholesky_calls, rng):
    fam, lam = random_instance(rng, kind="full")
    mu = fam.natural_to_dual(lam)
    before = len(cholesky_calls)
    fam.dual_to_natural(mu)
    assert len(cholesky_calls) - before == 1


def test_memo_never_stores_domain_errors(cholesky_calls):
    # every route rejects an out-of-domain parameter, each time it is used
    fam = FullGaussian(2)
    bad = np.concatenate([np.zeros(2), sym_to_coeff(np.array([[0.5, 0.0], [0.0, -0.5]]))])
    for attempt in range(1, 4):
        for method in (fam.cumulant, fam.to_mean_cov, fam.natural_to_dual, fam.entropy_gradient,
                       fam.entropy, fam.natural):
            with pytest.raises(DomainError):
                method(bad)
        assert len(cholesky_calls) == 6 * attempt


def test_memo_outputs_read_only_and_inputs_untouched(rng):
    fam, lam = random_instance(rng, kind="full")
    lam = np.array(lam)
    mean, cov = fam.to_mean_cov(lam)
    validated = fam.natural(lam)
    factor = validated.derived
    for arr in (mean, cov, validated.coords,
                factor.lin, factor.prec, factor.chol, factor.mean, factor.cov):
        assert not arr.flags.writeable
    assert type(factor.cumulant) is float
    with pytest.raises(ValueError):
        mean[0] = 1.0
    # the caller's array is copied, never frozen
    assert lam.flags.writeable
    diag, lam = random_instance(rng, kind="diag")
    factor = diag.natural(lam).derived
    assert not any(arr.flags.writeable for arr in (factor.lin, factor.prec))
    assert type(factor.cumulant) is float


def test_trust_rules_of_validated_parameters(rng):
    fam, lam = random_instance(rng, kind="full")
    lam = np.array(lam)
    bad = np.array(lam)
    bad[fam.theta_dim] = 1.0  # a positive diagonal coefficient: S is not PD
    # coordinates outside the domain are refused by every route
    for method in (fam.cumulant, fam.to_mean_cov, fam.natural, fam.entropy):
        with pytest.raises(DomainError):
            method(bad)
    # natural() freezes a copy and leaves the caller's array writable
    validated = fam.natural(lam)
    assert not validated.coords.flags.writeable and lam.flags.writeable
    # another family's parameters are refused
    other = DiagGaussian(fam.theta_dim)
    params = other.natural(random_lam(rng, other))
    for method in (fam.cumulant, fam.natural):
        with pytest.raises(FamilyMismatch):
            method(params)


def test_moments_that_overflow_leave_the_domain():
    for fam, prec in ((FullGaussian(3), 1e-320 * np.eye(3)),
                      (DiagGaussian(3), np.full(3, 1e-320))):
        with pytest.raises(DomainError):
            fam.from_moment(np.zeros(3), prec)
        quad = sym_to_coeff(-0.5 * prec) if prec.ndim == 2 else -0.5 * prec
        lam = np.concatenate([np.zeros(3), quad])
        with pytest.raises(DomainError):
            fam.natural(lam)
        with pytest.raises(DomainError):
            fam.to_mean_cov(lam)
    # a finite covariance with a mean that overflows is refused too
    fam = DiagGaussian(1)
    with pytest.raises(DomainError):
        fam.natural([1e300, -0.5e-10])


def test_diag_precision_that_overflows_leaves_the_domain():
    # -2 q overflows to inf: the moments 0 and 0 would read as finite
    fam = DiagGaussian(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="precision"):
            fam.natural([1e200, -1e308])


def test_full_family_pickles_without_its_memo(rng):
    import pickle
    fam, lam = random_instance(rng, kind="full")
    copy = pickle.loads(pickle.dumps(fam))
    assert copy == fam
    assert copy.cumulant(lam) == fam.cumulant(lam)


def _cumulant_formula(fam, lam):
    """A(lam) by the expression cumulant() evaluated on every call before
    natural() began storing it."""
    if isinstance(fam, FullGaussian):
        factor = fam.natural(lam).derived
        logdet = 2.0 * np.sum(np.log(np.diag(factor.chol)))
        return float(0.5 * factor.lin @ factor.mean - 0.5 * logdet
                     + 0.5 * fam.theta_dim * np.log(2.0 * np.pi))
    factor = fam.natural(lam).derived
    lin, prec = factor.lin, factor.prec
    return float(np.sum(0.5 * lin ** 2 / prec - 0.5 * np.log(prec)
                        + 0.5 * np.log(2.0 * np.pi)))


@pytest.mark.parametrize("kind", ["full", "diag"])
def test_stored_cumulant_equals_its_formula_bitwise(kind, rng):
    for _ in range(40):
        fam, lam = random_instance(rng, kind=kind)
        assert fam.cumulant(lam) == _cumulant_formula(fam, lam)
    for p in (20, 40):
        fam = FullGaussian(p) if kind == "full" else DiagGaussian(p)
        lam = random_lam(rng, fam)
        assert fam.cumulant(lam) == _cumulant_formula(fam, lam)


def test_validation_stores_an_overflowing_cumulant_without_warning():
    # finite moments whose A overflows validate silently, and cumulant()
    # returns the inf the formula gives
    cases = ((FullGaussian(2), np.array([1e200, 0.0, -0.5, 0.0, -0.5])),
             (DiagGaussian(2), np.array([1e200, 0.0, -0.5, -0.5])))
    for fam, coords in cases:
        with np.errstate(all="raise"):
            lam = fam.natural(coords)
        assert fam.cumulant(lam) == np.inf
        with np.errstate(all="ignore"):
            assert fam.cumulant(lam) == _cumulant_formula(fam, lam)



@pytest.mark.parametrize("dim", [1, 2, 3, 8, 20])
def test_full_natural_to_dual_equals_outer_product_form_bitwise(dim, rng):
    # the second moment is formed on the upper triangle alone; each entry
    # is the same C_ij + m_i m_j as the full cov + outer(m, m) it replaced
    fam = FullGaussian(dim)
    for scale in (1e-3, 1.0, 1e3):
        a = rng.standard_normal((dim, dim))
        lam = fam.from_moment(scale * rng.standard_normal(dim),
                              a @ a.T + (0.5 + 0.3 * dim) * np.eye(dim))
        mean, cov = fam.to_mean_cov(lam)
        old = np.concatenate([mean, sym_to_moment(cov + np.outer(mean, mean))])
        new = fam.natural_to_dual(lam)
        np.testing.assert_array_equal(new.view(np.int64), old.view(np.int64))
