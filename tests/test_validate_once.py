"""Each new natural parameter is validated once, and every boundary check stays.

A new FullGaussian iterate costs one finiteness scan of its coordinates,
one of S (inside cholesky) and one of its moments, one dpotrf and one
dpotrs; drawing from it costs one dtrtrs. The tests here pin that work,
pin the rewritten arithmetic bit for bit against the forms it replaced,
and check that every input from outside still raises as before.
"""

from collections import Counter

import numpy as np
import pytest

from natvb import _linalg
from natvb import blr as blr_module
from natvb.blr import BLRConfig, blr_run
from natvb.errors import DomainError, FamilyMismatch
from natvb.expfam import ExpectationParams, ExpFamily, NaturalParams
from natvb.gaussian import (DiagGaussian, FullGaussian, coeff_to_sym, moment_to_sym,
                            sym_to_coeff, sym_to_moment)
from natvb.losses import LossModel, QuadraticLoss
from natvb.models import make_ridge_data, ridge_loss
from natvb.natgrad import EstimatorSpec, estimate_natgrad, linear_loss_natgrad
from natvb.seeding import make_rng


def _full_coords(rng, p):
    a = rng.standard_normal((p, p))
    prec = a @ a.T + p * np.eye(p)
    return np.concatenate([prec @ rng.standard_normal(p), sym_to_coeff(-0.5 * prec)])


# -- work counts -----------------------------------------------------------

@pytest.fixture
def work(monkeypatch):
    """Counts of finiteness scans ("scan") and of each LAPACK routine."""
    counts = Counter()
    isfinite = np.isfinite

    def counting_isfinite(*args, **kwargs):
        counts["scan"] += 1
        return isfinite(*args, **kwargs)

    def counted(name, routine):
        def call(*args, **kwargs):
            counts[name] += 1
            return routine(*args, **kwargs)
        return call

    routines = _linalg._lapack()
    lapack = tuple(counted(name, r) for name, r in zip(("potrf", "potrs", "trtrs"), routines))
    # np.asarray_chkfinite scans through np.isfinite, so both kinds of scan count
    monkeypatch.setattr(np, "isfinite", counting_isfinite)
    monkeypatch.setattr(_linalg, "_lapack", lambda: lapack)
    return counts


def test_a_new_full_parameter_costs_three_scans_one_factor_one_solve(work):
    fam = FullGaussian(6)
    coords = _full_coords(make_rng(4), 6)
    lam = fam.natural(coords)
    # coordinates, S, moments
    assert work == Counter(scan=3, potrf=1, potrs=1)
    work.clear()
    assert fam.natural(lam) is lam
    fam.to_mean_cov(lam), fam.cumulant(lam)
    assert work == Counter()


def test_ridge_run_work_per_iterate(work, monkeypatch):
    fam = FullGaussian(3)
    lam0 = fam.from_moment(np.zeros(3), np.eye(3))
    new_params = []
    natural = ExpFamily.natural

    def recording(self, lam):
        before = work["scan"]
        out = natural(self, lam)
        if out is not lam:
            new_params.append(work["scan"] - before)
        return out

    monkeypatch.setattr(ExpFamily, "natural", recording)
    work.clear()
    run = blr_run(fam, lam0, ridge_loss(make_ridge_data(5, 30, 3)),
                  BLRConfig(learning_rate=0.5, max_iter=12, estimator=EstimatorSpec("exact")))
    steps = run.state.t
    assert [row.rho for row in run.trace] == [0.5] * steps
    # one new parameter per iterate, three scans each
    assert new_params == [3] * steps
    # per iterate: its factor and its fused solve, and one transport (the
    # Bayes-filter check's probes) of the iterate it stepped from
    assert (work["potrf"], work["potrs"], work["trtrs"]) == (steps, steps, steps)


# -- bitwise pins ----------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, 3, 8, 20, 40])
@pytest.mark.parametrize("order", ["C", "F"])
def test_fused_solve_equals_two_solves(p, order):
    rng = make_rng(100 + p)
    a = rng.standard_normal((p, p))
    chol = _linalg.cholesky(a @ a.T + 0.5 * np.eye(p), lower=True)
    lin = rng.standard_normal(p)
    rhs = np.eye(p, p + 1, 1, order="F")
    rhs[:, 0] = lin
    fused = _linalg.cho_solve_unchecked(np.asarray(chol, order=order), rhs, True)
    np.testing.assert_array_equal(fused[:, 0], _linalg.cho_solve((chol, True), lin))
    np.testing.assert_array_equal(fused[:, 1:], _linalg.cho_solve((chol, True), np.eye(p)))


@pytest.mark.parametrize("p", [1, 2, 5, 20])
def test_derived_moments_keep_the_two_solve_bits_and_layout(p):
    fam = FullGaussian(p)
    factor = fam.natural(_full_coords(make_rng(p), p)).derived
    mean = _linalg.cho_solve((factor.chol, True), factor.lin)
    cov = _linalg.cho_solve((factor.chol, True), np.eye(p))
    cov = 0.5 * (cov + cov.T)
    np.testing.assert_array_equal(factor.mean, mean)
    np.testing.assert_array_equal(factor.cov, cov)
    # the layout decides BLAS's summation order downstream
    assert factor.cov.flags.c_contiguous == cov.flags.c_contiguous
    assert factor.cov.flags.f_contiguous == cov.flags.f_contiguous
    assert not any(arr.flags.writeable for arr in factor if isinstance(arr, np.ndarray))


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_flat_index_layout_helpers_equal_fancy_indexing():
    rng = make_rng(8)
    for dim in range(1, 41):
        rows, cols = np.triu_indices(dim)
        double = np.where(rows == cols, 1.0, 2.0)
        half = np.where(rows == cols, 1.0, 0.5)
        a = rng.standard_normal((dim, dim))
        # signed zeros must survive every gather and scatter
        a[rng.uniform(size=(dim, dim)) < 0.3] = -0.0
        mat = a + a.T
        mat[a == 0.0] = -0.0
        vec = rng.standard_normal(rows.size)
        vec[rng.uniform(size=rows.size) < 0.3] = -0.0

        def to_sym(v):
            out = np.zeros((dim, dim))
            out[rows, cols] = v
            out[cols, rows] = v
            return out

        for m in (mat, np.asfortranarray(mat)):
            assert _same_bits(sym_to_moment(m), m[rows, cols])
            assert _same_bits(sym_to_coeff(m), double * m[rows, cols])
        assert _same_bits(moment_to_sym(vec, dim), to_sym(vec))
        assert _same_bits(coeff_to_sym(vec, dim), to_sym(half * vec))
        assert moment_to_sym(vec, dim).flags.c_contiguous


def test_dot_norm_equals_numpy_norm():
    rng = make_rng(9)
    for n in range(1, 301):
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5)
        want = float(np.linalg.norm(x))
        got = _linalg.norm(x)
        assert type(got) is float and got.hex() == want.hex()


# -- boundary checks stay --------------------------------------------------

def _full_with(prec, lin):
    return np.concatenate([lin, sym_to_coeff(-0.5 * np.asarray(prec, dtype=float))])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_full_natural_rejects_non_finite_coordinates(bad):
    fam = FullGaussian(2)
    for i in range(fam.param_dim):
        coords = _full_coords(make_rng(1), 2)
        coords[i] = bad
        with pytest.raises(DomainError):
            fam.natural(coords)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("p", [1, 2, 3])
def test_full_natural_rejects_an_overflowing_quadratic_block(p):
    # -2 q overflows to inf for q below about -9e307; the scan of S rejects it
    fam = FullGaussian(p)
    for position in (p, fam.param_dim - 1):  # S's first and last diagonal entries
        coords = _full_with(np.eye(p), np.zeros(p))
        coords[position] = -1e308
        with pytest.raises(DomainError, match="outside the domain"):
            fam.natural(coords)


def test_full_natural_rejects_a_non_pd_precision():
    with pytest.raises(DomainError, match="outside the domain"):
        FullGaussian(2).natural(_full_with([[1.0, 2.0], [2.0, 1.0]], np.zeros(2)))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("prec, lin", [
    ([[1e-300]], [1e10]),      # the mean overflows
    ([[1e-308]], [0.0]),       # the covariance overflows once symmetrised
])
def test_full_natural_rejects_overflowing_moments(prec, lin):
    with pytest.raises(DomainError, match="moments"):
        FullGaussian(1).natural(_full_with(prec, lin))


def test_direct_natural_params_scan_their_coordinates():
    with pytest.raises(DomainError):
        NaturalParams([np.nan])
    with pytest.raises(DomainError):
        NaturalParams(np.array([1.0, np.inf]), FullGaussian(1))


@pytest.mark.parametrize("kind", ["full", "diag"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_transport_scans_the_callers_draws(bad, kind):
    fam, lam = _instance(kind)
    z = np.zeros((4, fam.theta_dim))
    z[2, 1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        fam.transport(lam, z)


def test_transport_scans_the_draws_once(work):
    for kind in ("full", "diag"):
        fam, lam = _instance(kind)
        z = np.ones((4, fam.theta_dim))
        work.clear()
        fam.transport(lam, z)
        assert work["scan"] == 1


def test_exact_estimate_rejects_wrong_length_natural_coefficients():
    class Linear(LossModel):
        dim = 2

        def natural_coefficients(self, family):
            return np.zeros(family.param_dim + 1)

    fam = FullGaussian(2)
    with pytest.raises(ValueError, match="coefficient length"):
        estimate_natgrad(fam, fam.natural(_full_coords(make_rng(3), 2)), Linear(),
                         EstimatorSpec("exact"))


@pytest.mark.parametrize("coords, match", [
    ([0.0, 1.0], "positive"),                 # negative precision
    ([0.0, 0.0], "positive"),                 # zero precision
    ([0.0, -1e308], "overflows"),             # -2 q overflows
    ([1e300, -1e-300], "moments"),            # the mean overflows
    ([np.nan, -0.5], "finite"),
    ([0.0, np.inf], "finite"),
])
def test_diag_natural_rejects_bad_inputs(coords, match):
    with pytest.raises(DomainError, match=match):
        DiagGaussian(1).natural(coords)


# -- the two coordinate systems are not interchangeable ---------------------

def _instance(kind):
    rng = make_rng(6)
    if kind == "full":
        fam = FullGaussian(3)
        return fam, fam.natural(_full_coords(rng, 3))
    fam = DiagGaussian(2)
    return fam, fam.from_moment(rng.standard_normal(2), rng.uniform(0.5, 2.0, 2))


@pytest.mark.parametrize("kind", ["full", "diag"])
def test_dual_coordinates_are_not_natural_ones(kind, monkeypatch):
    from natvb import gaussian
    fam, lam = _instance(kind)
    mu = fam.expectation(fam.natural_to_dual(lam))
    calls = []
    original = gaussian.cholesky
    monkeypatch.setattr(gaussian, "cholesky",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    with pytest.raises(FamilyMismatch, match="ExpectationParams.*NaturalParams"):
        fam.natural(mu)
    with pytest.raises(FamilyMismatch, match="NaturalParams.*ExpectationParams"):
        fam.expectation(lam)
    # rejected before anything is derived
    assert calls == []
    # unvalidated parameters of the wrong kind are refused alike
    with pytest.raises(FamilyMismatch):
        fam.natural(ExpectationParams(mu.coords))


# -- the linear loss's estimate: memoised, read-only, the same bits ------------

def test_quadratic_loss_terms_and_memoised_coefficients_are_read_only():
    quad, lin = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0])
    loss = QuadraticLoss(quad, lin)
    # the caller's arrays are copied, not frozen
    assert quad.flags.writeable and lin.flags.writeable
    quad[0, 0] = lin[0] = 7.0
    assert loss.quad[0, 0] == 2.0 and loss.lin[0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        loss.quad[0, 0] = 3.0
    with pytest.raises(ValueError, match="read-only"):
        loss.lin[1] = 3.0
    for fam in (FullGaussian(2), DiagGaussian(2)):
        coeff = loss.natural_coefficients(fam)
        if coeff is None:
            continue
        # one array per family, equal families sharing it
        assert loss.natural_coefficients(type(fam)(2)) is coeff
        with pytest.raises(ValueError, match="read-only"):
            coeff[0] = 3.0
    diag = QuadraticLoss(np.diag([2.0, 3.0]), lin)
    coeff = diag.natural_coefficients(DiagGaussian(2))
    with pytest.raises(ValueError, match="read-only"):
        coeff[-1] = 0.0


def test_ridge_run_estimates_equal_fresh_coefficients_bitwise(monkeypatch):
    model = make_ridge_data(5, 30, 3)
    loss = ridge_loss(model)
    fam = FullGaussian(3)
    # built afresh from the terms, as the fast path built them at every step
    fresh = np.concatenate([model.x.T @ model.y,
                            sym_to_coeff(-0.5 * ridge_loss(model).quad)])
    estimates = []

    def recording(*args, **kwargs):
        estimates.append(estimate_natgrad(*args, **kwargs))
        return estimates[-1]

    monkeypatch.setattr(blr_module, "estimate_natgrad", recording)
    run = blr_run(fam, fam.from_moment(np.zeros(3), np.eye(3)), loss,
                  BLRConfig(learning_rate=0.5, max_iter=12, estimator=EstimatorSpec("exact")))
    assert len(estimates) == run.state.t + 1
    for estimate in estimates:
        assert estimate.tobytes() == fresh.tobytes()
        assert estimate.tobytes() == (-linear_loss_natgrad(fam, fresh)).tobytes()


@pytest.mark.parametrize("kind", ["full", "diag"])
def test_transport_rejects_wrongly_shaped_draws(kind):
    fam, lam = _instance(kind)
    dim = fam.theta_dim
    for shape in [(dim,), (0, dim), (4, dim + 1), (4, dim - 1), (2, dim, 1)]:
        with pytest.raises(ValueError, match="must have shape"):
            fam.transport(lam, np.zeros(shape))


# -- the diagonal family's moments are derived once --------------------------

def _diag_coords(rng, p):
    return np.concatenate([rng.standard_normal(p), -0.5 * rng.uniform(0.2, 5.0, p)])


@pytest.mark.parametrize("p", [1, 3, 50])
def test_diag_derived_moments_are_the_divisions_and_read_only(p):
    coords = _diag_coords(make_rng(200 + p), p)
    factor = DiagGaussian(p).natural(coords).derived
    lin, prec = coords[:p], -2.0 * coords[p:]
    assert _same_bits(factor.lin, lin) and _same_bits(factor.prec, prec)
    assert _same_bits(factor.mean, lin / prec)
    assert _same_bits(factor.var, 1.0 / prec)
    assert not any(arr.flags.writeable for arr in factor if isinstance(arr, np.ndarray))


@pytest.mark.parametrize("p", [1, 3, 50])
def test_diag_methods_keep_the_bits_of_dividing_at_each_call(p):
    # each method against the expression it had when it divided lin by s
    # itself, for one parameter and for a block of four
    rng = make_rng(300 + p)
    fam = DiagGaussian(p)
    lams = [fam.natural(_diag_coords(rng, p)) for _ in range(4)]
    v, w = rng.standard_normal((4, 2 * p)), rng.standard_normal((4, 2 * p))
    z = rng.standard_normal((5, p))
    lin = np.array([lam.coords[:p] for lam in lams])
    prec = -2.0 * np.array([lam.coords[p:] for lam in lams])
    mean, var = lin / prec, 1.0 / prec
    d_prec, d_lin = -2.0 * v[:, p:], v[:, :p]
    d_mean = var * (d_lin - d_prec * mean)
    vp = np.concatenate([d_mean, -var ** 2 * d_prec + 2.0 * mean * d_mean], axis=1)
    s_prec = -prec ** 2 * (w[:, p:] - 2.0 * mean * w[:, :p])
    solve = np.concatenate([s_prec * mean + prec * w[:, :p], -0.5 * s_prec], axis=1)
    assert _same_bits(fam.fisher_vp(lams, v), vp)
    assert _same_bits(fam.fisher_solve(lams, w), solve)
    for b, lam in enumerate(lams):
        got_mean, got_var = fam.to_mean_var(lam)
        assert _same_bits(got_mean, mean[b]) and _same_bits(got_var, var[b])
        assert _same_bits(fam.natural_to_dual(lam),
                          np.concatenate([mean[b], var[b] + mean[b] ** 2]))
        assert _same_bits(fam.transport(lam, z), mean[b] + np.sqrt(var[b]) * z)
        assert _same_bits(fam.fisher_vp(lam, v[b]), vp[b])
        assert _same_bits(fam.fisher_solve(lam, w[b]), solve[b])
