from dataclasses import replace

import numpy as np
import pytest

import natvb.blr
from natvb.blr import (BLRConfig, BLRState, blr_init, blr_run, blr_step,
                       conjugate_posterior, fixed_point_residual,
                       mirror_descent_step_numeric, multiplicative_form_check,
                       newton_recovery_step, vb_objective)
from natvb.errors import (BayesFilterViolation, DomainError, LeftDomain, NonPDHessian,
                          SolverFailure)
from natvb.gaussian import DiagGaussian, FullGaussian
from natvb.losses import QuadraticLoss
from natvb.models import (make_logistic_data, make_ridge_data,
                          ridge_exact_posterior, ridge_loss,
                          ridge_natural_coefficients)
from natvb.natgrad import EstimatorSpec, estimate_natgrad
from natvb.numdiff import central_diff_jacobian
from natvb.seeding import ESTIMATE_STREAM, fixed_normals, make_rng

from conftest import random_instance, random_lam, zero_loss
from test_trace_digests import folded  # noqa: F401 (fixture)

EXACT = EstimatorSpec("exact")


def ridge_setup(seed, n=20, p=3):
    model = make_ridge_data(seed, n, p)
    return model, FullGaussian(p), ridge_loss(model)


# -- blr_step ---------------------------------------------------------------

def test_step_fixed_point_invariance(rng):
    # tilde(lam) == lam: the iterate must not move for any rate
    fam, lam = random_instance(rng, max_dim=3)
    loss = QuadraticLoss.from_natural_coeff(fam, np.asarray(lam))
    for rate in (0.1, 0.5, 1.0):
        state = blr_init(fam, lam)
        cfg = BLRConfig(rate, 1, estimator=EXACT)
        new = blr_step(state, loss, cfg)
        np.testing.assert_allclose(new.lam.coords, lam, rtol=1e-12, atol=1e-12)


def test_step_rate_one_jumps_to_tilde(rng):
    fam, lam0 = random_instance(rng, max_dim=3)
    coeff = np.asarray(random_lam(rng, fam))
    loss = QuadraticLoss.from_natural_coeff(fam, coeff)
    state = blr_step(blr_init(fam, lam0), loss, BLRConfig(1.0, 1, estimator=EXACT))
    np.testing.assert_array_equal(state.lam.coords, coeff)


def test_step_half_rate_is_midpoint():
    # prior N(0,1), quadratic data loss, rho = 1/2: componentwise midpoint
    fam = FullGaussian(1)
    lam0 = fam.from_moment([0.0], [[1.0]])
    loss = QuadraticLoss(np.array([[2.0]]), np.array([1.0]))
    state0 = blr_init(fam, lam0)
    state1 = blr_step(state0, loss, BLRConfig(0.5, 1, estimator=EXACT))
    np.testing.assert_allclose(state1.lam.coords,
                               0.5 * lam0.coords + 0.5 * state1.tilde_lambda, atol=1e-15)


def test_step_left_domain_reported():
    # a rate-1 jump toward an invalid target (negative curvature coefficient)
    fam = DiagGaussian(1)
    lam0 = fam.from_moment([0.0], [1.0])
    loss = QuadraticLoss(np.array([[-2.0]]), np.zeros(1))
    with pytest.raises(LeftDomain) as excinfo:
        blr_step(blr_init(fam, lam0), loss, BLRConfig(1.0, 1, estimator=EXACT))
    assert excinfo.value.iteration == 0
    assert excinfo.value.iterate is not None


def test_blr_config_checks_its_budget_when_built():
    # blr_run reads max_iter as it is, so a config without steps is never built
    with pytest.raises(ValueError, match="^max_iter must be >= 1$"):
        BLRConfig(0.5, 0)


# -- conjugate path -----------------------------------------------------------

def test_conjugate_posterior_identity_ridge():
    model, fam, _ = ridge_setup(0)
    post = conjugate_posterior(fam, *ridge_natural_coefficients(model))
    oracle = ridge_exact_posterior(model)
    np.testing.assert_allclose(post.coords, fam.from_moment(*oracle).coords,
                               rtol=1e-10, atol=1e-10)


def test_conjugate_posterior_no_data_is_prior():
    fam = FullGaussian(2)
    prior = fam.from_moment(np.zeros(2), np.eye(2)).coords
    np.testing.assert_array_equal(conjugate_posterior(fam, np.zeros(5), prior).coords, prior)


def test_conjugate_posterior_rejects_improper_posterior():
    fam = FullGaussian(1)
    prior = fam.from_moment([0.0], [[1.0]]).coords
    with pytest.raises(DomainError):
        conjugate_posterior(fam, np.array([0.0, 1.0]), prior)  # flips curvature sign


def test_one_step_bayes_thm2(rng):
    # rate 1 reaches lik+prior in exactly one step from any start,
    # and further steps do not move
    for trial in range(10):
        model, fam, loss = ridge_setup(100 + trial, n=int(rng.integers(5, 40)),
                                       p=int(rng.integers(1, 5)))
        target = conjugate_posterior(fam, *ridge_natural_coefficients(model)).coords
        cfg = BLRConfig(1.0, 1, estimator=EXACT)
        for _ in range(3):
            state = blr_init(fam, random_lam(rng, fam))
            state = blr_step(state, loss, cfg)
            np.testing.assert_allclose(state.lam.coords, target,
                                       rtol=1e-12, atol=1e-12)
            again = blr_step(state, loss, cfg)
            np.testing.assert_allclose(again.lam.coords, target,
                                       rtol=1e-12, atol=1e-12)


# -- multiplicative form -------------------------------------------------------

def test_multiplicative_form_passes_on_conforming_step(rng, monkeypatch):
    model, fam, loss = ridge_setup(7)
    state0 = blr_init(fam, fam.from_moment(np.zeros(3), np.eye(3)))
    state1 = blr_step(state0, loss, BLRConfig(0.3, 1, estimator=EXACT))
    spread = multiplicative_form_check(state0, state1, 0.3)
    assert 0.0 < spread <= 1e-8
    # the check raises when the spread exceeds FILTER_TOL, not when it reaches it
    monkeypatch.setattr(natvb.blr, "FILTER_TOL", spread)
    assert multiplicative_form_check(state0, state1, 0.3) == spread
    monkeypatch.setattr(natvb.blr, "FILTER_TOL", np.nextafter(spread, 0.0))
    with pytest.raises(BayesFilterViolation, match="at step 0"):
        multiplicative_form_check(state0, state1, 0.3)


def test_multiplicative_form_detects_corruption(rng):
    model, fam, loss = ridge_setup(8)
    state0 = blr_init(fam, fam.from_moment(np.zeros(3), np.eye(3)))
    state1 = blr_step(state0, loss, BLRConfig(0.3, 1, estimator=EXACT))
    bad = state1.lam.coords.copy()
    bad[1] += 1e-3
    corrupted = replace(state1, lam=fam.natural(bad))
    with pytest.raises(BayesFilterViolation, match=r"at step 0 \(spread .* > 1\.0e-08\)"):
        multiplicative_form_check(state0, corrupted, 0.3)


def test_multiplicative_form_rate_one_probe_is_linear_in_stats(rng):
    # at rho=1 the probe function log q_{t+1} - <tilde, T> is constant
    model, fam, loss = ridge_setup(9)
    state0 = blr_init(fam, random_lam(rng, fam))
    state1 = blr_step(state0, loss, BLRConfig(1.0, 1, estimator=EXACT))
    probes = fam.sample(state0.lam, 10, make_rng(1))
    gaps = [fam.log_density(state1.lam, th)
            - float(state1.tilde_lambda @ fam.sufficient_stats(th))
            for th in probes]
    assert max(gaps) - min(gaps) < 1e-8


def _multiplicative_spread_by_sampling(state_t, state_t1, rho, n_probes=10,
                                       probe_seed=1009):
    """The check's spread with probes drawn by family.sample, as a reference."""
    family = state_t.lam.family
    probes = family.sample(state_t.lam, n_probes, make_rng(probe_seed))
    gaps = (family.log_density(state_t1.lam, probes)
            - (1.0 - rho) * family.log_density(state_t.lam, probes)
            - rho * (family.sufficient_stats_batch(probes) @ state_t1.tilde_lambda))
    return float(np.max(gaps) - np.min(gaps))


@pytest.mark.parametrize("family", [FullGaussian, DiagGaussian])
def test_multiplicative_form_fixed_probes_equal_sampling_bitwise(family, rng,
                                                                monkeypatch):
    loss = make_logistic_data(5, 40, 3)
    fam = family(3)
    spec = EstimatorSpec("mc", 4, seed=2)
    state = blr_init(fam, random_lam(rng, fam))
    for rho in (0.3, 0.7, 0.2):
        nxt = blr_step(state, loss, BLRConfig(rho, 1, estimator=spec))
        for n_probes, probe_seed in ((10, 1009), (6, 3)):
            monkeypatch.setattr(natvb.blr, "FILTER_PROBES", n_probes)
            monkeypatch.setattr(natvb.blr, "PROBE_SEED", probe_seed)
            spread = multiplicative_form_check(state, nxt, rho)
            assert spread == _multiplicative_spread_by_sampling(
                state, nxt, rho, n_probes, probe_seed)
        state = nxt


@pytest.mark.parametrize("kind", ["full", "diag"])
def test_multiplicative_form_spread_equals_three_log_densities_bitwise(kind, rng):
    # one T(probes) and the stored cumulants give log_density's arithmetic
    for trial in range(30):
        if trial < 25:
            fam, lam = random_instance(rng, kind=kind)
        else:
            fam = FullGaussian(12) if kind == "full" else DiagGaussian(12)
            lam = random_lam(rng, fam)
        tilde = random_lam(rng, fam)
        rho = float(rng.uniform(0.05, 0.95))
        state = BLRState(0, fam.natural(lam))
        nxt = BLRState(1, fam.natural((1.0 - rho) * np.asarray(lam) + rho * tilde), tilde)
        probes = fam.transport(state.lam, fixed_normals((10, fam.theta_dim), 1009))
        gaps = (fam.log_density(nxt.lam, probes)
                - (1.0 - rho) * fam.log_density(state.lam, probes)
                - rho * (fam.sufficient_stats_batch(probes) @ tilde))
        spread = float(np.max(gaps) - np.min(gaps))
        assert multiplicative_form_check(state, nxt, rho) == spread


# -- fixed-point residual --------------------------------------------------------

def test_residual_zero_at_conjugate_posterior():
    model, fam, loss = ridge_setup(10)
    lam_star = conjugate_posterior(fam, *ridge_natural_coefficients(model))
    assert fixed_point_residual(fam, lam_star, loss, EXACT) <= 1e-10


def test_residual_large_at_prior():
    model, fam, loss = ridge_setup(11)
    prior = fam.from_moment(np.zeros(3), np.eye(3))
    assert fixed_point_residual(fam, prior, loss, EXACT) > 0.1


def test_residual_zero_for_self_matching_loss(rng):
    fam, lam = random_instance(rng, max_dim=3)
    loss = QuadraticLoss.from_natural_coeff(fam, np.asarray(lam))
    assert fixed_point_residual(fam, lam, loss, EXACT) == 0.0


# -- mirror descent ----------------------------------------------------------------

def test_mirror_descent_rate_one_returns_tilde(rng):
    fam, lam_t = random_instance(rng, max_dim=2)
    tilde = random_lam(rng, fam)
    out = mirror_descent_step_numeric(fam, lam_t, tilde, 1.0)
    np.testing.assert_allclose(out, tilde, rtol=1e-6, atol=1e-8)


def test_mirror_descent_stationary_when_tilde_equals_lam(rng):
    fam, lam_t = random_instance(rng, max_dim=2)
    out = mirror_descent_step_numeric(fam, lam_t, np.asarray(lam_t), 0.4)
    np.testing.assert_allclose(out, lam_t, rtol=1e-6, atol=1e-8)


def test_mirror_descent_matches_closed_form_1d(rng):
    fam = FullGaussian(1)
    for _ in range(5):
        lam_t = random_lam(rng, fam)
        tilde = random_lam(rng, fam)
        out = mirror_descent_step_numeric(fam, lam_t, tilde, 0.3)
        closed = 0.7 * lam_t + 0.3 * tilde
        scale = max(1.0, np.max(np.abs(closed)))
        assert np.max(np.abs(out - closed)) / scale < 1e-6


@pytest.mark.parametrize("kind", ["full", "diag"])
def test_mirror_descent_lands_within_its_default_tolerance(kind):
    # The solver's gradient is (lam - lam*) / rho, lam* = (1 - rho) lam_t
    # + rho tilde, so stopping at |grad| <= MIRROR_GRAD_TOL puts it within
    # rho MIRROR_GRAD_TOL of the closed form: 1e-10 is the bound, written
    # out here so that a looser bound fails (at 1e-6 it lands up to 2.8e3
    # times farther on these cases; at 1e-10, 0.6 times the bound at most).
    rng = make_rng(26, 8, kind == "full")
    for _ in range(5):
        fam, lam_t = random_instance(rng, max_dim=3, kind=kind)
        tilde = random_lam(rng, fam)
        for rate in (0.1, 0.3, 0.7):
            out = mirror_descent_step_numeric(fam, lam_t, tilde, rate)
            closed = (1.0 - rate) * lam_t + rate * tilde
            assert np.linalg.norm(out - closed) <= rate * 1e-10


def test_mirror_descent_raises_when_its_newton_budget_runs_out(monkeypatch):
    # N(0, I) towards a full-covariance target at rate 0.7: zero or one
    # Newton step leaves the gradient far above MIRROR_GRAD_TOL, the
    # budget MIRROR_MAX_ITER reaches the closed form
    fam = FullGaussian(2)
    lam_t = fam.from_moment(np.zeros(2), np.eye(2)).coords
    tilde = fam.from_moment(np.array([1.0, -2.0]),
                            np.array([[2.0, 0.6], [0.6, 0.5]])).coords
    out = mirror_descent_step_numeric(fam, lam_t, tilde, 0.7)
    assert np.linalg.norm(out - (0.3 * lam_t + 0.7 * tilde)) <= 0.7 * 1e-10
    for max_iter in (0, 1):
        monkeypatch.setattr(natvb.blr, "MIRROR_MAX_ITER", max_iter)
        with pytest.raises(SolverFailure, match="stopped at gradient norm"):
            mirror_descent_step_numeric(fam, lam_t, tilde, 0.7)


# -- objective --------------------------------------------------------------------

def test_vb_objective_zero_loss_is_negative_entropy(rng):
    fam, lam = random_instance(rng, max_dim=3)
    assert np.isclose(vb_objective(fam, lam, zero_loss(fam.theta_dim)),
                      -fam.entropy(lam), atol=1e-12)


def test_vb_objective_posterior_beats_prior_strictly():
    model, fam, loss = ridge_setup(12)
    post = ridge_exact_posterior(model)
    at_post = vb_objective(fam, fam.from_moment(*post), loss)
    at_prior = vb_objective(fam, fam.from_moment(np.zeros(3), np.eye(3)), loss)
    assert at_post < at_prior


def test_vb_objective_analytic_vs_monte_carlo(rng):
    fam, lam = random_instance(rng, max_dim=3, kind="full")
    p = fam.theta_dim
    a = make_rng(3).standard_normal((p, p))
    loss = QuadraticLoss(a @ a.T + np.eye(p), make_rng(4).standard_normal(p))
    analytic = vb_objective(fam, lam, loss)
    draws = fam.sample(lam, 1_000_000, make_rng(5))
    vals = (0.5 * np.einsum("ki,ij,kj->k", draws, loss.quad, draws)
            - draws @ loss.lin + loss.const)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    mc = vals.mean() - fam.entropy(lam)
    assert abs(analytic - mc) < 3.0 * se


# -- Newton recovery ---------------------------------------------------------------

def test_newton_exact_on_quadratics(rng):
    p = 3
    a = rng.standard_normal((p, p))
    quad = a @ a.T + np.eye(p)
    lin = rng.standard_normal(p)
    loss = QuadraticLoss(quad, lin)
    new_mean, new_prec = newton_recovery_step(loss, rng.standard_normal(p))
    np.testing.assert_allclose(new_mean, np.linalg.solve(quad, lin),
                               rtol=1e-10, atol=1e-12)
    np.testing.assert_array_equal(new_prec, quad)


def test_newton_stationary_at_critical_point():
    loss = QuadraticLoss(np.diag([2.0, 3.0]), np.array([2.0, 3.0]))
    new_mean, _ = newton_recovery_step(loss, np.ones(2))  # gradient is zero here
    np.testing.assert_allclose(new_mean, np.ones(2), atol=1e-14)


def test_newton_rejects_non_pd_hessian():
    loss = QuadraticLoss(np.diag([1.0, -1.0]), np.zeros(2))
    with pytest.raises(NonPDHessian):
        newton_recovery_step(loss, np.zeros(2))


def test_newton_equals_blr_delta_on_logistic_10_steps():
    loss = make_logistic_data(13, 50, 2)
    fam = FullGaussian(2)
    mean = np.zeros(2)
    state = blr_init(fam, fam.from_moment(mean, np.eye(2)))
    cfg = BLRConfig(1.0, 1, estimator=EstimatorSpec("delta"))
    for _ in range(10):
        mean, prec = newton_recovery_step(loss, mean)
        state = blr_step(state, loss, cfg)
        np.testing.assert_allclose(fam.to_mean_cov(state.lam)[0], mean,
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(fam.split_natural(state.lam)[1], prec,
                                   rtol=1e-10, atol=1e-10)


# -- run loop ----------------------------------------------------------------------

def test_run_monotone_descent_exact_quadratic(rng):
    model, fam, loss = ridge_setup(14)
    run = blr_run(fam, fam.from_moment(np.zeros(3), np.eye(3)), loss,
                  BLRConfig(0.4, 100, estimator=EXACT))
    objectives = [row.objective for row in run.trace]
    assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))
    assert run.converged
    assert run.filter_spreads.max() <= 1e-8
    assert run.trace[-1].residual <= 1e-8


def test_run_objective_trace_recorded():
    model, fam, loss = ridge_setup(15)
    run = blr_run(fam, fam.from_moment(np.zeros(3), np.eye(3)), loss,
                  BLRConfig(1.0, 5, estimator=EXACT))
    assert run.state.t == 1  # the residual at the jump's iterate is zero
    assert [row.t for row in run.trace] == [1]


def test_run_halves_the_rate_until_the_step_stays_in_the_domain():
    # a negative-curvature target: rates 1 and 1/2 give a non-positive
    # precision, 1/4 does not
    fam = DiagGaussian(1)
    lam0 = fam.from_moment([0.0], [1.0])
    loss = QuadraticLoss(np.array([[-2.0]]), np.zeros(1))
    run = blr_run(fam, lam0, loss, BLRConfig(1.0, 1, estimator=EXACT))
    assert [row.rho for row in run.trace] == [0.25]
    with pytest.raises(LeftDomain, match="after 1 halvings") as excinfo:
        blr_run(fam, lam0, loss, BLRConfig(1.0, 1, estimator=EXACT, max_rate_halvings=1))
    assert excinfo.value.partial_trace == []


def test_run_reports_the_last_rows_residual():
    model, fam, loss = ridge_setup(18)
    run = blr_run(fam, fam.from_moment(np.zeros(3), np.eye(3)), loss,
                  BLRConfig(0.5, 3, estimator=EXACT))
    assert run.state.t == len(run.trace) == 3 and not run.converged
    assert run.trace[-1].residual == fixed_point_residual(
        fam, run.state.lam, loss, EXACT)


def test_run_stochastic_uses_budget():
    model, fam, loss = ridge_setup(16)
    run = blr_run(fam, fam.from_moment(np.zeros(3), np.eye(3)), loss,
                  BLRConfig(0.3, 12, estimator=EstimatorSpec("mc", 4, seed=2)))
    assert run.state.t == 12 and not run.converged


def test_natgrad_elbo_bridge_matches_finite_differences():
    # grad_mu of the objective equals lam - tilde, checked on 1-D instances
    fam = FullGaussian(1)
    loss = QuadraticLoss(np.array([[1.7]]), np.array([0.4]))
    rng = make_rng(17)
    for _ in range(5):
        lam = random_lam(rng, fam)
        state = blr_step(blr_init(fam, lam), loss, BLRConfig(0.5, 1, estimator=EXACT))
        bridge = np.asarray(lam) - state.tilde_lambda
        fd = central_diff_jacobian(
            lambda mu: vb_objective(fam, fam.dual_to_natural(mu), loss),
            fam.natural_to_dual(lam))
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(bridge - fd)) / scale < 1e-4


# -- stationary law of sampled BLR ---------------------------------------------------

#: full-family mc BLR on ridge: sample count, rate, burn-in and kept steps
AR1_K, AR1_RHO, AR1_BURN, AR1_T = 4, 0.5, 200, 2000


@pytest.mark.parametrize("stream", ["tagged", "folded"])
def test_sampled_blr_mean_follows_its_ar1_law(stream, request):
    # On a quadratic loss the mc Hessian is exact, so from the exact
    # posterior on S stays A and m_{t+1} - m* = (1 - rho)(m_t - m*) - rho e_t
    # with e_t ~ N(0, Sigma*/K): stationary covariance rho/((2 - rho) K) Sigma*,
    # lag-1 autocorrelation 1 - rho, and a tail mean whose covariance is
    # Sigma*/(K T). The law holds on any stream, the folded one included.
    if stream == "folded":
        request.getfixturevalue("folded")
    model, fam, loss = ridge_setup(3, n=200, p=5)
    mean_star, prec_star = ridge_exact_posterior(model)
    sigma_star = np.diag(np.linalg.inv(prec_star))
    spec = EstimatorSpec("mc", AR1_K, seed=7)
    cfg = BLRConfig(AR1_RHO, estimator=spec)
    # the streams blr_run draws step t's estimate from
    streams = natvb.blr.StepStreams(spec.seed, *ESTIMATE_STREAM)
    state = blr_init(fam, fam.from_moment(mean_star, prec_star))
    means = []
    for _ in range(AR1_BURN + AR1_T):
        estimate = estimate_natgrad(fam, state.lam, loss, spec, step=state.t,
                                    rng=streams.at(state.t))
        state = blr_step(state, loss, cfg, estimate=estimate)
        means.append(fam.to_mean_cov(state.lam)[0])
    dev = np.array(means[AR1_BURN:]) - mean_star
    # every bound is 4 SE of its estimator under the law, fixed before running:
    # an AR(1) with coefficient 1/2 gives the variance ratio a relative SE of
    # sqrt(3.33/T) and the lag-1 autocorrelation an SE of sqrt(0.75/T)
    stationary = AR1_RHO / ((2.0 - AR1_RHO) * AR1_K) * sigma_star
    ratio = np.mean(dev ** 2, axis=0) / stationary
    assert np.all(np.abs(ratio - 1.0) < 4.0 * np.sqrt(3.33 / AR1_T)), ratio
    lag1 = np.sum(dev[1:] * dev[:-1], axis=0) / np.sum(dev ** 2, axis=0)
    assert np.all(np.abs(lag1 - (1.0 - AR1_RHO)) < 4.0 * np.sqrt(0.75 / AR1_T)), lag1
    tail_se = np.sqrt(sigma_star / (AR1_K * AR1_T))
    assert np.all(np.abs(dev.mean(axis=0)) < 4.0 * tail_se), dev.mean(axis=0) / tail_se
