"""Self-check suite behind the `verify` CLI subcommand.

Each check re-derives one of the package's structural identities from an
independent route (finite differences, Monte Carlo, dense linear
algebra, or a second code path) and reports PASS/FAIL with a numeric
diagnostic. Checks are grouped into scopes so subsets can run alone, and
a fault-injection hook flips a sign inside a named check to demonstrate
that the suite actually detects breakage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import blr as blr_module
from ._linalg import cho_factor, cho_solve
from .blr import (BLRConfig, blr_init, blr_run, blr_step, conjugate_posterior,
                  fixed_point_residual, mirror_descent_step_numeric,
                  multiplicative_form_check, newton_recovery_step)
from .deep import (VONState, ema, ivon_init, ivon_step,
                   preconditioned_step, rmsprop_init, rmsprop_step, von_step)
from .errors import BayesFilterViolation
from .expfam import ExpFamily
from .gaussian import DiagGaussian, FullGaussian
from .losses import QuadraticLoss
from .models import (make_logistic_data, make_ridge_data, ridge_exact_posterior,
                     ridge_loss, ridge_natural_coefficients)
from .natgrad import EstimatorSpec, estimate_natgrad, gaussian_moments, reparam_hessian_terms
from .numdiff import central_diff_jacobian
from .seeding import ESTIMATE_STREAM, SAMPLE_STREAM, STREAMS, StepStreams, make_rng

SABOTAGE_IDS = {"eq4": "entropy-gradient"}


@dataclass(frozen=True)
class CheckResult:
    name: str
    scope: str
    passed: bool
    message: str


def _max_rel_err(got, ref) -> float:
    """max|got - ref| / max(1, max|ref|)."""
    return float(np.max(np.abs(got - ref))) / max(1.0, float(np.max(np.abs(ref))))


def dense_fisher(family: ExpFamily, lam) -> np.ndarray:
    """F(lam) = Cov[T(theta)] of a Gaussian family, one entry at a time by
    the Isserlis identities with mean shift:

        Cov(th_i, th_j th_k)      = m_j C_ik + m_k C_ij
        Cov(th_i th_j, th_k th_l) = C_ik C_jl + C_il C_jk
                                  + m_i m_k C_jl + m_i m_l C_jk
                                  + m_j m_k C_il + m_j m_l C_ik

    The oracle the families' closed-form products are held to; no family
    forms F. The diagonal family's F is the full family's restricted to
    the linear rows and the (i, i) pairs.
    """
    mean, cov = family.to_mean_cov(lam)
    if family.hessian_kind == "diag":
        cov = np.diag(cov)  # its variance vector, as the matrix indexed below
    p = mean.size
    pairs = ([(i, i) for i in range(p)] if family.hessian_kind == "diag"
             else [(i, j) for i in range(p) for j in range(i, p)])
    fish = np.zeros((p + len(pairs), p + len(pairs)))
    fish[:p, :p] = cov
    for a, (j, k) in enumerate(pairs):
        fish[:p, p + a] = fish[p + a, :p] = mean[j] * cov[:, k] + mean[k] * cov[:, j]
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs[a:], start=a):
            fish[p + a, p + b] = fish[p + b, p + a] = (
                cov[i, k] * cov[j, l] + cov[i, l] * cov[j, k]
                + mean[i] * mean[k] * cov[j, l] + mean[i] * mean[l] * cov[j, k]
                + mean[j] * mean[k] * cov[i, l] + mean[j] * mean[l] * cov[i, k])
    return fish


def _random_family_instances(rng, count, max_dim=6):
    """Random (family, lam) pairs across both Gaussian families."""
    out = []
    for _ in range(count):
        p = int(rng.integers(1, max_dim + 1))
        mean = rng.standard_normal(p)
        if rng.uniform() < 0.5:
            fam = DiagGaussian(p)
            lam = fam.from_moment(mean, rng.uniform(0.3, 3.0, p))
        else:
            fam = FullGaussian(p)
            a = rng.standard_normal((p, p))
            lam = fam.from_moment(mean, a @ a.T + (0.5 + p * 0.3) * np.eye(p))
        out.append((fam, lam))
    return out


def check_duality_roundtrip():
    rng = make_rng(101)
    worst = 0.0
    for fam, lam in _random_family_instances(rng, 40):
        back = fam.dual_to_natural(fam.natural_to_dual(lam))
        worst = np.maximum(worst, _max_rel_err(back, lam.coords))
    return worst <= 1e-10, f"max_rel_err={worst:.3e} (tol 1e-10)"


def check_fisher_finite_diff():
    rng = make_rng(102)
    worst = 0.0
    for fam, lam in _random_family_instances(rng, 10, max_dim=4):
        # the library's products, F e_c for every column c
        fisher = fam.fisher_vp([lam] * fam.param_dim, np.eye(fam.param_dim)).T
        fd = central_diff_jacobian(fam.natural_to_dual, lam.coords)
        worst = np.maximum(worst, _max_rel_err(fisher, fd))
    return worst <= 1e-4, f"max_rel_err={worst:.3e} (tol 1e-4)"


def check_fisher_products():
    # the Isserlis oracle for the closed-form products the per-step
    # cross-check runs on
    def rel_err(got, want):
        return float(np.linalg.norm(got - want)) / float(np.linalg.norm(want))

    rng = make_rng(114)
    worst_vp = worst_solve = 0.0
    for fam, lam in _random_family_instances(rng, 20):
        fisher = dense_fisher(fam, lam)
        v = rng.standard_normal(fam.param_dim)
        worst_vp = np.maximum(worst_vp, rel_err(fam.fisher_vp(lam, v), fisher @ v))
        worst_solve = np.maximum(worst_solve, rel_err(
            fam.fisher_solve(lam, v), cho_solve(cho_factor(fisher, lower=True), v)))
    ok = worst_vp <= 1e-10 and worst_solve <= 1e-10
    return ok, f"vp_rel_err={worst_vp:.3e}, solve_rel_err={worst_solve:.3e} (tol 1e-10)"


def check_entropy_gradient(sabotage=None):
    rng = make_rng(103)
    worst = 0.0
    for fam, lam in _random_family_instances(rng, 15, max_dim=4):
        grad = fam.entropy_gradient(lam)
        if sabotage == "eq4":
            # flip the first quadratic-block coordinate (the linear block
            # is identically zero: Gaussian entropy ignores the mean)
            grad = grad.copy()
            grad[fam.theta_dim] = -grad[fam.theta_dim]
        exact = -(dense_fisher(fam, lam) @ lam.coords)
        if sabotage != "eq4" and _max_rel_err(grad, exact) > 1e-12:
            return False, "analytic form is not -F(lam) lam"
        fd = central_diff_jacobian(fam.entropy, lam.coords)
        worst = np.maximum(worst, _max_rel_err(grad, fd))
    return worst <= 1e-5, f"max_rel_err={worst:.3e} (tol 1e-5)"


def check_fenchel_duality():
    rng = make_rng(104)
    worst = 0.0
    for fam, lam in _random_family_instances(rng, 20):
        gap = fam.entropy(lam) + fam.fenchel_conjugate(fam.natural_to_dual(lam))
        worst = np.maximum(worst, abs(gap))
    return worst <= 1e-10, f"max_gap={worst:.3e} (tol 1e-10)"


def check_kl_bregman():
    rng = make_rng(105)
    min_kl = np.inf
    worst_grad = 0.0
    for fam, lam_a in _random_family_instances(rng, 15, max_dim=3):
        lam_b = _random_same_family(rng, fam)
        kl = fam.kl_divergence(lam_a, lam_b)
        min_kl = np.minimum(min_kl, kl)
        grad = fam.kl_gradient_wrt_dual(lam_a, lam_b)
        fd = central_diff_jacobian(
            lambda mu: fam.kl_divergence(fam.dual_to_natural(mu), lam_b),
            fam.natural_to_dual(lam_a))
        worst_grad = np.maximum(worst_grad, _max_rel_err(grad, fd))
    ok = min_kl >= -1e-12 and worst_grad <= 1e-5
    return ok, f"min_kl={min_kl:.3e}, grad_err={worst_grad:.3e}"


def _random_same_family(rng, fam: ExpFamily):
    p = fam.theta_dim
    mean = rng.standard_normal(p)
    if fam.hessian_kind == "diag":
        return fam.from_moment(mean, rng.uniform(0.3, 3.0, p))
    a = rng.standard_normal((p, p))
    return fam.from_moment(mean, a @ a.T + (0.5 + 0.3 * p) * np.eye(p))


def check_linear_loss_natgrad():
    # a loss <-coeff, T(theta)> on either family: the exact estimate is coeff
    # bit for bit at every q, and the Gaussian identity at q agrees to 1e-12
    rng = make_rng(106)
    worst = 0.0
    for fam, _ in _random_family_instances(rng, 20, max_dim=3):
        coeff = rng.standard_normal(fam.param_dim)
        loss = QuadraticLoss.from_natural_coeff(fam, coeff)
        for _ in range(10):
            lam = _random_same_family(rng, fam)
            tilde = estimate_natgrad(fam, lam, loss, EstimatorSpec("exact"))
            if not np.array_equal(tilde, coeff):
                return False, "exact natural gradient of a linear-in-T loss is not coeff"
            mean, cov = fam.to_mean_cov(lam)
            identity = fam.gaussian_identity(mean, loss.expected_gradient(mean, cov),
                                             loss.expected_hessian(mean, cov))
            worst = np.maximum(worst, _max_rel_err(identity, coeff))
    return worst <= 1e-12, (f"bitwise coeff at 200 query distributions; identity "
                            f"max_rel_err={worst:.3e} (tol 1e-12)")


def check_one_step_bayes():
    rng = make_rng(107)
    worst = 0.0
    worst_res = 0.0
    for trial in range(20):
        n, p = int(rng.integers(3, 40)), int(rng.integers(1, 6))
        model = make_ridge_data(2000 + trial, n, p)
        fam = FullGaussian(p)
        loss = ridge_loss(model)
        target = conjugate_posterior(fam, *ridge_natural_coefficients(model)).coords
        oracle = fam.from_moment(*ridge_exact_posterior(model)).coords
        if np.max(np.abs(target - oracle)) > 1e-10 * max(1.0, np.max(np.abs(oracle))):
            return False, "conjugate addition disagrees with the dense solve"
        lam0 = _random_same_family(rng, fam)
        cfg = BLRConfig(learning_rate=1.0, max_iter=1, estimator=EstimatorSpec("exact"))
        state = blr_step(blr_init(fam, lam0), loss, cfg)
        worst = np.maximum(worst, _max_rel_err(state.lam.coords, target))
        worst_res = np.maximum(worst_res, fixed_point_residual(fam, state.lam, loss,
                                                               cfg.estimator))
    ok = worst <= 1e-10 and worst_res <= 1e-10
    return ok, f"max_err={worst:.3e}, max_residual={worst_res:.3e} (tol 1e-10)"


def check_multiplicative_form():
    fam, loss = FullGaussian(3), ridge_loss(make_ridge_data(31, 25, 3))
    state0 = blr_init(fam, fam.from_moment(np.zeros(3), np.eye(3)))
    run = blr_run(fam, state0.lam, loss, BLRConfig(learning_rate=0.4, max_iter=30,
                                                   estimator=EstimatorSpec("exact")))
    # blr_run raises BayesFilterViolation on the first step that fails
    spread = float(run.filter_spreads.max())
    # sensitivity: a corrupted iterate must fail
    cfg = BLRConfig(learning_rate=0.5, max_iter=1, estimator=EstimatorSpec("exact"))
    state1 = blr_step(state0, loss, cfg)
    bad_lam = state1.lam.coords.copy()
    bad_lam[0] += 1e-3
    corrupted = replace(state1, lam=fam.natural(bad_lam))
    try:
        multiplicative_form_check(state0, corrupted, 0.5)
    except BayesFilterViolation:
        tol = np.format_float_scientific(blr_module.FILTER_TOL, trim="-", exp_digits=1)
        return True, f"max_spread={spread:.3e} (tol {tol}); corruption detected"
    return False, "corrupted iterate passed the check"


def check_mirror_descent():
    rng = make_rng(108)
    worst = 0.0
    for _ in range(10):
        fam, lam_t = _random_family_instances(rng, 1, max_dim=2)[0]
        tilde = _random_same_family(rng, fam).coords
        rho = float(rng.uniform(0.1, 1.0))
        numeric = mirror_descent_step_numeric(fam, lam_t, tilde, rho)
        closed = (1.0 - rho) * lam_t.coords + rho * tilde
        worst = np.maximum(worst, _max_rel_err(numeric, closed))
    return worst <= 1e-6, f"max_rel_err={worst:.3e} (tol 1e-6)"


def check_delta_newton():
    loss = make_logistic_data(41, 40, 2)
    fam = FullGaussian(2)
    mean = np.zeros(2)
    state = blr_init(fam, fam.from_moment(mean, np.eye(2)))
    cfg = BLRConfig(learning_rate=1.0, max_iter=1, estimator=EstimatorSpec("delta"))
    worst = 0.0
    for _ in range(5):
        mean, prec = newton_recovery_step(loss, mean)
        state = blr_step(state, loss, cfg)
        post = state.lam.derived
        worst = np.max([worst, np.max(np.abs(post.mean - mean)),
                        np.max(np.abs(post.prec - prec))])
    return worst <= 1e-10, f"max_abs_err={worst:.3e} (tol 1e-10)"


def check_reparam_unbiased():
    rng = make_rng(109)
    p = 3
    fam = DiagGaussian(p)
    hess = rng.uniform(0.5, 2.5, p)
    loss = QuadraticLoss(np.diag(hess), rng.standard_normal(p))
    lam = fam.from_moment(rng.standard_normal(p), rng.uniform(0.5, 2.0, p))
    draws = fam.sample(lam, 200_000, make_rng(110))
    mean, prec = lam.derived.mean, lam.derived.prec
    grads = draws @ np.diag(hess) - loss.lin
    estimates = reparam_hessian_terms(grads, prec, draws, mean)
    avg = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    z = np.max(np.abs(avg - hess) / se)
    return z <= 3.0, f"max_z={z:.2f} over {p} coordinates (tol 3 SE)"


def check_von_blr():
    rng = make_rng(111)
    p = 4
    hess = rng.uniform(0.5, 3.0, p)
    loss = QuadraticLoss(np.diag(hess), rng.standard_normal(p))
    fam = DiagGaussian(p)
    mean0, prec0 = rng.standard_normal(p), rng.uniform(0.5, 2.0, p)
    von = VONState(mean0, prec0, learning_rate=0.3)
    blr = blr_init(fam, fam.from_moment(mean0, prec0))
    cfg = BLRConfig(learning_rate=0.3, max_iter=1, estimator=EstimatorSpec("exact"))

    def rel_err(von, blr):
        lam_von = fam.from_moment(von.mean, von.prec).coords
        return float(np.max(np.abs(lam_von - blr.lam.coords)
                            / np.maximum(1.0, np.abs(blr.lam.coords))))

    worst = 0.0
    for _ in range(20):
        von = von_step(von, loss)
        blr = blr_step(blr, loss, cfg)
        worst = np.maximum(worst, rel_err(von, blr))
    # one sampled step: VON's K draws, averaged by the shared core, give the
    # diagonal BLR step built from the core's estimate on the same draws
    logistic, k, seed = make_logistic_data(115, 40, p), 6, 9
    state = VONState(mean0, prec0, learning_rate=0.3, n_samples=k, seed=seed)
    von = von_step(state, logistic)
    lam0 = fam.from_moment(mean0, prec0)
    # the step's draws, on the stream von_step samples from
    thetas = fam.transport(lam0, make_rng(seed, *SAMPLE_STREAM, state.t).standard_normal((k, p)))
    grad, hess = gaussian_moments(logistic, "mc", mean0, thetas=thetas, diag=True)
    blr = blr_step(blr_init(fam, lam0), logistic, cfg,
                   estimate=fam.gaussian_identity(mean0, grad, hess))
    worst = np.maximum(worst, rel_err(von, blr))
    return worst <= 1e-12, (f"max_rel_err={worst:.3e} over 20 exact steps and a "
                            "sampled one (tol 1e-12)")


def check_ivon_positivity():
    rng = make_rng(112)
    loss = QuadraticLoss(np.diag(rng.uniform(0.2, 4.0, 3)), rng.standard_normal(3))
    state = ivon_init(rng.standard_normal(3), step_size=0.2, hess_init=0.3,
                      hess_rate=0.9, weight_decay=1e-3, ess=5.0, seed=7)
    min_prec = np.inf
    for _ in range(2000):
        state = ivon_step(state, loss)
        min_prec = np.minimum(min_prec, np.min(state.hess + state.weight_decay))
    # no-square-root probe through ivon_step: sampled at the mean, the
    # Hessian estimate is 0, so h = 4 quadruples the new scale exactly and
    # must quarter the mean's move (a square root would halve it)
    unit = QuadraticLoss(np.eye(1), np.array([-1.0]))
    moves = []
    for hess in (1.0, 4.0):
        probe = ivon_init(np.zeros(1), step_size=1.0, hess_init=hess, weight_decay=0.0)
        moves.append(float(ivon_step(probe, unit, theta_sample=probe.mean).mean[0]))
    ratio = moves[1] / moves[0]
    ok = min_prec > 0.0 and ratio == 0.25
    return ok, f"min(h+delta0)={min_prec:.3e}, scale-4 step ratio={ratio}"


def check_rmsprop_correspondence():
    rng = make_rng(113)
    for _ in range(5):
        p = int(rng.integers(1, 6))
        state = rmsprop_init(rng.standard_normal(p), step_size=0.05,
                             scale_rate=0.3, damping=1e-8)
        state = replace(state, scale=rng.uniform(0.0, 2.0, p))
        for _ in range(4):
            grad = rng.standard_normal(p)
            # the RMSprop update written out, without deep's helpers
            beta, alpha, c = state.scale_rate, state.step_size, state.damping
            v = (1 - beta) * state.scale + beta * grad ** 2
            want = state.theta - alpha * grad / (np.sqrt(v) + c)
            # VON arithmetic with squared-gradient curvature, a square root,
            # and sampling disabled is exactly that update, as is rmsprop_step
            scale = ema(state.scale, grad ** 2, state.scale_rate)
            theta = preconditioned_step(state.theta, grad, scale, state.step_size,
                                        state.damping, sqrt_scale=True)
            state = rmsprop_step(state, grad)
            if not all(np.array_equal(got, ref) for got, ref in
                       ((scale, v), (theta, want), (state.scale, v), (state.theta, want))):
                return False, "substituted update diverged from rmsprop_step"
    return True, "exact match on 5 random traces"


def check_step_streams():
    # StepStreams re-implements SeedSequence's mixing; the installed
    # numpy's own SeedSequence, behind make_rng, must agree with it, also on
    # a prefix no consumer uses, whose second int SeedSequence splits in two
    prefixes = ((STREAMS.minibatch,), SAMPLE_STREAM, (3, 2**32 + 1), ESTIMATE_STREAM)
    cases = failures = 0
    for seed in (0, 1, 2**32, 2**64 + 5):
        for prefix in prefixes:
            streams = StepStreams(seed, *prefix)
            for t in (0, 1, 1023, 1024, 4097, 2**20 - 1):
                got, want = streams.at(t), make_rng(seed, *prefix, t)
                same = (np.array_equal(got.bit_generator.state["state"]["key"],
                                       want.bit_generator.state["state"]["key"])
                        and np.array_equal(got.standard_normal(3), want.standard_normal(3))
                        and np.array_equal(got.choice(40, 5, replace=False),
                                           want.choice(40, 5, replace=False)))
                cases += 1
                failures += not same
    return failures == 0, (f"{failures} of {cases} step streams differ from make_rng "
                           "in key or draws")


CHECKS: list[tuple[str, str, Callable]] = [
    ("duality-roundtrip", "duality", check_duality_roundtrip),
    ("fisher-finite-diff", "fisher", check_fisher_finite_diff),
    ("fisher-products", "fisher", check_fisher_products),
    ("entropy-gradient", "entropy", check_entropy_gradient),
    ("fenchel-duality", "fenchel", check_fenchel_duality),
    ("kl-bregman", "kl", check_kl_bregman),
    ("linear-loss-natgrad", "conjugate", check_linear_loss_natgrad),
    ("one-step-bayes", "conjugate", check_one_step_bayes),
    ("multiplicative-form", "blr", check_multiplicative_form),
    ("mirror-descent", "mirror", check_mirror_descent),
    ("delta-newton", "newton", check_delta_newton),
    ("reparam-unbiased", "estimators", check_reparam_unbiased),
    ("von-blr", "von", check_von_blr),
    ("ivon-positivity", "ivon", check_ivon_positivity),
    ("rmsprop-correspondence", "deep", check_rmsprop_correspondence),
    ("step-streams", "seeding", check_step_streams),
]


def run_verify(scope: str | None = None, sabotage: str | None = None) -> list[CheckResult]:
    """Run (a scope of) the checks and print one PASS/FAIL line per check."""
    if sabotage is not None and sabotage not in SABOTAGE_IDS:
        raise ValueError(f"unknown sabotage id {sabotage!r}; known: {tuple(SABOTAGE_IDS)}")
    selected = [(n, s, f) for n, s, f in CHECKS if scope is None or s == scope]
    if not selected:
        scopes = sorted({s for _, s, _ in CHECKS})
        raise ValueError(f"unknown scope {scope!r}; known: {scopes}")
    results = []
    for name, check_scope, fn in selected:
        try:
            passed, message = fn(sabotage) if SABOTAGE_IDS.get(sabotage) == name else fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, message = False, f"error={exc!r}"
        results.append(CheckResult(name, check_scope, passed, message))
        print(f"{'PASS' if passed else 'FAIL'}  {name} [{check_scope}]: {message}")
    failures = sum(not r.passed for r in results)
    print(f"{len(results)} checks, {failures} failures")
    return results
