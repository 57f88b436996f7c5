"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a PASS line with its headline number when it succeeds,
so `pytest -s tests/test_acceptance.py` doubles as the acceptance report.
"""

import time

import numpy as np
from scipy.optimize import minimize

from natvb.blr import (BLRConfig, blr_init, blr_run, blr_step,
                       conjugate_posterior, fixed_point_residual,
                       mirror_descent_step_numeric, newton_recovery_step,
                       vb_objective)
from natvb.deep import adam_init, ivon_init, ivon_step, train
from natvb.gaussian import DiagGaussian, FullGaussian
from natvb.harness import run_experiment
from natvb.losses import QuadraticLoss
from natvb.models import (make_logistic_data, make_ridge_data,
                          make_spirals_mlp, ridge_exact_posterior, ridge_loss,
                          ridge_natural_coefficients)
from natvb.natgrad import DUAL_RTOL, EstimatorSpec, estimate_natgrad, natgrad_via_dual
from natvb.numdiff import central_diff_jacobian
from natvb.quadrature import gaussian_expectation
from natvb.seeding import make_rng
from natvb.verify import dense_fisher

from conftest import random_instance, random_lam

EXACT = EstimatorSpec("exact")


def report(number, description, detail):
    print(f"\nPASS criterion {number}: {description} ({detail})")


def test_criterion_01_entropy_gradient_identity():
    start = time.time()
    rng = make_rng(1001)
    worst = 0.0
    for _ in range(200):
        fam, lam = random_instance(rng, max_dim=8)
        grad = fam.entropy_gradient(lam)
        exact = -(dense_fisher(fam, lam) @ lam)
        assert np.max(np.abs(grad - exact)) <= 1e-12 * max(1.0, np.max(np.abs(exact)))
        fd = central_diff_jacobian(fam.entropy, lam)
        err = float(np.max(np.abs(grad - fd))) / max(1.0, float(np.max(np.abs(fd))))
        worst = max(worst, err)
        assert err < 1e-5
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(1, "entropy gradient equals -F(lam) lam and finite differences",
           f"200 instances, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_dual_coordinate_identity():
    start = time.time()
    rng = make_rng(1002)
    worst = 0.0
    for _ in range(50):
        fam, lam = random_instance(rng, max_dim=4, kind="full")
        p = fam.theta_dim
        a = rng.standard_normal((p, p))
        loss = QuadraticLoss(a @ a.T + np.eye(p), rng.standard_normal(p))
        tilde = estimate_natgrad(fam, lam, loss, EXACT)

        def neg_expected(lam_vec):
            mean, cov = fam.to_mean_cov(lam_vec)
            return -loss.expected_value(mean, cov)

        # F^-1 applied to an independent, finite-difference grad_lam, held
        # to natgrad_via_dual's own bound, which must pass at the same point
        grad_lam = central_diff_jacobian(neg_expected, lam)
        solved = fam.fisher_solve(lam, grad_lam)
        err = (float(np.linalg.norm(solved - tilde))
               / max(1.0, float(np.linalg.norm(tilde))))
        worst = max(worst, err)
        assert err < DUAL_RTOL
        natgrad_via_dual(fam, lam, tilde)
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(2, "inverse-Fisher natural gradient equals the dual-coordinate gradient",
           f"50 instances, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_linear_loss_independence():
    start = time.time()
    rng = make_rng(1003)
    for _ in range(50):
        fam, _ = random_instance(rng, max_dim=4)
        coeff = rng.standard_normal(fam.param_dim)
        loss = QuadraticLoss.from_natural_coeff(fam, coeff)
        for _ in range(10):
            lam = random_lam(rng, fam)
            tilde = estimate_natgrad(fam, lam, loss, EXACT)
            assert np.array_equal(tilde, coeff)  # bitwise, no q dependence
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(3, "natural gradient of a linear-in-T loss is its coefficient, "
              "independent of q", f"50 losses x 10 distributions, {elapsed:.1f}s")


def test_criterion_04_one_step_bayes():
    start = time.time()
    rng = make_rng(1004)
    worst_err, worst_res = 0.0, 0.0
    cfg = BLRConfig(1.0, 1, estimator=EXACT)
    for trial in range(100):
        n, p = int(rng.integers(2, 60)), int(rng.integers(1, 7))
        model = make_ridge_data(9000 + trial, n, p,
                                prior_precision=float(rng.uniform(0.3, 2.0)))
        fam = FullGaussian(p)
        loss = ridge_loss(model)
        target = fam.from_moment(*ridge_exact_posterior(model)).coords
        for _ in range(5):
            state = blr_step(blr_init(fam, random_lam(rng, fam)), loss, cfg)
            err = (float(np.max(np.abs(state.lam.coords - target)))
                   / max(1.0, float(np.max(np.abs(target)))))
            worst_err = max(worst_err, err)
            assert err <= 1e-10
        res = fixed_point_residual(fam, state.lam, loss, EXACT)
        worst_res = max(worst_res, res)
        assert res <= 1e-10
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(4, "one rate-1 step reaches the exact conjugate posterior",
           f"100 ridge instances x 5 starts, max err {worst_err:.2e}, "
           f"max residual {worst_res:.2e}, {elapsed:.1f}s")


def test_criterion_05_multiplicative_form_every_step():
    runs = 0
    worst = 0.0
    # exact full-covariance, several rates
    for rate in (0.3, 0.7, 1.0):
        model = make_ridge_data(1100 + int(rate * 10), 25, 3)
        fam = FullGaussian(3)
        run = blr_run(fam, fam.from_moment(np.zeros(3), np.eye(3)),
                      ridge_loss(model), BLRConfig(rate, 40, estimator=EXACT))
        assert run.filter_spreads.size == run.state.t > 0, "a step went unchecked"
        worst = max(worst, run.filter_spreads.max())
        runs += 1
    # delta estimator on a non-conjugate loss
    logistic = make_logistic_data(1105, 50, 2)
    fam = FullGaussian(2)
    run = blr_run(fam, fam.from_moment(np.zeros(2), np.eye(2)), logistic,
                  BLRConfig(0.5, 25, estimator=EstimatorSpec("delta")))
    assert run.filter_spreads.size == run.state.t
    worst = max(worst, run.filter_spreads.max())
    runs += 1
    # stochastic estimator on the diagonal family
    fam_d = DiagGaussian(2)
    run = blr_run(fam_d, fam_d.from_moment(np.zeros(2), np.ones(2)), logistic,
                  BLRConfig(0.2, 25, estimator=EstimatorSpec("mc", 4, seed=3)))
    assert run.filter_spreads.size == run.state.t
    worst = max(worst, run.filter_spreads.max())
    runs += 1
    assert worst <= 1e-8
    report(5, "the Bayes-filter form holds on every step of every run",
           f"{runs} runs, max probe spread {worst:.2e} (tol 1e-8)")


def test_criterion_06_mirror_descent_equivalence():
    start = time.time()
    rng = make_rng(1006)
    worst = 0.0
    for _ in range(50):
        fam, lam_t = random_instance(rng, max_dim=2)
        tilde = random_lam(rng, fam)
        rate = float(rng.uniform(0.05, 1.0))
        numeric = mirror_descent_step_numeric(fam, lam_t, tilde, rate)
        closed = (1.0 - rate) * lam_t + rate * tilde
        err = (float(np.max(np.abs(numeric - closed)))
               / max(1.0, float(np.max(np.abs(closed)))))
        worst = max(worst, err)
        assert err < 1e-6
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(6, "numeric mirror-descent argmin equals the closed-form step",
           f"50 instances, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_07_newton_recovery():
    rng = make_rng(1007)
    # quadratic: one-step convergence, and iterates match exactly
    p = 3
    a = rng.standard_normal((p, p))
    quad_loss = QuadraticLoss(a @ a.T + np.eye(p), rng.standard_normal(p))
    optimum = np.linalg.solve(quad_loss.quad, quad_loss.lin)
    fam = FullGaussian(p)
    cfg = BLRConfig(1.0, 1, estimator=EstimatorSpec("delta"))
    worst = 0.0
    for scenario, loss, mean0, steps in (
            ("quadratic", quad_loss, rng.standard_normal(p), 10),
            ("logistic", make_logistic_data(1207, 60, 2), np.zeros(2), 10)):
        fam_s = FullGaussian(loss.dim)
        mean = mean0
        state = blr_init(fam_s, fam_s.from_moment(mean0, np.eye(loss.dim)))
        for k in range(steps):
            mean, prec = newton_recovery_step(loss, mean)
            state = blr_step(state, loss, cfg)
            err = max(float(np.max(np.abs(fam_s.to_mean_cov(state.lam)[0] - mean))),
                      float(np.max(np.abs(fam_s.natural(state.lam).derived.prec - prec))))
            worst = max(worst, err)
            assert err <= 1e-10
            if scenario == "quadratic" and k == 0:
                np.testing.assert_allclose(mean, optimum, rtol=1e-10, atol=1e-12)
    report(7, "rate-1 delta-method steps are exactly Newton steps",
           f"10 iterates on quadratic and logistic, max err {worst:.2e}")


def test_criterion_08_fenchel_view():
    rng = make_rng(1008)
    worst_stat, worst_ent = 0.0, 0.0
    for trial in range(100):
        n, p = int(rng.integers(2, 50)), int(rng.integers(1, 6))
        model = make_ridge_data(7000 + trial, n, p)
        fam = FullGaussian(p)
        lam_lik, lam_prior = ridge_natural_coefficients(model)
        lam_star = conjugate_posterior(fam, lam_lik, lam_prior).coords
        mu_star = fam.natural_to_dual(lam_star)
        # stationarity: -(lik + prior) + grad A*(mu*) = 0, grad A* = dual_to_natural
        gap = -(lam_lik + lam_prior) + fam.dual_to_natural(mu_star)
        stat = float(np.max(np.abs(gap))) / max(1.0, float(np.max(np.abs(lam_star))))
        worst_stat = max(worst_stat, stat)
        assert stat <= 1e-10
        ent = abs(fam.entropy(lam_star) + fam.fenchel_conjugate(mu_star))
        worst_ent = max(worst_ent, ent)
        assert ent <= 1e-10
    report(8, "conjugate optima satisfy the convex-dual stationarity condition",
           f"100 instances, max gaps {worst_stat:.2e} / {worst_ent:.2e}")


def test_criterion_09_reparam_estimator_unbiased():
    rng = make_rng(1009)
    p = 4
    curv = rng.uniform(0.4, 3.0, p)
    loss = QuadraticLoss(np.diag(curv), rng.standard_normal(p))
    fam = DiagGaussian(p)
    lam = fam.from_moment(rng.standard_normal(p), rng.uniform(0.4, 2.0, p))
    factor = fam.natural(lam).derived
    lin, prec = factor.lin, factor.prec
    mean = lin / prec
    draws = fam.sample(lam, 1_000_000, make_rng(1010))
    grads = draws * curv - loss.lin
    estimates = grads * prec * (draws - mean)
    avg = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    z = np.abs(avg - curv) / se
    assert np.all(z < 3.0)
    report(9, "reparameterization Hessian estimator is unbiased per coordinate",
           f"1e6 samples, max |z| = {z.max():.2f} (tol 3 SE)")


def test_criterion_10_von_reaches_quadrature_optimum():
    start = time.time()
    loss = make_logistic_data(21, 100, 2)
    fam = DiagGaussian(2)

    def objective(z):
        mean, prec = z[:2], np.exp(z[2:])
        expected = gaussian_expectation(lambda ts: loss.value_batch(ts),
                                        mean, np.diag(1.0 / prec), n_nodes=40)
        return expected - fam.entropy(fam.from_moment(mean, prec))

    search = minimize(objective, np.zeros(4), method="L-BFGS-B",
                      options={"ftol": 1e-14, "gtol": 1e-10})
    optimum = vb_objective(fam, fam.from_moment(search.x[:2], np.exp(search.x[2:])),
                           loss)
    cfg = {
        "schema_version": 1, "seed": 77,
        "model": {"kind": "logistic", "n": 100, "p": 2, "data_seed": 21},
        "optimizer": {"kind": "von", "learning_rate": 0.1, "steps": 500,
                      "n_samples": 4},
    }
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        summary = run_experiment(cfg, tmp)
    gap = (summary["final_objective"] - optimum) / abs(optimum)
    elapsed = time.time() - start
    assert gap < 0.02
    assert elapsed < 60.0
    report(10, "VON on 2-D logistic regression reaches the quadrature optimum",
           f"500 steps, relative gap {gap:.2e} (tol 2e-2), {elapsed:.1f}s")


def test_criterion_11_ivon_positivity_and_no_sqrt():
    rng = make_rng(1011)
    total_steps = 0
    min_prec = np.inf
    for trial in range(3):
        p = int(rng.integers(2, 6))
        loss = QuadraticLoss(np.diag(rng.uniform(0.1, 5.0, p)),
                             rng.standard_normal(p))
        state = ivon_init(rng.standard_normal(p), step_size=0.2,
                          hess_init=float(rng.uniform(0.1, 1.0)),
                          hess_rate=float(rng.uniform(0.3, 0.95)),
                          weight_decay=1e-4, ess=float(rng.uniform(1.0, 10.0)),
                          seed=trial)
        for _ in range(4000):
            state = ivon_step(state, loss)
            min_prec = min(min_prec, float(np.min(state.hess + state.weight_decay)))
            total_steps += 1
    assert total_steps >= 10_000
    assert min_prec > 0.0
    # structural probe through ivon_step: sampled at the mean (Hessian
    # estimate 0), scale 4 quarters the mean's move (no square root)
    unit = QuadraticLoss(np.eye(1), np.array([-1.0]))
    moves = []
    for hess0 in (1.0, 4.0):
        probe = ivon_init(np.zeros(1), step_size=1.0, hess_init=hess0, weight_decay=0.0)
        moves.append(ivon_step(probe, unit, theta_sample=probe.mean).mean[0])
    assert moves[1] / moves[0] == 0.25
    report(11, "posterior precision stays positive through the retraction; "
               "mean update has no square root",
           f"{total_steps} cumulative steps, min(h+delta0) = {min_prec:.2e}")


def test_criterion_12_ivon_adam_parity_on_spirals():
    start = time.time()
    steps, batch = 5000, 100
    adam_losses, ivon_losses = [], []
    adam_time = ivon_time = 0.0
    for seed in range(5):
        mlp = make_spirals_mlp(seed=seed, noise=0.05)
        theta0 = mlp.init_params(seed + 100)
        rec = train(adam_init(theta0, step_size=3e-3), mlp, steps,
                    batch_size=batch, seed=seed)
        adam_losses.append(mlp.mean_data_loss(rec.final_state.theta))
        adam_time += rec.wall_time_s
        rec = train(ivon_init(theta0, step_size=0.3, hess_init=1.0,
                              hess_rate=3e-3, weight_decay=1e-2, ess=3e4,
                              seed=seed + 200),
                    mlp, steps, batch_size=batch, seed=seed)
        ivon_losses.append(mlp.mean_data_loss(rec.final_state.mean))
        ivon_time += rec.wall_time_s
    adam_med = float(np.median(adam_losses))
    ivon_med = float(np.median(ivon_losses))
    elapsed = time.time() - start
    assert adam_med <= 0.2
    assert ivon_med <= 0.2
    assert ivon_med <= 1.1 * adam_med
    ratio = max(ivon_time / adam_time, adam_time / ivon_time)
    assert ratio < 2.0
    assert elapsed < 300.0
    report(12, "IVON matches or beats Adam on the two-spirals task",
           f"medians over 5 seeds: ivon {ivon_med:.4f} vs adam {adam_med:.4f}, "
           f"runtime ratio {ratio:.2f}, {elapsed:.0f}s")


def test_criterion_13_byte_for_byte_determinism(tmp_path):
    configs = [
        {"schema_version": 1, "seed": 7,
         "model": {"kind": "logistic", "n": 80, "p": 2, "data_seed": 4},
         "optimizer": {"kind": "von", "learning_rate": 0.1, "steps": 60,
                       "n_samples": 4}},
        {"schema_version": 1, "seed": 8,
         "model": {"kind": "spirals_mlp", "n": 120, "hidden": [8, 8],
                   "noise": 0.05, "data_seed": 1},
         "optimizer": {"kind": "ivon", "steps": 80, "step_size": 0.2,
                       "ess": 1000.0, "batch_size": 40}},
        {"schema_version": 1, "seed": 9,
         "model": {"kind": "ridge", "n": 25, "p": 3, "data_seed": 2},
         "optimizer": {"kind": "blr", "family": "full", "learning_rate": 0.4,
                       "max_iter": 30, "estimator": "exact"}},
    ]
    for idx, cfg in enumerate(configs):
        run_experiment(cfg, tmp_path / f"{idx}a")
        run_experiment(cfg, tmp_path / f"{idx}b")
        first = (tmp_path / f"{idx}a" / "trace.csv").read_bytes()
        second = (tmp_path / f"{idx}b" / "trace.csv").read_bytes()
        assert first == second
    report(13, "identical config and seed replay traces byte for byte",
           f"{len(configs)} optimizer kinds checked")
