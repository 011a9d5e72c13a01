"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here, taken verbatim from the criterion it implements.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from lqminimax.ballgeom import (
    hamming_packing,
    required_hamming_cardinality,
    rescale_hypercube_packing,
    truncation_inequality,
)
from lqminimax.bounds import (
    RateQuery,
    chi_square_tails,
    minimax_rate,
    sup_correlation_exact,
    sup_correlation_pred_exact,
)
from lqminimax.conditions import REParams, re_constant, sparse_spectrum, verify_prop1
from lqminimax.estimators import l0_least_squares, l1_constrained_ls
from lqminimax.harness import (
    ExperimentConfig,
    corollary1_experiment,
    counterexample_scenario,
    fit_rate_slope,
    min_l1_interpolant,
    run_risk_experiment,
)
from lqminimax.linmodel import BallSpec, DesignSpec, LossSpec

SEED = 20260808


@pytest.fixture(scope="module")
def q0_run():
    # shared by criteria 2 and 4: standard Gaussian, s=4, d=32, sigma=1,
    # 50 trials per cell, exact l0 estimator; l1 and l4 losses for criterion 2
    cfg = ExperimentConfig(
        ball=BallSpec(0.0, 4), sigma=1.0, n_grid=(100, 200, 400, 800, 1600),
        estimator={"kind": "l0", "s": 4}, d_rule=("fixed", 32),
        trials_per_cell=50, seed_root=SEED,
        losses=(LossSpec.l2(), LossSpec.prediction(), LossSpec("lp", 1.0), LossSpec("lp", 4.0)))
    return run_risk_experiment(cfg)


def test_criterion_01_counterexample_exactness():
    start = time.perf_counter()
    report = counterexample_scenario()
    assert report.kernel_ok and report.cone_ok
    assert report.l0_recovery_ok and report.l1_failure_ok
    l0_err = np.linalg.norm(np.array(report.beta_l0) - np.array([1.0, 0.0, 0.0]))
    assert l0_err <= 1e-10
    target = np.array([0.0, -1.0 / 3.0, -1.0 / 3.0])
    assert np.max(np.abs(np.array(report.beta_min_l1) - target)) <= 1e-6
    assert abs(report.min_l1_norm - 2.0 / 3.0) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: all four checks true, l0 error {l0_err:.1e}, "
          f"min-l1 norm {report.min_l1_norm:.8f}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_q0_l2_rate_shape(q0_run):
    fit = fit_rate_slope(q0_run.records, "l2", "n", q=0.0)
    assert -1.15 <= fit.slope <= -0.85
    assert fit.r_squared >= 0.95
    # the lp risk decays as n^{-p/2} at q = 0; the band is l2's, within 15% of theory
    lp = {name: fit_rate_slope(q0_run.records, name, "n", q=0.0) for name in ("l1", "l4")}
    for name, theory in (("l1", -0.5), ("l4", -2.0)):
        assert lp[name].theoretical_slope == theory
        assert abs(lp[name].slope - theory) <= 0.15 * abs(theory), name
    print(f"\nACCEPTANCE 2 PASS: q=0 l2 slope {fit.slope:.4f} in [-1.15, -0.85], "
          f"r^2 {fit.r_squared:.4f} >= 0.95; l1 {lp['l1'].slope:.4f} within 15% of -0.5, "
          f"l4 {lp['l4'].slope:.4f} within 15% of -2")


def test_criterion_03_q1_l2_rate_shape():
    # R1 = 4 fixed on the same n-grid; the dimension grows with n (d = n/2)
    # and spikes sit at the detection threshold, since with d frozen at 32
    # the ball's slow rate is absent for every beta (risk falls back to the
    # parametric d/n decay once n >> d).  See the decisions ledger.
    cfg = ExperimentConfig(
        ball=BallSpec(1.0, 4.0), sigma=1.0, n_grid=(100, 200, 400, 800, 1600),
        estimator={"kind": "l1", "radius": 4.0, "max_iter": 3000, "tol": 1e-6},
        d_rule=("proportional", 0.5), trials_per_cell=50,
        beta_magnitude_rule="threshold_logd", seed_root=SEED,
        losses=(LossSpec.l2(), LossSpec.prediction(), LossSpec("lp", 1.5), LossSpec("lp", 4.0)))
    run = run_risk_experiment(cfg)
    fit = fit_rate_slope(run.records, "l2", "n", q=1.0)
    assert -0.65 <= fit.slope <= -0.35
    assert fit.r_squared >= 0.9
    # the lp risk is R1 (log d / n)^{(p - 1)/2}, slope p - 1 against R1 (log d / n)^{1/2}
    # (d grows with n, so not against n); the band is l2's, within 30% of theory
    lp = {name: fit_rate_slope(run.records, name, "rq_logd_n_pow", q=1.0, radius=4.0)
          for name in ("l1.5", "l4")}
    for name, theory in (("l1.5", 0.5), ("l4", 3.0)):
        assert lp[name].theoretical_slope == theory
        assert abs(lp[name].slope - theory) <= 0.3 * theory, name
    print(f"\nACCEPTANCE 3 PASS: q=1 l2 slope {fit.slope:.4f} in [-0.65, -0.35], "
          f"r^2 {fit.r_squared:.4f} >= 0.9; against R1 (log d / n)^(1/2), "
          f"l1.5 {lp['l1.5'].slope:.4f} within 30% of 0.5, l4 {lp['l4'].slope:.4f} within 30% of 3")


def test_criterion_04_prediction_rate_shape(q0_run):
    fit = fit_rate_slope(q0_run.records, "pred", "n", q=0.0)
    assert -1.15 <= fit.slope <= -0.85
    print(f"\nACCEPTANCE 4 PASS: q=0 prediction slope {fit.slope:.4f} "
          f"in [-1.15, -0.85]")


def test_criterion_05_sequence_model():
    fit = corollary1_experiment((256, 512, 1024, 2048), tau=1.0,
                                ball=BallSpec(0.0, 5), trials_per_cell=50,
                                seed_root=SEED)
    assert abs(fit.slope - 1.0) <= 0.2
    print(f"\nACCEPTANCE 5 PASS: sequence-model slope {fit.slope:.4f} "
          f"within 0.2 of 1 (r^2 {fit.r_squared:.4f})")


def test_criterion_06_hamming_packing():
    checked = 0
    for s in (2, 4):
        for d in range(s, 13):
            packing = hamming_packing(d, s)
            bound = required_hamming_cardinality(d, s)
            assert packing.cardinality >= bound
            pts = packing.points
            m = packing.cardinality
            for i in range(m):
                if i + 1 < m:
                    dists = np.count_nonzero(pts[i + 1:] != pts[i], axis=1)
                    assert dists.min() >= s / 2
            delta_n = 0.75
            scaled = rescale_hypercube_packing(packing, delta_n, s)
            sp = scaled.points
            for i in range(m):
                if i + 1 < m:
                    sq = np.sum((sp[i + 1:] - sp[i]) ** 2, axis=1)
                    assert sq.min() >= delta_n**2 - 1e-12
                    assert sq.max() <= 8 * delta_n**2 + 1e-12
            checked += 1
    print(f"\nACCEPTANCE 6 PASS: {checked} (d, s) packings verified exhaustively, "
          f"cardinality bounds and rescaled certificates all hold")


def test_criterion_07_truncation_inequality():
    rng = np.random.default_rng(SEED)
    total = 0
    for q in (0.25, 0.5, 0.75, 1.0):
        rq = 1.5
        violations = 0
        for _ in range(10_000):
            theta = rng.standard_normal(15) * rng.uniform(0.02, 3.0)
            qmass = np.sum(np.abs(theta) ** q)
            if qmass > 2 * rq:
                theta *= (2 * rq / qmass) ** (1.0 / q) * rng.uniform(0.2, 1.0)
            tau = float(rng.uniform(0.005, 8.0))
            if not truncation_inequality(theta, rq, q, tau).holds:
                violations += 1
        assert violations == 0
        total += 10_000
    print(f"\nACCEPTANCE 7 PASS: truncation inequality held on {total} random "
          f"feasible draws across q in {{0.25, 0.5, 0.75, 1}}")


def test_criterion_08_random_design_bounds():
    d = 400
    for label, cov in (("identity", np.eye(d)),
                       ("spiked", np.diag([4.0] + [1.0] * (d - 1)))):
        spec = DesignSpec("correlated_gaussian", n=200, d=d, seed=SEED,
                          sigma_cov=cov)
        report = verify_prop1(spec, n_draws=10, n_directions=1000, seed=SEED)
        assert report.lower_violations == 0, label
        assert report.upper_violations == 0, label
        assert report.n_checks == 10_000
    print("\nACCEPTANCE 8 PASS: 0 violations of either curvature bound over "
          "2 covariances x 10 designs x 1000 directions")


def test_criterion_09_chi_square_tails():
    rng = np.random.default_rng(SEED)
    n_draws = 100_000
    for m, x in ((10, 1.0), (50, 2.0), (20, 1.0)):
        tails = chi_square_tails(m, x)
        z = rng.chisquare(m, size=n_draws)
        for freq, bound in (
            (np.mean(z >= tails.upper_threshold), tails.upper_dev_bound),
            (np.mean(z <= tails.lower_threshold), tails.lower_dev_bound),
        ):
            slack = 3.0 * math.sqrt(bound * (1 - bound) / n_draws)
            assert freq <= bound + slack, (m, x, freq, bound)
        if tails.simplified_valid:
            freq = np.mean(z >= tails.simplified_threshold)
            bound = tails.simplified_4t_bound
            assert freq <= bound + 3.0 * math.sqrt(max(bound * (1 - bound), 1e-12) / n_draws)
    print(f"\nACCEPTANCE 9 PASS: chi-square tail frequencies within bounds "
          f"+ 3 binomial SEs at {n_draws} draws for (m,x) in "
          "{(10,1), (50,2), (20,1)}")


def test_criterion_10_condition_ordering():
    n, d, s = 60, 10, 2
    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        X = rng.standard_normal((n, d))
        # kappa_l over B_0(2) = B_0(s): sparse_spectrum measures at level 2*arg
        kappa_l, _ = sparse_spectrum(X, s=1)
        for c0 in (1.0, 3.0):
            est = re_constant(X, REParams(s=s, c0=c0), mode="sampled",
                              n_samples=400, seed=seed)
            assert est.method == "sampled_upper"
            assert est.value <= kappa_l + 1e-12, (seed, c0)
            checked += 1
    print(f"\nACCEPTANCE 10 PASS: sampled RE <= exact sparse-level kappa_l in "
          f"{checked}/{checked} runs")


def _independent_l0(X, y, s):
    best = math.inf
    for support in combinations(range(X.shape[1]), s):
        b, *_ = np.linalg.lstsq(X[:, support], y, rcond=None)
        r = y - X[:, support] @ b
        best = min(best, float(r @ r))
    return best


def test_criterion_11_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    for trial in range(100):
        d = int(rng.integers(5, 10))
        s = int(rng.integers(1, 3))
        n = int(rng.integers(6, 14))
        assert math.comb(d, s) <= 10_000
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        fast = l0_least_squares(X, y, s).objective
        brute = _independent_l0(X, y, s)
        assert abs(fast - brute) <= 1e-10 * max(brute, 1.0), trial

    # suprema oracles vs naive dense sampling from below, d <= 6
    for seed in range(3):
        rng = np.random.default_rng(seed)
        n, d, s, r = 12, 6, 1, 1.3
        X = rng.standard_normal((n, d))
        w = rng.standard_normal(n)
        exact = sup_correlation_exact(X, w, s, r)
        exact_pred = sup_correlation_pred_exact(X, w, s, r)
        best = best_pred = 0.0
        for _ in range(30_000):
            theta = np.zeros(d)
            sup = rng.choice(d, 2 * s, replace=False)
            theta[sup] = rng.standard_normal(2 * s)
            l2 = np.linalg.norm(theta)
            pred = np.linalg.norm(X @ theta) / math.sqrt(n)
            if l2 > 0:
                best = max(best, abs(w @ (X @ (theta * r / l2))) / n)
            if pred > 0:
                best_pred = max(best_pred, abs(w @ (X @ (theta * r / pred))) / n)
        assert best <= exact + 1e-12 and best >= 0.95 * exact
        assert best_pred <= exact_pred + 1e-10 and best_pred >= 0.95 * exact_pred
    print("\nACCEPTANCE 11 PASS: l0 matches the independent enumerator on 100 "
          "instances (rel diff <= 1e-10); suprema oracles dominate and are "
          "approached by dense sampling")


def test_invariant_risk_monotone_on_acceptance_grid(q0_run):
    # mean l2 risk of the exact l0 estimator is non-increasing in n,
    # allowing one Monte Carlo inversion per grid
    by_n = {}
    for rec in q0_run.records:
        by_n.setdefault(rec.n, []).append(rec.losses["l2"])
    means = [np.mean(by_n[n]) for n in sorted(by_n)]
    inversions = sum(b > a for a, b in zip(means, means[1:]))
    assert inversions <= 1
    print(f"\nHARNESS INVARIANT PASS: risk means {['%.4g' % m for m in means]} "
          f"with {inversions} inversion(s)")


def test_criterion_12_explicit_constants():
    t2a = minimax_rate(RateQuery("T2a", n=100, q=1.0, radius=1.0, sigma=1.0,
                                 d=math.e, kappa_c=1.0, kappa_l=1.0))
    assert abs(t2a - 2.4) <= 1e-12 * 2.4
    t4b = minimax_rate(RateQuery("T4b", n=100, q=0.0, radius=2.0, sigma=1.0, d=8))
    expected = 81 * 2 * math.log(4) / 100
    assert abs(t4b - expected) <= 1e-12 * expected
    print(f"\nACCEPTANCE 12 PASS: T2a -> {t2a} (2.4), "
          f"T4b -> {t4b} ({expected}), both at 1e-12 relative")
