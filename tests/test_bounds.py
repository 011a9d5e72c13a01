import math
import re
from itertools import combinations, product

import numpy as np
import pytest

from lqminimax.bounds import (
    THEOREMS,
    FanoParams,
    RateQuery,
    chi_square_tails,
    fano_error_bound,
    log_binomial,
    minimax_rate,
    rate_formula,
    sup_correlation_exact,
    sup_correlation_pred_exact,
)
from lqminimax.errors import DimensionError, ParameterError


class TestMinimaxRate:
    def test_t2a_hand_value(self):
        q = RateQuery("T2a", n=100, q=1.0, radius=1.0, sigma=1.0, d=math.e,
                      kappa_c=1.0, kappa_l=1.0)
        assert minimax_rate(q) == pytest.approx(2.4, rel=1e-12)

    def test_t4b_hand_value(self):
        q = RateQuery("T4b", n=100, q=0.0, radius=2.0, sigma=1.0, d=8)
        assert minimax_rate(q) == pytest.approx(81 * 2 * math.log(4) / 100, rel=1e-12)

    def test_exponent_continuity_at_q0(self):
        # T2a at q -> 0 shares the s log d / n shape of the plain q = 0 bound
        common = dict(n=400, d=64, radius=3.0, sigma=1.2, kappa_c=1.1, kappa_l=0.8)
        at_zero = minimax_rate(RateQuery("T2a", q=0.0, **common))
        near_zero = minimax_rate(RateQuery("T2a", q=1e-9, **common))
        assert near_zero == pytest.approx(at_zero, rel=1e-6)
        plain = minimax_rate(RateQuery("T2b_plain", q=0.0, **common))
        assert plain / at_zero == pytest.approx(6.0 / 24.0, rel=1e-9)

    def test_unspecified_constant_required(self):
        q = RateQuery("T1a", n=100, q=0.5, radius=1.0, sigma=1.0, d=32, kappa_c=1.0)
        with pytest.raises(ParameterError, match="constant"):
            minimax_rate(q)

    def test_missing_parameter_named(self):
        q = RateQuery("T2a", n=100, q=0.5, radius=1.0, sigma=1.0, d=32, kappa_c=1.0)
        with pytest.raises(ParameterError, match="kappa_l"):
            minimax_rate(q)

    def test_no_underflow_at_huge_n(self):
        q = RateQuery("T2a", n=10**15, q=0.5, radius=1.0, sigma=1.0, d=1000,
                      kappa_c=1.0, kappa_l=1.0)
        assert minimax_rate(q) > 0.0

    @pytest.mark.parametrize("theorem, params", [
        ("T2a", {"q": 5.0, "kappa_c": 1.0, "kappa_l": 1.0}),  # read 2829.74
        ("T2a", {"q": -0.5, "kappa_c": 1.0, "kappa_l": 1.0}),
        ("T4b", {"sigma": math.nan}),  # read nan
        ("T2a", {"radius": math.inf, "kappa_c": 1.0, "kappa_l": 1.0}),  # read inf
        ("T1a", {"p": math.inf, "kappa_c": 1.0}),  # read 0.0
        ("T1a", {"p": 0.2, "kappa_c": 1.0}),  # read 1.61
    ])
    def test_out_of_range_parameter_rejected(self, theorem, params):
        with pytest.raises(ParameterError):
            minimax_rate(RateQuery(theorem, n=100, d=32, constants={"c": 1.0}, **params))

    def test_formula_strings_exist(self):
        for name in ("T1a", "T2a", "T4b", "Cor1"):
            assert "log" in rate_formula(name)

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_formula_string_evaluates_to_the_rate(self, theorem):
        # each formula, read with ^ as **, names the parameters and gives the value
        # of its theorem's row; Rq and s stand for radius, tau for sigma
        formula = compile(rate_formula(theorem).replace("^", "**"), theorem, "eval")
        for n, d, q, radius, sigma, kappas, p, diam_term in product(
                (50, 400, 10**4), (64, 1000), (0.0, 0.5, 1.0), (1.5, 4.0), (0.5, 2.0),
                ((0.8, 0.6, 1.3), (1.2, 0.9, 2.0)), (1.0, 2.0, 3.0), (0.0, 0.02)):
            kappa_c, kappa_l, kappa_u = kappas
            params = dict(n=n, d=d, q=q, radius=radius, sigma=sigma, kappa_c=kappa_c,
                          kappa_l=kappa_l, kappa_u=kappa_u, p=p, diam_term=diam_term)
            value = minimax_rate(RateQuery(theorem, constants={"c": 1.7}, **params))
            names = dict(params, Rq=radius, s=radius, tau=sigma, c=1.7, log=math.log, max=max)
            assert eval(formula, {"__builtins__": {}}, names) == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("theorem, params, term", [
        ("T1b", dict(d=3, radius=4.0, kappa_u=1.0), "d/s"),
        ("T2b_sharp", dict(d=2, radius=2.0, kappa_u=1.0, kappa_l=1.0), "d/s"),
        ("T3b", dict(d=2, radius=3.0, kappa_u=1.0, kappa_l=1.0), "d/s"),
        ("T4b", dict(d=8, radius=8.0), "d/s"),
        ("T1a", dict(d=1, kappa_c=1.0), "d"),
        ("T2a", dict(d=0.5, kappa_c=1.0, kappa_l=1.0), "d"),
        ("T2b_plain", dict(d=0, kappa_c=1.0, kappa_l=1.0), "d"),
        ("T3a", dict(d=-2, kappa_c=1.0, kappa_l=1.0), "d"),
        ("T4a", dict(d=1, kappa_c=1.0), "d"),
    ])
    def test_degenerate_log_term_named(self, theorem, params, term):
        q = RateQuery(theorem, n=100, constants={"c": 1.0}, **params)
        with pytest.raises(ParameterError, match=f"log {re.escape(term)} must be positive, "
                                                 f"got {re.escape(term)} = "):
            minimax_rate(q)

    def test_cor1_needs_n_above_one(self):
        q = RateQuery("Cor1", n=1, constants={"c": 1.0})
        with pytest.raises(ParameterError, match="log n must be positive, got n = 1"):
            minimax_rate(q)

    def test_constant_error_before_missing_parameter(self):
        with pytest.raises(ParameterError, match="constant"):
            minimax_rate(RateQuery("T3b", n=100))
        with pytest.raises(ParameterError, match="'d'"):
            minimax_rate(RateQuery("T3b", n=100, constants={"c": 1.0}))

    def test_lower_below_upper_on_grid(self):
        # lower bounds (constants 1) never exceed the matching upper bounds
        # whenever kappa_l <= kappa_c <= kappa_u; diam and f_l vanish
        for n, d, sigma, kl, kc in product((100, 1000), (64, 256), (0.5, 2.0),
                                           (0.3, 0.9), (1.0, 1.4)):
            ku = kc * 1.2
            for q, radius in ((0.0, 4.0), (0.5, 2.0), (1.0, 1.0)):
                common = dict(n=n, d=d, sigma=sigma, radius=radius, q=q)
                lower_a = minimax_rate(RateQuery("T1a", constants={"c": 1.0},
                                                 kappa_c=kc, **common))
                upper_a = minimax_rate(RateQuery("T2a", kappa_c=kc, kappa_l=kl,
                                                 **common))
                assert lower_a <= upper_a + 1e-12
                lower_pred = minimax_rate(RateQuery("T3a", constants={"c": 1.0},
                                                    kappa_c=kc, kappa_l=kl, **common))
                upper_pred = minimax_rate(RateQuery("T4a", constants={"c": 1.0},
                                                    kappa_c=kc, **common))
                assert lower_pred <= upper_pred + 1e-12
            zero = dict(n=n, d=d, sigma=sigma, radius=4.0, q=0.0)
            lower_b = minimax_rate(RateQuery("T1b", constants={"c": 1.0},
                                             kappa_u=ku, **zero))
            upper_b = minimax_rate(RateQuery("T2b_sharp", kappa_u=ku, kappa_l=kl,
                                             **zero))
            assert lower_b <= upper_b + 1e-12
            lower_pb = minimax_rate(RateQuery("T3b", constants={"c": 1.0},
                                              kappa_u=ku, kappa_l=kl, **zero))
            upper_pb = minimax_rate(RateQuery("T4b", **zero))
            assert lower_pb <= upper_pb + 1e-12

    def test_t1b_t2b_sharp_constant_ratio(self):
        # both share the s log(d/s)/n shape at p = 2: the ratio must not
        # depend on (n, s, d)
        ratios = set()
        for n, d, s in product((100, 400), (64, 128), (2.0, 4.0)):
            common = dict(sigma=1.3, kappa_u=1.5, q=0.0, radius=s)
            lower = minimax_rate(RateQuery("T1b", n=n, d=d, constants={"c": 1.0},
                                           **common))
            upper = minimax_rate(RateQuery("T2b_sharp", n=n, d=d, kappa_l=0.7,
                                           **common))
            ratios.add(round(upper / lower, 9))
        assert len(ratios) == 1

    def test_cor1_matches_t1a_t2a_substitution(self):
        # sequence model: d = n, X = sqrt(n) I and sigma = tau, so each kappa
        # is 1; the ratios to the Cor1 value are then n-independent.  The
        # rescaled view X = I, sigma = tau / sqrt(n), kappas 1 / sqrt(n) gives
        # the same rates.
        for tau in (0.5, 1.0, 2.0):
            upper_ratios, lower_ratios = [], []
            for n in (64, 256, 1024):
                seq = dict(n=n, d=float(n), q=0.5, radius=1.0, sigma=tau)
                t2a = minimax_rate(RateQuery("T2a", kappa_c=1.0, kappa_l=1.0, **seq))
                t1a = minimax_rate(RateQuery("T1a", kappa_c=1.0,
                                             constants={"c": 1.0}, **seq))
                kap = 1.0 / math.sqrt(n)
                unit = dict(seq, sigma=tau * kap)
                assert minimax_rate(RateQuery("T2a", kappa_c=kap, kappa_l=kap, **unit)) == \
                    pytest.approx(t2a, rel=1e-12)
                assert minimax_rate(RateQuery("T1a", kappa_c=kap, constants={"c": 1.0},
                                              **unit)) == pytest.approx(t1a, rel=1e-12)
                cor = minimax_rate(RateQuery("Cor1", n=n, q=0.5, radius=1.0,
                                             sigma=tau, constants={"c": 1.0}))
                upper_ratios.append(t2a / cor)
                lower_ratios.append(t1a / cor)
            assert max(upper_ratios) == pytest.approx(min(upper_ratios), rel=1e-9)
            assert max(lower_ratios) == pytest.approx(min(lower_ratios), rel=1e-9)


class TestFano:
    def test_half_in_trivial_case(self):
        p = FanoParams(delta_n=1.0, epsilon_n=1e-12, log_pack=math.log(4),
                       log_cover=0.0, n=1, sigma=1e9, kappa_c=1e-12)
        assert fano_error_bound(p) == pytest.approx(0.5)

    def test_quarter_at_saturated_relations(self):
        # log_pack = 4 log N, info term = log N, log N >= log 2 gives >= 1/4
        for log_n2 in (math.log(2.0), 1.0, 3.0, 10.0):
            eps, sigma, kc, n = 0.3, 1.0, 1.0, 7
            c_route = log_n2 * sigma**2 / (n * kc**2 * eps**2)
            p = FanoParams(delta_n=1.0, epsilon_n=eps, log_pack=4 * log_n2,
                           log_cover=log_n2, n=n, sigma=sigma, kappa_c=kc,
                           c_route=c_route)
            assert fano_error_bound(p) >= 0.25 - 1e-12

    def test_clamped_to_zero(self):
        p = FanoParams(delta_n=1.0, epsilon_n=10.0, log_pack=0.1,
                       log_cover=5.0, n=100, sigma=0.1, kappa_c=2.0)
        assert fano_error_bound(p) == 0.0

    def test_log_pack_must_be_positive(self):
        with pytest.raises(ParameterError):
            FanoParams(delta_n=1.0, epsilon_n=1.0, log_pack=0.0, log_cover=0.0,
                       n=1, sigma=1.0, kappa_c=1.0)


class TestChiSquareTails:
    def test_thresholds_m10_x1(self):
        ct = chi_square_tails(10, 1.0)
        assert ct.upper_threshold == pytest.approx(10 + 2 * math.sqrt(10) + 2)
        assert ct.upper_dev_bound == pytest.approx(math.exp(-1))

    def test_monte_carlo_below_bound(self):
        ct = chi_square_tails(10, 1.0)
        rng = np.random.default_rng(0)
        z = rng.chisquare(10, size=100_000)
        freq_up = np.mean(z >= ct.upper_threshold)
        freq_down = np.mean(z <= ct.lower_threshold)
        assert freq_up <= ct.upper_dev_bound + 0.01
        assert freq_down <= ct.lower_dev_bound + 0.01

    def test_vacuous_as_x_vanishes(self):
        ct = chi_square_tails(5, 1e-12)
        assert ct.upper_dev_bound == pytest.approx(1.0)
        assert ct.lower_dev_bound == pytest.approx(1.0)

    def test_simplified_t1_m20(self):
        ct = chi_square_tails(20, 1.0)
        assert ct.simplified_valid
        assert ct.simplified_threshold == pytest.approx(100.0)
        assert ct.simplified_4t_bound == pytest.approx(math.exp(-20))
        rng = np.random.default_rng(1)
        z = rng.chisquare(20, size=1_000_000)
        assert np.count_nonzero(z >= 100.0) == 0

    def test_simplified_invalid_below_one(self):
        assert not chi_square_tails(10, 0.5).simplified_valid


class TestSupCorrelation:
    def test_orthogonal_noise_is_zero(self):
        X = np.zeros((4, 3))
        X[:2, 0] = 1.0
        w = np.array([0.0, 0.0, 1.0, -1.0])
        assert sup_correlation_exact(X, w, s=1, r=2.0) == 0.0

    def test_single_support_closed_form(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 4))
        w = rng.standard_normal(10)
        val = sup_correlation_exact(X, w, s=2, r=1.5)  # 2s = d: one support
        assert val == pytest.approx(1.5 / 10 * np.linalg.norm(X.T @ w), rel=1e-12)

    def test_matches_support_enumeration(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 7))
        w = rng.standard_normal(12)
        val = sup_correlation_exact(X, w, s=1, r=0.9)
        brute = max(0.9 / 12 * np.linalg.norm(X[:, list(S)].T @ w)
                    for S in combinations(range(7), 2))
        assert val == pytest.approx(brute, rel=1e-12)

    def test_homogeneous_in_r_and_w(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((9, 5))
        w = rng.standard_normal(9)
        base = sup_correlation_exact(X, w, 1, 1.0)
        assert sup_correlation_exact(X, w, 1, 3.0) == pytest.approx(3 * base)
        assert sup_correlation_exact(X, 2 * w, 1, 1.0) == pytest.approx(2 * base)

    def test_sampled_candidates_never_exceed(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 6))
        w = rng.standard_normal(10)
        val = sup_correlation_exact(X, w, s=1, r=1.0)
        for _ in range(5000):
            theta = np.zeros(6)
            sup = rng.choice(6, 2, replace=False)
            theta[sup] = rng.standard_normal(2)
            theta /= max(np.linalg.norm(theta), 1e-12)
            assert abs(w @ (X @ theta)) / 10 <= val + 1e-12

    def test_lemma6_bound_mostly_holds(self):
        # exact supremum vs the 6 sigma r kappa_u sqrt(s log(d/s)/n) bound
        from lqminimax.conditions import sparse_spectrum

        rng = np.random.default_rng(6)
        n, d, s, sigma, r = 50, 20, 2, 1.0, 1.3
        X = rng.standard_normal((n, d))
        _, ku = sparse_spectrum(X, s)
        bound = 6 * sigma * r * ku * math.sqrt(s * math.log(d / s) / n)
        hits = sum(
            sup_correlation_exact(X, sigma * rng.standard_normal(n), s, r) <= bound
            for _ in range(100)
        )
        assert hits >= 95


class TestSupCorrelationPred:
    def test_orthogonal_noise_zero(self):
        X = np.zeros((4, 2))
        X[:2, 0] = 1.0
        X[:2, 1] = (1.0, -1.0)
        w = np.array([0.0, 0.0, 2.0, 1.0])
        assert sup_correlation_pred_exact(X, w, s=1, r=1.0) == 0.0

    def test_scaled_identity_closed_form(self):
        n = 9
        X = math.sqrt(n) * np.eye(n)
        rng = np.random.default_rng(7)
        w = rng.standard_normal(n)
        # 2s = d: the projection is the identity, so the sup is r ||w|| / sqrt(n)
        val = sup_correlation_pred_exact(X, w, s=n // 2 + 1, r=0.7)
        assert val == pytest.approx(0.7 * np.linalg.norm(w) / math.sqrt(n), rel=1e-12)

    def test_matches_qr_enumeration(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((12, 6))
        w = rng.standard_normal(12)
        val = sup_correlation_pred_exact(X, w, s=1, r=1.1)
        brute = 0.0
        for S in combinations(range(6), 2):
            Q, _ = np.linalg.qr(X[:, list(S)])
            brute = max(brute, 1.1 * np.linalg.norm(Q.T @ w) / math.sqrt(12))
        assert val == pytest.approx(brute, rel=1e-12)

    def test_sampled_candidates_never_exceed(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((10, 6))
        w = rng.standard_normal(10)
        r = 0.8
        val = sup_correlation_pred_exact(X, w, s=1, r=r)
        for _ in range(5000):
            theta = np.zeros(6)
            sup = rng.choice(6, 2, replace=False)
            theta[sup] = rng.standard_normal(2)
            pred_norm = np.linalg.norm(X @ theta) / math.sqrt(10)
            if pred_norm == 0.0:
                continue
            theta *= r / pred_norm
            assert abs(w @ (X @ theta)) / 10 <= val + 1e-10

    def test_lemma8_bound_rarely_exceeded(self):
        rng = np.random.default_rng(10)
        n, d, s, sigma, r = 40, 12, 2, 1.0, 1.0
        X = rng.standard_normal((n, d))
        bound = 9 * r * sigma * math.sqrt(s * math.log(d / s) / n)
        exceed = sum(
            sup_correlation_pred_exact(X, sigma * rng.standard_normal(n), s, r) > bound
            for _ in range(200)
        )
        assert exceed == 0


@pytest.mark.parametrize("X_shape, w_shape", [((6, 4), (6, 1)), ((6, 4), (5,)), ((6,), (6,))])
@pytest.mark.parametrize("sup", [sup_correlation_exact, sup_correlation_pred_exact])
def test_sup_correlation_misshaped_input_rejected(sup, X_shape, w_shape):
    X = np.random.default_rng(11).standard_normal(X_shape)
    with pytest.raises(DimensionError, match="X must be 2-D|w has shape"):
        sup(X, np.ones(w_shape), s=1, r=1.0)


class TestLogBinomial:
    def test_zero(self):
        out = log_binomial(10, 0)
        assert out.value == 0.0 and out.lower == 0.0

    def test_d8_s2(self):
        out = log_binomial(8, 2)
        assert out.value == pytest.approx(math.log(28), rel=1e-12)
        assert out.lower == pytest.approx(2 * math.log(4))
        assert out.upper == pytest.approx(2 * math.log(4 * math.e))
        assert out.lower <= out.value <= out.upper

    def test_symmetry(self):
        assert log_binomial(12, 3).value == pytest.approx(log_binomial(12, 9).value)

    def test_matches_scipy_gammaln(self):
        # math.lgamma against scipy's gammaln, the log-gamma it replaced
        from scipy.special import gammaln
        d, s = np.tril_indices(400)
        ref = gammaln(d + 1) - gammaln(s + 1) - gammaln(d - s + 1)
        got = [log_binomial(int(a), int(b)).value for a, b in zip(d, s)]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_bracketing_grid(self):
        for d in (4, 16, 64):
            for s in range(1, d + 1):
                out = log_binomial(d, s)
                assert out.lower <= out.value + 1e-9
