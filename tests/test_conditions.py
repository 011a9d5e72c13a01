import math
from itertools import combinations

import numpy as np
import pytest

from lqminimax.conditions import (
    REParams,
    column_norm_constant,
    diagnose,
    ident_consistency,
    in_cone,
    kernel_diameter,
    kernel_trivial_zero,
    prop1_margins,
    re_constant,
    sparse_min_singular,
    sparse_spectrum,
    verify_prop1,
)
from lqminimax.errors import ConsistencyError, ParameterError
from lqminimax.linmodel import BallSpec, DesignSpec, generate_design, simulate
from lqminimax.estimators import l0_least_squares

X_COUNTER = np.array([[1.0, -2.0, -1.0], [2.0, -3.0, -3.0]])


class TestColumnNorm:
    def test_sequence_scaling(self):
        n = 6
        assert column_norm_constant(math.sqrt(n) * np.eye(n)) == pytest.approx(1.0)

    def test_single_large_column(self):
        n = 4
        X = np.zeros((n, 3))
        X[:, 0] = 2.0 * math.sqrt(n) / math.sqrt(n) * np.ones(n)  # norm 2 sqrt(n)
        X[0, 1] = 1.0
        X[0, 2] = 1.0
        assert column_norm_constant(X) == pytest.approx(2.0)

    def test_gaussian_band(self):
        vals = []
        for seed in range(50):
            X = generate_design(DesignSpec("standard_gaussian", 200, 50, seed=seed))
            vals.append(column_norm_constant(X))
        assert all(0.8 <= v <= 1.6 for v in vals)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10, 4))
        assert column_norm_constant(3.0 * X) == pytest.approx(3.0 * column_norm_constant(X))


class TestSparseSpectrum:
    def test_scaled_identity(self):
        n = 8
        kl, ku = sparse_spectrum(math.sqrt(n) * np.eye(n), s=2)
        assert kl == pytest.approx(1.0)
        assert ku == pytest.approx(1.0)

    def test_counterexample_positive_kl(self):
        # every 2x2 submatrix has rank two
        kl, _ = sparse_spectrum(X_COUNTER, s=1)
        assert kl > 0.0

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((6, 8))
        kl, ku = sparse_spectrum(X, s=1)
        svals = [np.linalg.svd(X[:, S], compute_uv=False)
                 for S in combinations(range(8), 2)]
        assert kl == pytest.approx(min(s.min() for s in svals) / math.sqrt(6), rel=1e-10)
        assert ku == pytest.approx(max(s.max() for s in svals) / math.sqrt(6), rel=1e-10)

    def test_monotone_in_s(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((20, 8))
        pairs = [sparse_spectrum(X, s) for s in (1, 2, 3, 4)]
        kls = [p[0] for p in pairs]
        kus = [p[1] for p in pairs]
        assert all(a >= b - 1e-12 for a, b in zip(kls, kls[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(kus, kus[1:]))

    def test_wide_level_forces_zero(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((3, 8))
        kl, _ = sparse_spectrum(X, s=2)  # level 4 > n = 3
        assert kl == 0.0


class TestCone:
    def test_paper_membership_examples(self):
        assert in_cone(np.array([1.0, 0.5, 0.25]), s=1, c0=1.0)
        assert not in_cone(np.array([1.0, 0.75, 0.75]), s=1, c0=1.0)


class TestREConstant:
    def test_full_cone_is_min_singular_value(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((10, 4))
        est = re_constant(X, REParams(s=4, c0=0.0))
        smin = np.linalg.svd(X, compute_uv=False)[-1] / math.sqrt(10)
        assert est.value == pytest.approx(smin, rel=1e-10)

    def test_full_cone_underdetermined_is_zero(self):
        # s >= d and n < d: the cone is R^d and contains the kernel of X
        est = re_constant(np.ones((1, 2)), REParams(s=2, c0=1.0), mode="exact_tiny")
        assert est.value == 0.0
        assert est.method == "exact_tiny"

    def test_counterexample_zero(self):
        est = re_constant(X_COUNTER, REParams(s=1, c0=1.0), mode="exact_tiny")
        assert est.value == 0.0
        assert est.method == "exact_tiny"

    def test_monotone_in_c0_same_stream(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            X = rng.standard_normal((15, 6))
            vals = [re_constant(X, REParams(s=2, c0=c0), n_samples=200, seed=7).value
                    for c0 in (0.0, 0.5, 1.0, 2.0, 4.0)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_sampled_upper_below_sparse_minimum(self):
        # cone corners are enumerated, so the estimate never exceeds the
        # exact minimum over s-sparse directions
        rng = np.random.default_rng(9)
        for seed in range(5):
            X = rng.standard_normal((30, 7))
            est = re_constant(X, REParams(s=2, c0=1.0), n_samples=100, seed=seed)
            exact_sparse = sparse_min_singular(X, level=2)
            assert est.value <= exact_sparse + 1e-10

    def test_exact_tiny_dim_guard(self):
        with pytest.raises(ParameterError):
            re_constant(np.zeros((5, 13)), REParams(s=2, c0=1.0), mode="exact_tiny")


class TestKernelTrivial:
    def test_counterexample_true_at_s1(self):
        assert kernel_trivial_zero(X_COUNTER, s=1)

    def test_identical_columns_false(self):
        col = np.arange(1.0, 5.0)
        X = np.column_stack([col, col, col])
        assert not kernel_trivial_zero(X, s=1)

    def test_identity_true(self):
        assert kernel_trivial_zero(np.eye(6), s=3)

    def test_wide_matrix_false(self):
        assert not kernel_trivial_zero(np.ones((1, 4)), s=1)

    def test_implies_exact_recovery_noiseless(self):
        # sparse-recovery consequence, checked over seeded instances
        rng = np.random.default_rng(5)
        hits = 0
        for seed in range(20):
            X = rng.standard_normal((8, 10))
            if not kernel_trivial_zero(X, s=2):
                continue
            beta = np.zeros(10)
            support = rng.choice(10, 2, replace=False)
            beta[support] = rng.standard_normal(2) + np.sign(rng.standard_normal(2)) * 0.5
            inst = simulate(X, beta, 0.0, seed=seed)
            res = l0_least_squares(X, inst.y, 2)
            assert np.allclose(res.beta_hat, beta, atol=1e-8)
            hits += 1
        assert hits >= 15  # Gaussian designs are essentially always trivial-kernel


class TestKernelDiameter:
    def test_full_column_rank_zero(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((10, 4))
        assert kernel_diameter(X, BallSpec(1.0, 1.0)) == 0.0

    def test_identical_columns_q0_infinite(self):
        col = np.arange(1.0, 5.0)
        X = np.column_stack([col, col, col])
        assert kernel_diameter(X, BallSpec(0.0, 1)) == math.inf

    def test_counterexample_closed_form(self):
        # 1-d kernel along (1, 1/3, 1/3); rescaled to the l1 boundary 5/3
        val = kernel_diameter(X_COUNTER, BallSpec(1.0, 5.0 / 3.0), p=2.0, seed=0)
        assert val == pytest.approx(math.sqrt(11.0) / 3.0, rel=1e-6)
        assert val >= 1.0


class TestProp1:
    def test_zero_direction_trivial(self):
        low, up = prop1_margins(np.ones((5, 3)), np.eye(3), np.zeros(3))
        assert low == 0.0 and up == 0.0

    def test_identity_covariance_no_violations(self):
        spec = DesignSpec("correlated_gaussian", 200, 400, seed=0, sigma_cov=np.eye(400))
        rep = verify_prop1(spec, n_draws=2, n_directions=200, seed=1)
        assert rep.lower_violations == 0
        assert rep.upper_violations == 0
        assert rep.n_checks == 400

    def test_standard_kind_accepted(self):
        spec = DesignSpec("standard_gaussian", 100, 150, seed=0)
        rep = verify_prop1(spec, n_draws=1, n_directions=100, seed=2)
        assert rep.lower_violations == 0 and rep.upper_violations == 0

    def test_non_gaussian_rejected(self):
        spec = DesignSpec("identity_sequence", 5, 5)
        with pytest.raises(ParameterError):
            verify_prop1(spec)


class TestIdentConsistency:
    def test_trivial_kernel(self):
        assert ident_consistency(kappa_l=1.0, f_l_value=0.0, diam2_estimate=0.0)

    def test_measured_pair_consistent(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            X = rng.standard_normal((20, 6))
            kl, _ = sparse_spectrum(X, s=2)
            diam = kernel_diameter(X, BallSpec(1.0, 2.0), seed=seed)
            if kl > 0:
                assert ident_consistency(kl, 0.0, diam)

    def test_synthetic_violation_flagged(self):
        assert not ident_consistency(kappa_l=1.0, f_l_value=0.0, diam2_estimate=1.0)

    def test_vacuous_at_zero(self):
        with pytest.raises(ConsistencyError):
            ident_consistency(kappa_l=0.0, f_l_value=0.0, diam2_estimate=0.0)


class TestDiagnose:
    def test_counterexample_diagnostics(self):
        diag = diagnose(X_COUNTER, s=1, c0=1.0, ball=BallSpec(0.0, 1))
        assert diag.kernel_trivial
        assert diag.diam2_estimate == 0.0
        assert diag.re_constant == 0.0  # the cone contains a kernel direction
        assert diag.kappa_l > 0.0
        assert 0.0 <= diag.kappa_l <= diag.kappa_u
        assert diag.kappa_c > 0.0

    def test_re_never_exceeds_sparse_level(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            X = rng.standard_normal((25, 8))
            diag = diagnose(X, s=2, c0=1.0, seed=seed)
            assert diag.re_constant <= sparse_min_singular(X, level=2) + 1e-10
