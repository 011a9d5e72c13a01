import json
import math

import numpy as np
import pytest

from lqminimax.errors import (
    CovarianceError,
    DimensionError,
    MembershipError,
    ParameterError,
)
from lqminimax.linmodel import (
    BallSpec,
    DesignSpec,
    LossSpec,
    generate_design,
    generate_sparse_beta,
    instance_from_json,
    instance_to_csv,
    instance_to_json,
    loss,
    sequence_model_instance,
    simulate,
)


class TestBallSpec:
    def test_q0_requires_integer_radius(self):
        with pytest.raises(ParameterError):
            BallSpec(q=0.0, radius=2.5)

    def test_q_range(self):
        with pytest.raises(ParameterError):
            BallSpec(q=1.5, radius=1.0)
        with pytest.raises(ParameterError):
            BallSpec(q=0.5, radius=0.0)

    def test_bind_to_dimension(self):
        with pytest.raises(ParameterError):
            BallSpec(q=0.0, radius=5).validate_for_dim(3)


class TestGenerateDesign:
    def test_identity_sequence(self):
        spec = DesignSpec("identity_sequence", n=3, d=3, seed=0)
        assert np.array_equal(generate_design(spec), np.eye(3))

    def test_identity_requires_square(self):
        with pytest.raises(DimensionError):
            DesignSpec("identity_sequence", n=3, d=4)

    def test_zero_dims_rejected(self):
        with pytest.raises(DimensionError):
            DesignSpec("standard_gaussian", n=0, d=4)

    def test_non_psd_covariance_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(CovarianceError):
            DesignSpec("correlated_gaussian", n=5, d=2, sigma_cov=bad)

    def test_standard_gaussian_column_norm_band(self):
        # spec band: max column norm / sqrt(n) in [0.7, 1 + sqrt(32 log d / n)]
        spec = DesignSpec("standard_gaussian", n=200, d=400, seed=20260808)
        X = generate_design(spec)
        val = np.linalg.norm(X, axis=0).max() / math.sqrt(200)
        assert 0.7 <= val <= 1.0 + math.sqrt(32 * math.log(400) / 200)

    def test_column_norm_bound_over_200_seeds(self):
        # holds in >= 99% of 200 seeded standard-Gaussian trials at n >= 50
        n, d = 50, 100
        bound = 1.0 + math.sqrt(32 * math.log(d) / n)
        hits = 0
        for seed in range(200):
            X = generate_design(DesignSpec("standard_gaussian", n=n, d=d, seed=seed))
            if np.linalg.norm(X, axis=0).max() / math.sqrt(n) <= bound:
                hits += 1
        assert hits >= 198

    def test_correlated_column_variance(self):
        # sample variance of column 1 under Sigma = diag(4,1,...,1) sits near 4
        cov = np.diag([4.0] + [1.0] * 5)
        spec = DesignSpec("correlated_gaussian", n=500, d=6, seed=11, sigma_cov=cov)
        X = generate_design(spec)
        assert 3.5 <= X[:, 0].var() <= 4.5

    def test_reproducible(self):
        spec = DesignSpec("standard_gaussian", n=20, d=7, seed=99)
        assert np.array_equal(generate_design(spec), generate_design(spec))


class TestGenerateSparseBeta:
    def test_first_coordinates_q0(self):
        beta = generate_sparse_beta(BallSpec(0.0, 1), 3, pattern="first_coordinates")
        assert np.array_equal(beta, [1.0, 0.0, 0.0])

    def test_unknown_pattern_rejected(self):
        for pattern in ("explicit", "randm_support"):
            with pytest.raises(ParameterError, match="unknown pattern"):
                generate_sparse_beta(BallSpec(1.0, 1.0), 3, pattern=pattern)

    def test_q_half_membership_direct_sum(self):
        beta = generate_sparse_beta(BallSpec(0.5, 2.0), 20,
                                    pattern="random_support", magnitude=1.0, seed=4)
        assert np.sum(np.abs(beta) ** 0.5) <= 2.0

    def test_reproducible(self):
        a = generate_sparse_beta(BallSpec(0.0, 3), 10, seed=5)
        b = generate_sparse_beta(BallSpec(0.0, 3), 10, seed=5)
        assert np.array_equal(a, b)


class TestSimulate:
    def test_noiseless_identity(self):
        inst = simulate(np.eye(2), np.array([1.0, 2.0]), sigma=0.0)
        assert np.array_equal(inst.y, [1.0, 2.0])

    def test_counterexample_observation(self):
        X = np.array([[1.0, -2.0, -1.0], [2.0, -3.0, -3.0]])
        inst = simulate(X, np.array([1.0, 0.0, 0.0]), sigma=0.0)
        assert np.array_equal(inst.y, [1.0, 2.0])

    def test_noise_moments(self):
        # CLT / chi-square Monte Carlo bands at n = 1e4
        inst = simulate(np.zeros((10_000, 1)), np.zeros(1), sigma=1.0, seed=2)
        assert abs(inst.y.mean()) <= 0.03
        assert 0.94 <= inst.y.var() <= 1.06

    def test_reproducible_instance(self):
        X = np.eye(4)
        a = simulate(X, np.ones(4), 0.5, seed=9)
        b = simulate(X, np.ones(4), 0.5, seed=9)
        assert np.array_equal(a.y, b.y)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            simulate(np.eye(2), np.ones(3), 1.0)


class TestSequenceModel:
    def test_sigma_squared_is_tau_sq_over_n(self):
        inst = sequence_model_instance(4, 2.0, BallSpec(0.0, 1), seed=0)
        assert inst.sigma**2 == pytest.approx(1.0)
        assert np.array_equal(inst.X, np.eye(4))

    def test_degenerate_size(self):
        inst = sequence_model_instance(1, 3.0, BallSpec(0.0, 1), seed=0)
        assert inst.sigma**2 == pytest.approx(9.0)
        assert np.array_equal(inst.X, [[1.0]])


class TestLoss:
    def test_zero_at_truth(self):
        beta = np.array([1.0, -2.0])
        for spec in (LossSpec("lp", 1.0), LossSpec.l2(), LossSpec.prediction()):
            assert loss(spec, np.eye(2), beta, beta) == 0.0

    def test_345(self):
        assert loss(LossSpec.l2(), None, np.array([3.0, 4.0]), np.zeros(2)) == 25.0

    def test_prediction_direct_arithmetic(self):
        X = np.array([[1.0, 0.0], [0.0, 2.0]])
        val = loss(LossSpec.prediction(), X, np.array([1.0, 1.0]), np.zeros(2))
        assert val == pytest.approx(2.5)

    def test_p_below_one_rejected(self):
        with pytest.raises(ParameterError):
            LossSpec("lp", 0.5)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_infinite_or_nan_p_rejected(self, p):
        # sum |delta_j|^p has no limit as p -> inf: it read 0.0 for
        # delta = (0.5, -0.25, 0) and inf for (2, 0.1)
        with pytest.raises(ParameterError):
            LossSpec("lp", p)

    def test_l2_alias_matches_lp2(self):
        rng = np.random.default_rng(0)
        bh, bs = rng.standard_normal(6), rng.standard_normal(6)
        assert loss(LossSpec.l2(), None, bh, bs) == loss(LossSpec("lp", 2.0), None, bh, bs)

    def test_prediction_invariant_to_kernel_shift(self):
        X = np.array([[1.0, -2.0, -1.0], [2.0, -3.0, -3.0]])
        kernel = np.array([1.0, 1.0 / 3.0, 1.0 / 3.0])
        rng = np.random.default_rng(1)
        bh, bs = rng.standard_normal(3), rng.standard_normal(3)
        base = loss(LossSpec.prediction(), X, bh, bs)
        shifted = loss(LossSpec.prediction(), X, bh + kernel, bs)
        assert shifted == pytest.approx(base, abs=1e-12)
        # the l2 loss is not invariant, only the prediction loss
        assert loss(LossSpec.l2(), None, bh + kernel, bs) != pytest.approx(
            loss(LossSpec.l2(), None, bh, bs))


class TestSerialization:
    def test_json_round_trip(self):
        inst = sequence_model_instance(5, 1.0, BallSpec(0.0, 2), seed=3)
        back = instance_from_json(instance_to_json(inst))
        assert np.array_equal(back.X, inst.X)
        assert np.array_equal(back.y, inst.y)
        assert np.array_equal(back.beta_star, inst.beta_star)
        assert back.ball == inst.ball
        assert back.sigma == inst.sigma

    def test_json_schema_keys(self):
        inst = sequence_model_instance(3, 1.0, BallSpec(1.0, 2.0), seed=0)
        doc = json.loads(instance_to_json(inst))
        assert set(doc) == {"n", "d", "q", "radius", "sigma", "seed", "X", "beta_star", "y"}
        assert len(doc["X"]) == 9  # row-major flattening

    def test_csv_export(self, tmp_path):
        inst = sequence_model_instance(3, 1.0, BallSpec(0.0, 1), seed=0)
        path = tmp_path / "inst.csv"
        instance_to_csv(inst, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "series,index,value"
        assert len(lines) == 1 + 3 + 3
