import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lqminimax import conditions
from lqminimax.errors import (
    CovarianceError,
    DimensionError,
    MembershipError,
    ParameterError,
)
from lqminimax.linmodel import (
    BallSpec,
    DesignSpec,
    InstanceSpec,
    LossSpec,
    derive_seed,
    generate_design,
    generate_sparse_beta,
    instance_from_json,
    instance_to_csv,
    instance_to_json,
    loss,
    simulate,
    split_streams,
    symmetric_sqrt,
)

# a 4 x 4 covariance with unequal variances and correlations of both signs
COV4 = np.array([[2.0, 0.6, 0.0, 0.1],
                 [0.6, 1.0, 0.3, 0.0],
                 [0.0, 0.3, 1.5, -0.2],
                 [0.1, 0.0, -0.2, 0.8]])


class TestBallSpec:
    def test_q0_requires_integer_radius(self):
        with pytest.raises(ParameterError):
            BallSpec(q=0.0, radius=2.5)

    def test_q_range(self):
        with pytest.raises(ParameterError):
            BallSpec(q=1.5, radius=1.0)
        with pytest.raises(ParameterError):
            BallSpec(q=0.5, radius=0.0)

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -1.0])
    def test_radius_must_be_finite_and_positive(self, q, radius):
        # q = 0 used to hit int(radius): a bare ValueError for NaN, OverflowError for inf
        with pytest.raises(ParameterError, match="'radius' must be a finite number > 0"):
            BallSpec(q=q, radius=radius)

    def test_bind_to_dimension(self):
        with pytest.raises(ParameterError):
            BallSpec(q=0.0, radius=5).validate_for_dim(3)


class TestGenerateDesign:
    def test_identity_sequence(self):
        # the sequence model needs no design matrix (harness.corollary1_experiment)
        with pytest.raises(ParameterError, match="unknown design kind 'identity_sequence'"):
            DesignSpec("identity_sequence", n=3, d=3, seed=0)

    def test_zero_dims_rejected(self):
        with pytest.raises(DimensionError):
            DesignSpec("standard_gaussian", n=0, d=4)

    def test_numpy_integers_stored_as_python_ints(self):
        spec = DesignSpec("standard_gaussian", np.int64(10), np.int32(4), seed=np.uint64(3))
        assert [type(v) for v in (spec.n, spec.d, spec.seed)] == [int, int, int]
        assert spec == DesignSpec("standard_gaussian", 10, 4, seed=3)

    def test_non_psd_covariance_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(CovarianceError):
            DesignSpec("correlated_gaussian", n=5, d=2, sigma_cov=bad)

    @pytest.mark.parametrize("bad, message", [
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "non-finite"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
        (np.array([[1.0, 3.0], [0.0, 1.0]]), "not symmetric"),
        (np.eye(3), r"shape \(3, 3\), expected \(2, 2\)"),
    ], ids=["inf", "nan", "asymmetric", "mis_shaped"])
    def test_invalid_covariance_rejected(self, bad, message):
        # an inf entry must not pass as NaN eigenvalues clamped to 0 (an all-zero design)
        with pytest.raises(CovarianceError, match=message):
            DesignSpec("correlated_gaussian", n=3, d=2, sigma_cov=bad)

    @pytest.mark.parametrize("bad", [np.ones(3), np.ones((2, 3)), np.zeros((0, 0))],
                             ids=["vector", "rectangular", "empty"])
    def test_symmetric_sqrt_needs_a_square_matrix(self, bad):
        with pytest.raises(CovarianceError, match="expected a square matrix"):
            symmetric_sqrt(bad)

    def test_root_held_only_by_correlated_specs(self):
        spec = DesignSpec("correlated_gaussian", n=5, d=4, seed=1, sigma_cov=COV4)
        assert np.allclose(spec.root @ spec.root, COV4, atol=1e-12)
        assert np.allclose(spec.root, spec.root.T, rtol=0.0, atol=1e-14)
        assert DesignSpec("standard_gaussian", n=5, d=4).root is None
        assert "root" not in repr(spec)

    def test_equality_ignores_the_root(self):
        # an ndarray field would make == raise on an elementwise comparison
        a = DesignSpec("correlated_gaussian", n=5, d=4, seed=1, sigma_cov=COV4)
        b = DesignSpec("correlated_gaussian", n=5, d=4, seed=1, sigma_cov=COV4)
        assert a.root is not b.root
        assert a == b
        assert a != DesignSpec("correlated_gaussian", n=5, d=4, seed=2, sigma_cov=COV4)

    @pytest.mark.parametrize("d", [6, 150, 400])
    def test_exact_roots_of_identity_and_diagonal_covariances(self, d):
        # the benchmark's identity and spiked covariances factor without round-off
        assert np.array_equal(symmetric_sqrt(np.eye(d)), np.eye(d))
        spiked = np.diag([4.0] + [1.0] * (d - 1))
        assert np.array_equal(symmetric_sqrt(spiked), np.diag([2.0] + [1.0] * (d - 1)))

    def test_correlated_design_pinned(self):
        # pinned bit for bit: factoring Sigma once per spec must not change a
        # digit (a different LAPACK may round the root differently)
        spec = DesignSpec("correlated_gaussian", n=5, d=4, seed=20260808, sigma_cov=COV4)
        assert generate_design(spec).tolist() == [
            [-0.15821140172721232, 0.08034514162747376, -1.7179132028188753, 0.9096584083809554],
            [-0.5251956274154889, -0.8251873876318685, -0.25166198415223895, 1.0132571024998422],
            [-0.5306536511491052, 1.1990379712560133, 0.3171731592074511, -0.3063397019749022],
            [-0.8511980085213511, -1.4869439739510273, -0.18365916879063793, 1.1956051122550395],
            [-1.406464339447082, 0.8149640073523207, -0.1624916063772778, -0.7752968536224822],
        ]

    def test_standard_design_pinned(self):
        spec = DesignSpec("standard_gaussian", n=2, d=3, seed=5)
        assert generate_design(spec).tolist() == [
            [-0.15761234320110798, 0.027401051761102527, 0.2714984624699337],
            [-0.5118986506607516, 2.3629385632675204, 1.0249622052600185],
        ]

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


def _dense_root(cov):
    """symmetric_sqrt by eigendecomposition alone, for any covariance."""
    evals, evecs = np.linalg.eigh(0.5 * (cov + cov.T))
    evals = np.where(evals > 1e-12 * max(evals.max(), 0.0), evals, 0.0)
    return (evecs * np.sqrt(evals)) @ evecs.T


def _dense_margins(X, root, rho, V):
    """conditions._margins with plain matmuls."""
    n, d = X.shape
    coef = 6.0 * math.sqrt(rho * math.log(d) / n)
    xv = np.linalg.norm(X @ V.T, axis=0) / math.sqrt(n)
    sv = np.linalg.norm(root @ V.T, axis=0)
    l1 = np.abs(V).sum(axis=1)
    return xv - (0.5 * sv - coef * l1), (3.0 * sv + coef * l1) - xv


def _same_bits(a, b):
    # bytes, not values: +0.0 and -0.0 differ
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# one diagonal entry: ordinary, exactly zero (either sign), below the 1e-12
# clamp of every largest entry drawn, or negative inside the -1e-10 PSD slack;
# every nonzero magnitude stays inside the range LAPACK's eigh leaves unscaled
_DIAGONAL_ENTRY = st.one_of(st.floats(1e-3, 1e3), st.sampled_from([0.0, -0.0]),
                            st.floats(1e-30, 1e-16), st.floats(-1e-11, -1e-30))


class TestDiagonalRoot:
    """A diagonal Sigma is factored and applied with no dense algebra, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_DIAGONAL_ENTRY, min_size=1, max_size=64), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    def test_diagonal_path_matches_dense_path(self, entries, n, seed):
        d = len(entries)
        cov = np.diag(entries)
        ref = _dense_root(cov)
        assert _same_bits(symmetric_sqrt(cov), ref)
        spec = DesignSpec("correlated_gaussian", n=n, d=d, seed=seed, sigma_cov=cov)
        X = generate_design(spec)
        assert _same_bits(X, split_streams(seed)[0].standard_normal((n, d)) @ ref)
        inst = InstanceSpec(ball=BallSpec(0.0, 1), sigma=1.0, design_kind="correlated_gaussian",
                            sigma_cov=cov.tolist()).draw(n, d, seed)
        W = split_streams(derive_seed(seed, 1))[0].standard_normal((n, d))
        assert _same_bits(inst.X, W @ ref)
        # the whole margin arrays, over dense, sparse and signed coordinate directions
        rng = np.random.default_rng(seed)
        V = rng.standard_normal((24, d))
        V[8:16] *= rng.random((8, d)) < 0.2
        V[16:] = np.eye(d)[rng.integers(0, d, 8)] * rng.choice([-1.0, 1.0], (8, 1))
        for got, want in zip(conditions._margins(X, spec.root, 1.0, V),
                             _dense_margins(X, ref, 1.0, V)):
            assert _same_bits(got, want)
        for got, want in zip(conditions._margins(X, None, 1.0, V),
                             _dense_margins(X, np.eye(d), 1.0, V)):
            assert _same_bits(got, want)

    def test_tiny_off_diagonal_entry_takes_eigh(self, monkeypatch):
        # one off-diagonal 1e-300 is not a diagonal Sigma, however small
        calls = []
        real = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        cov = np.diag([2.0, 1.0, 3.0])
        cov[0, 1] = 1e-300
        monkeypatch.setattr(np.linalg, "eigh", counted)
        spec = DesignSpec("correlated_gaussian", n=6, d=3, seed=4, sigma_cov=cov)
        assert len(calls) == 1
        W = split_streams(4)[0].standard_normal((6, 3))
        assert _same_bits(generate_design(spec), W @ _dense_root(cov))


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


def _sequence_instance(n, tau, ball, seed=0):
    """The sequence model as a regression on X = sqrt(n) I, noise level tau."""
    X = math.sqrt(n) * np.eye(n)
    return simulate(X, generate_sparse_beta(ball, n, seed=seed), tau, seed=seed, ball=ball)


class TestSequenceModel:
    def test_sigma_is_tau_on_sqrt_n_identity(self):
        inst = _sequence_instance(4, 2.0, BallSpec(0.0, 1))
        assert inst.sigma == 2.0
        assert np.array_equal(inst.X, 2.0 * np.eye(4))
        # y = sqrt(n) b + tau z
        z = split_streams(0)[1].standard_normal(4)
        assert np.allclose(inst.noise(), 2.0 * z, rtol=0, atol=1e-14)

    def test_degenerate_size(self):
        inst = _sequence_instance(1, 3.0, BallSpec(0.0, 1))
        assert inst.sigma == 3.0
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
        inst = _sequence_instance(5, 1.0, BallSpec(0.0, 2), seed=3)
        back = instance_from_json(instance_to_json(inst))
        assert np.array_equal(back.X, inst.X)
        assert np.array_equal(back.y, inst.y)
        assert np.array_equal(back.beta_star, inst.beta_star)
        assert back.ball == inst.ball
        assert back.sigma == inst.sigma

    def test_json_schema_keys(self):
        inst = _sequence_instance(3, 1.0, BallSpec(1.0, 2.0))
        doc = json.loads(instance_to_json(inst))
        assert set(doc) == {"n", "d", "q", "radius", "sigma", "seed", "X", "beta_star", "y"}
        assert len(doc["X"]) == 9  # row-major flattening

    @pytest.mark.parametrize("key, value, error, message", [
        ("sigma", "0.5", ParameterError, r"^'sigma' must be a finite number >= 0, got '0.5'$"),
        ("seed", 3.9, ParameterError, r"^'seed' must be an integer >= 0, got 3.9$"),
        ("X", [1.0] * 8, DimensionError, r"^X has 8 entries, expected n d = 9$"),
        ("beta_star", [0.0] * 2, DimensionError, r"^beta_star has shape \(2,\), expected \(3,\)$"),
        ("y", [0.0] * 4, DimensionError, r"^y has shape \(4,\), expected \(3,\)$"),
        ("n", 3.0, ParameterError, r"^'n' must be an integer >= 1, got 3.0$"),
    ], ids=["sigma_string", "seed_fraction", "short_X", "short_beta_star", "long_y", "n_float"])
    def test_json_value_refused_not_cast(self, key, value, error, message):
        doc = json.loads(instance_to_json(_sequence_instance(3, 1.0, BallSpec(1.0, 2.0), seed=3)))
        with pytest.raises(error, match=message):
            instance_from_json(json.dumps({**doc, key: value}))

    def test_csv_export(self, tmp_path):
        inst = _sequence_instance(3, 1.0, BallSpec(0.0, 1))
        path = tmp_path / "inst.csv"
        instance_to_csv(inst, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "series,index,value"
        assert len(lines) == 1 + 3 + 3
