import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import null_space

from lqminimax import conditions
from lqminimax.conditions import (
    Prop1Report,
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
from lqminimax.bounds import sup_correlation_exact, sup_correlation_pred_exact
from lqminimax.errors import ConsistencyError, CovarianceError, ParameterError
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

    @pytest.mark.parametrize("shape", [(15, 6), (4, 6)])
    def test_exact_tiny_monotone_in_c0_same_stream(self, shape):
        # The polish is a local search from the sampled minimum, so exact_tiny
        # values need not fall with c0 (they did not on these designs); each is
        # below the sampled value at its own and every smaller c0, which is
        # exactly monotone, and a certified zero stays zero as the cone grows.
        rng = np.random.default_rng(4)
        c0s = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
        for trial in range(5):
            X = rng.standard_normal(shape)
            sampled, tiny = (
                [re_constant(X, REParams(s=2, c0=c0), mode=mode, n_samples=100, seed=7).value
                 for c0 in c0s] for mode in ("sampled", "exact_tiny"))
            assert all(a >= b for a, b in zip(sampled, sampled[1:]))
            assert all(t <= s for t, s in zip(tiny, sampled))
            zeros = [t == 0.0 for t in tiny]
            assert zeros == sorted(zeros)

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

    @pytest.mark.parametrize("d", [1, 2])
    def test_sparse_directions_fit_small_d(self, d):
        # a support of up to 3 entries was drawn without replacement from d
        # columns: numpy's untyped ValueError for d = 1, and for d = 2 on a size 3
        rep = verify_prop1(DesignSpec("standard_gaussian", 10, d), n_draws=2, n_directions=40)
        assert rep.n_checks == 80

    def test_negative_diagonal_inside_the_psd_slack(self):
        # symmetric_sqrt accepts -1e-11, so rho = max Sigma_jj < 0 reached a sqrt
        # (math domain error); Sigma is zero up to the slack, so rho is 0
        cov = np.diag([-1e-11] * 3)
        spec = DesignSpec("correlated_gaussian", 10, 3, sigma_cov=cov)
        rep = verify_prop1(spec, n_draws=1, n_directions=8)
        assert rep.n_checks == 8 and math.isfinite(rep.lower_margin_min)
        assert prop1_margins(generate_design(spec), cov, np.ones(3)) == (0.0, 0.0)

    def test_non_gaussian_rejected(self):
        # every design kind is a Gaussian row ensemble; another is refused with the spec
        with pytest.raises(ParameterError, match="unknown design kind"):
            verify_prop1(DesignSpec("identity_sequence", 5, 5))

    def test_report_pinned(self):
        # pinned bit for bit: reading spec.root, or eye(d) for a standard spec,
        # must not change a digit of either margin
        cov = np.array([[2.0, 0.6, 0.0, 0.1], [0.6, 1.0, 0.3, 0.0],
                        [0.0, 0.3, 1.5, -0.2], [0.1, 0.0, -0.2, 0.8]])
        spec = DesignSpec("correlated_gaussian", n=5, d=4, seed=20260808, sigma_cov=cov)
        assert verify_prop1(spec, n_draws=2, n_directions=40, seed=7) == Prop1Report(
            lower_violations=0, upper_violations=0, n_checks=80,
            lower_margin_min=0.8091586480489378, upper_margin_min=1.1566735406063802)
        spec = DesignSpec("standard_gaussian", n=30, d=12, seed=3)
        assert verify_prop1(spec, n_draws=2, n_directions=40, seed=7) == Prop1Report(
            lower_violations=0, upper_violations=0, n_checks=80,
            lower_margin_min=0.4079399832178583, upper_margin_min=0.6996510657565937)

    def test_one_eigendecomposition_per_spec(self, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        cov = np.diag([4.0, 1.0, 1.0]) + 0.2
        spec = DesignSpec("correlated_gaussian", 20, 3, seed=0, sigma_cov=cov)
        generate_design(spec)
        verify_prop1(spec, n_draws=2, n_directions=20, seed=1)
        assert calls == ["eigh"]
        # a diagonal Sigma and a standard spec need no eigendecomposition at all
        calls.clear()
        for cov in (np.diag([4.0, 1.0, 1.0]), np.eye(3)):
            spec = DesignSpec("correlated_gaussian", 20, 3, seed=0, sigma_cov=cov)
            generate_design(spec)
            verify_prop1(spec, n_draws=2, n_directions=20, seed=1)
            prop1_margins(generate_design(spec), cov, np.ones(3))
        spec = DesignSpec("standard_gaussian", 20, 3)
        generate_design(spec)
        verify_prop1(spec, n_draws=2, n_directions=20)
        assert calls == []

    # verify_prop1 at the benchmark's criterion-8 units: 200 x 400, one draw,
    # 1000 directions, seeds _child_seed(20260808, 3 or 4, k) for k = 0, ..., 4
    @pytest.mark.parametrize("spiked, seed, report", [
        (False, 87895167702370099, (0.0034496644479609408, 0.00655681330372593)),
        (False, 4969433597590068050, (0.0037133881278902624, 0.007334797160920293)),
        (False, 12114305043075346824, (0.014380465764080828, 0.03212680528119141)),
        (False, 11719093265645176237, (0.0026793613908354, 0.005163915803551858)),
        (False, 3788456110841998890, (0.032986968822543636, 0.06859346113760748)),
        (True, 11714627172431013258, (0.03249198806744216, 0.05345065602067536)),
        (True, 12050278066349610471, (0.1319508392670002, 0.20882237583326535)),
        (True, 2815812188035321450, (0.016043977830784997, 0.024298648128875847)),
        (True, 1247753125888187750, (0.01818315558011823, 0.029279877843747262)),
        (True, 7516752507793517538, (0.03556661178780021, 0.054475324776317106)),
    ], ids=[f"{kind}-{k}" for kind in ("identity", "spiked") for k in range(5)])
    def test_benchmark_units_pinned(self, monkeypatch, spiked, seed, report):
        # the report bit for bit, and the whole margin arrays against the dense
        # path (eigh root, plain matmuls) run here: the digest of the benchmark
        # sees only the violation counts, and the least margins fall on sparse
        # directions, where no summation order shows
        cov = np.diag([4.0] + [1.0] * 399) if spiked else np.eye(400)
        spec = DesignSpec("correlated_gaussian", n=200, d=400, seed=seed, sigma_cov=cov)
        seen, real = [], conditions._margins

        def spy(*args):
            seen.append(real(*args))
            return seen[-1]

        monkeypatch.setattr(conditions, "_margins", spy)
        assert verify_prop1(spec, n_draws=1, n_directions=1000, seed=seed) == Prop1Report(
            lower_violations=0, upper_violations=0, n_checks=1000,
            lower_margin_min=report[0], upper_margin_min=report[1])
        evals, evecs = np.linalg.eigh(cov)
        root = (evecs * np.sqrt(evals)) @ evecs.T
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((200, 400)) @ root
        V = conditions._direction_batch(rng, 400, 1000)
        coef = 6.0 * math.sqrt(float(np.max(cov)) * math.log(400) / 200)
        xv = np.linalg.norm(X @ V.T, axis=0) / math.sqrt(200)
        sv = np.linalg.norm(root @ V.T, axis=0)
        l1 = np.abs(V).sum(axis=1)
        (low, up), = seen
        assert low.tobytes() == (xv - (0.5 * sv - coef * l1)).tobytes()
        assert up.tobytes() == ((3.0 * sv + coef * l1) - xv).tobytes()

    @pytest.mark.parametrize("cov, message", [
        (np.eye(3), r"shape \(3, 3\), expected \(2, 2\)"),
        (np.array([[1.0, 3.0], [0.0, 1.0]]), "not symmetric"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "non-finite"),
    ], ids=["mis_shaped", "asymmetric", "non_finite"])
    def test_margins_reject_an_invalid_covariance(self, cov, message):
        # Sigma is checked as the row covariance of X before any matmul
        with pytest.raises(CovarianceError, match=message):
            prop1_margins(np.ones((4, 2)), cov, np.ones(2))


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


# ---------------------------------------------------------------------------
# one-vector-at-a-time references for the array searches
# ---------------------------------------------------------------------------


def _ref_in_cone(theta, s, c0):
    a = np.sort(np.abs(theta))[::-1]
    head, tail = a[:s].sum(), a[s:].sum()
    return tail <= c0 * head + 1e-12 * max(head, 1.0)


def _ref_scale_tail(theta, s, ratio):
    a = np.abs(theta)
    order = np.argsort(a)[::-1]
    head, tail = a[order[:s]].sum(), a[order[s:]].sum()
    out = theta.astype(float).copy()
    if tail != 0.0:
        out[order[s:]] *= ratio * head / tail
    return out


def _ref_ratio(X, theta):
    nrm = np.linalg.norm(theta)
    if nrm == 0.0:
        return math.inf
    return float(np.linalg.norm(X @ theta) / (math.sqrt(X.shape[0]) * nrm))


def _ref_cone_samples(X, s, c0, n_samples, seed):
    n, d = X.shape
    if math.comb(d, s) <= 5000:
        for support in combinations(range(d), s):
            _, _, vt = np.linalg.svd(X[:, support], full_matrices=False)
            theta = np.zeros(d)
            theta[list(support)] = vt[-1]
            yield theta
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        z = rng.standard_normal(d)
        if _ref_in_cone(z, s, c0):
            yield z
        for ratio in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
            if ratio <= c0:
                yield _ref_scale_tail(z, s, ratio)


def _ref_kernel_cone_direction(X, s, c0):
    basis = null_space(X, rcond=1e-10)
    if basis.shape[1] == 0:
        return None
    candidates = [basis[:, j] for j in range(basis.shape[1])]
    rng = np.random.default_rng(12345)
    candidates += [basis @ rng.standard_normal(basis.shape[1]) for _ in range(512)]
    for v in candidates:
        for signed in (v, -v):
            if np.linalg.norm(signed) > 0 and _ref_in_cone(signed, s, c0):
                return signed
    return None


def _ref_polish(X, s, c0, theta, value, seed, rounds=400):
    rng = np.random.default_rng(seed + 1)
    theta = theta / np.linalg.norm(theta)
    radius = 0.5
    for _ in range(rounds):
        cand = theta + radius * rng.standard_normal(len(theta))
        a = np.sort(np.abs(cand))[::-1]
        if a[s:].sum() > c0 * a[:s].sum():
            cand = _ref_scale_tail(cand, s, c0)
        val = _ref_ratio(X, cand)
        if val < value:
            value, theta = val, cand / np.linalg.norm(cand)
        radius = max(radius * 0.98, 1e-8)
    return value


def _ref_re_constant(X, s, c0, mode, n_samples, seed):
    """The per-direction loop: first minimum over the candidates in order."""
    if mode == "exact_tiny" and _ref_kernel_cone_direction(X, s, c0) is not None:
        return 0.0, "exact_tiny"
    best, best_theta = math.inf, None
    for theta in _ref_cone_samples(X, s, c0, n_samples, seed):
        val = _ref_ratio(X, theta)
        if val < best:
            best, best_theta = val, theta
    if mode == "exact_tiny":
        return _ref_polish(X, s, c0, best_theta, best, seed), "exact_tiny"
    return best, "sampled_upper"


def _ref_kernel_diameter(X, ball, p, n_samples, seed):
    basis = null_space(X, rcond=1e-10)
    if basis.shape[1] == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    candidates = [basis[:, j] for j in range(basis.shape[1])]
    candidates += [basis @ rng.standard_normal(basis.shape[1]) for _ in range(n_samples)]
    best = 0.0
    for v in candidates:
        scale = (ball.radius / float(np.sum(np.abs(v) ** ball.q))) ** (1.0 / ball.q)
        best = max(best, float(np.sum(np.abs(scale * v) ** p) ** (1.0 / p)))
    return best


def _sweep_designs(count=12):
    """Seeded designs, every third with a duplicated column, every fourth with a zero one."""
    rng = np.random.default_rng(2026)
    for i in range(count):
        n, d = int(rng.integers(3, 25)), int(rng.integers(3, 10))
        X = rng.standard_normal((n, d))
        if i % 3 == 1:
            X[:, d - 1] = X[:, 0]
        if i % 4 == 2:
            X[:, 1] = 0.0
        yield i, X


class TestArraySearchesMatchReferences:
    def test_re_constant(self):
        for i, X in _sweep_designs():
            for s, c0, mode in ((1, 0.0, "sampled"), (1, 3.0, "exact_tiny"),
                                (2, 1.0, "sampled"), (2, 8.0, "exact_tiny")):
                if s >= X.shape[1]:
                    continue
                n_samples = 40 if mode == "exact_tiny" else 80
                est = re_constant(X, REParams(s=s, c0=c0), mode=mode, n_samples=n_samples,
                                  seed=i)
                value, method = _ref_re_constant(X, s, c0, mode, n_samples, i)
                assert est.method == method
                assert abs(est.value - value) <= 1e-14, (i, s, c0, mode)
                if mode == "exact_tiny":
                    assert (est.value == 0.0) == (value == 0.0)

    def test_kernel_diameter(self):
        for i, X in _sweep_designs():
            for ball, p in ((BallSpec(0.5, 2.0), 2.0), (BallSpec(1.0, 1.0), 1.0),
                            (BallSpec(1.0, 2.0), 3.0)):
                got = kernel_diameter(X, ball, p=p, n_samples=100, seed=i)
                assert abs(got - _ref_kernel_diameter(X, ball, p, 100, i)) <= 1e-14

    def test_kernel_diameter_max_norm_and_p_range(self):
        # p = inf is the largest max-norm of the rescaled kernel directions
        assert kernel_diameter(X_COUNTER, BallSpec(1.0, 5.0 / 3.0), p=math.inf) == (
            pytest.approx(1.0, rel=1e-12))
        for p in (0.5, math.nan):
            with pytest.raises(ParameterError):
                kernel_diameter(X_COUNTER, BallSpec(1.0, 1.0), p=p)

    def test_prop1_margins_closed_form(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 5))
        cov = 0.5 * np.eye(5) + 0.5
        for v in rng.standard_normal((4, 5)):
            low, up = prop1_margins(X, cov, v)
            root = np.linalg.cholesky(cov).T  # any factor with root^T root = cov gives ||root v||
            coef = 6.0 * math.sqrt(math.log(5) / 12)
            xv = np.linalg.norm(X @ v) / math.sqrt(12)
            sv, l1 = np.linalg.norm(root @ v), np.abs(v).sum()
            assert low == pytest.approx(xv - (0.5 * sv - coef * l1), abs=1e-12)
            assert up == pytest.approx((3.0 * sv + coef * l1) - xv, abs=1e-12)

    def test_re_constant_memory_is_blocked(self):
        # one (n_samples, d) block per candidate column: stacking every
        # rescaled copy at once peaks near 186 MiB here
        X = np.random.default_rng(0).standard_normal((200, 400))
        tracemalloc.start()
        try:
            re_constant(X, REParams(s=1, c0=8.0), n_samples=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20


_NAN_X = np.random.default_rng(3).standard_normal((8, 6))
_NAN_X[2, 4] = np.nan
_W = np.random.default_rng(4).standard_normal(8)
_INF_W = _W.copy()
_INF_W[5] = np.inf


@pytest.mark.parametrize("call, name", [
    (lambda: column_norm_constant(_NAN_X), "X"),
    (lambda: sparse_spectrum(_NAN_X, 1), "X"),
    (lambda: sparse_min_singular(_NAN_X, 2), "X"),
    (lambda: kernel_trivial_zero(_NAN_X, 1), "X"),
    (lambda: kernel_trivial_zero(_NAN_X, 3), "X"),  # 2s > n would answer without a scan
    (lambda: re_constant(_NAN_X, REParams(s=1, c0=1.0)), "X"),
    (lambda: re_constant(_NAN_X, REParams(s=2, c0=1.0), mode="exact_tiny"), "X"),
    (lambda: kernel_diameter(_NAN_X, BallSpec(0.5, 1.0)), "X"),
    (lambda: kernel_diameter(_NAN_X, BallSpec(0.0, 1)), "X"),
    (lambda: diagnose(_NAN_X, 1, n_samples=10), "X"),
    (lambda: prop1_margins(_NAN_X, np.eye(6), np.ones(6)), "X"),
    (lambda: prop1_margins(np.nan_to_num(_NAN_X), np.eye(6), _INF_W[2:]), "v"),
    (lambda: sup_correlation_exact(_NAN_X, _W, 1, 1.0), "X"),
    (lambda: sup_correlation_pred_exact(_NAN_X, _W, 1, 1.0), "X"),
    (lambda: sup_correlation_exact(np.nan_to_num(_NAN_X), _INF_W, 1, 1.0), "w"),
    (lambda: sup_correlation_pred_exact(np.nan_to_num(_NAN_X), _INF_W, 1, 1.0), "w"),
], ids=["column_norm_constant", "sparse_spectrum", "sparse_min_singular",
        "kernel_trivial_zero", "kernel_trivial_zero_wide", "re_constant_sampled",
        "re_constant_exact_tiny", "kernel_diameter_q", "kernel_diameter_q0", "diagnose", "prop1_margins_X", "prop1_margins_v",
        "sup_correlation_exact_X", "sup_correlation_pred_exact_X",
        "sup_correlation_exact_w", "sup_correlation_pred_exact_w"])
def test_nonfinite_design_rejected(call, name):
    # a NaN used to surface as LinAlgError, scipy's ValueError, a nan constant
    # or margin, or (NaN in w) a supremum of 0.0
    with pytest.raises(ParameterError, match=f"^{name} has non-finite entries$"):
        call()
