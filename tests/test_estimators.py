import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lqminimax import supports
from lqminimax.errors import EnumerationBudgetError, ParameterError
from lqminimax.estimators import (
    _lipschitz,
    check_basic_inequality,
    l0_least_squares,
    l1_constrained_ls,
    lasso,
    lq_constrained_ls,
)
from lqminimax.linmodel import BallSpec, simulate

X_COUNTER = np.array([[1.0, -2.0, -1.0], [2.0, -3.0, -3.0]])


def brute_force_l0(X, y, s):
    """Independent enumerator: plain lstsq over every support, kept dumb on purpose."""
    best_obj, best_beta = math.inf, None
    d = X.shape[1]
    for support in combinations(range(d), s):
        sub = X[:, support]
        b, *_ = np.linalg.lstsq(sub, y, rcond=None)
        r = y - sub @ b
        obj = float(r @ r)
        if obj < best_obj - 1e-15:
            best_obj = obj
            best_beta = np.zeros(d)
            best_beta[list(support)] = b
    return best_beta, best_obj


class TestL0:
    def test_counterexample_exact_recovery(self):
        res = l0_least_squares(X_COUNTER, np.array([1.0, 2.0]), s=1)
        assert np.allclose(res.beta_hat, [1.0, 0.0, 0.0], atol=1e-12)
        assert res.objective <= 1e-20

    def test_identity_picks_larger(self):
        res = l0_least_squares(np.eye(2), np.array([3.0, 1.0]), s=1)
        assert np.array_equal(res.beta_hat, [3.0, 0.0])
        assert res.objective == pytest.approx(1.0)

    def test_matches_brute_force_noiseless(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((8, 12))
        beta = np.zeros(12)
        beta[[2, 9]] = (1.0, -2.0)
        y = X @ beta
        res = l0_least_squares(X, y, s=2)
        _, obj = brute_force_l0(X, y, 2)
        assert res.objective <= 1e-18
        assert abs(res.objective - obj) <= 1e-10

    def test_matches_brute_force_noisy_batch(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            n, d, s = 10, rng.integers(5, 9), rng.integers(1, 3)
            X = rng.standard_normal((n, d))
            y = rng.standard_normal(n)
            res = l0_least_squares(X, y, int(s))
            _, obj = brute_force_l0(X, y, int(s))
            assert abs(res.objective - obj) <= 1e-10 * max(obj, 1.0)

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetError, match="C"):
            l0_least_squares(np.zeros((5, 100)), np.zeros(5), s=50)

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 8))
        y = rng.standard_normal(12)
        base = l0_least_squares(X, y, 2)
        scaled = l0_least_squares(X, 3.0 * y, 2)
        assert scaled.support == base.support
        assert np.allclose(scaled.beta_hat, 3.0 * base.beta_hat, atol=1e-9)

    def test_rank_deficient_support_min_norm(self):
        # duplicated column: the winning submatrix is singular
        col = np.array([1.0, 2.0, 3.0])
        X = np.column_stack([col, col])
        y = 2.0 * col
        res = l0_least_squares(X, y, s=2)
        assert res.objective <= 1e-18
        # minimum-norm solution splits the coefficient evenly
        assert np.allclose(res.beta_hat, [1.0, 1.0], atol=1e-8)

    def test_identity_fastpath_ties_lexicographic(self):
        res = l0_least_squares(np.eye(3), np.array([1.0, 1.0, 1.0]), s=1)
        assert res.support == (0,)
        assert res.info["method"] == "l0_identity"

    def test_support_follows_beta_hat(self):
        res = l0_least_squares(np.eye(3), np.array([1.0, 2.0, 3.0]), s=2)
        assert res.support == (1, 2) and res.to_json_dict()["support"] == [1, 2]
        with pytest.raises(AttributeError):
            res.support = (0,)

    def test_identity_fastpath_matches_enumeration(self):
        rng = np.random.default_rng(17)
        y = rng.standard_normal(9)
        fast = l0_least_squares(np.eye(9), y, 3)
        slow = l0_least_squares(np.eye(9) + np.full((9, 9), 1e-300), y, 3)
        assert fast.objective == pytest.approx(slow.objective, rel=1e-12)

    def test_ties_across_chunks_lexicographic(self, monkeypatch):
        # column 5 duplicates column 2, so supports (0, 2) and (0, 5) fit y
        # through identical arithmetic; two supports per chunk split them
        rng = np.random.default_rng(11)
        X = rng.standard_normal((10, 8))
        X[:, 5] = X[:, 2]
        y = X[:, 0] + X[:, 2]
        monkeypatch.setattr(supports, "CHUNK_ENTRIES", 2 * 2 * 2)
        chunks = [[tuple(r) for r in c] for c in supports.support_chunks(8, 2, per_support=4)]
        assert not any((0, 2) in c and (0, 5) in c for c in chunks)
        res = l0_least_squares(X, y, s=2)
        assert res.support == (0, 2)

    @pytest.mark.parametrize("defect", ["duplicate", "zero"])
    def test_rank_deficient_column_matches_brute_force(self, defect):
        rng = np.random.default_rng(24)
        X = rng.standard_normal((40, 24))
        X[:, 17] = X[:, 3] if defect == "duplicate" else 0.0
        y = X[:, [1, 3, 8, 20]] @ np.array([1.0, -1.0, 0.5, 2.0]) + rng.standard_normal(40)
        res = l0_least_squares(X, y, s=4)
        _, obj = brute_force_l0(X, y, 4)
        assert abs(res.objective - obj) <= 1e-10 * max(obj, 1.0)

    @pytest.mark.parametrize("X", [np.eye(4), np.random.default_rng(4).standard_normal((6, 4))],
                             ids=["identity", "gaussian"])
    def test_nonfinite_y_rejected(self, X):
        y = np.ones(X.shape[0])
        y[1] = np.nan
        with pytest.raises(ParameterError, match="y has non-finite"):
            l0_least_squares(X, y, s=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_X_rejected(self, bad):
        X = np.random.default_rng(6).standard_normal((6, 4))
        X[2, 1] = bad
        with pytest.raises(ParameterError, match="not finite"):
            l0_least_squares(X, np.ones(6), s=2)

    def test_infinite_identity_not_a_shortcut(self):
        with pytest.raises(ParameterError, match="not finite"):
            l0_least_squares(np.diag([np.inf] * 3), np.ones(3), s=1)


_SOLVERS = {
    "l0": lambda X, y: l0_least_squares(X, y, s=2),
    "l1": lambda X, y: l1_constrained_ls(X, y, 1.0),
    "lq": lambda X, y: lq_constrained_ls(X, y, BallSpec(0.5, 1.0), [np.zeros(X.shape[1])]),
    "lasso": lambda X, y: lasso(X, y, 0.1),
}


@pytest.mark.parametrize("where", ["X", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_nonfinite_input_rejected(solver, bad, where):
    X = np.random.default_rng(8).standard_normal((6, 4))
    y = np.ones(6)
    (X if where == "X" else y)[2] = bad
    with pytest.raises(ParameterError, match="non-finite|not finite"):
        _SOLVERS[solver](X, y)


class TestL1Constrained:
    def test_interior_truth_noiseless(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 5))
        beta = np.array([0.4, -0.3, 0.0, 0.0, 0.1])  # l1 norm 0.8 < 2
        y = X @ beta
        res = l1_constrained_ls(X, y, r1=2.0, tol=1e-10)
        assert res.converged
        assert res.objective <= 1e-10

    def test_counterexample_small_radius(self):
        res = l1_constrained_ls(X_COUNTER, np.array([1.0, 2.0]), r1=2.0 / 3.0,
                                max_iter=200_000, tol=1e-12)
        assert np.abs(res.beta_hat).sum() == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert res.objective <= 1e-10
        assert np.allclose(res.beta_hat, [0.0, -1.0 / 3.0, -1.0 / 3.0], atol=1e-5)

    def test_2d_kkt_case(self):
        res = l1_constrained_ls(np.eye(2), np.array([2.0, 0.0]), r1=1.0, tol=1e-12)
        assert np.allclose(res.beta_hat, [1.0, 0.0], atol=1e-8)

    def test_objective_monotone(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 10))
        y = rng.standard_normal(40)
        res = l1_constrained_ls(X, y, r1=0.7, max_iter=500, tol=0.0,
                                record_trace=True)
        trace = np.array(res.info["objective_trace"])
        assert np.all(np.diff(trace) <= 1e-10)

    @pytest.mark.parametrize("design", ["n_2d", "n_below_d", "scaled_identity"])
    def test_objective_trace_never_rises(self, design):
        # descent holds for any step below 2 / lambda_max, and 1/L is one
        rng = np.random.default_rng(11)
        X = {"n_2d": lambda: rng.standard_normal((60, 30)),
             "n_below_d": lambda: rng.standard_normal((20, 50)),
             "scaled_identity": lambda: 3.0 * np.eye(12)}[design]()
        y = rng.standard_normal(X.shape[0])
        res = l1_constrained_ls(X, y, r1=0.7, max_iter=500, tol=0.0,
                                record_trace=True)
        trace = np.array(res.info["objective_trace"])
        assert len(trace) > 2
        assert np.all(np.diff(trace) <= 1e-12 * trace[0])

    def test_duality_gap_certifies_optimum(self):
        # compare against a fine golden-section over the 2-d boundary
        X = np.array([[1.0, 0.3], [0.2, 1.5], [0.7, -0.4]])
        y = np.array([1.0, -2.0, 0.5])
        r1 = 0.5
        res = l1_constrained_ls(X, y, r1, tol=1e-10)
        assert res.converged
        best = math.inf
        for t in np.linspace(-r1, r1, 200_001):
            for b in ((t, r1 - abs(t)), (t, abs(t) - r1)):
                v = y - X @ np.array(b)
                best = min(best, float(v @ v))
        interior = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
        if np.abs(np.linalg.lstsq(X, y, rcond=None)[0]).sum() <= r1:
            best = min(best, float(interior @ interior))
        assert res.objective <= best + 1e-8

    def test_feasibility_flag(self):
        res = l1_constrained_ls(np.eye(3), np.array([5.0, 1.0, 0.0]), r1=1.0)
        assert res.feasible


class TestLqConstrained:
    def test_oracle_start_noiseless(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((20, 6))
        ball = BallSpec(0.5, 2.0)
        beta = np.zeros(6)
        beta[[1, 4]] = 1.0  # q-mass 2.0, on the boundary
        y = X @ beta
        res = lq_constrained_ls(X, y, ball, starts=[beta, np.zeros(6)])
        assert res.objective <= 1e-12

    def test_always_feasible(self):
        rng = np.random.default_rng(10)
        ball = BallSpec(0.5, 1.0)
        for _ in range(10):
            X = rng.standard_normal((10, 5))
            y = rng.standard_normal(10)
            res = lq_constrained_ls(X, y, ball, starts=[rng.standard_normal(5)])
            from lqminimax.ballgeom import ball_contains
            assert ball_contains(ball, res.beta_hat, tol=1e-8)

    def test_grid_oracle_2d(self):
        ball = BallSpec(0.5, 1.0)
        X = np.array([[1.0, 0.4], [-0.3, 1.2], [0.8, 0.8]])
        y = np.array([0.9, 0.2, -0.4])
        res = lq_constrained_ls(X, y, ball, starts=[np.zeros(2), np.array([0.5, 0.0]),
                                                    np.array([0.0, 0.5])])
        # dense grid over the feasible set |b1|^.5 + |b2|^.5 <= 1
        grid = np.linspace(-1.0, 1.0, 801)
        best = math.inf
        for b1 in grid:
            rem = 1.0 - math.sqrt(abs(b1))
            if rem < 0:
                continue
            for b2 in np.linspace(-rem * rem, rem * rem, 401):
                v = y - X @ np.array([b1, b2])
                best = min(best, float(v @ v))
        assert res.objective <= best + 1e-6

    def test_empty_starts_rejected(self):
        with pytest.raises(ParameterError):
            lq_constrained_ls(np.eye(2), np.zeros(2), BallSpec(0.5, 1.0), starts=[])


class TestLasso:
    def test_lambda_zero_identity(self):
        res = lasso(np.eye(2), np.array([1.5, -0.5]), lam=0.0)
        assert np.allclose(res.beta_hat, [1.5, -0.5], atol=1e-12)

    def test_lambda_above_threshold_kills_everything(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 6))
        y = rng.standard_normal(20)
        lam_max = np.abs(X.T @ y).max() / 20
        res = lasso(X, y, lam=lam_max * 1.001)
        assert np.all(res.beta_hat == 0.0)

    def test_counterexample_failure(self):
        # the l1 route lands at norm 2/3, away from the 1-sparse truth
        res = lasso(X_COUNTER, np.array([1.0, 2.0]), lam=1e-6, max_iter=100_000)
        assert np.abs(res.beta_hat).sum() == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert not np.allclose(res.beta_hat, [1.0, 0.0, 0.0], atol=0.1)

    def test_kkt_residual(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((30, 8))
        y = rng.standard_normal(30)
        res = lasso(X, y, lam=0.05, tol=1e-12)
        grad = X.T @ (y - X @ res.beta_hat) / 30
        for j in range(8):
            if res.beta_hat[j] == 0.0:
                assert abs(grad[j]) <= 0.05 + 1e-6
            else:
                assert grad[j] == pytest.approx(0.05 * np.sign(res.beta_hat[j]), abs=1e-6)
        assert res.info["kkt_residual"] <= 1e-6

    def test_zero_column_skipped(self):
        X = np.column_stack([np.ones(5), np.zeros(5)])
        res = lasso(X, np.ones(5), lam=0.01)
        assert res.info["skipped_columns"] == [1]
        assert res.beta_hat[1] == 0.0

    @pytest.mark.parametrize("seed,lam,max_iter,zero_col", [
        (21, 0.05, 10_000, None), (3, 0.2, 1, None), (4, 0.01, 2, 2), (5, 0.0, 1, 0)])
    def test_kkt_residual_matches_loop_reference(self, seed, lam, max_iter, zero_col):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((15, 6))
        if zero_col is not None:
            X[:, zero_col] = 0.0
        y = rng.standard_normal(15)
        res = lasso(X, y, lam=lam, max_iter=max_iter)
        grad = X.T @ (y - X @ res.beta_hat) / 15
        kkt = 0.0
        for j in range(6):
            if j == zero_col:
                continue
            if res.beta_hat[j] == 0.0:
                kkt = max(kkt, abs(grad[j]) - lam)
            else:
                kkt = max(kkt, abs(grad[j] - lam * np.sign(res.beta_hat[j])))
        assert res.info["kkt_residual"] == max(kkt, 0.0)


class TestBasicInequality:
    def test_truth_estimate(self):
        inst = simulate(np.eye(3), np.array([1.0, 0.0, 2.0]), 0.5, seed=0)
        res = l0_least_squares(inst.X, inst.y, 3)
        chk = check_basic_inequality(inst, res)
        assert chk.objective_ok and chk.eqn_basic_ok

    def test_l0_always_objective_ok(self):
        rng = np.random.default_rng(14)
        for seed in range(10):
            X = rng.standard_normal((12, 6))
            beta = np.zeros(6)
            beta[:2] = 1.0
            inst = simulate(X, beta, 1.0, seed=seed, ball=BallSpec(0.0, 2))
            res = l0_least_squares(inst.X, inst.y, 2)
            chk = check_basic_inequality(inst, res)
            assert chk.objective_ok
            assert chk.eqn_basic_ok

    def test_q1_monte_carlo(self):
        rng = np.random.default_rng(30)
        ok = 0
        for seed in range(50):
            X = rng.standard_normal((25, 8))
            beta = np.zeros(8)
            beta[[0, 3]] = (0.8, -0.7)
            inst = simulate(X, beta, 0.5, seed=seed)
            res = l1_constrained_ls(X, inst.y, r1=1.5, tol=1e-10)
            if not res.converged:
                continue
            chk = check_basic_inequality(inst, res)
            assert chk.eqn_basic_ok
            ok += 1
        assert ok == 50


def _check_lipschitz(X):
    """_lipschitz(X) lies in [sigma_max^2, (1 + 1e-6) sigma_max^2] by the SVD."""
    lip, steps = _lipschitz(X)
    top = np.linalg.svd(X, compute_uv=False)[0] ** 2
    assert top <= lip <= (1.0 + 1e-6) * top
    assert 1 <= steps <= min(X.shape)
    return lip, steps


class TestLipschitz:
    @pytest.mark.parametrize("n, d", [(40, 20), (200, 100), (400, 200),
                                      (20, 40), (50, 300), (100, 101)])
    def test_gaussian_sweep(self, n, d):
        rng = np.random.default_rng(n * 1000 + d)
        for _ in range(3):
            _check_lipschitz(rng.standard_normal((n, d)))

    def test_power_iteration_shortfall_design(self):
        # padded power iteration gave 4659.127 here, below sigma_max^2 = 4659.256
        X = np.random.default_rng(0).standard_normal((1600, 800))
        lip, steps = _check_lipschitz(X)
        assert lip > 4659.25
        assert steps < 100

    def test_scaled_identity_one_step(self):
        lip, steps = _check_lipschitz(3.0 * np.eye(7))
        assert steps == 1
        assert 9.0 <= lip <= 9.0 * (1.0 + 1e-6)

    def test_zero_matrix(self):
        assert _lipschitz(np.zeros((5, 3))) == (0.0, 1)

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1)])
    def test_single_row_or_column(self, shape):
        X = np.random.default_rng(2).standard_normal(shape)
        lip, steps = _check_lipschitz(X)
        assert steps == 1

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.integers(1, 12).flatmap(
        lambda d: arrays(np.float64, (n, d), elements=st.one_of(
            st.just(0.0), st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3))))))
    # top eigenvalues 1 + 1e-6 and 1, and 435^2 + 1 and 435^2: a first Ritz value
    # between them has a residual under 1e-6 theta but lies below the top one
    @example(np.array([[0.001, 0.0], [-1.0, 0.0], [0.0, -1.0]]))
    @example(np.array([[-1.0, -435.0, 0.0, 0.0, 0.0], [0.0] * 5, [0.0, 0.0, -435.0, 0.0, 0.0]]))
    def test_bound_property(self, X):
        _check_lipschitz(X)

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 12, 50])
    def test_clustered_top_eigenvalues(self, m):
        # rotated spectra 1 + delta, 1, ..., 1: the top two eigenvalues differ by delta
        for e in range(3, 10):
            rng = np.random.default_rng([m, e])
            U, _ = np.linalg.qr(rng.standard_normal((m + 3, m)))
            V, _ = np.linalg.qr(rng.standard_normal((m, m)))
            eigenvalues = np.ones(m)
            eigenvalues[0] += 10.0 ** -e
            _check_lipschitz((U * np.sqrt(eigenvalues)) @ V.T)

    @pytest.mark.parametrize("solver", ["l1", "lq"])
    def test_solvers_report_it(self, solver):
        X = np.random.default_rng(5).standard_normal((30, 12))
        res = _SOLVERS[solver](X, np.ones(30))
        assert (res.info["lipschitz"], res.info["lipschitz_steps"]) == _lipschitz(X)
