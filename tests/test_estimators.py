import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import eigh_tridiagonal

from lqminimax import estimators, supports
from lqminimax.ballgeom import project_l1
from lqminimax.errors import DimensionError, EnumerationBudgetError, ParameterError
from lqminimax.estimators import (
    _least_squares_gradient,
    check_basic_inequality,
    l0_least_squares,
    l1_constrained_ls,
    lasso,
    lq_constrained_ls,
)
from lqminimax.linmodel import BallSpec, InstanceSpec, simulate

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

    def test_support_follows_beta_hat(self):
        res = l0_least_squares(np.eye(3), np.array([1.0, 2.0, 3.0]), s=2)
        assert res.support == (1, 2) and res.to_json_dict()["support"] == [1, 2]
        with pytest.raises(AttributeError):
            res.support = (0,)

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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 9), st.data())
    def test_matches_brute_force_property(self, n, d, data):
        # zero, duplicated (possibly rescaled) and rescaled columns on a
        # Gaussian design; y is a noisy sparse fit on the design before them
        s = data.draw(st.integers(1, d), label="s")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        X = rng.standard_normal((n, d))
        y = X[:, :s] @ rng.standard_normal(s) + 0.1 * rng.standard_normal(n)
        for j in range(d):
            defect = data.draw(st.sampled_from(["none", "zero", "duplicate", "scale"]))
            factor = data.draw(st.sampled_from([1.0, -2.0, 1e-3, 1e3]))
            if defect == "zero":
                X[:, j] = 0.0
            elif defect == "duplicate":
                X[:, j] = factor * X[:, data.draw(st.integers(0, d - 1))]
            elif defect == "scale":
                X[:, j] *= factor
        res = l0_least_squares(X, y, s)
        _, obj = brute_force_l0(X, y, s)
        assert abs(res.objective - obj) <= 1e-10 * max(obj, 1.0)

    @pytest.mark.parametrize("seed, n, d, s, defect", [
        (1_000_000_001, 4, 6, 3, {0: 0.0, 1: 0.0, 3: (1e3, 2)}),
        (384104952, 7, 9, 5, {0: 1e-3, 2: (1e-3, 7), 4: 0.0, 5: (1e-3, 0), 6: 1e3,
                              7: (1e-3, 5), 8: -2.0}),
    ], ids=["scaled_duplicate", "duplicate_chain"])
    def test_degenerate_columns_match_brute_force(self, seed, n, d, s, defect):
        # scaled_duplicate: column 3 is 1000 x column 2; a batched LU solve of
        # the Gram blocks found no zero pivot and returned residual 0.614 over
        # the optimum 0.559.  duplicate_chain: columns 0, 5, 7 and 2 are
        # 1e-3, 1e-6, 1e-9 and 1e-6 times one column; (1, 2, 3, 5, 6) and
        # (1, 2, 3, 6, 7) tie, and a refit with a cutoff relative to the
        # largest column dropped column 7 (9.12 over 0.056).  Defects apply in
        # column order: a factor rescales the column, (factor, k) copies column k.
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        y = X[:, :s] @ rng.standard_normal(s) + 0.1 * rng.standard_normal(n)
        for j, change in sorted(defect.items()):
            X[:, j] = change[0] * X[:, change[1]] if isinstance(change, tuple) else change * X[:, j]
        res = l0_least_squares(X, y, s)
        _, obj = brute_force_l0(X, y, s)
        assert abs(res.objective - obj) <= 1e-10 * max(obj, 1.0)

    @pytest.mark.parametrize("s", [1, 7])
    def test_empty_prefix_and_full_support(self, s):
        # s = 1 scores every column with no prefix; s = d has one support
        rng = np.random.default_rng(31)
        X = rng.standard_normal((12, 7))
        y = rng.standard_normal(12)
        res = l0_least_squares(X, y, s)
        _, obj = brute_force_l0(X, y, s)
        assert abs(res.objective - obj) <= 1e-10 * max(obj, 1.0)
        assert res.info["n_supports"] == math.comb(7, s)
        assert res.info["lstsq_supports"] == 0
        X[:, 4] = X[:, 2]
        redone = l0_least_squares(X, y, s).info["lstsq_supports"]
        assert redone == (0 if s == 1 else 1)

    def test_ties_across_prefix_chunks_lexicographic(self, monkeypatch):
        # column 2 duplicates column 1, so (1, 3) and (2, 3) fit y = X_1 + X_3
        # exactly; they differ in their prefix, which sits in its own chunk
        rng = np.random.default_rng(12)
        X = rng.standard_normal((10, 6))
        X[:, 2] = X[:, 1]
        y = X[:, 1] + X[:, 3]
        monkeypatch.setattr(supports, "CHUNK_ENTRIES", 6)
        chunks = [[tuple(r) for r in c] for c in supports.support_chunks(5, 1, per_support=6)]
        assert not any((1,) in c and (2,) in c for c in chunks)
        assert l0_least_squares(X, y, s=2).support == (1, 3)

    @pytest.mark.parametrize("defect, redone", [("none", 0), ("duplicate", math.comb(22, 2)),
                                                ("zero", math.comb(23, 3))])
    def test_reports_lstsq_supports(self, defect, redone):
        # the supports with both copies of a column, or with the zero column
        rng = np.random.default_rng(24)
        X = rng.standard_normal((40, 24))
        if defect != "none":
            X[:, 17] = X[:, 3] if defect == "duplicate" else 0.0
        y = rng.standard_normal(40)
        assert l0_least_squares(X, y, s=4).info["lstsq_supports"] == redone

    def test_prefix_chunks_keep_memory_flat(self):
        # 82,251 prefixes (every 4-subset of the first 39 columns) in 7 chunks;
        # one (prefix, column) array over all of them would take 26 MB, and the
        # pass keeps six of them
        rng = np.random.default_rng(40)
        X = rng.standard_normal((60, 40))
        y = rng.standard_normal(60)
        assert len(list(supports.support_chunks(39, 4, per_support=4 * 40))) > 1
        tracemalloc.start()
        try:
            res = l0_least_squares(X, y, s=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.info["n_supports"] == math.comb(40, 5)
        assert peak <= 2 * supports.CHUNK_ENTRIES * 8

    def test_ties_across_pair_passes_lexicographic(self, monkeypatch):
        # column 5 duplicates column 2, so (0, 2) and (0, 5) fit y through
        # identical arithmetic; three pairs a pass put them in different passes
        rng = np.random.default_rng(11)
        X = rng.standard_normal((10, 8))
        X[:, 5] = X[:, 2]
        y = X[:, 0] + X[:, 2]
        monkeypatch.setattr(estimators, "_PAIR_BLOCK", 3)
        pairs = list(combinations(range(8), 2))
        assert pairs.index((0, 2)) // 3 != pairs.index((0, 5)) // 3
        assert l0_least_squares(X, y, s=2).support == (0, 2)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10), st.integers(2, 8), st.integers(1, 3), st.data())
    def test_pair_passes_match_brute_force_property(self, n, d, block, data):
        # one to three supports a pass, so every instance spans passes; the
        # scores do not depend on the cut, so support and lstsq count match
        # the default passes, and the objective matches brute force
        s = data.draw(st.integers(1, d), label="s")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        X = rng.standard_normal((n, d))
        y = X[:, :s] @ rng.standard_normal(s) + 0.1 * rng.standard_normal(n)
        for j in range(d):
            defect = data.draw(st.sampled_from(["none", "zero", "duplicate"]))
            if defect == "zero":
                X[:, j] = 0.0
            elif defect == "duplicate":
                X[:, j] = X[:, data.draw(st.integers(0, d - 1))]
        whole = l0_least_squares(X, y, s)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimators, "_PAIR_BLOCK", block)
            res = l0_least_squares(X, y, s)
        assert (res.support, res.info) == (whole.support, whole.info)
        _, obj = brute_force_l0(X, y, s)
        assert abs(res.objective - obj) <= 1e-10 * max(obj, 1.0)

    def test_pair_kernel_memory(self):
        # the q = 0 grid's solve: fields of 435 prefixes and one pass's buffers
        # (scoring every (3-prefix, column) entry would peak at 6.4 MiB)
        rng = np.random.default_rng(41)
        X = rng.standard_normal((400, 32))
        y = X[:, :4].sum(axis=1) + rng.standard_normal(400)
        tracemalloc.start()
        try:
            res = l0_least_squares(X, y, s=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.support == (0, 1, 2, 3)
        assert peak <= 2 << 20

    def test_duplicated_column_ties_lexicographic(self):
        # column 4 equals column 2, so (0, 1, 2) and (0, 1, 4) tie; the gemv
        # behind X^T y rounded the two entries apart by 7.1e-15, and the
        # scores without bit-equal entries picked (0, 1, 4)
        rng = np.random.default_rng(8)
        X = rng.standard_normal((29, 7))
        X[:, 4] = X[:, 2]
        y = X[:, :3] @ rng.standard_normal(3) + 0.3 * rng.standard_normal(29)
        assert l0_least_squares(X, y, s=3).support == (0, 1, 2)

    def test_bound_prunes_planted_support(self):
        # the q = 0 grid's shape: the first prefix's completions hold the
        # planted support, and the bound rules out almost every other prefix
        rng = np.random.default_rng(42)
        X = rng.standard_normal((400, 32))
        y = X[:, [3, 11, 20, 29]] @ np.array([1.0, -1.0, 0.8, 1.2]) + rng.standard_normal(400)
        res = l0_least_squares(X, y, s=4)
        assert res.support == (3, 11, 20, 29)
        assert res.info["n_supports"] == res.iterations == math.comb(32, 4)
        assert res.info["scored_supports"] <= 0.02 * math.comb(32, 4)
        assert res.info["lstsq_supports"] == 0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(4, 9), st.data())
    def test_bound_matches_brute_force_property(self, d, data):
        # full-rank designs: s planted columns, in random places, carry a
        # strong signal in units of their norms; any column may be rescaled,
        # and an unplanted one may be a near duplicate of another column (the
        # 1e-7 ones fail the pivot test, the 1e-3 ones take the pruned scan).
        # n >= 2d + 2 and the signal keep both copies out of the optimum: a
        # support holding both is fitted to about 1e-9 by any method
        s = data.draw(st.integers(3, d), label="s")
        n = data.draw(st.integers(2 * d + 2, 6 * d), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        X = rng.standard_normal((n, d))
        place = rng.permutation(d)
        for j in place[s:]:
            if data.draw(st.booleans(), label="near duplicate"):
                k = data.draw(st.sampled_from([i for i in range(d) if i != j]))
                X[:, j] = X[:, k] + data.draw(st.sampled_from([1e-7, 1e-3])) * rng.standard_normal(n)
        X *= data.draw(st.lists(st.sampled_from([1.0, -2.0, 1e-3, 1e3]), min_size=d, max_size=d))
        planted = place[:s]
        signs = rng.choice([-1.0, 1.0], s)
        coef = signs * rng.uniform(2.0, 4.0, s) / np.linalg.norm(X[:, planted], axis=0)
        y = np.sqrt(n) * X[:, planted] @ coef + rng.standard_normal(n)
        res = l0_least_squares(X, y, s)
        beta, obj = brute_force_l0(X, y, s)
        assert res.support == tuple(np.flatnonzero(beta))
        assert abs(res.objective - obj) <= 1e-10 * max(obj, 1.0)
        assert res.info["scored_supports"] <= res.info["n_supports"] == math.comb(d, s)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(6, 14), st.data())
    def test_bound_matches_full_enumeration_property(self, d, data):
        # correlated columns and a weak or absent signal, so the best support
        # is often not among the first prefix's completions; full
        # enumeration (no bound factor) must pick the same support
        s = data.draw(st.integers(3, min(d - 1, 5)), label="s")
        n = data.draw(st.integers(d + 2, 5 * d), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        mix = np.eye(d) + data.draw(st.sampled_from([0.0, 0.3, 1.0])) * rng.standard_normal((d, d))
        X = rng.standard_normal((n, d)) @ mix
        weight = data.draw(st.sampled_from([0.0, 0.1, 0.5]), label="signal")
        y = weight * X[:, rng.choice(d, s, replace=False)].sum(axis=1) + rng.standard_normal(n)
        res = l0_least_squares(X, y, s)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimators, "_bound_factor", lambda *args: None)
            full = l0_least_squares(X, y, s)
        assert full.info["scored_supports"] == full.info["n_supports"]
        assert (res.support, res.objective) == (full.support, full.objective)
        assert res.info["scored_supports"] <= res.info["n_supports"]

    def test_bound_tails_once_per_call(self, monkeypatch):
        # the tail sums of the bound factor depend on no prefix: a solve whose
        # prefixes span several chunks computes them once, and keeps its
        # support and objective
        rng = np.random.default_rng(43)
        X = rng.standard_normal((60, 24))
        y = 0.3 * X[:, [2, 9, 15, 21]].sum(axis=1) + rng.standard_normal(60)
        whole = l0_least_squares(X, y, s=4)
        calls = {"_bound_tails": 0, "_prefix_bounds": 0}

        def counted(name):
            real = getattr(estimators, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(estimators, name, counted(name))
        monkeypatch.setattr(supports, "CHUNK_ENTRIES", 5 * 24 * 40)  # at most 40 prefixes a chunk
        chunks = len(list(supports.support_chunks(22, 2, per_support=5 * 24)))
        res = l0_least_squares(X, y, s=4)
        assert chunks > 1
        assert calls == {"_bound_tails": 1, "_prefix_bounds": chunks}
        assert (res.support, res.objective, res.info) == (whole.support, whole.objective,
                                                          whole.info)

    @pytest.mark.parametrize("block", [4096, 1])
    @pytest.mark.parametrize("mix, coef, ties", [
        (np.eye(8).tolist(), [2, 0, 2, 0, 3, 2, 1, 0], [(0, 2, 4), (0, 4, 5), (2, 4, 5)]),
        ([[1, 0, -1, 0, 0, 0], [-1, 0, -1, -1, -1, 0], [0, 0, 0, 0, 0, -1],
          [-1, 0, 1, 1, 0, -1], [1, -1, 0, 1, -1, 1], [1, 0, -1, 1, 0, 1],
          [1, 0, 1, 1, 0, 0], [0, 1, 1, 1, 0, -1]],
         [-2, 3, -1, 1, -1, 1, 1, -3], [(0, 1, 5), (0, 3, 5)]),
        ([[1, 0, 0, 0, -1, 0], [0, 1, 0, 1, -1, 1], [-1, 0, 1, 0, -1, 0],
          [1, 0, 0, 0, 1, 0], [1, 1, 1, -1, 1, 1], [1, 1, 0, -1, -1, 1],
          [0, 1, 1, 0, -1, 0], [1, 1, 1, -1, 0, 0]],
         [0, 3, 3, 2, -1, 0, 2, 0], [(1, 2, 3), (2, 3, 4), (2, 3, 5)]),
    ], ids=["orthogonal", "same_prefix", "incumbent_prefix"])
    def test_bound_ties_follow_original_order(self, monkeypatch, block, mix, coef, ties):
        # integer combinations of Hadamard columns whose best supports tie
        # exactly and score equal residuals; a column outside X adds noise
        # orthogonal to X.  orthogonal: eight Hadamard columns, G = 16 I and
        # X^T y = 16 coef, every residual exact, and column 4 scores highest,
        # so the scan's order differs from the column order.  The other two
        # (ties checked in rational arithmetic) put a larger original support
        # first in the scan: column 3 precedes column 1 in the same prefix,
        # and (2, 3, 4) completes the first prefix while (1, 2, 3) comes later
        H = _hadamard16()
        X = H[:, :8] @ np.array(mix, dtype=float)
        y = H[:, :8] @ np.array(coef, dtype=float) + H[:, 9]
        monkeypatch.setattr(estimators, "_PAIR_BLOCK", block)
        res = l0_least_squares(X, y, s=3)
        assert res.support == ties[0]
        assert 0 < res.info["scored_supports"] < res.info["n_supports"]

    @pytest.mark.parametrize("d", [8, 33, 129])
    def test_bound_factor_is_cholesky_of_reordered_gram(self, d):
        # the factor reproduces M = [[G, r], [r^T, y^T y]] with the sorted
        # columns reversed, and the margin is the one LAPACK's triangular
        # inverse gives
        from scipy.linalg.lapack import dtrtri
        rng = np.random.default_rng(d)
        n = 2 * d + 3
        X = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, d)
        y = X[:, :3].sum(axis=1) + rng.standard_normal(n)
        gram, corr, yy = X.T @ X, X.T @ y, float(y @ y)
        order, factor, margin = estimators._bound_factor(gram, corr, yy)
        assert np.array_equal(order, np.argsort(-np.abs(corr) / np.sqrt(np.diagonal(gram)),
                                                kind="stable"))
        rev = order[::-1]
        M = np.empty((d + 1, d + 1))
        M[:d, :d], M[:d, d], M[d, :d], M[d, d] = gram[np.ix_(rev, rev)], corr[rev], corr[rev], yy
        assert np.abs(factor @ factor.T - M).max() <= 1e-12 * np.abs(M).max()
        assert np.all(np.triu(factor, 1) == 0.0)
        inverse = dtrtri(factor, lower=1)[0] * np.sqrt(np.diagonal(M))
        expected = 2.0 * (d + 1) * (d + 2) * np.finfo(float).eps * yy * float(np.sum(inverse ** 2))
        assert margin == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("defect", ["zero", "duplicate", "nan"])
    def test_bound_factor_refuses_degenerate_gram(self, defect):
        # a zero or an exactly duplicated column fails the factorization (or,
        # rounded, the pivot test), and a NaN entry reaches the pivot test as a
        # NaN pivot; each sends the solve to full enumeration
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 12))
        y = X[:, :3].sum(axis=1) + rng.standard_normal(40)
        if defect == "zero":
            X[:, 5] = 0.0
        elif defect == "duplicate":
            X[:, 7] = X[:, 2]
        gram, corr, yy = X.T @ X, X.T @ y, float(y @ y)
        if defect == "nan":
            gram[4, 9] = gram[9, 4] = np.nan
        assert estimators._bound_factor(gram, corr, yy) is None


def _hadamard16() -> np.ndarray:
    """The 16 x 16 Sylvester Hadamard matrix: +-1 entries, orthogonal columns."""
    H = np.array([[1.0]])
    while len(H) < 16:
        H = np.block([[H, H], [H, -H]])
    return H


_SOLVERS = {
    "l0": lambda X, y: l0_least_squares(X, y, s=2),
    "l1": lambda X, y: l1_constrained_ls(X, y, 1.0),
    "lq": lambda X, y: lq_constrained_ls(X, y, BallSpec(0.5, 1.0), [np.zeros(X.shape[-1])]),
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


@pytest.mark.parametrize("X_shape, y_shape", [((6, 4), (6, 1)), ((6, 4), (5,)), ((6,), (6,)),
                                              ((6, 0), (6,)), ((0, 4), (0,))])
@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_misshaped_input_rejected(solver, X_shape, y_shape):
    X = np.random.default_rng(8).standard_normal(X_shape)
    with pytest.raises(DimensionError, match="X must be 2-D|y has shape"):
        _SOLVERS[solver](X, np.ones(y_shape))


class TestL1Constrained:
    @pytest.mark.parametrize("r1", [0.0, math.nan, math.inf])
    def test_radius_must_be_finite_and_positive(self, r1):
        with pytest.raises(ParameterError, match="'radius' must be a finite number > 0"):
            l1_constrained_ls(np.eye(2), np.ones(2), r1=r1)

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

    def test_misshaped_start_rejected(self):
        X = np.random.default_rng(3).standard_normal((10, 8))
        with pytest.raises(DimensionError, match=r"start 1 has shape \(7,\), expected \(8,\)"):
            lq_constrained_ls(X, np.ones(10), BallSpec(0.5, 1.0), [np.zeros(8), np.zeros(7)])

    def test_nonfinite_start_rejected(self):
        X = np.random.default_rng(3).standard_normal((10, 8))
        with pytest.raises(ParameterError, match="start 0 has non-finite entries"):
            lq_constrained_ls(X, np.ones(10), BallSpec(0.5, 1.0), [np.full(8, np.nan)])


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

    @pytest.mark.parametrize("shape", [(40, 6), (6, 40)], ids=["gram_form", "x_form"])
    def test_lambda_max_certified_from_xty_alone(self, monkeypatch, shape):
        # b = 0 is certified by X^T y before G or the Lanczos bound is formed
        def no_gradient(*args):
            raise AssertionError("formed G or ran Lanczos")

        monkeypatch.setattr(estimators, "_least_squares_gradient", no_gradient)
        rng = np.random.default_rng(2)
        X = rng.standard_normal(shape)
        y = rng.standard_normal(shape[0])
        lam_max = np.abs(X.T @ y).max() / shape[0]
        res = lasso(X, y, lam=lam_max)
        assert np.all(res.beta_hat == 0.0) and res.converged and res.iterations == 1
        assert res.info["kkt_residual"] <= 1e-10
        assert res.info["lipschitz_steps"] == 0 and "lipschitz" not in res.info
        assert res.objective == float(y @ y)

    def test_counterexample_failure(self):
        # the l1 route lands at norm 2/3, away from the 1-sparse truth
        res = lasso(X_COUNTER, np.array([1.0, 2.0]), lam=1e-6, max_iter=100_000)
        assert np.abs(res.beta_hat).sum() == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert not np.allclose(res.beta_hat, [1.0, 0.0, 0.0], atol=0.1)

    def test_counterexample_converges_within_default_max_iter(self):
        res = lasso(X_COUNTER, np.array([1.0, 2.0]), lam=1e-6)
        assert res.converged
        assert res.info["kkt_residual"] <= 1e-10 + 1e-14

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


_ENTRIES = st.one_of(st.just(0.0), st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3))
# top eigenvalues 1 + 1e-6 and 1, and 435^2 + 1 and 435^2: a first Ritz value
# between them has a residual under 1e-6 theta but lies below the top one
_NEAR_TIE = np.array([[0.001, 0.0], [-1.0, 0.0], [0.0, -1.0]])
_NEAR_TIE_WIDE = np.array([[-1.0, -435.0, 0.0, 0.0, 0.0], [0.0] * 5, [0.0, 0.0, -435.0, 0.0, 0.0]])


def _cluster_spectrum(family, m, width, rng):
    """m eigenvalues whose top ones crowd 1 + ``width``."""
    i = np.arange(m)
    return {
        "spike": lambda: np.where(i == 0, 1.0 + width, 1.0),  # 1 + w, 1, ..., 1
        "linear": lambda: 1.0 + width * (m - i) / m,
        "geometric": lambda: 1.0 + width * 0.5 ** i,
        "pair": lambda: np.concatenate([[1.0 + width, 1.0][:m], np.linspace(0.5, 0.1, max(m - 2, 0))]),
        "uniform": lambda: np.concatenate([[1.0 + width], 1.0 + width * rng.uniform(size=m - 1)]),
    }[family]()


def _clustered_design(family, m, e, seed):
    """An (m + 3) x m design U diag(sqrt(lambda)) V^T with a random frame U and
    rotation V, so its Gram matrix has the spectrum above at width 10^-e."""
    rng = np.random.default_rng([m, e, seed])
    eigenvalues = _cluster_spectrum(family, m, 10.0 ** -e, rng)
    U, _ = np.linalg.qr(rng.standard_normal((m + 3, m)))
    V, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (U * np.sqrt(eigenvalues)) @ V.T


def _lipschitz(X):
    """(L, steps) as both projected-gradient solvers compute them for X: Lanczos
    on G = X^T X when n >= d, on X X^T through products with X otherwise."""
    return _least_squares_gradient(X, np.zeros(X.shape[0]))[1:]


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
        assert _lipschitz(np.zeros((3, 5))) == (0.0, 1)

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1)])
    def test_single_row_or_column(self, shape):
        X = np.random.default_rng(2).standard_normal(shape)
        lip, steps = _check_lipschitz(X)
        assert steps == 1

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.integers(1, 12).flatmap(
        lambda d: arrays(np.float64, (n, d), elements=_ENTRIES))))
    @example(_NEAR_TIE)
    @example(_NEAR_TIE_WIDE)
    def test_bound_property(self, X):
        _check_lipschitz(X)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda d: st.integers(d, 12).flatmap(
        lambda n: arrays(np.float64, (n, d), elements=_ENTRIES))))
    @example(_NEAR_TIE)
    @example(_NEAR_TIE_WIDE.T)
    # the worst shortfalls of the sweep below when theta had to settle over two steps
    # rather than two checks: 9.4e-6 and 9.0e-7 relative
    @example(_clustered_design("pair", 8, 5, 0))
    @example(_clustered_design("linear", 8, 5, 0))
    def test_gram_bound_property(self, X):
        # n >= d: Lanczos runs on G = X^T X, and its pad must cover G's rounding too
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

    @pytest.mark.parametrize("family", ["spike", "linear", "geometric", "pair", "uniform"])
    def test_clustered_shortfall_below_the_cluster_width(self, family):
        # 180 rotated spectra per family, widths 1e-3 .. 1e-12: L may fall short of
        # sigma_max^2 (5 of the 900 here) but never by the cluster's width
        for m in (2, 3, 5, 8, 12, 50):
            for e in range(3, 13):
                for seed in range(3):
                    X = _clustered_design(family, m, e, seed)
                    lip, steps = _lipschitz(X)
                    top = np.linalg.svd(X, compute_uv=False)[0] ** 2
                    assert top - 10.0 ** -e * top < lip <= (1.0 + 1e-6) * top

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
    def test_overflowing_design_rejected(self, shape):
        # finite entries whose products overflow give non-finite Lanczos coefficients
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ParameterError, match="Lanczos coefficients are not finite"):
            _lipschitz(np.full(shape, 1e200))

    def test_overflow_between_checks_rejected(self, monkeypatch):
        # the third product overflows: step 3 is no Ritz check, and the coefficients
        # are tested before w is divided by beta
        A, calls = np.diag(np.arange(1.0, 9.0)), []

        def apply(v):
            calls.append(v)
            return A @ v if len(calls) < 3 else np.full(8, np.inf)

        ritz = _spy_ritz(monkeypatch)
        with np.errstate(invalid="ignore"), \
                pytest.raises(ParameterError, match="Lanczos coefficients are not finite"):
            estimators._lipschitz(apply, 8, 8 * np.finfo(float).eps)
        assert len(calls) == 3 and ritz == []

    @pytest.mark.parametrize("X, expected_steps", [
        (np.outer(np.arange(1.0, 31.0), np.linspace(-1.0, 2.0, 12)), 2),  # rank 1, Gram form
        (np.outer(np.arange(1.0, 13.0), np.linspace(-1.0, 2.0, 30)), 2),  # rank 1, X form
        (np.random.default_rng(7).standard_normal((30, 2))
         @ np.random.default_rng(8).standard_normal((2, 12)), 3),
        (np.random.default_rng(9).standard_normal((12, 2))
         @ np.random.default_rng(10).standard_normal((2, 30)), 3),
        (3.0 * np.eye(7), 1),
        (np.zeros((5, 3)), 1),
        (np.zeros((3, 5)), 1),
        (np.random.default_rng(2).standard_normal((1, 9)), 1),
    ], ids=["rank1_gram", "rank1_x", "rank2_gram", "rank2_x", "3I", "zero_tall", "zero_wide", "1x9"])
    def test_breakdown_between_checks_stops(self, X, expected_steps, monkeypatch):
        # the Krylov space of a rank-r operator on m > r coordinates is invariant
        # after r + 1 steps (one for c I and for zero), before the first regular
        # check at step 4: the breakdown is checked at once, and it stops Lanczos
        ritz = _spy_ritz(monkeypatch)
        _, steps = _check_lipschitz(X)
        assert steps == expected_steps
        assert [len(T) for T, _ in ritz] == [steps]

    @pytest.mark.parametrize("solver", ["l1", "lq", "lasso"])
    def test_solvers_report_it(self, solver):
        for shape in [(30, 12), (12, 30)]:  # Gram form and X form
            X = np.random.default_rng(5).standard_normal(shape)
            res = _SOLVERS[solver](X, np.ones(shape[0]))
            assert (res.info["lipschitz"], res.info["lipschitz_steps"]) == _lipschitz(X)
            assert type(res.info["lipschitz"]) is float


def _lipschitz_reference(apply, m, round_off):
    """Reference for ``estimators._lipschitz``, which must match it bit for bit: a
    list basis restacked every step, and ``np.linalg.eigh`` on T rebuilt from the
    coefficient lists at every fourth step, at step m and at a breakdown."""
    start = np.random.default_rng(0).standard_normal(m)
    basis = [start / np.linalg.norm(start)]
    alphas, betas = [], []
    tops = [-math.inf, -math.inf]
    for step in range(1, m + 1):
        w = apply(basis[-1])
        alphas.append(float(basis[-1] @ w))
        V = np.array(basis)
        w -= V.T @ (V @ w)
        w -= V.T @ (V @ w)
        beta = float(np.linalg.norm(w))
        breakdown = beta <= round_off * max(0.0, *alphas)
        if step % 4 == 0 or step == m or breakdown:
            T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            values, vectors = np.linalg.eigh(T)
            theta = float(values[-1])
            slack = beta * abs(float(vectors[-1, -1])) + round_off * theta
            if (slack <= 1e-6 * theta and theta - tops[-2] <= slack) or breakdown or step == m:
                break
            tops.append(theta)
        betas.append(beta)
        basis.append(w / beta)
    return theta + slack, step


def _spy_ritz(monkeypatch):
    """A list that collects (T, eigenvalues) for every ``np.linalg.eigh`` call."""
    calls, eigh = [], np.linalg.eigh

    def spy(T):
        values, vectors = eigh(T)
        calls.append((np.array(T), values))
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


def _rotated_spectrum(m, power, seed):
    """U diag(sqrt(1 + (i / (m - 1))^power)) U^T: the eigenvalues of its Gram matrix
    crowd the top, so Lanczos runs long."""
    U, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))
    return (U * np.sqrt(1.0 + (np.arange(m) / (m - 1)) ** power)) @ U.T


@pytest.mark.parametrize("X, min_steps", [
    (np.random.default_rng(1).standard_normal((40, 20)), 1),  # Gram form
    (np.random.default_rng(2).standard_normal((400, 200)), 1),
    (np.random.default_rng(3).standard_normal((20, 40)), 1),  # X form
    (np.random.default_rng(4).standard_normal((50, 300)), 1),
    (3.0 * np.eye(7), 1),
    (np.zeros((5, 3)), 1),
    (np.zeros((3, 5)), 1),
    (_rotated_spectrum(127, 0.5, 0), 65),  # the basis grows once, capped at m
    (_rotated_spectrum(400, 0.25, 400), 129),  # the basis grows twice
], ids=["gram_40x20", "gram_400x200", "x_20x40", "x_50x300", "3I", "zero_tall", "zero_wide",
        "grow_to_m", "grow_twice"])
def test_lanczos_matches_eigh_tridiagonal_version(X, min_steps, monkeypatch):
    n, d = X.shape
    eps = np.finfo(float).eps
    if n >= d:
        G = X.T @ X
        args = (G.__matmul__, d, (2 * n + d) * eps)
    else:
        args = (lambda v: X @ (X.T @ v), n, (n + d) * eps)
    ritz = _spy_ritz(monkeypatch)
    lip, steps = estimators._lipschitz(*args)
    monkeypatch.undo()
    assert (lip, steps) == _lipschitz_reference(*args)
    assert steps >= min_steps
    # every check saw the tridiagonal T so far, and its top Ritz value agrees with
    # scipy's tridiagonal eigensolver
    sizes = [len(T) for T, _ in ritz]
    assert sizes == [k for k in range(1, steps + 1) if k % 4 == 0 or k == steps]
    for T, values in ritz:
        k = len(T)
        assert np.array_equal(T, np.diag(np.diag(T)) + np.diag(np.diag(T, 1), 1) + np.diag(np.diag(T, -1), -1))
        assert np.array_equal(T, T.T)
        top = eigh_tridiagonal(np.diag(T), np.diag(T, 1), eigvals_only=True,
                               select="i", select_range=(k - 1, k - 1))[0]
        assert abs(values[-1] - top) <= 1e-12 * abs(top)


def _reference_l1(X, y, r1, lip, max_iter, tol):
    """(iterations, objective) of the accelerated l1 loop with every product taken from X."""
    def at(b):
        r = X @ b - y
        return X.T @ r, float(r @ r)

    beta = beta_prev = np.zeros(X.shape[1])
    g, f = at(beta)
    g_prev, t, tie = g, 1.0, sum(X.shape) * np.finfo(float).eps * f
    for it in range(1, max_iter + 1):
        grad = 2.0 * g
        if grad @ beta + r1 * np.max(np.abs(grad)) <= tol:
            break
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        m = (t - 1.0) / t_next
        v = beta + m * (beta - beta_prev)
        z = project_l1(v - (g + m * (g - g_prev)) / lip, r1)
        g_z, f_z = at(z)
        if m > 0.0 and f_z > f + tie:
            t = 1.0
            continue
        t = 1.0 if (v - z) @ (z - beta) > 0.0 else t_next
        beta_prev, g_prev, beta, g, f = beta, g, z, g_z, f_z
    r = y - X @ beta
    return it, float(r @ r)


def _plain_l1_iterations(X, y, r1, lip, max_iter, tol):
    """Iterations of plain projected gradient at step 1/L to the same gap."""
    beta = np.zeros(X.shape[1])
    for it in range(1, max_iter + 1):
        grad_half = X.T @ (X @ beta - y)
        grad = 2.0 * grad_half
        if grad @ beta + r1 * np.max(np.abs(grad)) <= tol:
            break
        beta = project_l1(beta - grad_half / lip, r1)
    return it


# criterion 3 instances (truth at the detection scale) and solver settings
_CRITERION3 = InstanceSpec(ball=BallSpec(1.0, 4.0), sigma=1.0, beta_magnitude_rule="threshold_logd")


@pytest.mark.parametrize("n", [100, 200, 400, 800])
def test_gram_form_matches_x_form(n):
    # d = n / 2, as in criterion 3
    for seed in range(3):
        inst = _CRITERION3.draw(n, n // 2, seed)
        res = l1_constrained_ls(inst.X, inst.y, 4.0, max_iter=3000, tol=1e-6)
        iterations, objective = _reference_l1(inst.X, inst.y, 4.0, res.info["lipschitz"],
                                              max_iter=3000, tol=1e-6)
        assert res.iterations == iterations
        assert res.objective == pytest.approx(objective, rel=1e-12)


@pytest.mark.parametrize("n, d", [(100, 50), (200, 100), (400, 200), (800, 400), (50, 100)])
def test_accelerated_gap_certified_from_x_and_fewer_iterations(n, d):
    # the gap at exit, recomputed from X alone, certifies the solution; round-off
    # allowance d eps per unit of r1 max|grad|, the scale of the gap's terms
    for seed in range(3):
        inst = _CRITERION3.draw(n, d, seed)
        res = l1_constrained_ls(inst.X, inst.y, 4.0, max_iter=3000, tol=1e-6)
        assert res.converged
        b = res.beta_hat
        grad = 2.0 * inst.X.T @ (inst.X @ b - inst.y)
        scale = 4.0 * float(np.max(np.abs(grad)))
        assert grad @ b + scale <= 1e-6 + d * np.finfo(float).eps * scale
        plain = _plain_l1_iterations(inst.X, inst.y, 4.0, res.info["lipschitz"],
                                     max_iter=3000, tol=1e-6)
        assert res.iterations < plain


def _reference_lasso(X, y, lam):
    """An independent reference: scipy's L-BFGS-B on the split b = u - v with
    u, v >= 0, whose objective ||y - X b||^2 / (2n) + lam sum(u + v) is smooth
    and has the lasso's minimiser.  At the optimum one of u_j, v_j has a
    positive gradient (2 lam on the support, lam +- g_j off it), so the bound
    holds it at exactly 0 and the support comes out exact.  With
    ftol = gtol = 0 it stops only when a step no longer lowers the objective."""
    from scipy.optimize import minimize

    n, d = X.shape

    def objective(w):
        r = X @ (w[:d] - w[d:]) - y
        g = X.T @ r / n
        return float(r @ r) / (2 * n) + lam * float(w.sum()), np.concatenate([g + lam, lam - g])

    res = minimize(objective, np.zeros(2 * d), jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * (2 * d),
                   options={"maxiter": 100_000, "maxfun": 100_000, "ftol": 0.0, "gtol": 0.0,
                            "maxcor": 30})
    return res.x[:d] - res.x[d:]


@pytest.mark.parametrize("n, d", [(100, 50), (200, 100), (400, 200), (800, 400), (50, 100)])
@pytest.mark.parametrize("penalty", ["detection", "small"])
def test_lasso_matches_coordinate_descent_and_certifies_kkt_from_x(n, d, penalty):
    # lam at twice the detection scale sigma sqrt(2 log d / n), or 0.01; the KKT
    # residual recomputed from X may exceed tol by the round-off of the gradient,
    # 2 (n + d) eps per unit of |X|^T (|X| |b| + |y|) / n, the scale of its terms
    lam = 2.0 * math.sqrt(2.0 * math.log(d) / n) if penalty == "detection" else 0.01
    for seed in range(3):
        inst = _CRITERION3.draw(n, d, seed)
        X, y = inst.X, inst.y
        res = lasso(X, y, lam)
        assert res.converged
        ref = _reference_lasso(X, y, lam)
        assert res.support == tuple(np.flatnonzero(ref))

        def penalized(b):
            r = y - X @ b
            return float(r @ r) / (2 * n) + lam * float(np.abs(b).sum())

        assert penalized(res.beta_hat) == pytest.approx(penalized(ref), rel=1e-12, abs=0.0)
        assert res.info["penalized_objective"] == pytest.approx(penalized(ref), rel=1e-12)
        b = res.beta_hat
        grad = X.T @ (y - X @ b) / n
        kkt = np.where(b == 0.0, np.abs(grad) - lam, np.abs(grad - lam * np.sign(b)))
        scale = float(np.max(np.abs(X).T @ (np.abs(X) @ np.abs(b) + np.abs(y)))) / n
        assert kkt.max() <= 1e-10 + 2 * (n + d) * np.finfo(float).eps * scale
