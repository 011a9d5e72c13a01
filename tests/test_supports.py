import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from lqminimax import supports
from lqminimax.ballgeom import _hypercube_points, hamming_packing
from lqminimax.bounds import sup_correlation_pred_exact
from lqminimax.conditions import _corner_directions, kernel_trivial_zero, sparse_spectrum
from lqminimax.errors import EnumerationBudgetError, ParameterError
from lqminimax.estimators import l0_least_squares
from lqminimax.supports import check_budget, support_chunks


def _all_rows(d, k, per_support=None):
    chunks = list(support_chunks(d, k, per_support))
    assert all(c.dtype == np.intp and c.ndim == 2 and c.shape[1] == k for c in chunks)
    return chunks, np.concatenate(chunks)


class TestSupportChunks:
    @pytest.mark.parametrize("d,k", [(1, 1), (9, 1), (7, 7), (14, 6), (32, 4)])
    def test_matches_itertools_row_for_row(self, d, k):
        _, rows = _all_rows(d, k)
        expected = np.array(list(combinations(range(d), k)), dtype=np.intp)
        assert np.array_equal(rows, expected)

    @pytest.mark.parametrize("entries", [1, 2, 5, 12, 30])
    @pytest.mark.parametrize("d,k", [(6, 1), (6, 6), (9, 4), (12, 6)])
    def test_chunk_boundaries(self, monkeypatch, entries, d, k):
        monkeypatch.setattr(supports, "CHUNK_ENTRIES", entries)
        chunks, rows = _all_rows(d, k)
        assert np.array_equal(rows, np.array(list(combinations(range(d), k))))
        assert max(len(c) for c in chunks) <= max(1, entries // k)

    def test_per_support_sets_chunk_length(self):
        chunks, _ = _all_rows(14, 6, per_support=supports.CHUNK_ENTRIES // 500)
        assert len(chunks) > 1 and max(len(c) for c in chunks) <= 500

    def test_budget_checked_on_call(self):
        with pytest.raises(EnumerationBudgetError):
            support_chunks(60, 30)  # raises before any next()
        check_budget(supports.ENUMERATION_BUDGET)
        with pytest.raises(EnumerationBudgetError, match="budget"):
            check_budget(supports.ENUMERATION_BUDGET + 1)

    @pytest.mark.parametrize("k", [0, 5])
    def test_rejects_bad_size(self, k):
        with pytest.raises(ParameterError):
            support_chunks(4, k)


def _raises_unallocated(call):
    """The budget error comes before any sizeable allocation."""
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationBudgetError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


class TestBudgetGuards:
    # 2000 x 40: a QR, Gram or SVD pass before the check would allocate >= 640 KiB
    X = np.zeros((2000, 40))
    w = np.zeros(2000)

    def test_sparse_spectrum(self):
        _raises_unallocated(lambda: sparse_spectrum(self.X, s=5))

    def test_kernel_trivial_zero(self):
        _raises_unallocated(lambda: kernel_trivial_zero(self.X, s=5))

    def test_sup_correlation_pred_exact(self):
        _raises_unallocated(lambda: sup_correlation_pred_exact(self.X, self.w, s=5, r=1.0))

    def test_hamming_packing(self):
        _raises_unallocated(lambda: hamming_packing(40, 8))

    def test_l0(self):
        X = np.ones((2000, 200))
        _raises_unallocated(lambda: l0_least_squares(X, self.w, s=100))


class TestBatchedCallersMatchLoops:
    """The batched callers against the per-support loops they replaced."""

    def test_corner_directions_bit_identical(self):
        X = np.random.default_rng(14).standard_normal((28, 13))
        expected = []
        for support in combinations(range(13), 3):
            _, _, vt = np.linalg.svd(X[:, support], full_matrices=False)
            theta = np.zeros(13)
            theta[list(support)] = vt[-1]
            expected.append(theta)
        corners = [_corner_directions(X, c) for c in support_chunks(13, 3, per_support=28 * 3)]
        assert np.array_equal(np.concatenate(corners), np.array(expected))

    def test_hypercube_points_bit_identical(self):
        expected = []
        for support in combinations(range(7), 4):
            for signs in product((1, -1), repeat=4):
                z = np.zeros(7, dtype=np.int8)
                z[list(support)] = signs
                expected.append(z)
        points = _hypercube_points(7, 4)
        assert points.dtype == np.int8 and np.array_equal(points, np.array(expected))
