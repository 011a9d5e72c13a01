import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lqminimax.ballgeom import (
    EntropyBoundParams,
    ball_contains,
    entropy_bounds,
    greedy_pack,
    hamming_packing,
    packing_to_csv,
    project_l1,
    project_lq_heuristic,
    qconvex_entropy_bound,
    required_hamming_cardinality,
    rescale_hypercube_packing,
    truncation_inequality,
)
from lqminimax.errors import ParameterError
from lqminimax.linmodel import BallSpec


class TestBallContains:
    def test_support_count(self):
        assert ball_contains(BallSpec(0.0, 2), np.array([1.0, 0.0, 5.0, 0.0]))

    def test_l1_violation(self):
        assert not ball_contains(BallSpec(1.0, 1.0), np.array([0.6, 0.6]))

    def test_q_half_boundary(self):
        assert ball_contains(BallSpec(0.5, 2.0), np.array([1.0, 1.0]))


def _project_l1_oracle(theta, r1, grid=2001):
    """Brute force over soft-threshold levels (the projection is a shrinkage)."""
    best, best_dist = theta, math.inf
    for lam in np.linspace(0.0, np.abs(theta).max(), grid):
        cand = np.sign(theta) * np.maximum(np.abs(theta) - lam, 0.0)
        if np.abs(cand).sum() <= r1 + 1e-9:
            dist = np.sum((cand - theta) ** 2)
            if dist < best_dist:
                best, best_dist = cand, dist
    return best


class TestProjectL1:
    def test_feasible_unchanged(self):
        theta = np.array([0.2, -0.3])
        assert np.array_equal(project_l1(theta, 1.0), theta)

    def test_single_spike(self):
        assert np.allclose(project_l1(np.array([3.0, 0.0]), 1.0), [1.0, 0.0])

    def test_two_coord_case_vs_oracle(self):
        got = project_l1(np.array([2.0, 1.0]), 1.0)
        oracle = _project_l1_oracle(np.array([2.0, 1.0]), 1.0)
        assert np.allclose(got, oracle, atol=2e-3)
        assert np.allclose(got, [1.0, 0.0], atol=1e-12)

    def test_kkt_against_oracle_random(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            theta = rng.standard_normal(2) * 3.0
            r1 = float(rng.uniform(0.2, 2.0))
            got = project_l1(theta, r1)
            assert np.abs(got).sum() <= r1 + 1e-10
            oracle = _project_l1_oracle(theta, r1, grid=4001)
            assert np.sum((got - theta) ** 2) <= np.sum((oracle - theta) ** 2) + 1e-6
            # KKT: distance to any nearby feasible point is no smaller
            for _ in range(20):
                pert = got + rng.standard_normal(2) * 1e-3
                if np.abs(pert).sum() <= r1:
                    assert np.sum((pert - theta) ** 2) >= np.sum((got - theta) ** 2) - 1e-10


class TestProjectLqHeuristic:
    def test_feasible_unchanged(self):
        ball = BallSpec(0.5, 2.0)
        theta = np.array([0.25, 0.25, 0.0])
        assert np.array_equal(project_lq_heuristic(theta, ball), theta)

    def test_single_spike_analytic(self):
        # feasibility forces |x1|^0.5 <= 1 -> x1 = 1; verified by line search
        ball = BallSpec(0.5, 1.0)
        theta = np.zeros(8)
        theta[0] = 4.0
        got = project_lq_heuristic(theta, ball)
        line = min(
            (abs(t - 4.0), t) for t in np.linspace(0.0, 1.0, 20001)
            if math.sqrt(abs(t)) <= 1.0
        )[1]
        assert got[0] == pytest.approx(line, abs=1e-3)
        assert np.all(got[1:] == 0.0)

    def test_never_worse_than_fallbacks(self):
        rng = np.random.default_rng(12)
        ball = BallSpec(0.5, 1.0)
        for _ in range(100):
            theta = rng.standard_normal(6) * rng.uniform(0.5, 4.0)
            got = project_lq_heuristic(theta, ball)
            assert ball_contains(ball, got, tol=1e-10)
            d_got = np.sum((got - theta) ** 2)
            # fallback (a): magnitude truncation to feasibility
            order = np.argsort(np.abs(theta))[::-1]
            trunc = np.zeros_like(theta)
            for k in range(len(theta)):
                cand = trunc.copy()
                cand[order[k]] = theta[order[k]]
                if ball_contains(ball, cand, tol=0.0):
                    trunc = cand
                else:
                    break
            # fallback (b): global rescaling to the boundary
            qmass = np.sum(np.abs(theta) ** ball.q)
            rescale = theta * (ball.radius / qmass) ** (1.0 / ball.q)
            assert d_got <= np.sum((trunc - theta) ** 2) + 1e-9
            assert d_got <= np.sum((rescale - theta) ** 2) + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                              st.floats(-20.0, 20.0)), min_size=1, max_size=12),
           st.sampled_from([0.2, 0.25, 0.5, 0.8]), st.sampled_from([0.1, 1.0, 3.0, 4.0]))
    @example([2.0, 2.0, 0.0, -2.0], 0.5, 1.0)
    @example([2.0, 0.0, -2.0, -2.0, -2.0, -2.0, 2.0], 0.25, 4.0)
    def test_matches_top_k_loop(self, entries, q, radius):
        theta, ball = np.array(entries), BallSpec(q, radius)
        got = project_lq_heuristic(theta, ball)
        a = np.abs(theta)
        if np.sum(a**q) <= radius:
            assert np.array_equal(got, theta)
            return
        # the O(d^2) reference: rebuild every keep-top-k-then-rescale candidate
        order = np.argsort(a)[::-1]
        qsums = np.cumsum(a[order] ** q)
        ref, ref_dist = np.zeros_like(theta), float(theta @ theta)
        for k in range(1, len(theta) + 1):
            if a[order[k - 1]] == 0.0:
                break
            cand = np.zeros_like(theta)
            cand[order[:k]] = min(1.0, (radius / qsums[k - 1]) ** (1.0 / q)) * theta[order[:k]]
            if np.sum((cand - theta) ** 2) < ref_dist:
                ref, ref_dist = cand, float(np.sum((cand - theta) ** 2))
        d_got = np.sum((got - theta) ** 2)
        # the same support, unless two candidates tie in exact arithmetic and
        # roundoff picks the winner (e.g. [2, 2, 0, -2, -2, -2, 2], q = 1/4, R = 4)
        if not np.array_equal(np.flatnonzero(got), np.flatnonzero(ref)):
            assert d_got == pytest.approx(ref_dist, rel=1e-12, abs=1e-12)
        assert ball_contains(ball, got, tol=1e-10)
        # no farther than magnitude truncation or global rescaling
        trunc = np.zeros_like(theta)
        kept = order[: np.count_nonzero(qsums <= radius)]
        trunc[kept] = theta[kept]
        rescale = theta * (radius / qsums[-1]) ** (1.0 / q)
        for fallback in (trunc, rescale):
            assert d_got <= np.sum((fallback - theta) ** 2) * (1 + 1e-10) + 1e-12

    def test_two_coord_vs_rescale(self):
        ball = BallSpec(0.5, 1.0)
        theta = np.array([1.0, 1.0])
        got = project_lq_heuristic(theta, ball)
        assert ball_contains(ball, got, tol=1e-10)
        rescaled = theta * 0.25
        assert np.sum((got - theta) ** 2) <= np.sum((rescaled - theta) ** 2) + 1e-12


class TestTruncationInequality:
    def test_zero_vector(self):
        chk = truncation_inequality(np.zeros(4), rq=1.0, q=0.5, tau=0.3)
        assert chk.lhs == 0.0 and chk.holds

    def test_hand_value_q1(self):
        chk = truncation_inequality(np.array([1.0, 1.0]), rq=1.0, q=1.0, tau=1.0)
        assert chk.lhs == pytest.approx(2.0)
        assert chk.rhs == pytest.approx(math.sqrt(2.0) * math.sqrt(2.0) + 2.0)
        assert chk.holds

    def test_infeasible_rejected(self):
        with pytest.raises(ParameterError):
            truncation_inequality(np.full(10, 5.0), rq=1.0, q=1.0, tau=1.0)

    @pytest.mark.parametrize("q", [0.25, 0.5, 0.75, 1.0])
    def test_monte_carlo_never_violated(self, q):
        rng = np.random.default_rng(1000 + int(q * 100))
        rq = 1.5
        violations = 0
        for _ in range(1000):
            theta = rng.standard_normal(12) * rng.uniform(0.05, 2.0)
            qmass = np.sum(np.abs(theta) ** q)
            if qmass > 2 * rq:  # rescale into B_q(2 Rq)
                theta *= (2 * rq / qmass) ** (1.0 / q) * rng.uniform(0.3, 1.0)
            tau = float(rng.uniform(0.01, 5.0))
            if not truncation_inequality(theta, rq, q, tau).holds:
                violations += 1
        assert violations == 0


class TestHammingPacking:
    def test_d8_s2_exhaustive(self):
        p = hamming_packing(8, 2)
        assert p.cardinality >= 6  # exp(log 6)
        dists = [
            np.count_nonzero(p.points[i] != p.points[j])
            for i in range(p.cardinality) for j in range(i + 1, p.cardinality)
        ]
        assert min(dists) >= 1
        assert min(dists) == p.min_pairwise_distance

    def test_d4_s2(self):
        p = hamming_packing(4, 2)
        assert p.cardinality >= 2
        assert p.points.shape[1] == 4

    def test_constructive_invariant(self):
        p = hamming_packing(7, 4)
        signs = np.isin(p.points, (-1.0, 0.0, 1.0))
        assert signs.all()
        assert np.all(np.count_nonzero(p.points, axis=1) == 4)

    def test_odd_s_rejected(self):
        with pytest.raises(ParameterError):
            hamming_packing(8, 3)
        with pytest.raises(ParameterError):
            hamming_packing(2, 4)

    def test_cardinality_bound_small_grid(self):
        for s in (2, 4):
            for d in range(s, 13):
                p = hamming_packing(d, s)
                assert p.cardinality >= required_hamming_cardinality(d, s)


class TestRescale:
    def test_opposite_sign_pair_attains_8(self):
        # worst-case pair: same support, opposite signs, s = 2, delta = 1
        z1 = np.array([1.0, 1.0, 0.0, 0.0])
        z2 = -z1
        scaled = math.sqrt(2.0 / 2.0) * 1.0 * np.array([z1, z2])
        assert np.sum((scaled[0] - scaled[1]) ** 2) == pytest.approx(8.0)

    def test_disjoint_support_pair(self):
        z1 = np.array([1.0, 1.0, 0.0, 0.0])
        z2 = np.array([0.0, 0.0, 1.0, -1.0])
        scaled = math.sqrt(2.0 / 2.0) * 1.0 * np.array([z1, z2])
        val = np.sum((scaled[0] - scaled[1]) ** 2)
        assert val == pytest.approx(4.0)
        assert 1.0 <= val <= 8.0

    def test_certificate_over_grid(self):
        for s in (2, 4):
            for d in range(s, 11):
                packing = hamming_packing(d, s)
                for delta in (0.5, 1.0):
                    scaled = rescale_hypercube_packing(packing, delta, s)
                    pts = scaled.points
                    for i in range(scaled.cardinality - 1):
                        sq = np.sum((pts[i + 1:] - pts[i]) ** 2, axis=1)
                        assert sq.min() >= delta**2 - 1e-12
                        assert sq.max() <= 8 * delta**2 + 1e-12

    def test_degenerate_delta_zero(self):
        scaled = rescale_hypercube_packing(hamming_packing(5, 2), 0.0, 2)
        assert np.all(scaled.points == 0.0)


def _max_independent_set(points, delta):
    """Exhaustive maximum packing over a small candidate set (branch and bound)."""
    m = len(points)
    conflict = [
        {j for j in range(m) if j != i and np.linalg.norm(points[i] - points[j]) < delta}
        for i in range(m)
    ]

    best = 0

    def grow(idx, chosen, banned):
        nonlocal best
        if idx == m:
            best = max(best, len(chosen))
            return
        if len(chosen) + (m - idx) <= best:
            return
        if idx not in banned:
            grow(idx + 1, chosen + [idx], banned | conflict[idx])
        grow(idx + 1, chosen, banned)

    grow(0, [], set())
    return best


class TestGreedyPack:
    def test_1d_grid(self):
        candidates = [np.array([x]) for x in np.linspace(-1, 1, 41)]
        p = greedy_pack(candidates, delta=1.0, metric="l2")
        assert p.cardinality >= 3

    def test_delta_beyond_diameter(self):
        candidates = [np.array([x, 0.0]) for x in np.linspace(-0.1, 0.1, 11)]
        p = greedy_pack(candidates, delta=5.0)
        assert p.cardinality == 1

    def test_matches_exhaustive_mis_on_l1_ball_grid(self):
        # grid on the d=2 cross-polytope; oracle is exact branch and bound
        pts = [
            np.array([x, y])
            for x in np.linspace(-1, 1, 9)
            for y in np.linspace(-1, 1, 9)
            if abs(x) + abs(y) <= 1.0 + 1e-12
        ]
        greedy = greedy_pack(pts, delta=0.5)
        greedy.verify()
        oracle = _max_independent_set(pts, 0.5)
        assert greedy.cardinality == oracle == 13
        # at larger separations greedy stays a valid lower bound on M(delta)
        assert greedy_pack(pts, delta=0.9).cardinality <= _max_independent_set(pts, 0.9)

    def test_self_certifies(self):
        rng = np.random.default_rng(0)
        p = greedy_pack([rng.standard_normal(3) for _ in range(200)], delta=1.2)
        assert p.verify() >= 1.2


class TestPackingExport:
    def test_csv_and_sidecar(self, tmp_path):
        p = hamming_packing(5, 2)
        path = tmp_path / "pack.csv"
        packing_to_csv(p, path)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == p.cardinality
        sidecar = json.loads((tmp_path / "pack.csv.json").read_text())
        assert sidecar["metric"] == "hamming"
        assert sidecar["cardinality"] == p.cardinality
        assert sidecar["delta"] == 1.0


class TestEntropyBounds:
    def test_hand_value(self):
        # U = L = 1, p = 2, q = 1, Rq = 1, eps = 0.5, d = e: shape = 1*1*4*1
        out = entropy_bounds(2.0, 1.0, 1.0, math.e, 0.5,
                             EntropyBoundParams(1.0, 1.0, 0.5))
        assert out.upper == pytest.approx(4.0)
        assert out.lower == pytest.approx(4.0)

    def test_lower_le_upper(self):
        params = EntropyBoundParams(U_const=2.0, L_const=0.5, nu=0.5)
        for p, q, eps in itertools.product((1.5, 2.0, 4.0), (0.25, 0.5, 1.0), (0.1, 0.5)):
            out = entropy_bounds(p, q, 1.0, 50, eps, params)
            assert out.lower <= out.upper

    def test_eps_above_one_invalidates_lower(self):
        out = entropy_bounds(2.0, 0.5, 8.0, 50, 1.5)
        assert not out.lower_valid

    def test_hypothesis_violations_named(self):
        with pytest.raises(ParameterError, match="p > q"):
            entropy_bounds(0.5, 1.0, 1.0, 50, 0.1)
        with pytest.raises(ParameterError, match="epsilon"):
            entropy_bounds(2.0, 0.5, 1.0, 50, 5.0)
        with pytest.raises(ParameterError, match="d >= 2"):
            entropy_bounds(2.0, 0.5, 1.0, 1, 0.1)


class TestQConvexEntropy:
    def test_identity_with_ball_bound(self):
        # same formula as the p=2 ball bound with eps -> eps/kappa_c
        q, rq, d, eps, kc = 0.5, 2.0, 40, 0.3, 1.7
        ball = entropy_bounds(2.0, q, rq, d, eps / kc).upper
        assert qconvex_entropy_bound(q, rq, d, eps, kc) == pytest.approx(ball)

    def test_kappa_scaling(self):
        q = 0.5
        base = qconvex_entropy_bound(q, 1.0, 30, 0.2, 1.0)
        doubled = qconvex_entropy_bound(q, 1.0, 30, 0.2, 2.0)
        assert doubled / base == pytest.approx(2.0 ** (2 * q / (2 - q)))

    def test_q1_shape(self):
        val = qconvex_entropy_bound(1.0, 1.0, 20, 0.25, 1.5)
        assert val == pytest.approx((1.5 / 0.25) ** 2 * math.log(20))
