"""Geometry of lq-balls.

Membership tests, Euclidean projection onto the l1-ball, a feasibility
heuristic for the nonconvex q in (0,1) case, the l1-vs-l2 truncation
inequality, packing constructions on the sparse ternary hypercube with their
l2 rescaling, a generic greedy packer, and the metric-entropy bound formulas.

The entropy constants are never pinned down by the theory, so they are
runtime parameters here; every number produced from them is "up to
unspecified constants".
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Union

import numpy as np
from scipy.spatial.distance import pdist

from .errors import ConsistencyError, ParameterError
from .linmodel import BallSpec
from .supports import check_budget, support_chunks

__all__ = [
    "PackingResult",
    "EntropyBoundParams",
    "ball_contains",
    "project_l1",
    "project_lq_heuristic",
    "truncation_inequality",
    "hamming_packing",
    "rescale_hypercube_packing",
    "required_hamming_cardinality",
    "greedy_pack",
    "entropy_bounds",
    "qconvex_entropy_bound",
    "packing_to_csv",
]


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def ball_contains(ball: BallSpec, theta: np.ndarray, tol: float = 1e-10) -> bool:
    """Check theta in B_q(radius), up to tolerance.

    For q = 0 the support is counted with entries of magnitude > tol; for
    q > 0 the test is sum |theta_j|^q <= radius + tol.
    """
    theta = np.asarray(theta, dtype=float)
    if ball.q == 0.0:
        return int(np.count_nonzero(np.abs(theta) > tol)) <= ball.s
    return float(np.sum(np.abs(theta) ** ball.q)) <= ball.radius + tol


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def project_l1(theta: np.ndarray, r1: float) -> np.ndarray:
    """Euclidean projection onto the l1-ball of radius r1.

    Returns theta unchanged when feasible; otherwise soft-thresholds at the
    level that lands exactly on the boundary (Duchi et al. sort-based rule).
    """
    if r1 <= 0:
        raise ParameterError(f"r1 must be positive, got {r1}")
    theta = np.asarray(theta, dtype=float)
    a = np.abs(theta)
    if a.sum() <= r1:
        return theta.copy()
    u = np.sort(a)[::-1]
    cumsum = np.cumsum(u)
    ks = np.arange(1, len(u) + 1)
    rho = np.nonzero(u > (cumsum - r1) / ks)[0].max()
    lam = (cumsum[rho] - r1) / (rho + 1)
    return np.sign(theta) * np.maximum(a - lam, 0.0)


def project_lq_heuristic(theta: np.ndarray, ball: BallSpec) -> np.ndarray:
    """Feasibility restoration for the nonconvex ball, q in (0, 1).

    Exact projection is nonconvex; this searches the keep-top-k-then-rescale
    family, which contains both magnitude truncation (scale 1, largest
    feasible k) and global rescaling (k = d) as special cases, so the output
    is never farther from theta than either fallback.
    """
    if not 0.0 < ball.q < 1.0:
        raise ParameterError(f"project_lq_heuristic requires q in (0, 1), got {ball.q}")
    theta = np.asarray(theta, dtype=float)
    q, rq = ball.q, ball.radius
    a = np.abs(theta)
    if float(np.sum(a**q)) <= rq:
        return theta.copy()

    order = np.argsort(a)[::-1]
    a_sorted = a[order][: np.count_nonzero(a)]
    # keeping the top k entries scaled by c_k lies at squared distance
    # (1 - c_k)^2 sum_{j<=k} a_j^2 + sum_{j>k} a_j^2 from theta
    scales = np.minimum(1.0, (rq / np.cumsum(a_sorted**q)) ** (1.0 / q))
    sq = a_sorted**2
    dists = (1.0 - scales) ** 2 * np.cumsum(sq) + np.append(np.cumsum(sq[::-1])[-2::-1], 0.0)
    k = int(np.argmin(dists)) + 1
    best = np.zeros_like(theta)
    if dists[k - 1] < theta @ theta:  # else the zero vector is closest
        best[order[:k]] = scales[k - 1] * theta[order[:k]]

    # nudge against roundoff so the 1e-10 feasibility contract always holds
    while not ball_contains(ball, best, tol=1e-10):
        best *= 1.0 - 1e-12
    return best


# ---------------------------------------------------------------------------
# truncation inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationCheck:
    lhs: float
    rhs: float
    holds: bool


def truncation_inequality(theta: np.ndarray, rq: float, q: float, tau: float) -> TruncationCheck:
    """Evaluate ||theta||_1 <= sqrt(2 Rq) tau^{-q/2} ||theta||_2 + 2 Rq tau^{1-q}.

    Valid for theta in B_q(2 Rq) and any tau > 0; raises when theta is
    infeasible for the doubled ball.
    """
    if not 0.0 < q <= 1.0:
        raise ParameterError(f"q must lie in (0, 1], got {q}")
    if tau <= 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    theta = np.asarray(theta, dtype=float)
    if float(np.sum(np.abs(theta) ** q)) > 2.0 * rq + 1e-10:
        raise ParameterError("theta lies outside B_q(2 Rq)")
    lhs = float(np.sum(np.abs(theta)))
    rhs = float(
        np.sqrt(2.0 * rq) * tau ** (-q / 2.0) * np.linalg.norm(theta)
        + 2.0 * rq * tau ** (1.0 - q)
    )
    return TruncationCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + 1e-12)


# ---------------------------------------------------------------------------
# packings
# ---------------------------------------------------------------------------

Metric = Union[str, tuple]


def _pairwise_distances(points: np.ndarray, metric: Metric) -> np.ndarray:
    """Condensed vector of all pairwise distances."""
    pts = np.asarray(points, dtype=float)
    if metric == "l2":
        return pdist(pts, "euclidean")
    if metric == "hamming":
        return pdist(pts, "hamming") * pts.shape[1]
    if isinstance(metric, tuple) and metric[0] == "lp":
        return pdist(pts, "minkowski", p=float(metric[1]))
    raise ParameterError(f"unknown metric {metric!r}")


def _point_distances(points: np.ndarray, z: np.ndarray, metric: Metric) -> np.ndarray:
    """Distances from each row of ``points`` to the single point ``z``."""
    if metric == "hamming":
        return np.count_nonzero(points != z, axis=1)
    if metric == "l2":
        return np.linalg.norm(points - z, axis=1)
    if isinstance(metric, tuple) and metric[0] == "lp":
        p = float(metric[1])
        return np.sum(np.abs(points - z) ** p, axis=1) ** (1.0 / p)
    raise ParameterError(f"unknown metric {metric!r}")


def _exact_min_distance(points: np.ndarray, metric: Metric) -> float:
    if points.shape[0] < 2:
        return math.inf
    return float(_pairwise_distances(points, metric).min())


@dataclass
class PackingResult:
    """A finite point set with a certified minimum pairwise separation."""

    points: np.ndarray  # (m, d)
    min_pairwise_distance: float
    metric: Metric
    delta: float

    @property
    def cardinality(self) -> int:
        return int(self.points.shape[0])

    def verify(self) -> float:
        """Recompute all pairwise distances; raises if the certificate fails."""
        worst = _exact_min_distance(self.points, self.metric)
        if worst + 1e-12 < self.delta or (
            math.isfinite(worst) and abs(worst - self.min_pairwise_distance) > 1e-9
        ):
            raise ConsistencyError(
                f"packing certificate failed: min distance {worst:g}, "
                f"recorded {self.min_pairwise_distance:g}, delta {self.delta:g}"
            )
        return worst


def _hypercube_points(d: int, s: int) -> np.ndarray:
    """All ternary vectors with exactly s nonzeros, in lexicographic order."""
    signs = np.array(list(product((1, -1), repeat=s)), dtype=np.int8)
    blocks = []
    for supports in support_chunks(d, s, per_support=len(signs) * d):
        points = np.zeros((len(supports), len(signs), d), dtype=np.int8)
        np.put_along_axis(points, supports[:, None, :], signs, axis=2)
        blocks.append(points.reshape(-1, d))
    return np.concatenate(blocks)


def hamming_packing(d: int, s: int) -> PackingResult:
    """Packing of the s-sparse ternary hypercube in Hamming distance.

    Greedy first-fit over the lexicographic enumeration, admitting a point
    when it is at distance >= s/2 from everything already chosen.  Because
    the result is a maximal packing, a counting argument over Hamming balls
    guarantees cardinality at least exp((s/2) log((d-s)/(s/2))).
    """
    if s % 2 != 0 or not 2 <= s <= d:
        raise ParameterError(f"need even s with 2 <= s <= d, got s={s}, d={d}")
    check_budget(math.comb(d, s) * 2**s)
    result = greedy_pack(_hypercube_points(d, s), s / 2.0, "hamming")
    bound = required_hamming_cardinality(d, s)
    if result.cardinality < bound:
        raise ConsistencyError(
            f"packing of size {result.cardinality} misses the guaranteed {bound}"
        )
    return result


def required_hamming_cardinality(d: int, s: int) -> int:
    """ceil(exp((s/2) log((d-s)/(s/2)))), the guaranteed packing size."""
    if d == s:
        return 0
    return math.ceil(math.exp((s / 2.0) * math.log((d - s) / (s / 2.0))) - 1e-9)


def rescale_hypercube_packing(packing: PackingResult, delta_n: float, s: int) -> PackingResult:
    """Scale a hypercube packing by sqrt(2/s) * delta_n into an l2 packing.

    Certifies delta_n^2 <= ||b - b'||_2^2 <= 8 delta_n^2 for every pair; the
    check runs on the integer squared distances of the ternary points, so it
    is exact.
    """
    if packing.metric != "hamming":
        raise ParameterError("rescale expects a Hamming hypercube packing")
    pts = packing.points
    if pts.size and not np.all(np.isin(pts, (-1.0, 0.0, 1.0))):
        raise ParameterError("points are not ternary")
    if pts.size and not np.all(np.count_nonzero(pts, axis=1) == s):
        raise ParameterError(f"points do not all have exactly {s} nonzeros")
    if pts.shape[0] >= 2:
        diff_sq = pdist(pts, "sqeuclidean")  # integer-valued for ternary points
        if diff_sq.min() < s / 2 - 1e-9 or diff_sq.max() > 4 * s + 1e-9:
            raise ConsistencyError(
                "rescaled pair certificate failed: squared ternary distance "
                f"outside [s/2, 4s] = [{s / 2}, {4 * s}]"
            )
    scaled = np.sqrt(2.0 / s) * delta_n * pts
    return PackingResult(points=scaled,
                         min_pairwise_distance=_exact_min_distance(scaled, "l2"),
                         metric="l2", delta=float(delta_n))


def greedy_pack(
    candidates: Union[np.ndarray, Iterable[np.ndarray]],
    delta: float,
    metric: Metric = "l2",
) -> PackingResult:
    """First-fit greedy packing over candidate points, in the given order.

    The result is always a valid delta-packing, so its cardinality is a lower
    bound on the packing number M(delta).  Shuffle the candidates (with a
    fixed seed) before calling if order bias matters.  Hamming scans keep the
    candidates' dtype (they only compare entries); the points come out float.
    """
    if delta <= 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    cands = np.asarray(candidates if isinstance(candidates, np.ndarray)
                       else list(candidates))
    if not cands.size:
        cands = np.zeros((0, 0))
    if metric != "hamming":
        cands = cands.astype(float, copy=False)
    chosen = np.empty_like(cands)
    m = 0
    for z in cands:
        if m == 0 or _point_distances(chosen[:m], z, metric).min() >= delta:
            chosen[m] = z
            m += 1
    points = chosen[:m].astype(float)
    return PackingResult(points=points,
                         min_pairwise_distance=_exact_min_distance(points, metric),
                         metric=metric, delta=float(delta))


def packing_to_csv(packing: PackingResult, path) -> None:
    """One point per row, plus a JSON sidecar with the certificate."""
    path = str(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for point in packing.points:
            writer.writerow([repr(float(v)) for v in point])
    sidecar = {
        "metric": packing.metric if isinstance(packing.metric, str) else list(packing.metric),
        "delta": packing.delta,
        "cardinality": packing.cardinality,
        "min_distance": packing.min_pairwise_distance,
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh)


# ---------------------------------------------------------------------------
# metric entropy bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyBoundParams:
    """Unspecified theory constants, exposed as runtime knobs."""

    U_const: float = 1.0
    L_const: float = 1.0
    nu: float = 0.5

    def __post_init__(self):
        if self.U_const <= 0 or self.L_const <= 0:
            raise ParameterError("entropy constants must be positive")
        if self.L_const > self.U_const:
            raise ParameterError(
                f"need L <= U, got L={self.L_const}, U={self.U_const}"
            )
        if not 0.0 < self.nu < 1.0:
            raise ParameterError(f"nu must lie in (0, 1), got {self.nu}")


@dataclass(frozen=True)
class EntropyBounds:
    lower: float
    upper: float
    lower_valid: bool


def entropy_bounds(
    p: float,
    q: float,
    rq: float,
    d: int,
    epsilon: float,
    params: EntropyBoundParams = EntropyBoundParams(),
) -> EntropyBounds:
    """Two-sided bound on the lp metric entropy of B_q(Rq), up to constants.

    Both sides share the shape Rq^{p/(p-q)} (1/eps)^{pq/(p-q)} log d.  The
    lower bound is only claimed on the restricted range eps < 1 and
    eps^p >= (log d / d^nu)^{(p-q)/q}; ``lower_valid`` reports that check.
    """
    if not 0.0 < q <= 1.0:
        raise ParameterError(f"entropy hypothesis violated: q in (0, 1] required, got {q}")
    if p <= q:
        raise ParameterError(
            f"entropy hypothesis violated: p > q required, got p={p}, q={q}"
        )
    if d < 2:
        raise ParameterError(f"entropy hypothesis violated: d >= 2 required, got {d}")
    if not 0.0 < epsilon < rq ** (1.0 / q):
        raise ParameterError(
            "entropy hypothesis violated: epsilon must lie in (0, Rq^(1/q)), "
            f"got {epsilon} with bound {rq ** (1.0 / q):g}"
        )
    shape = rq ** (p / (p - q)) * (1.0 / epsilon) ** (p * q / (p - q)) * math.log(d)
    lower_valid = epsilon < 1.0 and epsilon**p >= (
        math.log(d) / d**params.nu
    ) ** ((p - q) / q)
    return EntropyBounds(
        lower=params.L_const * shape,
        upper=params.U_const * shape,
        lower_valid=lower_valid,
    )


def qconvex_entropy_bound(
    q: float, rq: float, d: int, epsilon: float, kappa_c: float, u2: float = 1.0
) -> float:
    """l2 entropy bound for the q-convex hull of normalized design columns.

    Same shape as the p = 2 ball bound with epsilon replaced by
    epsilon / kappa_c: U2 Rq^{2/(2-q)} (kappa_c/eps)^{2q/(2-q)} log d.
    """
    if not 0.0 < q <= 1.0:
        raise ParameterError(f"q must lie in (0, 1], got {q}")
    if kappa_c <= 0 or epsilon <= 0:
        raise ParameterError("kappa_c and epsilon must be positive")
    return u2 * rq ** (2.0 / (2.0 - q)) * (kappa_c / epsilon) ** (2.0 * q / (2.0 - q)) * math.log(d)
