"""Design-matrix diagnostics.

Measures the constants that drive the theory: maximum normalized column
norm, extreme singular values over all 2s-column submatrices, the restricted
eigenvalue over the comparison cone, triviality of the kernel on sparse
vectors, kernel diameter inside an lq-ball, and a Monte Carlo check of the
two-sided curvature bounds for correlated Gaussian row ensembles.

Exact minimization over the cone is nonconvex: only a zero certified by a kernel
direction and the s >= d value are exact restricted eigenvalues; every other
value, a nonzero ``exact_tiny`` one included, is an upper estimate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import (ConsistencyError, DimensionError, ParameterError, require_finite,
                     require_scalars)
from .linmodel import BallSpec, DesignSpec, _times_root
from .supports import support_chunks

__all__ = [
    "REParams",
    "REEstimate",
    "DesignDiagnostics",
    "Prop1Report",
    "column_norm_constant",
    "sparse_spectrum",
    "sparse_min_singular",
    "re_constant",
    "kernel_trivial_zero",
    "kernel_diameter",
    "verify_prop1",
    "prop1_margins",
    "ident_consistency",
    "diagnose",
    "in_cone",
]

# re_constant adds the cone corners to its samples only up to this many supports
CORNER_LIMIT = 5000

# tail/head mass ratios used to build cone samples; fixed so the admitted
# candidate set only grows with c0, making the sampled estimate monotone
_TAIL_RATIO_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


# ---------------------------------------------------------------------------
# column normalization
# ---------------------------------------------------------------------------


def column_norm_constant(X: np.ndarray) -> float:
    """max_j ||X_j||_2 / sqrt(n)."""
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        raise DimensionError("empty design")
    require_finite(X=X)
    return float(np.linalg.norm(X, axis=0).max() / np.sqrt(X.shape[0]))


# ---------------------------------------------------------------------------
# sparse spectrum
# ---------------------------------------------------------------------------


def _sparse_scan(X: np.ndarray, level: int) -> tuple[float, float, bool]:
    """One pass over every n x ``level`` column submatrix X_S of X.

    Returns kappa_l and kappa_u, the min and max of sigma(X_S) / sqrt(n)
    over all supports (kappa_l is 0 when level > n forces a null
    direction), and whether every X_S has full column rank, judged with a
    1e-10 relative cutoff per submatrix.  Works on the R factor of X = QR,
    which shares singular values with X and keeps the batched SVDs small.
    """
    n, d = X.shape
    chunks = support_chunks(d, level, per_support=min(n, d) * level)
    r_factor = np.linalg.qr(X, mode="r")
    smin, smax, full_rank = math.inf, 0.0, level <= n
    for supports in chunks:
        svals = np.linalg.svd(np.moveaxis(r_factor[:, supports], 1, 0), compute_uv=False)
        smax = max(smax, float(svals.max()))
        smin = min(smin, float(svals.min()))
        full_rank = full_rank and not np.any(svals[:, -1] <= 1e-10 * svals[:, 0])
    if level > n:
        smin = 0.0
    sqrt_n = math.sqrt(n)
    return max(smin, 0.0) / sqrt_n, smax / sqrt_n, full_rank


def sparse_spectrum(X: np.ndarray, s: int) -> tuple[float, float]:
    """Extreme singular values of X_S / sqrt(n) over all supports |S| = 2s.

    Equals the min and max of ||X theta||_2 / (sqrt(n) ||theta||_2) over
    2s-sparse theta.  Exact; raises when C(d, 2s) exceeds the budget.
    """
    require_scalars("count", s=s)
    X = np.asarray(X, dtype=float)
    require_finite(X=X)
    kappa_l, kappa_u, _ = _sparse_scan(X, 2 * s)
    return kappa_l, kappa_u


def sparse_min_singular(X: np.ndarray, level: int) -> float:
    """min over supports |S| = level of sigma_min(X_S) / sqrt(n)."""
    require_scalars("count", level=level)
    X = np.asarray(X, dtype=float)
    require_finite(X=X)
    n, d = X.shape
    if level > d:
        raise ParameterError(f"need 1 <= level <= d, got {level}")
    if level > n:
        return 0.0
    return _sparse_scan(X, level)[0]


def kernel_trivial_zero(X: np.ndarray, s: int) -> bool:
    """True iff every n x 2s submatrix has full column rank.

    Rank is judged on singular values with a 1e-10 relative cutoff per
    submatrix.  2s > n forces rank deficiency, hence False.
    """
    require_scalars("count", s=s)
    X = np.asarray(X, dtype=float)
    require_finite(X=X)
    n, d = X.shape
    if 2 * s > d:
        raise ParameterError(f"need 2s <= d, got s={s}, d={d}")
    return 2 * s <= n and _sparse_scan(X, 2 * s)[2]


# ---------------------------------------------------------------------------
# restricted eigenvalue over the comparison cone
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class REParams:
    s: int
    c0: float

    def __post_init__(self):
        require_scalars("count", s=self.s)
        require_scalars("nonnegative", c0=self.c0)


@dataclass(frozen=True)
class REEstimate:
    value: float
    method: str  # "exact_tiny" or "sampled_upper"

    def __float__(self):
        return self.value


def _masses(T: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of T: the top-s l1 mass, the remaining (tail) l1 mass, and the
    coordinates in decreasing order of magnitude."""
    a = np.abs(T)
    order = np.argsort(a, axis=1)[:, ::-1]
    a = np.take_along_axis(a, order, axis=1)
    return a[:, :s].sum(axis=1), a[:, s:].sum(axis=1), order


def in_cone(theta: np.ndarray, s: int, c0: float, rtol: float = 1e-12):
    """Tail l1-mass dominated by the top-s mass: sum_{j>s} |t_(j)| <= c0 sum_{j<=s} |t_(j)|.

    A bool for a vector; for a 2-D theta, a boolean array with one entry per row.
    """
    theta = np.asarray(theta, dtype=float)
    head, tail, _ = _masses(np.atleast_2d(theta), s)
    inside = tail <= c0 * head + rtol * np.maximum(head, 1.0)
    return bool(inside[0]) if theta.ndim == 1 else inside


def _scale_tail(T: np.ndarray, s: int, ratio: float) -> np.ndarray:
    """Rescale each row's tail so tail mass = ratio * head mass (rows without one stay)."""
    head, tail, order = _masses(T, s)
    factor = np.ones_like(tail)
    np.divide(ratio * head, tail, out=factor, where=tail > 0.0)
    scale = np.ones(T.shape)
    np.put_along_axis(scale, order[:, s:], factor[:, None], axis=1)
    return T * scale


def _ratios(X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """||X t||_2 / (sqrt(n) ||t||_2) for each row t of T; inf for a zero row."""
    norms = np.linalg.norm(T, axis=1)
    out = np.full(len(T), math.inf)
    np.divide(np.linalg.norm(X @ T.T, axis=0), math.sqrt(X.shape[0]) * norms,
              out=out, where=norms > 0.0)
    return out


def _corner_directions(X: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Rows: the bottom right singular vector of X_S for each support row S, in R^d."""
    _, _, vt = np.linalg.svd(np.moveaxis(X[:, supports], 1, 0), full_matrices=False)
    thetas = np.zeros((len(supports), X.shape[1]))
    np.put_along_axis(thetas, supports, vt[:, -1, :], axis=1)
    return thetas


def re_constant(
    X: np.ndarray,
    params: REParams,
    mode: str = "sampled",
    n_samples: int = 2000,
    seed: int = 0,
) -> REEstimate:
    """Estimate kappa(X, c0) = min of ||X t||_2 / (sqrt(n) ||t||_2) over the cone.

    ``sampled`` minimizes over cone corners plus random directions whose tail
    mass is rescaled onto a fixed ratio grid; the admitted set only grows
    with c0, so estimates are monotone on a shared seed.  The result is an
    upper estimate of the true constant, tagged ``sampled_upper``.

    ``exact_tiny`` (d <= 12) additionally certifies zero through kernel
    directions lying in the cone and polishes the best candidate by local
    perturbation with a decaying radius.  The polish is a local search, so
    its estimates lie below the sampled ones but need not fall with c0; a
    nonzero one is still an upper estimate.
    """
    if mode not in ("sampled", "exact_tiny"):
        raise ParameterError(f"unknown mode {mode!r}")
    require_scalars("index", n_samples=n_samples, seed=seed)
    X = np.asarray(X, dtype=float)
    require_finite(X=X)
    n, d = X.shape
    if params.s >= d:
        # the cone is all of R^d: no tail coordinates exist, and for n < d
        # the kernel of X lies in it
        smin = np.linalg.svd(X, compute_uv=False)[-1] if n >= d else 0.0
        method = "exact_tiny" if mode == "exact_tiny" else "sampled_upper"
        return REEstimate(float(smin) / math.sqrt(n), method)

    if mode == "exact_tiny":
        if d > 12:
            raise ParameterError(f"exact_tiny mode is limited to d <= 12, got d={d}")
        if np.any(in_cone(_kernel_directions(X, 512, 12345), params.s, params.c0)):
            return REEstimate(0.0, "exact_tiny")

    # First minimum over candidates in a fixed order: the cone corners (they
    # realize the exact minimum over s-sparse vectors), then for each random z,
    # z itself if it lies in the cone and z with its tail rescaled to each grid
    # ratio <= c0.  No block's shape depends on c0, so neither does the value
    # of any candidate.
    s, c0 = params.s, params.c0
    best, best_theta = math.inf, None
    if math.comb(d, s) <= CORNER_LIMIT:
        for supports in support_chunks(d, s, per_support=n * s):
            thetas = _corner_directions(X, supports)
            vals = _ratios(X, thetas)
            k = int(np.argmin(vals))
            if vals[k] < best:
                best, best_theta = float(vals[k]), thetas[k]

    Z = np.random.default_rng(seed).standard_normal((n_samples, d))
    grid = [ratio for ratio in _TAIL_RATIO_GRID if ratio <= c0]
    # row i holds z_i's candidates in order, so the flat argmin is the first minimum
    vals = np.empty((n_samples, 1 + len(grid)))
    vals[:, 0] = np.where(in_cone(Z, s, c0), _ratios(X, Z), math.inf)
    for j, ratio in enumerate(grid, start=1):
        vals[:, j] = _ratios(X, _scale_tail(Z, s, ratio))
    if vals.size:
        i, j = divmod(int(np.argmin(vals)), vals.shape[1])
        if vals[i, j] < best:
            best = float(vals[i, j])
            best_theta = Z[i] if j == 0 else _scale_tail(Z[i:i + 1], s, grid[j - 1])[0]

    if mode == "exact_tiny" and best_theta is not None:
        return REEstimate(_polish(X, params, best_theta, best, seed), "exact_tiny")
    return REEstimate(best, "sampled_upper")


def _kernel_directions(X: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Rows: an orthonormal basis of the kernel of X, then ``count`` random
    combinations of it (no rows when the kernel is trivial).  The basis is
    ``scipy.linalg.null_space(X, rcond=1e-10)``'s: the right singular vectors
    past those with s > 1e-10 max(s)."""
    _, s, vh = np.linalg.svd(X, full_matrices=True)
    basis = vh[np.count_nonzero(s > 1e-10 * np.max(s, initial=0.0)):]
    if len(basis) == 0:
        return np.zeros((0, X.shape[1]))
    g = np.random.default_rng(seed).standard_normal((count, len(basis)))
    return np.vstack([basis, g @ basis])


def _polish(X, params, theta, value, seed, rounds: int = 400):
    rng = np.random.default_rng(seed + 1)
    theta = theta / np.linalg.norm(theta)
    radius = 0.5
    for k in range(rounds):
        cand = (theta + radius * rng.standard_normal(len(theta)))[None]
        # restore cone membership by clipping the tail mass
        head, tail, _ = _masses(cand, params.s)
        if tail[0] > params.c0 * head[0]:
            cand = _scale_tail(cand, params.s, params.c0)
        val = _ratios(X, cand)[0]
        if val < value:
            value, theta = float(val), cand[0] / np.linalg.norm(cand[0])
        radius = max(radius * 0.98, 1e-8)
    return value


# ---------------------------------------------------------------------------
# kernel diameter
# ---------------------------------------------------------------------------


def kernel_diameter(
    X: np.ndarray,
    ball: BallSpec,
    p: float = 2.0,
    n_samples: int = 2000,
    seed: int = 0,
) -> float:
    """Lower estimate of the largest lp-norm (1 <= p <= inf) of a kernel element in the ball.

    Exactly 0 for a trivial kernel.  For q = 0 the set B_0(s) is a cone, so
    the diameter is either 0 or infinite; the decision is made on the
    difference set B_0(2s) (two s-sparse vectors are indistinguishable iff
    their difference is annihilated), matching the sparse-recovery
    criterion.  For q > 0, kernel directions are sampled and rescaled to the
    ball boundary.
    """
    if not p >= 1.0:
        raise ParameterError(f"kernel_diameter needs p >= 1, got {p}")
    require_scalars("index", n_samples=n_samples, seed=seed)
    X = np.asarray(X, dtype=float)
    require_finite(X=X)
    if ball.q == 0.0:
        return 0.0 if kernel_trivial_zero(X, ball.s) else math.inf
    V = _kernel_directions(X, n_samples, seed)
    if not len(V):
        return 0.0
    scale = (ball.radius / np.sum(np.abs(V) ** ball.q, axis=1)) ** (1.0 / ball.q)
    W = np.abs(scale[:, None] * V)
    norms = W.max(axis=1) if math.isinf(p) else np.sum(W**p, axis=1) ** (1.0 / p)
    return float(norms.max())


# ---------------------------------------------------------------------------
# random-design curvature bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prop1Report:
    lower_violations: int
    upper_violations: int
    n_checks: int
    lower_margin_min: float
    upper_margin_min: float


def _margins(X: np.ndarray, root: Optional[np.ndarray], rho: float,
             V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Curvature margins (see ``prop1_margins``) at each row of V; rho = max_j Sigma_jj
    and root = Sigma^{1/2} (None for the identity).  Every norm reduces a C-order
    (d or n) x m product over its rows, so a diagonal root's scaled rows give the
    gemm's bits."""
    n, d = X.shape
    coef = 6.0 * math.sqrt(rho * math.log(d) / n)
    xv = np.linalg.norm(X @ V.T, axis=0) / math.sqrt(n)
    sv = np.linalg.norm(_times_root(V.T, root, left=True), axis=0)
    l1 = np.abs(V).sum(axis=1)
    return xv - (0.5 * sv - coef * l1), (3.0 * sv + coef * l1) - xv


def prop1_margins(X: np.ndarray, sigma_cov: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Margins of the two-sided curvature bounds at one direction v.

    lower margin: ||Xv||/sqrt(n) - (||S^{1/2}v||/2 - 6 sqrt(rho log d / n) ||v||_1);
    upper margin: (3||S^{1/2}v|| + 6 sqrt(rho log d / n) ||v||_1) - ||Xv||/sqrt(n).
    Nonnegative margins mean the bounds hold.
    """
    X, sigma_cov, v = (np.asarray(a, dtype=float) for a in (X, sigma_cov, v))
    require_finite(X=X, v=v)
    spec = DesignSpec("correlated_gaussian", *X.shape, sigma_cov=sigma_cov)
    low, up = _margins(X, spec.root, float(np.max(np.diag(sigma_cov))), v[None])
    return float(low[0]), float(up[0])


def verify_prop1(
    spec: DesignSpec,
    n_draws: int = 10,
    n_directions: int = 1000,
    seed: int = 0,
) -> Prop1Report:
    """Monte Carlo check of the curvature bounds for N(0, Sigma) row designs.

    Draws fresh designs and random directions (dense Gaussian, sparse, and
    coordinate vectors) and counts violations of either bound.  A standard
    spec applies no root, and a diagonal Sigma's root scales columns and rows
    in place of the products (``linmodel._times_root``), with the dense
    products' bits.
    """
    require_scalars("count", n_draws=n_draws, n_directions=n_directions)
    require_scalars("index", seed=seed)
    n, d, root = spec.n, spec.d, spec.root
    rho = 1.0 if root is None else float(np.max(np.diag(spec.sigma_cov)))

    rng = np.random.default_rng(seed)
    lower_viol = upper_viol = checks = 0
    lower_margin = upper_margin = math.inf
    for _ in range(n_draws):
        X = _times_root(rng.standard_normal((n, d)), root)
        dirs = _direction_batch(rng, d, n_directions)
        low, up = _margins(X, root, rho, dirs)
        lower_viol += int(np.count_nonzero(low < -1e-12))
        upper_viol += int(np.count_nonzero(up < -1e-12))
        checks += len(dirs)
        lower_margin = min(lower_margin, float(low.min()))
        upper_margin = min(upper_margin, float(up.min()))
    return Prop1Report(
        lower_violations=lower_viol,
        upper_violations=upper_viol,
        n_checks=checks,
        lower_margin_min=lower_margin,
        upper_margin_min=upper_margin,
    )


def _direction_batch(rng: np.random.Generator, d: int, count: int) -> np.ndarray:
    """Half dense Gaussian, a quarter sparse, a quarter coordinate directions."""
    n_dense = count - count // 4 - count // 4
    dense = rng.standard_normal((n_dense, d))
    sparse = np.zeros((count // 4, d))
    for row in sparse:
        support = rng.choice(d, size=rng.integers(1, 4), replace=False)
        row[support] = rng.standard_normal(len(support))
    coords = np.zeros((count // 4, d))
    cols = rng.integers(0, d, size=count // 4)
    coords[np.arange(count // 4), cols] = rng.choice((-1.0, 1.0), size=count // 4)
    return np.vstack([dense, sparse, coords])


# ---------------------------------------------------------------------------
# identifiability consistency and combined diagnostics
# ---------------------------------------------------------------------------


def ident_consistency(kappa_l: float, f_l_value: float, diam2_estimate: float) -> bool:
    """Check diam_2 <= f_l / kappa_l, the curvature-to-identifiability link."""
    if kappa_l == 0.0:
        raise ConsistencyError("kappa_l = 0 makes the identifiability bound vacuous")
    return diam2_estimate <= f_l_value / kappa_l + 1e-10


@dataclass
class DesignDiagnostics:
    """Measured design constants at a given sparsity level."""

    kappa_c: float
    kappa_l: float
    kappa_u: float
    re_constant: float
    re_method: str
    kernel_trivial: bool
    diam2_estimate: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def diagnose(
    X: np.ndarray,
    s: int,
    c0: float = 3.0,
    ball: Optional[BallSpec] = None,
    n_samples: int = 2000,
    seed: int = 0,
) -> DesignDiagnostics:
    """Measure every design constant at sparsity level s (spectrum at 2s)."""
    params = REParams(s=s, c0=c0)  # checks s and c0 before any scan
    require_scalars("index", n_samples=n_samples, seed=seed)
    X = np.asarray(X, dtype=float)
    require_finite(X=X)
    if ball is None:
        ball = BallSpec(q=0.0, radius=float(s))
    # one scan at level 2s gives the spectrum, the kernel test, and the
    # diameter of the default ball B_0(s)
    kappa_l, kappa_u, full_rank = _sparse_scan(X, 2 * s)
    if ball.q == 0.0 and ball.s == s:
        diam2 = 0.0 if full_rank else math.inf
    else:
        diam2 = kernel_diameter(X, ball, p=2.0, n_samples=n_samples, seed=seed)
    mode = "exact_tiny" if X.shape[1] <= 12 else "sampled"
    re = re_constant(X, params, mode=mode, n_samples=n_samples, seed=seed)
    return DesignDiagnostics(
        kappa_c=column_norm_constant(X),
        kappa_l=kappa_l,
        kappa_u=kappa_u,
        re_constant=re.value,
        re_method=re.method,
        kernel_trivial=full_rank,
        diam2_estimate=diam2,
    )
