"""Problem generation and simulation for sparse linear regression.

Generates design matrices from several Gaussian ensembles, sparse truth
vectors living in an lq-ball, noisy observations y = X b + w, and evaluates
lp and prediction losses.  Everything is deterministic given its seed: a
root seed is split into independent design and noise streams so the same
design can be reused across noise draws.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (CovarianceError, DimensionError, MembershipError, ParameterError, as_scalar,
                     as_tuple, require_rows, require_scalars, store_scalars)

__all__ = [
    "BallSpec",
    "DesignSpec",
    "InstanceSpec",
    "LossSpec",
    "ProblemInstance",
    "derive_seed",
    "split_streams",
    "generate_design",
    "generate_sparse_beta",
    "simulate",
    "loss",
    "instance_to_json",
    "instance_from_json",
    "instance_to_csv",
]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallSpec:
    """Sparsity class: exponent q in [0, 1] and radius.

    For q = 0 the radius is the integer support-size budget; for q in (0, 1]
    it is the bound on sum_j |b_j|^q.
    """

    q: float
    radius: float

    def __post_init__(self):
        store_scalars(self, q="finite", radius="positive")
        if not 0.0 <= self.q <= 1.0:
            raise ParameterError(f"q must lie in [0, 1], got {self.q}")
        if self.q == 0.0 and self.radius != int(self.radius):
            raise ParameterError(
                f"q = 0 requires an integer support budget, got {self.radius}"
            )

    @property
    def s(self) -> int:
        """Support budget for the hard-sparse case."""
        if self.q != 0.0:
            raise ParameterError("s is only defined for q = 0")
        return int(self.radius)

    def validate_for_dim(self, d: int) -> None:
        if self.q == 0.0 and not 1 <= self.radius <= d:
            raise ParameterError(
                f"support budget {self.radius} not in [1, {d}] for dimension {d}"
            )


def _require_dims(n: int, d: int) -> None:
    """ParameterError unless n and d are integers >= 0, DimensionError unless both are >= 1."""
    require_scalars("index", n=n, d=d)
    if n < 1 or d < 1:
        raise DimensionError(f"need n, d >= 1, got n={n}, d={d}")


@dataclass(frozen=True)
class DesignSpec:
    """Recipe for a design matrix.

    kind is ``standard_gaussian`` or ``correlated_gaussian`` (rows i.i.d.
    N(0, Sigma)).  A correlated spec checks and factors Sigma once, at
    construction, and holds the root Sigma^{1/2} (None for a standard one).
    n, d and seed are stored as Python ints under the ``index`` rule, and n or
    d below 1 raises DimensionError.
    """

    kind: str
    n: int
    d: int
    seed: int = 0
    sigma_cov: Optional[np.ndarray] = None
    root: Optional[np.ndarray] = field(default=None, init=False, compare=False, repr=False)

    _KINDS = ("standard_gaussian", "correlated_gaussian")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ParameterError(f"unknown design kind {self.kind!r}")
        store_scalars(self, n="index", d="index", seed="index")
        _require_dims(self.n, self.d)
        if self.kind == "correlated_gaussian":
            if self.sigma_cov is None:
                raise ParameterError("correlated_gaussian requires a covariance")
            if np.shape(self.sigma_cov) != (self.d, self.d):
                raise CovarianceError(f"covariance has shape {np.shape(self.sigma_cov)}, "
                                      f"expected ({self.d}, {self.d})")
            object.__setattr__(self, "root", symmetric_sqrt(self.sigma_cov))


@dataclass(frozen=True, kw_only=True)
class InstanceSpec:
    """Recipe for one trial's instance; ``sigma`` is the noise level of y = X b + w.
    A correlated spec checks and factors Sigma once, at construction, and every
    draw reuses the root (None for a standard one).
    """

    ball: BallSpec
    sigma: float
    design_kind: str = "standard_gaussian"
    sigma_cov: Optional[tuple] = None  # rows of the covariance, for correlated designs
    beta_pattern: str = "random_support"
    beta_magnitude: float = 1.0
    # "constant" uses beta_magnitude; "threshold_logd" places entries at the
    # per-cell detection scale sigma sqrt(2 log d / n), the least favorable
    # configuration for soft-sparse balls
    beta_magnitude_rule: str = "constant"
    root: Optional[np.ndarray] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self, *names):
        """``names`` adds (name, value, known values) entries to the one unknown-name error."""
        unknown = [f"{name} {value!r} (known: {', '.join(known)})"
                   for name, value, known in (
                       ("design_kind", self.design_kind, DesignSpec._KINDS),
                       ("beta_pattern", self.beta_pattern, _PATTERNS),
                       ("beta_magnitude_rule", self.beta_magnitude_rule, _MAGNITUDE_RULES),
                       *names)
                   if value not in known]
        if unknown:
            raise ParameterError("unknown " + "; ".join(unknown))
        if not isinstance(self.ball, BallSpec):
            raise ParameterError(f"'ball' must be a BallSpec, got {self.ball!r}")
        store_scalars(self, sigma="nonnegative", beta_magnitude="positive")
        scale = _MAGNITUDE_RULES[self.beta_magnitude_rule][0]
        require_scalars("positive", **{scale: getattr(self, scale)})
        if self.sigma_cov is not None:
            rows = as_tuple("sigma_cov", self.sigma_cov)
            cov = tuple(as_tuple("sigma_cov", row, "finite") for row in rows)
            object.__setattr__(self, "sigma_cov", cov)
        if self.design_kind == "correlated_gaussian":
            if self.sigma_cov is None:
                raise ParameterError("correlated_gaussian requires a covariance")
            object.__setattr__(self, "root", symmetric_sqrt(self.sigma_cov))

    def draw(self, n: int, d: int, seed: int) -> ProblemInstance:
        """The n x d instance of one trial (n, d >= 1, d Sigma's size if correlated): design,
        truth and noise from the streams derive_seed(seed, 1), derive_seed(seed, 2), seed."""
        _require_dims(n, d)
        if self.root is not None and d != len(self.root):
            raise CovarianceError(f"covariance is {len(self.root)} x {len(self.root)}, but d={d}")
        X = _gaussian_rows(n, d, derive_seed(seed, 1), self.root)
        scale, factor = _MAGNITUDE_RULES[self.beta_magnitude_rule]
        beta = generate_sparse_beta(self.ball, d, pattern=self.beta_pattern,
                                    magnitude=getattr(self, scale) * factor(n, d),
                                    seed=derive_seed(seed, 2))
        return simulate(X, beta, self.sigma, seed=seed, ball=self.ball)


@dataclass(frozen=True)
class LossSpec:
    """Loss selector: ``lp`` with finite exponent p >= 1, or ``l2_prediction``.

    An lp loss is the p-th power sum_j |delta_j|^p, which has no limit as
    p -> inf, so p must be finite.
    """

    kind: str
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in ("lp", "l2_prediction"):
            raise ParameterError(f"unknown loss kind {self.kind!r}")
        store_scalars(self, p="finite")
        if self.kind == "lp" and not 1 <= self.p:
            raise ParameterError(f"lp loss requires finite p >= 1, got {self.p}")

    @classmethod
    def l2(cls) -> "LossSpec":
        return cls("lp", 2.0)

    @classmethod
    def prediction(cls) -> "LossSpec":
        return cls("l2_prediction")

    @property
    def name(self) -> str:
        return "pred" if self.kind == "l2_prediction" else f"l{self.p:g}"

    @staticmethod
    def power_of(name: str) -> float:  # the p of the loss ``name``: 2 for pred, p for l<p>
        return 2.0 if name == "pred" else float(name[1:])


@dataclass(frozen=True)
class ProblemInstance:
    """One concrete regression problem: y = X beta_star + w, w ~ N(0, sigma^2 I).

    Frozen after creation; the arrays are shared, not defensively copied, and
    callers must not mutate them.
    """

    X: np.ndarray
    beta_star: np.ndarray
    sigma: float
    y: np.ndarray
    seed: int
    ball: Optional[BallSpec] = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def noise(self) -> np.ndarray:
        """Recover the realized noise vector w = y - X beta_star."""
        return self.y - self.X @ self.beta_star


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def derive_seed(root: int, *parts: int) -> int:
    """Deterministic 64-bit child seed from a root seed and integer key parts."""
    require_scalars("index", root=root, **{f"part {i}": p for i, p in enumerate(parts)})
    ss = np.random.SeedSequence([int(root)] + [int(p) for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def split_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Split one seed into independent (design, noise) generators."""
    require_scalars("index", seed=seed)
    design_ss, noise_ss = np.random.SeedSequence(int(seed)).spawn(2)
    return np.random.default_rng(design_ss), np.random.default_rng(noise_ss)


# ---------------------------------------------------------------------------
# design matrices
# ---------------------------------------------------------------------------


def symmetric_sqrt(sigma_cov: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition; the one covariance check.

    Raises CovarianceError unless sigma_cov is a finite nonempty square matrix,
    symmetric to atol 1e-10 and PSD up to -1e-10 max(lambda_max, 1).
    Eigenvalues below 1e-12 (relative to the largest) are clamped to zero.
    A diagonal sigma_cov (every off-diagonal entry exactly 0) is factored with
    no eigendecomposition: its eigenvalues are its diagonal, under the same
    rules, and the root is diag(sqrt(clamped diagonal)).  Those are the bits
    ``eigh``'s signed unit eigenvectors give while LAPACK leaves the matrix
    unscaled (largest |entry| within about 1e-146 .. 1e146); outside that
    range its rescaling can move the last bit, and the diagonal path cannot.
    """
    sigma_cov = np.asarray(sigma_cov, dtype=float)
    if sigma_cov.ndim != 2 or not 1 <= sigma_cov.shape[0] == sigma_cov.shape[1]:
        raise CovarianceError(f"covariance has shape {sigma_cov.shape}, expected a square matrix")
    if not np.isfinite(sigma_cov).all():
        raise CovarianceError("covariance has non-finite entries")
    if not np.allclose(sigma_cov, sigma_cov.T, atol=1e-10):
        raise CovarianceError("covariance is not symmetric")
    diagonal = np.diagonal(sigma_cov)
    if np.count_nonzero(sigma_cov) == np.count_nonzero(diagonal):
        evals, evecs = diagonal, None
    else:
        evals, evecs = np.linalg.eigh(0.5 * (sigma_cov + sigma_cov.T))
    if evals.min() < -1e-10 * max(evals.max(), 1.0):
        raise CovarianceError(f"covariance has negative eigenvalue {evals.min():g}")
    evals = np.where(evals > 1e-12 * max(evals.max(), 0.0), evals, 0.0)
    if evecs is None:
        return np.diag(np.sqrt(evals))
    return (evecs * np.sqrt(evals)) @ evecs.T


def generate_design(spec: DesignSpec) -> np.ndarray:
    """Draw the n x d design matrix described by ``spec``.

    standard_gaussian gives i.i.d. N(0, 1) entries; correlated_gaussian gives
    rows i.i.d. N(0, Sigma), realized as W @ spec.root with W standard
    normal.  Deterministic given the spec's seed.
    """
    return _gaussian_rows(spec.n, spec.d, spec.seed, spec.root)


def _gaussian_rows(n: int, d: int, seed: int, root: Optional[np.ndarray]) -> np.ndarray:
    """n rows i.i.d. N(0, root @ root): standard-normal W from the design stream of
    ``seed``, times the root (None for the identity); a diagonal root scales W's
    columns (``_times_root``)."""
    w = split_streams(seed)[0].standard_normal((n, d))
    return w if root is None else _times_root(w, root)


def _times_root(A: np.ndarray, root: Optional[np.ndarray], left: bool = False) -> np.ndarray:
    """A @ root, or root @ A when ``left``, as a C-order array (None is the identity).

    A diagonal root (off-diagonal entries exactly 0) scales A's columns, or
    its rows when ``left``, by the diagonal in place of the gemm, with the
    gemm's bits: each entry is one rounded product either way, and + 0.0
    turns the -0.0 of a negative entry times a zero scale into the gemm's
    +0.0.  Any other root takes the gemm.
    """
    if root is None:
        return np.ascontiguousarray(A)
    scale = np.diagonal(root)
    if np.count_nonzero(root) != np.count_nonzero(scale):
        return root @ A if left else A @ root
    out = np.multiply(A, scale[:, None] if left else scale, order="C")
    out += 0.0
    return out


# ---------------------------------------------------------------------------
# sparse truth vectors
# ---------------------------------------------------------------------------


# support rule of each truth pattern: (d, k, seed) -> the k support indices
_PATTERNS = {
    "random_support": lambda d, k, seed: split_streams(seed)[0].choice(d, size=k, replace=False),
    "first_coordinates": lambda d, k, seed: np.arange(k),
}

# beta_magnitude_rule -> (InstanceSpec field that scales the truth, its factor in cell (n, d))
_MAGNITUDE_RULES = {
    "constant": ("beta_magnitude", lambda n, d: 1.0),
    "threshold_logd": ("sigma", lambda n, d: math.sqrt(2.0 * math.log(d) / n)),
}


def generate_sparse_beta(
    ball: BallSpec,
    d: int,
    pattern: str = "random_support",
    magnitude: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Generate a ball member with equal-magnitude entries.

    pattern is ``random_support`` or ``first_coordinates``.  For q > 0 the
    support size is the largest k with k * magnitude^q <= radius, so
    membership holds exactly under direct evaluation of sum |b_j|^q.
    """
    ball.validate_for_dim(d)
    if pattern not in _PATTERNS:
        raise ParameterError(f"unknown pattern {pattern!r}")
    require_scalars("positive", magnitude=magnitude)
    if ball.q == 0.0:
        k = ball.s
    else:
        k = int(np.floor(ball.radius / magnitude**ball.q + 1e-12))
        k = min(k, d)
        if k < 1:
            raise MembershipError(
                f"magnitude {magnitude} alone exceeds the q={ball.q} budget {ball.radius}"
            )

    beta = np.zeros(d)
    beta[_PATTERNS[pattern](d, k, seed)] = magnitude
    return beta


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------


def simulate(
    X: np.ndarray,
    beta_star: np.ndarray,
    sigma: float,
    seed: int = 0,
    ball: Optional[BallSpec] = None,
) -> ProblemInstance:
    """Observe y = X beta_star + w with w i.i.d. N(0, sigma^2).

    sigma = 0 gives the noiseless y = X beta_star exactly.  The noise is drawn
    from the noise stream of ``seed``, so designs built from the same seed's
    design stream stay independent of it.  Only shapes are checked: the solver checks X, y.
    """
    X, beta_star = (np.asarray(a, dtype=float) for a in (X, beta_star))
    require_rows(X)
    require_rows(X.T, beta_star=beta_star)  # X^T has d rows
    require_scalars("nonnegative", sigma=sigma)
    _, noise_rng = split_streams(seed)
    w = sigma * noise_rng.standard_normal(X.shape[0])
    y = X @ beta_star + w
    return ProblemInstance(X=X, beta_star=beta_star, sigma=float(sigma), y=y,
                           seed=int(seed), ball=ball)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def loss(
    loss_spec: LossSpec,
    X: Optional[np.ndarray],
    beta_hat: np.ndarray,
    beta_star: np.ndarray,
) -> float:
    """Evaluate sum_j |bhat_j - b*_j|^p, or ||X(bhat - b*)||_2^2 / n.  Only shapes
    are checked: it runs on every trial, on a design its solver has checked."""
    beta_hat, beta_star = (np.asarray(a, dtype=float) for a in (beta_hat, beta_star))
    if beta_hat.shape != beta_star.shape:
        raise DimensionError(f"shape mismatch: {beta_hat.shape} vs {beta_star.shape}")
    delta = beta_hat - beta_star
    if loss_spec.kind == "lp":
        return float(np.sum(np.abs(delta) ** loss_spec.p))
    if X is None:
        raise DimensionError("prediction loss requires the design matrix")
    X = np.asarray(X, dtype=float)
    if X.shape[1] != delta.shape[0]:
        raise DimensionError(f"shape mismatch: X {X.shape} vs delta {delta.shape}")
    r = X @ delta
    return float(r @ r / X.shape[0])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def instance_to_json(inst: ProblemInstance) -> str:
    """Serialize an instance to the documented JSON schema.

    Keys: n, d, q, radius, sigma, seed, X (row-major), beta_star, y.
    """
    doc = {
        "n": inst.n,
        "d": inst.d,
        "q": inst.ball.q if inst.ball is not None else None,
        "radius": inst.ball.radius if inst.ball is not None else None,
        "sigma": inst.sigma,
        "seed": inst.seed,
        "X": inst.X.ravel(order="C").tolist(),
        "beta_star": inst.beta_star.tolist(),
        "y": inst.y.tolist(),
    }
    return json.dumps(doc)


def instance_from_json(text: str) -> ProblemInstance:
    """Load what ``instance_to_json`` writes.  n and d are checked as counts, sigma
    as a number >= 0 and seed as an integer >= 0 (ParameterError); X must hold n d
    entries, beta_star d and y n (DimensionError)."""
    doc = json.loads(text)
    n, d = as_scalar("count", "n", doc["n"]), as_scalar("count", "d", doc["d"])
    ball = None if doc.get("q") is None else BallSpec(q=doc["q"], radius=doc["radius"])
    X, beta_star, y = (np.array(doc[key], dtype=float) for key in ("X", "beta_star", "y"))
    if X.size != n * d:
        raise DimensionError(f"X has {X.size} entries, expected n d = {n * d}")
    X = X.reshape(n, d)
    require_rows(X, y=y)
    require_rows(X.T, beta_star=beta_star)  # X^T has d rows
    return ProblemInstance(X=X, beta_star=beta_star, y=y, ball=ball,
                           sigma=as_scalar("nonnegative", "sigma", doc["sigma"]),
                           seed=as_scalar("index", "seed", doc["seed"]))


def instance_to_csv(inst: ProblemInstance, path) -> None:
    """Export y and beta_star in long format: columns series, index, value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "index", "value"])
        for i, v in enumerate(inst.y):
            writer.writerow(["y", i, repr(float(v))])
        for j, v in enumerate(inst.beta_star):
            writer.writerow(["beta_star", j, repr(float(v))])
