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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CovarianceError, DimensionError, MembershipError, ParameterError

__all__ = [
    "BallSpec",
    "DesignSpec",
    "LossSpec",
    "ProblemInstance",
    "derive_seed",
    "split_streams",
    "generate_design",
    "generate_sparse_beta",
    "simulate",
    "sequence_model_instance",
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
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "radius", float(self.radius))
        if not 0.0 <= self.q <= 1.0:
            raise ParameterError(f"q must lie in [0, 1], got {self.q}")
        if self.radius <= 0:
            raise ParameterError(f"radius must be positive, got {self.radius}")
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


@dataclass(frozen=True)
class DesignSpec:
    """Recipe for a design matrix.

    kind is one of ``standard_gaussian``, ``correlated_gaussian`` (rows i.i.d.
    N(0, Sigma)), or ``identity_sequence`` (requires n == d).
    """

    kind: str
    n: int
    d: int
    seed: int = 0
    sigma_cov: Optional[np.ndarray] = None

    _KINDS = ("standard_gaussian", "correlated_gaussian", "identity_sequence")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ParameterError(f"unknown design kind {self.kind!r}")
        if self.n <= 0 or self.d <= 0:
            raise DimensionError(f"need n, d >= 1, got n={self.n}, d={self.d}")
        if self.kind == "identity_sequence" and self.n != self.d:
            raise DimensionError(
                f"identity_sequence requires n == d, got n={self.n}, d={self.d}"
            )
        if self.kind == "correlated_gaussian":
            if self.sigma_cov is None:
                raise ParameterError("correlated_gaussian requires a covariance")
            _check_covariance(np.asarray(self.sigma_cov, dtype=float), self.d)


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
        if self.kind == "lp" and not 1 <= self.p < math.inf:
            raise ParameterError(f"lp loss requires finite p >= 1, got {self.p}")

    @classmethod
    def l2(cls) -> "LossSpec":
        return cls("lp", 2.0)

    @classmethod
    def prediction(cls) -> "LossSpec":
        return cls("l2_prediction")

    @property
    def name(self) -> str:
        if self.kind == "l2_prediction":
            return "pred"
        return f"l{self.p:g}"


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
    ss = np.random.SeedSequence([int(root)] + [int(p) for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def split_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Split one seed into independent (design, noise) generators."""
    design_ss, noise_ss = np.random.SeedSequence(int(seed)).spawn(2)
    return np.random.default_rng(design_ss), np.random.default_rng(noise_ss)


# ---------------------------------------------------------------------------
# design matrices
# ---------------------------------------------------------------------------


def _check_covariance(sigma_cov: np.ndarray, d: int) -> None:
    if sigma_cov.shape != (d, d):
        raise CovarianceError(f"covariance has shape {sigma_cov.shape}, expected ({d}, {d})")
    if not np.allclose(sigma_cov, sigma_cov.T, atol=1e-10):
        raise CovarianceError("covariance is not symmetric")
    evals = np.linalg.eigvalsh(0.5 * (sigma_cov + sigma_cov.T))
    if evals.min() < -1e-10 * max(evals.max(), 1.0):
        raise CovarianceError(f"covariance has negative eigenvalue {evals.min():g}")


def symmetric_sqrt(sigma_cov: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues below 1e-12 (relative to the largest) are clamped to zero.
    """
    sigma_cov = 0.5 * (np.asarray(sigma_cov, dtype=float) + np.asarray(sigma_cov).T)
    evals, evecs = np.linalg.eigh(sigma_cov)
    cutoff = 1e-12 * max(evals.max(), 0.0)
    if evals.min() < -1e-10 * max(evals.max(), 1.0):
        raise CovarianceError(f"covariance has negative eigenvalue {evals.min():g}")
    evals = np.where(evals > cutoff, evals, 0.0)
    return (evecs * np.sqrt(evals)) @ evecs.T


def generate_design(spec: DesignSpec) -> np.ndarray:
    """Draw the n x d design matrix described by ``spec``.

    standard_gaussian gives i.i.d. N(0, 1) entries; correlated_gaussian gives
    rows i.i.d. N(0, Sigma), realized as W @ Sigma^{1/2} with W standard
    normal; identity_sequence gives the identity.  Deterministic given the
    spec's seed.
    """
    rng, _ = split_streams(spec.seed)
    if spec.kind == "identity_sequence":
        return np.eye(spec.n)
    if spec.kind == "standard_gaussian":
        return rng.standard_normal((spec.n, spec.d))
    # correlated_gaussian
    root = symmetric_sqrt(np.asarray(spec.sigma_cov, dtype=float))
    w = rng.standard_normal((spec.n, spec.d))
    return w @ root


# ---------------------------------------------------------------------------
# sparse truth vectors
# ---------------------------------------------------------------------------


# support rule of each truth pattern: (d, k, seed) -> the k support indices
_PATTERNS = {
    "random_support": lambda d, k, seed: split_streams(seed)[0].choice(d, size=k, replace=False),
    "first_coordinates": lambda d, k, seed: np.arange(k),
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
    if magnitude <= 0:
        raise ParameterError(f"magnitude must be positive, got {magnitude}")
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
    design stream stay independent of it.
    """
    X = np.asarray(X, dtype=float)
    beta_star = np.asarray(beta_star, dtype=float)
    if X.ndim != 2 or beta_star.shape != (X.shape[1],):
        raise DimensionError(
            f"shape mismatch: X {X.shape} vs beta_star {beta_star.shape}"
        )
    if sigma < 0:
        raise ParameterError(f"sigma must be nonnegative, got {sigma}")
    _, noise_rng = split_streams(seed)
    w = sigma * noise_rng.standard_normal(X.shape[0])
    y = X @ beta_star + w
    return ProblemInstance(X=X, beta_star=beta_star, sigma=float(sigma), y=y,
                           seed=int(seed), ball=ball)


def sequence_model_instance(
    n: int,
    tau: float,
    ball: BallSpec,
    seed: int = 0,
    pattern: str = "random_support",
    magnitude: float = 1.0,
) -> ProblemInstance:
    """Normal sequence model: d = n, X = identity, noise variance tau^2 / n."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    if tau <= 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    beta = generate_sparse_beta(ball, n, pattern=pattern, magnitude=magnitude, seed=seed)
    sigma = tau / np.sqrt(n)
    return simulate(np.eye(n), beta, sigma, seed=seed, ball=ball)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def loss(
    loss_spec: LossSpec,
    X: Optional[np.ndarray],
    beta_hat: np.ndarray,
    beta_star: np.ndarray,
) -> float:
    """Evaluate sum_j |bhat_j - b*_j|^p, or ||X(bhat - b*)||_2^2 / n."""
    beta_hat = np.asarray(beta_hat, dtype=float)
    beta_star = np.asarray(beta_star, dtype=float)
    if beta_hat.shape != beta_star.shape:
        raise DimensionError(
            f"shape mismatch: {beta_hat.shape} vs {beta_star.shape}"
        )
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
    doc = json.loads(text)
    n, d = int(doc["n"]), int(doc["d"])
    ball = None
    if doc.get("q") is not None:
        ball = BallSpec(q=float(doc["q"]), radius=float(doc["radius"]))
    return ProblemInstance(
        X=np.array(doc["X"], dtype=float).reshape(n, d),
        beta_star=np.array(doc["beta_star"], dtype=float),
        sigma=float(doc["sigma"]),
        y=np.array(doc["y"], dtype=float),
        seed=int(doc["seed"]),
        ball=ball,
    )


def instance_to_csv(inst: ProblemInstance, path) -> None:
    """Export y and beta_star in long format: columns series, index, value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "index", "value"])
        for i, v in enumerate(inst.y):
            writer.writerow(["y", i, repr(float(v))])
        for j, v in enumerate(inst.beta_star):
            writer.writerow(["beta_star", j, repr(float(v))])
