"""Closed-form rate and tail bounds, plus exact small-scale suprema oracles.

Each theorem's risk formula is one table row: a generic-constant flag, the
formula string and its value, evaluated in log-space.  Constants the theory
leaves unspecified must be passed in the constants map (1.0 reproduces the
bare shape); the explicit constants 24, 6, 144 and 81 are built in.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ParameterError, require_finite, require_rows, require_scalars
from .supports import support_chunks

__all__ = [
    "RateQuery",
    "FanoParams",
    "ChiSquareTails",
    "LogBinomial",
    "minimax_rate",
    "rate_formula",
    "fano_error_bound",
    "chi_square_tails",
    "sup_correlation_exact",
    "sup_correlation_pred_exact",
    "log_binomial",
    "THEOREMS",
]


@dataclass(frozen=True)
class RateQuery:
    """Inputs for one theorem's risk formula.

    ``radius`` is Rq for q > 0 and the integer s for q = 0 theorems; for
    Cor1, ``sigma`` plays the role of tau and n is the sequence length.
    """

    theorem: str
    n: int
    q: float = 0.0
    radius: float = 1.0
    sigma: float = 1.0
    d: Optional[float] = None  # only enters through log d
    kappa_c: Optional[float] = None
    kappa_l: Optional[float] = None
    kappa_u: Optional[float] = None
    p: float = 2.0
    diam_term: float = 0.0
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ParameterError(f"unknown theorem {self.theorem!r}")
        require_scalars("count", n=self.n)
        require_scalars("positive", sigma=self.sigma, radius=self.radius)
        require_scalars("nonnegative", diam_term=self.diam_term)
        if not 0.0 <= self.q <= 1.0:
            raise ParameterError(f"q must lie in [0, 1], got {self.q}")
        if not 1.0 <= self.p < math.inf:
            raise ParameterError(f"p must lie in [1, inf), got {self.p}")


def _log_log(term: str, value: float) -> float:
    """log(log(value)) for the log term ``term`` of a rate; value must exceed 1."""
    if not value > 1.0:
        raise ParameterError(f"log {term} must be positive, got {term} = {value}")
    return math.log(math.log(value))


def _log_scale(x: RateQuery, kappa: float, term: str, value: float) -> float:
    """log of sigma^2/kappa^2 * log(term)/n."""
    return (2.0 * math.log(x.sigma) - 2.0 * math.log(kappa)
            + _log_log(term, value) - math.log(x.n))


class _Rate(NamedTuple):
    generic: bool  # the leading constant is the caller's constants["c"]
    formula: str  # its names are RateQuery fields, or Rq and s for radius, tau for sigma
    value: Callable  # (query, c) -> the rate, computed in log-space


_RATES = {
    "T1a": _Rate(True, "c * max(diam_term, Rq * (sigma^2/kappa_c^2 * log(d)/n)^((p-q)/2))",
                 lambda x, c: c * max(x.diam_term, math.exp(
                     math.log(x.radius)
                     + (x.p - x.q) / 2.0 * _log_scale(x, x.kappa_c, "d", x.d)))),
    "T1b": _Rate(True, "c * max(diam_term, s^(p/2) * (sigma^2/kappa_u^2 * log(d/s)/n)^(p/2))",
                 lambda x, c: c * max(x.diam_term, math.exp(
                     x.p / 2.0 * math.log(x.radius)
                     + x.p / 2.0 * _log_scale(x, x.kappa_u, "d/s", x.d / x.radius)))),
    "T2a": _Rate(False, "24 * Rq * (kappa_c^2/kappa_l^2 * sigma^2/kappa_l^2 * log(d)/n)^(1-q/2)",
                 lambda x, c: 24.0 * x.radius * math.exp((1.0 - x.q / 2.0) * (
                     2.0 * math.log(x.kappa_c) - 4.0 * math.log(x.kappa_l)
                     + 2.0 * math.log(x.sigma) + _log_log("d", x.d) - math.log(x.n)))),
    "T2b_plain": _Rate(False, "6 * kappa_c^2/kappa_l^2 * sigma^2/kappa_l^2 * s*log(d)/n",
                       lambda x, c: 6.0 * math.exp(
                           2.0 * math.log(x.kappa_c) - 4.0 * math.log(x.kappa_l)
                           + 2.0 * math.log(x.sigma) + math.log(x.radius)
                           + _log_log("d", x.d) - math.log(x.n))),
    "T2b_sharp": _Rate(False, "144 * kappa_u^2/kappa_l^2 * sigma^2/kappa_l^2 * s*log(d/s)/n",
                       lambda x, c: 144.0 * math.exp(
                           2.0 * math.log(x.kappa_u) - 4.0 * math.log(x.kappa_l)
                           + 2.0 * math.log(x.sigma) + math.log(x.radius)
                           + _log_log("d/s", x.d / x.radius) - math.log(x.n))),
    "T3a": _Rate(True, "c * Rq * kappa_l^2 * (sigma^2/kappa_c^2 * log(d)/n)^(1-q/2)",
                 lambda x, c: c * math.exp(
                     math.log(x.radius) + 2.0 * math.log(x.kappa_l)
                     + (1.0 - x.q / 2.0) * _log_scale(x, x.kappa_c, "d", x.d))),
    "T3b": _Rate(True, "c * kappa_l^2 * sigma^2/kappa_u^2 * s*log(d/s)/n",
                 lambda x, c: c * math.exp(
                     2.0 * math.log(x.kappa_l) + 2.0 * math.log(x.sigma)
                     - 2.0 * math.log(x.kappa_u) + math.log(x.radius)
                     + _log_log("d/s", x.d / x.radius) - math.log(x.n))),
    "T4a": _Rate(True, "c * kappa_c^2 * Rq * (sigma^2/kappa_c^2 * log(d)/n)^(1-q/2)",
                 lambda x, c: c * math.exp(
                     2.0 * math.log(x.kappa_c) + math.log(x.radius)
                     + (1.0 - x.q / 2.0) * _log_scale(x, x.kappa_c, "d", x.d))),
    "T4b": _Rate(False, "81 * sigma^2 * s*log(d/s)/n",
                 lambda x, c: 81.0 * math.exp(
                     2.0 * math.log(x.sigma) + math.log(x.radius)
                     + _log_log("d/s", x.d / x.radius) - math.log(x.n))),
    "Cor1": _Rate(True, "c * (2*tau^2*log(n)/n)^(1-q/2)",
                  lambda x, c: c * math.exp((1.0 - x.q / 2.0) * (
                      math.log(2.0) + 2.0 * math.log(x.sigma)
                      + _log_log("n", x.n) - math.log(x.n)))),
}

THEOREMS = tuple(_RATES)

# the optional RateQuery fields, in the order their absence is reported
_OPTIONAL = ("d", "kappa_c", "kappa_u", "kappa_l")


def rate_formula(theorem: str) -> str:
    return _RATES[theorem].formula


def minimax_rate(query: RateQuery) -> float:
    """Evaluate the selected theorem's risk expression.

    Products and powers run in log-space so large-n queries never underflow
    to zero prematurely.  The optional parameters a theorem needs are the
    ones its formula names.
    """
    rate = _RATES[query.theorem]
    if rate.generic and "c" not in query.constants:
        raise ParameterError(
            f"{query.theorem} has an unspecified generic constant; "
            "pass constants={'c': ...} (1.0 reproduces the bare shape)"
        )
    names = set(re.findall(r"\w+", rate.formula))
    for name in (n for n in _OPTIONAL if n in names):
        v = getattr(query, name)
        if v is None:
            raise ParameterError(f"{query.theorem} needs parameter {name!r}")
        # d <= 1 is left to the log term check, which names the term
        require_scalars("finite" if name == "d" else "positive", **{name: v})
    return rate.value(query, float(query.constants["c"]) if rate.generic else 1.0)


# ---------------------------------------------------------------------------
# Fano arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FanoParams:
    """Packing/covering inputs for the hypothesis-testing error bound."""

    delta_n: float
    epsilon_n: float
    log_pack: float
    log_cover: float
    n: int
    sigma: float
    kappa_c: float
    c_route: float = 1.0  # covering-argument constant, unspecified by the theory

    def __post_init__(self):
        require_scalars("positive", delta_n=self.delta_n, epsilon_n=self.epsilon_n,
                        log_pack=self.log_pack, sigma=self.sigma, kappa_c=self.kappa_c,
                        c_route=self.c_route)
        require_scalars("nonnegative", log_cover=self.log_cover)
        require_scalars("count", n=self.n)


def fano_error_bound(params: FanoParams) -> float:
    """1 - (log_cover + c n kappa_c^2 eps^2 / sigma^2 + log 2) / log_pack, in [0, 1]."""
    info = (params.log_cover
            + params.c_route * params.n * params.kappa_c**2 * params.epsilon_n**2
            / params.sigma**2)
    value = 1.0 - (info + math.log(2.0)) / params.log_pack
    return min(max(value, 0.0), 1.0)


# ---------------------------------------------------------------------------
# chi-square tails
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChiSquareTails:
    """Deviation thresholds and their probability bounds for chi^2_m.

    upper: P[Z - m >= 2 sqrt(m x) + 2 x] <= e^{-x};
    lower: P[Z - m <= -2 sqrt(m x)] <= e^{-x};
    simplified (valid for x >= 1): P[(Z - m)/m >= 4 x] <= e^{-m x}.
    """

    upper_threshold: float
    upper_dev_bound: float
    lower_threshold: float
    lower_dev_bound: float
    simplified_threshold: float
    simplified_4t_bound: float
    simplified_valid: bool


def chi_square_tails(m: int, x: float) -> ChiSquareTails:
    require_scalars("count", m=m)
    require_scalars("positive", x=x)
    dev = 2.0 * math.sqrt(m * x)
    return ChiSquareTails(
        upper_threshold=m + dev + 2.0 * x,
        upper_dev_bound=math.exp(-x),
        lower_threshold=m - dev,
        lower_dev_bound=math.exp(-x),
        simplified_threshold=m * (1.0 + 4.0 * x),
        simplified_4t_bound=math.exp(-m * x),
        simplified_valid=x >= 1.0,
    )


# ---------------------------------------------------------------------------
# exact suprema of the noise-design correlation
# ---------------------------------------------------------------------------


def sup_correlation_exact(X: np.ndarray, w: np.ndarray, s: int, r: float) -> float:
    """sup of |w^T X theta| / n over ||theta||_0 <= 2s, ||theta||_2 <= r.

    The support maximization is separable: the supremum equals
    (r/n) sqrt(sum of the 2s largest (X_j^T w)^2), which is the support
    enumeration in closed form.
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(w, dtype=float)
    require_rows(X, w=w)
    require_scalars("count", s=s)
    require_scalars("nonnegative", r=r)
    require_finite(X=X, w=w)
    z_sq = (X.T @ w) ** 2
    k = min(2 * s, X.shape[1])
    top = np.sort(z_sq)[-k:]
    return float(r / X.shape[0] * math.sqrt(top.sum()))


def sup_correlation_pred_exact(X: np.ndarray, w: np.ndarray, s: int, r: float) -> float:
    """sup of |w^T X theta| / n over 2s-sparse theta with ||X theta||_2/sqrt(n) <= r.

    Per support the supremum is r ||P_S w||_2 / sqrt(n) with P_S the
    projection on the column span of X_S; the result maximizes over all
    supports (rank judged at 1e-12 relative).
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(w, dtype=float)
    require_rows(X, w=w)
    n, d = X.shape
    require_scalars("count", s=s)
    require_scalars("nonnegative", r=r)
    require_finite(X=X, w=w)
    level = min(2 * s, d)
    best = 0.0
    for supports in support_chunks(d, level, per_support=n * level):
        u, svals, _ = np.linalg.svd(np.moveaxis(X[:, supports], 1, 0), full_matrices=False)
        keep = svals > 1e-12 * svals[:, :1]
        proj_norm_sq = np.sum(np.where(keep, w @ u, 0.0) ** 2, axis=1)
        best = max(best, float(proj_norm_sq.max()))
    return float(r * math.sqrt(best) / math.sqrt(n))


# ---------------------------------------------------------------------------
# binomial coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogBinomial:
    value: float
    lower: float  # s log(d/s)
    upper: float  # s log(d e / s)


def log_binomial(d: int, s: int) -> LogBinomial:
    """Exact log C(d, s) via ``math.lgamma``, with the standard bracketing."""
    require_scalars("index", d=d, s=s)
    if s > d:
        raise ParameterError(f"need 0 <= s <= d, got s={s}, d={d}")
    value = math.lgamma(d + 1) - math.lgamma(s + 1) - math.lgamma(d - s + 1)
    if s == 0:
        return LogBinomial(value=value, lower=0.0, upper=0.0)
    return LogBinomial(
        value=value,
        lower=s * math.log(d / s),
        upper=s * (math.log(d / s) + 1.0),
    )
