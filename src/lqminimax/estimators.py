"""Constrained least-squares estimators over lq-balls, plus the Lasso.

q = 0 is solved exactly by support enumeration, q = 1 by projected gradient
with a Frank-Wolfe duality-gap certificate, q in (0, 1) by multi-start
projected gradient with a feasibility heuristic (no global guarantee; use an
oracle warm start in simulations), and the Lasso by cyclic coordinate
descent.  Both projected-gradient solvers step 1/L, where L is a Lanczos
upper bound on sigma_max(X)^2 within a factor 1 + 1e-6 of it (``_lipschitz``
says when it can fall short).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .ballgeom import ball_contains, project_l1, project_lq_heuristic
from .errors import DimensionError, ParameterError
from .linmodel import BallSpec, ProblemInstance
from .supports import check_budget, support_chunks

__all__ = [
    "EstimateResult",
    "BasicInequalityCheck",
    "l0_least_squares",
    "l1_constrained_ls",
    "lq_constrained_ls",
    "lasso",
    "check_basic_inequality",
]

LASSO_PATH_STEPS = 50  # penalties on the lasso's geometric warm-start ladder


@dataclass
class EstimateResult:
    """Solver output: estimate, residual objective ||y - X bhat||_2^2, and flags."""

    beta_hat: np.ndarray
    objective: float
    iterations: int
    converged: bool
    feasible: bool
    info: dict = field(default_factory=dict)

    @property
    def support(self) -> tuple:
        """Indices of the nonzero entries of beta_hat."""
        return tuple(int(j) for j in np.flatnonzero(self.beta_hat))

    def to_json_dict(self) -> dict:
        return {
            "beta_hat": self.beta_hat.tolist(),
            "objective": self.objective,
            "support": list(self.support),
            "iterations": self.iterations,
            "converged": self.converged,
            "feasible": self.feasible,
            "info": dict(self.info),
        }


def _require_finite(**arrays: np.ndarray) -> None:
    """Raise ParameterError naming the first argument with a NaN or inf entry."""
    for name, a in arrays.items():
        if not np.all(np.isfinite(a)):
            raise ParameterError(f"{name} has non-finite entries")


def _lipschitz(X: np.ndarray) -> tuple:
    """(L, steps): an upper bound L on sigma_max(X)^2 and the Lanczos steps it took.

    Lanczos with full reorthogonalisation on the smaller of X^T X and X X^T,
    touching X only through matrix-vector products, from a seeded Gaussian
    start.  With (theta, u) the top Ritz pair, beta the next Lanczos
    coefficient, rho = beta |u_last| = ||A u - theta u|| and
    slack = rho + (n + d) eps theta (the products' round-off), it returns
    L = theta + slack at the first step where slack <= 1e-6 theta and theta
    has settled: it rose by at most slack over the last two steps, or
    beta <= (n + d) eps theta, so the Krylov space is invariant (X = c I after
    one step).  After min(n, d) steps the Krylov space is the whole space and
    it stops regardless.  Ritz values never exceed lambda_max and some
    eigenvalue lies within rho of theta, but not necessarily the top one: a
    Ritz value between two eigenvalues closer than rho has a small residual
    too, and while the Krylov space holds little of the top eigenvector theta
    can stall for a step near a lower eigenvalue, hence the two-step rule.
    So L <= (1 + 1e-6) sigma_max^2, and sigma_max^2 <= L unless the start is
    numerically orthogonal to the top eigenvector or theta stalls for two
    steps; the latter was seen only when the top eigenvalues cluster within
    1e-5 relative, and L then fell short by less than the cluster's width.
    X = 0 gives (0.0, 1).
    """
    n, d = X.shape
    m = min(n, d)
    gram = (lambda v: X.T @ (X @ v)) if n >= d else (lambda v: X @ (X.T @ v))
    round_off = (n + d) * np.finfo(float).eps
    start = np.random.default_rng(0).standard_normal(m)
    basis = [start / np.linalg.norm(start)]
    alphas, betas = [], []
    tops = [-math.inf, -math.inf]  # top Ritz value after each step
    for step in range(1, m + 1):
        w = gram(basis[-1])
        alphas.append(float(basis[-1] @ w))
        V = np.array(basis)
        w -= V.T @ (V @ w)
        w -= V.T @ (V @ w)  # a second pass restores orthogonality lost to round-off
        beta = float(np.linalg.norm(w))
        theta, u = eigh_tridiagonal(np.array(alphas), np.array(betas),
                                    select="i", select_range=(step - 1, step - 1))
        theta = float(theta[0])
        slack = beta * abs(float(u[-1, 0])) + round_off * theta
        settled = theta - tops[-2] <= slack or beta <= round_off * theta
        if (slack <= 1e-6 * theta and settled) or step == m:
            break
        tops.append(theta)
        betas.append(beta)
        basis.append(w / beta)
    return theta + slack, step


# ---------------------------------------------------------------------------
# exact l0 least squares
# ---------------------------------------------------------------------------


def _scalar_identity_factor(X: np.ndarray) -> Optional[float]:
    """c such that X == c * I with c finite and nonzero, or None."""
    n, d = X.shape
    if n != d:
        return None
    diag = np.diagonal(X)
    c = diag[0]
    if c == 0.0 or not math.isfinite(c) or not np.all(diag == c):
        return None
    if np.count_nonzero(X) != n:
        return None
    return float(c)


def _l0_identity(X: np.ndarray, y: np.ndarray, s: int, c: float) -> EstimateResult:
    # for X = c*I the global optimum keeps the s largest |y_i|; lexsort's
    # secondary index key gives the lexicographically smallest tied support
    d = len(y)
    order = np.lexsort((np.arange(d), -np.abs(y)))
    support = np.sort(order[:s])
    beta = np.zeros(d)
    beta[support] = y[support] / c
    resid = y.copy()
    resid[support] = 0.0
    return EstimateResult(
        beta_hat=beta,
        objective=float(resid @ resid),
        iterations=1,
        converged=True,
        feasible=True,
        info={"method": "l0_identity"},
    )


def l0_least_squares(X: np.ndarray, y: np.ndarray, s: int) -> EstimateResult:
    """Exact least squares over the l0-ball: min ||y - X b||_2^2 s.t. ||b||_0 <= s.

    Enumerates every size-s support in lexicographic order and solves the
    normal equations on each; a support whose Gram block is exactly
    singular, or whose solve is not trustworthy, is redone by minimum-norm
    lstsq with a 1e-12 relative cutoff.  Ties go to the lexicographically
    smallest support.  Scalar multiples of the identity take an exact
    top-s shortcut instead, which makes sequence-model sizes feasible.
    Non-finite entries in X or y raise ParameterError.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if y.shape != (n,):
        raise DimensionError(f"y has shape {y.shape}, expected ({n},)")
    if not 1 <= s <= d:
        raise ParameterError(f"need 1 <= s <= d, got s={s}, d={d}")
    _require_finite(y=y)

    c = _scalar_identity_factor(X)
    if c is not None:
        return _l0_identity(X, y, s, c)

    n_supports = math.comb(d, s)
    check_budget(n_supports)
    with np.errstate(invalid="ignore", over="ignore"):
        gram = X.T @ X
        corr = X.T @ y
    # a non-finite entry of X reaches its column's diagonal Gram entry
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(corr))):
        raise ParameterError("X^T X is not finite: X has non-finite or overflowing entries")
    yy = float(y @ y)

    best_obj = math.inf
    best_support: Optional[np.ndarray] = None
    for chunk in support_chunks(d, s, per_support=s * s):
        resid = _chunk_residuals(X, y, gram, corr, yy, chunk)
        k = int(np.argmin(resid))
        if resid[k] < best_obj:
            best_obj = float(resid[k])
            best_support = chunk[k]

    b, *_ = np.linalg.lstsq(X[:, best_support], y, rcond=1e-12)
    beta = np.zeros(d)
    beta[best_support] = b
    r = y - X[:, best_support] @ b
    return EstimateResult(
        beta_hat=beta,
        objective=float(r @ r),
        iterations=n_supports,
        converged=True,
        feasible=True,
        info={"method": "l0_enumeration", "n_supports": n_supports},
    )


def _chunk_residuals(X, y, gram, corr, yy, supports) -> np.ndarray:
    """Residual ||y - X_S b_S||^2 for every support row, via the Gram matrix.

    Supports whose block is exactly singular, whose solution is not finite
    or whose residual fails the cancellation guard are redone with lstsq.
    """
    d = gram.shape[0]
    g_ss = np.take(gram, supports[:, :, None] * d + supports[:, None, :])
    c_s = corr[supports]
    try:
        sol = np.linalg.solve(g_ss, c_s[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # the blocks are symmetric, so slogdet's LU is solve's: sign 0 marks a zero pivot
        regular = np.linalg.slogdet(g_ss)[0] != 0.0
        sol = np.full_like(c_s, np.nan)
        sol[regular] = np.linalg.solve(g_ss[regular], c_s[regular, :, None])[..., 0]
    resid = yy - np.einsum("ms,ms->m", c_s, sol)
    trusted = np.all(np.isfinite(sol), axis=1) & (resid >= -1e-8 * max(yy, 1.0))
    for i in np.flatnonzero(~trusted):
        sup = supports[i]
        b, *_ = np.linalg.lstsq(X[:, sup], y, rcond=1e-12)
        r = y - X[:, sup] @ b
        resid[i] = r @ r
    return np.maximum(resid, 0.0)


# ---------------------------------------------------------------------------
# l1-constrained least squares (projected gradient, certified)
# ---------------------------------------------------------------------------


def l1_constrained_ls(
    X: np.ndarray,
    y: np.ndarray,
    r1: float,
    max_iter: int = 20_000,
    tol: float = 1e-8,
    record_trace: bool = False,
) -> EstimateResult:
    """Projected gradient for min ||y - X b||_2^2 subject to ||b||_1 <= r1.

    Steps 1/L along the gradient X^T (X b - y) of half the objective, with
    sigma_max(X)^2 <= L <= (1 + 1e-6) sigma_max(X)^2 from Lanczos.  That
    gradient is sigma_max^2-Lipschitz, and a projected-gradient step onto a
    convex set never raises the objective when it is at most
    2 / sigma_max^2, so the objective never increases.  Convergence is
    certified by the Frank-Wolfe duality gap of the full objective: at exit
    with converged=True the objective is within tol of the constrained
    optimum.  info holds the gap, L ("lipschitz") and the Lanczos steps
    ("lipschitz_steps").
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if r1 <= 0:
        raise ParameterError(f"r1 must be positive, got {r1}")
    _require_finite(X=X, y=y)
    lip, lip_steps = _lipschitz(X)
    beta = np.zeros(X.shape[1])
    trace = []
    converged = False
    gap = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        r = X @ beta - y
        if record_trace:
            trace.append(float(r @ r))
        grad_half = X.T @ r
        grad = 2.0 * grad_half
        gap = float(grad @ beta + r1 * np.max(np.abs(grad)))
        if gap <= tol:
            converged = True
            break
        if lip == 0.0:
            break
        beta = project_l1(beta - grad_half / lip, r1)
    r = y - X @ beta
    obj = float(r @ r)
    if record_trace:
        trace.append(obj)
    info = {"duality_gap": gap, "lipschitz": lip, "lipschitz_steps": lip_steps}
    if record_trace:
        info["objective_trace"] = trace
    return EstimateResult(
        beta_hat=beta,
        objective=obj,
        iterations=it,
        converged=converged,
        feasible=ball_contains(BallSpec(q=1.0, radius=r1), beta, tol=1e-8),
        info=info,
    )


# ---------------------------------------------------------------------------
# lq-constrained least squares (heuristic, q in (0,1))
# ---------------------------------------------------------------------------


def lq_constrained_ls(
    X: np.ndarray,
    y: np.ndarray,
    ball: BallSpec,
    starts: Sequence[np.ndarray],
    max_iter: int = 2_000,
    tol: float = 1e-9,
) -> EstimateResult:
    """Multi-start projected gradient over the nonconvex ball, q in (0, 1).

    Steps 1/L with L the Lanczos bound on sigma_max(X)^2 that
    ``l1_constrained_ls`` uses, reported with its step count in info.  The
    projection is a heuristic onto a nonconvex set, so a step may raise the
    objective; the solver keeps the best feasible iterate ever visited,
    including the projected starts themselves, so supplying the truth as an
    oracle warm start guarantees an objective no worse than at the truth.
    The converged flag only reports stationarity of the last run; no global
    claim is made.
    """
    if not 0.0 < ball.q < 1.0:
        raise ParameterError(f"lq solver requires q in (0, 1), got {ball.q}")
    if len(starts) == 0:
        raise ParameterError("need at least one start")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_finite(X=X, y=y)
    lip, lip_steps = _lipschitz(X)
    step = 1.0 / lip if lip > 0 else 1.0

    best_beta: Optional[np.ndarray] = None
    best_obj = math.inf
    total_iters = 0
    any_stationary = False

    def consider(b: np.ndarray) -> float:
        nonlocal best_beta, best_obj
        r = y - X @ b
        obj = float(r @ r)
        if obj < best_obj:
            best_obj, best_beta = obj, b.copy()
        return obj

    for raw in starts:
        beta = project_lq_heuristic(np.asarray(raw, dtype=float), ball)
        consider(beta)
        for _ in range(max_iter):
            total_iters += 1
            grad_half = X.T @ (X @ beta - y)
            nxt = project_lq_heuristic(beta - step * grad_half, ball)
            consider(nxt)
            if np.max(np.abs(nxt - beta)) <= tol:
                any_stationary = True
                beta = nxt
                break
            beta = nxt

    return EstimateResult(
        beta_hat=best_beta,
        objective=best_obj,
        iterations=total_iters,
        converged=any_stationary,
        feasible=ball_contains(ball, best_beta, tol=1e-8),
        info={"n_starts": len(starts), "lipschitz": lip, "lipschitz_steps": lip_steps},
    )


# ---------------------------------------------------------------------------
# lasso
# ---------------------------------------------------------------------------


def _soft(x: float, t: float) -> float:
    return math.copysign(max(abs(x) - t, 0.0), x)


def lasso(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    max_iter: int = 10_000,
    tol: float = 1e-10,
) -> EstimateResult:
    """Cyclic coordinate descent for (1/2n)||y - X b||_2^2 + lam ||b||_1.

    Runs pathwise: a geometric ladder of penalties from lam_max down to the
    target, warm-starting each stage (cold starts crawl along flat
    interpolation valleys on underdetermined designs when lam is tiny).
    Each stage, including the final one at exactly ``lam``, exits when the
    largest coordinate change in a sweep is <= tol.  Columns that are
    identically zero are skipped and flagged in info; the KKT residual of
    the final iterate is reported.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if lam < 0:
        raise ParameterError(f"lambda must be nonnegative, got {lam}")
    _require_finite(X=X, y=y)
    n, d = X.shape
    col_sq = np.einsum("ij,ij->j", X, X) / n
    skipped = np.flatnonzero(col_sq == 0.0)
    beta = np.zeros(d)
    resid = y.copy()

    lam_max = float(np.abs(X.T @ y).max()) / n if d else 0.0
    if lam < lam_max:
        ladder = list(np.geomspace(lam_max, max(lam, lam_max * 1e-10), LASSO_PATH_STEPS))
        if ladder[-1] != lam:
            ladder.append(lam)
    else:
        ladder = [lam]

    converged = False
    total_sweeps = 0
    for stage_lam in ladder:
        converged = False
        for _ in range(max_iter):
            total_sweeps += 1
            max_change = 0.0
            for j in range(d):
                if col_sq[j] == 0.0:
                    continue
                old = beta[j]
                rho = float(X[:, j] @ resid) / n + col_sq[j] * old
                new = _soft(rho, stage_lam) / col_sq[j]
                if new != old:
                    resid += X[:, j] * (old - new)
                    beta[j] = new
                    max_change = max(max_change, abs(new - old))
            if max_change <= tol:
                converged = True
                break

    resid = y - X @ beta  # refresh: the sweep updates accumulate roundoff
    grad = X.T @ resid / n
    active = col_sq != 0.0
    g, b = grad[active], beta[active]
    kkt = np.where(b == 0.0, np.abs(g) - lam, np.abs(g - lam * np.sign(b)))
    obj = float(resid @ resid)
    return EstimateResult(
        beta_hat=beta,
        objective=obj,
        iterations=total_sweeps,
        converged=converged,
        feasible=True,
        info={
            "kkt_residual": float(kkt.max(initial=0.0)),
            "penalized_objective": obj / (2 * n) + lam * float(np.abs(beta).sum()),
            "skipped_columns": skipped.tolist(),
        },
    )


# ---------------------------------------------------------------------------
# the basic inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasicInequalityCheck:
    objective_ok: bool
    eqn_basic_ok: bool
    lhs: float
    rhs: float


def check_basic_inequality(instance: ProblemInstance, result: EstimateResult) -> BasicInequalityCheck:
    """Verify estimator non-inferiority at the truth and its consequence.

    objective_ok: ||y - X bhat||^2 <= ||y - X b*||^2 + 1e-8.  eqn_basic_ok:
    ||X delta||^2 / n <= 2 |w^T X delta| / n + 1e-8, with w = y - X b*,
    which follows algebraically whenever objective_ok holds.
    """
    X, y = instance.X, instance.y
    w = y - X @ instance.beta_star
    r_hat = y - X @ result.beta_hat
    objective_ok = float(r_hat @ r_hat) <= float(w @ w) + 1e-8
    delta = result.beta_hat - instance.beta_star
    xd = X @ delta
    n = X.shape[0]
    lhs = float(xd @ xd) / n
    rhs = 2.0 * abs(float(w @ xd)) / n
    return BasicInequalityCheck(
        objective_ok=objective_ok,
        eqn_basic_ok=lhs <= rhs + 1e-8,
        lhs=lhs,
        rhs=rhs,
    )
