"""Constrained least-squares estimators over lq-balls, plus the Lasso.

q = 0 is solved exactly by support enumeration, q = 1 by monotone FISTA
(Beck & Teboulle 2009, IEEE Trans. Image Process. 18) with gradient-based
adaptive restart (O'Donoghue & Candes 2015, Found. Comput. Math. 15),
certified by the Frank-Wolfe duality gap, q in (0, 1) by multi-start
projected gradient with a feasibility heuristic (no global guarantee; use an
oracle warm start in simulations), and the Lasso by cyclic coordinate
descent.  The l1 and lq solvers step 1/L, where L is a Lanczos upper bound on
sigma_max(X)^2 within a factor 1 + 1e-6 of it (``_lipschitz`` says when it
can fall short).  When n >= d they form G = X^T X and c = X^T y once per
call, d^2 + d floats on top of X, and take every gradient and Lanczos product
from them at d^2 flops; when n < d they use products with X.  The l1 solver
takes one such product per iteration and keeps a momentum step only if it
does not raise the objective (see ``l1_constrained_ls``).

``_PARAMETER_RULES`` names each estimator parameter's rule in
``errors.SCALAR_RULES``; the solvers and ``ExperimentConfig`` both check
through it, and l0's s <= d through ``_check_s_fits``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dstebz, dstein

from .ballgeom import ball_contains, project_l1, project_lq_heuristic
from .errors import ParameterError, require_finite, require_rows, require_scalars
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


# estimator key (the l1 solver's r1 is "radius") -> its rule in errors.SCALAR_RULES
_PARAMETER_RULES = {"s": "count", "radius": "positive", "lam": "nonnegative",
                    "max_iter": "count", "tol": "nonnegative"}


def _check_s_fits(s: int, d: int, at: str = "") -> None:
    """Raise ParameterError unless l0's budget s is at most d; ``at`` names the grid point."""
    if s > d:
        raise ParameterError(f"'s' must be at most d, got s={s}, d={d}{at}")


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


def _lipschitz(apply: Callable, m: int, round_off: float) -> tuple:
    """(L, steps): an upper bound L on the top eigenvalue of an m x m symmetric
    PSD operator, given by its product ``apply``, and the Lanczos steps it took.

    Lanczos with full reorthogonalisation from a seeded Gaussian start.  With
    (theta, u) the top Ritz pair, beta the next Lanczos coefficient,
    rho = beta |u_last| = ||A u - theta u|| and slack = rho + round_off theta
    (``round_off`` covers the rounding of one product), it returns
    L = theta + slack at the first step where slack <= 1e-6 theta and theta
    has settled: it rose by at most slack over the last two steps, or
    beta <= round_off theta, so the Krylov space is invariant (a multiple of
    I after one step).  After m steps the Krylov space is the whole space and
    it stops regardless.  Ritz values never exceed lambda_max and some
    eigenvalue lies within rho of theta, but not necessarily the top one: a
    Ritz value between two eigenvalues closer than rho has a small residual
    too, and while the Krylov space holds little of the top eigenvector theta
    can stall for a step near a lower eigenvalue, hence the two-step rule.
    So L <= (1 + 1e-6) lambda_max, and lambda_max <= L unless the start is
    numerically orthogonal to the top eigenvector or theta stalls for two
    steps; the latter was seen only when the top eigenvalues cluster within
    1e-5 relative, and L then fell short by less than the cluster's width.
    The zero operator gives (0.0, 1).

    The basis lives in one array of 64 rows, doubled when full (never more
    than m), and the top Ritz pair comes from the LAPACK bisection and
    inverse iteration (dstebz, dstein) that ``eigh_tridiagonal`` runs for one
    eigenvalue by index, called without its per-call checks.
    """
    start = np.random.default_rng(0).standard_normal(m)
    basis = np.empty((min(m, 64), m))
    basis[0] = start / np.linalg.norm(start)
    alphas, betas = np.empty(m), np.empty(m)
    tops = [-math.inf, -math.inf]  # top Ritz value after each step
    for step in range(1, m + 1):
        w = apply(basis[step - 1])
        alphas[step - 1] = basis[step - 1] @ w
        V = basis[:step]
        w -= V.T @ (V @ w)
        w -= V.T @ (V @ w)  # a second pass restores orthogonality lost to round-off
        beta = float(np.linalg.norm(w))
        theta, u_last = _top_ritz_pair(alphas[:step], betas[:step - 1])
        slack = beta * abs(u_last) + round_off * theta
        settled = theta - tops[-2] <= slack or beta <= round_off * theta
        if (slack <= 1e-6 * theta and settled) or step == m:
            break
        tops.append(theta)
        betas[step - 1] = beta
        if step == len(basis):
            basis = np.concatenate([basis, np.empty((min(m, 2 * step) - step, m))])
        basis[step] = w / beta
    return theta + slack, step


def _top_ritz_pair(alphas: np.ndarray, betas: np.ndarray) -> tuple:
    """(theta, u_last): the top eigenvalue of the symmetric tridiagonal matrix
    with diagonal ``alphas`` and off-diagonal ``betas``, and the last entry of
    its unit eigenvector, as ``eigh_tridiagonal(select="i")`` computes them.
    Earlier calls saw all but the last entries, so only those are checked."""
    k = len(alphas)
    if not math.isfinite(alphas[-1] + (betas[-1] if k > 1 else 0.0)):
        raise ParameterError("Lanczos coefficients are not finite: X has overflowing entries")
    if k == 1:
        return float(alphas[0]), 1.0
    _, w, iblock, isplit, info = dstebz(alphas, betas, 2, 0.0, 1.0, k, k, 0.0, "B")
    if info == 0:
        u, info = dstein(alphas, betas, w[:1], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal eigensolver failed (info={info})")
    return float(w[0]), float(u[-1, 0])


def _least_squares_gradient(X: np.ndarray, y: np.ndarray) -> tuple:
    """(half_gradient, L, steps) for the objective f(b) = ||y - X b||^2:
    half_gradient(b) is the pair (X^T (X b - y), f(b)) from one operator
    product, and L the ``_lipschitz`` bound on sigma_max(X)^2.

    When n >= d, G = X^T X and c = X^T y are formed once, the gradient is
    g = G b - c, f(b) = b.g - c.b + y.y, and Lanczos runs on G; its round-off
    pad (2n + d) eps also covers the rounding of G.  When n < d the residual
    r = X b - y gives both X^T r and r.r, and Lanczos runs on X X^T with pad
    (n + d) eps.
    """
    n, d = X.shape
    eps = np.finfo(float).eps
    if n >= d:
        G, c, yy = X.T @ X, X.T @ y, float(y @ y)

        def gram_form(b):
            g = G @ b - c
            return g, float(b @ g - c @ b) + yy

        return gram_form, *_lipschitz(G.__matmul__, d, (2 * n + d) * eps)

    def x_form(b):
        r = X @ b - y
        return X.T @ r, float(r @ r)

    return x_form, *_lipschitz(lambda v: X @ (X.T @ v), n, (n + d) * eps)


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

    Scores every size-s support, in lexicographic order, from the Gram
    matrix.  Supports are grouped by their first s - 1 entries, the prefix
    P: the Cholesky rows W = L_P^{-1} G[P, :] and z = L_P^{-1} c_P of a
    prefix are built once, and every completion j > max(P) is scored at
    once by the Schur complement

        RSS(P + j) = (y^T y - ||z||^2) - (c_j - W_j . z)^2 / (G_jj - ||W_j||^2).

    A support is redone by lstsq (``_unit_lstsq``) when some pivot of its
    factor, prefix pivots included, is not both finite and above 1e-12
    times its column's diagonal Gram entry (zero or duplicated columns), or
    when its residual falls below -1e-8 max(y^T y, 1) (cancellation);
    info["lstsq_supports"] counts them.  Supports whose residuals come out
    equal go to the lexicographically smallest; that settles a tie only when
    the tied residuals are computed through identical arithmetic, as for
    exactly duplicated columns.  A column and a scaled copy of it (-3x,
    1e-3x) tie only mathematically, and round-off orders those supports.
    The winner is refitted by lstsq with a 1e-12 relative cutoff, and by
    ``_unit_lstsq`` if that cutoff drops a direction: the scores, like
    ``_unit_lstsq``, do not depend on column scale.  Scalar multiples of
    the identity take an exact top-s shortcut instead, which makes
    sequence-model sizes feasible.  Non-finite entries in X or y raise
    ParameterError; an X that is not 2-D or a y not of shape (n,) raises
    DimensionError.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    require_rows(X, y=y)
    n, d = X.shape
    require_scalars(_PARAMETER_RULES["s"], s=s)
    _check_s_fits(s, d)
    require_finite(y=y)

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

    # prefixes end before column d - 1, so each has a completion
    prefix_chunks = (support_chunks(d - 1, s - 1, per_support=(s - 1) * d) if s > 1
                     else [np.zeros((1, 0), dtype=np.intp)])
    best_obj = math.inf
    best_support: Optional[np.ndarray] = None
    n_lstsq = 0
    for chunk in prefix_chunks:
        resid, redone = _completion_residuals(X, y, gram, corr, yy, chunk)
        n_lstsq += redone
        i, j = divmod(int(np.argmin(resid)), d)
        if resid[i, j] < best_obj:
            best_obj = float(resid[i, j])
            best_support = np.append(chunk[i], j)

    X_S = X[:, best_support]
    b, _, rank, _ = np.linalg.lstsq(X_S, y, rcond=1e-12)
    if rank < s:
        b = _unit_lstsq(X_S, y)[0]
    beta = np.zeros(d)
    beta[best_support] = b
    r = y - X_S @ b
    return EstimateResult(
        beta_hat=beta,
        objective=float(r @ r),
        iterations=n_supports,
        converged=True,
        feasible=True,
        info={"method": "l0_enumeration", "n_supports": n_supports,
              "lstsq_supports": n_lstsq},
    )


def _completion_residuals(X, y, gram, corr, yy, prefixes) -> tuple[np.ndarray, int]:
    """(resid, redone): resid[i, j] = ||y - X_S b_S||^2 for S = prefixes[i] + (j,).

    Entries with j <= max(prefixes[i]) are inf, so a row-major argmin walks
    the supports in lexicographic order.  Untrusted supports (see
    ``l0_least_squares``) are redone with lstsq; ``redone`` counts them.
    Every (m, d) array is written in place: fresh pages, not flops, bound
    this pass.
    """
    m, k = prefixes.shape
    d = gram.shape[0]
    diag = np.diagonal(gram)
    rows = np.arange(m)
    W = np.empty((k, m, d))  # W[i] = row i of L_P^{-1} G[P, :], per prefix
    z = np.empty((k, m))  # z[i] = entry i of L_P^{-1} c_P
    pivots = np.empty((m, d))
    resid = np.empty((m, d))
    trusted = np.ones(m, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(k):
            p = prefixes[:, i]
            wp = W[:i, rows, p]
            pivot = diag[p] - np.einsum("lm,lm->m", wp, wp)
            trusted &= pivot > 1e-12 * diag[p]
            root = np.sqrt(pivot)
            z[i] = (corr[p] - np.einsum("lm,lm->m", wp, z[:i])) / root
            np.einsum("lm,lmd->md", wp, W[:i], out=resid)  # resid is free until the end
            np.take(gram, p, axis=0, out=W[i], mode="clip")  # "raise" would buffer out
            W[i] -= resid
            W[i] /= root[:, None]
        np.subtract(diag, np.einsum("kmd,kmd->md", W, W, out=pivots), out=pivots)
        np.subtract(corr, np.einsum("km,kmd->md", z, W, out=resid), out=resid)
        resid *= resid
        resid /= pivots
        np.subtract((yy - np.einsum("km,km->m", z, z))[:, None], resid, out=resid)
        trusted = trusted[:, None] & (pivots > 1e-12 * diag)
        trusted &= resid >= -1e-8 * max(yy, 1.0)
    later = np.arange(d) > (prefixes[:, -1:] if k else np.full((m, 1), -1))
    redo = np.argwhere(later & ~trusted)
    for i, j in redo:
        resid[i, j] = _unit_lstsq(X[:, np.append(prefixes[i], j)], y)[1]
    resid[~later] = math.inf
    return np.maximum(resid, 0.0, out=resid), len(redo)


def _unit_lstsq(X_S: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """(b, ||y - X_S b||^2): minimum-norm least squares in units of unit-norm
    columns, with a 1e-12 relative cutoff, so the cutoff judges dependence
    between columns, not their scale (zero columns get coefficient 0)."""
    scale = np.linalg.norm(X_S, axis=0)
    scale[scale == 0.0] = 1.0
    b = np.linalg.lstsq(X_S / scale, y, rcond=1e-12)[0] / scale
    r = y - X_S @ b
    return b, float(r @ r)


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
    """Monotone FISTA for min f(b) = ||y - X b||_2^2 subject to ||b||_1 <= r1.

    Projected steps of size 1/L along the gradient g = X^T (X b - y) of f / 2,
    with sigma_max(X)^2 <= L <= (1 + 1e-6) sigma_max(X)^2 from Lanczos, taken
    from the FISTA extrapolation v = x_k + m (x_k - x_{k-1}) of the kept
    iterates (Beck & Teboulle 2009, IEEE Trans. Image Process. 18).  Each
    iteration takes exactly one operator product, at the candidate
    z = P(v - g(v) / L): g is affine, so g(v) = g_k + m (g_k - g_{k-1}) needs
    none, and the product at z gives g(z) and f(z) together.  The candidate
    is kept only if f(z) <= f(x_k), up to a tie band of (n + d) eps f(0), the
    round-off of evaluating f; otherwise the momentum is reset and the next
    iteration is a plain projected step from x_k, always kept, since a step
    of at most 2 / sigma_max^2 onto a convex set cannot raise f.  The
    momentum is also reset when (v - z).(z - x_k) > 0, the gradient restart
    of O'Donoghue & Candes (2015, Found. Comput. Math. 15).  So no kept step
    raises f by more than the tie band.  Convergence is certified by the Frank-Wolfe
    duality gap at the kept iterate, from its own exact gradient: at exit
    with converged=True the objective is within tol of the constrained
    optimum.  info holds the gap, L ("lipschitz"), the Lanczos steps
    ("lipschitz_steps") and the momentum resets ("restarts").

    When n >= d the gradient is G b - c from G = X^T X and c = X^T y,
    formed once per call (d^2 + d floats), f(b) = b.g - c.b + y.y, and
    Lanczos runs on G; when n < d the residual X b - y gives both.  The
    objective reported, and the trace of it that ``record_trace`` keeps, is
    ||y - X b||^2 from X either way.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    require_scalars(_PARAMETER_RULES["radius"], radius=r1)
    require_scalars(_PARAMETER_RULES["max_iter"], max_iter=max_iter)
    require_scalars(_PARAMETER_RULES["tol"], tol=tol)
    require_rows(X, y=y)
    require_finite(X=X, y=y)
    half_gradient, lip, lip_steps = _least_squares_gradient(X, y)
    beta = beta_prev = np.zeros(X.shape[1])
    g, f = half_gradient(beta)
    g_prev = g
    # a rise below the round-off of evaluating f (which stays below f(0) = y.y) is a tie
    tie = sum(X.shape) * np.finfo(float).eps * f
    t = 1.0  # FISTA's momentum sequence; 1 means no momentum
    restarts = 0
    trace = []
    converged = False
    for it in range(1, max_iter + 1):  # max_iter >= 1, so gap and it are always bound
        if record_trace:
            r = X @ beta - y
            trace.append(float(r @ r))
        grad = 2.0 * g
        gap = float(grad @ beta + r1 * np.max(np.abs(grad)))
        if gap <= tol:
            converged = True
            break
        if lip == 0.0:
            break
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        m = (t - 1.0) / t_next
        # the half gradient is affine, so at the extrapolated point v it is g + m (g - g_prev)
        v = beta + m * (beta - beta_prev)
        z = project_l1(v - (g + m * (g - g_prev)) / lip, r1)
        g_z, f_z = half_gradient(z)
        if m > 0.0 and f_z > f + tie:
            t = 1.0  # rejected: the next iteration is a plain step from beta
            restarts += 1
            continue
        if (v - z) @ (z - beta) > 0.0:
            t = 1.0  # gradient restart: the step turned against the momentum
            restarts += 1
        else:
            t = t_next
        beta_prev, g_prev = beta, g
        beta, g, f = z, g_z, f_z
    r = y - X @ beta
    obj = float(r @ r)
    info = {"duality_gap": gap, "lipschitz": lip, "lipschitz_steps": lip_steps,
            "restarts": restarts}
    if record_trace:
        info["objective_trace"] = trace + [obj]
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
    ``l1_constrained_ls`` uses, reported with its step count in info; like
    it, takes gradients from G = X^T X and c = X^T y (d^2 + d floats) when
    n >= d and from X otherwise, and scores iterates by the f(b) = ||y - X b||^2
    its gradient product gives.  The projection is a heuristic onto a nonconvex
    set, so a step may raise the objective; the solver keeps the best feasible
    iterate ever visited, including the projected starts, so the truth as an
    oracle warm start guarantees an objective no worse than at the truth, up to rounding.
    The converged flag only reports stationarity of the last run; no global
    claim is made.  A start not of shape (d,) raises DimensionError, and one
    with a non-finite entry ParameterError.
    """
    if not 0.0 < ball.q < 1.0:
        raise ParameterError(f"lq solver requires q in (0, 1), got {ball.q}")
    if len(starts) == 0:
        raise ParameterError("need at least one start")
    require_scalars(_PARAMETER_RULES["max_iter"], max_iter=max_iter)
    require_scalars(_PARAMETER_RULES["tol"], tol=tol)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    require_rows(X, y=y)
    require_finite(X=X, y=y)
    starts = {f"start {i}": np.asarray(raw, dtype=float) for i, raw in enumerate(starts)}
    require_rows(X.T, **starts)  # X^T has d rows, so each start must have shape (d,)
    require_finite(**starts)
    half_gradient, lip, lip_steps = _least_squares_gradient(X, y)
    step = 1.0 / lip if lip > 0 else 1.0

    best_beta: Optional[np.ndarray] = None
    best_f = math.inf
    total_iters = 0
    any_stationary = False

    def consider(b: np.ndarray) -> np.ndarray:
        """The half gradient at b, keeping b if its objective f(b) is the best yet."""
        nonlocal best_beta, best_f
        g, f = half_gradient(b)
        if f < best_f:
            best_f, best_beta = f, b.copy()
        return g

    for start in starts.values():
        beta = project_lq_heuristic(start, ball)
        g = consider(beta)
        for _ in range(max_iter):
            total_iters += 1
            nxt = project_lq_heuristic(beta - step * g, ball)
            g = consider(nxt)
            if np.max(np.abs(nxt - beta)) <= tol:
                any_stationary = True
                break
            beta = nxt

    r = y - X @ best_beta
    return EstimateResult(
        beta_hat=best_beta,
        objective=float(r @ r),
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
    require_scalars(_PARAMETER_RULES["lam"], lam=lam)
    require_scalars(_PARAMETER_RULES["max_iter"], max_iter=max_iter)
    require_scalars(_PARAMETER_RULES["tol"], tol=tol)
    require_rows(X, y=y)
    require_finite(X=X, y=y)
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
