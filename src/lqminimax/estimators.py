"""Constrained least-squares estimators over lq-balls, plus the Lasso.

q = 0 is solved exactly by support enumeration, pruned by leaps and bounds
when the design allows; q in (0, 1) by multi-start projected gradient with
a feasibility heuristic (no global guarantee; use an oracle warm start in
simulations).  q = 1 and the Lasso share one loop,
``_fista``: monotone FISTA (Beck & Teboulle 2009, IEEE Trans. Image Process.
18) with gradient-based adaptive restart (O'Donoghue & Candes 2015, Found.
Comput. Math. 15), stepping by the projection onto the l1-ball or by the
soft-threshold, and stopped by the Frank-Wolfe duality gap or the KKT
residual.  These solvers step 1/L, where L is a Lanczos upper bound on
sigma_max(X)^2 within a factor 1 + 1e-6 of it (``_lipschitz`` says when it
can fall short).  When n >= d they form G = X^T X and c = X^T y once per
call, d^2 + d floats on top of X, and take every gradient and Lanczos product
from them at d^2 flops; when n < d they use products with X.  Like exact
l0, they load no scipy module: Lanczos takes its Ritz pairs from
``np.linalg.eigh``.

``_PARAMETER_RULES`` names each estimator parameter's rule in
``errors.SCALAR_RULES``; the solvers and ``ExperimentConfig`` both check
through it, and l0's s <= d through ``_check_s_fits``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .ballgeom import ball_contains, project_l1, project_lq_heuristic
from .errors import ParameterError, as_design, require_finite, require_rows, require_scalars
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

# estimator key (the l1 solver's r1 is "radius") -> its rule in errors.SCALAR_RULES
_PARAMETER_RULES = {"s": "count", "radius": "positive", "lam": "nonnegative",
                    "max_iter": "count", "tol": "nonnegative"}


def _check_inputs(X, y, **scalars) -> tuple:
    """``as_design(X, y=y)`` once each named parameter's rule is checked."""
    for name, value in scalars.items():
        require_scalars(_PARAMETER_RULES[name], **{name: value})
    return as_design(X, y=y)


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


_RITZ_EVERY = 4  # Lanczos steps between top Ritz pair computations


def _lipschitz(apply: Callable, m: int, round_off: float) -> tuple:
    """(L, steps): an upper bound L on the top eigenvalue of an m x m symmetric
    PSD operator, given by its product ``apply``, and the Lanczos steps it took.

    Lanczos with full reorthogonalisation from a seeded Gaussian start.  Every
    ``_RITZ_EVERY`` steps, at step m and at a breakdown (beta <= round_off
    times the largest alpha, so the Krylov space is invariant: a multiple of I
    after one step) it checks the top Ritz pair (theta, u) of the tridiagonal
    T.  With beta the next Lanczos coefficient, rho = beta |u_last| =
    ||A u - theta u|| and slack = rho + round_off theta (``round_off`` covers
    the rounding of one product), it returns L = theta + slack at the first
    check where slack <= 1e-6 theta and theta has settled: it rose by at most
    slack over the last two checks.  A breakdown or step m stops it
    regardless.  Ritz values never exceed lambda_max and some eigenvalue lies
    within rho of theta, but not necessarily the top one: a Ritz value between
    two eigenvalues closer than rho has a small residual too, and while the
    Krylov space holds little of the top eigenvector theta can stall near a
    lower eigenvalue, hence the two-check rule.  So L <= (1 + 1e-6) lambda_max,
    and lambda_max <= L unless the start is numerically orthogonal to the top
    eigenvector or theta stalls over two checks; the latter was seen only when
    the top eigenvalues cluster within 1e-5 relative, and L then fell short by
    less than the cluster's width.  The zero operator gives (0.0, 1).

    The basis lives in one array of 64 rows and T in one 64 x 64 array, both
    doubled when full (never more than m), and the top Ritz pair comes from
    ``np.linalg.eigh`` on T's leading block, so no scipy module is loaded.
    Non-finite coefficients raise ParameterError before they are divided by.
    """
    start = np.random.default_rng(0).standard_normal(m)
    basis = np.empty((min(m, 64), m))
    basis[0] = start / np.linalg.norm(start)
    T = np.zeros((len(basis), len(basis)))
    top_alpha = 0.0
    tops = [-math.inf, -math.inf]  # top Ritz value at each check
    for step in range(1, m + 1):
        w = apply(basis[step - 1])
        alpha = float(basis[step - 1] @ w)
        V = basis[:step]
        w -= V.T @ (V @ w)
        w -= V.T @ (V @ w)  # a second pass restores orthogonality lost to round-off
        beta = float(np.linalg.norm(w))
        if not math.isfinite(alpha + beta):
            raise ParameterError("Lanczos coefficients are not finite: X has overflowing entries")
        T[step - 1, step - 1] = alpha
        top_alpha = max(top_alpha, alpha)
        breakdown = beta <= round_off * top_alpha
        if step % _RITZ_EVERY == 0 or step == m or breakdown:
            values, vectors = np.linalg.eigh(T[:step, :step])
            theta = float(values[-1])
            slack = beta * abs(float(vectors[-1, -1])) + round_off * theta
            if (slack <= 1e-6 * theta and theta - tops[-2] <= slack) or breakdown or step == m:
                break
            tops.append(theta)
        if step == len(basis):
            size = min(m, 2 * step)
            basis = np.concatenate([basis, np.empty((size - step, m))])
            T = np.pad(T, (0, size - step))
        T[step, step - 1] = T[step - 1, step] = beta
        basis[step] = w / beta
    return float(theta + slack), step


def _least_squares_gradient(X: np.ndarray, y: np.ndarray, c: Optional[np.ndarray] = None) -> tuple:
    """(half_gradient, L, steps) for the objective f(b) = ||y - X b||^2:
    half_gradient(b) is the pair (X^T (X b - y), f(b)) from one operator
    product, and L the ``_lipschitz`` bound on sigma_max(X)^2.

    When n >= d, G = X^T X and c = X^T y (``c``, if the caller formed it) are
    formed once, the gradient is
    g = G b - c, f(b) = b.g - c.b + y.y, and Lanczos runs on G; its round-off
    pad (2n + d) eps also covers the rounding of G.  When n < d the residual
    r = X b - y gives both X^T r and r.r, and Lanczos runs on X X^T with pad
    (n + d) eps.
    """
    n, d = X.shape
    eps = np.finfo(float).eps
    if n >= d:
        G, c, yy = X.T @ X, X.T @ y if c is None else c, float(y @ y)

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


def l0_least_squares(X: np.ndarray, y: np.ndarray, s: int) -> EstimateResult:
    """Exact least squares over the l0-ball: min ||y - X b||_2^2 s.t. ||b||_0 <= s.

    Finds the best size-s support from G = X^T X and r = X^T y, whose
    entries for exactly equal columns are first made bit-equal
    (``_tie_duplicates``).  A support is a prefix P of s - 2 columns (empty
    when s <= 2) and a pair c < j after max(P); s = 1 scores single columns.
    For s >= 3 the columns are reordered and the prefixes whose leaps-and-
    bounds lower bound exceeds an incumbent are skipped, unless a test on
    the bound's factor sends the call to full enumeration in the original
    order (``_best_prefix_pair`` states the order, the bound, its margin and
    the test); info["scored_supports"] counts the supports scored, while
    info["n_supports"] and ``iterations`` stay C(d, s), the count the
    enumeration budget is checked on.  The
    Cholesky rows W = L_P^{-1} G[P, :] and z = L_P^{-1} r_P of a prefix are
    built once, and give for every column c the last pivot
    D_c = G_cc - ||W_c||^2, U_c = r_c - W_c . z and the residual
    V_c = (y^T y - ||z||^2) - U_c^2 / D_c of P + c.  Each pair is then
    scored in closed form by two Schur complement steps, as in leaps and
    bounds (Furnival & Wilson 1974, Technometrics 16):

        S = G_cj - W_c . W_j,  pivot = D_j - S^2 / D_c,
        RSS(P + c + j) = V_c - (U_j - (S / D_c) U_c)^2 / pivot,

    at most ``_PAIR_BLOCK`` supports a pass, in buffers allocated once per call.
    A support is redone by lstsq (``_unit_lstsq``) when some pivot of its
    factor, prefix pivots included, is not both finite and above 1e-12
    times its column's diagonal Gram entry (zero or duplicated columns), or
    when its residual falls below -1e-8 max(y^T y, 1) (cancellation);
    info["lstsq_supports"] counts them.  Supports whose residuals come out
    equal go to the lexicographically smallest, in the original column
    order whatever order they were scored in; that settles a tie only when
    the tied residuals are computed through identical arithmetic, as for
    exactly duplicated columns.  A column and a scaled copy of it (-3x,
    1e-3x) tie only mathematically, and round-off orders those supports.
    The winner is refitted by lstsq with a 1e-12 relative cutoff, and by
    ``_unit_lstsq`` if that cutoff drops a direction: the scores, like
    ``_unit_lstsq``, do not depend on column scale.  G, r and y^T y are
    divided by powers of two near the column norms and ||y||, exactly, so the
    scores stay in range wherever X^T X does (entries within about 1e+-154).
    Non-finite entries raise ParameterError (X's through G, saving the pass of
    ``errors.as_design``); an X not 2-D or a y not of shape (n,) DimensionError.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    require_rows(X, y=y)
    n, d = X.shape
    require_scalars(_PARAMETER_RULES["s"], s=s)
    _check_s_fits(s, d)
    require_finite(y=y)

    n_supports = math.comb(d, s)
    check_budget(n_supports)
    with np.errstate(invalid="ignore", over="ignore"):
        gram = X.T @ X
        corr = X.T @ y
    # a non-finite entry of X reaches its column's diagonal Gram entry
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(corr))):
        raise ParameterError("X^T X is not finite: X has non-finite or overflowing entries")
    _tie_duplicates(X, gram, corr)
    yy = float(y @ y)
    floor = -1e-8 * max(yy, 1.0)  # a residual below it is cancellation, not a fit
    col = np.frexp(np.diagonal(gram))[1] // 2  # 2^col_j ~ ||X_j|| and 2^y_exp ~ ||y||
    y_exp = int(np.frexp(yy)[1]) // 2
    np.ldexp(gram, -(col[:, None] + col), out=gram)
    np.ldexp(corr, -(col + y_exp), out=corr)
    yy, floor = math.ldexp(yy, -2 * y_exp), math.ldexp(floor, -2 * y_exp)

    def rss(S):  # the lstsq residual of support S on X and y, in those units
        return math.ldexp(_unit_lstsq(X[:, S], y)[1], -2 * y_exp)

    if s == 1:
        best_support, n_lstsq = _best_column(rss, gram, corr, yy, floor)
        n_scored = d
    else:
        best_support, n_lstsq, n_scored = _best_prefix_pair(rss, gram, corr, yy, s, floor)

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
              "scored_supports": n_scored, "lstsq_supports": n_lstsq},
    )


def _tie_duplicates(X, gram, corr) -> None:
    """Give every column of X that equals an earlier one that first copy's
    Gram row and column and X^T y entry, in place.  BLAS forms X^T X and
    X^T y in blocks that round differently, so equal columns can get entries
    that differ in the last bit, and the tie rule for duplicated columns
    needs them equal.  Candidate pairs are columns whose squared norms G_jj
    agree within 1e-8 relative, far looser than the rounding of an exact
    copy; ``np.array_equal`` confirms each."""
    diag = np.diagonal(gram).copy()
    ranked = np.sort(diag)
    if np.all(np.diff(ranked) > 1e-8 * ranked[1:]):
        return  # no two norms agree, the common case
    near = np.abs(diag[:, None] - diag) <= 1e-8 * np.maximum(diag[:, None], diag)
    copied = set()
    for i, j in zip(*np.nonzero(np.triu(near, 1))):  # row-major: i is the first copy
        if j not in copied and np.array_equal(X[:, i], X[:, j]):
            gram[j] = gram[i]
            gram[:, j] = gram[:, i]
            corr[j] = corr[i]
            copied.add(j)


_PAIR_BLOCK = 4096  # supports scored per pass; the pass's flat buffers stay in cache
_V, _D, _U = range(3)  # fields of P + c, for a prefix P and a column c; the rows W follow


def _prefix_fields(gram, corr, yy, prefixes, A) -> None:
    """Write the fields of P + c, for each prefix P (a row of ``prefixes``) and
    column c, into A[:, P, c]: V, D and U as ``l0_least_squares`` defines
    them (``corr`` is r = X^T y), and the Cholesky rows W in A[3:].
    D is NaN where a pivot of P + c is not both finite and above 1e-12 times
    its column's diagonal Gram entry, so every score that divides by it is
    NaN and fails the trust test.
    """
    m, k = prefixes.shape
    diag = np.diagonal(gram)
    rows = np.arange(m)
    V, D, U, W = A[_V], A[_D], A[_U], A[_U + 1:]
    z = np.empty((k, m))  # z[i] = entry i of L_P^{-1} r_P
    trusted = np.ones(m, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(k):
            p = prefixes[:, i]
            wp = W[:i, rows, p]
            pivot = diag[p] - np.einsum("lm,lm->m", wp, wp)
            trusted &= pivot > 1e-12 * diag[p]
            root = np.sqrt(pivot)
            z[i] = (corr[p] - np.einsum("lm,lm->m", wp, z[:i])) / root
            np.einsum("lm,lmd->md", wp, W[:i], out=V)  # V is free until the end
            np.take(gram, p, axis=0, out=W[i], mode="clip")  # "raise" would buffer out
            W[i] -= V
            W[i] /= root[:, None]
        np.subtract(diag, np.einsum("kmd,kmd->md", W, W, out=D), out=D)
        np.subtract(corr, np.einsum("km,kmd->md", z, W, out=U), out=U)
        D[~(trusted[:, None] & (D > 1e-12 * diag))] = np.nan
        np.multiply(U, U, out=V)
        V /= D
        np.subtract((yy - np.einsum("km,km->m", z, z))[:, None], V, out=V)


def _best_column(rss, gram, corr, yy, floor) -> tuple:
    """(support, redone) for s = 1: the column of least residual, from the
    fields of the empty prefix, after redoing by ``rss`` (lstsq) each column
    whose D is NaN or whose residual falls below ``floor``."""
    A = np.empty((3, 1, gram.shape[0]))
    _prefix_fields(gram, corr, yy, np.zeros((1, 0), dtype=np.intp), A)
    resid = A[_V, 0]
    redo = np.flatnonzero(~(resid >= floor))
    for j in redo:
        resid[j] = rss([j])
    return np.argmin(np.maximum(resid, 0.0, out=resid), keepdims=True), len(redo)


_BOUND_PIVOT = 1e-8  # least pivot^2 / diagonal the bound factor may have; below it, enumerate all


def _bound_factor(gram, corr, yy):
    """(order, factor, margin) for the pruned scan of ``_best_prefix_pair``, or
    None, which sends the call to full enumeration: ``order`` sorts the
    columns by |r_j| / sqrt(G_jj), ``factor`` is the lower Cholesky factor
    of the y-augmented Gram M in the reversed order, and ``margin`` the
    round-off margin that ``_best_prefix_pair`` argues for."""
    d = len(corr)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.abs(corr) / np.sqrt(np.diagonal(gram))
    order = np.argsort(-score, kind="stable")
    rev = order[::-1]
    M = np.empty((d + 1, d + 1))
    M[:d, :d] = gram[np.ix_(rev, rev)]
    M[d, :d] = corr[rev]  # np.linalg.cholesky reads the lower triangle only
    M[d, d] = yy
    scale = np.diagonal(M).copy()
    try:
        factor = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(invalid="ignore", over="ignore"):  # an infinite margin prunes nothing
        if not np.all(np.diagonal(factor) ** 2 >= _BOUND_PIVOT * scale):
            return None
        inverse = np.linalg.inv(factor) * np.sqrt(scale)  # H^{-1}, H = D^{-1/2} factor
        gamma = (d + 2) * np.finfo(float).eps
        margin = 2.0 * (d + 1) * gamma * yy * float(np.einsum("ij,ij->", inverse, inverse))
    return order, factor, margin


def _bound_tails(factor) -> np.ndarray:
    """tails[0][u, a] and tails[1][u, a]: the sums over c >= a of F_uc F_yc and
    of F_uc^2 for the reversed factor F of ``_bound_factor`` (y is F's last row);
    they depend on no prefix, so a call computes them once."""
    d = factor.shape[0] - 1
    with np.errstate(invalid="ignore", over="ignore"):
        return np.cumsum(np.stack([factor * factor[d], factor * factor])[:, :, ::-1],
                         axis=2)[:, :, ::-1]


def _prefix_bounds(factor, tails, prefixes) -> np.ndarray:
    """LB(P) = RSS(P + every column after max P) for each row P of
    ``prefixes`` (positions in the reordered columns), from the reversed
    factor F of ``_bound_factor``.  The columns after max P, then max P, lead
    the reversed order, so F's rows u, v for the other columns of P and for
    y give the Gram C_uv = sum of F_uc F_vc over F's columns c after max P's
    of their residuals on those leading columns; eliminating P's columns
    from C leaves LB(P).  The tail sums over c (``_bound_tails``) give C's
    diagonal and y column without a per-prefix product.  A NaN bound (a zero
    pivot of C) is never pruned."""
    d = factor.shape[0] - 1
    m, k = prefixes.shape
    at = d - 1 - prefixes  # positions in the reversed factor; max P is at[:, -1]
    after = at[:, -1] + 1  # F's first column after max P's
    C = np.empty((k, k, m))  # P's columns but max P, then y
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        C[-1, -1] = tails[0, d, after]
        for i in range(k - 1):
            C[i, i] = tails[1, at[:, i], after]
            C[i, -1] = C[-1, i] = tails[0, at[:, i], after]
        if k > 2:  # the cross terms among P's columns, from their masked rows
            keep = (np.arange(d + 1) >= after[:, None]).astype(float)
            rows = [np.take(factor, at[:, i], axis=0) for i in range(k - 1)]
            for i, j in zip(*np.triu_indices(k - 1, 1)):
                C[i, j] = C[j, i] = np.einsum("mc,mc,mc->m", rows[i], rows[j], keep)
        for i in range(k - 1):
            C[i + 1:, i + 1:] -= C[i + 1:, i, None] * C[None, i, i + 1:] / C[i, i]
    return C[-1, -1]


def _best_prefix_pair(rss, gram, corr, yy, s, floor) -> tuple:
    """(support, redone, scored) for s >= 2: the support P + (c, j) of least
    residual, with P a prefix of size s - 2 from ``support_chunks`` and c < j
    after max(P), scored in lexicographic order by the closed form of
    ``l0_least_squares`` (t = S / D_c), at most ``_PAIR_BLOCK`` supports a
    pass; ``scored`` counts the supports scored.

    Order.  For s >= 3 the columns are first sorted by their marginal score
    |r_j| / sqrt(G_jj), stably, and the prefix tree is that of the sorted
    columns.  Equal residuals still go to the support that is
    lexicographically smallest in the original column order: a pass
    compares every entry that ties its least residual, and a later pass
    replaces the best only with a smaller residual, or an equal one on a
    smaller original support.

    Bound.  Residuals only fall as columns are added, so every support of a
    prefix P's subtree has RSS >= LB(P) = RSS(P + every column after
    max P) (leaps and bounds, Furnival & Wilson 1974).  ``_bound_factor``
    factors M = [[G, r], [r^T, y^T y]] once, with the sorted columns in
    reverse and y last, and ``_prefix_bounds`` reads every LB(P) from it as
    a (s - 2) x (s - 2) Schur complement.  The completions of the first
    prefix are scored first; their least residual is the incumbent, and
    the other prefixes are scored only when LB(P) <= incumbent + margin.
    Nothing in this depends on the pass size or the chunks.

    Margin.  A bound and a score are both the Schur complement of y in a
    principal block of M, found by Cholesky-type elimination, so each is
    to first order exact for M + E with |E_ij| <= gamma sqrt(M_ii M_jj),
    gamma = (d + 2) eps (the rows of a Cholesky factor have norms
    sqrt(M_ii); Higham 2002, Thm 10.3).  With v = (-b, 1) the residual's
    coefficients and D = diag(M), the error v^T E v is at most
    (d + 1) gamma ||D^{1/2} v||^2 <= (d + 1) gamma y^T y / lambda, since
    v^T M v = RSS <= y^T y; lambda, the least eigenvalue of the
    unit-diagonal D^{-1/2} M D^{-1/2}, is at least 1 / ||H^{-1}||_F^2 for
    its Cholesky factor H.  The prefix of the best support S has
    LB <= RSS(S) <= incumbent, so margin = 2 (d + 1) gamma y^T y ||H^{-1}||_F^2
    covers the error of its bound plus that of S's score and never prunes
    it.  G's own rounding from X is shared by both, so it does not enter.
    Where the first-order argument fails (lambda near gamma) the margin
    exceeds y^T y, which bounds every LB, and nothing is pruned.

    Fallback.  Every support is scored, in the original order and with no
    bound, when s <= 2, when M's factorization fails, or when a pivot keeps
    less than ``_BOUND_PIVOT`` = 1e-8 of its diagonal entry
    (F_ii^2 < 1e-8 M_ii): zero, duplicated or nearly dependent columns,
    n < d and a y that the columns fit (nearly) exactly all fail it.

    The pairs of a prefix that ends at b are the suffix of the lexicographic
    pair list (``np.triu_indices(d, 1)``) from (b + 1, b + 2) on, so a
    chunk's supports are a stream of such suffixes, cut into passes; a pass
    repeats each prefix over its share of the pass and looks its pairs up in
    that list.  A support is untrusted, and redone by ``_unit_lstsq``, when
    D_c is NaN, when pivot <= 1e-12 G_jj, or when RSS falls below ``floor``.
    The fields and the pass buffers are allocated once per call and
    rewritten in place.
    """
    d = gram.shape[0]
    k = s - 2
    bound = _bound_factor(gram, corr, yy) if k else None
    if bound is None:
        order = np.arange(d)
    else:
        order, factor, margin = bound
        tails = _bound_tails(factor)
        gram, corr = gram[np.ix_(order, order)], corr[order]
    # the pairs that follow some prefix: those from (k, k + 1) on, the first
    # after the prefix (0, ..., k - 1); first[b] is where the pairs of a prefix
    # ending at b start among them
    pair_c, pair_j = (a[math.comb(d, 2) - math.comb(d - k, 2):] for a in np.triu_indices(d, 1))
    first = np.searchsorted(pair_c, np.arange(1, d + 1))
    n_pairs = len(pair_c)
    threshold = 1e-12 * np.diagonal(gram)
    g_flat = gram.reshape(-1)
    size = min(_PAIR_BLOCK, math.comb(d, s))
    offsets = np.arange(size)
    pos, flat_c, flat_j = np.empty((3, size), dtype=np.intp)
    at_c, at_j = np.empty((3 + k, size)), np.empty((2 + k, size))
    schur, thr = np.empty((2, size))
    trusted = np.empty(size, dtype=bool)
    store = np.empty(0)
    best_obj, best_support, n_lstsq, n_scored = math.inf, None, 0, 0

    def score(prefixes):  # every completion of the prefix rows, in order
        nonlocal store, best_obj, best_support, n_lstsq, n_scored

        def support(i):  # the sorted original columns of entry i of the current pass
            at = np.append(prefixes[row_at[i] // d], (flat_c[i] - row_at[i], flat_j[i] - row_at[i]))
            return np.sort(order[at])

        m = len(prefixes)
        if store.size < (3 + k) * m * d:
            store = np.empty((3 + k) * m * d)
        A = store[:(3 + k) * m * d].reshape(3 + k, m, d)
        _prefix_fields(gram, corr, yy, prefixes, A)
        flat = A.reshape(3 + k, m * d)
        starts = first[prefixes[:, -1]] if k else np.zeros(1, dtype=np.intp)
        run_end = np.cumsum(n_pairs - starts)  # where each prefix's run ends in the stream
        run_start = run_end - (n_pairs - starts)
        total = int(run_end[-1])
        n_scored += total
        for lo in range(0, total, size):
            hi = min(lo + size, total)
            L = hi - lo
            p, c, fj, ok, S, th = (buf[:L] for buf in (pos, flat_c, flat_j, trusted, schur, thr))
            # the prefixes whose runs meet [lo, hi), and each one's share of it
            first_row = np.searchsorted(run_end, lo, side="right")
            end_row = np.searchsorted(run_start, hi)
            share = slice(first_row, end_row)
            counts = np.minimum(run_end[share], hi) - np.maximum(run_start[share], lo)
            np.add(offsets[:L], np.repeat(starts[share] - run_start[share] + lo, counts), out=p)
            row_at = np.repeat(np.arange(first_row, end_row) * d, counts)  # offsets in the fields
            np.take(pair_c, p, out=c, mode="clip")
            np.take(pair_j, p, out=fj, mode="clip")
            np.take(threshold, fj, out=th, mode="clip")
            np.multiply(c, d, out=p)
            p += fj
            np.take(g_flat, p, out=S, mode="clip")
            c += row_at
            fj += row_at
            np.take(flat, c, axis=1, out=at_c[:, :L], mode="clip")
            np.take(flat[_D:], fj, axis=1, out=at_j[:, :L], mode="clip")  # V_j is not needed
            V_c, t, num, W_c = at_c[_V, :L], at_c[_D, :L], at_c[_U, :L], at_c[_U + 1:, :L]
            pivot, U_j, W_j = at_j[0, :L], at_j[1, :L], at_j[2:, :L]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                for l in range(k):
                    W_c[l] *= W_j[l]
                    S -= W_c[l]
                np.divide(S, t, out=t)  # t = S / D_c
                S *= t
                pivot -= S  # D_j - S t
                num *= t
                np.subtract(U_j, num, out=num)
                num *= num
                num /= pivot
                resid = np.subtract(V_c, num, out=V_c)
                np.greater(pivot, th, out=ok)
                ok &= resid >= floor
            redo = np.flatnonzero(~ok)
            for i in redo:
                resid[i] = rss(support(i))
            n_lstsq += len(redo)
            low = float(np.min(np.maximum(resid, 0.0, out=resid)))
            if low <= best_obj:
                for i in np.flatnonzero(resid == low):
                    tied = support(i)
                    if low < best_obj or list(tied) < list(best_support):
                        best_obj, best_support = low, tied

    # prefixes end before column d - 2, so each has a pair of completions
    chunks = (support_chunks(d - 2, k, per_support=(3 + k) * d) if k
              else [np.zeros((1, 0), dtype=np.intp)])
    cutoff = None
    for prefixes in chunks:
        if bound is not None:
            if cutoff is None:  # the first prefix's best residual is the incumbent
                score(prefixes[:1])
                cutoff = best_obj + margin
                prefixes = prefixes[1:]
            prefixes = prefixes[~(_prefix_bounds(factor, tails, prefixes) > cutoff)]
        if len(prefixes):
            score(prefixes)
    return best_support, n_lstsq, n_scored


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
# the certified FISTA loop, and l1-constrained least squares (the lasso is below)
# ---------------------------------------------------------------------------


def _fista(X, y, step, certificate, max_iter, tol, record_trace=False) -> EstimateResult:
    """Monotone FISTA from b = 0 for min F(b) = f(b) + h(b), f(b) = ||y - X b||_2^2, h convex.

    ``step(u, L)`` returns (z, h(z)), z the proximal point of u under h / (2L)
    (a projection, with h(z) = 0, when h is the indicator of a convex set);
    ``certificate`` is a pair (name, measure), measure(b, g) the optimality of
    b from its half gradient g = X^T (X b - y).  Steps 1/(2L) on f,
    sigma_max(X)^2 <= L <= (1 + 1e-6) sigma_max(X)^2, start from the FISTA
    extrapolation v = x_k + m (x_k - x_{k-1}) of the kept iterates (Beck &
    Teboulle 2009).  Each iteration takes one operator product, at
    z = step(v - g(v) / L): g is affine, so g(v) = g_k + m (g_k - g_{k-1}), and
    the product at z gives g(z) and f(z).  z is kept only if F(z) <= F(x_k) up to a tie
    band of (n + d) eps f(0), the round-off of evaluating f; otherwise the
    momentum is reset and the next iteration is a plain proximal step from x_k,
    always kept, since no proximal step shorter than 2 / (2 sigma_max^2) raises
    F.  The momentum is also reset when (v - z).(z - x_k) > 0, the gradient
    restart (O'Donoghue & Candes 2015).  The loop exits converged once the
    measure of the kept iterate, from its own exact gradient, is <= tol;
    unconverged after ``max_iter`` iterations or at L = 0 (X = 0).  The
    objective is ||y - X b||^2 from X, and info holds the last measure under
    its name, L ("lipschitz"), the Lanczos steps ("lipschitz_steps"), the
    momentum resets ("restarts") and, with ``record_trace``, the objective of
    every kept iterate ("objective_trace").  The measure at b = 0 is taken
    first, from c = X^T y alone: when it is <= tol, b = 0 returns converged
    at iteration 1 before G or L is formed, with "lipschitz_steps" 0 and no
    "lipschitz", since no L was computed.  ``feasible`` is left True for the
    caller to judge.
    """
    name, measure = certificate
    c = X.T @ y
    beta = beta_prev = np.zeros(X.shape[1])
    certified = measure(beta, -c)  # -c is the half gradient at b = 0
    if certified <= tol:  # b = 0 is certified before G or L is formed
        obj = float(y @ y)
        info = {name: certified, "lipschitz_steps": 0, "restarts": 0}
        if record_trace:
            info["objective_trace"] = [obj, obj]
        return EstimateResult(beta_hat=beta, objective=obj, iterations=1, converged=True,
                              feasible=True, info=info)
    half_gradient, lip, lip_steps = _least_squares_gradient(X, y, c)
    g, f = half_gradient(beta)
    g_prev, h = g, 0.0
    # a rise below the round-off of evaluating f (which stays below f(0) = y.y) is a tie
    tie = sum(X.shape) * np.finfo(float).eps * f
    t = 1.0  # FISTA's momentum sequence; 1 means no momentum
    restarts = 0
    trace = []
    converged = False
    for it in range(1, max_iter + 1):  # max_iter >= 1, so certified and it are always bound
        if record_trace:
            r = X @ beta - y
            trace.append(float(r @ r))
        certified = measure(beta, g)
        if certified <= tol:
            converged = True
            break
        if lip == 0.0:
            break
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        m = (t - 1.0) / t_next
        # the half gradient is affine, so at the extrapolated point v it is g + m (g - g_prev)
        v = beta + m * (beta - beta_prev)
        z, h_z = step(v - (g + m * (g - g_prev)) / lip, lip)
        g_z, f_z = half_gradient(z)
        if m > 0.0 and f_z + h_z > f + h + tie:
            t = 1.0  # rejected: the next iteration is a plain step from beta
            restarts += 1
            continue
        if (v - z) @ (z - beta) > 0.0:
            t = 1.0  # gradient restart: the step turned against the momentum
            restarts += 1
        else:
            t = t_next
        beta_prev, g_prev = beta, g
        beta, g, f, h = z, g_z, f_z, h_z
    r = y - X @ beta
    obj = float(r @ r)
    info = {name: certified, "lipschitz": lip, "lipschitz_steps": lip_steps, "restarts": restarts}
    if record_trace:
        info["objective_trace"] = trace + [obj]
    return EstimateResult(beta_hat=beta, objective=obj, iterations=it, converged=converged,
                          feasible=True, info=info)


def l1_constrained_ls(
    X: np.ndarray,
    y: np.ndarray,
    r1: float,
    max_iter: int = 20_000,
    tol: float = 1e-8,
    record_trace: bool = False,
) -> EstimateResult:
    """Monotone FISTA for min f(b) = ||y - X b||_2^2 subject to ||b||_1 <= r1.

    The ``_fista`` loop with the projection onto the l1-ball as its step,
    certified by the Frank-Wolfe duality gap ("duality_gap" in info): at
    exit with converged=True the objective is within tol of the constrained
    optimum.
    """
    X, y = _check_inputs(X, y, radius=r1, max_iter=max_iter, tol=tol)

    def duality_gap(b, g):
        grad = 2.0 * g
        return float(grad @ b + r1 * np.max(np.abs(grad)))

    res = _fista(X, y, lambda u, lip: (project_l1(u, r1), 0.0), ("duality_gap", duality_gap),
                 max_iter, tol, record_trace)
    res.feasible = ball_contains(BallSpec(q=1.0, radius=r1), res.beta_hat, tol=1e-8)
    return res


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
    with a non-finite entry ParameterError (not ``errors.as_design``'s, of length n).
    """
    if not 0.0 < ball.q < 1.0:
        raise ParameterError(f"lq solver requires q in (0, 1), got {ball.q}")
    if len(starts) == 0:
        raise ParameterError("need at least one start")
    X, y = _check_inputs(X, y, max_iter=max_iter, tol=tol)
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


def _kkt_residual(b: np.ndarray, grad: np.ndarray, lam: float) -> float:
    """The lasso's KKT residual at b from grad = X^T (y - X b) / n: the largest
    of |grad_j| - lam off the support, |grad_j - lam sign(b_j)| on it, and 0."""
    kkt = np.where(b == 0.0, np.abs(grad) - lam, np.abs(grad - lam * np.sign(b)))
    return float(kkt.max(initial=0.0))


def lasso(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    max_iter: int = 20_000,
    tol: float = 1e-10,
) -> EstimateResult:
    """Monotone FISTA for min (1/2n)||y - X b||_2^2 + lam ||b||_1.

    The ``_fista`` loop on 2n times the objective, f(b) + 2 n lam ||b||_1,
    whose proximal step is the soft-threshold at lam n / L.  It stops,
    converged, once the KKT residual of the kept iterate, from its own
    exact gradient, is <= tol; ``iterations`` counts FISTA iterations, and
    at lam >= lam_max = max_j |X_j^T y| / n the start b = 0 is certified at
    iteration 1 from X^T y alone, before G or the Lanczos bound is formed, so
    info then has "lipschitz_steps" 0 and no "lipschitz".
    info holds the KKT residual recomputed from X ("kkt_residual"), the
    penalized objective and the all-zero columns of X ("skipped_columns",
    whose coefficients stay 0), beside the loop's own entries.
    """
    X, y = _check_inputs(X, y, lam=lam, max_iter=max_iter, tol=tol)
    n = X.shape[0]

    def soft_threshold(u, lip):
        z = u - np.clip(u, -lam * n / lip, lam * n / lip)
        return z, 2.0 * n * lam * float(np.abs(z).sum())

    certificate = ("kkt_residual", lambda b, g: _kkt_residual(b, -g / n, lam))
    res = _fista(X, y, soft_threshold, certificate, max_iter, tol)
    b = res.beta_hat
    res.info.update(kkt_residual=_kkt_residual(b, X.T @ (y - X @ b) / n, lam),
                    penalized_objective=res.objective / (2 * n) + lam * float(np.abs(b).sum()),
                    skipped_columns=np.flatnonzero(~X.any(axis=0)).tolist())
    return res


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
