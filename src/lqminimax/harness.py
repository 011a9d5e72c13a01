"""Experiment orchestration.

Runs risk sweeps over (n, d) grids with seeded, reproducible trials, fits
log-log rate slopes against the theoretical predictors, reproduces the
l1-vs-l0 counterexample design deterministically (its min-l1 interpolant
by exact enumeration of the bases of X, on numpy alone), and persists
records to CSV/JSON with a config hash in every file header.

Seeding: seed(cell, trial) = hash(seed_root, n, d, trial), further split
into design / truth / noise streams, so any subset of trials can be rerun
in isolation and workers can execute out of order.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from typing import Optional, Sequence

import numpy as np

from .ballgeom import project_l1
from .conditions import in_cone
from .errors import (ConsistencyError, CovarianceError, DimensionError, ParameterError, as_design,
                     as_scalar, as_tuple, require_scalars, store_scalars)
from .estimators import (
    _PARAMETER_RULES,
    EstimateResult,
    _check_s_fits,
    check_basic_inequality,
    l0_least_squares,
    l1_constrained_ls,
    lasso,
    lq_constrained_ls,
)
from .linmodel import (BallSpec, InstanceSpec, LossSpec, ProblemInstance, derive_seed,
                       generate_sparse_beta, loss, split_streams)
from .supports import support_chunks

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "RateFitResult",
    "ExperimentRun",
    "CounterexampleReport",
    "run_risk_experiment",
    "fit_rate_slope",
    "counterexample_scenario",
    "corollary1_experiment",
    "min_l1_interpolant",
    "persist",
    "load_records",
    "config_hash",
    "plot_fit_svg",
    "PREDICTORS",
]

TRIM_FRACTION = 0.02  # trimmed-mean risk estimate; raw means are kept too


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(InstanceSpec):
    """One risk sweep: the instance recipe of ``InstanceSpec`` drawn over an
    (n, d) grid and solved by one estimator."""

    n_grid: tuple
    estimator: dict
    d_rule: tuple = ("fixed", 32)  # or ("proportional", ratio)
    trials_per_cell: int = 1
    losses: tuple = (LossSpec.l2(), LossSpec.prediction())
    seed_root: int = 0
    kappa_exponent: float = 0.5
    enforce_scaling: bool = False

    def __post_init__(self):
        grid = as_tuple("n_grid", self.n_grid, "index")
        object.__setattr__(self, "n_grid", grid)
        if any(b >= a for a, b in zip(grid[1:], grid)):
            raise ParameterError(f"n_grid must be strictly increasing, got {grid}")
        store_scalars(self, trials_per_cell="count", seed_root="index", kappa_exponent="finite")
        if not isinstance(self.enforce_scaling, (bool, np.bool_)):
            raise ParameterError(f"'enforce_scaling' must be a bool, got {self.enforce_scaling!r}")
        object.__setattr__(self, "enforce_scaling", bool(self.enforce_scaling))
        rule, value = as_tuple("d_rule", self.d_rule, pair=True)
        if not isinstance(self.estimator, dict):
            raise ParameterError(f"'estimator' must be a dict, got {self.estimator!r}")
        kind = self.estimator.get("kind")
        super().__post_init__(("d_rule", rule, ("fixed", "proportional")),
                              ("estimator kind", kind, _ESTIMATORS))
        value = as_scalar("count" if rule == "fixed" else "positive", "d_rule", value)
        object.__setattr__(self, "d_rule", (rule, value))
        required, optional, _ = _ESTIMATORS[kind]
        values = {key: value for key, value in self.estimator.items() if key != "kind"}
        if not set(required) <= set(values) <= {*required, *optional}:
            raise ParameterError(f"estimator kind {kind!r} needs the keys {list(required)} and "
                                 f"takes only {[*required, *optional]}, got {list(values)}")
        object.__setattr__(self, "estimator", {"kind": kind, **{
            key: as_scalar(_PARAMETER_RULES[key], key, value) for key, value in values.items()}})
        losses = as_tuple("losses", self.losses)
        if not all(isinstance(spec, LossSpec) for spec in losses):
            raise ParameterError(f"'losses' must hold LossSpecs, got {self.losses!r}")
        object.__setattr__(self, "losses", losses)
        for n in grid:
            d = self.dim_at(n)
            if n < 1 or d < 1:
                raise DimensionError(
                    f"need n, d >= 1, but d_rule {self.d_rule!r} gives n={n}, d={d}")
            self.ball.validate_for_dim(d)
            if kind == "l0":
                _check_s_fits(self.estimator["s"], d, f" at n={n}")
        dims = {self.dim_at(n) for n in grid}
        if self.root is not None and dims != {len(self.root)}:
            raise CovarianceError(f"covariance is {len(self.root)} x {len(self.root)}, but "
                                  f"d_rule {self.d_rule!r} gives d in {sorted(dims)}")

    def dim_at(self, n: int) -> int:
        kind, value = self.d_rule
        return value if kind == "fixed" else int(round(value * n))

    def scaling_ok(self, n: int, d: int) -> bool:
        """d / (Rq n^{q/2}) >= d^kappa; the condition only binds for q > 0."""
        if self.ball.q == 0.0:
            return True
        lhs = d / (self.ball.radius * n ** (self.ball.q / 2.0))
        return lhs >= d**self.kappa_exponent

    def to_json_dict(self) -> dict:
        return _to_json(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        """Inverse of ``to_json_dict``; absent keys take the field defaults."""
        return _from_json(cls, "config", doc)


def _from_json(cls, where: str, doc: dict):
    """``cls`` from the JSON object ``doc``; an unknown or missing key raises ParameterError."""
    by_name = {f.name: f for f in fields(cls) if f.init}
    unknown = sorted(set(doc) - set(by_name))
    if unknown:
        raise ParameterError(f"unknown {where} keys {unknown}; the keys are {list(by_name)}")
    missing = [name for name, f in by_name.items() if f.default is MISSING and name not in doc]
    if missing:
        raise ParameterError(f"{where} is missing required keys {missing}")
    specs = {"ball": BallSpec, "losses": LossSpec}  # the config fields whose objects are specs
    return cls(**{name: _reshape(value, specs.get(name)) for name, value in doc.items()})


def _reshape(value, spec):
    """JSON lists as tuples, and JSON objects as ``spec`` instances when ``spec`` is given."""
    if isinstance(value, list):
        return tuple(_reshape(v, spec) for v in value)
    return _from_json(spec, spec.__name__, value) if spec and isinstance(value, dict) else value


def _to_json(value):
    """Dataclasses become dicts of their init fields and tuples become lists, recursively."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value) if f.init}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.to_json_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    n: int
    d: int
    trial: int
    seed: int
    losses: dict
    objective_ok: bool
    wall_ms: float


@dataclass
class ExperimentRun:
    """Records plus the cells excluded by the scaling gate (never silent)."""

    records: list
    excluded_cells: list
    config_hash: str
    seed_root: int


# ---------------------------------------------------------------------------
# running trials
# ---------------------------------------------------------------------------


# estimator kind -> (keys its dict must hold, further keys it may hold, solver given
# the instance and those keys); lq starts from the truth and from zero (an oracle warm
# start: its objective is never worse than at the truth) and reads the instance's ball
_ESTIMATORS = {
    "l0": (("s",), (), lambda inst, s: l0_least_squares(inst.X, inst.y, s)),
    "l1": (("radius",), ("max_iter", "tol"),
           lambda inst, radius, **opts: l1_constrained_ls(inst.X, inst.y, radius, **opts)),
    "lq": ((), ("max_iter", "tol"), lambda inst, **opts: lq_constrained_ls(
        inst.X, inst.y, inst.ball, [inst.beta_star, np.zeros(inst.d)], **opts)),
    "lasso": (("lam",), ("max_iter", "tol"),
              lambda inst, lam, **opts: lasso(inst.X, inst.y, lam, **opts)),
}


def _run_estimator(est: dict, inst: ProblemInstance) -> EstimateResult:
    """Run the estimator described by ``est`` on ``inst``; its keys but the kind go to the solver."""
    return _ESTIMATORS[est["kind"]][2](inst, **{k: v for k, v in est.items() if k != "kind"})


def _run_trial(config: ExperimentConfig, n: int, d: int, trial: int) -> TrialRecord:
    seed = derive_seed(config.seed_root, n, d, trial)
    start = time.perf_counter()
    inst = config.draw(n, d, seed)
    result = _run_estimator(config.estimator, inst)
    check = check_basic_inequality(inst, result)
    if config.estimator["kind"] == "l0" and not check.objective_ok:
        raise ConsistencyError(
            f"exact l0 solver beaten by the truth at (n={n}, d={d}, trial={trial}): "
            "solver bug"
        )
    losses = {sp.name: loss(sp, inst.X, result.beta_hat, inst.beta_star)
              for sp in config.losses}
    wall_ms = (time.perf_counter() - start) * 1e3
    return TrialRecord(n=n, d=d, trial=trial, seed=seed, losses=losses,
                       objective_ok=check.objective_ok, wall_ms=wall_ms)


def _run_trial_star(args) -> TrialRecord:
    return _run_trial(*args)


def run_risk_experiment(config: ExperimentConfig, n_workers: int = 1) -> ExperimentRun:
    """Execute every (cell, trial) job and return records in canonical order.

    Cells failing the scaling condition are excluded and reported in
    ``excluded_cells`` when ``enforce_scaling`` is set.  At a fixed BLAS
    thread count, identical (config, seed_root) reproduce bit-identical
    records whatever the worker count; the thread count itself can change
    the last digits.  ``n_workers`` is a count (ParameterError otherwise).
    """
    require_scalars("count", n_workers=n_workers)
    jobs = []
    excluded = []
    for n in config.n_grid:
        d = config.dim_at(n)
        if config.enforce_scaling and not config.scaling_ok(n, d):
            excluded.append((n, d))
            continue
        jobs.extend((config, n, d, trial) for trial in range(config.trials_per_cell))
    if n_workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: loads multiprocessing
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            records = list(pool.map(_run_trial_star, jobs, chunksize=8))
    else:
        records = [_run_trial(*job) for job in jobs]
    records.sort(key=lambda r: (r.n, r.d, r.trial))
    return ExperimentRun(records=records, excluded_cells=excluded,
                         config_hash=config_hash(config),
                         seed_root=config.seed_root)


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFitResult:
    slope: float
    intercept: float
    r_squared: float
    n_points: int
    loss_kind: str
    theoretical_slope: float
    predictor: str
    cells: tuple  # (n, d, x, trimmed_mean, raw_mean) per fitted cell
    excluded_zero_cells: int = 0

    def to_json_dict(self) -> dict:
        return _to_json(self)


def _trimmed_mean(values: np.ndarray, frac: float = TRIM_FRACTION) -> float:
    values = np.sort(np.asarray(values, dtype=float))
    k = int(math.floor(frac * len(values)))
    if len(values) > 2 * k and k > 0:
        values = values[k:-k]
    return float(values.mean())


def _s_logd_over_n(n: int, d: int, q: float, s: Optional[int], radius) -> float:
    if s is None:
        raise ParameterError("predictor s_logd_over_n needs s")
    return s * math.log(d / s) / n


def _rq_logd_n_pow(n: int, d: int, q: float, s, radius: Optional[float]) -> float:
    if radius is None:
        raise ParameterError("predictor rq_logd_n_pow needs the ball radius")
    return radius * (math.log(d) / n) ** (1.0 - q / 2.0)


# name -> (x(n, d, q, s, radius), theoretical slope of log l2 risk against log x, given q)
PREDICTORS = {
    "n": (lambda n, d, q, s, radius: float(n), lambda q: -(1.0 - q / 2.0)),
    "s_logd_over_n": (_s_logd_over_n, lambda q: 1.0),
    "rq_logd_n_pow": (_rq_logd_n_pow, lambda q: 1.0),
    "two_logn_over_n": (lambda n, d, q, s, radius: 2.0 * math.log(n) / n,
                        lambda q: 1.0 - q / 2.0),
}


def fit_rate_slope(
    records: Sequence[TrialRecord],
    loss_kind: str = "l2",
    predictor: str = "n",
    q: float = 0.0,
    s: Optional[int] = None,
    radius: Optional[float] = None,
) -> RateFitResult:
    """OLS fit of log(mean loss) against log(predictor), one point per cell.

    Cell risk is the 2%-trimmed mean over trials (raw means kept alongside);
    zero-mean cells are excluded and counted.  The theoretical slope is -1
    (q = 0) or -(1 - q/2) against n, 1 - q/2 against the sequence model's
    2 log n / n, and +1 against the composite predictors, for l2 loss; an lp
    loss's exponent (p - q)/2 scales it by (p - q)/(2 - q), to 0 at p = q,
    where the paper gives no lp bound.  A ``loss_kind`` that a record does
    not carry raises ParameterError.
    """
    if predictor not in PREDICTORS:
        raise ParameterError(f"unknown predictor {predictor!r}; known: {list(PREDICTORS)}")
    BallSpec(q, 1.0)  # q in [0, 1], as for a ball; q = 2 would divide the lp factor by 0
    x_of, theoretical_of = PREDICTORS[predictor]
    by_cell: dict = {}
    for rec in records:
        if loss_kind not in rec.losses:
            raise ParameterError(f"the records carry no loss {loss_kind!r}; they carry "
                                 f"{sorted(rec.losses)}")
        by_cell.setdefault((rec.n, rec.d), []).append(rec.losses[loss_kind])
    xs, ys, cells = [], [], []
    excluded = 0
    for (n, d), vals in sorted(by_cell.items()):
        vals = np.array(vals)
        trimmed = _trimmed_mean(vals)
        raw = float(vals.mean())
        if trimmed <= 0.0:
            excluded += 1
            continue
        x = x_of(n, d, q, s, radius)
        xs.append(math.log(x))
        ys.append(math.log(trimmed))
        cells.append((n, d, x, trimmed, raw))
    if len(xs) < 3:
        raise ParameterError(f"need at least 3 usable cells, got {len(xs)}")
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * np.array(xs) + intercept
    resid = np.array(ys) - fitted
    total = np.array(ys) - np.mean(ys)
    r_squared = 1.0 - float(resid @ resid) / float(total @ total)
    p = LossSpec.power_of(loss_kind)
    return RateFitResult(slope=float(slope), intercept=float(intercept),
                         r_squared=r_squared, n_points=len(xs), loss_kind=loss_kind,
                         theoretical_slope=theoretical_of(q) * ((p - q) / (2.0 - q)),
                         predictor=predictor, cells=tuple(cells),
                         excluded_zero_cells=excluded)


# ---------------------------------------------------------------------------
# the l1-vs-l0 counterexample
# ---------------------------------------------------------------------------

COUNTEREXAMPLE_X = np.array([[1.0, -2.0, -1.0], [2.0, -3.0, -3.0]])
COUNTEREXAMPLE_BETA = np.array([1.0, 0.0, 0.0])


def min_l1_interpolant(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """argmin ||b||_1 subject to X b = y, by exact enumeration of the bases of X.

    Write b = b+ - b- with b+, b- >= 0.  The linear program
    min 1'(b+ + b-) subject to X (b+ - b-) = y is bounded below by 0, so a
    feasible one attains its optimum at a vertex, and its vertices are
    exactly the solutions b whose support columns are linearly independent.
    Any such support extends to a set of r = rank(X) independent columns,
    and the solution of X_S b_S = y on that set is the same b.  So the least
    ||b||_1 over the size-r supports S with rank(X_S) = r is the LP optimum.
    Each support is solved by ``np.linalg.lstsq``, whose rank (``matrix_rank``'s
    rule) drops the dependent ones.  Supports come from ``support_chunks`` in
    lexicographic order and a strict ``<`` keeps the first of equal norms, so
    ties go to the lexicographically first support.  The cost is C(d, r)
    small least-squares solves, which is not polynomial in d.

    Raises ParameterError on a NaN or inf, DimensionError when y does not
    match the rows of X, ConsistencyError when X b = y has no solution (the
    least-squares residual exceeds 1e-9 (sigma_max(X) |b| + |y|) in max
    norm), and EnumerationBudgetError before any support is solved when
    C(d, r) exceeds the enumeration budget.  X of rank 0, with y = 0, gives
    the zero vector.
    """
    X, y = as_design(X, y=y)
    d = X.shape[1]
    b_ls, _, r, sv = np.linalg.lstsq(X, y, rcond=None)
    # max norms, which do not underflow where a sum of squares would
    if np.abs(X @ b_ls - y).max() > 1e-9 * (sv[0] * np.abs(b_ls).max() + np.abs(y).max()):
        raise ConsistencyError("X b = y has no solution: y lies outside the range of X")
    beta, best = np.zeros(d), math.inf
    if r == 0:
        return beta
    for supports in support_chunks(d, r):
        for S in supports:
            sol, _, rank, _ = np.linalg.lstsq(X[:, S], y, rcond=None)
            norm = np.abs(sol).sum()
            if rank == r and norm < best:
                best, beta = norm, np.zeros(d)
                beta[S] = sol
    return beta


@dataclass(frozen=True)
class CounterexampleReport:
    kernel_ok: bool       # (1, 1/3, 1/3) annihilated by the design
    cone_ok: bool         # ... lies in the comparison cone but not in B_0(2)
    l0_recovery_ok: bool  # exact l0 solver returns the truth at sigma = 0
    l1_failure_ok: bool   # min-l1 interpolant is (0,-1/3,-1/3) with norm 2/3
    beta_l0: tuple
    beta_min_l1: tuple
    min_l1_norm: float

    @property
    def all_ok(self) -> bool:
        return self.kernel_ok and self.cone_ok and self.l0_recovery_ok and self.l1_failure_ok

    def to_json_dict(self) -> dict:
        return {**_to_json(self), "all_ok": self.all_ok}


def counterexample_scenario() -> CounterexampleReport:
    """Deterministic 2x3 design where l1 interpolation fails and l0 succeeds."""
    X = COUNTEREXAMPLE_X
    beta_star = COUNTEREXAMPLE_BETA
    y = X @ beta_star  # noiseless

    delta = np.array([1.0, 1.0 / 3.0, 1.0 / 3.0])
    kernel_ok = bool(np.max(np.abs(X @ delta)) <= 1e-12)
    cone_ok = in_cone(delta, s=1, c0=1.0) and np.count_nonzero(delta) > 2

    l0 = l0_least_squares(X, y, s=1)
    l0_recovery_ok = bool(np.linalg.norm(l0.beta_hat - beta_star) <= 1e-10)

    beta_l1 = min_l1_interpolant(X, y)
    target = np.array([0.0, -1.0 / 3.0, -1.0 / 3.0])
    l1_norm = float(np.abs(beta_l1).sum())
    l1_failure_ok = bool(
        np.max(np.abs(beta_l1 - target)) <= 1e-6 and abs(l1_norm - 2.0 / 3.0) <= 1e-6
    )

    return CounterexampleReport(
        kernel_ok=kernel_ok,
        cone_ok=bool(cone_ok),
        l0_recovery_ok=l0_recovery_ok,
        l1_failure_ok=l1_failure_ok,
        beta_l0=tuple(float(v) for v in l0.beta_hat),
        beta_min_l1=tuple(float(v) for v in beta_l1),
        min_l1_norm=l1_norm,
    )


# ---------------------------------------------------------------------------
# sequence-model rate experiment
# ---------------------------------------------------------------------------


def corollary1_experiment(
    n_grid: Sequence[int],
    tau: float,
    ball: BallSpec,
    trials_per_cell: int = 40,
    seed_root: int = 0,
) -> RateFitResult:
    """Sequence-model risk slope against (2 log n) / n.

    Each trial observes y = sqrt(n) b + tau z, the design sqrt(n) I in
    sequence form: y / sqrt(n) = b + (tau / sqrt(n)) z.  Spikes are placed at
    the detection threshold tau sqrt(2 log n / n): with constant large spikes
    the risk decays parametrically at 1/n and the log-factor the theory
    predicts would be invisible.  Least squares over the ball is then the
    projection of y / sqrt(n) onto it (``_sequence_estimate``), so only the
    exact q = 0 and q = 1 estimators are allowed.  Trial seeds, truths and
    noise are those of a sweep with d = n (``run_risk_experiment``).  Each
    record holds the l2 loss, the measured wall time and, as objective_ok,
    the basic inequality ||y - sqrt(n) bhat||^2 <= ||w||^2 + 1e-8; the
    records go to ``fit_rate_slope``.
    """
    if ball.q not in (0.0, 1.0):
        raise ParameterError("only the exact q = 0 and q = 1 estimators run here")
    grid = as_tuple("n_grid", n_grid, "count")
    if len(grid) < 3:
        raise ParameterError(f"need at least 3 grid points, got {len(grid)}")
    if any(b >= a for a, b in zip(grid[1:], grid)):
        raise ParameterError(f"n_grid must be strictly increasing, got {grid}")
    tau = as_scalar("positive", "tau", tau)
    require_scalars("count", trials_per_cell=trials_per_cell)
    require_scalars("index", seed_root=seed_root)
    ball.validate_for_dim(grid[0])  # the grid increases, so its first n binds s <= n
    records = []
    for n in grid:
        root_n = math.sqrt(n)
        for trial in range(trials_per_cell):
            seed = derive_seed(seed_root, n, n, trial)
            start = time.perf_counter()
            beta = generate_sparse_beta(ball, n, magnitude=tau * math.sqrt(2.0 * math.log(n) / n),
                                        seed=derive_seed(seed, 2))
            w = tau * split_streams(seed)[1].standard_normal(n)
            y = root_n * beta + w
            beta_hat = _sequence_estimate(y, ball)
            r = y - root_n * beta_hat
            losses = {"l2": loss(LossSpec.l2(), None, beta_hat, beta)}
            records.append(TrialRecord(n=n, d=n, trial=trial, seed=seed, losses=losses,
                                       objective_ok=float(r @ r) <= float(w @ w) + 1e-8,
                                       wall_ms=(time.perf_counter() - start) * 1e3))
    return fit_rate_slope(records, "l2", predictor="two_logn_over_n", q=ball.q)


def _sequence_estimate(y: np.ndarray, ball: BallSpec) -> np.ndarray:
    """argmin ||y - sqrt(n) b||^2 over the q = 0 or q = 1 ball: the projection of
    y / sqrt(n) onto it.  For q = 0 that keeps the s largest |y_i|, ties going to
    the smaller index, as ``l0_least_squares`` breaks them."""
    root_n = math.sqrt(len(y))
    if ball.q == 1.0:
        return project_l1(y / root_n, ball.radius)
    support = np.lexsort((np.arange(len(y)), -np.abs(y)))[:ball.s]
    beta = np.zeros(len(y))
    beta[support] = y[support] / root_n
    return beta


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def persist(obj, path, format: str = "csv") -> None:
    """Write records to CSV or JSON, and diagnostics or fit results to JSON.

    Records come as an ``ExperimentRun``.  Every records file starts with (or
    embeds) the config hash and root seed; JSON output round-trips
    losslessly through ``load_records``.
    """
    path = str(path)
    if isinstance(obj, ExperimentRun):
        _persist_records(obj, path, format)
        return
    if hasattr(obj, "to_json_dict"):
        if format != "json":
            raise ParameterError(
                f"{type(obj).__name__} persists as JSON only, got format {format!r}")
        with open(path, "w") as fh:
            json.dump(obj.to_json_dict(), fh, sort_keys=True)
        return
    raise ParameterError(f"cannot persist object of type {type(obj).__name__}")


def _csv_line(values: dict, loss_names: list) -> str:
    """One CSV line in ``TrialRecord`` field order; ``losses`` expands to one column per name."""
    row = []
    for name, value in values.items():
        row.extend([value.get(k, math.nan) for k in loss_names] if name == "losses" else [value])
    return ",".join(str(v) for v in row)


def _persist_records(run: ExperimentRun, path: str, format: str) -> None:
    if format == "csv":
        loss_names = sorted({k for rec in run.records for k in rec.losses})
        header = {f.name: f.name for f in fields(TrialRecord)}
        header["losses"] = {k: f"loss_{k}" for k in loss_names}
        with open(path, "w") as fh:
            fh.write(f"# config={run.config_hash} seed_root={run.seed_root}\n")
            fh.write(_csv_line(header, loss_names) + "\n")
            for rec in run.records:
                fh.write(_csv_line(asdict(rec), loss_names) + "\n")
    elif format == "json":
        doc = {
            "config_hash": run.config_hash,
            "seed_root": run.seed_root,
            "excluded_cells": [list(c) for c in run.excluded_cells],
            "records": [asdict(rec) for rec in run.records],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
    else:
        raise ParameterError(f"unknown format {format!r}")


def load_records(path) -> ExperimentRun:
    """Inverse of ``persist(..., format='json')`` for records."""
    with open(path) as fh:
        doc = json.load(fh)
    return ExperimentRun(records=[TrialRecord(**item) for item in doc["records"]],
                         excluded_cells=[tuple(c) for c in doc.get("excluded_cells", [])],
                         config_hash=doc["config_hash"], seed_root=doc["seed_root"])


# ---------------------------------------------------------------------------
# plotting (static SVG, no dependencies)
# ---------------------------------------------------------------------------


def plot_fit_svg(fit: RateFitResult, path) -> None:
    """Scatter of log cell means with the fitted line, as a standalone SVG."""
    xs = [math.log(c[2]) for c in fit.cells]
    ys = [math.log(c[3]) for c in fit.cells]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad_x = 0.05 * (x1 - x0 or 1.0)
    pad_y = 0.05 * (y1 - y0 or 1.0)
    x0, x1, y0, y1 = x0 - pad_x, x1 + pad_x, y0 - pad_y, y1 + pad_y
    width, height, margin = 480, 360, 45

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="steelblue"/>')
    ya = fit.slope * x0 + fit.intercept
    yb = fit.slope * x1 + fit.intercept
    parts.append(
        f'<line x1="{sx(x0):.2f}" y1="{sy(ya):.2f}" x2="{sx(x1):.2f}" '
        f'y2="{sy(yb):.2f}" stroke="crimson" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{margin}" y="{margin - 12}" font-size="13">'
        f'log {fit.loss_kind} risk vs log {fit.predictor}: slope {fit.slope:.3f} '
        f'(theory {fit.theoretical_slope:.2f}), r^2 {fit.r_squared:.3f}</text>'
    )
    parts.append("</svg>")
    with open(str(path), "w") as fh:
        fh.write("\n".join(parts))
