"""Experiment orchestration.

Runs risk sweeps over (n, d) grids with seeded, reproducible trials, fits
log-log rate slopes against the theoretical predictors, reproduces the
l1-vs-l0 counterexample design deterministically, and persists records to
CSV/JSON with a config hash in every file header.

Seeding: seed(cell, trial) = hash(seed_root, n, d, trial), further split
into design / truth / noise streams, so any subset of trials can be rerun
in isolation and workers can execute out of order.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from .conditions import in_cone
from .errors import ConsistencyError, ParameterError
from .estimators import (
    EstimateResult,
    check_basic_inequality,
    l0_least_squares,
    l1_constrained_ls,
    lasso,
    lq_constrained_ls,
)
from .linmodel import (
    _PATTERNS,
    BallSpec,
    DesignSpec,
    LossSpec,
    ProblemInstance,
    derive_seed,
    generate_design,
    generate_sparse_beta,
    loss,
    sequence_model_instance,
    simulate,
)

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


@dataclass(frozen=True)
class ExperimentConfig:
    """One risk sweep.  For ``design_kind="identity_sequence"`` (the sequence
    model, d = n) ``sigma`` is tau: the noise level is tau / sqrt(n)."""

    ball: BallSpec
    sigma: float
    n_grid: tuple
    estimator: dict
    d_rule: tuple = ("fixed", 32)  # or ("proportional", ratio)
    design_kind: str = "standard_gaussian"
    sigma_cov: Optional[tuple] = None  # rows of the covariance, for correlated designs
    trials_per_cell: int = 1
    losses: tuple = (LossSpec.l2(), LossSpec.prediction())
    seed_root: int = 0
    beta_pattern: str = "random_support"
    beta_magnitude: float = 1.0
    # "constant" uses beta_magnitude; "threshold_logd" places entries at the
    # per-cell detection scale sigma sqrt(2 log d / n), the least favorable
    # configuration for soft-sparse balls
    beta_magnitude_rule: str = "constant"
    kappa_exponent: float = 0.5
    enforce_scaling: bool = False

    def __post_init__(self):
        grid = tuple(int(n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if any(b >= a for a, b in zip(grid[1:], grid)):
            raise ParameterError(f"n_grid must be strictly increasing, got {grid}")
        if self.trials_per_cell < 1:
            raise ParameterError("need at least one trial per cell")
        if self.d_rule[0] not in ("fixed", "proportional"):
            raise ParameterError(f"unknown d_rule {self.d_rule!r}")
        unknown = [f"{name} {value!r} (known: {', '.join(known)})"
                   for name, value, known in (
                       ("design_kind", self.design_kind, DesignSpec._KINDS),
                       ("beta_pattern", self.beta_pattern, _PATTERNS),
                       ("beta_magnitude_rule", self.beta_magnitude_rule, _MAGNITUDE_RULES),
                       ("estimator kind", self.estimator.get("kind"), _ESTIMATORS))
                   if value not in known]
        if unknown:
            raise ParameterError("unknown " + "; ".join(unknown))
        if (self.design_kind == "identity_sequence"
                and tuple(self.d_rule) != ("proportional", 1.0)):
            raise ParameterError(
                f"identity_sequence needs d_rule ('proportional', 1.0), got {self.d_rule!r}")

    def dim_at(self, n: int) -> int:
        kind, value = self.d_rule
        return int(value) if kind == "fixed" else int(round(value * n))

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
        by_name = {f.name: f for f in fields(cls)}
        unknown = sorted(set(doc) - set(by_name))
        if unknown:
            raise ParameterError(f"unknown config keys {unknown}; the fields are {list(by_name)}")
        missing = [name for name, f in by_name.items() if f.default is MISSING and name not in doc]
        if missing:
            raise ParameterError(f"config is missing required keys {missing}")
        return cls(**{name: _config_value(name, by_name[name].type, value)
                      for name, value in doc.items()})


_JSON_SCALARS = {"float": float, "int": int, "bool": bool, "dict": dict, "tuple": tuple}


def _config_value(name: str, type_name: str, value):
    """Convert one JSON value to the type of the ``ExperimentConfig`` field."""
    if name == "ball":
        return BallSpec(q=float(value["q"]), radius=float(value["radius"]))
    if name == "losses":
        return tuple(LossSpec(kind=item["kind"], p=float(item.get("p", 2.0)))
                     for item in value)
    if name == "sigma_cov":
        return None if value is None else tuple(tuple(r) for r in value)
    convert = _JSON_SCALARS.get(type_name)
    return value if convert is None else convert(value)


def _to_json(value):
    """Dataclasses become dicts of their fields and tuples become lists, recursively."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
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

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)


# ---------------------------------------------------------------------------
# running trials
# ---------------------------------------------------------------------------


def _solver_options(est: dict) -> dict:
    """The iteration limit and tolerance ``est`` sets; the solver's defaults stand for the rest."""
    return {key: convert(est[key]) for key, convert in (("max_iter", int), ("tol", float))
            if key in est}


# estimator kind -> solver of the instance given the estimator dict; lq starts from
# the truth and from zero (an oracle warm start, so its objective is never worse
# than at the truth) and reads the ball from the instance
_ESTIMATORS = {
    "l0": lambda est, inst: l0_least_squares(inst.X, inst.y, int(est["s"])),
    "l1": lambda est, inst: l1_constrained_ls(
        inst.X, inst.y, float(est["radius"]), **_solver_options(est)),
    "lq": lambda est, inst: lq_constrained_ls(
        inst.X, inst.y, inst.ball, [inst.beta_star, np.zeros(inst.d)], **_solver_options(est)),
    "lasso": lambda est, inst: lasso(inst.X, inst.y, float(est["lam"]), **_solver_options(est)),
}

# beta_magnitude_rule -> magnitude of the truth's entries in cell (n, d)
_MAGNITUDE_RULES = {
    "constant": lambda config, n, d: config.beta_magnitude,
    "threshold_logd": lambda config, n, d: config.sigma * math.sqrt(2.0 * math.log(d) / n),
}


def _run_estimator(est: dict, inst: ProblemInstance) -> EstimateResult:
    """Run the estimator described by ``est`` on ``inst``."""
    return _ESTIMATORS[est["kind"]](est, inst)


def _make_instance(config: ExperimentConfig, n: int, d: int, seed: int) -> ProblemInstance:
    """The instance of one trial: design, truth and noise from streams of ``seed``."""
    magnitude = _MAGNITUDE_RULES[config.beta_magnitude_rule](config, n, d)
    if config.design_kind == "identity_sequence":
        return sequence_model_instance(n, config.sigma, config.ball, seed=seed,
                                       pattern=config.beta_pattern, magnitude=magnitude)
    cov = None if config.sigma_cov is None else np.array(config.sigma_cov, float)
    X = generate_design(DesignSpec(kind=config.design_kind, n=n, d=d,
                                   seed=derive_seed(seed, 1), sigma_cov=cov))
    beta = generate_sparse_beta(config.ball, d, pattern=config.beta_pattern,
                                magnitude=magnitude, seed=derive_seed(seed, 2))
    return simulate(X, beta, config.sigma, seed=seed, ball=config.ball)


def _run_trial(config: ExperimentConfig, n: int, d: int, trial: int) -> TrialRecord:
    seed = derive_seed(config.seed_root, n, d, trial)
    start = time.perf_counter()
    inst = _make_instance(config, n, d, seed)
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
    ``excluded_cells`` when ``enforce_scaling`` is set.  Identical
    (config, seed_root) always reproduce bit-identical records regardless of
    worker count.
    """
    jobs = []
    excluded = []
    for n in config.n_grid:
        d = config.dim_at(n)
        if config.enforce_scaling and not config.scaling_ok(n, d):
            excluded.append((n, d))
            continue
        jobs.extend((config, n, d, trial) for trial in range(config.trials_per_cell))
    if n_workers > 1:
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


# name -> (x(n, d, q, s, radius), theoretical slope of log risk against log x, given q)
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
    2 log n / n, and +1 against the composite predictors.
    """
    if predictor not in PREDICTORS:
        raise ParameterError(f"unknown predictor {predictor!r}; known: {list(PREDICTORS)}")
    x_of, theoretical_of = PREDICTORS[predictor]
    by_cell: dict = {}
    for rec in records:
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
    return RateFitResult(slope=float(slope), intercept=float(intercept),
                         r_squared=r_squared, n_points=len(xs),
                         loss_kind=loss_kind, theoretical_slope=theoretical_of(q),
                         predictor=predictor, cells=tuple(cells),
                         excluded_zero_cells=excluded)


# ---------------------------------------------------------------------------
# the l1-vs-l0 counterexample
# ---------------------------------------------------------------------------

COUNTEREXAMPLE_X = np.array([[1.0, -2.0, -1.0], [2.0, -3.0, -3.0]])
COUNTEREXAMPLE_BETA = np.array([1.0, 0.0, 0.0])


def min_l1_interpolant(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """argmin ||b||_1 subject to X b = y, via the LP split b = b+ - b-."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    d = X.shape[1]
    res = linprog(c=np.ones(2 * d), A_eq=np.hstack([X, -X]), b_eq=y,
                  bounds=(0, None), method="highs")
    if not res.success:
        raise ConsistencyError(f"interpolation LP failed: {res.message}")
    return res.x[:d] - res.x[d:]


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
        beta_l0=tuple(l0.beta_hat),
        beta_min_l1=tuple(beta_l1),
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

    Spikes are placed at the detection threshold tau sqrt(2 log n / n): with
    constant large spikes the risk decays parametrically at 1/n and the
    log-factor the theory predicts would be invisible.  Only the certified
    q = 0 and q = 1 estimators are allowed.  Runs as an ``identity_sequence``
    config through ``run_risk_experiment`` and ``fit_rate_slope``.
    """
    if ball.q not in (0.0, 1.0):
        raise ParameterError("only the certified q = 0 and q = 1 estimators run here")
    if len(n_grid) < 3:
        raise ParameterError(f"need at least 3 grid points, got {len(n_grid)}")
    if ball.q == 0.0:
        estimator = {"kind": "l0", "s": ball.s}
    else:
        estimator = {"kind": "l1", "radius": ball.radius}
    config = ExperimentConfig(ball=ball, sigma=tau, n_grid=tuple(n_grid),
                              estimator=estimator, d_rule=("proportional", 1.0),
                              design_kind="identity_sequence",
                              trials_per_cell=trials_per_cell, losses=(LossSpec.l2(),),
                              seed_root=seed_root, beta_magnitude_rule="threshold_logd")
    run = run_risk_experiment(config)
    return fit_rate_slope(run.records, "l2", predictor="two_logn_over_n", q=ball.q)


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
