"""The five benchmark workloads and the checks that decide their failures.

Each workload puts one layer of ``lqminimax`` on the critical path and
leaves the others idle (see ``README.md`` in this directory for the reason
behind each one).  A workload is built from a seed and a size table; the
library receives only the configs, designs and instances made here.

A workload's ``plan()`` lists the units of work its checked result needs,
in order: single trials, single calls, and for the grids the final fits.
Each unit carries a timing class, the key under which its times are pooled;
units of one class do the same work.  ``run_unit()`` makes one unit's
library calls, checks the outputs, and returns an ``Outcome`` that counts
operations and failures and hashes the outputs.  Library modules are looked
up as attributes at call time (``linmodel.generate_design``), so the outside
tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from lqminimax import ballgeom, bounds, conditions, estimators, harness, linmodel

SEED = 20260808  # the acceptance suite's seed; every band also holds at seed 7

N_GRID = (100, 200, 400, 800, 1600)
SEQ_GRID = (256, 512, 1024, 2048)

# Run length per workload.  "full" is what the benchmark measures; "tiny"
# only keeps the benchmark's own tests fast, and its fits are not expected
# to meet the bands.
SIZES = {
    "full": {
        "q0_exact_grid": {"trials_per_cell": 50},
        "q1_l1_grid": {"trials_per_cell": 10},
        "seq_model": {"trials_per_cell": 50},
        "soft_sparse": {"instances": 16, "n": 100, "d": 64},
        "design_checks": {"diag_d": 14, "diag_designs": 6, "prop1_draws": 5,
                          "zero_col_d": 16, "packing_d": 8},
    },
    "tiny": {
        "q0_exact_grid": {"trials_per_cell": 1},
        "q1_l1_grid": {"trials_per_cell": 1},
        "seq_model": {"trials_per_cell": 2},
        "soft_sparse": {"instances": 2, "n": 40, "d": 16},
        "design_checks": {"diag_d": 12, "diag_designs": 1, "prop1_draws": 1,
                          "zero_col_d": 10, "packing_d": 8},
    },
}

# Bands copied verbatim from tests/test_acceptance.py (criteria 2-5).
Q0_SLOPE_BAND = (-1.15, -0.85)
Q0_MIN_R2 = 0.95
Q1_SLOPE_BAND = (-0.65, -0.35)
Q1_MIN_R2 = 0.9
SEQ_SLOPE_TOL = 0.2

SOFT_BALL_Q = 0.5
SOFT_BALL_RADIUS = 2.0
LASSO_LAM = 0.25
LASSO_KKT_TOL = 1e-8
OBJECTIVE_RTOL = 1e-10  # criterion 11's tolerance for l0 against brute force
# Sampled RE and kernel-diameter directions per diagnose call.  The default
# of 2000 would make sampling, not the support enumerations, most of the call.
DIAG_SAMPLES = 200


@dataclass
class Outcome:
    """One unit: operations attempted, failures by kind, an output hash, a summary."""

    attempted: int
    failures: Counter = field(default_factory=Counter)
    digest: str | None = None
    summary: dict = field(default_factory=dict)


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _records_digest(records) -> str:
    """Hash of every record's keys and losses in record order (no timings)."""
    return _hash("".join(
        f"{rec.n},{rec.d},{rec.trial},{rec.seed},"
        + ",".join(f"{k}={rec.losses[k]!r}" for k in sorted(rec.losses))
        + f",{rec.objective_ok};" for rec in records))


def _in_band(value: float, band: tuple) -> bool:
    return band[0] <= value <= band[1]


def _child_seed(seed: int, *parts: int) -> int:
    """Instance seeds drawn by the benchmark itself, independent of the library."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1, np.uint64)[0])


class Workload:
    name = ""

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.size = size

    def warmup(self) -> None:
        """One small call through the workload's entry point, before timing."""

    def prepare(self) -> None:
        """Reference results the checks need, computed outside the timed section."""

    def plan(self) -> list:
        """``(timing class, unit)`` for each unit the checked result needs, in order."""
        raise NotImplementedError

    def run_unit(self, unit) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# grid workloads: run_risk_experiment, then fit_rate_slope
# ---------------------------------------------------------------------------


class _GridWorkload(Workload):
    """One ``run_risk_experiment`` call per trial, then the fits on all records.

    Trial ``c`` of cell ``n`` is the one trial of a single-cell grid whose
    seed root the benchmark derives from its seed and ``c``.  The fits pool
    the records of every trial of the plan.
    """

    n_fits = 0
    # True when every trial of a cell does the same work whatever its data,
    # so the cell's trials share one timing class
    same_work_per_cell = False

    def __init__(self, seed: int, size: dict):
        super().__init__(seed, size)
        self.records: dict = {}

    def config(self, trials: int, n_grid=N_GRID, seed_root=None):
        raise NotImplementedError

    def check_fits(self, records, out: Outcome) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        harness.run_risk_experiment(self.config(1, n_grid=(20, 40, 80)))

    def plan(self) -> list:
        trials = [(n if self.same_work_per_cell else (c, n), (c, n))
                  for c in range(self.size["trials_per_cell"]) for n in N_GRID]
        return trials + [("fit", "fit")]

    def run_unit(self, unit) -> Outcome:
        if unit == "fit":
            return self._run_fits()
        c, n = unit
        out = Outcome(attempted=1)
        cfg = self.config(1, n_grid=(n,), seed_root=_child_seed(self.seed, c))
        try:
            run = harness.run_risk_experiment(cfg)
        except Exception as exc:  # a trial that raises is a failed operation
            out.failures["trial_raised"] += 1
            out.summary["error"] = repr(exc)
            return out
        self.records[unit] = run.records
        out.digest = _records_digest(run.records)
        return out

    def _run_fits(self) -> Outcome:
        out = Outcome(attempted=self.n_fits)
        trials = [unit for _, unit in self.plan()[:-1]]
        if any(unit not in self.records for unit in trials):
            out.failures["fit_without_records"] += self.n_fits
            return out
        self.check_fits([rec for unit in trials for rec in self.records[unit]], out)
        out.digest = _hash(repr(sorted(out.summary.items())))
        return out

    def _fit(self, records, loss_kind: str, q: float, out: Outcome):
        try:
            fit = harness.fit_rate_slope(records, loss_kind, "n", q=q)
        except Exception as exc:  # a fit that raises is a failed operation
            out.failures["fit_raised"] += 1
            out.summary[f"{loss_kind}_error"] = repr(exc)
            return None
        out.summary[f"{loss_kind}_slope"] = fit.slope
        out.summary[f"{loss_kind}_r2"] = fit.r_squared
        return fit


class Q0ExactGrid(_GridWorkload):
    name = "q0_exact_grid"
    n_fits = 2
    same_work_per_cell = True  # every l0 solve enumerates all C(32, 4) supports

    def config(self, trials, n_grid=N_GRID, seed_root=None):
        return harness.ExperimentConfig(
            ball=linmodel.BallSpec(0.0, 4), sigma=1.0, n_grid=n_grid,
            estimator={"kind": "l0", "s": 4}, d_rule=("fixed", 32),
            trials_per_cell=trials, seed_root=self.seed if seed_root is None else seed_root)

    def check_fits(self, records, out):
        l2 = self._fit(records, "l2", 0.0, out)
        if l2 is not None and not (_in_band(l2.slope, Q0_SLOPE_BAND)
                                   and l2.r_squared >= Q0_MIN_R2):
            out.failures["l2_fit_out_of_band"] += 1
        pred = self._fit(records, "pred", 0.0, out)
        if pred is not None and not _in_band(pred.slope, Q0_SLOPE_BAND):
            out.failures["pred_fit_out_of_band"] += 1


class Q1L1Grid(_GridWorkload):
    name = "q1_l1_grid"
    n_fits = 1

    def config(self, trials, n_grid=N_GRID, seed_root=None):
        return harness.ExperimentConfig(
            ball=linmodel.BallSpec(1.0, 4.0), sigma=1.0, n_grid=n_grid,
            estimator={"kind": "l1", "radius": 4.0, "max_iter": 3000, "tol": 1e-6},
            d_rule=("proportional", 0.5), trials_per_cell=trials,
            beta_magnitude_rule="threshold_logd",
            seed_root=self.seed if seed_root is None else seed_root)

    def check_fits(self, records, out):
        fit = self._fit(records, "l2", 1.0, out)
        if fit is not None and not (_in_band(fit.slope, Q1_SLOPE_BAND)
                                    and fit.r_squared >= Q1_MIN_R2):
            out.failures["l2_fit_out_of_band"] += 1


# ---------------------------------------------------------------------------
# sequence model: corollary1_experiment
# ---------------------------------------------------------------------------


class SeqModel(Workload):
    name = "seq_model"
    ball = linmodel.BallSpec(0.0, 5)

    def warmup(self) -> None:
        harness.corollary1_experiment((16, 32, 64), tau=1.0, ball=self.ball,
                                      trials_per_cell=1, seed_root=self.seed)

    def plan(self) -> list:
        return [("fit", "fit")]  # the experiment fits inside one call

    def run_unit(self, unit) -> Outcome:
        out = Outcome(attempted=1)
        try:
            fit = harness.corollary1_experiment(
                SEQ_GRID, tau=1.0, ball=self.ball,
                trials_per_cell=self.size["trials_per_cell"], seed_root=self.seed)
        except Exception as exc:  # the fit is the only operation
            out.failures["fit_raised"] += 1
            out.summary["error"] = repr(exc)
            return out
        # the records stay inside the harness; the fitted cells stand in for them
        out.digest = _hash(repr(fit.cells))
        out.summary.update(slope=fit.slope, r2=fit.r_squared)
        if abs(fit.slope - 1.0) > SEQ_SLOPE_TOL:
            out.failures["fit_out_of_band"] += 1
        return out


# ---------------------------------------------------------------------------
# soft sparsity: direct lq_constrained_ls and lasso calls
# ---------------------------------------------------------------------------


class SoftSparse(Workload):
    name = "soft_sparse"
    ball = linmodel.BallSpec(SOFT_BALL_Q, SOFT_BALL_RADIUS)

    def _instance(self, i: int, n: int, d: int):
        seed = _child_seed(self.seed, i)
        X = linmodel.generate_design(linmodel.DesignSpec(
            "standard_gaussian", n=n, d=d, seed=_child_seed(seed, 1)))
        magnitude = math.sqrt(2.0 * math.log(d) / n)  # detection scale, sigma = 1
        beta = linmodel.generate_sparse_beta(self.ball, d, magnitude=magnitude,
                                             seed=_child_seed(seed, 2))
        return linmodel.simulate(X, beta, 1.0, seed=seed, ball=self.ball)

    def warmup(self) -> None:
        inst = self._instance(10**6, 20, 8)  # an index no unit uses
        estimators.lq_constrained_ls(inst.X, inst.y, self.ball,
                                     [inst.beta_star, np.zeros(inst.d)])
        estimators.lasso(inst.X, inst.y, LASSO_LAM)

    def plan(self) -> list:
        return [(i, i) for i in range(self.size["instances"])]

    def run_unit(self, unit) -> Outcome:
        out = Outcome(attempted=2)
        objectives = []
        inst = self._instance(unit, self.size["n"], self.size["d"])
        self._check_lq(inst, out, objectives)
        self._check_lasso(inst, out, objectives)
        out.digest = _hash(repr(objectives))
        return out

    def _check_lq(self, inst, out, objectives) -> None:
        # starts in the harness's order: oracle first, then zero
        starts = [inst.beta_star, np.zeros(inst.d)]
        try:
            res = estimators.lq_constrained_ls(inst.X, inst.y, self.ball, starts)
            ok_objective = estimators.check_basic_inequality(inst, res).objective_ok
        except Exception:  # a raising solve is a failed operation
            out.failures["lq_raised"] += 1
            return
        objectives.append(res.objective)
        qmass = float(np.sum(np.abs(res.beta_hat) ** SOFT_BALL_Q))
        if not res.feasible or qmass > SOFT_BALL_RADIUS + 1e-8:
            out.failures["lq_infeasible"] += 1
        elif not ok_objective:
            out.failures["lq_beaten_by_truth"] += 1

    def _check_lasso(self, inst, out, objectives) -> None:
        try:
            res = estimators.lasso(inst.X, inst.y, LASSO_LAM)
        except Exception:  # a raising solve is a failed operation
            out.failures["lasso_raised"] += 1
            return
        objectives.append(res.objective)
        n = inst.n
        grad = inst.X.T @ (inst.y - inst.X @ res.beta_hat) / n
        on = res.beta_hat != 0.0
        kkt = max(float(np.max(np.abs(grad[on] - LASSO_LAM * np.sign(res.beta_hat[on])),
                               initial=0.0)),
                  float(np.max(np.abs(grad[~on]) - LASSO_LAM, initial=0.0)))
        if not res.converged:
            out.failures["lasso_unconverged"] += 1
        elif max(res.info["kkt_residual"], kkt) > LASSO_KKT_TOL:
            out.failures["lasso_kkt"] += 1


# ---------------------------------------------------------------------------
# design checks: conditions, bounds, packings and the l0 slow path
# ---------------------------------------------------------------------------


def _brute_force_l0(X: np.ndarray, y: np.ndarray, s: int) -> float:
    """Smallest residual over every size-s support, one lstsq per support."""
    best = math.inf
    for support in combinations(range(X.shape[1]), s):
        b, *_ = np.linalg.lstsq(X[:, support], y, rcond=None)
        r = y - X[:, support] @ b
        best = min(best, float(r @ r))
    return best


class DesignChecks(Workload):
    name = "design_checks"
    # the library calls each check counts as
    CALLS = {"diagnose_large": 1, "re_below_kappa": 2, "diagnose_tiny": 1, "prop1_identity": 1,
             "prop1_spiked": 1, "packing": 2, "sup_correlation": 1, "counterexample": 1,
             "l0_zero_column": 1}

    def _gaussian(self, n: int, d: int, *parts: int) -> np.ndarray:
        return linmodel.generate_design(linmodel.DesignSpec(
            "standard_gaussian", n=n, d=d, seed=_child_seed(self.seed, *parts)))

    def _zero_column_problem(self):
        d = self.size["zero_col_d"]
        X = np.array(self._gaussian(2 * d + 12, d, 5))
        # A zero column makes every Gram solve that includes it exactly
        # singular, so l0 takes the per-support lstsq fallback whatever the
        # seed (a duplicated column does so only on some seeds).
        X[:, d - 1] = 0.0
        rng = np.random.default_rng(_child_seed(self.seed, 6))
        y = X[:, :4] @ np.ones(4) + rng.standard_normal(X.shape[0])
        return X, y

    def warmup(self) -> None:
        harness.counterexample_scenario()

    def prepare(self) -> None:
        X, y = self._zero_column_problem()
        self.l0_reference = _brute_force_l0(X, y, 4)

    def plan(self) -> list:
        """Each check once, except that diagnose and prop1 repeat on fresh draws.

        Repeats of a check do the same work on other data, so they share a
        timing class: short units, many samples.
        """
        size = self.size
        units = [("diagnose_large", (j,)) for j in range(size["diag_designs"])]
        units += [("re_below_kappa", ()), ("diagnose_tiny", ())]
        for check in ("prop1_identity", "prop1_spiked"):
            units += [(check, (k,)) for k in range(size["prop1_draws"])]
        units += [(check, ()) for check in ("packing", "sup_correlation", "counterexample",
                                            "l0_zero_column")]
        return [(unit[0], unit) for unit in units]  # the check names the class

    def run_unit(self, unit) -> Outcome:
        check, args = unit
        out = Outcome(attempted=self.CALLS[check])
        try:
            out.digest = _hash(repr(getattr(self, f"_{check}")(out, *args)))
        except Exception as exc:  # each check's calls raise or fail alone
            out.failures[f"{check}_raised"] += 1
            out.summary[check] = repr(exc)
        return out

    def _diagnose_large(self, out, j: int) -> tuple:
        d = self.size["diag_d"]
        diag = conditions.diagnose(self._gaussian(2 * d, d, 1, j), s=3, n_samples=DIAG_SAMPLES)
        out.summary["kappa_l"], out.summary["kappa_u"] = diag.kappa_l, diag.kappa_u
        if not diag.kappa_l <= diag.kappa_u:
            out.failures["kappa_order"] += 1
        return diag.kappa_l, diag.kappa_u

    def _re_below_kappa(self, out) -> tuple:
        # criterion 10: the sampled RE constant over the s = 2 cone never
        # exceeds the exact minimum over 2-sparse vectors
        X = self._gaussian(2 * self.size["diag_d"], self.size["diag_d"], 1, 0)
        re = conditions.re_constant(X, conditions.REParams(s=2, c0=3.0),
                                    mode="sampled", n_samples=400, seed=self.seed)
        kappa_l, _ = conditions.sparse_spectrum(X, s=1)
        if re.method != "sampled_upper" or re.value > kappa_l + 1e-12:
            out.failures["re_above_kappa"] += 1
        return re.value, kappa_l

    def _diagnose_tiny(self, out) -> tuple:
        diag = conditions.diagnose(self._gaussian(24, 12, 2), s=2, n_samples=DIAG_SAMPLES)
        if diag.re_method != "exact_tiny" or not diag.kappa_l <= diag.kappa_u:
            out.failures["exact_tiny_diagnose"] += 1
        return diag.kappa_l, diag.kappa_u

    def _prop1(self, out, cov: np.ndarray, *parts: int) -> tuple:
        # criterion 8: identity and spiked covariances at 200 x 400, one
        # design draw and 1000 directions per unit
        seed = _child_seed(self.seed, *parts)
        spec = linmodel.DesignSpec("correlated_gaussian", n=200, d=cov.shape[0], seed=seed,
                                   sigma_cov=cov)
        report = conditions.verify_prop1(spec, n_draws=1, n_directions=1000, seed=seed)
        if report.lower_violations or report.upper_violations or report.n_checks != 1000:
            out.failures["prop1_violations"] += 1
        return report.lower_violations, report.upper_violations, report.n_checks

    def _prop1_identity(self, out, k: int) -> tuple:
        return self._prop1(out, np.eye(400), 3, k)

    def _prop1_spiked(self, out, k: int) -> tuple:
        return self._prop1(out, np.diag([4.0] + [1.0] * 399), 4, k)

    def _packing(self, out) -> tuple:
        d, s, delta = self.size["packing_d"], 4, 0.75
        packing = ballgeom.hamming_packing(d, s)
        packing.verify()  # raises when the certificate fails
        if packing.cardinality < ballgeom.required_hamming_cardinality(d, s):
            out.failures["packing_too_small"] += 1
        scaled = ballgeom.rescale_hypercube_packing(packing, delta, s)
        # criterion 6's row-by-row check of delta^2 <= ||b - b'||^2 <= 8 delta^2
        pts = scaled.points
        for i in range(len(pts) - 1):
            sq = np.sum((pts[i + 1:] - pts[i]) ** 2, axis=1)
            if sq.min() < delta**2 - 1e-12 or sq.max() > 8 * delta**2 + 1e-12:
                out.failures["rescaled_packing"] += 1
                break
        return packing.cardinality, float(np.sum(pts))

    def _sup_correlation(self, out) -> tuple:
        n, d, s, r = 40, 16, 2, 1.0
        X = self._gaussian(n, d, 7)
        w = np.random.default_rng(_child_seed(self.seed, 8)).standard_normal(n)
        sup = bounds.sup_correlation_pred_exact(X, w, s, r)
        # the supremum dominates the value on any one support
        q, _ = np.linalg.qr(X[:, : 2 * s])
        one_support = r * float(np.linalg.norm(q.T @ w)) / math.sqrt(n)
        if not one_support <= sup + 1e-12:
            out.failures["sup_correlation_below_support"] += 1
        return (sup,)

    def _counterexample(self, out) -> tuple:
        ok = harness.counterexample_scenario().all_ok
        if not ok:
            out.failures["counterexample"] += 1
        return (ok,)

    def _l0_zero_column(self, out) -> tuple:
        X, y = self._zero_column_problem()
        res = estimators.l0_least_squares(X, y, 4)
        ref = self.l0_reference
        if abs(res.objective - ref) > OBJECTIVE_RTOL * max(ref, 1.0):
            out.failures["l0_objective_mismatch"] += 1
        return (res.objective,)


WORKLOADS = {cls.name: cls for cls in (Q0ExactGrid, Q1L1Grid, SeqModel, SoftSparse,
                                       DesignChecks)}


def build(name: str, seed: int, size: str = "full") -> Workload:
    return WORKLOADS[name](seed, SIZES[size][name])
