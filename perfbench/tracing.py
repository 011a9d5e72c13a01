"""Outside tracing: timing wrappers installed on the library's module attributes.

The package binds names with ``from ... import``, so a function is reached
through every module that imported it.  ``Tracer.install`` replaces the
function object on each ``lqminimax`` module attribute that holds it, which
is the attribute looked up at call time, and ``restore`` puts the originals
back.  Spans are kept in memory: name, start, end, parent span, unit id
(the trial, or the top-level call) and, for the four estimators, the work
count read from the returned ``EstimateResult``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# Public functions of each layer that get a span.  A name missing from the
# library (renamed or deleted later) is skipped and reports zero calls.
LAYERS = {
    "linmodel": ("derive_seed", "generate_design", "generate_sparse_beta", "simulate",
                 "sequence_model_instance", "loss"),
    "estimators": ("l0_least_squares", "l1_constrained_ls", "lq_constrained_ls", "lasso",
                   "sigma_max_power_iteration", "check_basic_inequality"),
    "ballgeom": ("project_l1", "project_lq_heuristic", "ball_contains", "hamming_packing",
                 "rescale_hypercube_packing"),
    "conditions": ("diagnose", "sparse_spectrum", "kernel_trivial_zero", "re_constant",
                   "kernel_diameter", "verify_prop1"),
    "bounds": ("sup_correlation_pred_exact",),
    "harness": ("run_risk_experiment", "corollary1_experiment", "fit_rate_slope",
                "counterexample_scenario"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
ESTIMATORS = ("estimators.l0_least_squares", "estimators.l1_constrained_ls",
              "estimators.lq_constrained_ls", "estimators.lasso")

# Calls that begin a new unit (a trial) without being a span themselves.
UNIT_MARKERS = (("harness", "_run_trial"),)
# Spans that begin a new unit: one sequence-model instance per trial.
UNIT_SPANS = ("linmodel.sequence_model_instance",)

# span fields
NAME, START, END, PARENT, UNIT, WORK, CONVERGED = range(7)


def _work(name: str, result) -> tuple:
    """(work count, converged) of an estimator result; l0 counts supports."""
    if name == "estimators.l0_least_squares":
        return int(result.info.get("n_supports", 0)), bool(result.converged)
    return int(result.iterations), bool(result.converged)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._unit = -1
        self._patches: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "lqminimax" or name.startswith("lqminimax."))]
        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"lqminimax.{layer}")
            for fn in fns:
                original = getattr(home, fn, None)
                if original is not None:
                    self._patch(modules, original, self._span_wrapper(f"{layer}.{fn}", original))
        for layer, fn in UNIT_MARKERS:
            original = getattr(importlib.import_module(f"lqminimax.{layer}"), fn, None)
            if original is not None:
                self._patch(modules, original, self._unit_wrapper(original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_estimator = name in ESTIMATORS
        starts_unit = name in UNIT_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_unit or not stack:
                self._unit += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._unit, 0, True]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if is_estimator:
                span[WORK], span[CONVERGED] = _work(name, result)
            return result

        return wrapper

    def _unit_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._unit += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- reduction --------------------------------------------------------

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        # the installed wrappers hold this list object, so it is emptied in place
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarize(spans: list) -> dict:
    """Per-name calls, self time, work and unconverged count, plus top-level time.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it because the library runs one call at a
    time.
    """
    child_time = [0.0] * len(spans)
    top_level = 0.0
    for span in spans:
        duration = span[END] - span[START]
        if span[PARENT] < 0:
            top_level += duration
        else:
            child_time[span[PARENT]] += duration
    stats = {name: {"calls": 0, "self_s": 0.0, "work": 0, "unconverged": 0}
             for name in SPAN_NAMES}
    latencies = {name: [] for name in ESTIMATORS}
    for span, children in zip(spans, child_time):
        entry = stats[span[NAME]]
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["self_s"] += duration - children
        entry["work"] += span[WORK]
        entry["unconverged"] += not span[CONVERGED]
        if span[NAME] in latencies:
            latencies[span[NAME]].append(duration)
    return {"stats": stats, "latencies": latencies, "top_level_s": top_level}
