"""Command-line entry points.

Subcommands: simulate, check-design, fit-rate, pack, rates, counterexample.
All randomness is controlled through --seed; outputs are JSON on stdout and
optional CSV/JSON/SVG files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from . import ballgeom, bounds, conditions, harness, linmodel
from .errors import DimensionError, ParameterError
from .estimators import check_basic_inequality


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    """One trial's instance, built as the harness builds it from the trial seed --seed."""
    if args.design == "identity_sequence" and args.d != args.n:
        raise DimensionError(f"identity_sequence requires n == d, got n={args.n}, d={args.d}")
    ball = linmodel.BallSpec(q=args.q, radius=args.radius)
    # the config only builds the instance here, but it must name a known
    # estimator kind, so "none" stands in as l1, which is never run
    solve = args.estimator != "none"
    estimator = {"kind": args.estimator if solve else "l1", "radius": args.radius,
                 "lam": args.lam}
    if args.estimator == "l0":
        estimator["s"] = args.s or ball.s
    d_rule = ("proportional", 1.0) if args.design == "identity_sequence" else ("fixed", args.d)
    config = harness.ExperimentConfig(
        ball=ball, sigma=args.sigma, n_grid=(args.n,), estimator=estimator, d_rule=d_rule,
        design_kind=args.design, beta_pattern=args.pattern, beta_magnitude=args.magnitude)
    inst = harness._make_instance(config, args.n, args.d, args.seed)
    doc = {"n": inst.n, "d": inst.d, "sigma": inst.sigma, "seed": inst.seed,
           "beta_support": np.flatnonzero(inst.beta_star).tolist()}

    if solve:
        result = harness._run_estimator(estimator, inst)
        check = check_basic_inequality(inst, result)
        doc["estimate"] = result.to_json_dict()
        doc["losses"] = {sp.name: linmodel.loss(sp, inst.X, result.beta_hat, inst.beta_star)
                         for sp in config.losses}
        doc["objective_ok"] = check.objective_ok

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(linmodel.instance_to_json(inst))
        doc["instance_file"] = args.out
    if args.out_csv:
        linmodel.instance_to_csv(inst, args.out_csv)
    _emit(doc)
    return 0


# ---------------------------------------------------------------------------
# check-design
# ---------------------------------------------------------------------------


def _load_matrix(path: str) -> np.ndarray:
    if path.endswith(".json"):
        with open(path) as fh:
            doc = json.load(fh)
        if "X" in doc and "n" in doc:
            return np.array(doc["X"], dtype=float).reshape(int(doc["n"]), int(doc["d"]))
        return np.array(doc["X"], dtype=float)
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _cmd_check_design(args) -> int:
    X = _load_matrix(args.input)
    diag = conditions.diagnose(X, s=args.s, c0=args.c0, seed=args.seed)
    doc = diag.to_json_dict()
    ok = True
    if args.require_kernel_trivial and not diag.kernel_trivial:
        ok = False
    if diag.re_constant < args.min_re:
        ok = False
    if args.max_kappa_c is not None and diag.kappa_c > args.max_kappa_c:
        ok = False
    doc["assumptions_hold"] = ok
    _emit(doc)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# fit-rate
# ---------------------------------------------------------------------------


def _cmd_fit_rate(args) -> int:
    with open(args.config) as fh:
        doc = json.load(fh)
    if args.seed is not None:
        doc["seed_root"] = args.seed
    config = harness.ExperimentConfig.from_json_dict(doc)
    run = harness.run_risk_experiment(config, n_workers=args.workers)
    fit = harness.fit_rate_slope(run.records, loss_kind=args.loss,
                                 predictor=args.predictor, q=config.ball.q,
                                 s=int(config.ball.radius) if config.ball.q == 0 else None,
                                 radius=config.ball.radius)
    if args.out_records:
        fmt = "json" if args.out_records.endswith(".json") else "csv"
        harness.persist(run, args.out_records, format=fmt)
    if args.plot:
        harness.plot_fit_svg(fit, args.plot)
    out = fit.to_json_dict()
    out["config_hash"] = run.config_hash
    out["excluded_cells"] = [list(c) for c in run.excluded_cells]
    _emit(out)
    return 0


# ---------------------------------------------------------------------------
# pack
# ---------------------------------------------------------------------------


def _cmd_pack(args) -> int:
    packing = ballgeom.hamming_packing(args.d, args.s)
    doc = {
        "kind": "hamming",
        "d": args.d,
        "s": args.s,
        "cardinality": packing.cardinality,
        "min_distance": packing.min_pairwise_distance,
        "guaranteed_cardinality": ballgeom.required_hamming_cardinality(args.d, args.s),
    }
    if args.rescale is not None:
        packing = ballgeom.rescale_hypercube_packing(packing, args.rescale, args.s)
        doc["rescaled_delta"] = args.rescale
        doc["rescaled_min_distance"] = packing.min_pairwise_distance
    if args.out:
        ballgeom.packing_to_csv(packing, args.out)
        doc["out"] = args.out
    _emit(doc)
    return 0


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def _parse_params(items) -> dict:
    out = {}
    for item in items:
        for piece in item.split(","):
            if not piece:
                continue
            key, _, value = piece.partition("=")
            try:
                out[key.strip()] = float(value)
            except ValueError:
                raise ParameterError(f"--params {piece!r} is not key=number") from None
    return out


# --params key -> RateQuery field: every numeric field under its own name, plus
# the names the formulas use (Rq and s for radius, tau for sigma); c is constants["c"]
_RATE_PARAMS = {
    **{f.name: f.name for f in fields(bounds.RateQuery) if f.name not in ("theorem", "constants")},
    "Rq": "radius", "s": "radius", "tau": "sigma",
}


def _cmd_rates(args) -> int:
    params = _parse_params(args.params or [])
    constants = {"c": params.pop("c")} if "c" in params else {}
    unknown = sorted(set(params) - set(_RATE_PARAMS))
    if unknown:
        raise ParameterError(
            f"unknown --params keys {unknown}; the keys are {[*_RATE_PARAMS, 'c']}")
    values = {}
    for key, value in params.items():
        name = _RATE_PARAMS[key]
        if name in values:
            raise ParameterError(f"--params sets {name} twice")
        values[name] = int(value) if name in ("n", "d") else value
    if "n" not in values:
        raise ParameterError("--params needs n")
    query = bounds.RateQuery(theorem=args.theorem, constants=constants, **values)
    _emit({
        "theorem": args.theorem,
        "value": bounds.minimax_rate(query),
        "formula": bounds.rate_formula(args.theorem),
        # the constants the value depends on: c for theorems with a generic constant
        "constants_used": constants if bounds._RATES[args.theorem].generic else {},
    })
    return 0


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------


def _cmd_counterexample(args) -> int:
    report = harness.counterexample_scenario()
    _emit(report.to_json_dict())
    return 0 if report.all_ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lqminimax")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="one instance end-to-end")
    p.add_argument("--design", default=harness.ExperimentConfig.design_kind,
                   choices=["standard_gaussian", "identity_sequence"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pattern", default=harness.ExperimentConfig.beta_pattern,
                   choices=list(linmodel._PATTERNS))
    p.add_argument("--magnitude", type=float, default=harness.ExperimentConfig.beta_magnitude)
    p.add_argument("--estimator", default="none",
                   choices=["none", *harness._ESTIMATORS])
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p.add_argument("--out", default=None, help="write instance JSON here")
    p.add_argument("--out-csv", default=None, help="write y and beta_star CSV here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check-design", help="measure design constants")
    p.add_argument("--input", required=True, help="design matrix (.csv or .json)")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--c0", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--require-kernel-trivial", action="store_true")
    p.add_argument("--min-re", type=float, default=0.0)
    p.add_argument("--max-kappa-c", type=float, default=None)
    p.set_defaults(func=_cmd_check_design)

    p = sub.add_parser("fit-rate", help="run an experiment config and fit slopes")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--loss", default="l2")
    p.add_argument("--predictor", default="n", choices=list(harness.PREDICTORS))
    p.add_argument("--seed", type=int, default=None, help="override seed_root")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-records", default=None)
    p.add_argument("--plot", default=None, help="write an SVG of the fit here")
    p.set_defaults(func=_cmd_fit_rate)

    p = sub.add_parser("pack", help="hypercube packing construction")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--rescale", type=float, default=None,
                   help="also rescale to an l2 packing with this delta_n")
    p.add_argument("--out", default=None, help="CSV path (JSON sidecar added)")
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("rates", help="evaluate a rate formula")
    p.add_argument("--theorem", required=True, choices=list(bounds.THEOREMS))
    p.add_argument("--params", action="append", default=[],
                   help="comma-separated k=v pairs, e.g. n=100,d=32,sigma=1; the keys are "
                        "RateQuery's numeric fields, Rq or s for radius, tau for sigma, and c")
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("counterexample", help="run the l1-vs-l0 scenario")
    p.set_defaults(func=_cmd_counterexample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
