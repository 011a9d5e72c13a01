"""A scaled-down risk sweep: does the measured slope match the theory?

The full acceptance experiment uses 50 trials per cell; this demo runs 12
to stay fast.  The l2 risk of the exact l0 estimator over a fixed-d grid
decays like 1/n, i.e. a log-log slope of -1.
"""

import pathlib
import tempfile

from lqminimax import BallSpec, ExperimentConfig, fit_rate_slope, run_risk_experiment
from lqminimax.harness import persist, plot_fit_svg

config = ExperimentConfig(
    ball=BallSpec(q=0.0, radius=4),
    sigma=1.0,
    n_grid=(100, 200, 400, 800),
    estimator={"kind": "l0", "s": 4},
    d_rule=("fixed", 32),
    trials_per_cell=12,
    seed_root=42,
)

run = run_risk_experiment(config)
print(f"{len(run.records)} records, config hash {run.config_hash}")
print("every trial beat the truth's objective:",
      all(r.objective_ok for r in run.records))

for loss_kind in ("l2", "pred"):
    fit = fit_rate_slope(run.records, loss_kind, predictor="n", q=0.0)
    print(f"{loss_kind}: slope {fit.slope:.3f} (theory {fit.theoretical_slope}), "
          f"r^2 {fit.r_squared:.3f}")
    for n, d, x, trimmed, raw in fit.cells:
        print(f"   n={n:5d}  trimmed mean {trimmed:.5f}  raw {raw:.5f}")

with tempfile.TemporaryDirectory() as tmp:
    out = pathlib.Path(tmp)
    persist(run, out / "records.csv", format="csv")
    persist(run, out / "records.json", format="json")
    fit = fit_rate_slope(run.records, "l2", predictor="n", q=0.0)
    plot_fit_svg(fit, out / "fit.svg")
    print("wrote", sorted(p.name for p in out.iterdir()), "to", out, "(removed on exit)")
