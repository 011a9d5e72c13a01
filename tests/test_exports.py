"""Every name a module lists in ``__all__`` resolves, so a deletion leaves no stale export;
importing the package, exact l0, the sequence model, the convex solvers, the
kernel diagnostics, the l1-vs-l0 counterexample and ``log_binomial`` load no
scipy module."""

import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import lqminimax

MODULES = sorted(info.name for info in pkgutil.iter_modules(lqminimax.__path__))


def test_modules_found():
    assert {"ballgeom", "bounds", "conditions", "estimators", "harness",
            "linmodel"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"lqminimax.{name}")
    exported = list(getattr(module, "__all__", ()))
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def _loaded_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter that sees this checkout's package;
    for each line it prints with ``mark(label)``, the scipy and
    multiprocessing modules loaded by then."""
    prelude = ("import json, sys\n"
               "def mark(label):\n"
               "    print(label, json.dumps(sorted(\n"
               "        m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing'))))\n")
    src = str(pathlib.Path(lqminimax.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", prelude + code], env=env, capture_output=True,
                         text=True, check=True)
    lines = (line.split(" ", 1) for line in out.stdout.splitlines())
    return {label: json.loads(mods) for label, mods in lines}


def test_import_defers_heavy_scipy_modules():
    # each scipy submodule is imported inside the function that uses it, and the
    # process pool inside the n_workers > 1 branch
    assert _loaded_after("import lqminimax\nmark('import')") == {"import": []}


def test_exact_l0_grid_and_fit_load_no_scipy():
    # n = 20 < d = 32 takes the unpruned fallback and n = 40, 80 the bound factor;
    # the sequence model at q = 0 and q = 1 is a projection; the l1, lasso and lq
    # solvers' Lanczos bound takes its Ritz pairs from numpy, and the kernel
    # diagnostics their basis from numpy's SVD
    loaded = _loaded_after(
        "import numpy as np\n"
        "from lqminimax import BallSpec, ExperimentConfig, corollary1_experiment, "
        "fit_rate_slope, l1_constrained_ls, run_risk_experiment\n"
        "cfg = ExperimentConfig(ball=BallSpec(0.0, 4), sigma=1.0, n_grid=(20, 40, 80),\n"
        "                       estimator={'kind': 'l0', 's': 4}, d_rule=('fixed', 32),\n"
        "                       trials_per_cell=2, seed_root=1)\n"
        "fit_rate_slope(run_risk_experiment(cfg).records, 'l2', q=0.0)\n"
        "mark('l0')\n"
        "corollary1_experiment((16, 32, 64), 1.0, BallSpec(0.0, 2), trials_per_cell=2)\n"
        "mark('seq_q0')\n"
        "corollary1_experiment((16, 32, 64), 1.0, BallSpec(1.0, 2.0), trials_per_cell=2)\n"
        "mark('seq_q1')\n"
        "X = np.random.default_rng(0).standard_normal((20, 10))\n"
        "l1_constrained_ls(X, X[:, 0], 1.0)\n"
        "mark('l1')\n"
        "from lqminimax import REParams, kernel_diameter, lasso, lq_constrained_ls, re_constant\n"
        "res = lasso(X, X[:, 0], 0.01)\n"
        "assert res.info['lipschitz_steps'] > 0\n"  # below lam_max: Lanczos ran
        "mark('lasso')\n"
        "lq_constrained_ls(X, X[:, 0], BallSpec(0.5, 1.0), [np.zeros(10)])\n"
        "mark('lq')\n"
        "W = X[:6]\n"  # 6 x 10: a kernel of dimension 4
        "kernel_diameter(W, BallSpec(1.0, 1.0))\n"
        "mark('kernel_diameter')\n"
        "re_constant(W, REParams(s=2, c0=1.0), mode='exact_tiny', n_samples=50, seed=0)\n"
        "mark('re_exact_tiny')\n")
    assert loaded["l0"] == loaded["seq_q0"] == loaded["seq_q1"] == []
    assert loaded["l1"] == []
    assert loaded["lasso"] == loaded["lq"] == []
    assert loaded["kernel_diameter"] == loaded["re_exact_tiny"] == []


def test_counterexample_and_log_binomial_load_no_scipy():
    # the min-l1 interpolant enumerates bases with numpy; log-gamma is math.lgamma
    loaded = _loaded_after(
        "from lqminimax import counterexample_scenario, log_binomial\n"
        "log_binomial(1024, 5)\n"
        "mark('log_binomial')\n"
        "assert counterexample_scenario().all_ok\n"
        "mark('counterexample')\n")
    assert loaded == {"log_binomial": [], "counterexample": []}
