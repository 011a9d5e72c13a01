"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench/tests -q

Tiny fits do not meet the acceptance bands, so these tests look at what the
benchmark reports, not at whether the library passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (also puts the library sources on sys.path)
import workloads  # noqa: E402
from lqminimax import estimators, harness  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)
EXACT_COUNTS = (".calls", ".supports", ".iterations", ".sweeps", ".unconverged")


def tiny(name, trace, seed=workloads.SEED):
    return run.run_workload(name, seed, 0.0, trace, size="tiny", probes=1)


@pytest.fixture(scope="module")
def results():
    return {(name, trace): tiny(name, trace) for name in NAMES for trace in (False, True)}


def test_declared_workloads_exist():
    assert {w["name"] for w in DECLARED["workloads"]} <= set(NAMES)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_prints_with_its_unit(results, name, trace):
    result, lines = results[name, trace]
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        key: metric["unit"] for key, metric in result["metrics"].items()}
    for key, metric in result["metrics"].items():
        assert any(line.startswith(f"metric {key} ") and line.endswith(f" {metric['unit']}")
                   for line in lines), key
    assert any(line.startswith("metric fail_share ") for line in lines)
    env = json.loads(lines[0].removeprefix("env "))
    assert env["seed"] == workloads.SEED and env["nproc"] >= 1
    assert set(env["blas_threads"].values()) == {1}


@pytest.mark.parametrize("name", NAMES)
def test_exact_counts_repeat(results, name):
    first = results[name, True][0]["metrics"]
    second = tiny(name, True)[0]["metrics"]
    counts = {k for k in first if k.endswith(EXACT_COUNTS)}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_tracer_restores_the_library(results):
    assert not hasattr(harness.l0_least_squares, "__wrapped__")
    assert not hasattr(estimators.project_l1, "__wrapped__")


def test_q0_counts_supports_of_every_solve(results):
    metrics = results["q0_exact_grid", True][0]["metrics"]
    solves = metrics["estimators.l0_least_squares.calls"]["value"]
    assert solves == len(workloads.N_GRID)  # one trial per cell
    assert metrics["estimators.l0_least_squares.supports"]["value"] == solves * 35_960


def test_a_raising_solve_counts_in_fail_share(results, monkeypatch):
    baseline = results["q0_exact_grid", False][0]
    real = harness.l0_least_squares

    def flaky(X, y, s):
        if X.shape[0] == 200:  # one cell of the grid; the warm-up never uses n = 200
            raise RuntimeError("injected solver failure")
        return real(X, y, s)

    monkeypatch.setattr(harness, "l0_least_squares", flaky)
    result, lines = tiny("q0_exact_grid", False)
    assert result["failed"] > baseline["failed"]
    assert not result["correct"]
    assert any(line.startswith("failures ") and "trial_raised" in line for line in lines)


def test_an_unconverged_lasso_counts_in_fail_share(results, monkeypatch):
    assert results["soft_sparse", False][0]["failed"] == 0
    real = estimators.lasso

    def unconverged(*args, **kwargs):
        res = real(*args, **kwargs)
        res.converged = False
        return res

    monkeypatch.setattr(estimators, "lasso", unconverged)
    result, _ = tiny("soft_sparse", False)
    instances = workloads.SIZES["tiny"]["soft_sparse"]["instances"]
    assert result["failed"] == instances  # every lasso solve, no lq solve
    assert result["attempted"] == 2 * instances


def test_without_the_library_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "seq_model", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
