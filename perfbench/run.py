"""Run the lqminimax benchmark and print its metrics.

    python3 perfbench/run.py                       # all five workloads, tracing off
    python3 perfbench/run.py --workload q1_l1_grid --seed 7 --seconds 35 --trace 1

One workload per process: a closed loop of one caller making one call at a
time, with BLAS pinned to one thread.  The workload's plan of units (single
trials, single calls, the final fits) repeats for about ``--seconds``;
``result_s`` sums, over the units of the plan, the fastest time seen for
each unit's timing class, and ``setup_s`` is the median of several fresh
set-up probes (see README.md for why).  With
``--trace 0`` the metrics are the end-to-end ones (``setup_s``, ``result_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones from the
outside tracer.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, every metric with its unit, ``fail_share`` and the
failure breakdown.  ``--workload all`` runs each workload in a fresh process
and prints a table.
"""

import ctypes
import ctypes.util
import os

# Pin BLAS to one thread before numpy is imported, here and in every child
# process.  numpy's huge-page advice is switched off too: whether the kernel
# has a free huge page at that moment would otherwise decide peak RSS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

# glibc raises its mmap threshold after the first large block is freed, so
# whether a later 10 MB design lands on the heap and stays in RSS depends on
# the allocation history: q1_l1_grid's peak RSS read either about 92 or
# about 100 MiB.  With the threshold fixed, blocks of 8 MiB and more are
# always mapped and unmapped, and smaller ones come from the heap as before.
MMAP_THRESHOLD = 8 << 20
_M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h
if ctypes.CDLL(ctypes.util.find_library("c")).mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1:
    raise SystemExit("perfbench: could not fix the malloc mmap threshold")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from itertools import count  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The benchmark measures the sources of the checkout it sits in, never an
# installed copy: without them there is nothing to measure.
if not (SRC / "lqminimax" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no lqminimax sources under {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
DEFAULT_SECONDS = 35
END_TO_END_UNITS = {"setup_s": "s", "result_s": "s", "peak_rss_mb": "MiB"}
TAIL_PERMILLE = (999, 990, 900, 500)  # percentiles 99.9, 99, 90, 50


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS the process has loaded."""
    threads = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:  # no /proc: the environment line then omits the counts
        return threads
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return threads


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "mmap_threshold": MMAP_THRESHOLD,
        "commit": _commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def setup_times(name: str, seed: int, count: int) -> list:
    """Seconds from starting a fresh interpreter to the end of its warm-up call."""
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
           "--seed", str(seed)]
    for _ in range(count):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = perf_counter() - start
                proc.stdout.read()
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe for {name} failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run the workload's plan over and over for about ``seconds``.

    The first pass through the plan always completes; after it, a further
    unit starts only if the last time of its class says it ends in time.
    With tracing, plain and traced passes alternate, at least one of each
    runs, and a traced pass always completes, so its spans cover a whole
    result.
    """
    workload.warmup()
    workload.prepare()
    plan = workload.plan()
    tracer = tracing.Tracer()
    times = {False: defaultdict(list), True: defaultdict(list)}  # class -> seconds
    digests = defaultdict(set)  # plan index -> output hashes
    outcomes, summaries, spans, traced_pass_s = [], [], [], []
    start = perf_counter()
    for i in count():
        passes, j = divmod(i, len(plan))
        key, unit = plan[j]
        traced = trace and passes % 2 == 1
        if passes >= 1 + trace and (j == 0 or not traced):
            if perf_counter() - start + times[traced][key][-1] > seconds:
                break
        if traced and j == 0:
            tracer.install()
            pass_s = 0.0
        t0 = perf_counter()
        outcome = workload.run_unit(unit)
        elapsed = perf_counter() - t0
        times[traced][key].append(elapsed)
        outcomes.append(outcome)
        digests[j].add(outcome.digest)
        if traced:
            pass_s += elapsed
            if j == len(plan) - 1:
                tracer.restore()
                rep_spans = tracer.take()
                summaries.append(tracing.summarize(rep_spans))
                spans.append(rep_spans)
                traced_pass_s.append(pass_s)
    return {"plan": plan, "plain": times[False], "traced": times[True], "outcomes": outcomes,
            "digests": digests, "summaries": summaries, "spans": spans,
            "traced_pass_s": traced_pass_s}


def result_time(plan: list, times: dict, pick=min) -> float:
    """Time of one pass through the plan, each unit at its class's ``pick`` time."""
    return sum(pick(times[key]) for key, _ in plan)


def _percentile(values: list, pct: float) -> float:
    return float(np.percentile(values, pct, method="nearest")) if values else 0.0


def _tail(values: list) -> tuple:
    """Highest listed percentile with at least ten samples beyond it."""
    for permille in TAIL_PERMILLE:
        if len(values) * (1000 - permille) >= 10 * 1000:
            return permille / 10, _percentile(values, permille / 10)
    return 50.0, _percentile(values, 50.0)


def layer_metrics(measured: dict) -> dict:
    """Per-layer metrics: per-pass counts, median self times, latencies."""
    summaries = measured["summaries"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    first = summaries[0]["stats"]
    for name in tracing.SPAN_NAMES:
        put(f"{name}.calls", first[name]["calls"], "count")
        put(f"{name}.self_s", statistics.median(s["stats"][name]["self_s"] for s in summaries), "s")
    for name in tracing.ESTIMATORS:
        samples = [t for s in summaries for t in s["latencies"][name]]
        pct, tail = _tail(samples)
        put(f"{name}.p50_ms", _percentile(samples, 50.0) * 1e3, "ms")
        put(f"{name}.tail_ms", tail * 1e3, "ms")
        put(f"{name}.tail_pct", pct if samples else 0.0, "%")
        put(f"{name}.latency_n", len(samples), "count")

    def count(name, field):
        return first[f"estimators.{name}"][field]

    def rate(name, work, scale):
        self_s = metrics[f"estimators.{name}.self_s"]["value"]
        return self_s / work * scale if work else 0.0

    supports = count("l0_least_squares", "work")
    put("estimators.l0_least_squares.supports", supports, "count")
    for name, work in (("l1_constrained_ls", "iterations"), ("lq_constrained_ls", "iterations"),
                       ("lasso", "sweeps")):
        put(f"estimators.{name}.{work}", count(name, "work"), "count")
        put(f"estimators.{name}.unconverged", count(name, "unconverged"), "count")
    put("estimators.l0_least_squares.ns_per_support",
        rate("l0_least_squares", supports, 1e9), "ns")
    put("estimators.l1_constrained_ls.ms_per_iteration",
        rate("l1_constrained_ls", count("l1_constrained_ls", "work"), 1e3), "ms")
    put("estimators.lasso.ms_per_sweep", rate("lasso", count("lasso", "work"), 1e3), "ms")

    plan = measured["plan"]
    put("trace.overhead_share", result_time(plan, measured["traced"])
        / result_time(plan, measured["plain"]) - 1.0, "ratio")
    put("trace.unaccounted_share",
        statistics.median((t - s["top_level_s"]) / t
                          for t, s in zip(measured["traced_pass_s"], summaries)),
        "ratio")
    return metrics


def _exact_counts(summary: dict) -> tuple:
    return tuple((name, e["calls"], e["work"], e["unconverged"])
                 for name, e in summary["stats"].items())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", probes: int = SETUP_PROBES) -> tuple:
    """Measure one workload; returns (result object, report lines)."""
    lines = [f"env {json.dumps(environment(seed), sort_keys=True)}"]
    setup = [] if trace else setup_times(name, seed, probes)
    workload = workloads.build(name, seed, size)
    measured = measure(workload, seconds, trace)
    outcomes = measured["outcomes"]
    attempted = sum(o.attempted for o in outcomes)
    failures = sum((o.failures for o in outcomes), Counter())
    failed = sum(failures.values())

    # identical inputs must give bit-identical outputs and identical counts
    digests = measured["digests"]
    counts = {_exact_counts(s) for s in measured["summaries"]}
    repeatable = all(len(d) == 1 for d in digests.values()) and len(counts) <= 1

    plan = measured["plan"]
    first_pass = [min(d, key=str) for _, d in sorted(digests.items())]
    summary = {}
    for outcome in outcomes[:len(plan)]:
        summary.update(outcome.summary)
    plain_units = sum(map(len, measured["plain"].values()))
    traced_units = sum(map(len, measured["traced"].values()))
    lines.append(f"{name} seed={seed} plan={len(plan)} units in "
                 f"{len(set(k for k, _ in plan))} timing classes; units run: plain {plain_units},"
                 f" traced {traced_units} ({len(measured['summaries'])} traced passes)"
                 f" digest={workloads._hash(repr(first_pass))} repeatable={repeatable}")
    lines.append(f"summary {json.dumps(summary, sort_keys=True, default=str)}")
    if failures:
        lines.append(f"failures {json.dumps(dict(failures), sort_keys=True)}")

    if trace:
        metrics = layer_metrics(measured)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{name}-{seed}.jsonl", "w") as fh:
            for rep, rep_spans in enumerate(measured["spans"]):
                for span in rep_spans:
                    fh.write(json.dumps([rep, *span]) + "\n")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "result_s": result_time(plan, measured["plain"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        lines.append(f"setup probes (s): {' '.join(f'{t:.4f}' for t in setup)}")
        lines.append(f"one pass (s): {values['result_s']:.4f} with each unit at its class's "
                     f"fastest, {result_time(plan, measured['plain'], statistics.median):.4f}"
                     f" at its median")
    for key, metric in metrics.items():
        lines.append(f"metric {key} {metric['value']:.6g} {metric['unit']}")
    lines.append(f"metric fail_share {failed / attempted:.6g} ratio ({failed} of {attempted})")
    result = {"correct": failed == 0 and repeatable, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own fresh process, then one table."""
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
        rows.append((name, result))
    if not trace:
        print(f"{'workload':<15} {'setup_s (s)':>12} {'result_s (s)':>13} "
              f"{'peak_rss_mb (MiB)':>18} {'fail_share (ratio)':>19}")
        for name, result in rows:
            m = result["metrics"]
            print(f"{name:<15} {m['setup_s']['value']:>12.4f} {m['result_s']['value']:>13.4f} "
                  f"{m['peak_rss_mb']['value']:>18.1f} "
                  f"{result['failed'] / result['attempted']:>19.4g}")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        workloads.build(args.workload, args.seed).warmup()
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
