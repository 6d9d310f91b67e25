"""polycal benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify_refined --seed 1 --seconds 50 --trace 0

The program under test is ``src/polycal`` of the same checkout, imported
in-process; nothing is installed.  This process checks the output checker,
writes the workload's inputs (set-up, repeated and timed), then starts a
fresh worker process for the timed phase and reports its results.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.
Inputs, outputs, the report and the spans of a traced run go to
``.perfbench_work/<workload>/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# BLAS and OpenMP read these once, when numpy loads: pin them first.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_MIN_REPEATS = 3     # set-up runs at least this often ...
SETUP_MIN_SECONDS = 1.0   # ... and until it has taken this long in total
SETUP_MAX_REPEATS = 25
DEADLINE_S = 170.0
TAIL_BEYOND = 10


def _environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": dict(THREADS),
    }


def _tail(latencies):
    """Highest percentile with at least TAIL_BEYOND values beyond it, or the
    largest value when there are too few; returns (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _setup_done(times, traced):
    """A traced run sets up once; an end-to-end run repeats for setup_s."""
    if traced:
        return len(times) >= 1
    enough = len(times) >= SETUP_MIN_REPEATS and sum(times) >= SETUP_MIN_SECONDS
    return enough or len(times) >= SETUP_MAX_REPEATS


def _fail(message):
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "polycal", "__init__.py")):
        return _fail(f"no polycal sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    from polycal.cli import main as cli_main

    from check import selftest
    from workloads import setup

    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    os.makedirs(work, exist_ok=True)
    wrong = selftest(work)
    if wrong:
        return _fail(f"output checker self-test failed: {wrong}")

    inputs = os.path.join(work, "inputs")
    setup_times = []
    while not _setup_done(setup_times, args.trace):
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        ops, warmup = setup(cli_main, args.workload, inputs, args.seed)
        setup_times.append(time.perf_counter() - start)

    manifest = os.path.join(work, "manifest.json")
    results_path = os.path.join(work, "results.json")
    with open(manifest, "w") as handle:
        json.dump({"ops": ops, "warmup": warmup, "seconds": args.seconds,
                   "trace": bool(args.trace), "seed": args.seed}, handle)
    if os.path.exists(results_path):
        os.remove(results_path)
    remaining = DEADLINE_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), manifest, results_path],
            cwd=ROOT, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        return _fail(f"worker did not finish within {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        return _fail(f"worker exited with code {proc.returncode}")
    with open(results_path) as handle:
        results = json.load(handle)

    records = [r for r in results["records"] if not r["traced"]]
    walls = [r["wall"] for r in records]
    everything = [results["warmup"]] + results["records"]
    failures = [r for r in everything if r["reason"] is not None]
    by_label = {}
    for r in records:
        by_label.setdefault(r["label"], []).append(r["wall"])
    # Latency percentiles are taken over the inputs, each at its mean wall
    # time.  Every input runs equally often, so pooled samples would put a
    # percentile on whichever input's extreme sample sits at the cut, and
    # move it whenever the number of cycles changes.  The mean, not the
    # median, of an input's calls: the machine's speed drifts over seconds,
    # and a median jumps between its fast and slow spells where a mean
    # averages them over the whole run.
    means = {label: statistics.fmean(v) for label, v in sorted(by_label.items())}
    tail, tail_pct = _tail(means.values())

    if args.trace:
        metrics = results["per_layer"]
    else:
        metrics = {
            "latency_p50_s": {"value": statistics.median(means.values()), "unit": "s"},
            "latency_tail_s": {"value": tail, "unit": "s"},
            "ops_per_s": {"value": len(walls) / sum(walls), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": results["peak_rss_mb"], "unit": "MB"},
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "cycles": results["cycles"],
        "samples": len(walls),
        "inputs": len(means),
        "latency_tail_percentile": tail_pct,
        "failed_ops_ratio": len(failures) / len(everything),
        "failures": [f"{r['label']}: {r['reason']}" for r in failures],
        "setup_s_each": setup_times,
        "warmup": results["warmup"],
        "mean_s_by_input": means,
        "solver_iterations": results["solver_iterations"],
        "metrics": metrics,
    }
    if args.trace:
        report["traced_by_input"] = results["traced_by_input"]
        report["spans"] = results["spans"]
    with open(os.path.join(work, f"report-trace{args.trace}.json"), "w") as handle:
        json.dump(report, handle, indent=2)

    env = report["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} cycles={results['cycles']} "
          f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"nproc {env['nproc']} cpu {env['cpu']!r} threads=1")
    print(f"# latency tail = p{tail_pct:.1f} over {len(means)} inputs ({len(walls)} samples); failed_ops_ratio = "
          f"{report['failed_ops_ratio']:.4f} ({len(failures)} of {len(everything)}, warm-up included)")
    for failure in report["failures"][:10]:
        print(f"# FAILED {failure}")
    for label, mean in report["mean_s_by_input"].items():
        extra = results["solver_iterations"].get(label)
        print(f"#   {label:34s} mean {mean:.4f} s" + (f"  {extra} iterations" if extra else ""))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(everything),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
