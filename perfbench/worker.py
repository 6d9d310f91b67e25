"""Timed phase of one workload, run in a fresh process by ``run.py``.

Usage: ``worker.py MANIFEST RESULTS``.  The manifest (written by ``run.py``)
lists the operations; each is one in-process ``polycal.cli.main(argv)`` call
by a single client in a closed loop.  The loop runs whole cycles over the
operations, in a seeded order per cycle, until the timed operations add up
to the requested seconds, so every input runs equally often.  Outside the
timed region each operation's output is checked and ``gc.collect()`` runs,
so every call starts with a clean heap as a CLI user's would.  With tracing
on, each slot runs the operation twice, untraced and traced, in alternating
order.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from polycal import cli  # noqa: E402

from check import judge  # noqa: E402
from layertrace import Tracer, per_layer_metrics  # noqa: E402


def run_op(op, tracer=None):
    """One timed CLI call; returns (wall seconds, failure reason or None)."""
    if os.path.exists(op["out"]):
        os.remove(op["out"])
    gc.collect()
    if tracer is not None:
        tracer.install()
        tracer.begin_op()
    start = time.perf_counter()
    try:
        code = cli.main(op["argv"])
    except (Exception, SystemExit) as exc:  # a crash is a failed operation
        code = None
        error = repr(exc)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    reason = judge(op["expect"], code, op["out"])
    if code is None:
        reason = f"raised {error}"
    return wall, reason


def solver_iterations(op):
    if "--with-solver" not in op["argv"] or not os.path.exists(op["out"]):
        return None
    with open(op["out"]) as handle:
        return json.load(handle)["provenance"]["solver"].get("iterations")


def traced_by_input(summaries):
    """Per input: mean traced wall time, mean inclusive time of each
    top-level span, and the solver iterations."""
    grouped = {}
    for label, wall, summary in summaries:
        grouped.setdefault(label, []).append((wall, summary))
    out = {}
    for label, runs in sorted(grouped.items()):
        names = sorted({name for _, s in runs for name in s["top"]})
        out[label] = {
            "wall_s": statistics.fmean(w for w, _ in runs),
            "top_level_s": {n: statistics.fmean(s["top"].get(n, 0.0) for _, s in runs) for n in names},
            "solver_iterations": runs[0][1]["counts"].get("solver.iterations"),
        }
    return out


def main(manifest_path, results_path):
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    ops, seconds, traced = manifest["ops"], manifest["seconds"], manifest["trace"]
    rng = np.random.default_rng(manifest["seed"])

    warm_wall, warm_reason = run_op(manifest["warmup"])
    records = []
    summaries = []
    iterations = {}
    tracer = Tracer() if traced else None
    measured = 0.0
    cycle = 0
    while measured < seconds:
        for i in rng.permutation(len(ops)):
            op = ops[int(i)]
            modes = [False, True] if traced else [False]
            if cycle % 2:
                modes.reverse()
            for with_trace in modes:
                wall, reason = run_op(op, tracer if with_trace else None)
                measured += wall
                records.append({"label": op["label"], "wall": wall, "reason": reason, "traced": with_trace})
                if with_trace:
                    summaries.append((op["label"], wall, tracer.op_summary(wall)))
            if op["label"] not in iterations:
                iterations[op["label"]] = solver_iterations(op)
        cycle += 1

    results = {
        "warmup": {"label": manifest["warmup"]["label"], "wall": warm_wall, "reason": warm_reason},
        "records": records,
        "cycles": cycle,
        "solver_iterations": {k: v for k, v in iterations.items() if v is not None},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        untraced = [(r["label"], r["wall"]) for r in records if not r["traced"]]
        metrics = per_layer_metrics(summaries, untraced)
        results["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        results["spans"] = sum(s["spans"] for _, _, s in summaries)
        results["traced_by_input"] = traced_by_input(summaries)
        tracer.write(os.path.join(os.path.dirname(results_path), "spans.csv"))
    with open(results_path, "w") as handle:
        json.dump(results, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
