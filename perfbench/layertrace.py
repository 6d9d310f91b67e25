"""External per-layer trace of polycal operations.

``Tracer.install()`` wraps the public functions of each polycal module in
place, from outside the program, and ``uninstall()`` restores them.  Every
call through a wrapper records a span (op id, name, start, end, parent span)
in memory; ``write()`` saves them when the run ends.  Wrapped functions keep
calling each other through the wrappers, so spans nest as the CLI makes its
calls, and a layer's self time is its spans' duration minus their children.

Layer names follow the package's modules.  ``exterior_algebra`` kernels run
inside ``EmbeddedComplex.volumes``/``unit_blade`` and are timed as
``complexes.geometry``; ``groups`` element operations run inside the
``chains.*`` spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict


def _n_simplices(K):
    return sum(K.n_simplices(d) for d in range(K.dim + 1))


def _terms(chain):
    return {"chains.terms": len(chain.coeffs)}


def _solve(result):
    return {
        "solver.iterations": result.iterations,
        "solver.solves": 1,
        "solver.converged": int(result.status == "converged"),
    }


# (module, attribute, span name, counters from the result, record only when
# not nested in another span).  Attributes with a dot are methods.
TARGETS = [
    ("polycal.cli", "_load_documents", "cli.load", None, False),
    ("polycal.cli", "_emit", "cli.emit", None, False),
    ("polycal.calibration", "Certificate.to_json", "cli.emit", None, True),
    ("polycal.calibration", "FlatBoundReport.to_json", "cli.emit", None, True),
    ("polycal.complexes", "EmbeddedComplex.to_json", "cli.emit", None, True),
    ("polycal.varifolds", "varifold_to_json", "cli.emit", None, True),
    ("polycal.complexes", "complex_from_json", "complexes.build", None, False),
    ("polycal.complexes", "build_complex", "complexes.build",
     lambda K: {"complexes.build.simplices": _n_simplices(K)}, False),
    ("polycal.complexes", "EmbeddedComplex.volumes", "complexes.geometry", None, False),
    ("polycal.complexes", "EmbeddedComplex.unit_blade", "complexes.geometry", None, False),
    ("polycal.complexes", "subdivide", "complexes.subdivide",
     lambda r: {"complexes.subdivide.simplices_out": _n_simplices(r[0])}, False),
    ("polycal.varifolds", "varifold_from_json", "varifolds.build", None, False),
    ("polycal.varifolds", "make_varifold", "varifolds.build", None, False),
    ("polycal.varifolds", "generate_example", "varifolds.generate", None, False),
    ("polycal.varifolds", "stationarity", "varifolds.stationarity",
     lambda r: {"varifolds.stationarity.faces": len(r.faces)}, False),
    ("polycal.varifolds", "chainify", "varifolds.chainify", None, False),
    ("polycal.varifolds", "transport_varifold", "varifolds.transport", None, False),
    ("polycal.chains", "chain_from_json", "chains.make_chain", None, False),
    ("polycal.chains", "make_chain", "chains.make_chain", _terms, False),
    ("polycal.chains", "boundary", "chains.boundary", _terms, False),
    ("polycal.chains", "mass", "chains.mass", None, False),
    ("polycal.chains", "transport_chain", "chains.transport", _terms, False),
    ("polycal.chains", "is_supported_in", "chains.support", None, False),
    ("polycal.calibration", "phi", "calibration.phi", None, False),
    ("polycal.calibration", "certify_calibrated", "calibration.certify_calibrated", None, False),
    ("polycal.calibration", "minimality_certificate", "calibration.minimality_certificate", None, False),
    ("polycal.calibration", "phi_flat_bound", "calibration.phi_flat_bound", None, False),
    ("polycal.solver", "min_mass_fixed_boundary", "solver.min_mass", _solve, False),
    ("polycal.solver", "flat_norm_solve", "solver.flat_norm", _solve, False),
]
# calls counted without a span: one per unit blade actually computed
COUNTERS = [("polycal.complexes", "blade_of_points", "complexes.geometry.blades")]

SPAN_NAMES = sorted({t[2] for t in TARGETS})
COUNT_NAMES = [
    "complexes.build.simplices",
    "complexes.geometry.blades",
    "complexes.subdivide.simplices_out",
    "varifolds.stationarity.faces",
    "chains.terms",
    "solver.iterations",
]


class Tracer:
    """Span recorder with in-place wrappers around polycal's public functions."""

    def __init__(self):
        self.spans = []          # (op, name, start, end, parent index or -1)
        self.counts = defaultdict(int)   # counters of the current op
        self.op = -1
        self._op_first_span = 0
        self._stack = []
        self._restore = []

    # -- recording --------------------------------------------------------
    def begin_op(self):
        self.op += 1
        self.counts = defaultdict(int)
        self._op_first_span = len(self.spans)

    def _wrap(self, fn, name, counters, top_only):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if top_only and stack:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (tracer.op, name, start, end, parent)
            if counters is not None:
                for key, value in counters(result).items():
                    tracer.counts[key] += value
            return result

        return wrapper

    def _count(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------
    def install(self):
        """Wrap every target, rebinding each polycal name that refers to it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "polycal" or n.startswith("polycal.")]
        plan = [(m, a, self._wrap, (s, c, t)) for m, a, s, c, t in TARGETS]
        plan += [(m, a, self._count, (k,)) for m, a, k in COUNTERS]
        for module_name, attr, make, extra in plan:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, make(original, *extra))
                continue
            original = getattr(owner, attr)
            wrapper = make(original, *extra)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- analysis ---------------------------------------------------------
    def op_summary(self, wall: float) -> dict:
        """Self time per span name, inclusive time of top-level spans, counts
        and unattributed time of the last op."""
        spans = self.spans[self._op_first_span:]
        base = self._op_first_span
        child = defaultdict(float)
        for _op, _name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        top = defaultdict(float)
        solver_time = 0.0
        for i, (_op, name, start, end, parent) in enumerate(spans):
            self_time[name] += (end - start) - child[base + i]
            if parent < 0:
                top[name] += end - start
            if name.startswith("solver."):
                solver_time += end - start
        return {
            "self": dict(self_time),
            "top": dict(top),
            "counts": dict(self.counts),
            "unattributed": wall - sum(top.values()),
            "solver_time": solver_time,
            "spans": len(spans),
        }

    def write(self, path: str):
        with open(path, "w") as handle:
            handle.write("op,name,start_s,end_s,parent\n")
            for op, name, start, end, parent in self.spans:
                handle.write(f"{op},{name},{start:.9f},{end:.9f},{parent}\n")


def _over_inputs(pairs):
    """Median over inputs of each input's mean value; 0 with no values."""
    by_label = defaultdict(list)
    for label, value in pairs:
        by_label[label].append(value)
    if not by_label:
        return 0.0
    return statistics.median(statistics.fmean(v) for v in by_label.values())


def per_layer_metrics(traced, untraced) -> dict:
    """Per-layer metrics of a traced run.

    ``traced`` holds (input label, wall, op summary) per traced operation and
    ``untraced`` (input label, wall) per untraced one.  Like the end-to-end
    latencies, each metric is a median over inputs of per-input means.
    """
    metrics = {}
    for name in SPAN_NAMES:
        value = _over_inputs((label, s["self"].get(name, 0.0)) for label, _, s in traced)
        metrics[f"{name}_s"] = (value, "s")
    for name in COUNT_NAMES:
        metrics[name] = (_over_inputs((label, s["counts"].get(name, 0)) for label, _, s in traced), "count")
    rates = [(label, s["counts"]["solver.iterations"] / s["solver_time"])
             for label, _, s in traced if s["counts"].get("solver.solves")]
    metrics["solver.iterations_per_s"] = (_over_inputs(rates), "1/s")
    solves = sum(s["counts"].get("solver.solves", 0) for _, _, s in traced)
    converged = sum(s["counts"].get("solver.converged", 0) for _, _, s in traced)
    metrics["solver.converged_ratio"] = (converged / solves if solves else 0.0, "ratio")
    metrics["trace.unattributed_s"] = (_over_inputs((label, s["unattributed"]) for label, _, s in traced), "s")
    overhead = _over_inputs((label, wall) for label, wall, _ in traced) / _over_inputs(untraced)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics
