"""The external layer trace in perfbench/ must keep resolving polycal names.

``perfbench/layertrace.py`` wraps polycal functions by name at install time;
a rename in the package would otherwise only show up as a crash of the
benchmark's traced run.  This test loads that file unchanged.
"""

import importlib
import importlib.util
import json
import os

import polycal.cli
import polycal.varifolds

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace", os.path.join(PERFBENCH, "layertrace.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_trace_targets_resolve_and_record(tmp_path):
    layertrace = _load_layertrace()
    names = [(m, a) for m, a, *_ in layertrace.TARGETS]
    names += [(m, a) for m, a, _ in layertrace.COUNTERS]
    originals = {name: _resolve(*name) for name in names}
    bundle = str(tmp_path / "bundle.json")
    assert polycal.cli.main(["demo", "tetrahedral_cone", "--out", bundle]) == 0
    y_bundle = str(tmp_path / "y_line.json")
    assert polycal.cli.main(["demo", "y_line", "--out", y_bundle]) == 0
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for name in names:
            assert _resolve(*name) is not originals[name], f"{name} was not wrapped"
        tracer.begin_op()
        out = str(tmp_path / "cert.json")
        assert polycal.cli.main(["certify", "--in", bundle, "--out", out]) == 0
        summary = tracer.op_summary(wall=1.0)
        # the solver path: subdivision, chain transport and the min-mass solve
        tracer.begin_op()
        y_out = str(tmp_path / "y_cert.json")
        assert polycal.cli.main(["certify", "--in", y_bundle, "--with-solver", "--out", y_out]) == 0
        solver_summary = tracer.op_summary(wall=1.0)
    finally:
        tracer.uninstall()
    for name in names:
        assert _resolve(*name) is originals[name], f"{name} was not restored"
    for path in (out, y_out):
        with open(path) as handle:
            assert json.load(handle)["conclusion"] == "calibrated-minimizer"
    for span in ("cli.load", "cli.emit", "complexes.build", "complexes.geometry",
                 "varifolds.stationarity", "chains.boundary", "calibration.minimality_certificate"):
        assert span in summary["self"], span
    # the tetrahedral cone's 10 edges less the 6 of gamma, the tetrahedron's
    K, _, gamma = polycal.varifolds.generate_example("tetrahedral_cone")
    assert summary["counts"]["varifolds.stationarity.faces"] == K.n_simplices(1) - len(gamma.face_ids) == 4
    assert summary["counts"]["complexes.geometry.blades"] > 0
    assert summary["counts"]["chains.terms"] > 0
    assert solver_summary["counts"]["solver.iterations"] > 0
    assert solver_summary["counts"]["solver.converged"] == 1
    for span in ("complexes.subdivide", "chains.transport", "solver.min_mass"):
        assert span in solver_summary["self"], span


def test_certificate_builds_no_face_records(tmp_path, monkeypatch):
    """The certificate reads the stationarity arrays; per-face records are
    built only when a report is listed face by face."""
    built = []

    class CountedFaceBalance(polycal.varifolds.FaceBalance):
        def __init__(self, *fields):
            built.append(fields[0])
            super().__init__(*fields)

    monkeypatch.setattr(polycal.varifolds, "FaceBalance", CountedFaceBalance)
    bundle = str(tmp_path / "bundle.json")
    assert polycal.cli.main(["demo", "tetrahedral_cone", "--refine", "1", "--out", bundle]) == 0
    assert polycal.cli.main(["certify", "--in", bundle, "--out", str(tmp_path / "cert.json")]) == 0
    assert built == []
    assert polycal.cli.main(["stationarity", "--in", bundle, "--out", str(tmp_path / "st.json")]) == 0
    assert len(built) > 0
