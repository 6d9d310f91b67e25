import json
import math

import numpy as np
import pytest

from polycal.chains import chain_from_json, chain_to_json, boundary
from polycal.cli import main
from polycal.complexes import BoundaryRegion, build_complex, complex_from_json
from polycal.varifolds import (
    chainify,
    deform_experiment,
    generate_example,
    make_varifold,
    varifold_to_json,
)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def l_shape_files(tmp_path):
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1), (0, 2)])
    V = make_varifold(K, 1, [((0, 1), 1.0), ((0, 2), 1.0)])
    gamma = BoundaryRegion.from_tuples(K, [(1,), (2,)])
    cpath = write(tmp_path, "complex.json", K.to_json(gamma))
    vpath = write(tmp_path, "varifold.json", varifold_to_json(V))
    return cpath, vpath


# ---------------------------------------------------------------------------

def test_demo_then_certify_round_trip(tmp_path, capsys):
    code, bundle = run_cli(capsys, "demo", "tetrahedral_cone")
    assert code == 0
    bpath = write(tmp_path, "bundle.json", bundle)
    code, cert = run_cli(capsys, "certify", "--in", bpath)
    assert code == 0
    assert cert["conclusion"] == "calibrated-minimizer"
    assert all(check["pass"] for check in cert["checks"])


def test_certify_with_solver_records_run(tmp_path, capsys):
    code, bundle = run_cli(capsys, "demo", "y_line")
    bpath = write(tmp_path, "bundle.json", bundle)
    code, cert = run_cli(capsys, "certify", "--in", bpath, "--with-solver")
    assert code == 0
    assert cert["provenance"]["solver"]["ran"]
    assert cert["provenance"]["solver"]["status"] == "converged"


def test_stationarity_failure_exits_one(tmp_path, capsys):
    cpath, vpath = l_shape_files(tmp_path)
    code, report = run_cli(capsys, "stationarity", "--in", cpath, "--in", vpath)
    assert code == 1
    assert report["max_residual"] == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_stationarity_success_exits_zero(tmp_path, capsys):
    code, bundle = run_cli(capsys, "demo", "y_times_r", "--refine", "1")
    bpath = write(tmp_path, "bundle.json", bundle)
    code, report = run_cli(capsys, "stationarity", "--in", bpath)
    assert code == 0
    assert report["is_stationary"]


def test_chainify_output_parses_as_chain(tmp_path, capsys):
    code, bundle = run_cli(capsys, "demo", "y_line")
    bpath = write(tmp_path, "bundle.json", bundle)
    code, chain_doc = run_cli(capsys, "chainify", "--in", bpath)
    assert code == 0
    K, _ = complex_from_json(bundle["complex"])
    A = chain_from_json(K, chain_doc)
    assert len(A.coeffs) == 3


def test_minimize_reproduces_cone_mass(tmp_path, capsys):
    K, V, gamma = generate_example("y_line")
    b = boundary(chainify(V))
    cpath = write(tmp_path, "complex.json", K.to_json(gamma))
    bpath = write(tmp_path, "boundary.json", chain_to_json(b))
    code, result = run_cli(capsys, "minimize", "--in", cpath, "--in", bpath)
    assert code == 0
    assert result["status"] == "converged"
    assert result["objective"] == pytest.approx(3.0, rel=1e-5)


def test_flatnorm_triangle(tmp_path, capsys):
    from polycal.chains import make_chain
    from polycal.groups import MultivectorGroup

    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
    G = MultivectorGroup(2, 2)
    A = boundary(make_chain(K, 2, G, [((0, 1, 2), [1.0])]))
    cpath = write(tmp_path, "complex.json", K.to_json())
    apath = write(tmp_path, "chain.json", chain_to_json(A))
    code, report = run_cli(capsys, "flatnorm", "--in", cpath, "--in", apath)
    assert code == 0
    assert report["flat_value"] == pytest.approx(0.5, abs=1e-6)
    assert report["mass"] == pytest.approx(2.0 + math.sqrt(2.0))


def test_groupnorm_command(tmp_path, capsys):
    gpath = write(tmp_path, "group.json", {"kind": "subgroup", "generators": [2.0, 3.0]})
    code, payload = run_cli(capsys, "groupnorm", "--in", gpath, "--coords=-1,1", "--ball", "4")
    assert code == 0
    assert payload["norm"] == pytest.approx(5.0)
    values = sorted(entry["value"] for entry in payload["ball"])
    assert values == [-4.0, -3.0, -2.0, 0.0, 2.0, 3.0, 4.0]


def test_groupnorm_large_generators_exits_zero(tmp_path, capsys):
    gens = [2352515.2020535516, 5053054.299843582, 8166918.432585648]
    gpath = write(tmp_path, "group.json", {"kind": "subgroup", "generators": gens})
    code, payload = run_cli(capsys, "groupnorm", "--in", gpath, "--coords=-2,2,-3")
    assert code == 0
    assert payload["norm"] <= 2 * gens[0] + 2 * gens[1] + 3 * gens[2]


def test_deform_command_and_reproducibility(tmp_path, capsys):
    code, bundle = run_cli(capsys, "demo", "y_line")
    bpath = write(tmp_path, "bundle.json", bundle)
    code1, rep1 = run_cli(
        capsys, "deform", "--in", bpath, "--trials", "20", "--magnitude", "0.1", "--seed", "5"
    )
    code2, rep2 = run_cli(
        capsys, "deform", "--in", bpath, "--trials", "20", "--magnitude", "0.1", "--seed", "5"
    )
    assert code1 == code2 == 0
    assert rep1 == rep2  # bit-reproducible with a fixed seed
    assert rep1["min_ratio"] >= 1.0 - 1e-9
    assert rep1["provenance"]["seed"] == 5


def test_deform_zero_magnitude_gives_unit_ratios():
    K, V, gamma = generate_example("tetrahedral_cone")
    report = deform_experiment(V, gamma, trials=5, magnitude=0.0, seed=1)
    assert report.min_ratio == 1.0 and report.max_ratio == 1.0


def test_deform_rejects_nonstationary_input(tmp_path, capsys):
    cpath, vpath = l_shape_files(tmp_path)
    code, _ = run_cli(capsys, "deform", "--in", cpath, "--in", vpath)
    assert code == 2


def test_validate_command(tmp_path, capsys):
    verts = [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0.5, 0.5, -1], [0.5, 0.5, 1], [3, 3, 1]]
    K = build_complex(verts, [(0, 1, 2), (3, 4, 5)])
    cpath = write(tmp_path, "complex.json", K.to_json())
    code, report = run_cli(capsys, "validate", "--in", cpath)
    assert code == 1
    assert not report["valid"]
    K2 = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
    cpath2 = write(tmp_path, "ok.json", K2.to_json())
    code2, report2 = run_cli(capsys, "validate", "--in", cpath2)
    assert code2 == 0 and report2["valid"]


def test_missing_input_is_exit_two(tmp_path, capsys):
    code = main(["stationarity", "--in", str(tmp_path / "nope.json")])
    assert code == 2


def test_missing_document_type_is_exit_two(tmp_path, capsys):
    K = build_complex([[0, 0], [1, 0]], [(0, 1)])
    cpath = write(tmp_path, "complex.json", K.to_json())
    code = main(["stationarity", "--in", cpath])
    assert code == 2


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_out_file_written(tmp_path, capsys):
    out = tmp_path / "demo.json"
    code = main(["demo", "y_line", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert "complex" in doc and "varifold" in doc


def test_solver_config_file(tmp_path, capsys):
    K, V, gamma = generate_example("y_line")
    b = boundary(chainify(V))
    cpath = write(tmp_path, "complex.json", K.to_json(gamma))
    bpath = write(tmp_path, "boundary.json", chain_to_json(b))
    spath = write(tmp_path, "solver.json", {"max_iter": 10, "check_every": 5})
    code, result = run_cli(
        capsys, "minimize", "--in", cpath, "--in", bpath, "--solver-config", spath
    )
    assert code == 1  # iteration cap reached
    assert result["status"] == "iteration-cap"


TRIANGLE_VERTICES = [[0, 0], [1, 0], [0, 1]]
SEGMENTS = [[0, 1], [0, 2]]


@pytest.mark.parametrize(
    "complex_doc, varifold_doc",
    [
        ({"vertices": TRIANGLE_VERTICES, "simplices": 5}, None),
        ({"vertices": TRIANGLE_VERTICES, "simplices": [5]}, None),
        ({"vertices": 5, "simplices": SEGMENTS}, None),
        ({"vertices": TRIANGLE_VERTICES, "simplices": SEGMENTS, "gamma_faces": 1}, None),
        ({"vertices": TRIANGLE_VERTICES, "simplices": SEGMENTS}, {"dimension": 1, "weights": 5}),
        ({"vertices": TRIANGLE_VERTICES, "simplices": SEGMENTS}, {"dimension": 1, "weights": [5]}),
        (
            {"vertices": TRIANGLE_VERTICES, "simplices": SEGMENTS},
            {"dimension": 1, "weights": [{"simplex": [0, 1], "c": [1.0]}]},
        ),
        ({"vertices": [[0, 0], [1, 0]], "simplices": [[]]}, None),
        (
            {"vertices": TRIANGLE_VERTICES, "simplices": SEGMENTS},
            {"dimension": 1, "weights": [{"simplex": [1, 2], "c": 1.0}]},
        ),
        (
            {"vertices": TRIANGLE_VERTICES, "simplices": SEGMENTS},
            {"dimension": 1, "weights": [{"simplex": 2, "c": 1.0}]},
        ),
        ({"vertices": TRIANGLE_VERTICES, "simplices": [[0, 10**30]]}, None),
        (
            {"vertices": TRIANGLE_VERTICES, "simplices": SEGMENTS},
            {"dimension": 1, "weights": [{"simplex": 10**30, "c": 1.0}]},
        ),
    ],
)
def test_malformed_document_is_exit_two(tmp_path, capsys, complex_doc, varifold_doc):
    argv = ["stationarity", "--in", write(tmp_path, "complex.json", complex_doc)]
    if varifold_doc is None:
        argv[0] = "validate"
    else:
        argv += ["--in", write(tmp_path, "varifold.json", varifold_doc)]
    assert main(argv) == 2
    assert "polycal: error" in capsys.readouterr().err


MALFORMED_CHAIN_TERMS = {
    "wrong-size": {"simplex": [0, 1, 2], "coeff": 1.0},
    "repeated-vertex": {"simplex": [1, 1], "coeff": 1.0},
    "not-in-complex": {"simplex": [1, 2], "coeff": 1.0},
}


@pytest.mark.parametrize(
    "term", MALFORMED_CHAIN_TERMS.values(), ids=MALFORMED_CHAIN_TERMS.keys()
)
def test_malformed_chain_term_is_exit_two(tmp_path, capsys, term):
    cpath = write(tmp_path, "complex.json", {"vertices": TRIANGLE_VERTICES, "simplices": SEGMENTS})
    chpath = write(tmp_path, "chain.json",
                   {"dimension": 1, "group": {"kind": "real"}, "terms": [term]})
    assert main(["flatnorm", "--in", cpath, "--in", chpath]) == 2
    assert "polycal: error" in capsys.readouterr().err


def y_line_minimize_argv(tmp_path, config):
    K, V, gamma = generate_example("y_line")
    cpath = write(tmp_path, "complex.json", K.to_json(gamma))
    bpath = write(tmp_path, "boundary.json", chain_to_json(boundary(chainify(V))))
    spath = write(tmp_path, "solver.json", config)
    return ["minimize", "--in", cpath, "--in", bpath, "--solver-config", spath]


# fixed case ids, so that a case keeps its name when another is removed
MALFORMED_SOLVER_CONFIGS = {
    "config0": [1, 2],
    "config1": {"max_iter": "50"},
    "config2": {"max_iter": 0},
    "config3": {"max_iter": True},
    "config4": {"check_every": 0},
    "config7": {"primal_tol": 0.0},
    "config8": {"obj_tol": float("nan")},
    "config10": {"relax": 2.0},
    "config11": {"relax": 0},
}


@pytest.mark.parametrize(
    "config", MALFORMED_SOLVER_CONFIGS.values(), ids=MALFORMED_SOLVER_CONFIGS.keys()
)
def test_malformed_solver_config_is_exit_two(tmp_path, capsys, config):
    assert main(y_line_minimize_argv(tmp_path, config)) == 2
    assert "polycal: error" in capsys.readouterr().err


# seed, stall_tol and stall_checks are no longer solver settings
LEGACY_SOLVER_CONFIGS = {
    "stall_checks": {"stall_checks": 1.5},
    "seed": {"seed": "7"},
    "stall_tol": {"stall_tol": -1e-10},
}


@pytest.mark.parametrize(
    "config", LEGACY_SOLVER_CONFIGS.values(), ids=LEGACY_SOLVER_CONFIGS.keys()
)
def test_legacy_solver_config_keys_are_ignored(tmp_path, capsys, config):
    code, result = run_cli(capsys, *y_line_minimize_argv(tmp_path, config))
    assert (code, result["status"]) == (0, "converged")
    assert set(config).isdisjoint(result["config"])


def test_integer_coefficient_beyond_int32_is_exit_two(tmp_path, capsys):
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
    cpath = write(tmp_path, "complex.json", K.to_json())
    chain = {"dimension": 1, "group": {"kind": "integer"},
             "terms": [{"simplex": [0, 1], "coeff": 2**31}]}
    chpath = write(tmp_path, "chain.json", chain)
    assert main(["flatnorm", "--in", cpath, "--in", chpath]) == 2
    assert "2**31" in capsys.readouterr().err


@pytest.mark.parametrize("refine", ["0", "2"])
def test_tiny_cone_certifies(tmp_path, capsys, refine):
    bundle = str(tmp_path / "cone.json")
    argv = ["demo", "tetrahedral_cone", "--radius", "1e-5", "--refine", refine, "--out", bundle]
    assert main(argv) == 0
    code, cert = run_cli(capsys, "certify", "--in", bundle)
    assert (code, cert["conclusion"]) == (0, "calibrated-minimizer")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_nonfinite_input_is_exit_two(tmp_path, capsys, bad):
    cpath = write(tmp_path, "complex.json",
                  {"vertices": [[0, 0], [1, bad], [0, 1]], "simplices": SEGMENTS})
    assert main(["validate", "--in", cpath]) == 2
    vpath = write(tmp_path, "varifold.json",
                  {"dimension": 1, "weights": [{"simplex": [0, 1], "c": bad}]})
    cpath = write(tmp_path, "complex.json", {"vertices": TRIANGLE_VERTICES, "simplices": SEGMENTS})
    assert main(["stationarity", "--in", cpath, "--in", vpath]) == 2


def test_cone_of_radius_1e_minus_10_certifies(tmp_path, capsys):
    # the conormal height is tested against the simplex's own scale
    bundle = str(tmp_path / "cone.json")
    assert main(["demo", "tetrahedral_cone", "--radius", "1e-10", "--out", bundle]) == 0
    code, cert = run_cli(capsys, "certify", "--in", bundle)
    assert code == 0 and cert["conclusion"] == "calibrated-minimizer"


Y_120 = json.dumps([[0.0, 1.0], [-math.sqrt(3) / 2, -0.5], [math.sqrt(3) / 2, -0.5]])


def test_heavy_balanced_y_is_stationary(tmp_path, capsys):
    # the weighted conormal sum is measured against the incident weights
    bundle = str(tmp_path / "y.json")
    argv = ["demo", "custom_net_cone", "--directions", Y_120, "--weights", "[1e8, 1e8, 1e8]"]
    assert main(argv + ["--out", bundle]) == 0
    code, report = run_cli(capsys, "stationarity", "--in", bundle)
    assert (code, report["is_stationary"]) == (0, True)


def test_heavy_balanced_y_certifies(tmp_path, capsys):
    # the boundary-support check is measured against the largest coefficient
    bundle = str(tmp_path / "y.json")
    argv = ["demo", "custom_net_cone", "--directions", Y_120, "--weights", "[1e8, 1e8, 1e8]"]
    assert main(argv + ["--out", bundle]) == 0
    code, cert = run_cli(capsys, "certify", "--in", bundle)
    assert (code, cert["conclusion"]) == (0, "calibrated-minimizer")
    support = next(c for c in cert["checks"] if c["name"] == "boundary-support")
    assert support["tol"] == pytest.approx(1e-9 * 1e8)
    assert cert["provenance"]["offending_boundary"] == []


def test_light_l_shape_is_not_stationary(tmp_path, capsys):
    bundle = str(tmp_path / "l.json")
    argv = ["demo", "custom_net_cone", "--directions", "[[1, 0], [0, 1]]",
            "--weights", "[1e-10, 1e-10]", "--out", bundle]
    assert main(argv) == 0
    code, report = run_cli(capsys, "stationarity", "--in", bundle)
    assert (code, report["is_stationary"]) == (1, False)
    code, cert = run_cli(capsys, "certify", "--in", bundle)
    assert (code, cert["conclusion"]) == (1, "boundary-not-in-gamma")


@pytest.mark.parametrize("group, bad", [
    ({"kind": "real"}, float("nan")),
    ({"kind": "real"}, float("inf")),
    ({"kind": "multivector", "ambient_dim": 2, "grade": 1}, [1.0, float("nan")]),
], ids=["real-nan", "real-inf", "multivector-nan"])
def test_nonfinite_chain_coefficient_is_exit_two(tmp_path, capsys, group, bad):
    cpath = write(tmp_path, "complex.json", {"vertices": TRIANGLE_VERTICES, "simplices": SEGMENTS})
    chpath = write(tmp_path, "chain.json", {
        "dimension": 1, "group": group, "terms": [{"simplex": [0, 1], "coeff": bad}]})
    assert main(["flatnorm", "--in", cpath, "--in", chpath]) == 2
    assert capsys.readouterr().out == ""
