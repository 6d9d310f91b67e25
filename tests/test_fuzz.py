"""One-node mutations of valid input documents, each run through the CLI in process.

Every node of a y_line bundle, of its chain, of a subgroup descriptor and of a
solver config is replaced, one at a time, by each value of ``VALUES``.  Every
run must return 0, 1 or 2 without raising, and what it prints must be strict
JSON: no NaN and no Infinity.
"""

import copy
import json
import math

import pytest

from polycal.chains import boundary, chain_to_json
from polycal.cli import main
from polycal.varifolds import chainify, generate_example, varifold_to_json

VALUES = [True, None, "x", 10**30, -1, 0, 1.5, -0.0, math.inf, math.nan, 1e308, [], [[]], {}, [None], ["1"]]


def node_paths(doc, path=()):
    """The key path of every node of a JSON document, the root included."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from node_paths(child, path + (key,))


def mutated(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def refuse(constant):
    raise ValueError(f"{constant} in the output")


def y_line_documents():
    K, V, gamma = generate_example("y_line")
    chain = chainify(V)
    return {
        "bundle": {"complex": K.to_json(gamma), "varifold": varifold_to_json(V)},
        "complex": K.to_json(gamma),
        "chain": chain_to_json(chain),
        "boundary": chain_to_json(boundary(chain)),
    }


DOCS = y_line_documents()
# a short iteration cap, so that a mutated check_every cannot run the solver long
SOLVER_CONFIG = {"max_iter": 300, "primal_tol": 1e-8, "obj_tol": 1e-6, "relax": 1.8, "check_every": 100}
SUBGROUP = {"kind": "subgroup", "generators": [2.0, 3.0], "generator_norms": [2.0, 3.0]}
# (document to mutate, the option that passes it, the fixed --in documents, the command)
TARGETS = {
    "bundle": (DOCS["bundle"], "--in", [], ["certify"]),
    "chain": (DOCS["chain"], "--in", [DOCS["complex"]], ["flatnorm"]),
    "subgroup": (SUBGROUP, "--in", [], ["groupnorm", "--coords=1,1", "--ball", "4"]),
    "solver-config": (SOLVER_CONFIG, "--solver-config", [DOCS["complex"], DOCS["boundary"]], ["minimize"]),
}


# numpy warns on the way to an overflow, which the CLI then reports with exit 2
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("target", TARGETS)
def test_every_one_node_mutation_exits_cleanly(tmp_path, capsys, target):
    doc, option, fixed, argv = TARGETS[target]
    path = tmp_path / "mutated.json"
    argv = argv + [option, str(path)]
    for k, other in enumerate(fixed):
        (tmp_path / f"fixed{k}.json").write_text(json.dumps(other))
        argv += ["--in", str(tmp_path / f"fixed{k}.json")]
    failures = []
    for node in node_paths(doc):
        for value in VALUES:
            path.write_text(json.dumps(mutated(doc, node, value)))
            case = f"{node} = {value!r}"
            try:
                code = main(argv)
            except Exception as exc:  # the finding: a traceback escapes the CLI
                failures.append(f"{case}: {type(exc).__name__}: {exc}")
                continue
            out = capsys.readouterr().out
            if code not in (0, 1, 2):
                failures.append(f"{case}: exit code {code}")
            elif out.strip():
                try:
                    json.loads(out, parse_constant=refuse)
                except ValueError as exc:
                    failures.append(f"{case}: {exc}")
    assert not failures, "\n".join(failures)
