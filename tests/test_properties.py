"""Property tests: how the input is written must not change the answer.

Relabelling the vertices, permuting the vertex order inside every input tuple
and splitting a weight into duplicate entries each rewrite a catalog bundle's
JSON documents.  The certificate's conclusion, Phi and M of the associated
chain and the stationarity ``max_residual`` must come out the same, to 1e-12
(relative, absolute near 0, as the goldens compare floats).  When the tuples
are reordered the associated chain is also read back from its JSON, with each
coefficient negated for an odd permutation.  This exercises the batched
parity, row lookup and duplicate merge of the parsers.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polycal.calibration import minimality_certificate, phi
from polycal.chains import chain_from_json, chain_to_json, mass
from polycal.complexes import complex_from_json
from polycal.varifolds import (
    CATALOG,
    chainify,
    generate_example,
    stationarity,
    varifold_from_json,
    varifold_to_json,
)

# label: (catalog name, parameters); the L shape is not stationary
EXAMPLES = {name: (name, {}) for name in CATALOG}
EXAMPLES["custom_net_cone"] = ("custom_net_cone", {
    "directions": [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], "weights": [1, 2, 1, 2]})
EXAMPLES["l_shape"] = ("custom_net_cone", {"directions": [[1, 0], [0, 1]]})
BUNDLES = [(label, k) for label in EXAMPLES for k in (0, 1)]
SETTINGS = settings(max_examples=12, deadline=None, database=None)


@functools.lru_cache(maxsize=None)
def bundle(label, refinement):
    name, params = EXAMPLES[label]
    K, V, gamma = generate_example(name, refinement=refinement, **params)
    return K.to_json(gamma), varifold_to_json(V)


def answer(cdoc, vdoc, chdoc=None):
    K, gamma = complex_from_json(cdoc)
    V = varifold_from_json(K, vdoc)
    A = chainify(V) if chdoc is None else chain_from_json(K, chdoc)
    cert = minimality_certificate(V, gamma)
    return cert.conclusion, phi(A), mass(A), stationarity(V, gamma).max_residual


def assert_same_answer(case, cdoc, vdoc, chdoc=None):
    want = answer(*bundle(*case))
    got = answer(cdoc, vdoc, chdoc)
    assert got[0] == want[0]
    assert got[1:] == pytest.approx(want[1:], rel=1e-12, abs=1e-12)


def rewrite(cdoc, vdoc, simplex):
    """Copies of the documents with ``simplex`` applied to every vertex tuple."""
    cdoc = dict(cdoc, simplices=[simplex(t) for t in cdoc["simplices"]],
                gamma_faces=[simplex(t) for t in cdoc["gamma_faces"]])
    vdoc = dict(vdoc, weights=[dict(e, simplex=simplex(e["simplex"])) for e in vdoc["weights"]])
    return cdoc, vdoc


@SETTINGS
@given(case=st.sampled_from(BUNDLES), rnd=st.randoms(use_true_random=False))
def test_relabelling_the_vertices_changes_nothing(case, rnd):
    cdoc, vdoc = bundle(*case)
    label = list(range(len(cdoc["vertices"])))
    rnd.shuffle(label)
    cdoc, vdoc = rewrite(cdoc, vdoc, lambda t: [label[v] for v in t])
    vertices = np.empty_like(np.array(cdoc["vertices"]))
    vertices[label] = cdoc["vertices"]
    assert_same_answer(case, dict(cdoc, vertices=vertices.tolist()), vdoc)


@SETTINGS
@given(case=st.sampled_from(BUNDLES), rnd=st.randoms(use_true_random=False))
def test_reordering_the_vertices_of_each_tuple_changes_nothing(case, rnd):
    def reorder(t):
        t = list(t)
        if rnd.random() < 0.5:
            return t[::-1]
        rnd.shuffle(t)
        return t

    def odd(t):
        return sum(a > b for i, a in enumerate(t) for b in t[i + 1:]) % 2 == 1

    cdoc, vdoc = bundle(*case)
    K, _ = complex_from_json(cdoc)
    chdoc = chain_to_json(chainify(varifold_from_json(K, vdoc)))
    terms = []
    for term in chdoc["terms"]:
        t = reorder(term["simplex"])
        terms.append({"simplex": t, "coeff": [-x if odd(t) else x for x in term["coeff"]]})
    assert_same_answer(case, *rewrite(cdoc, vdoc, reorder), dict(chdoc, terms=terms))


@SETTINGS
@given(case=st.sampled_from(BUNDLES), rnd=st.randoms(use_true_random=False))
def test_splitting_weights_into_duplicates_changes_nothing(case, rnd):
    cdoc, vdoc = bundle(*case)
    entries = []
    for entry in vdoc["weights"]:
        parts = rnd.randint(1, 3)
        entries += [dict(entry, c=entry["c"] / parts) for _ in range(parts)]
    rnd.shuffle(entries)
    assert_same_answer(case, cdoc, dict(vdoc, weights=entries))
