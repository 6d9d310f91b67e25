"""Property tests: how the input is written, placed or scaled must not change the answer.

Relabelling the vertices, permuting the vertex order inside every input tuple
and splitting a weight into duplicate entries each rewrite a catalog bundle's
JSON documents.  The certificate's conclusion, Phi and M of the associated
chain and the stationarity ``max_residual`` must come out the same, to 1e-12
(relative, absolute near 0, as the goldens compare floats).  When the tuples
are reordered the associated chain is also read back from its JSON, with each
coefficient negated for an odd permutation.  This exercises the batched
parity, row lookup and duplicate merge of the parsers.

A rigid motion, a uniform scaling and the isometric embedding of R^N into
R^(N+1) move the vertices instead.  Mass scales with them, so the
certificate's conclusion and Phi/M must come out the same, Phi/M to 1e-12
relative: every tolerance of the certificate is measured against a natural
scale of the input.  Scaling every varifold weight by the same factor must
not change them either.

The min-mass solver starts from the calibration's dual.  Whatever that start,
its weak-duality bound for the boundary of a chain A may not exceed M(A),
which is the mass of a feasible point: not for the start itself, not for the
start with half of its rows negated, and not at the end of the solve.

The provenance hashes are taken of texts written from the arrays.  Each must
be the text ``json.dumps(doc, sort_keys=True)`` writes for the document the
complex or varifold serializes to, whatever the floats: -0.0 beside 0.0, the
smallest subnormal, the largest finite values, repeated and distinct ones.
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polycal.calibration import minimality_certificate, phi
from polycal.chains import (
    boundary,
    calibration_cochain,
    chain_from_json,
    chain_to_json,
    mass,
    transport_chain,
)
from polycal.complexes import EmbeddedComplex, complex_from_json, subdivide
from polycal.solver import (
    MinMassProblem,
    SolverConfig,
    _dual_bound,
    min_mass_fixed_boundary,
)
from polycal.varifolds import (
    CATALOG,
    PolyhedralVarifold,
    chainify,
    generate_example,
    stationarity,
    varifold_from_json,
    varifold_text,
    varifold_to_json,
)
from test_acceptance import delaunay_complex, random_lambda_chain

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


def verdict(cdoc, vdoc):
    K, gamma = complex_from_json(cdoc)
    V = varifold_from_json(K, vdoc)
    A = chainify(V)
    return minimality_certificate(V, gamma).conclusion, phi(A) / mass(A)


def assert_same_verdict(case, vertices):
    cdoc, vdoc = bundle(*case)
    want = verdict(cdoc, vdoc)
    got = verdict(dict(cdoc, ambient_dim=vertices.shape[1], vertices=vertices.tolist()), vdoc)
    assert got[0] == want[0]
    assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0)


@SETTINGS
@given(case=st.sampled_from(BUNDLES), seed=st.integers(0, 2**32 - 1))
def test_rigid_motion_changes_nothing(case, seed):
    rng = np.random.default_rng(seed)
    vertices = np.array(bundle(*case)[0]["vertices"])
    n = vertices.shape[1]
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    assert_same_verdict(case, vertices @ q.T + rng.uniform(-10, 10, n))


@pytest.mark.parametrize("scale", [1e-6, 1e6])
@pytest.mark.parametrize("case", BUNDLES, ids=[f"{label}-r{k}" for label, k in BUNDLES])
def test_uniform_scaling_changes_nothing(case, scale):
    assert_same_verdict(case, scale * np.array(bundle(*case)[0]["vertices"]))


@pytest.mark.parametrize("case", BUNDLES, ids=[f"{label}-r{k}" for label, k in BUNDLES])
def test_embedding_in_one_more_dimension_changes_nothing(case):
    vertices = np.array(bundle(*case)[0]["vertices"])
    assert_same_verdict(case, np.hstack([vertices, np.zeros((len(vertices), 1))]))


@pytest.mark.parametrize("scale", [1e-6, 1e6])
@pytest.mark.parametrize("case", BUNDLES, ids=[f"{label}-r{k}" for label, k in BUNDLES])
def test_scaling_the_weights_changes_nothing(case, scale):
    cdoc, vdoc = bundle(*case)
    scaled = dict(vdoc, weights=[dict(e, c=scale * e["c"]) for e in vdoc["weights"]])
    want, got = verdict(cdoc, vdoc), verdict(cdoc, scaled)
    assert got[0] == want[0]
    assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0)


@functools.lru_cache(maxsize=None)
def refined_chain(label):
    """The r0 chain of a bundle, moved onto one barycentric refinement."""
    name, params = EXAMPLES[label]
    K, V, gamma = generate_example(name, **params)
    refined, corr = subdivide(K, "barycentric")
    return transport_chain(chainify(V), corr)


@SETTINGS
@given(case=st.sampled_from(["delaunay", *EXAMPLES]), seed=st.integers(0, 2**32 - 1))
def test_the_dual_start_never_lifts_the_bound_above_the_mass(case, seed):
    rng = np.random.default_rng(seed)
    if case == "delaunay":
        A = random_lambda_chain(rng, delaunay_complex(rng, 14, 2), 1)
    else:
        A = refined_chain(case)
    K, m, dA = A.complex, A.dimension, boundary(A)
    cfg = SolverConfig()
    target = np.zeros((K.n_simplices(m - 1), A.group.width))
    target[dA.ids] = dA.coeffs
    MT = K.boundary_matrix(m).T.tocsr()
    start = -calibration_cochain(K, m)
    flipped = start.copy()
    flipped[rng.permutation(len(start))[: len(start) // 2]] *= -1
    for Y in (start, flipped):
        assert _dual_bound(MT, K.volumes(m), target, Y) <= mass(A) + cfg.primal_tol
    res = min_mass_fixed_boundary(MinMassProblem(K, m, dA, A.group, cfg))
    assert res.status == "converged"
    assert res.lower_bound <= mass(A) + cfg.primal_tol


def assert_texts_are_the_json_texts(K, V):
    doc = K.to_json()
    del doc["gamma_faces"]
    assert K.content_text() == json.dumps(doc, sort_keys=True)
    assert varifold_text(V) == json.dumps(varifold_to_json(V), sort_keys=True)


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, -1e16, 0.1, 1.0, -2.0, 3e-7]


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data(), n=st.integers(2, 7), dim=st.integers(1, 3))
def test_the_hashed_texts_are_the_json_texts(data, n, dim):
    """The complex is n vertices in R^dim and a path of edges, with the
    isolated vertex n-1 when the path stops short; no geometry is checked."""
    number = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    coords = data.draw(st.lists(number, min_size=n * dim, max_size=n * dim))
    stop = data.draw(st.integers(1, n - 1))
    edges = [(i, i + 1) for i in range(stop - 1)] + [(stop - 1, stop)]
    K = EmbeddedComplex(np.reshape(coords, (n, dim)), [[(i,) for i in range(n)], edges])
    weight = st.one_of(st.sampled_from([w for w in SPECIAL_FLOATS if w > 0]),
                       st.floats(min_value=5e-324, allow_infinity=False))
    weights = data.draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    assert_texts_are_the_json_texts(K, PolyhedralVarifold(K, 1, np.arange(len(edges)), weights))


def test_negative_zero_keeps_its_sign_beside_zero():
    K = EmbeddedComplex([[0.0, -0.0], [-0.0, 0.0], [1.0, 1.0]], [[(0,), (1,), (2,)], [(0, 1), (1, 2)]])
    assert '"vertices": [[0.0, -0.0], [-0.0, 0.0], [1.0, 1.0]]' in K.content_text()
    assert_texts_are_the_json_texts(K, PolyhedralVarifold(K, 1, [0, 1], [0.1, 1e308]))


@pytest.mark.parametrize("label", EXAMPLES)
def test_the_hashed_texts_of_the_refined_catalog_are_the_json_texts(label):
    name, params = EXAMPLES[label]
    K, V, _ = generate_example(name, refinement=2, **params)
    assert_texts_are_the_json_texts(K, V)
