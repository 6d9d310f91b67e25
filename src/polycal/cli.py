"""Command-line front end.

Inputs and outputs are the JSON documents defined by the owning modules; the
file type is recognized from its keys (a bundle with "complex"/"varifold"
entries, produced by ``demo``, also works).  Exit codes: 0 on pass/success,
1 when a check fails, 2 on input errors.  All randomness is seeded and the
seed is recorded in the output, so runs are replayable.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .calibration import minimality_certificate, phi_flat_bound
from .chains import chain_from_json, chain_to_json
from .complexes import complex_from_json, validate_geometry
from .groups import SubgroupWithNorm, group_from_json, norm_ball, subgroup_norm
from .solver import MinMassProblem, SolverConfig, min_mass_fixed_boundary
from .varifolds import (
    boundary_region_for,
    chainify,
    deform_experiment,
    generate_example,
    stationarity,
    varifold_from_json,
    varifold_to_json,
)


# ---------------------------------------------------------------------------
# input plumbing

def _load_documents(paths):
    docs = []
    for path in paths:
        with open(path) as handle:
            doc = json.load(handle)
        if isinstance(doc, dict) and ("complex" in doc or "varifold" in doc):
            for key in ("complex", "varifold", "chain", "group"):
                if key in doc:
                    docs.append(doc[key])
        else:
            docs.append(doc)
    return docs

def _classify(docs):
    kinds = {}
    for doc in docs:
        if not isinstance(doc, dict):
            raise ValueError("input documents must be JSON objects")
        if "vertices" in doc:
            kinds.setdefault("complex", doc)
        elif "weights" in doc:
            kinds.setdefault("varifold", doc)
        elif "terms" in doc:
            kinds.setdefault("chain", doc)
        elif "kind" in doc:
            kinds.setdefault("group", doc)
        else:
            raise ValueError(f"unrecognized input document with keys {sorted(doc)}")
    return kinds


def _need(kinds, *names):
    missing = [n for n in names if n not in kinds]
    if missing:
        raise ValueError(f"missing input file(s): {', '.join(missing)}")
    return [kinds[n] for n in names]


def _complex_varifold_gamma(kinds):
    cdoc, vdoc = _need(kinds, "complex", "varifold")
    K, gamma = complex_from_json(cdoc)
    V = varifold_from_json(K, vdoc)
    if gamma is None:
        gamma = boundary_region_for(V)
    return K, V, gamma


def _solver_config(args) -> SolverConfig:
    if args.solver_config:
        with open(args.solver_config) as handle:
            return SolverConfig.from_json(json.load(handle))
    return SolverConfig()


# ---------------------------------------------------------------------------
# command handlers: each takes the parsed arguments and the classified input
# documents and returns (exit_code, payload)

def _cmd_validate(args, kinds):
    (cdoc,) = _need(kinds, "complex")
    K, _ = complex_from_json(cdoc)
    report = validate_geometry(K, tol=args.tol or 1e-7)
    return (0 if report.valid else 1), report.to_json()


def _cmd_stationarity(args, kinds):
    K, V, gamma = _complex_varifold_gamma(kinds)
    report = stationarity(V, gamma, tol=args.tol)
    return (0 if report.is_stationary else 1), report.to_json()


def _cmd_chainify(args, kinds):
    K, V, _ = _complex_varifold_gamma(kinds)
    return 0, chain_to_json(chainify(V))


def _cmd_certify(args, kinds):
    K, V, gamma = _complex_varifold_gamma(kinds)
    cert = minimality_certificate(
        V,
        gamma,
        tol=args.tol or 1e-9,
        with_solver=args.with_solver,
        solver_config=_solver_config(args),
    )
    return (0 if cert.passed else 1), cert.to_json()


def _cmd_minimize(args, kinds):
    cdoc, chdoc = _need(kinds, "complex", "chain")
    K, _ = complex_from_json(cdoc)
    b = chain_from_json(K, chdoc)
    config = _solver_config(args)
    problem = MinMassProblem(K, b.dimension + 1, b, b.group, config)
    result = min_mass_fixed_boundary(problem)
    payload = result.to_json()
    payload["seed"] = args.seed
    return (0 if result.status == "converged" else 1), payload


def _cmd_flatnorm(args, kinds):
    cdoc, chdoc = _need(kinds, "complex", "chain")
    K, _ = complex_from_json(cdoc)
    A = chain_from_json(K, chdoc)
    report = phi_flat_bound(A, solver_config=_solver_config(args))
    return (0 if report.passed else 1), report.to_json()


def _cmd_deform(args, kinds):
    K, V, gamma = _complex_varifold_gamma(kinds)
    report = deform_experiment(
        V, gamma, trials=args.trials, magnitude=args.magnitude, seed=args.seed, tol=args.tol
    )
    return (0 if report.passed else 1), report.to_json()


def _cmd_groupnorm(args, kinds):
    (gdoc,) = _need(kinds, "group")
    G = group_from_json(gdoc)
    if not isinstance(G, SubgroupWithNorm):
        raise ValueError("groupnorm needs a subgroup descriptor")
    payload = {"generator_norms": list(G.generator_norms)}
    if args.coords is not None:
        coords = [int(tok) for tok in args.coords.split(",") if tok.strip()]
        payload["coords"] = coords
        payload["norm"] = subgroup_norm(G, coords)
    if args.ball is not None:
        members = norm_ball(G, args.ball)
        payload["ball_radius"] = args.ball
        payload["ball"] = [
            {
                "coords": list(m.coords),
                "norm": m.norm,
                "value": G.ambient.coeff_to_json(m.value),
            }
            for m in members
        ]
    if args.coords is None and args.ball is None:
        raise ValueError("groupnorm needs --coords and/or --ball")
    return 0, payload


def _cmd_demo(args, kinds):
    params = {"refinement": args.refine}
    for key in ("radius", "height", "sectors"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    for key in ("directions", "weights"):
        if getattr(args, key) is not None:
            params[key] = json.loads(getattr(args, key))
    K, V, gamma = generate_example(args.name, **params)
    return 0, {"complex": K.to_json(gamma), "varifold": varifold_to_json(V)}


_HANDLERS = {
    "validate": _cmd_validate,
    "stationarity": _cmd_stationarity,
    "chainify": _cmd_chainify,
    "certify": _cmd_certify,
    "minimize": _cmd_minimize,
    "flatnorm": _cmd_flatnorm,
    "deform": _cmd_deform,
    "groupnorm": _cmd_groupnorm,
    "demo": _cmd_demo,
}


def _parser():
    parser = argparse.ArgumentParser(
        prog="polycal",
        description="polyhedral chains, varifolds, and calibration certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--in", dest="inputs", action="append", default=[], metavar="FILE")
        p.add_argument("--out", default=None, metavar="FILE")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--solver-config", default=None, metavar="FILE")

    for name in ("validate", "stationarity", "chainify", "minimize", "flatnorm"):
        common(sub.add_parser(name))
    certify = sub.add_parser("certify")
    common(certify)
    certify.add_argument("--with-solver", action="store_true")
    deform = sub.add_parser("deform")
    common(deform)
    deform.add_argument("--trials", type=int, default=100)
    deform.add_argument("--magnitude", type=float, default=0.1)
    groupnorm = sub.add_parser("groupnorm")
    common(groupnorm)
    groupnorm.add_argument("--coords", default=None, help="comma-separated integers")
    groupnorm.add_argument("--ball", type=float, default=None, help="norm-ball radius")
    demo = sub.add_parser("demo")
    common(demo)
    demo.add_argument("name")
    demo.add_argument("--radius", type=float, default=None)
    demo.add_argument("--height", type=float, default=None)
    demo.add_argument("--refine", type=int, default=0)
    demo.add_argument("--sectors", type=int, default=None)
    demo.add_argument("--directions", default=None, help="JSON list of vectors")
    demo.add_argument("--weights", default=None, help="JSON list of weights")
    return parser


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2, default=float)
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        kinds = _classify(_load_documents(args.inputs))
        code, payload = _HANDLERS[args.command](args, kinds)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"polycal: error: {exc}", file=sys.stderr)
        return 2
    provenance = payload.setdefault("provenance", {})
    provenance.setdefault("command", args.command)
    provenance.setdefault("seed", args.seed)
    provenance.setdefault("version", __version__)
    _emit(payload, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
