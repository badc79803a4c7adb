"""Command-line interface.

Subcommands
-----------
theta        solve the level-k relaxation of a graph model (stable | cut)
exactness    decide whether level one is already the convex hull of a point set
classify01   affine classification of full-dimensional 0/1 point sets
th1          membership of a query point in the first relaxation
moment-dump  emit the symbolic moment-matrix template of a point set
solve        solve a raw SDP problem given as JSON

Every run writes a single JSON report to stdout and a one-line human summary
to stderr.  Each command returns its report's inputDigest (the SHA-256 digest
of each input file's bytes), parameters (the effective values), result and,
where a solver ran, solver diagnostics, with the summary and the exit code.
Input files are opened only by exactalg.read_file, which reads each one once
and returns its parsed value with the digest of the bytes it parsed.  main
builds the rest of the report: it reads the clock before it dispatches, adds
subcommand, version and wallTimeSeconds (so the wall time spans the command's
own imports), rounds floats and writes both.  Identical invocations produce
identical reports except for the wall time.

Exit codes: 0 success (for solver-backed commands: a conclusive answer),
2 invalid input, 3 a resource cap was hit, 4 the solver failed to converge.

Tolerances and caps are set only by flags.  An omitted flag parses as None,
and the command fills it in from SolverOptions() or combopt.DEFAULT_CAP, so
building the parser imports neither module.  Each command imports the modules
it runs when it runs, and theta loads neither geomexact nor quadrics.  Every
SDP goes through momentsdp.solve, the one door to the solver, which imports
sdpsolve and numpy when called: exactness, classify01 and moment-dump never
load numpy, nor does a th1 query decided exactly or a run that ends in
invalid input before its solve.  SolverOptions lives in options, not
momentsdp, and quadrics imports momentsdp only to build a section SDP, so a
th1 query decided exactly loads no momentsdp either.  read_file digests with
CPython's builtin SHA-256, so no subcommand loads hashlib's OpenSSL backend
(about 3.7 MB of resident memory and 5 ms of a cold process).
No class is a `@dataclass`: that module imports `inspect` and compiles
each class's methods at import, 10 to 15 ms of a cold process that loads no
numpy, more than the exact work of a typical `exactness` run.  The result
types derive from `exactalg._Record`, which reads each class's field list
for `__init__` and `to_json`, and the immutable value types from its
subclass `exactalg._Frozen`; neither base loads or generates any code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING, List, Optional, Tuple

from . import __version__
from .errors import InputError, ResourceLimitError, SolverError, ThetaBodyError

if TYPE_CHECKING:
    from .options import SolverOptions


def _round_floats(obj):
    """Round every float to 12 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _solver_options(args) -> SolverOptions:
    """SolverOptions from the solver flags; an omitted flag keeps its default."""
    from .options import SolverOptions

    given = {"feas_tol": args.feas_tol, "gap_tol": args.gap_tol, "max_iter": args.max_iter}
    return SolverOptions(**{k: v for k, v in given.items() if v is not None})


def _solver_parameters(options: SolverOptions) -> dict:
    """The solver settings a report echoes in its parameters."""
    return {"feasTol": options.feas_tol, "gapTol": options.gap_tol, "maxIter": options.max_iter}


def _solver_diagnostics(solution) -> dict:
    return {
        "status": solution.status,
        "iterations": solution.iterations,
        "dualityGap": solution.duality_gap,
        "minEigenvalue": solution.min_eig,
    }


def _integer(text: str) -> int:
    """An integer flag's value, by exactalg's rule for integer tokens."""
    from .exactalg import parse_decimal

    try:
        return parse_decimal(text, "the value")
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_solver_flags(sub) -> None:
    sub.add_argument("--feas-tol", type=float, help="feasibility tolerance")
    sub.add_argument("--gap-tol", type=float, help="duality-gap tolerance")
    sub.add_argument("--max-iter", type=_integer, help="iteration limit")


# ------------------------------------------------------------------ theta

def _cmd_theta(args) -> Tuple[dict, str, int]:
    from .combopt import DEFAULT_CAP, Graph, cut_theta, stable_set_theta
    from .exactalg import read_file
    from .momentsdp import CONCLUSIVE

    graph, digest = read_file(args.graph, "graph", Graph.from_text)
    options = _solver_options(args)
    cap = DEFAULT_CAP if args.cap is None else args.cap
    digests = {"graph": digest}
    raw = None
    if args.weights is not None:
        if args.model != "cut":
            raise InputError("--weights only applies to the cut model")
        if os.path.exists(args.weights):
            raw, digests["weights"] = read_file(args.weights, "weights")
        else:
            try:
                raw = json.loads(args.weights)
            except json.JSONDecodeError as exc:
                raise InputError(
                    f"--weights value {args.weights!r} is neither a readable file "
                    f"nor inline JSON ({exc})"
                ) from exc

    if args.model == "stable":
        result = stable_set_theta(graph, args.level, options=options, cap=cap)
    else:
        result = cut_theta(graph, raw, args.level, options=options, cap=cap)

    report = {
        "inputDigest": digests,
        "parameters": {
            "model": args.model,
            "level": args.level,
            "weights": raw,
            "cap": cap,
            **_solver_parameters(options),
            "vertices": graph.n,
            "edges": [list(e) for e in graph.edges],
        },
        "result": result.to_json(),
        "solver": _solver_diagnostics(result.solution),
    }
    summary = (
        f"theta[{args.model}] level {args.level} on {graph.n} vertices / "
        f"{len(graph.edges)} edges: value {result.value:.6f} ({result.status})"
    )
    return report, summary, 0 if result.status in CONCLUSIVE else 4


# -------------------------------------------------------------- exactness

def _cmd_exactness(args) -> Tuple[dict, str, int]:
    from .exactalg import PointSet, read_file
    from .geomexact import facet_vertex_report, is_exact

    payload, digest = read_file(args.points, "point set")
    points = PointSet.from_json(payload)
    exactness = is_exact(points)
    report = {
        "inputDigest": {"points": digest},
        "parameters": {"pointCount": len(points.points), "ambientDim": points.dim},
        "result": {
            **exactness.to_json(),
            "counts": facet_vertex_report(points, exactness).to_json(),
        },
    }
    verdict = "exact at level one" if exactness.exact else (
        f"not exact; rank bound {exactness.rank_bound}"
    )
    summary = (
        f"exactness on {len(points.points)} points (affine dim "
        f"{exactness.affine_dim}): {verdict}"
    )
    return report, summary, 0


# ------------------------------------------------------------- classify01

def _cmd_classify01(args) -> Tuple[dict, str, int]:
    from .geomexact import classify_01

    classes = classify_01(args.dim)
    exact_count = sum(1 for c in classes if c.exact)
    report = {
        "inputDigest": {},
        "parameters": {"dim": args.dim},
        "result": {
            "classCount": len(classes),
            "exactCount": exact_count,
            "classes": [c.to_json() for c in classes],
        },
    }
    summary = (
        f"classify01 dim {args.dim}: {len(classes)} affine classes, "
        f"{exact_count} exact at level one"
    )
    return report, summary, 0


# -------------------------------------------------------------------- th1

def _cmd_th1(args) -> Tuple[dict, str, int]:
    from .exactalg import PointSet, parse_rational, read_file

    query = tuple(parse_rational(c) for c in args.query.split(","))
    options = _solver_options(args)
    from .quadrics import (
        quadric_space_from_generators,
        quadric_space_from_points,
        th1_membership,
    )

    if args.points is not None:
        flag, path = "points", args.points
        payload, digest = read_file(path, "point set")
        space = quadric_space_from_points(PointSet.from_json(payload))
    else:
        flag, path = "gens", args.gens
        payload, digest = read_file(path, "generator")
        if not isinstance(payload, dict) or "dim" not in payload:
            raise InputError("generator file must be {\"dim\": n, \"generators\": [...]}")
        gens = payload.get("generators", [])
        if not isinstance(gens, list):
            raise InputError("\"generators\" must be a list of polynomial strings")
        space = quadric_space_from_generators(payload["dim"], gens)
    result = th1_membership(space, query, options)
    report = {
        "inputDigest": {flag: digest},
        "parameters": {
            flag: path,
            "query": [str(c) for c in query],
            "sliceDimension": space.dimension,
            **_solver_parameters(options),
        },
        "result": result.to_json(),
    }
    if result.solver_status is not None:
        report["solver"] = {"status": result.solver_status}
    return report, f"th1 membership of ({args.query}): {result.status}", 0


# ------------------------------------------------------------ moment-dump

def _cmd_moment_dump(args) -> Tuple[dict, str, int]:
    from .exactalg import PointSet, buchberger_moller, read_file
    from .momentsdp import build_moment_template

    payload, digest = read_file(args.points, "point set")
    points = PointSet.from_json(payload)
    template = build_moment_template(buchberger_moller(points), args.level)
    report = {
        "inputDigest": {"points": digest},
        "parameters": {
            "level": args.level,
            "pointCount": len(points.points),
            "ambientDim": points.dim,
        },
        "result": template.to_json(),
    }
    summary = (
        f"moment template at level {args.level}: {template.side}x{template.side} "
        f"matrix over {template.y_dim} moment variables"
    )
    return report, summary, 0


# ------------------------------------------------------------------ solve

def _cmd_solve(args) -> Tuple[dict, str, int]:
    from .exactalg import read_file
    from .momentsdp import ITER_LIMIT, SdpProblem, solve

    payload, digest = read_file(args.sdp, "SDP")
    problem = SdpProblem.from_json(payload)
    options = _solver_options(args)
    solution = solve(problem, options)
    report = {
        "inputDigest": {"sdp": digest},
        "parameters": {
            "matrixSide": problem.side,
            "yDim": problem.y_dim,
            **_solver_parameters(options),
        },
        "result": solution.to_json(),
        "solver": _solver_diagnostics(solution),
    }
    summary = (
        f"solve {problem.side}x{problem.side} SDP: status {solution.status}, "
        f"objective {solution.objective:.6f}"
    )
    return report, summary, 4 if solution.status == ITER_LIMIT else 0


# ------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetabody",
        description="Semidefinite relaxations of convex hulls of finite "
        "point sets and graph polytopes, with exactness certificates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    theta = subs.add_parser("theta", help="solve a level-k relaxation of a graph model")
    theta.add_argument("--graph", required=True, help="DIMACS or JSON graph file")
    theta.add_argument(
        "--model", choices=("stable", "cut"), default="stable",
        help="stable-set body or cut body",
    )
    theta.add_argument("--level", type=_integer, default=1, help="relaxation level k >= 1")
    theta.add_argument("--weights", help="cut model edge weights: JSON file path or inline JSON")
    theta.add_argument("--cap", type=_integer, help="cap on enumerated basis elements")
    _add_solver_flags(theta)
    theta.set_defaults(run=_cmd_theta)

    exactness = subs.add_parser("exactness", help="two-level / level-one-exactness certificate")
    exactness.add_argument("--points", required=True, help="point-set JSON file")
    exactness.set_defaults(run=_cmd_exactness)

    classify = subs.add_parser("classify01", help="affine classes of full-dimensional 0/1 sets")
    classify.add_argument("--dim", type=_integer, required=True, help="cube dimension (1-4)")
    classify.set_defaults(run=_cmd_classify01)

    th1 = subs.add_parser("th1", help="membership of a query point in the first relaxation")
    group = th1.add_mutually_exclusive_group(required=True)
    group.add_argument("--points", help="point-set JSON file")
    group.add_argument("--gens", help='generator JSON file {"dim": n, "generators": [...]}')
    th1.add_argument("--query", required=True, help="comma-separated rational coordinates")
    _add_solver_flags(th1)
    th1.set_defaults(run=_cmd_th1)

    dump = subs.add_parser("moment-dump", help="symbolic moment-matrix template of a point set")
    dump.add_argument("--points", required=True, help="point-set JSON file")
    dump.add_argument("--level", type=_integer, default=1, help="template level k >= 1")
    dump.set_defaults(run=_cmd_moment_dump)

    raw = subs.add_parser("solve", help="solve a raw SDP problem from JSON")
    raw.add_argument("--sdp", required=True, help="SDP problem JSON file")
    _add_solver_flags(raw)
    raw.set_defaults(run=_cmd_solve)
    return parser


def _attach_query(argv: List[str]) -> List[str]:
    """Rewrite `--query -1/2,3/4` as `--query=-1/2,3/4`: argparse takes a
    value that starts with '-' for an option unless it is a plain number."""
    out: List[str] = []
    for arg in argv:
        if out and out[-1] == "--query" and arg.startswith("-"):
            out[-1] = "--query=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_query(sys.argv[1:] if argv is None else argv))
    started = time.monotonic()
    try:
        report, summary, code = args.run(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4
    except ThetaBodyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.update(
        subcommand=args.subcommand,
        version=__version__,
        wallTimeSeconds=round(time.monotonic() - started, 6),
    )
    json.dump(_round_floats(report), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
