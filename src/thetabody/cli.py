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
to stderr.  Reports embed the tool version, a SHA-256 digest of each input
file, the effective parameters, the result payload, solver diagnostics where
a solver ran, and the wall time.  Identical invocations produce identical
reports except for the wall time.

Exit codes: 0 success (for solver-backed commands: a conclusive answer),
2 invalid input, 3 a resource cap was hit, 4 the solver failed to converge.

Defaults for tolerances and caps may be set via environment variables
(THETA_FEAS_TOL, THETA_GAP_TOL, THETA_MAX_ITER, THETA_CAP);
explicit flags win over the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from typing import Dict, List, Optional

from . import __version__
from .errors import InputError, ResourceLimitError, SolverError, ThetaBodyError
from .exactalg import PointSet, buchberger_moller, parse_rational
from .momentsdp import SdpProblem, build_moment_template
from .sdpsolve import SolverOptions, solve
from .combopt import Graph, cut_theta, parse_weights, stable_set_theta
from .combopt import DEFAULT_CAP
from .geomexact import classify_01, facet_vertex_report, is_exact
from .quadrics import (
    quadric_space_from_generators,
    quadric_space_from_points,
    th1_membership,
)

_ENV_PREFIX = "THETA_"


def _env(name: str, cast, fallback):
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise InputError(f"invalid {_ENV_PREFIX}{name}={raw!r}: {exc}") from exc


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _round_floats(obj):
    """Round every float to 12 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(report: dict, summary: str, started: float) -> None:
    report["wallTimeSeconds"] = round(time.monotonic() - started, 6)
    json.dump(_round_floats(report), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    print(summary, file=sys.stderr)


def _report_skeleton(subcommand: str, digests: Dict[str, str], parameters: dict) -> dict:
    return {
        "subcommand": subcommand,
        "version": __version__,
        "inputDigest": digests,
        "parameters": parameters,
    }


def _solver_options(args) -> SolverOptions:
    defaults = SolverOptions()
    feas = args.feas_tol if args.feas_tol is not None else _env(
        "FEAS_TOL", float, defaults.feas_tol
    )
    gap = args.gap_tol if args.gap_tol is not None else _env(
        "GAP_TOL", float, defaults.gap_tol
    )
    iters = args.max_iter if args.max_iter is not None else _env(
        "MAX_ITER", int, defaults.max_iter
    )
    if feas <= 0 or gap <= 0 or iters < 1:
        raise InputError("tolerances must be positive and max-iter >= 1")
    return SolverOptions(feas_tol=feas, gap_tol=gap, max_iter=iters)


def _solver_diagnostics(solution) -> dict:
    return {
        "status": solution.status,
        "iterations": solution.iterations,
        "dualityGap": solution.duality_gap,
        "minEigenvalue": solution.min_eig,
    }


def _add_solver_flags(sub) -> None:
    sub.add_argument("--feas-tol", type=float, default=None, help="feasibility tolerance")
    sub.add_argument("--gap-tol", type=float, default=None, help="duality-gap tolerance")
    sub.add_argument("--max-iter", type=int, default=None, help="iteration limit")


# ------------------------------------------------------------------ theta

def _cmd_theta(args) -> int:
    started = time.monotonic()
    graph = Graph.from_file(args.graph)
    options = _solver_options(args)
    cap = args.cap if args.cap is not None else _env("CAP", int, DEFAULT_CAP)
    digests = {"graph": _digest(args.graph)}
    weights = None
    weights_param: Optional[object] = None
    if args.model == "cut" and args.weights is not None:
        if os.path.exists(args.weights):
            digests["weights"] = _digest(args.weights)
            with open(args.weights, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        else:
            raw = json.loads(args.weights)
        weights = parse_weights(raw, graph)
        weights_param = raw
    elif args.weights is not None:
        raise InputError("--weights only applies to the cut model")

    if args.model == "stable":
        result = stable_set_theta(graph, args.level, options=options, cap=cap)
    else:
        result = cut_theta(graph, weights, args.level, options=options, cap=cap)

    report = _report_skeleton(
        "theta",
        digests,
        {
            "model": args.model,
            "level": args.level,
            "weights": weights_param,
            "cap": cap,
            "feasTol": options.feas_tol,
            "gapTol": options.gap_tol,
            "maxIter": options.max_iter,
            "vertices": graph.n,
            "edges": [list(e) for e in graph.edges],
        },
    )
    report["result"] = result.to_json()
    report["solver"] = _solver_diagnostics(result.solution)
    summary = (
        f"theta[{args.model}] level {args.level} on {graph.n} vertices / "
        f"{len(graph.edges)} edges: value {result.value:.6f} ({result.status})"
    )
    _emit(report, summary, started)
    return 0 if result.status in ("Optimal", "NearOptimal") else 4


# -------------------------------------------------------------- exactness

def _cmd_exactness(args) -> int:
    started = time.monotonic()
    points = PointSet.from_file(args.points)
    report_body = is_exact(points)
    counts = facet_vertex_report(points, report_body)
    report = _report_skeleton(
        "exactness",
        {"points": _digest(args.points)},
        {"pointCount": len(points.points), "ambientDim": points.dim},
    )
    report["result"] = report_body.to_json()
    report["result"]["counts"] = counts.to_json()
    verdict = "exact at level one" if report_body.exact else (
        f"not exact; rank bound {report_body.rank_bound}"
    )
    summary = (
        f"exactness on {len(points.points)} points (affine dim "
        f"{report_body.affine_dim}): {verdict}"
    )
    _emit(report, summary, started)
    return 0


# ------------------------------------------------------------- classify01

def _cmd_classify01(args) -> int:
    started = time.monotonic()
    classes = classify_01(args.dim)
    report = _report_skeleton("classify01", {}, {"dim": args.dim})
    exact_count = sum(1 for c in classes if c.exact)
    report["result"] = {
        "classCount": len(classes),
        "exactCount": exact_count,
        "classes": [c.to_json() for c in classes],
    }
    summary = (
        f"classify01 dim {args.dim}: {len(classes)} affine classes, "
        f"{exact_count} exact at level one"
    )
    _emit(report, summary, started)
    return 0


# -------------------------------------------------------------------- th1

def _cmd_th1(args) -> int:
    started = time.monotonic()
    digests: Dict[str, str] = {}
    if args.points is not None:
        digests["points"] = _digest(args.points)
        space = quadric_space_from_points(PointSet.from_file(args.points))
        source = {"points": args.points}
    else:
        digests["gens"] = _digest(args.gens)
        with open(args.gens, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or "dim" not in payload:
            raise InputError("generator file must be {\"dim\": n, \"generators\": [...]}")
        gens = payload.get("generators", [])
        if not isinstance(gens, list):
            raise InputError("\"generators\" must be a list of polynomial strings")
        space = quadric_space_from_generators(int(payload["dim"]), gens)
        source = {"gens": args.gens}
    query = tuple(parse_rational(c) for c in args.query.split(","))
    options = _solver_options(args)
    result = th1_membership(space, query, options)
    report = _report_skeleton(
        "th1",
        digests,
        {
            **source,
            "query": [str(c) for c in query],
            "sliceDimension": space.dimension,
            "feasTol": options.feas_tol,
            "gapTol": options.gap_tol,
            "maxIter": options.max_iter,
        },
    )
    report["result"] = result.to_json()
    if result.solver_status is not None:
        report["solver"] = {"status": result.solver_status}
    summary = f"th1 membership of ({args.query}): {result.status}"
    _emit(report, summary, started)
    return 0


# ------------------------------------------------------------ moment-dump

def _cmd_moment_dump(args) -> int:
    started = time.monotonic()
    points = PointSet.from_file(args.points)
    ring = buchberger_moller(points)
    template = build_moment_template(ring, args.level)
    report = _report_skeleton(
        "moment-dump",
        {"points": _digest(args.points)},
        {
            "level": args.level,
            "pointCount": len(points.points),
            "ambientDim": points.dim,
        },
    )
    report["result"] = template.to_json()
    summary = (
        f"moment template at level {args.level}: {template.side}x{template.side} "
        f"matrix over {template.y_dim} moment variables"
    )
    _emit(report, summary, started)
    return 0


# ------------------------------------------------------------------ solve

def _cmd_solve(args) -> int:
    started = time.monotonic()
    problem = SdpProblem.from_file(args.sdp)
    options = _solver_options(args)
    solution = solve(problem, options)
    report = _report_skeleton(
        "solve",
        {"sdp": _digest(args.sdp)},
        {
            "matrixSide": problem.side,
            "yDim": problem.y_dim,
            "feasTol": options.feas_tol,
            "gapTol": options.gap_tol,
            "maxIter": options.max_iter,
        },
    )
    report["result"] = solution.to_json()
    report["solver"] = _solver_diagnostics(solution)
    summary = (
        f"solve {problem.side}x{problem.side} SDP: status {solution.status}, "
        f"objective {solution.objective:.6f}"
    )
    _emit(report, summary, started)
    return 0 if solution.status in (
        "Optimal",
        "NearOptimal",
        "Infeasible",
        "Unbounded",
    ) else 4


# ------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetabody",
        description="Semidefinite relaxations of convex hulls of finite "
        "point sets and graph polytopes, with exactness certificates.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    theta = subs.add_parser(
        "theta", help="solve a level-k relaxation of a graph model"
    )
    theta.add_argument("--graph", required=True, help="DIMACS or JSON graph file")
    theta.add_argument(
        "--model", choices=("stable", "cut"), default="stable",
        help="stable-set body or cut body",
    )
    theta.add_argument("--level", type=int, default=1, help="relaxation level k >= 1")
    theta.add_argument(
        "--weights",
        default=None,
        help="cut model edge weights: JSON file path or inline JSON",
    )
    theta.add_argument(
        "--cap", type=int, default=None, help="cap on enumerated basis elements"
    )
    _add_solver_flags(theta)
    theta.set_defaults(run=_cmd_theta)

    exactness = subs.add_parser(
        "exactness", help="two-level / level-one-exactness certificate"
    )
    exactness.add_argument("--points", required=True, help="point-set JSON file")
    exactness.set_defaults(run=_cmd_exactness)

    classify = subs.add_parser(
        "classify01", help="affine classes of full-dimensional 0/1 sets"
    )
    classify.add_argument("--dim", type=int, required=True, help="cube dimension (1-3)")
    classify.set_defaults(run=_cmd_classify01)

    th1 = subs.add_parser(
        "th1", help="membership of a query point in the first relaxation"
    )
    group = th1.add_mutually_exclusive_group(required=True)
    group.add_argument("--points", default=None, help="point-set JSON file")
    group.add_argument(
        "--gens", default=None, help='generator JSON file {"dim": n, "generators": [...]}'
    )
    th1.add_argument(
        "--query", required=True, help="comma-separated rational coordinates"
    )
    _add_solver_flags(th1)
    th1.set_defaults(run=_cmd_th1)

    dump = subs.add_parser(
        "moment-dump", help="symbolic moment-matrix template of a point set"
    )
    dump.add_argument("--points", required=True, help="point-set JSON file")
    dump.add_argument("--level", type=int, default=1, help="template level k >= 1")
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
    try:
        return args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input: {exc}", file=sys.stderr)
        return 2
    except ThetaBodyError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
