"""The three workloads: their seeded inputs, operations and checks.

An operation is one user-level call into the program: a theta relaxation, an
exactness check, a membership query or a CLI invocation.  ``Op.run`` makes
the call (it may read outputs of earlier operations of the same pass from
``state``); ``Op.check`` verifies the output against ``checks`` and returns
the operation's status and sizes.  Library calls go through module
attributes (``combopt.stable_set_theta``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

import thetabody.combopt as combopt
import thetabody.exactalg as exactalg
import thetabody.geomexact as geomexact
import thetabody.momentsdp as momentsdp
import thetabody.quadrics as quadrics
import thetabody.sdpsolve as sdpsolve

import checks
from checks import CheckError, OpFailed, close, require

CONCLUSIVE = ("Optimal", "NearOptimal")
# Full-dimensional subsets of {0,1}^3 fall into five two-level affine classes
# (Bohn et al., "Enumeration of 2-level polytopes", MPC 2019).
TWO_LEVEL_CLASSES_DIM3 = 5
CHILD_TIMEOUT_S = 60


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], dict]


@dataclass
class Workload:
    name: str
    ops: List[Op]
    warmup: List[Op]
    # point sets whose hull data the qhull oracle must supply, by name
    hull_sets: Dict[str, list] = field(default_factory=dict)
    expected: Dict[str, dict] = field(default_factory=dict)
    # max RSS (KiB) of each CLI child, for workloads that run the CLI
    child_rss: Optional[List[int]] = None


@dataclass
class Context:
    root: Path
    src: Path
    tmp: Path
    env: Dict[str, str]
    trace_mode: Optional[str] = None


# ---------------------------------------------------------------- inputs


def cycle(n):
    return n, sorted([(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete(n):
    return n, list(itertools.combinations(range(1, n + 1), 2))


# Edge lists are sorted pairs (u < v), the order Graph gives its edges.
PETERSEN = (10, sorted([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                        (5, 10), (6, 8), (8, 10), (7, 10), (7, 9), (6, 9)]))
K23 = (5, [(u, v) for u in (1, 2) for v in (3, 4, 5)])


def random_graph(rng, n, m):
    return n, sorted(rng.sample(list(itertools.combinations(range(1, n + 1), 2)), m))


def random_bipartite(rng, left, right, m):
    pairs = [(u, v) for u in range(1, left + 1) for v in range(left + 1, left + right + 1)]
    return left + right, sorted(rng.sample(pairs, m))


def cube(d):
    return [tuple(p) for p in itertools.product((0, 1), repeat=d)]


def cross_polytope(d):
    return [tuple(s * (i == j) for j in range(d)) for i in range(d) for s in (1, -1)]


def cube_subset(rng, d, size):
    return sorted(rng.sample(cube(d), size))


def stable_set_points(graph):
    n, edges = graph
    adj = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
    out = []
    for bits in itertools.product((0, 1), repeat=n):
        members = [i + 1 for i in range(n) if bits[i]]
        if not any((u, v) in adj for u, v in itertools.combinations(members, 2)):
            out.append(bits)
    return out


def _circle_point(t):
    return ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))


def _sphere_point(a, b):
    d = 1 + a * a + b * b
    return (2 * a / d, 2 * b / d, (a * a + b * b - 1) / d)


def circle_points(rng, size):
    pts = set()
    while len(pts) < size:
        pts.add(_circle_point(F(rng.randint(-9, 9), rng.randint(1, 5))))
    return sorted(pts)


def sphere_points(rng, size):
    """Rational points of the unit sphere on no quadric but the sphere."""
    while True:
        pts = set()
        while len(pts) < size:
            pts.add(_sphere_point(F(rng.randint(-6, 6), rng.randint(1, 3)),
                                  F(rng.randint(-6, 6), rng.randint(1, 3))))
        pts = sorted(pts)
        if quadric_slice_dim(pts) == 1:
            return pts


def deg2_exponents(dim):
    out = [tuple(0 for _ in range(dim))]
    for deg in (1, 2):
        for combo in itertools.combinations_with_replacement(range(dim), deg):
            out.append(tuple(combo.count(i) for i in range(dim)))
    return out


def quadric_slice_dim(points):
    monos = deg2_exponents(len(points[0]))
    rows = [[checks.monomial_value(m, p) for m in monos] for p in points]
    return len(monos) - checks.exact_rank(rows)


def ball_query(rng, dim, outside):
    """A rational point strictly outside (or inside) the unit ball."""
    while True:
        z = tuple(F(rng.randint(-12, 12), 8) for _ in range(dim))
        r = sum(c * c for c in z)
        if (r > 1) if outside else (r < 1):
            return z


def _pointset(points):
    return exactalg.PointSet(len(points[0]), points)


def _graph(graph):
    return combopt.Graph(*graph)


# ---------------------------------------------------------------- graph-theta


def _theta_op(name, graph, model, k, weights=None, hits=None, closed=None, level1=None):
    """One stable-set or cut relaxation with its independent checks.

    ``hits`` says the value must equal the brute-force optimum, ``closed`` is
    a closed-form value, ``level1`` names the level-1 op of the same graph.
    """
    n, edges = graph
    if model == "stable":
        opt = checks.brute_alpha(n, edges)
        run = lambda state: combopt.stable_set_theta(_graph(graph), k)  # noqa: E731
        coeffs = [1] * n
    else:
        wl = weights or [1] * len(edges)
        opt = checks.brute_max_cut(n, edges, wl)
        raw = None if weights is None else {f"{u},{v}": w for (u, v), w in zip(edges, wl)}
        run = lambda state: combopt.cut_theta(_graph(graph), raw, k)  # noqa: E731
        coeffs = wl

    def check(res, state):
        sol = res.solution
        if res.status not in CONCLUSIVE:
            raise OpFailed(f"status {res.status}")
        y, li = sol.y, res.template.linear_index
        require(y[0] == 1.0, "y_0 is not pinned to 1")
        x = [y[li[g]] for g in range(1, len(coeffs) + 1)]
        require(all(close(a, b, 1e-12) for a, b in zip(x, res.x)), "x is not the degree-one part of y")
        value = sum(float(c) * v for c, v in zip(coeffs, x))
        require(close(value, res.value, 1e-9), f"value {res.value} is not the objective at y ({value})")
        checks.check_moment_psd(res.template.cells, res.template.side, y)
        require(res.value >= float(opt) - checks.VALUE_TOL * (1 + float(opt)),
                f"value {res.value:.9g} below the optimum {opt}")
        if hits:
            require(close(res.value, float(opt), 1e-5), f"value {res.value:.9g} should equal {opt}")
        if closed is not None:
            require(close(res.value, closed), f"value {res.value:.9g} should be {closed:.9g}")
        if level1 is not None:
            upper = state[level1].value
            require(res.value <= upper + checks.VALUE_TOL * (1 + abs(upper)),
                    f"level-{k} value {res.value:.9g} exceeds level 1 ({upper:.9g})")
        return {"status": res.status, "side": res.template.side,
                "free_y": res.template.y_dim - 1, "iterations": sol.iterations}

    return Op(name, f"{model}-theta", run, check)


def _graph_ops(label, graph, model, weights=None, perfect=False, level2_hits=False, odd_cycle=False):
    first = f"{model}1.{label}"
    closed = checks.odd_cycle_theta1(graph[0]) if odd_cycle else None
    return [
        _theta_op(first, graph, model, 1, weights, hits=perfect, closed=closed),
        _theta_op(f"{model}2.{label}", graph, model, 2, weights, hits=level2_hits, level1=first),
    ]


def graph_theta(rng, ctx, smoke=False) -> Workload:
    k5 = complete(5)
    c7 = cycle(7)
    specs = [
        ("C7", c7, "stable", None, dict(odd_cycle=True, level2_hits=True)),
        ("C8", cycle(8), "stable", None, dict(perfect=True)),
        ("C9", cycle(9), "stable", None, dict(odd_cycle=True)),
        ("C10", cycle(10), "stable", None, dict(perfect=True)),
        ("C11", cycle(11), "stable", None, dict(odd_cycle=True)),
        ("petersen", PETERSEN, "stable", None, {}),
        ("bip10", random_bipartite(rng, 5, 5, 12), "stable", None, dict(perfect=True)),
        ("rand11", random_graph(rng, 11, 22), "stable", None, {}),
        ("rand12", random_graph(rng, 12, 30), "stable", None, {}),
        ("K5", k5, "cut", None, {}),
        ("K5w", k5, "cut", [3, 1, 4, 1, 5, 2, 6, 5, 3, 5], {}),
        ("C7", c7, "cut", None, {}),
        ("C7w", c7, "cut", [2, 7, 1, 8, 2, 8, 1], {}),
        ("rand6", random_graph(rng, 6, 8), "cut", None, {}),
    ]
    g6w = random_graph(rng, 6, 8)
    specs.append(("rand6w", g6w, "cut", [rng.randint(1, 5) for _ in g6w[1]], {}))
    if smoke:
        specs = [s for s in specs if s[0] in ("C7", "bip10", "rand6w")]
    ops = [op for label, g, model, w, kw in specs for op in _graph_ops(label, g, model, w, **kw)]
    warmup = _graph_ops("C5", cycle(5), "stable", odd_cycle=True, level2_hits=True)
    return Workload("graph-theta", ops, warmup)


# ---------------------------------------------------------------- point-sets


def _point_ops(label, points, objective, queries, expected, theta_levels=(1, 2)):
    """Ring, templates, theta SDPs, quadric slice, convex quadric and
    membership queries on one point set.

    ``queries`` is a list of (point, expectation) with expectation one of
    "outside" (must be Outside), "inside" (must be Inside) or "hull" (a point
    of conv(S), which must not be Outside).
    """
    dim = len(points[0])

    def basis_of(ring):
        return [m.exponents for m in ring.basis]

    def bm_check(ring, state):
        checks.check_order_ideal(basis_of(ring), points)
        return {"status": "ok", "points": len(points), "top_degree": ring.top_degree}

    def template_check(k):
        def check(tpl, state):
            ring = state[f"{label}.bm"]
            basis = basis_of(ring)
            require(tpl.row_indices == [i for i, b in enumerate(basis) if sum(b) <= k],
                    "rows are not the degree-<=k basis elements")
            require(tpl.y_dim == sum(1 for b in basis if sum(b) <= 2 * k),
                    "y-coordinates are not the degree-<=2k basis elements")
            checks.check_product_rule(tpl.row_indices, tpl.cells, basis, points)
            return {"status": "ok", "side": tpl.side, "free_y": tpl.y_dim - 1, "points": len(points)}
        return check

    best = max(sum(F(c) * p[i] for i, c in enumerate(objective)) for p in points)
    obj = {exactalg.Monomial.variable(i + 1, dim): c for i, c in enumerate(objective) if c}

    def theta_run(k):
        def run(state):
            problem = momentsdp.build_theta_sdp(state[f"{label}.template{k}"], obj)
            return problem, sdpsolve.solve(problem)
        return run

    def theta_check(k):
        def check(out, state):
            problem, sol = out
            tpl = state[f"{label}.template{k}"]
            sizes = {"status": sol.status, "side": problem.side, "free_y": problem.y_dim - 1,
                     "points": len(points), "iterations": sol.iterations}
            if expected.get("unbounded"):
                if sol.status != "Unbounded":
                    raise OpFailed(f"status {sol.status}, expected Unbounded (TH1 is all of R^n)")
                return sizes
            if sol.status not in CONCLUSIVE:
                raise OpFailed(f"status {sol.status}")
            value = sum(c * sol.y[l] for l, c in problem.objective.items())
            require(close(value, sol.objective, 1e-9), "objective is not <c, y>")
            checks.check_moment_psd(tpl.cells, tpl.side, sol.y)
            tol = checks.VALUE_TOL * (1 + abs(float(best)))
            require(sol.objective >= float(best) - tol,
                    f"theta value {sol.objective:.9g} below max over S ({float(best):.9g})")
            if expected.get("two_level"):
                require(sol.objective <= float(best) + tol,
                        f"two-level set: theta value {sol.objective:.9g} != {float(best):.9g}")
            if k == 2:
                upper = state[f"{label}.theta1"][1].objective
                require(sol.objective <= upper + tol, "level-2 value exceeds level 1")
            return sizes
        return check

    def slice_check(space, state):
        monos = deg2_exponents(dim)
        expect = quadric_slice_dim(points)
        require(space.dimension == expect, f"slice dimension {space.dimension}, expected {expect}")
        for q in space.basis:
            for p in points:
                require(q.evaluate(p) == 0, "slice element does not vanish on S")
        vectors = [[_coefficient(q, m) for m in monos] for q in space.basis]
        require(checks.exact_rank(vectors) == len(vectors), "slice basis is dependent")
        return {"status": "ok", "points": len(points), "dimension": space.dimension}

    def convex_check(rep, state):
        # every set here lies on a convex quadric: x_i^2 - x_i or |x|^2 - 1
        require(rep.exists, "no convex quadric reported, but one vanishes on S")
        if rep.certificate is not None and rep.verified:
            require(checks.is_psd_by_minors(rep.certificate.a), "verified certificate is not PSD")
        return {"status": rep.status, "points": len(points)}

    def member_check(z, expect):
        def check(rep, state):
            if rep.status == "Outside":
                q = rep.certificate if rep.certificate is not None else rep.ray
                require(q is not None, "Outside without a certificate")
                checks.check_quadric_certificate(q, points, z, ray=rep.certificate is None)
                require(expect == "outside", f"query {expect} the body reported Outside")
            elif expect == "outside":
                raise CheckError(f"query outside the unit ball reported {rep.status}")
            if expect == "inside":
                require(rep.status == "Inside", f"query inside the unit ball reported {rep.status}")
            return {"status": rep.status, "points": len(points)}
        return check

    ops = [
        Op(f"{label}.bm", "bm", lambda state: exactalg.buchberger_moller(_pointset(points)), bm_check),
    ]
    unbounded = expected.get("unbounded")
    for k in (1,) if unbounded else (1, 2):
        ops.append(Op(f"{label}.template{k}", "template",
                      lambda state, k=k: momentsdp.build_moment_template(state[f"{label}.bm"], k),
                      template_check(k)))
    for k in theta_levels:
        ops.append(Op(f"{label}.theta{k}", "point-theta", theta_run(k), theta_check(k)))
    if unbounded:
        return ops
    ops.append(Op(f"{label}.slice", "slice",
                  lambda state: quadrics.quadric_space_from_points(_pointset(points)), slice_check))
    ops.append(Op(f"{label}.convex", "convex-quadric",
                  lambda state: quadrics.has_convex_quadric(state[f"{label}.slice"]), convex_check))
    for i, (z, expect) in enumerate(queries):
        ops.append(Op(f"{label}.th1.{i}", "membership",
                      lambda state, z=z: quadrics.th1_membership(state[f"{label}.slice"], z),
                      member_check(z, expect)))
    return ops


def _coefficient(q, exps):
    """Coefficient of the monomial with these exponents in a Quadric."""
    support = [i for i, e in enumerate(exps) for _ in range(e)]
    if not support:
        return q.c
    if len(support) == 1:
        return q.b[support[0]]
    i, j = support
    return q.a[i][i] if i == j else 2 * q.a[i][j]


def _hull_queries(rng, points, count):
    """Points of S and points of conv(S) (midpoints, the centroid)."""
    out = [(p, "hull") for p in rng.sample(points, count - 3)]
    for _ in range(2):
        a, b = rng.sample(points, 2)
        out.append((tuple((F(x) + F(y)) / 2 for x, y in zip(a, b)), "hull"))
    out.append((tuple(sum(F(p[i]) for p in points) / len(points) for i in range(len(points[0]))), "hull"))
    return out


def _ball_queries(rng, points, count):
    """Queries on the sphere's variety: outside the ball (Outside), inside it
    (Inside) and points of S (not Outside)."""
    dim = len(points[0])
    out = [(ball_query(rng, dim, True), "outside") for _ in range(count - 4)]
    out += [(ball_query(rng, dim, False), "inside") for _ in range(2)]
    out += [(p, "hull") for p in rng.sample(points, 2)]
    return out


def _objective(rng, dim):
    while True:
        c = [rng.randint(-3, 3) for _ in range(dim)]
        if any(c):
            return c


# Fixed inputs on which the program fails every time; each is counted in
# ``failed`` until the fault is mended.  Fourteen sphere points (the set
# point-sets draws for seed 118) whose level-2 theta SDP makes
# sdpsolve.solve raise OverflowError.
SPHERE_OVERFLOW = [
    (F(-18, 19), F(6, 19), F(1, 19)), (F(-4, 9), F(4, 9), F(7, 9)), (F(-32, 93), F(20, 93), F(85, 93)),
    (F(-6, 19), F(1, 19), F(18, 19)), (F(-6, 19), F(10, 19), F(15, 19)),
    (F(-6, 23), F(-54, 115), F(97, 115)), (F(-5, 31), F(6, 31), F(30, 31)),
    (F(-4, 149), F(48, 149), F(141, 149)), (F(6, 19), F(-6, 19), F(17, 19)),
    (F(6, 19), F(10, 19), F(15, 19)), (F(1, 3), F(2, 15), F(14, 15)), (F(3, 7), F(2, 7), F(6, 7)),
    (F(36, 65), F(-96, 325), F(253, 325)), (F(12, 17), F(8, 17), F(9, 17)),
]
SPHERE_OVERFLOW_OBJECTIVE = [-1, 3, -1]
# The even-weight points of the 4-cube (a two-level cross-polytope) and a
# query outside their hull: th1_membership answers Outside with a quadric
# that misses S by ~6e-10, because its coefficients are rounded floats.
HALF_CUBE4_QUERY = (F(-1, 2), F(1, 4), F(1, 4), F(1, 4))


def _add_point_moments(wl, rng, smoke):
    """Point sets through the ring, templates, theta SDPs and quadrics."""
    # The level-2 theta SDP of the seeded sphere sets is left out: on some
    # seeds sdpsolve.solve raises OverflowError there (see SPHERE_OVERFLOW).
    sets = [
        ("cube4a", cube_subset(rng, 4, 8), "cube", (1, 2)),
        ("cube4b", cube_subset(rng, 4, 11), "cube", (1, 2)),
        ("cube5a", cube_subset(rng, 5, 12), "cube", (1, 2)),
        ("cube5b", cube_subset(rng, 5, 16), "cube", (1, 2)),
        ("circle", circle_points(rng, 12), "ball", (1, 2)),
        ("sphere", sphere_points(rng, 14), "ball", (1,)),
    ]
    if smoke:
        sets = [sets[0], sets[4]]
    for label, pts, kind, levels in sets:
        wl.hull_sets[label] = pts
        queries = _hull_queries(rng, pts, 10) if kind == "cube" else _ball_queries(rng, pts, 10)
        wl.expected[label] = {}
        wl.ops += _point_ops(label, pts, _objective(rng, len(pts[0])), queries, wl.expected[label], levels)
    # Fixed, seed-independent: the degree-<=2 monomials are independent on
    # the grid {0,1,2}^3, so TH1 is all of R^3 and the SDP is Unbounded.
    wl.ops += _point_ops("grid3", cube_grid(3, 3), [1, 2, 0], [], {"unbounded": True}, (1,))
    fixed = [
        ("sphere-overflow", SPHERE_OVERFLOW, SPHERE_OVERFLOW_OBJECTIVE, []),
        ("halfcube4", [p for p in cube(4) if sum(p) % 2 == 0], [1, -1, 2, 0], [(HALF_CUBE4_QUERY, "outside")]),
    ]
    for label, pts, objective, queries in fixed:
        wl.hull_sets[label] = pts
        wl.expected[label] = {}
        wl.ops += _point_ops(label, pts, objective, queries, wl.expected[label])
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    wl.hull_sets["square"] = square
    wl.expected["square"] = {}
    wl.warmup += _point_ops("square", square, [1, 1], [((0, 0), "hull"), ((F(1, 2), F(1, 2)), "hull")],
                            wl.expected["square"])


def cube_grid(dim, size):
    return [tuple(p) for p in itertools.product(range(size), repeat=dim)]




def _exactness_op(label, points, expected):
    def run(state):
        ps = _pointset(points)
        return geomexact.is_exact(ps), geomexact.facet_vertex_report(ps)

    def check(out, state):
        report, counts = out
        checks.check_hull_report(points, report, counts, expected[label])
        return {"status": "exact" if report.exact else "not-exact", "points": len(points),
                "affine_dim": report.affine_dim, "facets": len(report.facets)}

    return Op(f"exactness.{label}", "exactness", run, check)


def _down_closed_op(label, graph, expected):
    n, edges = graph
    points = stable_set_points(graph)
    cliques = _maximal_cliques(graph)

    def check(rep, state):
        exp = expected[label]
        require(rep.is_01 and rep.down_closed and rep.full_dimensional, "family not seen as full-dim down-closed")
        require(list(rep.graph.edges) == sorted(edges), "reconstructed graph differs from the input graph")
        require(rep.matches_stable_sets is True, "family not matched to the stable sets")
        require(rep.exact == exp["two_level"], "two-level verdict disagrees with qhull")
        if rep.exact:
            require(rep.facet_forms_ok is True, "facets of a two-level stable-set polytope not in clique form")
            require(rep.clique_facets == cliques, f"clique facets {rep.clique_facets} != {cliques}")
        return {"status": "exact" if rep.exact else "not-exact", "points": len(points),
                "affine_dim": n}

    return Op(f"downclosed.{label}", "down-closed",
              lambda state: geomexact.down_closed_analysis(points), check), points


def _maximal_cliques(graph):
    """Maximal cliques with >= 2 vertices, by brute force."""
    n, edges = graph
    es = set(edges)
    cliques = [c for r in range(2, n + 1) for c in itertools.combinations(range(1, n + 1), r)
               if all(p in es for p in itertools.combinations(c, 2))]
    return sorted(c for c in cliques if not any(set(c) < set(d) for d in cliques))


def _classify_op(full_dim_count):
    def check(classes, state):
        require(sum(c.subset_count for c in classes) == full_dim_count,
                "class subset counts do not sum to the full-dimensional subsets")
        require(sum(c.exact for c in classes) == TWO_LEVEL_CLASSES_DIM3,
                f"{sum(c.exact for c in classes)} two-level classes, literature has 5")
        for c in classes:
            pts = [tuple(p) for p in c.representative]
            require(len(pts) == c.size and set(pts) <= set(cube(3)), "bad class representative")
            require(checks.affine_rank(pts) == 3, "representative is not full-dimensional")
            require(c.exact == (c.rank_bound == 1), "rank bound disagrees with two-levelness")
        return {"status": "ok", "classes": len(classes), "affine_dim": 3}

    return Op("classify01.3", "classify", lambda state: geomexact.classify_01(3), check)


def _add_exact_hulls(wl, rng, smoke):
    """Exactness checks, down-closed analysis and classify_01(3)."""
    fixed = [
        ("cube3", cube(3)), ("cube4", cube(4)),
        ("cross3", cross_polytope(3)), ("cross4", cross_polytope(4)), ("cross5", cross_polytope(5)),
        # the hypersimplex (4, 2): six points of affine dimension 3
        ("hypersimplex42", [p for p in cube(4) if sum(p) == 2]),
    ]
    seeded = [
        ("sub3", cube_subset(rng, 3, 6)),
        ("sub4a", cube_subset(rng, 4, 9)), ("sub4b", cube_subset(rng, 4, 11)),
        ("sub5a", cube_subset(rng, 5, 10)), ("sub5b", cube_subset(rng, 5, 12)),
    ]
    graphs = [("K23", K23), ("C5", cycle(5)), ("P5", (5, [(1, 2), (2, 3), (3, 4), (4, 5)]))]
    if smoke:
        fixed, seeded, graphs = fixed[:1], seeded[:1], graphs[1:2]
    for label, pts in fixed + seeded:
        wl.hull_sets[label] = pts
        wl.ops.append(_exactness_op(label, pts, wl.expected))
    for label, graph in graphs:
        op, pts = _down_closed_op(label, graph, wl.expected)
        wl.hull_sets[label] = pts
        wl.ops.append(op)
    wl.ops.append(_classify_op(checks.full_dim_01_count(3)))
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    wl.hull_sets["square"] = square
    wl.warmup.append(_exactness_op("square", square, wl.expected))


def point_sets(rng, ctx, smoke=False) -> Workload:
    """Exact algebra and geometry on point sets: the point-moments operations,
    then the exact-hulls operations, in one pass."""
    wl = Workload("point-sets", [], [])
    _add_point_moments(wl, rng, smoke)
    _add_exact_hulls(wl, rng, smoke)
    return wl


# ---------------------------------------------------------------- cli-cold


def run_child(cmd, env, cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run a child to its end; returns (exit code, its rusage).

    The wait blocks in wait4: subprocess's timed wait polls with sleeps of up
    to 50 ms, which would show in the measured time.  A timer kills a child
    that hangs."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env, cwd=cwd)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    spans_file: Optional[Path]


def strict_json(text):
    def reject(token):
        raise ValueError(f"invalid JSON token {token}")
    return json.loads(text, parse_constant=reject)


def _cli_op(ctx, wl, name, args, check, expect_code=0):
    spans_script = Path(__file__).resolve().parent / "spans.py"

    def run(state):
        spans_file = None
        cmd = [sys.executable, "-m", "thetabody.cli", *args]
        if ctx.trace_mode:
            spans_file = ctx.tmp / f"{name}.spans.json"
            cmd = [sys.executable, str(spans_script), ctx.trace_mode, str(spans_file), str(ctx.src), *args]
        out_path, err_path = ctx.tmp / f"{name}.out", ctx.tmp / f"{name}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            code, usage = run_child(cmd, ctx.env, ctx.root, out, err)
        wl.child_rss.append(usage.ru_maxrss)
        return CliResult(code, out_path.read_text(), err_path.read_text(), spans_file)

    def checked(res, state):
        if res.code != expect_code:
            raise OpFailed(f"exit {res.code}, expected {expect_code}: {res.stderr.strip()[:120]}")
        if not res.stdout.strip():
            if expect_code == 0:
                raise OpFailed("no report on stdout")
            return {"status": f"exit {res.code}"}
        try:
            report = strict_json(res.stdout)
        except ValueError as exc:
            raise OpFailed(f"stdout is not valid JSON: {exc}") from None
        return check(report, state) if expect_code == 0 else {"status": f"exit {res.code}"}

    return Op(f"cli.{name}", f"cli-{args[0]}", run, checked)


def _write(ctx, name, obj):
    path = ctx.tmp / name
    path.write_text(json.dumps(obj))
    return str(path)


def _pts_json(points):
    return {"dim": len(points[0]), "points": [[str(F(c)) for c in p] for p in points]}


def _fraction_quadric(cert):
    return SimpleNamespace(
        a=[[F(v) for v in row] for row in cert["A"]],
        b=[F(v) for v in cert["b"]],
        c=F(cert["c"]),
    )


def cli_cold(rng, ctx, smoke=False) -> Workload:
    wl = Workload("cli-cold", [], [], child_rss=[])
    c5 = cycle(5)
    g8 = random_graph(rng, 8, 12)
    g5 = random_graph(rng, 5, 7)
    w5 = [rng.randint(1, 5) for _ in g5[1]]
    sub4 = cube_subset(rng, 4, 9)
    sub3 = cube_subset(rng, 3, 6)
    circle = circle_points(rng, 10)
    out_query = ball_query(rng, 2, True)
    in_query = ball_query(rng, 2, False)
    arrow_c = [rng.randint(1, 9), rng.randint(-9, 9)]
    wl.hull_sets["sub4"] = sub4

    def graph_file(name, graph):
        return _write(ctx, name, {"n": graph[0], "edges": [list(e) for e in graph[1]]})

    def theta_check(opt, coeffs, hits=False):
        def check(rep, state):
            res = rep["result"]
            if res["status"] not in CONCLUSIVE:
                raise OpFailed(f"status {res['status']}")
            value = res["value"]
            require(close(sum(c * x for c, x in zip(coeffs, res["x"])), value, 1e-9),
                    "value is not the objective at x")
            require(value >= opt - checks.VALUE_TOL * (1 + opt), f"value {value} below optimum {opt}")
            if hits:
                require(close(value, opt, 1e-5), f"value {value} should equal {opt}")
            require(rep["solver"]["minEigenvalue"] >= -checks.PSD_TOL, "M(y) not PSD")
            return {"status": res["status"], "side": res["matrixSide"], "free_y": res["yDim"] - 1,
                    "iterations": rep["solver"]["iterations"]}
        return check

    def exactness_check(rep, state):
        res = rep["result"]
        facets = [SimpleNamespace(normal=f["normal"], offset=F(f["offset"]),
                                  values=[F(v) for v in f["values"]], tight=f["tight"])
                  for f in res["facets"]]
        report = SimpleNamespace(affine_dim=res["affineDim"], facets=facets, exact=res["exact"],
                                 rank_bound=res["rankBound"])
        c = res["counts"]
        counts = SimpleNamespace(facet_count=c["facetCount"], vertex_count=c["vertexCount"],
                                 affine_dim=c["affineDim"], bound=c["bound"], within_bounds=c["withinBounds"])
        checks.check_hull_report(sub4, report, counts, wl.expected["sub4"])
        return {"status": "exact" if res["exact"] else "not-exact", "points": len(sub4),
                "affine_dim": res["affineDim"]}

    full_dim3 = checks.full_dim_01_count(3)

    def classify_check(rep, state):
        res = rep["result"]
        require(sum(c["subsetCount"] for c in res["classes"]) == full_dim3, "subset counts do not sum up")
        require(res["exactCount"] == TWO_LEVEL_CLASSES_DIM3 == sum(c["exact"] for c in res["classes"]),
                "two-level class count is not 5")
        return {"status": "ok", "classes": res["classCount"], "affine_dim": 3}

    def th1_check(points, query, expect):
        def check(rep, state):
            res = rep["result"]
            if expect == "outside":
                require(res["status"] == "Outside" and res["certificate"], "exterior query not Outside")
                checks.check_quadric_certificate(_fraction_quadric(res["certificate"]), points, query, ray=False)
            else:
                require(res["status"] == "Inside", f"interior query reported {res['status']}")
            return {"status": res["status"], "points": len(points)}
        return check

    def dump_check(rep, state):
        res = rep["result"]
        dim = 3
        labels = res["y"]
        index = {lab: i for i, lab in enumerate(labels)}
        basis = [checks.parse_label(lab, dim) for lab in labels]
        require(len(labels) == len(sub3), "level-2 template of a 3-cube subset must use the whole basis")
        checks.check_order_ideal(basis, sub3)
        cells = {}
        for cell in res["cells"]:
            i, j = (index[lab] for lab in cell["cell"])
            cells[(i, j)] = {index[k[2:-1]]: F(v) for k, v in cell["coeffs"].items()}
        rows = [index[lab] for lab in res["rows"]]
        checks.check_product_rule(rows, cells, basis, sub3)
        return {"status": "ok", "side": len(rows), "free_y": len(labels) - 1, "points": len(sub3)}

    def arrow(c, nan=False):
        cells = [{"row": 0, "col": 0, "coeffs": {"0": 1}}, {"row": 1, "col": 1, "coeffs": {"0": 1}},
                 {"row": 2, "col": 2, "coeffs": {"0": 1}}, {"row": 0, "col": 1, "coeffs": {"1": 1}},
                 {"row": 0, "col": 2, "coeffs": {"2": float("nan") if nan else 1}}]
        return {"side": 3, "yDim": 3, "cells": cells,
                "objective": {"1": c[0], "2": c[1]}, "fixed": {"0": 1}}

    def solve_check(rep, state):
        res = rep["result"]
        if res["status"] not in CONCLUSIVE:
            raise OpFailed(f"status {res['status']}")
        opt = (arrow_c[0] ** 2 + arrow_c[1] ** 2) ** 0.5  # max c.y over the unit disk
        require(close(res["objective"], opt), f"objective {res['objective']} != {opt}")
        return {"status": res["status"], "side": 3, "free_y": 2, "iterations": res["iterations"]}

    c5_file = graph_file("c5.json", c5)
    gens_file = _write(ctx, "gens.json", {"dim": 2, "generators": ["x1^2 + x2^2 - 1"]})
    ops = [
        _cli_op(ctx, wl, "theta-stable2-C5", ["theta", "--graph", c5_file, "--model", "stable", "--level", "2"],
                theta_check(2, [1] * 5, hits=True)),
        _cli_op(ctx, wl, "theta-stable1-rand8",
                ["theta", "--graph", graph_file("g8.json", g8), "--model", "stable", "--level", "1"],
                theta_check(checks.brute_alpha(*g8), [1] * 8)),
        _cli_op(ctx, wl, "theta-cut2-rand5w",
                ["theta", "--graph", graph_file("g5.json", g5), "--model", "cut", "--level", "2",
                 "--weights", json.dumps({f"{u},{v}": w for (u, v), w in zip(g5[1], w5)})],
                theta_check(float(checks.brute_max_cut(*g5, w5)), w5)),
        _cli_op(ctx, wl, "exactness-sub4", ["exactness", "--points", _write(ctx, "sub4.json", _pts_json(sub4))],
                exactness_check),
        _cli_op(ctx, wl, "classify01-3", ["classify01", "--dim", "3"], classify_check),
        _cli_op(ctx, wl, "th1-points-circle",
                ["th1", "--points", _write(ctx, "circle.json", _pts_json(circle)),
                 "--query=" + ",".join(str(c) for c in out_query)],
                th1_check(circle, out_query, "outside")),
        _cli_op(ctx, wl, "th1-gens-circle",
                ["th1", "--gens", gens_file,
                 "--query=" + ",".join(str(c) for c in in_query)],
                th1_check(circle, in_query, "inside")),
        _cli_op(ctx, wl, "moment-dump-sub3",
                ["moment-dump", "--points", _write(ctx, "sub3.json", _pts_json(sub3)), "--level", "2"],
                dump_check),
        _cli_op(ctx, wl, "solve-arrow", ["solve", "--sdp", _write(ctx, "arrow.json", arrow(arrow_c))],
                solve_check),
        # Fixed, seed-independent: the usual form of a query with a negative
        # first coordinate, which argparse takes for an option (exit 2).
        _cli_op(ctx, wl, "th1-query-negative", ["th1", "--gens", gens_file, "--query", "-1/2,3/4"],
                th1_check(circle, (F(-1, 2), F(3, 4)), "inside")),
        # Fixed, seed-independent: a NaN coefficient is invalid input and
        # must end in exit 2 with valid JSON or no stdout.
        _cli_op(ctx, wl, "solve-nan", ["solve", "--sdp", _write(ctx, "nan.json", arrow([1, 1], nan=True))],
                None, expect_code=2),
    ]
    wl.ops = ops[:1] + ops[-1:] if smoke else ops
    return wl


BUILDERS = {
    "graph-theta": graph_theta,
    "point-sets": point_sets,
    "cli-cold": cli_cold,
}


def build(name: str, seed: int, ctx: Context, smoke: bool = False) -> Workload:
    return BUILDERS[name](random.Random(seed), ctx, smoke)
