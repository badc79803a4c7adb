"""Theta bodies of stable-set and max-cut ideals, built combinatorially.

For the stable-set ideal of a graph G the quotient basis is the set of
squarefree monomials x^U over stable sets U, so moment templates can be
enumerated directly from the graph: the cell of a pair (U, U') is the
y-coordinate of U union U' when that union is again stable and zero
otherwise.  Maximizing sum_i y_i over the level-k matrix gives the level-k
stable-set theta function (level 1 is the Lovasz theta body of G).

The max-cut model optimizes over characteristic vectors of edge sets that
are contained in some cut, i.e. edge sets whose subgraph is bipartite
(odd-cycle free).  That family is again closed under subsets, so the same
template construction applies with edges as the ground set; the union of two
odd-cycle-free sets is dropped to zero exactly when it picks up an odd cycle.

Both families come from one enumerator that extends each set by larger
ground elements a level at a time, keeping the extensions a predicate admits
(no neighbour inside the set; a bipartite edge subgraph).  Sets come sorted
by size then lexicographically, and the enumeration aborts with a resource
error when a configurable cap (default 20000 elements) is exceeded.  The
level-k template is momentsdp.template_from_products over the set sizes, and
both relaxations share one solve-and-project routine.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import InputError, ResourceLimitError
from .exactalg import Monomial, parse_rational
from .momentsdp import MomentTemplate, build_theta_sdp, template_from_products
from .sdpsolve import SdpSolution, SolverOptions, solve

STABLE_SETS = "StableSets"
ODD_CYCLE_FREE = "OddCycleFreeEdgeSets"

DEFAULT_CAP = 20000


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n with sorted edge pairs."""

    n: int
    edges: Tuple[Tuple[int, int], ...]

    def __init__(self, n: int, edges):
        n = int(n)
        if n < 1:
            raise InputError("graph needs at least one vertex")
        seen = set()
        normalized = []
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise InputError(f"loop at vertex {u} is not allowed")
            if not (1 <= u <= n and 1 <= v <= n):
                raise InputError(f"edge ({u},{v}) outside vertex range 1..{n}")
            pair = (min(u, v), max(u, v))
            if pair not in seen:
                seen.add(pair)
                normalized.append(pair)
        normalized.sort()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> List[set]:
        adj = [set() for _ in range(self.n + 1)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @staticmethod
    def from_json(obj) -> "Graph":
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise InputError('graph JSON needs keys "n" and "edges"')
        return Graph(obj["n"], obj["edges"])

    @staticmethod
    def from_dimacs(text: str) -> "Graph":
        n = None
        edges = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            tokens = line.split()
            if tokens[0] == "p":
                if len(tokens) < 4:
                    raise InputError(f"line {lineno}: malformed problem line")
                try:
                    n = int(tokens[2])
                except ValueError as exc:
                    raise InputError(f"line {lineno}: bad vertex count") from exc
            elif tokens[0] == "e":
                if n is None:
                    raise InputError(f"line {lineno}: edge before problem line")
                if len(tokens) != 3:
                    raise InputError(f"line {lineno}: malformed edge line")
                try:
                    edges.append((int(tokens[1]), int(tokens[2])))
                except ValueError as exc:
                    raise InputError(f"line {lineno}: bad edge endpoints") from exc
            else:
                raise InputError(f"line {lineno}: unknown record {tokens[0]!r}")
        if n is None:
            raise InputError("DIMACS input has no problem line")
        return Graph(n, edges)

    @staticmethod
    def from_file(path: str) -> "Graph":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise InputError(f"cannot read graph file {path}: {exc}") from exc
        stripped = text.lstrip()
        if stripped.startswith("{"):
            try:
                return Graph.from_json(json.loads(text))
            except json.JSONDecodeError as exc:
                raise InputError(f"invalid JSON in {path}: {exc}") from exc
        return Graph.from_dimacs(text)


@dataclass
class CombBasis:
    """A subset-closed family of ground-element sets, sorted by size then lex.

    kind is StableSets (ground = vertices) or OddCycleFreeEdgeSets (ground =
    edges).  Elements are tuples of 0-based ground indices; the empty tuple
    is always first.
    """

    kind: str
    graph: Graph
    ground: List
    elements: List[Tuple[int, ...]]
    max_size: int
    exhausted: bool = False  # True when no element larger than those listed exists

    def index(self) -> Dict[Tuple[int, ...], int]:
        return {e: i for i, e in enumerate(self.elements)}

    def label(self, element: Tuple[int, ...]) -> str:
        if not element:
            return "1"
        if self.kind == STABLE_SETS:
            return "*".join(f"x{self.ground[i]}" for i in element)
        return "*".join(f"e{u}_{v}" for u, v in (self.ground[i] for i in element))


def _enumerate(
    graph: Graph, kind: str, ground: List, admits, max_size: int, cap: int
) -> CombBasis:
    """Sets of size <= max_size in the subset-closed family over `ground`.

    A set extends by a larger ground index when admits(extended set) holds;
    sets come level by level, sorted by size then lex.
    """
    if max_size < 0:
        raise InputError("max_size must be >= 0")
    out: List[Tuple[int, ...]] = []
    frontier: List[Tuple[int, ...]] = [()]
    exhausted = False
    while True:
        out.extend(frontier)
        if len(out) > cap:
            raise ResourceLimitError(f"{kind} enumeration exceeded cap {cap}")
        if len(frontier[0]) == max_size:
            break
        frontier = [
            elem + (g,)
            for elem in frontier
            for g in range(elem[-1] + 1 if elem else 0, len(ground))
            if admits(elem + (g,))
        ]
        if not frontier:
            exhausted = True
            break
    return CombBasis(kind, graph, ground, out, max_size, exhausted)


def enumerate_stable_sets(
    graph: Graph, max_size: int, cap: int = DEFAULT_CAP
) -> CombBasis:
    """All stable sets of size <= max_size, sorted by size then lex."""
    adj = [{u - 1 for u in nbrs} for nbrs in graph.adjacency()[1:]]
    return _enumerate(
        graph,
        STABLE_SETS,
        list(range(1, graph.n + 1)),
        lambda s: adj[s[-1]].isdisjoint(s[:-1]),
        max_size,
        cap,
    )


def enumerate_odd_cycle_free(
    graph: Graph, max_size: int, cap: int = DEFAULT_CAP
) -> CombBasis:
    """All edge subsets of size <= max_size whose subgraph is bipartite."""
    edges = graph.edges
    return _enumerate(
        graph,
        ODD_CYCLE_FREE,
        list(edges),
        lambda s: is_bipartite(Graph(graph.n, [edges[e] for e in s]))[0],
        max_size,
        cap,
    )


def is_bipartite(graph: Graph):
    """2-colorability plus an explicit odd-cycle witness when it fails.

    Returns (True, None) or (False, cycle) where cycle is an odd-length list
    of vertices with consecutive entries (and the wrap-around pair) adjacent.
    """
    adj = graph.adjacency()
    color = [None] * (graph.n + 1)
    parent = [0] * (graph.n + 1)
    for root in range(1, graph.n + 1):
        if color[root] is not None:
            continue
        color[root] = 0
        parent[root] = 0
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in sorted(adj[u]):
                if color[v] is None:
                    color[v] = color[u] ^ 1
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    # walk both endpoints to the root, splice at the meeting point
                    up, vp = [u], [v]
                    while up[-1] != root:
                        up.append(parent[up[-1]])
                    while vp[-1] != root:
                        vp.append(parent[vp[-1]])
                    while len(up) > 1 and len(vp) > 1 and up[-2] == vp[-2]:
                        up.pop()
                        vp.pop()
                    cycle = up[:-1] + list(reversed(vp))
                    assert len(cycle) % 2 == 1
                    return False, cycle
    return True, None


def moment_template(basis: CombBasis, k: int) -> MomentTemplate:
    """Level-k moment template over a subset-closed combinatorial basis.

    Rows are the elements of size <= k and y-coordinates those of size
    <= 2k; the cell of (U, U') is the unit vector on U union U' when the
    union belongs to the family and the zero vector otherwise.  Cells with
    equal unions share one object.
    """
    if basis.max_size < 2 * k and not basis.exhausted:
        raise InputError(
            f"basis enumerated to size {basis.max_size}, level {k} needs "
            f"size {2 * k} (or an exhausted enumeration)"
        )
    elements = basis.elements
    index = basis.index()

    def union(i: int, j: int) -> Tuple[int, ...]:
        return tuple(sorted({*elements[i], *elements[j]}))

    def cell(i: int, j: int) -> Dict[int, Fraction]:
        l = index.get(union(i, j))
        return {l: Fraction(1)} if l is not None else {}

    return template_from_products(
        k,
        [len(e) for e in elements],
        [basis.label(e) for e in elements],
        union,
        cell,
        len(basis.ground),
        {g + 1: index.get((g,)) for g in range(len(basis.ground))},
    )


@dataclass
class ThetaResult:
    """Outcome of a level-k theta relaxation over a graph model."""

    value: float
    x: List[float]
    status: str
    level: int
    kind: str
    solution: SdpSolution
    template: MomentTemplate

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "x": list(self.x),
            "status": self.status,
            "level": self.level,
            "kind": self.kind,
            "matrixSide": self.template.side,
            "yDim": self.template.y_dim,
        }


def _theta(
    basis: CombBasis, k: int, objective, options: Optional[SolverOptions]
) -> ThetaResult:
    """Solve the level-k relaxation of a linear objective over the basis."""
    template = moment_template(basis, k)
    sol = solve(build_theta_sdp(template, objective), options)
    linear = template.linear_index
    return ThetaResult(
        value=sol.objective,
        x=[
            float(sol.y[linear[g]]) if g in linear else 0.0
            for g in range(1, template.ambient_dim + 1)
        ],
        status=sol.status,
        level=k,
        kind=basis.kind,
        solution=sol,
        template=template,
    )


def stable_set_theta(
    graph: Graph,
    k: int,
    options: Optional[SolverOptions] = None,
    cap: int = DEFAULT_CAP,
) -> ThetaResult:
    """Level-k theta relaxation of the maximum stable set of the graph."""
    if k < 1:
        raise InputError("level must be >= 1")
    objective = {Monomial.variable(v, graph.n): 1 for v in range(1, graph.n + 1)}
    return _theta(enumerate_stable_sets(graph, 2 * k, cap=cap), k, objective, options)


def parse_weights(raw, graph: Graph) -> List[Fraction]:
    """Accept a per-edge list (edge order of graph.edges), a {"u,v": w} or
    {(u, v): w} mapping, or None for unit weights."""
    if raw is None:
        return [Fraction(1)] * graph.m
    if isinstance(raw, dict):
        table = {}
        for key, value in raw.items():
            if isinstance(key, str):
                parts = re.split(r"[,\s]+", key.strip())
                if len(parts) != 2:
                    raise InputError(f"bad edge key {key!r}")
                u, v = int(parts[0]), int(parts[1])
            else:
                u, v = int(key[0]), int(key[1])
            table[(min(u, v), max(u, v))] = parse_rational(value)
        missing = [e for e in graph.edges if e not in table]
        if missing:
            raise InputError(f"missing weight for edge {missing[0]}")
        extras = [e for e in table if e not in set(graph.edges)]
        if extras:
            raise InputError(f"weight given for non-edge {extras[0]}")
        return [table[e] for e in graph.edges]
    weights = [parse_rational(w) for w in raw]
    if len(weights) != graph.m:
        raise InputError(
            f"{len(weights)} weights given, graph has {graph.m} edges"
        )
    return weights


def cut_theta(
    graph: Graph,
    weights=None,
    k: int = 1,
    options: Optional[SolverOptions] = None,
    cap: int = DEFAULT_CAP,
) -> ThetaResult:
    """Level-k theta relaxation of the maximum cut of the edge-weighted graph.

    Weights must be non-negative; the model optimizes sum_e w_e y_e over
    moment matrices of the cut ideal (edge sets contained in a cut are
    exactly the odd-cycle-free ones).
    """
    if k < 1:
        raise InputError("level must be >= 1")
    wlist = parse_weights(weights, graph)
    negative = [w for w in wlist if w < 0]
    if negative:
        raise InputError("cut weights must be non-negative")
    objective = {
        Monomial.variable(e + 1, graph.m): wlist[e] for e in range(graph.m)
    }
    if not objective:
        raise InputError("graph has no edges")
    return _theta(enumerate_odd_cycle_free(graph, 2 * k, cap=cap), k, objective, options)
