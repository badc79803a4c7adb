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
error when a configurable cap (default 20000 elements) is exceeded, holding
at most one set past it.  The level-k template is
momentsdp.template_from_products over the set sizes, and both relaxations
share one solve-and-project routine, which hands its SDP to momentsdp.solve,
the door to the solver: numpy loads only there.

That routine solves over the orbits of the graph's automorphisms that keep
the objective (Gatermann-Parrilo, JPAA 192, 2004): every vertex permutation
for stable sets, those that keep each edge's exact weight for cuts.  The
SDP, and the solver's starting point, are invariant under the group, so in
exact arithmetic every iterate is too, and restricting y to the fixed
subspace changes only rounding.  The group comes as a strong generating set
over base points 1..n: for each base point, the backtracking search with
colour refinement of the symmetry module finds one automorphism per point
missing from its orbit under the generators found so far.  The search stops
after MAX_SEARCH_NODES consistency tests and keeps what it found; a subgroup
has finer orbits, so results stay exact, only the reduced SDP is larger, and
the report's groupComplete says the order is a subgroup's.
Vertex permutations act on stable sets directly and on odd-cycle-free edge
sets through the edges they induce; union-find over that action numbers the
orbits of the y-coordinates by least member, so a trivial group maps every
coordinate to itself and y_0 stays alone.  momentsdp.build_theta_sdp, the one
map from template to reduced SDP, enters coordinate l of orbit o as z_o /
sqrt(|o|): the F_l of one orbit have disjoint supports of equal norm, so the
scaling keeps the data norms the solver starts from and tests against, and
with them its iteration counts.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import InputError, ResourceLimitError
from .exactalg import (
    Monomial, _find, _Frozen, _Record, parse_decimal, parse_integer, parse_rational)
from .momentsdp import MomentTemplate, build_theta_sdp, orbit_scales, solve, template_from_products
from .options import SolverOptions
from .symmetry import MAX_SEARCH_NODES, _AutomorphismSearch, _orbit

STABLE_SETS = "StableSets"
ODD_CYCLE_FREE = "OddCycleFreeEdgeSets"

DEFAULT_CAP = 20000


class Graph(_Frozen):
    """Simple undirected graph on vertices 1..n with sorted edge pairs."""

    _fields = ("n", "edges")

    def __init__(self, n: int, edges):
        n = parse_integer(n, "a vertex count", 1)
        try:
            pairs = [(parse_integer(u, "an endpoint"), parse_integer(v, "an endpoint"))
                     for u, v in edges]
        except (TypeError, ValueError) as exc:
            raise InputError(f"invalid graph: {exc}") from exc
        for u, v in pairs:
            if u == v:
                raise InputError(f"loop at vertex {u} is not allowed")
            if not (1 <= u <= n and 1 <= v <= n):
                raise InputError(f"edge ({u},{v}) outside vertex range 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted({(min(u, v), max(u, v)) for u, v in pairs})))

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> List[set]:
        adj = [set() for _ in range(self.n + 1)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    @staticmethod
    def from_json(obj) -> "Graph":
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise InputError('graph JSON needs keys "n" and "edges"')
        edges = obj["edges"]
        if type(edges) is not list or not all(type(e) is list and len(e) == 2 for e in edges):
            raise InputError("graph JSON edges must be [u, v] lists of integral numbers")
        return Graph(obj["n"], edges)

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
                if n is not None:
                    raise InputError(f"line {lineno}: second problem line")
                if len(tokens) < 4:
                    raise InputError(f"line {lineno}: malformed problem line")
                n = parse_decimal(tokens[2], f"line {lineno}: the vertex count")
                m = parse_decimal(tokens[3], f"line {lineno}: the edge count")
            elif tokens[0] == "e":
                if n is None:
                    raise InputError(f"line {lineno}: edge before problem line")
                if len(tokens) != 3:
                    raise InputError(f"line {lineno}: malformed edge line")
                edges.append([parse_decimal(t, f"line {lineno}: an endpoint") for t in tokens[1:]])
            else:
                raise InputError(f"line {lineno}: unknown record {tokens[0]!r}")
        if n is None:
            raise InputError("DIMACS input has no problem line")
        if len(edges) != m:
            raise InputError(f"problem line declares {m} edges, found {len(edges)}")
        return Graph(n, edges)

    @staticmethod
    def from_text(text: str) -> "Graph":
        """A graph file's text: JSON when it starts with "{", else DIMACS."""
        if text.lstrip().startswith("{"):
            return Graph.from_json(json.loads(text))
        return Graph.from_dimacs(text)


class CombBasis(_Record):
    """A subset-closed family of ground-element sets, sorted by size then lex.

    kind is StableSets (ground = vertices) or OddCycleFreeEdgeSets (ground =
    edges).  Elements are tuples of 0-based ground indices; the empty tuple
    is always first.  exhausted is True when no element larger than those
    listed exists.
    """

    _fields = ("kind", "graph", "ground", "elements", "max_size", "exhausted")

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
    max_size, cap = parse_integer(max_size, "max_size", 0), parse_integer(cap, "cap", 1)
    out: List[Tuple[int, ...]] = []
    frontier: List[Tuple[int, ...]] = [()]
    exhausted = False
    while True:
        out.extend(frontier)
        if len(out) > cap:
            raise ResourceLimitError(f"{kind} enumeration exceeded cap {cap}")
        if len(frontier[0]) == max_size:
            break
        level = (
            elem + (g,)
            for elem in frontier
            for g in range(elem[-1] + 1 if elem else 0, len(ground))
            if admits(elem + (g,))
        )
        # one set past the cap is enough to refuse: memory stays bounded by it
        frontier = list(itertools.islice(level, cap + 1 - len(out)))
        if not frontier:
            exhausted = True
            break
    return CombBasis(kind=kind, graph=graph, ground=ground, elements=out, max_size=max_size,
                     exhausted=exhausted)


def enumerate_stable_sets(
    graph: Graph, max_size: int, cap: int = DEFAULT_CAP
) -> CombBasis:
    """All stable sets of size <= max_size, sorted by size then lex."""
    if max_size > 0 and parse_integer(cap, "cap", 1) <= graph.n:
        # the empty set and the n singletons pass the cap: refuse before
        # building the adjacency
        raise ResourceLimitError(f"{STABLE_SETS} enumeration exceeded cap {cap}")
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
        lambda s: _two_colourable(edges[e] for e in s),
        max_size,
        cap,
    )


def _two_colourable(edges) -> bool:
    """Whether the edges form a bipartite graph, by union-find with parities.

    Each vertex keeps its parent and its colour relative to the parent; an
    edge inside one component must join opposite colours.  Without witness
    and without path compression: the candidates have a handful of edges.
    """
    parent: Dict[int, Tuple[int, int]] = {}

    def root(u):
        colour = 0
        while u in parent:
            u, flip = parent[u]
            colour ^= flip
        return u, colour

    for u, v in edges:
        (ru, cu), (rv, cv) = root(u), root(v)
        if ru == rv:
            if cu == cv:
                return False
        else:
            parent[ru] = (rv, cu ^ cv ^ 1)
    return True


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


def automorphism_group(
    graph: Graph, weights: Optional[List[Fraction]] = None
) -> Tuple[List[List[int]], int, bool]:
    """Strong generators and order of the graph's automorphism group, and
    whether the search finished.

    With weights (parallel to graph.edges) only permutations that keep every
    edge's exact weight count.  A generator g maps vertex v to g[v-1] + 1.
    Base points are 1..n; the order is the product of the basic orbit
    lengths.  Past MAX_SEARCH_NODES consistency tests the search stops: the
    generators found so far generate a subgroup, whose order is returned,
    and the flag is False.
    """
    weights = weights or [Fraction(1)] * graph.m
    # equal weights get equal small ints, which hash and compare faster
    rank = {w: r for r, w in enumerate(sorted(set(weights)))}
    nbrs: List[Dict[int, int]] = [{} for _ in range(graph.n)]
    for (u, v), w in zip(graph.edges, weights):
        nbrs[u - 1][v - 1] = rank[w]
        nbrs[v - 1][u - 1] = rank[w]
    search = _AutomorphismSearch(nbrs, MAX_SEARCH_NODES)
    generators: List[List[int]] = []
    order = 1
    for i in reversed(range(graph.n)):
        # every generator so far fixes 0..i-1
        orbit = _orbit(i, generators)
        fixed = list(range(i)) + [-1] * (graph.n - i)
        for j in search.candidates(i, fixed):
            if j < i or j in orbit:
                continue
            g = search.find(i, j)
            if g is not None:
                generators.append(g)
                orbit = _orbit(i, generators)
            elif search.spent:
                return generators, order * len(orbit), False
        order *= len(orbit)
    return generators, order, True


def coordinate_orbits(
    basis: CombBasis, y_dim: int, generators: List[List[int]]
) -> List[int]:
    """Orbit number of each of the first y_dim basis elements under the
    vertex permutations, numbered by least member in increasing order."""
    elements = basis.elements
    index = basis.index()
    if basis.kind == STABLE_SETS:
        actions = generators
    else:
        edge = {e: g for g, e in enumerate(basis.ground)}
        actions = [
            [edge[tuple(sorted((p[u - 1] + 1, p[v - 1] + 1)))] for u, v in basis.ground]
            for p in generators
        ]
    parent = list(range(y_dim))
    for act in actions:
        for l in range(y_dim):
            a = _find(parent, l)
            b = _find(parent, index[tuple(sorted(act[g] for g in elements[l]))])
            parent[max(a, b)] = min(a, b)
    orbit: List[int] = []
    count = 0
    for l in range(y_dim):
        r = _find(parent, l)
        if r == l:
            orbit.append(count)
            count += 1
        else:
            orbit.append(orbit[r])
    return orbit


class ThetaResult(_Record):
    """Outcome of a level-k theta relaxation over a graph model."""

    _fields = ("value", "x", "status", "level", "kind", "solution", "template", "group_order",
               "group_complete", "y_orbits")
    _internal = ("solution", "template")

    def to_json(self) -> dict:
        return {**super().to_json(), "matrixSide": self.template.side, "yDim": self.template.y_dim}


def _theta(
    basis: CombBasis,
    k: int,
    objective,
    weights: Optional[List[Fraction]],
    options: Optional[SolverOptions],
) -> ThetaResult:
    """Solve the level-k relaxation of a linear objective over the basis,
    over the orbits of the automorphisms that keep the edge weights."""
    template = moment_template(basis, k)
    generators, group_order, group_complete = automorphism_group(basis.graph, weights)
    orbit = coordinate_orbits(basis, template.y_dim, generators)
    problem = build_theta_sdp(template, objective, orbit)
    sol = solve(problem, options)
    sol.y = [sol.y[o] * s for o, s in zip(orbit, orbit_scales(orbit))]
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
        group_order=group_order,
        group_complete=group_complete,
        y_orbits=problem.y_dim - len(problem.fixed),
    )


def stable_set_theta(
    graph: Graph,
    k: int,
    options: Optional[SolverOptions] = None,
    cap: int = DEFAULT_CAP,
) -> ThetaResult:
    """Level-k theta relaxation of the maximum stable set of the graph."""
    k = parse_integer(k, "level", 1)
    objective = {Monomial.variable(v, graph.n): 1 for v in range(1, graph.n + 1)}
    return _theta(
        enumerate_stable_sets(graph, 2 * k, cap=cap), k, objective, None, options
    )


def parse_weights(raw, graph: Graph) -> List[Fraction]:
    """Accept a per-edge list (edge order of graph.edges), a {"u,v": w} or
    {(u, v): w} mapping, or None for unit weights."""
    if raw is None:
        return [Fraction(1)] * graph.m
    try:
        if isinstance(raw, dict):
            table = {}
            for key, value in raw.items():
                if isinstance(key, str):
                    parts = re.split(r"[,\s]+", key.strip())
                    if len(parts) != 2:
                        raise InputError(f"bad edge key {key!r}")
                    u, v = (parse_decimal(p, "an edge key's vertex") for p in parts)
                else:
                    u, v = (parse_integer(p, "an edge key's vertex") for p in key)
                edge = (min(u, v), max(u, v))
                if edge in table:
                    raise InputError(f"edge {edge} is given two weights")
                table[edge] = parse_rational(value)
            missing = [e for e in graph.edges if e not in table]
            if missing:
                raise InputError(f"missing weight for edge {missing[0]}")
            extras = [e for e in table if e not in set(graph.edges)]
            if extras:
                raise InputError(f"weight given for non-edge {extras[0]}")
            return [table[e] for e in graph.edges]
        weights = [parse_rational(w) for w in raw]
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid weights: {exc}") from exc
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
    k = parse_integer(k, "level", 1)
    wlist = parse_weights(weights, graph)
    negative = [w for w in wlist if w < 0]
    if negative:
        raise InputError("cut weights must be non-negative")
    objective = {
        Monomial.variable(e + 1, graph.m): wlist[e] for e in range(graph.m)
    }
    if not objective:
        raise InputError("graph has no edges")
    return _theta(
        enumerate_odd_cycle_free(graph, 2 * k, cap=cap), k, objective, wlist, options
    )
