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

That routine solves over the orbits of the graph's automorphisms that keep
the objective (Gatermann-Parrilo, JPAA 192, 2004): every vertex permutation
for stable sets, those that keep each edge's exact weight for cuts.  The
SDP, and the solver's starting point, are invariant under the group, so in
exact arithmetic every iterate is too, and restricting y to the fixed
subspace changes only rounding.  The group comes as a strong generating set
over base points 1..n: for each base point, a backtracking search with
colour (degree) refinement finds one automorphism per point missing from
its orbit under the generators found so far.  The search stops after
MAX_SEARCH_NODES consistency tests and keeps what it found; a subgroup has
finer orbits, so results stay exact, only the reduced SDP is larger.
Vertex permutations act on stable sets directly and on odd-cycle-free edge
sets through the edges they induce; union-find over that action numbers the
orbits of the y-coordinates by least member, so a trivial group maps every
coordinate to itself and y_0 stays alone.  Coordinate l of orbit o enters
as z_o / sqrt(|o|) (momentsdp.orbit_problem): the F_l of one orbit have
disjoint supports of equal norm, so the scaling keeps the data norms the
solver starts from and tests against, and with them its iteration counts.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import InputError, ResourceLimitError
from .exactalg import Monomial, parse_rational
from .momentsdp import (
    MomentTemplate,
    build_theta_sdp,
    orbit_problem,
    template_from_products,
)
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


# Consistency tests the automorphism search may make for one graph.  Past it
# the generators found so far are kept (a subgroup: finer orbits, same
# results, a larger SDP).
MAX_SEARCH_NODES = 20000


def _refined_colors(nbrs: List[Dict[int, int]]) -> List[int]:
    """Colour refinement of a weighted graph: vertices get equal colours
    until their multisets of (edge weight, neighbour colour) tell them apart.
    Every weight-preserving automorphism keeps the colours."""
    colors = [0] * len(nbrs)
    count = 1
    while True:
        signatures = [
            (colors[v], tuple(sorted((w, colors[u]) for u, w in nbrs[v].items())))
            for v in range(len(nbrs))
        ]
        rank = {s: r for r, s in enumerate(sorted(set(signatures)))}
        colors = [rank[s] for s in signatures]
        if len(rank) == count:
            return colors
        count = len(rank)


class _AutomorphismSearch:
    """Backtracking for weight-preserving vertex permutations (0-based)."""

    def __init__(self, nbrs: List[Dict[int, int]], budget: int):
        self.nbrs = nbrs
        self.colors = _refined_colors(nbrs)
        self.cells: Dict[int, List[int]] = {}
        for v, c in enumerate(self.colors):
            self.cells.setdefault(c, []).append(v)
        self.budget = budget
        self.spent = False
        self._orders: Dict[int, List[int]] = {}

    def _order(self, i: int) -> List[int]:
        """Vertices i+1..n-1 in extension order once 0..i are mapped: next
        the one with most mapped neighbours (its image is most constrained),
        the least such vertex on ties."""
        if i not in self._orders:
            hits = [0] * len(self.nbrs)
            for v in range(i + 1):
                for u in self.nbrs[v]:
                    hits[u] += 1
            rest = set(range(i + 1, len(self.nbrs)))
            order = []
            while rest:
                v = max(rest, key=lambda v: (hits[v], -v))
                rest.remove(v)
                order.append(v)
                for u in self.nbrs[v]:
                    hits[u] += 1
            self._orders[i] = order
        return self._orders[i]

    def candidates(self, v: int, image: List[int]) -> List[int]:
        """Vertices of v's colour next to the image of v's first mapped
        neighbour, or all of v's colour if it has none."""
        for u in self.nbrs[v]:
            if image[u] >= 0:
                c = self.colors[v]
                return sorted(x for x in self.nbrs[image[u]] if self.colors[x] == c)
        return self.cells[self.colors[v]]

    def _fits(self, v: int, w: int, image: List[int], pre: List[int]) -> bool:
        """Can v map to the free vertex w, given the vertices mapped so far?"""
        self.budget -= 1
        if self.budget < 0:
            self.spent = True
            return False
        mapped = 0
        for u, weight in self.nbrs[v].items():
            if image[u] >= 0:
                if self.nbrs[w].get(image[u]) != weight:
                    return False
                mapped += 1
        return mapped == sum(1 for x in self.nbrs[w] if pre[x] >= 0)

    def find(self, i: int, j: int) -> Optional[List[int]]:
        """An automorphism fixing 0..i-1 and mapping i to j (one of
        candidates(i, ...) with 0..i-1 fixed), or None."""
        n = len(self.nbrs)
        image = list(range(i)) + [-1] * (n - i)
        pre = list(range(i)) + [-1] * (n - i)
        if not self._fits(i, j, image, pre):
            return None
        image[i], pre[j] = j, i
        order = self._order(i)
        tries = [iter(())] * len(order)
        depth = 0
        if order:
            tries[0] = iter(self.candidates(order[0], image))
        while depth < len(order):
            v = order[depth]
            w = next(
                (w for w in tries[depth] if pre[w] < 0 and self._fits(v, w, image, pre)),
                None,
            )
            if self.spent:
                return None
            if w is None:
                depth -= 1
                if depth < 0:
                    return None
                pre[image[order[depth]]] = -1
                image[order[depth]] = -1
                continue
            image[v], pre[w] = w, v
            depth += 1
            if depth < len(order):
                tries[depth] = iter(self.candidates(order[depth], image))
        return image


def _orbit(point: int, generators: List[List[int]]) -> set:
    orbit, todo = {point}, [point]
    while todo:
        p = todo.pop()
        for g in generators:
            if g[p] not in orbit:
                orbit.add(g[p])
                todo.append(g[p])
    return orbit


def automorphism_group(
    graph: Graph, weights: Optional[List[Fraction]] = None
) -> Tuple[List[List[int]], int]:
    """Strong generators and order of the graph's automorphism group.

    With weights (parallel to graph.edges) only permutations that keep every
    edge's exact weight count.  A generator g maps vertex v to g[v-1] + 1.
    Base points are 1..n; the order is the product of the basic orbit
    lengths.  Past MAX_SEARCH_NODES consistency tests the search stops: the
    generators found so far generate a subgroup, whose order is returned.
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
                return generators, order * len(orbit)
        order *= len(orbit)
    return generators, order


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

    def root(l: int) -> int:
        while parent[l] != l:
            parent[l] = parent[parent[l]]
            l = parent[l]
        return l

    for act in actions:
        for l in range(y_dim):
            a = root(l)
            b = root(index[tuple(sorted(act[g] for g in elements[l]))])
            parent[max(a, b)] = min(a, b)
    orbit: List[int] = []
    count = 0
    for l in range(y_dim):
        r = root(l)
        if r == l:
            orbit.append(count)
            count += 1
        else:
            orbit.append(orbit[r])
    return orbit


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
    group_order: int
    y_orbits: int

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "x": list(self.x),
            "status": self.status,
            "level": self.level,
            "kind": self.kind,
            "matrixSide": self.template.side,
            "yDim": self.template.y_dim,
            "groupOrder": self.group_order,
            "yOrbits": self.y_orbits,
        }


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
    generators, group_order = automorphism_group(basis.graph, weights)
    orbit = coordinate_orbits(basis, template.y_dim, generators)
    reduced, expand = orbit_problem(build_theta_sdp(template, objective), orbit)
    sol = solve(reduced, options)
    sol = replace(sol, y=expand(sol.y))
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
        y_orbits=reduced.y_dim - len(reduced.fixed),
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
    return _theta(
        enumerate_stable_sets(graph, 2 * k, cap=cap), k, objective, None, options
    )


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
    return _theta(
        enumerate_odd_cycle_free(graph, 2 * k, cap=cap), k, objective, wlist, options
    )
