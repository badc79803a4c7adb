"""The package's one search for weight-preserving bijections of a weighted
graph, given as neighbour dicts nbrs[v][u] = weight on vertices 0..n-1.

Colour refinement first splits the vertices by their multisets of (edge
weight, neighbour colour); a backtracking search then extends a map one
vertex at a time, most constrained first.  combopt builds graph
automorphism groups with it, and geomexact decides affine equivalence of
point sets as isomorphism of their slack graphs.  No package imports.
"""

from __future__ import annotations

from typing import Dict, List, Optional

# Consistency tests one search may make.  Past it combopt keeps the
# generators found so far (a subgroup: finer orbits, same results, a larger
# SDP), and geomexact refuses the pair it could not decide.
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
