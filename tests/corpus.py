"""Shared fixture data: point sets and graphs used across the test modules."""

from __future__ import annotations

import itertools
from fractions import Fraction

from thetabody.exactalg import PointSet

import oracles


# ---------------------------------------------------------------- point sets

def cube(d):
    """Vertices of the 0/1 cube in R^d."""
    return PointSet(d, list(itertools.product((0, 1), repeat=d)))


def cross_polytope(d):
    """Vertices {+-e_i} of the standard cross-polytope in R^d."""
    pts = []
    for i in range(d):
        for sign in (1, -1):
            pts.append(tuple(sign if j == i else 0 for j in range(d)))
    return PointSet(d, pts)


def simplex(d):
    """Vertices {0, e_1, ..., e_d} of the standard simplex in R^d."""
    pts = [tuple(0 for _ in range(d))]
    for i in range(d):
        pts.append(tuple(1 if j == i else 0 for j in range(d)))
    return PointSet(d, pts)


def quad4():
    """Planar four-point set {(0,0), (1,0), (0,1), (2,2)} whose hull has a
    facet with three distinct slack values (so it is not two-level)."""
    return PointSet(2, [(0, 0), (1, 0), (0, 1), (2, 2)])


def curve14():
    """The 14 points (+-t, 1/t^2), t = 1..7, sampled from the curve
    x1^2 * x2 = 1."""
    pts = []
    for t in range(1, 8):
        pts.append((Fraction(t), Fraction(1, t * t)))
        pts.append((Fraction(-t), Fraction(1, t * t)))
    return PointSet(2, pts)


def segment01():
    return PointSet(1, [(0,), (1,)])


def tri3():
    return PointSet(2, [(0, 0), (1, 0), (0, 1)])


def hypersimplex_2_4():
    """0/1 points in R^4 with coordinate sum 2 (an octahedron, affinely)."""
    pts = [p for p in itertools.product((0, 1), repeat=4) if sum(p) == 2]
    return PointSet(4, pts)


def stable_set_points(n, edges):
    """Characteristic vectors of all stable sets of the graph (brute force)."""
    sets = oracles.brute_force_stable_sets(n, edges)
    pts = [tuple(1 if v in s else 0 for v in range(1, n + 1)) for s in sets]
    return PointSet(n, pts)


# ---------------------------------------------------------------- graphs

def cycle_edges(n):
    return [(i, i % n + 1) for i in range(1, n + 1)]


def path_edges(n):
    return [(i, i + 1) for i in range(1, n)]


def complete_edges(n):
    return list(itertools.combinations(range(1, n + 1), 2))


def complete_bipartite_edges(m, n):
    return [(i, m + j) for i in range(1, m + 1) for j in range(1, n + 1)]


def petersen_edges():
    """Outer 5-cycle 1..5, spokes i - i+5, inner pentagram 6..10."""
    return (
        cycle_edges(5)
        + [(i, i + 5) for i in range(1, 6)]
        + [(6 + i, 6 + (i + 2) % 5) for i in range(5)]
    )
