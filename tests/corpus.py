"""Shared fixture data: point sets and graphs used across the test modules."""

from __future__ import annotations

import itertools
import random
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


def grid(d, size):
    """The grid {0, ..., size-1}^d."""
    return PointSet(d, list(itertools.product(range(size), repeat=d)))


def rational_cloud(n, d, seed):
    """n distinct seeded points in R^d with coordinates p/q, |p| <= 9, 1 <= q <= 5."""
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)))
    return PointSet(d, sorted(pts))


# 14 rational points on the unit sphere whose level-2 theta SDP drove the
# centering ratio (mu_aff / mu)^3 into a float overflow; with the objective
# (-1, 3, -1) that SDP now ends Optimal with rel_d just under feas_tol.
SPHERE_OVERFLOW = [
    tuple(Fraction(p, q) for p, q in row)
    for row in [
        ((-18, 19), (6, 19), (1, 19)), ((-4, 9), (4, 9), (7, 9)),
        ((-32, 93), (20, 93), (85, 93)), ((-6, 19), (1, 19), (18, 19)),
        ((-6, 19), (10, 19), (15, 19)), ((-6, 23), (-54, 115), (97, 115)),
        ((-5, 31), (6, 31), (30, 31)), ((-4, 149), (48, 149), (141, 149)),
        ((6, 19), (-6, 19), (17, 19)), ((6, 19), (10, 19), (15, 19)),
        ((1, 3), (2, 15), (14, 15)), ((3, 7), (2, 7), (6, 7)),
        ((36, 65), (-96, 325), (253, 325)), ((12, 17), (8, 17), (9, 17)),
    ]
]


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
