"""Convex-hull reference data computed by qhull, in a process of its own.

Reads a JSON list of point sets (rationals as strings) on stdin and writes,
for each set, its affine dimension, facet and vertex counts and whether it is
two-level.  The benchmark runs this as a child process so that scipy is never
imported into the process whose memory and time it measures.  Usage:

    echo '[[["0","0"],["1","0"],["0","1"]]]' | python3 perfbench/oracle.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import numpy as np
from scipy.spatial import ConvexHull


def _chart(pts: np.ndarray) -> np.ndarray:
    """Coordinates of the points in a chart of their affine hull: keep the
    coordinates that raise the rank of the difference matrix."""
    diffs = pts[1:] - pts[0]
    keep = []
    for j in range(pts.shape[1]):
        if np.linalg.matrix_rank(diffs[:, keep + [j]]) > len(keep):
            keep.append(j)
    return pts[:, keep]


TOL = 1e-6


def _levels(values) -> int:
    """Number of distinct values, merging those closer than TOL."""
    ordered = np.sort(values)
    return 1 + int(np.sum(np.diff(ordered) > TOL))


def hull_data(points) -> dict:
    pts = np.array([[float(Fraction(c)) for c in p] for p in points])
    chart = _chart(pts)
    d = chart.shape[1]
    if d == 1:
        facets = [np.array([1.0, -chart.max()]), np.array([-1.0, chart.min()])]
        vertices = 2
    else:
        hull = ConvexHull(chart)
        # qhull triangulates: one equation per simplex, equal up to rounding
        # for the simplices of one facet
        facets = []
        for eq in hull.equations:
            if not any(np.abs(eq - f).max() < TOL for f in facets):
                facets.append(eq)
        vertices = len(hull.vertices)
    two_level = all(_levels(chart @ eq[:-1] + eq[-1]) <= 2 for eq in facets)
    return {
        "affine_dim": d,
        "facets": len(facets),
        "vertices": vertices,
        "two_level": two_level,
    }


def main() -> int:
    sets = json.load(sys.stdin)
    json.dump([hull_data(points) for points in sets], sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
