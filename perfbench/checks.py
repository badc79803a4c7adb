"""Checks made apart from the program under test.

Nothing here imports ``thetabody``: every expected value is computed from the
generated inputs by brute force, by exact rational arithmetic written for the
benchmark, by a closed form, or (for convex hulls) by qhull in a separate
process (see ``oracle.py``).  A check that fails raises ``CheckError``; an
operation that gave no conclusive answer raises ``OpFailed``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

# Relative tolerance for numeric optima; the solver targets a 1e-7 gap.
VALUE_TOL = 1e-6
# Floor for the recomputed smallest eigenvalue of M(y), relative to its size.
PSD_TOL = 1e-6
# An Outside certificate that misses a point of S by no more than this is
# taken for float coefficients rounded to rationals: no exact certificate, so
# the operation failed, rather than a wrong quadric.
ROUNDING_TOL = 1e-6


class CheckError(Exception):
    """A conclusive output disagrees with the independent computation."""


class OpFailed(Exception):
    """The operation gave no conclusive answer (error, iteration limit, ...)."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(a: float, b: float, tol: float = VALUE_TOL) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


# ---------------------------------------------------------------- exact algebra


def exact_rank(rows: Sequence[Sequence]) -> int:
    """Rank of a rational matrix by fraction-free (Bareiss) elimination."""
    work = [[Fraction(v) for v in row] for row in rows]
    if not work:
        return 0
    # clear denominators row by row so the elimination runs over integers
    ints = []
    for row in work:
        den = 1
        for v in row:
            den = den * v.denominator // math.gcd(den, v.denominator)
        ints.append([int(v * den) for v in row])
    rank, prev = 0, 1
    width = len(ints[0])
    for col in range(width):
        pivot = next((r for r in range(rank, len(ints)) if ints[r][col]), None)
        if pivot is None:
            continue
        ints[rank], ints[pivot] = ints[pivot], ints[rank]
        p = ints[rank][col]
        for r in range(rank + 1, len(ints)):
            ints[r] = [
                (p * ints[r][c] - ints[r][col] * ints[rank][c]) // prev
                for c in range(width)
            ]
        prev = p
        rank += 1
        if rank == len(ints):
            break
    return rank


def affine_rank(points: Sequence[Sequence]) -> int:
    base = points[0]
    return exact_rank([[Fraction(x) - Fraction(b) for x, b in zip(p, base)] for p in points[1:]])


def exact_det(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square rational matrix by Gaussian elimination."""
    work = [[Fraction(v) for v in row] for row in matrix]
    n = len(work)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        for r in range(col + 1, n):
            if work[r][col]:
                f = work[r][col] / work[col][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return det


def is_psd_by_minors(matrix: Sequence[Sequence[Fraction]]) -> bool:
    """Exact PSD test: a symmetric matrix is PSD iff every principal minor is
    non-negative (fine for the side <= 5 matrices the benchmark meets)."""
    n = len(matrix)
    for size in range(1, n + 1):
        for idx in itertools.combinations(range(n), size):
            if exact_det([[matrix[i][j] for j in idx] for i in idx]) < 0:
                return False
    return True


def monomial_value(exponents: Sequence[int], point: Sequence[Fraction]) -> Fraction:
    out = Fraction(1)
    for c, e in zip(point, exponents):
        if e:
            out *= c**e
    return out


def parse_label(label: str, dim: int) -> Tuple[int, ...]:
    """Exponent vector of a printed monomial such as ``1``, ``x2`` or ``x1^2*x3``."""
    exps = [0] * dim
    if label == "1":
        return tuple(exps)
    for factor in label.split("*"):
        base, _, power = factor.partition("^")
        exps[int(base[1:]) - 1] += int(power or 1)
    return tuple(exps)


# ---------------------------------------------------------------- graphs


def brute_alpha(n: int, edges: Iterable[Tuple[int, int]]) -> int:
    """Stability number by bitmask enumeration (vertices 1..n)."""
    adj = [0] * n
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    best = 0
    for mask in range(1 << n):
        if all(not (adj[i] & mask) for i in range(n) if mask >> i & 1):
            best = max(best, bin(mask).count("1"))
    return best


def brute_max_cut(n: int, edges: Sequence[Tuple[int, int]], weights: Sequence) -> Fraction:
    """Weighted maximum cut by enumerating the 2^(n-1) bipartitions."""
    best = Fraction(0)
    for mask in range(1 << (n - 1)):
        side = mask << 1  # vertex 1 stays on side 0
        value = sum(
            (Fraction(w) for (u, v), w in zip(edges, weights)
             if (side >> (u - 1) & 1) != (side >> (v - 1) & 1)),
            Fraction(0),
        )
        best = max(best, value)
    return best


def odd_cycle_theta1(n: int) -> float:
    """Lovasz theta of the odd cycle C_n (= its level-1 stable-set value)."""
    c = math.cos(math.pi / n)
    return n * c / (1.0 + c)


def template_min_eig(cells, side: int, y: Sequence[float]) -> Tuple[float, float]:
    """Smallest eigenvalue and largest entry of M(y), assembled here from the
    template cells (not by the program's ``assemble``)."""
    m = np.zeros((side, side))
    for (i, j), vec in cells.items():
        v = sum(float(c) * y[l] for l, c in vec.items())
        m[i, j] = m[j, i] = v
    return float(np.linalg.eigvalsh(m)[0]), float(np.abs(m).max())


def check_moment_psd(cells, side: int, y: Sequence[float]) -> None:
    low, size = template_min_eig(cells, side, y)
    require(low >= -PSD_TOL * (1.0 + size), f"M(y) has eigenvalue {low:.3g}")


# ---------------------------------------------------------------- point sets


def check_order_ideal(basis: Sequence[Tuple[int, ...]], points) -> None:
    """|B| = |S|, B is closed under division, and B evaluates to an
    invertible matrix on S (so it is a basis of R[x]/I(S))."""
    require(len(basis) == len(points), f"basis has {len(basis)} elements for {len(points)} points")
    present = set(basis)
    require(len(present) == len(basis), "basis repeats a monomial")
    for exps in basis:
        for i, e in enumerate(exps):
            if e:
                lower = exps[:i] + (e - 1,) + exps[i + 1:]
                require(lower in present, f"basis is not an order ideal at {exps}")
    evals = [[monomial_value(b, p) for b in basis] for p in points]
    require(exact_rank(evals) == len(points), "basis does not separate the points")


def check_product_rule(
    rows: Sequence[int],
    cells: Dict[Tuple[int, int], Dict[int, Fraction]],
    basis: Sequence[Tuple[int, ...]],
    points,
) -> None:
    """Each cell NF(b_i * b_j) must agree with b_i * b_j on every point of S."""
    values = [[monomial_value(b, p) for p in points] for b in basis]
    seen = {}
    for a, i in enumerate(rows):
        for j in rows[a:]:
            vec = cells.get((i, j))
            require(vec is not None, f"template lacks cell ({i},{j})")
            key = tuple(x + y for x, y in zip(basis[i], basis[j]))
            if seen.get(key) is vec:
                continue
            for s in range(len(points)):
                lhs = sum((c * values[l][s] for l, c in vec.items()), Fraction(0))
                require(lhs == values[i][s] * values[j][s],
                        f"cell ({i},{j}) is not the product normal form at point {s}")
            seen[key] = vec


# ---------------------------------------------------------------- hulls


def check_facets(points, facets, affine_dim: int) -> None:
    """Each facet is valid on S, its values and tight set are right, and its
    tight points span a hyperplane of the affine hull (all exact)."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    seen = set()
    for f in facets:
        raw = [sum(Fraction(a) * c for a, c in zip(f.normal, p)) for p in pts]
        key = (tuple(f.normal), Fraction(f.offset))
        require(key not in seen, f"facet {key} listed twice")
        seen.add(key)
        require(max(raw) == f.offset, f"facet {key} is not supporting")
        require(tuple(sorted(set(raw))) == tuple(f.values), f"facet {key} has wrong values")
        tight = tuple(i for i, v in enumerate(raw) if v == f.offset)
        require(tight == tuple(f.tight), f"facet {key} has wrong tight set")
        require(affine_rank([pts[i] for i in tight]) == affine_dim - 1,
                f"tight points of {key} do not span a hyperplane")
        # a facet functional must not be constant on S
        require(min(raw) < f.offset, f"facet {key} is constant on the set")


def check_hull_report(points, exact_report, counts, expected) -> None:
    """Exactness report plus facet/vertex counts against the oracle."""
    d = expected["affine_dim"]
    require(exact_report.affine_dim == d, f"affine dimension {exact_report.affine_dim} != {d}")
    check_facets(points, exact_report.facets, d)
    require(len(exact_report.facets) == expected["facets"],
            f"{len(exact_report.facets)} facets, qhull finds {expected['facets']}")
    levels = [len(f.values) for f in exact_report.facets]
    two_level = max(levels) <= 2
    require(exact_report.exact == two_level, "exact flag disagrees with facet levels")
    require(two_level == expected["two_level"], "two-level verdict disagrees with qhull")
    require(exact_report.rank_bound == max(levels) - 1, "rank bound is not max(levels) - 1")
    require(counts.facet_count == expected["facets"], "counted facets disagree with qhull")
    require(counts.vertex_count == expected["vertices"],
            f"{counts.vertex_count} vertices, qhull finds {expected['vertices']}")
    require(counts.affine_dim == d and counts.bound == 2**d, "count report has wrong dimension")
    if two_level:
        require(counts.facet_count <= 2**d and counts.vertex_count <= 2**d,
                "two-level set exceeds 2^d facets or vertices")
        require(counts.within_bounds is True, "two-level set not reported within bounds")
    else:
        require(counts.within_bounds is None, "non-two-level set reports a bound verdict")


def full_dim_01_count(d: int) -> int:
    """Number of full-dimensional subsets of {0,1}^d, by brute force."""
    verts = list(itertools.product((0, 1), repeat=d))
    total = 0
    for mask in range(1, 1 << len(verts)):
        members = [v for i, v in enumerate(verts) if mask >> i & 1]
        if len(members) > d and affine_rank(members) == d:
            total += 1
    return total


# ---------------------------------------------------------------- quadrics


def check_quadric_certificate(q, points, query, ray: bool) -> None:
    """An Outside certificate must vanish on S, have a PSD quadratic part
    (zero for a ray), and be positive at the query -- all exact."""
    n = len(q.b)

    def value(p):
        return (
            sum(q.a[i][j] * p[i] * p[j] for i in range(n) for j in range(n))
            + sum(b * x for b, x in zip(q.b, p))
            + q.c
        )

    for s, p in enumerate(points):
        v = value([Fraction(c) for c in p])
        if v != 0 and abs(v) <= ROUNDING_TOL:
            raise OpFailed(f"certificate misses point {s} by {float(v):.1e} (rounded coefficients)")
        require(v == 0, f"certificate does not vanish at point {s}")
    if ray:
        require(all(v == 0 for row in q.a for v in row), "ray has a quadratic part")
    else:
        require(all(q.a[i][j] == q.a[j][i] for i in range(n) for j in range(n)),
                "certificate matrix is not symmetric")
        require(is_psd_by_minors(q.a), "certificate quadratic part is not PSD")
    require(value([Fraction(c) for c in query]) > 0, "certificate is not positive at the query")
