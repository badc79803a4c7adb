"""Independent reference implementations used to validate the package.

Everything here is deliberately written against *other* libraries (sympy,
scipy, networkx) or as straight brute force, so agreement with the package
is meaningful.  Values derived from these oracles are frozen into tests.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import sympy


def standard_monomials_rref(points, ambient_dim, max_degree=24):
    """Degrevlex standard monomials as rref pivot columns (sympy, exact).

    Builds the evaluation matrix whose columns are all monomials up to the
    smallest degree at which the rank reaches |S|, ordered by ascending
    degrevlex, and reads off the pivot columns.  Greedy pivot selection in
    column order is exactly the Buchberger-Moller choice.
    """
    points = [tuple(Fraction(c) for c in p) for p in points]
    target = len(points)

    def monomials_up_to(n, dmax):
        out = []
        for d in range(dmax + 1):
            layer = []
            for combo in itertools.combinations_with_replacement(range(n), d):
                exps = [0] * n
                for idx in combo:
                    exps[idx] += 1
                layer.append(tuple(exps))
            layer.sort(key=lambda e: tuple(-x for x in reversed(e)))
            out.extend(layer)
        return out

    for dmax in range(max_degree + 1):
        monos = monomials_up_to(ambient_dim, dmax)
        rows = []
        for p in points:
            row = []
            for exps in monos:
                v = Fraction(1)
                for c, e in zip(p, exps):
                    v *= c**e
                row.append(sympy.Rational(v.numerator, v.denominator))
            rows.append(row)
        mat = sympy.Matrix(rows)
        _, pivots = mat.rref()
        if len(pivots) == target:
            return [monos[j] for j in pivots]
    raise RuntimeError("oracle did not reach full rank; raise max_degree")


def brute_force_alpha(n, edges):
    """Stability number by bitmask enumeration (vertices 1..n)."""
    adj = [0] * (n + 1)
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = 0
    for mask in range(1 << n):
        vertices = [i + 1 for i in range(n) if mask >> i & 1]
        if any(adj[u] >> v & 1 for u, v in itertools.combinations(vertices, 2)):
            continue
        best = max(best, len(vertices))
    return best


def brute_force_stable_sets(n, edges, max_size=None):
    """All stable sets (as sorted vertex tuples) with |U| <= max_size."""
    adj = {u: set() for u in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    limit = n if max_size is None else max_size
    out = []
    for size in range(limit + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            if all(v not in adj[u] for u, v in itertools.combinations(combo, 2)):
                out.append(combo)
    return out


def brute_force_max_cut(n, edges, weights=None):
    """Maximum-weight cut by enumerating all vertex bipartitions."""
    if weights is None:
        weights = [1] * len(edges)
    best = 0
    for mask in range(1 << (n - 1)):  # fix vertex n on one side
        total = 0
        for (u, v), w in zip(edges, weights):
            su = mask >> (u - 1) & 1 if u < n else 0
            sv = mask >> (v - 1) & 1 if v < n else 0
            if su != sv:
                total += w
        best = max(best, total)
    return best


def brute_force_odd_cycle_free(n, edges, max_size=None):
    """Edge subsets (as sorted index tuples) whose subgraph is bipartite."""
    import networkx as nx

    limit = len(edges) if max_size is None else max_size
    out = []
    for size in range(limit + 1):
        for combo in itertools.combinations(range(len(edges)), size):
            g = nx.Graph()
            g.add_nodes_from(range(1, n + 1))
            g.add_edges_from(edges[i] for i in combo)
            if nx.is_bipartite(g):
                out.append(combo)
    return out


def is_bipartite_nx(n, edges):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from(edges)
    return nx.is_bipartite(g)


def odd_cycle_lovasz_theta(n):
    """Closed-form Lovasz theta of an odd cycle C_n."""
    return n * math.cos(math.pi / n) / (1 + math.cos(math.pi / n))


def cycle_stable_set_count(n, k):
    """Number of stable sets of size k in the cycle C_n (closed form)."""
    if k == 0:
        return 1
    return n * math.comb(n - k, k - 1) // k


def hull_facet_count(points):
    """Facet count of a full-dimensional hull via scipy/qhull (float path)."""
    import numpy as np
    from scipy.spatial import ConvexHull

    pts = np.array([[float(c) for c in p] for p in points], dtype=float)
    if pts.shape[1] == 1:
        return 2
    hull = ConvexHull(pts)
    seen = set()
    for eq in hull.equations:
        seen.add(tuple(round(v, 7) for v in eq))
    return len(seen)


def hull_vertex_count(points):
    import numpy as np
    from scipy.spatial import ConvexHull

    pts = np.array([[float(c) for c in p] for p in points], dtype=float)
    if pts.shape[1] == 1:
        return 2
    return len(ConvexHull(pts).vertices)


def grid_max_on_disk(coeffs, steps=2001):
    """Grid maximum of a linear functional over the unit disk (for checking
    closed-form optima of the 3x3 arrow SDP instances)."""
    best = -math.inf
    for i in range(steps):
        t = 2 * math.pi * i / steps
        val = coeffs[0] * math.cos(t) + coeffs[1] * math.sin(t)
        best = max(best, val)
    return best


def facet_levels_by_fraction_scan(normal, points):
    """(offset, values, tight) of normal . p over the points, each sum taken
    term by term over every coordinate in Fraction arithmetic."""
    raw = [sum(c * x for c, x in zip(normal, p)) for p in points]
    offset = max(raw)
    return offset, tuple(sorted(set(raw))), tuple(i for i, v in enumerate(raw) if v == offset)


def affinely_equivalent_by_tuples(s_pts, t_pts, d):
    """Whether an invertible affine map carries the full-dimensional integer
    point set s_pts onto t_pts, by trying every (d+1)-tuple of t_pts as the
    image of an affine frame of s_pts: P(n, d+1) tuples.

    The test geomexact.classify_01 made before it searched slack graphs.
    """
    from thetabody.geomexact import _affine_frame

    if len(s_pts) != len(t_pts):
        return False
    inverse = _affine_frame(s_pts)[1].inverse()
    # the barycentric coordinates of s_pts and the points of t_pts, times den
    den = math.lcm(*(wd for _, wd in inverse))
    coords = [
        tuple(den // wd * sum(w * (x - y) for w, x, y in zip(row, p, s_pts[0]))
              for row, wd in inverse)
        for p in s_pts
    ]
    t_set = {tuple(den * x for x in q) for q in t_pts}
    for target in itertools.permutations(t_pts, d + 1):
        t0 = target[0]
        image = set()
        ok = True
        for lam in coords:
            q = tuple(
                den * t0[j] + sum(lam[k] * (target[k + 1][j] - t0[j]) for k in range(d))
                for j in range(d)
            )
            if q not in t_set:
                ok = False
                break
            image.add(q)
        if ok and len(image) == len(t_set):
            return True
    return False


def facets_by_subset_scan(points):
    """All facets of conv(points) by the exhaustive d-subset hyperplane scan.

    Works in the same affine-hull chart as geomexact (pivot coordinates of
    the row-reduced difference matrix): every affinely independent d-subset
    of chart points spans a hyperplane; both supporting translates of each
    hyperplane direction are kept when their tight points span a facet.
    Exponential in d, so only for small inputs.
    """
    from thetabody.exactalg import PointSet, rational_rref
    from thetabody.geomexact import FacetInequality

    ps = points if isinstance(points, PointSet) else PointSet(len(points[0]), points)
    origin = ps.points[0]
    diffs = [[p[j] - origin[j] for j in range(ps.dim)] for p in ps.points[1:]]
    _, pivots = rational_rref(diffs)
    chart = [tuple(p[j] - origin[j] for j in pivots) for p in ps.points]
    d = len(pivots)

    def affine_rank(idx):
        base = chart[idx[0]]
        rows = [[chart[i][j] - base[j] for j in range(d)] for i in idx[1:]]
        return len(rational_rref(rows)[1])

    def primitive(vector):
        den = math.lcm(*(Fraction(v).denominator for v in vector))
        ints = [int(v * den) for v in vector]
        g = math.gcd(*ints)
        return tuple(v // g for v in ints)

    directions = set()
    for combo in itertools.combinations(range(len(chart)), d):
        base = chart[combo[0]]
        rows = [[chart[c][j] - base[j] for j in range(d)] for c in combo[1:]]
        reduced, pivs = rational_rref(rows)
        if len(reduced) != d - 1:
            continue  # affinely dependent
        free = next(j for j in range(d) if j not in pivs)
        normal = [Fraction(0)] * d
        normal[free] = Fraction(1)
        for row, p in zip(reduced, pivs):
            normal[p] = -row[free]
        key = primitive(normal)
        if key[next(i for i, v in enumerate(key) if v)] < 0:
            key = tuple(-v for v in key)
        directions.add(key)

    out = {}
    for nhat in directions:
        ambient = [0] * ps.dim
        for coeff, j in zip(nhat, pivots):
            ambient[j] = coeff
        raw = [sum(c * x for c, x in zip(ambient, p)) for p in ps.points]
        for sign in (1, -1):
            target = max(raw) if sign == 1 else min(raw)
            tight = tuple(i for i, v in enumerate(raw) if v == target)
            if len(tight) < d or affine_rank(tight) != d - 1:
                continue
            normal = tuple(sign * c for c in ambient)
            out[(normal, sign * target)] = FacetInequality(
                normal=normal,
                offset=sign * target,
                values=tuple(sorted({sign * v for v in raw})),
                tight=tight,
            )
    return [out[k] for k in sorted(out)]


def step_to_boundary_per_matrix(inv_factor, direction):
    """Largest step keeping M + alpha*D PSD for one matrix, where inv_factor =
    chol(M)^-1: the whitening and eigvalsh made one matrix at a time."""
    import numpy as np

    whitened = inv_factor @ direction @ inv_factor.T
    lam = float(np.linalg.eigvalsh(0.5 * (whitened + whitened.T))[0])
    return np.inf if lam >= -1e-14 else -1.0 / lam
