"""Exact polyhedral geometry of finite point sets and exactness certificates.

The convex hull of a finite rational point set is described here entirely in
exact arithmetic.  Facets are found inside an affine-hull chart: pick the
pivot coordinates of the row-reduced difference matrix, so that projecting
onto them is an isomorphism of the affine hull, enumerate the facets of the
chart points by the double description method in integer arithmetic
(Motzkin-Raiffa-Thompson-Thrall 1953; Fukuda-Prodon 1996), and lift chart
normals back by scattering them into the pivot coordinates.  Normals are
primitive integer vectors with the point set on the <= side.

A point set is *two-level* when every facet hyperplane sees at most two
distinct values of its linear functional on the set.  Two-level sets are
exactly the ones whose first theta relaxation already equals the convex hull,
and max(levels - 1) over the facets bounds the level at which the hierarchy
closes.  Consequences checked here: two-level sets in affine dimension d have
at most 2^d facets and at most 2^d vertices, full-dimensional subsets of the
0/1 cube in dimension <= 3 fall into finitely many affine-equivalence classes
(classify_01 computes them), and a down-closed 0/1 family is two-level if and
only if it is the family of stable sets of the graph it reconstructs and that
graph's clique inequalities give all the non-trivial facets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .combopt import Graph, enumerate_stable_sets
from .errors import InputError, ResourceLimitError
from .exactalg import (
    PointSet,
    _invert_rational_matrix,
    format_rational,
    rational_rref,
)

MAX_POINTS = 64
MAX_AFFINE_DIM = 8
MAX_HYPERPLANE_COMBOS = 2_000_000


@dataclass(frozen=True)
class FacetInequality:
    """One facet of conv(S), written normal . x <= offset with S on the <= side.

    The normal is a primitive integer vector (supported on the chart's pivot
    coordinates when the set is not full-dimensional); values holds the sorted
    distinct results of normal . p over the set and tight lists the indices of
    the points attaining the offset.
    """

    normal: Tuple[int, ...]
    offset: Fraction
    values: Tuple[Fraction, ...]
    tight: Tuple[int, ...]

    @property
    def level_count(self) -> int:
        return len(self.values)

    def to_json(self) -> dict:
        return {
            "normal": list(self.normal),
            "offset": format_rational(self.offset),
            "values": [format_rational(v) for v in self.values],
            "tight": list(self.tight),
            "levels": self.level_count,
        }

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.normal, start=1):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if terms else "")
            mag = abs(c)
            terms.append(f"{sign}{'' if mag == 1 else mag}x{i}")
        lhs = " ".join(terms) if terms else "0"
        return f"{lhs} <= {format_rational(self.offset)}"


def _chart(ps: PointSet):
    """Exact affine-hull chart: (origin, pivot coordinates, chart points).

    The pivot coordinates J of the row-reduced difference matrix project the
    affine hull isomorphically, so chart(p) = (p_j - origin_j)_{j in J}.
    """
    origin = ps.points[0]
    diffs = [[p[j] - origin[j] for j in range(ps.dim)] for p in ps.points[1:]]
    _, pivots = rational_rref(diffs)
    chart_pts = [tuple(p[j] - origin[j] for j in pivots) for p in ps.points]
    return origin, pivots, chart_pts


def affine_dimension(points) -> int:
    """Dimension of the affine hull of the point set."""
    ps = PointSet.coerce(points)
    return len(_chart(ps)[1])


def _primitive(vector: Sequence) -> Tuple[int, ...]:
    """Scale a nonzero rational or integer vector by a positive rational to
    coprime ints."""
    den = lcm(*(v.denominator for v in vector))
    ints = [int(v * den) for v in vector]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def _affine_rank(pts: Sequence[tuple]) -> int:
    base = pts[0]
    rows = [[Fraction(p[j]) - base[j] for j in range(len(base))] for p in pts[1:]]
    return len(rational_rref(rows)[1])


def _affine_basis(pts: Sequence[tuple], d: int) -> List[tuple]:
    """Greedy affinely independent subset of size d + 1."""
    basis = [pts[0]]
    for p in pts[1:]:
        if _affine_rank(basis + [p]) == len(basis):
            basis.append(p)
        if len(basis) == d + 1:
            break
    return basis


def _chart_facets(chart_pts: List[tuple], d: int) -> List[Tuple[int, ...]]:
    """Primitive integer outward normals of the facets of conv(chart points).

    Double description (beneath-beyond) in integer arithmetic.  The chart
    points, scaled by the common denominator of their coordinates, are
    inserted one at a time into the hull of a greedy affine basis.  A facet
    is a row (a, b) with a . q <= b on every inserted point q, carried with
    the bitmask of inserted points tight on it.  Inserting q keeps the rows
    it satisfies and, for each pair (h+, h-) of a row with positive slack
    s+ and a violated row with slack s- < 0, adds the facet
    s+ * h- - s- * h+ through q when the pair is adjacent: their common
    tight set C has at least d - 1 points and no other row is tight on all
    of C (Fukuda-Prodon, Double description method revisited, 1996).
    """
    den = lcm(*(c.denominator for p in chart_pts for c in p))
    pts = [tuple(int(c * den) for c in p) for p in chart_pts]
    index = {p: i for i, p in enumerate(pts)}
    basis = [index[p] for p in _affine_basis(pts, d)]

    # simplex facets from the barycentric coordinates lam = B^-1 (x - v0),
    # with the columns of B the edges v_k - v0: lam_k >= 0 and sum lam <= 1
    v0 = pts[basis[0]]
    inv = _invert_rational_matrix(
        [[pts[k][j] - v0[j] for k in basis[1:]] for j in range(d)]
    )
    total = [sum(col) for col in zip(*inv)]
    rows = [_primitive(total + [1 + sum(w * x for w, x in zip(total, v0))])]
    rows += [
        _primitive([-w for w in row] + [-sum(w * x for w, x in zip(row, v0))])
        for row in inv
    ]
    simplex = sum(1 << k for k in basis)
    tights = [simplex & ~(1 << k) for k in basis]

    in_basis = set(basis)
    for i, q in enumerate(pts):
        if i in in_basis:
            continue
        bit = 1 << i
        slacks = [row[d] - sum(a * x for a, x in zip(row, q)) for row in rows]
        new_rows, new_tights = [], []
        violated = [r for r, s in enumerate(slacks) if s < 0]
        for r_pos, s_pos in enumerate(slacks):
            if s_pos <= 0:
                continue
            for r_neg in violated:
                common = tights[r_pos] & tights[r_neg]
                if common.bit_count() < d - 1:
                    continue
                if sum(1 for t in tights if t & common == common) > 2:
                    continue  # another facet contains the common face
                s_neg = slacks[r_neg]
                new_rows.append(
                    _primitive(
                        [s_pos * x - s_neg * y for x, y in zip(rows[r_neg], rows[r_pos])]
                    )
                )
                new_tights.append(common | bit)
        keep = [r for r, s in enumerate(slacks) if s >= 0]
        rows = [rows[r] for r in keep] + new_rows
        tights = [tights[r] | bit if slacks[r] == 0 else tights[r] for r in keep]
        tights += new_tights

    return [_primitive(row[:d]) for row in rows]


def facets(points) -> List[FacetInequality]:
    """All facets of conv(S), exactly, sorted by (normal, offset).

    The facets are enumerated in the affine-hull chart by the double
    description method (_chart_facets), and each chart normal is lifted by
    scattering it into the pivot coordinates.  Inputs beyond the caps (64
    points, affine dimension 8, 2e6 d-subsets of points) are refused.
    """
    ps = PointSet.coerce(points)
    if len(ps.points) < 2:
        raise InputError("facet enumeration needs at least two distinct points")
    if len(ps.points) > MAX_POINTS:
        raise ResourceLimitError(
            f"facet enumeration capped at {MAX_POINTS} points, got {len(ps.points)}"
        )
    _, pivots, chart_pts = _chart(ps)
    d = len(pivots)
    if d > MAX_AFFINE_DIM:
        raise ResourceLimitError(
            f"facet enumeration capped at affine dimension {MAX_AFFINE_DIM}, got {d}"
        )
    if comb(len(ps.points), d) > MAX_HYPERPLANE_COMBOS:
        raise ResourceLimitError(
            f"facet enumeration capped at {MAX_HYPERPLANE_COMBOS} d-subsets of "
            f"the points, got C({len(ps.points)}, {d})"
        )

    out = []
    for nhat in _chart_facets(chart_pts, d):
        ambient = [0] * ps.dim
        for coeff, j in zip(nhat, pivots):
            ambient[j] = coeff
        normal = tuple(ambient)
        raw = [sum(c * x for c, x in zip(normal, p)) for p in ps.points]
        offset = max(raw)
        out.append(
            FacetInequality(
                normal=normal,
                offset=offset,
                values=tuple(sorted(set(raw))),
                tight=tuple(i for i, v in enumerate(raw) if v == offset),
            )
        )
    out.sort(key=lambda f: (f.normal, f.offset))
    return out


@dataclass
class ExactnessReport:
    """Two-level test of a point set with the certifying facet data."""

    exact: bool
    affine_dim: int
    rank_bound: int
    facets: List[FacetInequality]
    failing: Optional[FacetInequality]

    def to_json(self) -> dict:
        return {
            "exact": self.exact,
            "affineDim": self.affine_dim,
            "rankBound": self.rank_bound,
            "facetCount": len(self.facets),
            "facets": [f.to_json() for f in self.facets],
            "failingFacet": self.failing.to_json() if self.failing else None,
        }


def is_exact(points) -> ExactnessReport:
    """Decide whether the first theta relaxation is already the convex hull.

    That holds exactly when every facet functional takes at most two values
    on the set; the report carries a violating facet otherwise, and in all
    cases max(levels - 1) over the facets as a bound on the closing level.
    """
    ps = PointSet.coerce(points)
    facet_list = facets(ps)
    failing = next((f for f in facet_list if f.level_count > 2), None)
    return ExactnessReport(
        exact=failing is None,
        affine_dim=affine_dimension(ps),
        rank_bound=max(f.level_count - 1 for f in facet_list),
        facets=facet_list,
        failing=failing,
    )


def theta_rank_upper_bound(points) -> int:
    """Level at which the theta hierarchy of the set is guaranteed to close."""
    return is_exact(points).rank_bound


def vertex_indices(points, facet_list: Optional[List[FacetInequality]] = None) -> List[int]:
    """Indices of the points that are vertices of the hull.

    The facets tight at a point cut out the smallest face containing it, and
    a face of dimension >= 1 contains at least two points of the set.  So a
    point is a vertex exactly when some facet is tight at it and no other
    point is tight on every facet tight at it; this is decided on the
    facets' tight sets alone, as bitmasks.
    """
    ps = PointSet.coerce(points)
    if facet_list is None:
        facet_list = facets(ps)
    masks = [sum(1 << i for i in f.tight) for f in facet_list]
    out = []
    for i in range(len(ps.points)):
        bit = 1 << i
        face = -1  # all points: the empty intersection
        for mask in masks:
            if mask & bit:
                face &= mask
        if face == bit:
            out.append(i)
    return out


@dataclass
class FacetVertexReport:
    """Facet/vertex counts against the 2^d bound for two-level sets."""

    affine_dim: int
    facet_count: int
    vertex_count: int
    bound: int
    exact: bool
    within_bounds: Optional[bool]

    def to_json(self) -> dict:
        return {
            "affineDim": self.affine_dim,
            "facetCount": self.facet_count,
            "vertexCount": self.vertex_count,
            "bound": self.bound,
            "exact": self.exact,
            "withinBounds": self.within_bounds,
        }


def facet_vertex_report(
    points, report: Optional[ExactnessReport] = None
) -> FacetVertexReport:
    """Count facets and vertices; two-level sets must stay within 2^d each.

    A report that is_exact already made for the same points is reused.
    """
    ps = PointSet.coerce(points)
    if report is None:
        report = is_exact(ps)
    vcount = len(vertex_indices(ps, report.facets))
    bound = 2 ** report.affine_dim
    return FacetVertexReport(
        affine_dim=report.affine_dim,
        facet_count=len(report.facets),
        vertex_count=vcount,
        bound=bound,
        exact=report.exact,
        within_bounds=(
            (len(report.facets) <= bound and vcount <= bound)
            if report.exact
            else None
        ),
    )


# --------------------------------------------------------------------------
# classification of full-dimensional 0/1 point sets up to affine equivalence


def _affinely_equivalent(s_pts: List[tuple], t_pts: List[tuple], d: int) -> bool:
    """Exact test for an invertible affine map carrying one set onto the other."""
    if len(s_pts) != len(t_pts):
        return False
    basis = _affine_basis(s_pts, d)
    b0 = basis[0]
    cols = [[Fraction(b[j]) - b0[j] for b in basis[1:]] for j in range(d)]
    binv = _invert_rational_matrix(cols)
    t_set = set(map(tuple, t_pts))
    shifted = [tuple(Fraction(x) - y for x, y in zip(p, b0)) for p in s_pts]
    coords = [
        tuple(sum(row[k] * p[k] for k in range(d)) for row in binv) for p in shifted
    ]
    for target in itertools.permutations(t_pts, d + 1):
        t0 = target[0]
        image = set()
        ok = True
        for lam in coords:
            q = tuple(
                t0[j] + sum(lam[k] * (target[k + 1][j] - t0[j]) for k in range(d))
                for j in range(d)
            )
            if q not in t_set:
                ok = False
                break
            image.add(q)
        if ok and len(image) == len(t_set):
            return True
    return False


@dataclass
class ZeroOneClass:
    """One affine-equivalence class of full-dimensional 0/1 point sets."""

    dim: int
    size: int
    representative: Tuple[Tuple[int, ...], ...]
    orbit_count: int
    subset_count: int
    exact: bool
    rank_bound: int
    facet_count: int
    vertex_count: int

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "size": self.size,
            "representative": [list(p) for p in self.representative],
            "orbitCount": self.orbit_count,
            "subsetCount": self.subset_count,
            "exact": self.exact,
            "rankBound": self.rank_bound,
            "facetCount": self.facet_count,
            "vertexCount": self.vertex_count,
        }


def _class_geometry(pts: Tuple[Tuple[int, ...], ...]):
    report = is_exact(list(pts))
    vcount = len(vertex_indices(list(pts), report.facets))
    levels = tuple(sorted(f.level_count for f in report.facets))
    return (
        len(report.facets),
        levels,
        vcount,
        report.exact,
        report.rank_bound,
    )


def classify_01(d: int) -> List[ZeroOneClass]:
    """Affine-equivalence classes of full-dimensional subsets of {0,1}^d.

    Subsets are first reduced modulo the symmetries of the cube (coordinate
    permutations and flips), then merged under general invertible affine maps;
    each class reports its hull statistics and two-level status.  Supported
    for d <= 3 (255 subsets of the 3-cube); larger d is refused.
    """
    if d < 1 or d > 3:
        raise InputError("classification is supported for dimensions 1..3")
    verts = list(itertools.product((0, 1), repeat=d))
    vindex = {v: i for i, v in enumerate(verts)}
    group = []
    for perm in itertools.permutations(range(d)):
        for flips in itertools.product((0, 1), repeat=d):
            table = [
                vindex[tuple(v[perm[k]] ^ flips[k] for k in range(d))]
                for v in verts
            ]
            group.append(table)

    full_dim: List[int] = []
    for mask in range(1, 1 << len(verts)):
        members = [verts[i] for i in range(len(verts)) if mask >> i & 1]
        if len(members) >= d + 1 and _affine_rank(members) == d:
            full_dim.append(mask)

    orbits: Dict[int, List[int]] = {}
    for mask in full_dim:
        best = mask
        for table in group:
            image = 0
            rem = mask
            while rem:
                low = rem & -rem
                image |= 1 << table[low.bit_length() - 1]
                rem ^= low
            if image < best:
                best = image
        orbits.setdefault(best, []).append(mask)

    reps = sorted(orbits)
    rep_points = [
        tuple(verts[i] for i in range(len(verts)) if mask >> i & 1) for mask in reps
    ]
    geometry = [_class_geometry(p) for p in rep_points]

    buckets: Dict[tuple, List[int]] = {}
    for idx, (pts, geo) in enumerate(zip(rep_points, geometry)):
        buckets.setdefault((len(pts), geo[0], geo[1], geo[2]), []).append(idx)

    parent = list(range(len(reps)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for members in buckets.values():
        for a, b in itertools.combinations(members, 2):
            if find(a) == find(b):
                continue
            if _affinely_equivalent(list(rep_points[a]), list(rep_points[b]), d):
                parent[find(b)] = find(a)

    classes: Dict[int, List[int]] = {}
    for idx in range(len(reps)):
        classes.setdefault(find(idx), []).append(idx)

    out = []
    for root, members in classes.items():
        lead = min(members)
        pts = rep_points[lead]
        fc, _levels, vc, exact, bound = geometry[lead]
        out.append(
            ZeroOneClass(
                dim=d,
                size=len(pts),
                representative=tuple(sorted(pts)),
                orbit_count=len(members),
                subset_count=sum(len(orbits[reps[i]]) for i in members),
                exact=exact,
                rank_bound=bound,
                facet_count=fc,
                vertex_count=vc,
            )
        )
    out.sort(key=lambda c: (c.size, c.representative))
    return out


# --------------------------------------------------------------------------
# down-closed 0/1 families and stable-set structure


@dataclass
class DownClosedReport:
    """Structure of a 0/1 family under coordinate deletion.

    For a down-closed full-dimensional family the reconstructed graph joins
    i and j when e_i + e_j is outside the family; the family is two-level
    exactly when it equals the stable sets of that graph and the graph's
    nonnegativity/clique inequalities give all facets.
    """

    is_01: bool
    down_closed: bool
    witness: Optional[tuple]
    full_dimensional: Optional[bool] = None
    exact: Optional[bool] = None
    rank_bound: Optional[int] = None
    graph: Optional[Graph] = None
    matches_stable_sets: Optional[bool] = None
    facet_forms_ok: Optional[bool] = None
    clique_facets: Optional[List[Tuple[int, ...]]] = None

    def to_json(self) -> dict:
        return {
            "is01": self.is_01,
            "downClosed": self.down_closed,
            "witness": list(self.witness) if self.witness else None,
            "fullDimensional": self.full_dimensional,
            "exact": self.exact,
            "rankBound": self.rank_bound,
            "graph": self.graph.to_json() if self.graph else None,
            "matchesStableSets": self.matches_stable_sets,
            "facetFormsOk": self.facet_forms_ok,
            "cliqueFacets": [list(c) for c in self.clique_facets]
            if self.clique_facets is not None
            else None,
        }


def down_closed_analysis(points) -> DownClosedReport:
    """Analyze a 0/1 point set as a down-closed set family."""
    ps = PointSet.coerce(points)
    n = ps.dim
    for p in ps.points:
        if any(c not in (0, 1) for c in p):
            return DownClosedReport(
                is_01=False,
                down_closed=False,
                witness=tuple(format_rational(c) for c in p),
            )
    members = {tuple(int(c) for c in p) for p in ps.points}
    for s in sorted(members):
        for i in range(n):
            if s[i] == 1:
                below = s[:i] + (0,) + s[i + 1 :]
                if below not in members:
                    return DownClosedReport(
                        is_01=True, down_closed=False, witness=(s, i + 1)
                    )
    singles = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    full = all(e in members for e in singles)
    if len(ps.points) < 2:
        return DownClosedReport(
            is_01=True,
            down_closed=True,
            witness=None,
            full_dimensional=full,
            exact=True,
            rank_bound=0,
        )

    report = is_exact(ps)
    out = DownClosedReport(
        is_01=True,
        down_closed=True,
        witness=None,
        full_dimensional=full,
        exact=report.exact,
        rank_bound=report.rank_bound,
    )
    if not full:
        return out

    edges = [
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if tuple(int(k == i or k == j) for k in range(n)) not in members
    ]
    graph = Graph(n, edges)
    out.graph = graph
    try:
        family = enumerate_stable_sets(graph, n, cap=len(members) + 8)
        stable = set()
        for element in family.elements:
            support = set(element)
            stable.add(tuple(int(g in support) for g in range(n)))
        out.matches_stable_sets = stable == members
    except ResourceLimitError:
        out.matches_stable_sets = False

    if report.exact:
        edge_set = set(graph.edges)
        cliques = []
        ok = True
        for facet in report.facets:
            a, b = facet.normal, facet.offset
            neg = [i for i, v in enumerate(a) if v < 0]
            pos = [i for i, v in enumerate(a) if v > 0]
            if len(neg) == 1 and not pos and a[neg[0]] == -1 and b == 0:
                continue  # a nonnegativity facet x_i >= 0
            if neg or any(v != 1 for v in a if v) or b != 1:
                ok = False
                continue
            support = tuple(i + 1 for i in pos)
            if all(
                (u, v) in edge_set
                for u, v in itertools.combinations(support, 2)
            ):
                cliques.append(support)
            else:
                ok = False
        out.facet_forms_ok = ok
        out.clique_facets = sorted(cliques)
    return out
