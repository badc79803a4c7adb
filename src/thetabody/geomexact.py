"""Exact polyhedral geometry of finite point sets and exactness certificates.

The convex hull of a finite rational point set is described here entirely in
exact arithmetic.  Facets are found inside an affine-hull chart: scale every
point to integers by the lcm of all the coordinates' denominators, row-reduce
the differences from the first point once, in integers, and keep the pivot
coordinates, so that projecting onto them is an isomorphism of the affine
hull.  The same elimination inverts the chart's frame.  The facets of the
chart points are enumerated by the double description method in integer
arithmetic (Motzkin-Raiffa-Thompson-Thrall 1953; Fukuda-Prodon 1996), and
chart normals are lifted back by scattering them into the pivot coordinates.
Normals are primitive integer vectors with the point set on the <= side.
A normal is zero off the pivots, so its levels normal . p are computed on
the integer chart points and divided by the lcm once per distinct level.

A point set is *two-level* when every facet hyperplane sees at most two
distinct values of its linear functional on the set.  Two-level sets are
exactly the ones whose first theta relaxation already equals the convex hull,
and max(levels - 1) over the facets bounds the level at which the hierarchy
closes.  Consequences checked here: two-level sets in affine dimension d have
at most 2^d facets and at most 2^d vertices, and a down-closed 0/1 family is
two-level if and only if it is the family of stable sets of the graph it
reconstructs and that graph's clique inequalities give all the non-trivial
facets.

classify_01 sorts the full-dimensional subsets of the 0/1 cube in dimension
d <= 4 into affine-equivalence classes.  Two sets are equivalent exactly when
their slack graphs are isomorphic: the complete bipartite graphs between
points and facets whose edge weights are the facets' slacks, each facet row
divided by its gcd.  The search for the isomorphism is the symmetry module's,
which combopt uses for graph automorphisms.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError, ResourceLimitError
from .exactalg import (
    MAX_BM_POINTS, PointSet, _divide_gcd, _Elimination, _find, _Frozen, _Record,
    _scaled_coordinates, format_rational, parse_integer)

MAX_AFFINE_DIM = 8
# Most rows the double description may hold.  Its cost grows about as the
# cube of the row count: cyclic polytopes in dimension 8 took 0.07 / 0.5 /
# 1.2 / 2.7 s for 1,287 / 3,740 / 5,814 / 8,645 facets at 18 / 22 / 24 / 26
# points (one core of a 2-CPU Xeon).  With this cap 64 points in dimension
# 8 on the moment curve or at random are refused after 1-3 s.
MAX_CHART_ROWS = 5_000


class FacetInequality(_Frozen):
    """One facet of conv(S), written normal . x <= offset with S on the <= side.

    The normal is a primitive integer vector (supported on the chart's pivot
    coordinates when the set is not full-dimensional); values holds the sorted
    distinct results of normal . p over the set and tight lists the indices of
    the points attaining the offset.  The levels are computed in integers on
    the pivot coordinates scaled by the lcm of all the coordinates'
    denominators; offset and values are Fractions.
    """

    _fields = ("normal", "offset", "values", "tight")

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


def affine_dimension(points) -> int:
    """Dimension of the affine hull of the point set."""
    return len(_affine_frame(_scaled_coordinates(PointSet.coerce(points))[0])[0]) - 1


def _primitive(vector: Sequence[int]) -> Tuple[int, ...]:
    """A nonzero integer vector divided by the gcd of its entries."""
    return tuple(_divide_gcd(vector))


def _affine_frame(pts: Sequence[Sequence[int]]) -> Tuple[List[int], _Elimination]:
    """(frame, elim) for integer points: frame indexes pts[0] and each point
    whose difference from it is independent of the kept ones; elim eliminated
    those differences.  On the chart (pts projected onto elim.pivots) the rows
    W_k of elim.inverse() give barycentric coordinates lam = W (x - pts[0])."""
    frame, elim = [0], _Elimination()
    for i in range(1, len(pts)):
        if elim.add([x - y for x, y in zip(pts[i], pts[0])], 1):
            frame.append(i)
            if len(frame) > len(pts[0]):
                break
    return frame, elim


def _chart_facets(pts: List[Tuple[int, ...]], frame: List[int],
                  inverse: List[Tuple[List[int], int]]) -> List[Tuple[int, ...]]:
    """Primitive integer outward normals of the facets of conv(pts), for
    distinct integer points spanning Z^d affinely, given the affine frame of
    pts and its inverse (see _affine_frame).

    Double description (beneath-beyond) in integer arithmetic.  The points
    are inserted one at a time into the hull of a greedy affine basis.  A facet
    is a row (a, b) with a . q <= b on every inserted point q, carried with
    the bitmask of inserted points tight on it.  Inserting q keeps the rows
    it satisfies and, for each pair (h+, h-) of a row with positive slack
    s+ and a violated row with slack s- < 0, adds the facet
    s+ * h- - s- * h+ through q when the pair is adjacent: their common
    tight set C has at least d - 1 points and no other row is tight on all
    of C (Fukuda-Prodon, Double description method revisited, 1996).
    More than MAX_CHART_ROWS rows after an insertion raise ResourceLimitError.
    """
    d = len(inverse)
    # simplex facets from the barycentric coordinates lam_k = W_k (x - v0),
    # W_k = ints / den: lam_k >= 0 and sum lam <= 1, the latter times the lcm
    v0 = pts[0]
    den = lcm(*(wd for _, wd in inverse))
    total = [sum(w[j] * (den // wd) for w, wd in inverse) for j in range(d)]
    rows = [_primitive(total + [den + sum(w * x for w, x in zip(total, v0))])]
    rows += [
        _primitive([-w for w in row] + [-sum(w * x for w, x in zip(row, v0))])
        for row, _ in inverse
    ]
    simplex = sum(1 << k for k in frame)
    tights = [simplex & ~(1 << k) for k in frame]

    in_frame = set(frame)
    for i, q in enumerate(pts):
        if i in in_frame:
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
        if len(rows) > MAX_CHART_ROWS:
            raise ResourceLimitError(
                f"facet enumeration capped at {MAX_CHART_ROWS} partial facets, "
                f"got {len(rows)} after {i + 1} of {len(pts)} points"
            )

    return [_primitive(row[:d]) for row in rows]


def facets(points) -> List[FacetInequality]:
    """All facets of conv(S), exactly, sorted by (normal, offset).

    The facets are enumerated in the affine-hull chart by the double
    description method (_chart_facets), and each chart normal is lifted by
    scattering it into the pivot coordinates.  Inputs beyond the caps (64
    points, affine dimension 8, 5,000 partial facets held by the double
    description) are refused.
    """
    ps = PointSet.coerce(points)
    if len(ps.points) < 2:
        raise InputError("facet enumeration needs at least two distinct points")
    if len(ps.points) > MAX_BM_POINTS:
        raise ResourceLimitError(
            f"facet enumeration capped at {MAX_BM_POINTS} points, got {len(ps.points)}"
        )
    rows, den = _scaled_coordinates(ps)
    frame, elim = _affine_frame(rows)
    pivots = elim.pivots
    if len(pivots) > MAX_AFFINE_DIM:
        raise ResourceLimitError(
            f"facet enumeration capped at affine dimension {MAX_AFFINE_DIM}, got {len(pivots)}"
        )
    chart = [tuple(p[j] for j in pivots) for p in rows]

    out = []
    for nhat in _chart_facets(chart, frame, elim.inverse()):
        ambient = [0] * ps.dim
        for coeff, j in zip(nhat, pivots):
            ambient[j] = coeff
        # normal . p = (nhat . chart(p)) / den, as the normal is zero off the pivots
        raw = [sum(a * x for a, x in zip(nhat, q)) for q in chart]
        levels = sorted(set(raw))
        values = tuple(Fraction(v, den) for v in levels)
        out.append(
            FacetInequality(
                normal=tuple(ambient),
                offset=values[-1],
                values=values,
                tight=tuple(i for i, v in enumerate(raw) if v == levels[-1]),
            )
        )
    out.sort(key=lambda f: (f.normal, f.offset))
    return out


class ExactnessReport(_Record):
    """Two-level test of a point set with the certifying facet data; failing
    is a facet with more than two levels, or None."""

    _fields = ("exact", "affine_dim", "rank_bound", "facets", "failing")

    def to_json(self) -> dict:
        out = super().to_json()
        out["facetCount"] = len(self.facets)
        out["failingFacet"] = out.pop("failing")
        return out


def is_exact(points) -> ExactnessReport:
    """Decide whether the first theta relaxation is already the convex hull.

    That holds exactly when every facet functional takes at most two values
    on the set; the report carries a violating facet otherwise, and in all
    cases max(levels - 1) over the facets as a bound on the closing level.
    """
    ps = PointSet.coerce(points)
    facet_list = facets(ps)
    failing = next((f for f in facet_list if f.level_count > 2), None)
    # facets() scatters the chart normals into the chart's pivot coordinates,
    # and the facet normals of a polytope span its chart, so together they
    # touch exactly the affine_dimension(ps) pivots
    pivots = {j for f in facet_list for j, c in enumerate(f.normal) if c}
    return ExactnessReport(
        exact=failing is None,
        affine_dim=len(pivots),
        rank_bound=max(f.level_count - 1 for f in facet_list),
        facets=facet_list,
        failing=failing,
    )


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


class FacetVertexReport(_Record):
    """Facet/vertex counts against the 2^d bound for two-level sets;
    within_bounds is None for a set that is not two-level."""

    _fields = ("affine_dim", "facet_count", "vertex_count", "bound", "exact", "within_bounds")


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


def _slack_rows(pts, facet_list: List[FacetInequality]) -> List[Tuple[int, ...]]:
    """Each facet's slacks offset - normal . p over the integer points, as a
    primitive integer row (each offset is some normal . p, an integer)."""
    return [
        _primitive([f.offset.numerator - sum(a * x for a, x in zip(f.normal, p)) for p in pts])
        for f in facet_list
    ]


def _slack_equivalent(s_slacks: List[Tuple[int, ...]], t_slacks: List[Tuple[int, ...]]) -> bool:
    """Whether an invertible affine map carries one full-dimensional point set
    onto the other, given each set's facet slack rows from _slack_rows.

    An affine map carries facets to facets and scales each facet's slacks by
    a positive factor, which the primitive rows divide out.  Conversely, the
    slack matrix of a full-dimensional set is [1 | points] times the facets'
    (offset, -normal) columns, which have full row rank, so its columns span
    the same space as [1 | points].  Slack matrices equal up to permuting
    points and facets and scaling each facet's slacks give [1 | Q] = pi [1 | P] G
    for a point permutation pi and an invertible G; both first columns are
    all ones, so G's first column is e_0, and that is an affine map.

    The two slack graphs (point p joined to facet f by weight slack + 1) go
    into one graph, the first set's vertices first.  Each side is connected
    and bipartite, so an automorphism that maps the first set's point 0 onto
    a point of the second maps points onto points and facets onto facets.
    """
    # loaded here: exactness, which never compares two sets, skips it
    from .symmetry import MAX_SEARCH_NODES, _AutomorphismSearch

    nbrs: List[Dict[int, int]] = []
    for rows in (s_slacks, t_slacks):
        start, n = len(nbrs), len(rows[0])
        nbrs += [{} for _ in range(n + len(rows))]
        for f, row in enumerate(rows, start + n):
            for p, slack in enumerate(row, start):
                nbrs[p][f] = nbrs[f][p] = slack + 1
    search = _AutomorphismSearch(nbrs, MAX_SEARCH_NODES)
    second = len(s_slacks[0]) + len(s_slacks)
    for j in search.candidates(0, [-1] * len(nbrs)):
        if second <= j < second + len(t_slacks[0]) and search.find(0, j) is not None:
            return True
        if search.spent:
            raise ResourceLimitError(
                f"affine equivalence undecided after {MAX_SEARCH_NODES} consistency tests"
            )
    return False


class ZeroOneClass(_Record):
    """One affine-equivalence class of full-dimensional 0/1 point sets."""

    _fields = ("dim", "size", "representative", "orbit_count", "subset_count", "exact",
               "rank_bound", "facet_count", "vertex_count")


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
        report.facets,
    )


def classify_01(d: int) -> List[ZeroOneClass]:
    """Affine-equivalence classes of full-dimensional subsets of {0,1}^d.

    Subsets are first reduced modulo the symmetries of the cube (coordinate
    permutations and flips), then merged under general invertible affine maps
    by _slack_equivalent; each class reports its hull statistics and two-level
    status.  Supported for d <= 4 (65,535 subsets of the 4-cube); larger d is
    refused, as the orbit union-find walks all 2^(2^d) masks.
    """
    d = parse_integer(d, "dim")
    if d < 1 or d > 4:
        raise InputError("classification is supported for dimensions 1..4")
    verts = list(itertools.product((0, 1), repeat=d))
    vindex = {v: i for i, v in enumerate(verts)}
    # the cube group is generated by swapping the first two coordinates,
    # cycling all of them and flipping the first one
    generators = [
        [vindex[v[1::-1] + v[2:]] for v in verts],
        [vindex[v[1:] + v[:1]] for v in verts],
        [vindex[(1 - v[0],) + v[1:]] for v in verts],
    ]
    # union-find over the masks, each tree rooted at its orbit's least mask;
    # a mask's image is the image of the mask without its lowest bit, met
    # earlier, joined with that bit's image
    least = list(range(1 << len(verts)))
    for table in generators:
        image = [0] * len(least)
        for mask in range(1, len(least)):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << table[low.bit_length() - 1]
            a, b = _find(least, mask), _find(least, image[mask])
            least[max(a, b)] = min(a, b)

    orbits: Dict[int, List[int]] = {}
    for mask in range(1, len(least)):
        orbits.setdefault(_find(least, mask), []).append(mask)
    reps, rep_points = [], []
    for mask in orbits:  # least masks, ascending
        pts = tuple(verts[i] for i in range(len(verts)) if mask >> i & 1)
        # full dimension is an affine invariant: one test per orbit
        if len(_affine_frame(pts)[0]) == d + 1:
            reps.append(mask)
            rep_points.append(pts)
    geometry = [_class_geometry(p) for p in rep_points]

    buckets: Dict[tuple, List[int]] = {}
    for idx, (pts, geo) in enumerate(zip(rep_points, geometry)):
        buckets.setdefault((len(pts), geo[0], geo[1], geo[2]), []).append(idx)

    parent = list(range(len(reps)))
    for members in buckets.values():
        for a, b in itertools.combinations(members, 2):
            if _find(parent, a) == _find(parent, b):
                continue
            if _slack_equivalent(_slack_rows(rep_points[a], geometry[a][5]),
                                 _slack_rows(rep_points[b], geometry[b][5])):
                parent[_find(parent, b)] = _find(parent, a)

    classes: Dict[int, List[int]] = {}
    for idx in range(len(reps)):
        classes.setdefault(_find(parent, idx), []).append(idx)

    out = []
    for root, members in classes.items():
        lead = min(members)
        pts = rep_points[lead]
        fc, _levels, vc, exact, bound, _facets = geometry[lead]
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


class DownClosedReport(_Record):
    """Structure of a 0/1 family under coordinate deletion.

    For a down-closed full-dimensional family the reconstructed graph joins
    i and j when e_i + e_j is outside the family; the family is two-level
    exactly when it equals the stable sets of that graph and the graph's
    nonnegativity/clique inequalities give all facets.  The witness of a
    set that is not down-closed 0/1 is a point outside {0,1}^n, or a member
    and the coordinate whose deletion leaves the family.
    """

    _fields = ("is_01", "down_closed", "witness")
    _optional = ("full_dimensional", "exact", "rank_bound", "graph", "matches_stable_sets",
                 "facet_forms_ok", "clique_facets")


def down_closed_analysis(points) -> DownClosedReport:
    """Analyze a 0/1 point set as a down-closed set family."""
    # combopt and momentsdp take ~12 ms to load, which exactness and classify01 skip.
    from .combopt import Graph, enumerate_stable_sets

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
