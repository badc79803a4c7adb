"""Tests for exact facet geometry, two-level certificates, and 0/1 classes."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import corpus
import oracles
from thetabody import exactalg, geomexact
from thetabody.errors import InputError, ResourceLimitError
from thetabody.exactalg import PointSet, rational_rref
from thetabody.geomexact import (
    DownClosedReport,
    affine_dimension,
    classify_01,
    down_closed_analysis,
    facet_vertex_report,
    facets,
    is_exact,
    vertex_indices,
)


def product_points(a: PointSet, b: PointSet) -> PointSet:
    return PointSet(
        a.dim + b.dim, [p + q for p in a.points for q in b.points]
    )


# ---------------------------------------------------------------- rref

def test_rational_rref_basics():
    rows, pivots = rational_rref([[2, 4], [1, 2], [0, 1]])
    assert pivots == [0, 1]
    assert rows == [[1, 0], [0, 1]]
    rows, pivots = rational_rref([["1/2", 1, 0], [1, 2, 0]])
    assert pivots == [0]
    assert rows == [[Fraction(1), Fraction(2), Fraction(0)]]
    assert rational_rref([]) == ([], [])


# ---------------------------------------------------------------- facets

def test_segment_facets():
    fs = facets(corpus.segment01())
    assert [(f.normal, f.offset) for f in fs] == [((-1,), 0), ((1,), 1)]
    assert is_exact([(0,), (3,)]).rank_bound == 1


def test_quad4_facets_and_three_levels():
    report = is_exact(corpus.quad4())
    assert not report.exact
    assert report.rank_bound == 2
    assert len(report.facets) == 4
    by_normal = {f.normal: f for f in report.facets}
    assert by_normal[(-1, 0)].values == (Fraction(-2), Fraction(-1), Fraction(0))
    assert by_normal[(-1, 0)].offset == 0
    assert all(f.level_count == 3 for f in report.facets)
    assert report.failing is not None


def _hull_coords(ps: PointSet):
    """Float coordinates of the set on coordinates that are independent on
    its affine hull, so that qhull sees a full-dimensional set."""
    pts = np.array([[float(c) for c in p] for p in ps.points])
    diffs = pts - pts[0]
    keep = []
    for j in range(ps.dim):
        if np.linalg.matrix_rank(diffs[:, keep + [j]]) > len(keep):
            keep.append(j)
    return pts[:, keep].tolist()


def test_facet_counts_match_float_hull_oracle():
    half = Fraction(1, 2)
    cube3 = list(corpus.cube(3).points)
    for ps in [
        corpus.quad4(),
        corpus.tri3(),
        corpus.cube(3),
        corpus.cross_polytope(3),
        corpus.cube(4),
        corpus.cross_polytope(4),
        corpus.simplex(4),
        PointSet(2, [(0, 0), (2, 0), (0, 2), (1, 1), (2, 2)]),
        # an interior point
        PointSet(3, cube3 + [(half, half, half)]),
        # points inside a 2-face and on an edge
        PointSet(3, cube3 + [(half, half, 0), (0, half, half), (1, half, 0)]),
        # the origin and a point inside a triangular facet
        PointSet(
            3,
            list(corpus.cross_polytope(3).points)
            + [(0, 0, 0), (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))],
        ),
        # a 3x3 grid on the plane x3 = x1 + x2: 4 vertices, 5 other points
        PointSet(3, [(x, y, x + y) for x in range(3) for y in range(3)]),
        # the 3-cube and its centre on the hyperplane x4 = x1 - x2 + 1
        PointSet(
            4,
            [(a, b, c, a - b + 1) for a, b, c in cube3 + [(half, half, half)]],
        ),
    ]:
        coords = _hull_coords(ps)
        assert len(facets(ps)) == oracles.hull_facet_count(coords)
        assert len(vertex_indices(ps)) == oracles.hull_vertex_count(coords)


def test_facets_are_valid_and_supporting():
    for ps in [corpus.quad4(), corpus.cube(3), corpus.hypersimplex_2_4()]:
        for f in facets(ps):
            vals = [sum(c * x for c, x in zip(f.normal, p)) for p in ps.points]
            assert max(vals) == f.offset
            assert tuple(sorted(set(vals))) == f.values
            assert all(vals[i] == f.offset for i in f.tight)


def random_rationals(rng, count, dim, spread=5, den=4):
    pts = set()
    while len(pts) < count:
        pts.add(
            tuple(Fraction(rng.randint(-spread, spread), rng.randint(1, den)) for _ in range(dim))
        )
    return sorted(pts)


def cyclic_points(d, n):
    """n points on the moment curve t -> (t, t^2, ..., t^d)."""
    return [tuple(t**k for k in range(1, d + 1)) for t in range(n)]


def test_facets_match_subset_scan_on_cube_subsets():
    rng = random.Random(7)
    for d, sizes in [(2, range(2, 5)), (3, range(3, 9)), (4, range(5, 13)), (5, range(6, 12))]:
        cube_pts = list(itertools.product((0, 1), repeat=d))
        for size in sizes:
            pts = rng.sample(cube_pts, size)
            assert facets(pts) == oracles.facets_by_subset_scan(pts), pts


def test_facets_match_subset_scan_on_rational_sets():
    rng = random.Random(11)
    for d, counts in [(2, (3, 6, 10)), (3, (4, 7, 11)), (4, (5, 8, 10))]:
        for count in counts:
            pts = random_rationals(rng, count, d)
            assert facets(pts) == oracles.facets_by_subset_scan(pts), pts


def test_facets_match_subset_scan_on_embedded_sets():
    # affine dimension below the ambient dimension, rational embeddings
    rng = random.Random(13)
    for ambient, d in [(3, 1), (3, 2), (4, 2), (4, 3), (5, 3)]:
        base = random_rationals(rng, d + 1, ambient, spread=3, den=3)
        while affine_dimension(base) < d:
            base = random_rationals(rng, d + 1, ambient, spread=3, den=3)
        pts = set()
        for lam in random_rationals(rng, d + 5, d, spread=3, den=3):
            pts.add(
                tuple(
                    base[0][j] + sum(l * (b[j] - base[0][j]) for l, b in zip(lam, base[1:]))
                    for j in range(ambient)
                )
            )
        pts = sorted(pts)
        assert affine_dimension(pts) == d
        assert is_exact(pts).affine_dim == d
        assert facets(pts) == oracles.facets_by_subset_scan(pts), pts


def test_facets_match_subset_scan_on_lines_with_interior_points():
    rng = random.Random(17)
    for count in (2, 3, 5, 8):
        pts = random_rationals(rng, count, 1, spread=9, den=3)
        rng.shuffle(pts)
        fs = facets(pts)
        assert fs == oracles.facets_by_subset_scan(pts), pts
        assert len(fs) == 2
    line = [(t, 2 * t, -t) for t in (3, -1, 0, 5, 2)]  # a line in R^3
    assert facets(line) == oracles.facets_by_subset_scan(line)
    assert is_exact(line).affine_dim == 1


def test_facet_levels_match_fraction_scan():
    rng = random.Random(23)
    sets = []
    # a different denominator in every coordinate
    for dim, count in [(2, 8), (3, 10), (4, 12)]:
        dens = rng.sample(range(2, 14), dim)
        pts = set()
        while len(pts) < count:
            pts.add(tuple(Fraction(rng.randint(-20, 20), q) for q in dens))
        sets.append(sorted(pts))
    # lower-dimensional sets embedded with rational coordinates
    for ambient, d in [(3, 1), (3, 2), (4, 2), (5, 3)]:
        base = random_rationals(rng, d + 1, ambient, spread=4, den=5)
        while affine_dimension(base) < d:
            base = random_rationals(rng, d + 1, ambient, spread=4, den=5)
        pts = {
            tuple(
                base[0][j] + sum(l * (b[j] - base[0][j]) for l, b in zip(lam, base[1:]))
                for j in range(ambient)
            )
            for lam in random_rationals(rng, d + 6, d, spread=3, den=4)
        }
        sets.append(sorted(pts))
    # interior points: the cube's vertices plus rational points inside it
    for dim in (2, 3, 4):
        pts = set(itertools.product((0, 1), repeat=dim))
        while len(pts) < 2**dim + 5:
            pts.add(tuple(Fraction(rng.randint(1, 6), 7) for _ in range(dim)))
        sets.append(sorted(pts, key=lambda p: rng.random()))

    for pts in sets:
        ps = PointSet(len(pts[0]), pts)
        for f in facets(ps):
            offset, values, tight = oracles.facet_levels_by_fraction_scan(f.normal, ps.points)
            assert type(f.normal) is tuple and all(type(c) is int for c in f.normal)
            assert type(f.offset) is Fraction and f.offset == offset
            assert type(f.values) is tuple and all(type(v) is Fraction for v in f.values)
            assert f.values == values
            assert type(f.tight) is tuple and all(type(i) is int for i in f.tight)
            assert f.tight == tight


def test_facets_match_subset_scan_on_cyclic_polytopes():
    for d, n in [(4, 8), (5, 9), (6, 10)]:
        pts = cyclic_points(d, n)
        assert facets(pts) == oracles.facets_by_subset_scan(pts), (d, n)


def test_facet_counts_of_cube5_and_cross5():
    assert len(facets(corpus.cube(5))) == 10
    assert len(facets(corpus.cross_polytope(5))) == 32


def test_cube6_facets_and_exactness():
    report = is_exact(corpus.cube(6))
    assert len(report.facets) == 12
    assert report.exact


def test_facets_of_a_shuffled_input():
    rng = random.Random(19)
    for pts in [list(corpus.cube(4).points), random_rationals(rng, 10, 3), cyclic_points(4, 9)]:
        perm = list(range(len(pts)))
        rng.shuffle(perm)
        shuffled = facets([pts[k] for k in perm])
        expected = facets(pts)
        assert [(f.normal, f.offset, f.values) for f in shuffled] == [
            (f.normal, f.offset, f.values) for f in expected
        ]
        assert [tuple(sorted(perm[k] for k in f.tight)) for f in shuffled] == [
            f.tight for f in expected
        ]


def test_degenerate_chart_octahedron():
    # six 0/1 points in R^4 with coordinate sum 2: affinely an octahedron
    ps = corpus.hypersimplex_2_4()
    assert affine_dimension(ps) == 3
    report = is_exact(ps)
    assert report.exact and report.rank_bound == 1
    assert len(report.facets) == 8
    assert len(vertex_indices(ps)) == 6
    for f in report.facets:
        assert any(v != 0 for v in f.normal)


@pytest.mark.parametrize(
    "ps", [corpus.cube(3), corpus.hypersimplex_2_4(), corpus.curve14()], ids=str)
def test_facets_runs_one_elimination(monkeypatch, ps):
    """The pivots, the chart's frame and its inverse come from one elimination."""
    expected = oracles.facets_by_subset_scan(list(ps.points))
    made = []
    init = exactalg._Elimination.__init__

    def counting_init(self):
        made.append(self)
        init(self)

    monkeypatch.setattr(exactalg._Elimination, "__init__", counting_init)
    assert facets(ps) == expected
    assert len(made) == 1


def test_facet_caps():
    with pytest.raises(InputError):
        facets([(0, 0)])
    with pytest.raises(ResourceLimitError):
        facets([(i,) for i in range(65)])


def test_chart_row_cap(monkeypatch):
    monkeypatch.setattr(geomexact, "MAX_CHART_ROWS", 100)
    with pytest.raises(ResourceLimitError):
        facets(cyclic_points(8, 18))


def test_affine_dim_cap_message():
    # cube(9) would have 512 points; build a cheap 9-dim simplex instead
    pts = [tuple(0 for _ in range(9))] + [
        tuple(int(i == j) for j in range(9)) for i in range(9)
    ]
    with pytest.raises(ResourceLimitError):
        facets(pts)


# ---------------------------------------------------------------- exactness

def test_two_level_corpus():
    for d in (1, 2, 3, 4):
        assert is_exact(corpus.cube(d)).exact
        assert is_exact(corpus.cross_polytope(d)).exact
        assert is_exact(corpus.simplex(d)).exact
    assert is_exact(corpus.tri3()).exact
    assert not is_exact(corpus.quad4()).exact


def test_stable_set_polytope_c5_rank_bound():
    ps = corpus.stable_set_points(5, corpus.cycle_edges(5))
    report = is_exact(ps)
    assert not report.exact
    assert report.rank_bound == 2
    assert len(report.facets) == 11  # 5 nonnegativity + 5 edges + odd cycle
    odd = [f for f in report.facets if sorted(f.normal) == [1, 1, 1, 1, 1]]
    assert len(odd) == 1 and odd[0].offset == 2
    assert odd[0].values == (Fraction(0), Fraction(1), Fraction(2))


def test_perfect_graph_stable_sets_are_two_level():
    for n, edges in [
        (3, corpus.path_edges(3)),
        (4, corpus.complete_edges(4)),
        (6, corpus.cycle_edges(6)),
        (5, corpus.complete_bipartite_edges(2, 3)),
    ]:
        assert is_exact(corpus.stable_set_points(n, edges)).exact


def test_product_closure():
    seg, quad = corpus.segment01(), corpus.quad4()
    square = product_points(seg, seg)
    assert is_exact(square).exact
    mixed = product_points(quad, seg)
    rep = is_exact(mixed)
    assert not rep.exact and rep.rank_bound == 2
    cube_from_products = product_points(square, seg)
    assert is_exact(cube_from_products).exact


def test_face_restriction_closure():
    ps = corpus.cross_polytope(3)
    report = is_exact(ps)
    for f in report.facets[:4]:
        face_pts = [ps.points[i] for i in f.tight]
        if len(face_pts) >= 2:
            assert is_exact(face_pts).exact


def test_facet_vertex_bounds_with_equality_witnesses():
    for d in (1, 2, 3, 4):
        cube_report = facet_vertex_report(corpus.cube(d))
        assert cube_report.exact and cube_report.within_bounds
        assert cube_report.vertex_count == 2**d  # vertex bound is tight
        cross_report = facet_vertex_report(corpus.cross_polytope(d))
        assert cross_report.exact and cross_report.within_bounds
        assert cross_report.facet_count == 2**d  # facet bound is tight
    quad_report = facet_vertex_report(corpus.quad4())
    assert quad_report.within_bounds is None  # bound only claimed when exact


def test_vertex_detection_with_interior_points():
    ps = PointSet(2, [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
    assert vertex_indices(ps) == [0, 1, 2, 3]


# ---------------------------------------------------------------- classify

def test_classify_01_low_dimensions():
    one = classify_01(1)
    assert len(one) == 1 and one[0].exact and one[0].size == 2
    two = classify_01(2)
    assert len(two) == 2
    assert all(c.exact for c in two)
    assert [c.size for c in two] == [3, 4]
    with pytest.raises(InputError):
        classify_01(5)
    with pytest.raises(InputError):
        classify_01(0)


def test_classify_01_dimension_three_frozen():
    classes = classify_01(3)
    assert len(classes) == 8
    summary = sorted(
        (c.size, c.facet_count, c.vertex_count, c.exact, c.rank_bound)
        for c in classes
    )
    assert summary == [
        (4, 4, 4, True, 1),     # simplex
        (5, 5, 5, True, 1),     # pyramid over a parallelogram
        (5, 6, 5, False, 2),    # bipyramid over a triangle
        (6, 5, 6, True, 1),     # triangular prism
        (6, 7, 6, False, 2),    # six points, no symmetry class
        (6, 8, 6, True, 1),     # octahedron (cube minus antipodal pair)
        (7, 7, 7, False, 2),    # cube minus one vertex
        (8, 6, 8, True, 1),     # the full cube
    ]
    assert sum(c.exact for c in classes) == 5
    assert sum(not c.exact for c in classes) == 3
    # every full-dimensional subset of the 3-cube is accounted for
    assert sum(c.subset_count for c in classes) == 151
    assert all(c.rank_bound == 2 for c in classes if not c.exact)


def test_classify_01_dimension_four():
    # Bohn et al. (MPC 2019) count 19 two-level classes in the 4-cube; 202
    # classes in all is what the tuple search of the oracles found
    start = time.perf_counter()
    classes = classify_01(4)
    assert time.perf_counter() - start < 10.0
    assert len(classes) == 202
    assert sum(c.exact for c in classes) == 19
    assert sum(c.subset_count for c in classes) == 60879


def _unimodular_image(pts, rng):
    """The points under a random integer map of determinant +-1 (three
    shears and a coordinate permutation) and an integer shift, shuffled."""
    d = len(pts[0])
    matrix = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(3):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        matrix[i] = [a + c * b for a, b in zip(matrix[i], matrix[j])]
    rng.shuffle(matrix)
    shift = [rng.randint(-2, 2) for _ in range(d)]
    image = [
        tuple(sum(a * x for a, x in zip(row, p)) + s for row, s in zip(matrix, shift))
        for p in pts
    ]
    rng.shuffle(image)
    return image


@pytest.mark.parametrize(
    "d, sizes, draws, negatives",
    [(3, range(4, 9), 30, 0), (4, range(5, 8), 12, 0), (4, [8], 36, 3)],
    ids=["d3", "d4-small", "d4-eight"],
)
def test_slack_equivalence_matches_tuple_search(d, sizes, draws, negatives):
    """The slack-graph decision agrees with the P(n, d+1) tuple search on the
    pairs classify_01 decides: random full-dimensional cube subsets of one
    size with equal facet count, facet levels and vertex count, the second
    moved by a unimodular map that is no cube symmetry in general.  In the
    3-cube these invariants already separate the classes; in the 4-cube
    they first fail to at 8 points."""
    rng = random.Random(26 + d)
    cube = list(itertools.product((0, 1), repeat=d))
    seen = {True: 0, False: 0}
    for size in sizes:
        keyed = []
        for pts in (rng.sample(cube, size) for _ in range(draws)):
            if affine_dimension(pts) == d:
                geo = geomexact._class_geometry(tuple(pts))
                keyed.append((geo[:3], pts, geo[5]))
        keyed.sort(key=lambda entry: entry[:2])
        for (s_key, s, s_facets), (t_key, t, _) in zip(keyed, keyed[1:]):
            if s_key != t_key:
                continue
            t = _unimodular_image(t, rng)
            expected = oracles.affinely_equivalent_by_tuples(s, t, d)
            got = geomexact._slack_equivalent(
                geomexact._slack_rows(s, s_facets), geomexact._slack_rows(t, facets(t))
            )
            assert got == expected, (s, t)
            seen[expected] += 1
    assert seen[True] >= 10 and seen[False] >= negatives


def test_classify_01_matches_subset_scan_facets(monkeypatch):
    classes = [c.to_json() for c in classify_01(3)]
    monkeypatch.setattr(geomexact, "facets", oracles.facets_by_subset_scan)
    assert classes == [c.to_json() for c in classify_01(3)]
    assert len(classes) == 8


# ---------------------------------------------------------------- down-closed

def stable_family(n, edges):
    return corpus.stable_set_points(n, edges)


def test_down_closed_p3_reconstructs_graph():
    report = down_closed_analysis(stable_family(3, corpus.path_edges(3)))
    assert report.is_01 and report.down_closed and report.full_dimensional
    assert report.exact
    assert report.graph.edges == ((1, 2), (2, 3))
    assert report.matches_stable_sets
    assert report.facet_forms_ok
    assert report.clique_facets == [(1, 2), (2, 3)]


def test_down_closed_c5_matches_but_not_exact():
    report = down_closed_analysis(stable_family(5, corpus.cycle_edges(5)))
    assert report.down_closed and report.full_dimensional
    assert report.matches_stable_sets  # it is the stable-set family of C5
    assert not report.exact            # but C5 is not perfect
    assert report.rank_bound == 2


def test_down_closed_cube_without_top_is_not_a_stable_family():
    pts = [p for p in corpus.cube(3).points if p != (1, 1, 1)]
    report = down_closed_analysis(pts)
    assert report.is_01 and report.down_closed and report.full_dimensional
    assert report.graph.edges == ()
    assert report.matches_stable_sets is False
    assert not report.exact
    # the subsets of size <= 2 of 5 coordinates: 16 members and no missing
    # pair, so the empty graph's 32 stable sets pass the enumeration cap of 24
    pts = [p for p in corpus.cube(5).points if sum(p) <= 2]
    report = down_closed_analysis(pts)
    assert report.down_closed and report.full_dimensional
    assert report.graph.edges == ()
    assert report.matches_stable_sets is False


def test_down_closed_violations_reported():
    report = down_closed_analysis([(0, 0), (1, 1)])
    assert report.is_01 and not report.down_closed
    assert report.witness == ((1, 1), 1)
    report = down_closed_analysis([(0, 0), ("1/2", 0)])
    assert not report.is_01
    report = down_closed_analysis([(0,)])
    assert report.down_closed  # the singleton {0} family


def test_down_closed_degenerate_coordinate():
    # coordinate 2 never used: down-closed but not full-dimensional
    report = down_closed_analysis([(0, 0), (1, 0)])
    assert report.down_closed and report.full_dimensional is False
    assert report.graph is None and report.matches_stable_sets is None


def test_down_closed_perfect_family_theorem_agreement():
    # for down-closed full-dimensional families: two-level implies the family
    # is the stable sets of its reconstructed graph with clique facets
    for n, edges in [
        (3, corpus.path_edges(3)),
        (4, corpus.complete_edges(4)),
        (4, corpus.path_edges(4)),
        (6, corpus.cycle_edges(6)),
        (3, []),
    ]:
        report = down_closed_analysis(stable_family(n, edges))
        assert report.exact
        assert report.matches_stable_sets and report.facet_forms_ok
        assert set(report.graph.edges) == {tuple(sorted(e)) for e in edges}


# ---------------------------------------------------------------- SDP link

def level_one_max(points: PointSet, objective_vector):
    from thetabody.exactalg import Monomial, buchberger_moller
    from thetabody.momentsdp import build_moment_template, build_theta_sdp
    from thetabody.sdpsolve import solve

    ring = buchberger_moller(points)
    template = build_moment_template(ring, 1)
    objective = {
        Monomial.variable(i + 1, points.dim): c
        for i, c in enumerate(objective_vector)
        if c
    }
    return solve(build_theta_sdp(template, objective))


def test_two_level_sets_close_at_level_one():
    for ps in [
        corpus.cube(2),
        corpus.cross_polytope(2),
        corpus.simplex(3),
        corpus.tri3(),
        corpus.cube(3),
    ]:
        for f in facets(ps):
            best = max(
                sum(c * x for c, x in zip(f.normal, p)) for p in ps.points
            )
            sol = level_one_max(ps, f.normal)
            assert sol.status in ("Optimal", "NearOptimal")
            assert abs(sol.objective - float(best)) <= 1e-4, (f.normal, sol.objective)


def test_three_level_set_strictly_relaxed_at_level_one():
    ps = corpus.quad4()
    gaps = []
    for f in facets(ps):
        best = max(sum(c * x for c, x in zip(f.normal, p)) for p in ps.points)
        sol = level_one_max(ps, f.normal)
        gaps.append(sol.objective - float(best))
        assert sol.objective >= float(best) - 1e-6  # relaxation never cuts off
    assert max(gaps) > 1e-3  # some facet direction escapes the hull


# ---------------------------------------------------------------- properties

@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-4, max_value=4),
            st.integers(min_value=-4, max_value=4),
        ),
        min_size=2,
        max_size=9,
        unique=True,
    )
)
def test_facets_contain_all_points(pts):
    try:
        fs = facets(pts)
    except InputError:
        return
    for f in fs:
        for p in pts:
            assert sum(c * x for c, x in zip(f.normal, p)) <= f.offset
    # every point is either a vertex or inside; vertices match the float oracle
    if affine_dimension(pts) == 2:
        coords = [[float(c) for c in p] for p in pts]
        assert len(fs) == oracles.hull_facet_count(coords)


@given(
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
        min_size=4,
        max_size=8,
        unique=True,
    )
)
def test_zero_one_rank_bound_at_most_dimension(pts):
    d = affine_dimension(pts)
    if d < 1:
        return
    assert is_exact(pts).rank_bound <= max(d, 1)
