"""Tests for exact monomial algebra and Buchberger-Moller quotient rings."""

from __future__ import annotations

import ast
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import corpus
import oracles
from thetabody import exactalg
from thetabody.errors import InputError, ResourceLimitError
from thetabody.exactalg import (
    MAX_BM_POINTS,
    Monomial,
    PointSet,
    QuotientRing,
    _Elimination,
    buchberger_moller,
    display_key,
    format_rational,
    grevlex_key,
    nullspace,
    parse_monomial,
    parse_polynomial,
    parse_rational,
    rational_rref,
    to_float,
)
from thetabody.combopt import Graph, cut_theta, parse_weights, stable_set_theta
from thetabody.geomexact import (
    FacetInequality,
    FacetVertexReport,
    classify_01,
    down_closed_analysis,
    facet_vertex_report,
    facets,
    is_exact,
)
from thetabody.momentsdp import SdpProblem, build_moment_template
from thetabody.options import SolverOptions
from thetabody.quadrics import (
    MembershipReport,
    Quadric,
    has_convex_quadric,
    quadric_space_from_generators,
    quadric_space_from_points,
    th1_membership,
)


def mono(*exps):
    return Monomial(tuple(exps))


# ---------------------------------------------------------------- rationals

def test_rational_round_trip():
    for text in ["0", "7", "-3", "1/2", "-22/7"]:
        assert format_rational(parse_rational(text)) == text
    assert parse_rational("0.5") == Fraction(1, 2)
    assert parse_rational(3) == Fraction(3)


def test_rational_rejects_garbage():
    with pytest.raises(InputError):
        parse_rational("1/0")
    with pytest.raises(InputError):
        parse_rational("one half")
    with pytest.raises(InputError):
        parse_rational(1.5)  # floats are ambiguous; must be given as strings
    with pytest.raises(InputError):
        parse_rational(True)  # a bool is an int to Python, not a number to JSON
    with pytest.raises(InputError, match=r"^10000000000000000000\.\.\.\(401 characters\) lies beyond"):
        to_float("1e400")


# ---------------------------------------------------------------- integers

P3 = Graph(3, [(1, 2), (2, 3)])
C5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])

# Integers given as numbers to the library, each in a form the one rule
# (exactalg.parse_integer) refuses: int() truncated 2.5 and read True as 1.
NOT_INTEGERS = {
    "point-set-dim": lambda: PointSet(2.5, [[0, 0], [1, 0], [0, 1]]),
    "point-set-bool-dim": lambda: PointSet(True, [[0], [1]]),
    "graph-n": lambda: Graph(2.7, [(1, 2)]),
    "graph-endpoint": lambda: Graph(3, [(1.9, 2)]),
    "generators-dim": lambda: quadric_space_from_generators(2.9, ["x1^2 - x1"]),
    "sdp-side": lambda: SdpProblem(2.5, 2, {(0, 0): {0: 1.0}}, {1: 1.0}, {0: 1.0}),
    "max-iter": lambda: SolverOptions(max_iter=2.5),
    "gap-tol-string": lambda: SolverOptions(gap_tol="1e-7"),
    "feas-tol-string": lambda: SolverOptions(feas_tol="1e-8"),
    "feas-tol-none": lambda: SolverOptions(feas_tol=None),
    "sdp-cell-fraction": lambda: SdpProblem(2, 2, {(0.5, 1): {1: 1.0}}, {1: 1.0}, {0: 1.0}),
    "sdp-cell-string": lambda: SdpProblem(2, 2, {("0", 1): {1: 1.0}}, {1: 1.0}, {0: 1.0}),
    "sdp-cell-bool": lambda: SdpProblem(2, 2, {(True, 1): {1: 1.0}}, {1: 1.0}, {0: 1.0}),
    "sdp-cell-col-bool": lambda: SdpProblem(2, 2, {(0, True): {1: 1.0}}, {1: 1.0}, {0: 1.0}),
    "sdp-y-index": lambda: SdpProblem(2, 2, {(0, 1): {0.5: 1.0}}, {1: 1.0}, {0: 1.0}),
    "sdp-objective-index": lambda: SdpProblem(2, 2, {(0, 1): {1: 1.0}}, {True: 1.0}, {0: 1.0}),
    "sdp-fixed-index": lambda: SdpProblem(2, 2, {(0, 1): {1: 1.0}}, {1: 1.0}, {"0": 1.0}),
    "stable-level": lambda: stable_set_theta(C5, 1.5),
    "cut-level": lambda: cut_theta(C5, None, 1.5),
    "stable-cap": lambda: stable_set_theta(C5, 1, cap=2.5),
    "cut-cap": lambda: cut_theta(C5, None, 1, cap=2.5),
    "moment-level": lambda: build_moment_template(buchberger_moller(corpus.quad4()), 1.5),
    "classify-dim": lambda: classify_01(2.5),
    "weights-key": lambda: parse_weights({(1.5, 2): 1, (2, 3): 1}, P3),
    "monomial-index": lambda: parse_monomial("x1_0", 10),
}


@pytest.mark.parametrize("call", NOT_INTEGERS.values(), ids=NOT_INTEGERS)
def test_library_refuses_non_integers(call):
    with pytest.raises(InputError):
        call()


def test_numpy_integers_are_integers():
    i = np.int64
    assert PointSet(i(2), [[0, 0]]).dim == 2
    assert Graph(i(3), [(i(1), i(2))]) == Graph(3, [(1, 2)])
    assert quadric_space_from_generators(i(2), ["x1^2 - x1"]).ambient_dim == 2
    assert SdpProblem(i(1), i(1), {(0, 0): {0: 1.0}}, {}, {0: 1.0}).side == 1
    assert SolverOptions(max_iter=i(5)).max_iter == 5
    assert stable_set_theta(C5, i(1)).value == pytest.approx(math.sqrt(5), abs=1e-6)
    assert parse_weights({(i(1), i(2)): 1, (2, i(3)): 2}, P3) == [1, 2]
    assert exactalg.parse_integer(2.0, "n") == 2 and exactalg.parse_decimal("-7", "n") == -7


# ---------------------------------------------------------------- monomials

def test_monomial_basics():
    m = mono(1, 2, 0)
    assert m.degree == 3
    assert str(m) == "x1*x2^2"
    assert str(mono(0, 0)) == "1"
    assert m * mono(1, 0, 1) == mono(2, 2, 1)
    assert mono(1, 0).divides(mono(2, 1))
    assert not mono(1, 1).divides(mono(2, 0))
    assert m.evaluate((Fraction(2), Fraction(1, 2), Fraction(5))) == Fraction(1, 2)


@pytest.mark.parametrize(
    "make, fields",
    [
        (lambda: mono(1, 0, 2), ((1, 0, 2),)),
        (lambda: Graph(3, [(2, 1), (3, 2)]), (3, ((1, 2), (2, 3)))),
        (lambda: FacetInequality((1, 0), Fraction(1), (Fraction(0), Fraction(1)), (1,)),
         ((1, 0), Fraction(1), (Fraction(0), Fraction(1)), (1,))),
        (lambda: Quadric(((Fraction(1),),), (Fraction(0),), Fraction(-1)),
         (((Fraction(1),),), (Fraction(0),), Fraction(-1))),
    ],
    ids=["Monomial", "Graph", "FacetInequality", "Quadric"],
)
def test_value_types_are_immutable_and_hash_as_their_fields(make, fields):
    """Equal values of one class compare equal and hash as the tuple of
    their fields, which fixes the iteration order of sets of them."""
    value = make()
    assert value == make() and hash(value) == hash(fields)
    assert value != fields
    name = next(iter(vars(value)))
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert value == make()


def _theta_c5():
    return stable_set_theta(Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]), 1)


SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]
DOWN_CLOSED_KEYS = {
    "cliqueFacets", "downClosed", "exact", "facetFormsOk", "fullDimensional", "graph", "is01",
    "matchesStableSets", "rankBound", "witness"}

# to_json keys of each result type, written down before the types shared
# exactalg._Record, with one result made by the code that returns it
REPORT_KEYS = {
    "ThetaResult": (_theta_c5, {
        "groupComplete", "groupOrder", "kind", "level", "matrixSide", "status", "value", "x",
        "yDim", "yOrbits"}),
    "SdpSolution": (lambda: _theta_c5().solution, {
        "certificate", "dualityGap", "iterations", "minEig", "objective", "status", "y"}),
    "MomentTemplate": (lambda: _theta_c5().template, {"cells", "level", "rows", "y"}),
    "ExactnessReport": (lambda: is_exact(SQUARE + [(2, 0)]), {
        "affineDim", "exact", "facetCount", "facets", "failingFacet", "rankBound"}),
    "FacetVertexReport": (lambda: facet_vertex_report(SQUARE), {
        "affineDim", "bound", "exact", "facetCount", "vertexCount", "withinBounds"}),
    "ZeroOneClass": (lambda: classify_01(2)[0], {
        "dim", "exact", "facetCount", "orbitCount", "rankBound", "representative", "size",
        "subsetCount", "vertexCount"}),
    "DownClosedReport": (
        lambda: down_closed_analysis([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]), DOWN_CLOSED_KEYS),
    "DownClosedReport-witness": (lambda: down_closed_analysis([(0, 0), (1, 1)]), DOWN_CLOSED_KEYS),
    "ConvexQuadricReport": (lambda: has_convex_quadric(quadric_space_from_points(SQUARE)), {
        "certificate", "definite", "detail", "exists", "extremes", "interval", "margin", "status",
        "verified"}),
    "MembershipReport": (lambda: th1_membership(quadric_space_from_points(SQUARE), (2, 2)), {
        "certificate", "detail", "ray", "solverStatus", "status", "supremum"}),
}


@pytest.mark.parametrize("make, keys", REPORT_KEYS.values(), ids=REPORT_KEYS)
def test_report_keys_are_pinned_and_serialize(make, keys):
    out = make().to_json()
    assert set(out) == keys
    json.dumps(out, allow_nan=False)


def test_record_rejects_unknown_repeated_and_missing_fields():
    report = MembershipReport("Inside", detail="nothing separates")
    assert (report.status, report.supremum, report.ray) == ("Inside", None, None)
    with pytest.raises(TypeError, match="unknown or repeated field 'supremem'"):
        MembershipReport(status="Inside", detail="", supremem=1.0)
    with pytest.raises(TypeError, match="unknown or repeated field 'status'"):
        MembershipReport("Inside", "", status="Outside")
    with pytest.raises(TypeError, match="needs the field 'detail'"):
        MembershipReport(status="Inside")
    with pytest.raises(TypeError, match="has 6 fields, got 7 arguments"):
        MembershipReport(*range(7))
    with pytest.raises(TypeError, match="needs the field 'within_bounds'"):
        FacetVertexReport(affine_dim=2, facet_count=4, vertex_count=4, bound=4, exact=True)


def test_monomial_str_parse_round_trip():
    for exps in itertools.product(range(4), repeat=3):
        m = mono(*exps)
        assert parse_monomial(str(m), 3) == m


def test_grevlex_order_degree_two():
    # ascending: x2^2 < x1*x2 < x1^2
    ordered = sorted([mono(2, 0), mono(0, 2), mono(1, 1)], key=grevlex_key)
    assert ordered == [mono(0, 2), mono(1, 1), mono(2, 0)]


def test_grevlex_tie_break_uses_last_nonzero():
    # deg 3 in three variables: x1*x3^2 vs x2^3 -> difference (1,-3,2), last
    # nonzero positive, so x1*x3^2 is smaller
    assert grevlex_key(mono(1, 0, 2)) < grevlex_key(mono(0, 3, 0))


def test_display_order_is_degrevlex_descending_within_degree():
    monos = [mono(0, 2), mono(2, 0), mono(1, 1), mono(1, 0), mono(0, 1), mono(0, 0)]
    ordered = sorted(monos, key=display_key)
    assert [str(m) for m in ordered] == ["1", "x1", "x2", "x1^2", "x1*x2", "x2^2"]


# ---------------------------------------------------------------- point sets

def test_point_set_validation():
    with pytest.raises(InputError):
        PointSet(2, [(0, 0), (0, 0)])  # duplicates rejected, not merged
    with pytest.raises(InputError):
        PointSet(2, [(0, 0, 1)])
    with pytest.raises(InputError):
        PointSet(2, [])
    with pytest.raises(InputError):
        PointSet(0, [()])


def test_point_set_rejects_string_rows():
    # iterating "12" would give the point (1, 2)
    with pytest.raises(InputError, match="string"):
        PointSet(2, ["12", "30", "03"])
    with pytest.raises(InputError, match="string"):
        PointSet.from_json({"dim": 2, "points": [[0, 0], "12"]})
    with pytest.raises(InputError, match="string"):
        PointSet.coerce(["12", "30"])
    assert PointSet(2, [["1/2", "3"]]).points == ((Fraction(1, 2), Fraction(3)),)


def test_point_set_json_round_trip():
    ps = PointSet(2, [("1/2", "-3"), ("0", "7/5")])
    again = PointSet.from_json(ps.to_json())
    assert again == ps
    assert ps.to_json()["points"][0] == ["1/2", "-3"]


# ------------------------------------------------------- Buchberger-Moller

def test_two_point_line():
    ring = buchberger_moller(corpus.segment01())
    assert [str(m) for m in ring.basis] == ["1", "x1"]
    nf = ring.normal_form({mono(2): 1})
    assert nf == {1: Fraction(1)}  # x^2 == x on {0,1}


def test_point_cap_refuses_before_elimination():
    cube6 = corpus.cube(6)  # exactly MAX_BM_POINTS points
    assert len(buchberger_moller(cube6).basis) == MAX_BM_POINTS == 64
    with pytest.raises(ResourceLimitError):
        buchberger_moller(PointSet(6, list(cube6.points) + [(2, 0, 0, 0, 0, 0)]))


def test_three_point_triangle():
    ring = buchberger_moller(corpus.tri3())
    assert [str(m) for m in ring.basis] == ["1", "x1", "x2"]
    assert ring.normal_form({mono(2, 0): 1}) == {1: Fraction(1)}
    assert ring.normal_form({mono(0, 2): 1}) == {2: Fraction(1)}
    assert ring.normal_form({mono(1, 1): 1}) == {}
    # (x1*x2)^2 also reduces to 0
    assert ring.normal_form({mono(2, 2): 1}) == {}


def test_quad4_basis_and_xi():
    ring = buchberger_moller(corpus.quad4())
    assert [str(m) for m in ring.basis] == ["1", "x1", "x2", "x2^2"]
    xi = [m.evaluate(ring.points.points[3]) for m in ring.basis]  # the point (2, 2)
    assert xi == [Fraction(1), Fraction(2), Fraction(2), Fraction(4)]


def test_stable_set_ring_basis_is_stable_set_monomials():
    # path on three vertices: stable sets are {}, {1}, {2}, {3}, {1,3}
    pts = corpus.stable_set_points(3, corpus.path_edges(3))
    ring = buchberger_moller(pts)
    assert [str(m) for m in ring.basis] == ["1", "x1", "x2", "x3", "x1*x3"]
    # squarefree reduction and edge vanishing
    assert ring.normal_form({mono(2, 0, 0): 1}) == {1: Fraction(1)}
    assert ring.normal_form({mono(1, 1, 0): 1}) == {}


def test_curve14_low_degree_basis():
    ring = buchberger_moller(corpus.curve14())
    b2 = [str(m) for m, d in zip(ring.basis, ring.degrees) if d <= 2]
    assert b2 == ["1", "x1", "x2", "x1^2", "x1*x2", "x2^2"]
    b4 = [str(m) for m, d in zip(ring.basis, ring.degrees) if d <= 4]
    assert b4 == [
        "1", "x1", "x2",
        "x1^2", "x1*x2", "x2^2",
        "x1^3", "x1*x2^2", "x2^3",
        "x1^4", "x1*x2^3", "x2^4",
    ]
    assert len(ring) == 14
    # x1^2*x2 = 1 on the curve, hence x1^2*x2 is a leading term
    assert ring.normal_form({mono(2, 1): 1}) == {0: Fraction(1)}


def test_agrees_with_sympy_rref_oracle():
    cases = [
        corpus.segment01(),
        corpus.tri3(),
        corpus.quad4(),
        corpus.curve14(),
        PointSet(2, [(1, 2), (3, 4), (5, 6), (7, 8), (2, 1)]),
        PointSet(3, [(0, 0, 0), (1, 1, 1), (2, 4, 8), (3, 9, 27)]),
    ]
    for ps in cases:
        ring = buchberger_moller(ps)
        expected = oracles.standard_monomials_rref(ps.points, ps.dim)
        assert sorted(m.exponents for m in ring.basis) == sorted(expected)


def test_basis_is_order_ideal_and_contains_unit():
    for ps in [corpus.quad4(), corpus.curve14(), corpus.cross_polytope(3)]:
        ring = buchberger_moller(ps)
        members = set(ring.basis)
        assert Monomial.unit(ps.dim) in members
        for m in ring.basis:
            for i in range(ps.dim):
                if m.exponents[i]:
                    exps = list(m.exponents)
                    exps[i] -= 1
                    assert Monomial(tuple(exps)) in members
        # reporting order: degrees never decrease
        assert ring.degrees == sorted(ring.degrees)


def _random_point_sets():
    coord = st.fractions(
        min_value=-4, max_value=4, max_denominator=3
    )
    def build(dim, rows):
        distinct = []
        for row in rows:
            if tuple(row) not in {tuple(r) for r in distinct}:
                distinct.append(tuple(row))
        return distinct
    return st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.lists(
            st.tuples(*[coord] * d), min_size=1, max_size=6, unique=True
        ).map(lambda rows: PointSet(d, rows))
    )


@given(_random_point_sets())
def test_property_basis_size_and_vanishing(ps):
    ring = buchberger_moller(ps)
    assert len(ring) == len(ps)
    # NF(f) - f vanishes on every point, exactly
    f = {
        Monomial(tuple(min(i, 2) for i in range(ps.dim))): Fraction(3, 2),
        Monomial.unit(ps.dim): Fraction(-1),
        Monomial(tuple(2 if j == 0 else 0 for j in range(ps.dim))): Fraction(5),
    }
    nf = ring.normal_form(f)
    for s, point in enumerate(ps.points):
        direct = sum(c * m.evaluate(point) for m, c in f.items())
        via_basis = sum(c * ring.basis[l].evaluate(point) for l, c in nf.items())
        assert direct == via_basis


@given(_random_point_sets())
def test_property_normal_form_idempotent(ps):
    ring = buchberger_moller(ps)
    f = {Monomial(tuple(1 for _ in range(ps.dim))): Fraction(2, 3)}
    nf = ring.normal_form(f)
    back = ring.normal_form({ring.basis[l]: c for l, c in nf.items()})
    assert back == nf


def test_mul_table_matches_explicit_normal_form():
    for ps in [corpus.quad4(), corpus.curve14(), corpus.tri3()]:
        ring = buchberger_moller(ps)
        rows = [i for i, d in enumerate(ring.degrees) if d <= 2]
        for i in rows:
            for j in rows:
                if i > j:
                    continue
                product = ring.basis[i] * ring.basis[j]
                assert ring.product_normal_form(i, j) == ring.normal_form(
                    {product: 1}
                )


def test_mul_table_respects_degree_bound():
    ring = buchberger_moller(corpus.curve14())
    rows = [i for i, d in enumerate(ring.degrees) if d <= 2]
    for i in rows:
        for j in rows:
            bound = ring.degrees[i] + ring.degrees[j]
            assert all(ring.degrees[l] <= bound for l in ring.product_normal_form(i, j))


def test_coordinate_relabeling_keeps_basis_size():
    # spot check: reflecting/permuting coordinates changes the basis but not
    # its size or degree profile
    base = corpus.quad4()
    swapped = PointSet(2, [(b, a) for a, b in base.points])
    r1 = buchberger_moller(base)
    r2 = buchberger_moller(swapped)
    assert sorted(r1.degrees) == sorted(r2.degrees)


def test_parse_polynomial_basic():
    poly = parse_polynomial("x1^2 - 3/2*x1*x2 + 1", 2)
    assert poly == {
        Monomial((2, 0)): Fraction(1),
        Monomial((1, 1)): Fraction(-3, 2),
        Monomial((0, 0)): Fraction(1),
    }


def test_parse_polynomial_merges_and_drops_zeros():
    assert parse_polynomial("2 - x1 + x1", 2) == {Monomial((0, 0)): Fraction(2)}
    assert parse_polynomial("x1 - x1", 2) == {}
    assert parse_polynomial("-x2", 2) == {Monomial((0, 1)): Fraction(-1)}
    # decimal strings are exact rationals
    assert parse_polynomial("1.5*x1", 2) == {Monomial((1, 0)): Fraction(3, 2)}


def test_parse_polynomial_rejects_garbage():
    for bad in ("", "x1 +", "x1 ** 2", "x3", "3x1", "x1^", "* x1"):
        with pytest.raises(InputError):
            parse_polynomial(bad, 2)


# ------------------------------------------------------ exact linear algebra


def _random_rational_matrix(rng, rows, cols):
    return [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_nullspace_matches_sympy():
    import sympy

    rng = random.Random(7)
    cases = [_random_rational_matrix(rng, r, c) for r, c in [(1, 4), (2, 5), (3, 6), (4, 4)]]
    dependent = _random_rational_matrix(rng, 2, 6)
    dependent.append([a + 2 * b for a, b in zip(*dependent)])
    cases.append(dependent)
    cases.append([[Fraction(0)] * 4 for _ in range(3)])  # all-zero rows
    cases.append([[1, 0, 0], [0, 2, 0], [0, 0, 3], [1, 1, 1]])  # full column rank
    for rows in cases:
        width = len(rows[0])
        basis = nullspace(rows, width)
        for vec in basis:
            assert len(vec) == width
            assert all(sum(Fraction(a) * x for a, x in zip(row, vec)) == 0 for row in rows)
        expected = sympy.Matrix(rows).nullspace()
        assert len(basis) == len(expected)
        if basis:
            ours = [[sympy.Rational(x.numerator, x.denominator) for x in v] for v in basis]
            theirs = [list(v) for v in expected]
            assert sympy.Matrix(ours).rank() == len(basis)
            assert sympy.Matrix(ours + theirs).rank() == len(basis)
    assert nullspace([], 3) == [
        [Fraction(int(i == j)) for j in range(3)] for i in range(3)
    ]


def test_invert_rational_matrix():
    """At full rank the elimination's combos are the exact inverse of the
    matrix whose rows it kept; a dependent row is not kept."""
    rng = random.Random(11)
    a = _random_rational_matrix(rng, 5, 5)
    elim = _Elimination()
    assert all(elim.add(*exactalg._over_lcm(row)) for row in a)
    # inverse() holds the combos transposed: inv[k][i] is combo k of row i
    inv = [[Fraction(v, den) for v in ints] for ints, den in elim.inverse()]
    product = [[sum(inv[k][i] * a[k][j] for k in range(5)) for j in range(5)] for i in range(5)]
    assert product == [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
    singular = a[:4] + [[x - 3 * y for x, y in zip(a[0], a[2])]]
    elim = _Elimination()
    assert [elim.add(*exactalg._over_lcm(row)) for row in singular] == [True] * 4 + [False]
    assert len(elim.rows) == 4


def test_rational_rref_matches_sympy():
    import sympy

    rng = random.Random(23)
    cases = []
    for rows, cols in [(1, 1), (2, 7), (3, 3), (5, 5), (7, 3), (9, 4), (4, 9), (6, 6)]:
        for _ in range(4):
            m = _random_rational_matrix(rng, rows, cols)
            for r in range(rows):
                roll = rng.random()
                if roll < 0.15:
                    m[r] = [Fraction(0)] * cols  # a zero row
                elif roll < 0.3 and r:
                    m[r] = list(m[rng.randrange(r)])  # a duplicate row
                elif roll < 0.45:
                    m[r] = [v if rng.random() < 0.4 else Fraction(0) for v in m[r]]
            cases.append(m)
    for m in cases:
        reduced, pivots = rational_rref(m)
        expected, expected_pivots = sympy.Matrix(m).rref()
        assert pivots == list(expected_pivots)
        theirs = [
            [Fraction(int(v.p), int(v.q)) for v in expected.row(r)]
            for r in range(len(expected_pivots))
        ]
        assert reduced == theirs


def _random_small_point_set(rng):
    dim = rng.randint(1, 3)
    pts = {
        tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim))
        for _ in range(rng.randint(1, 20))
    }
    return PointSet(dim, sorted(pts))


@pytest.mark.parametrize(
    "ps",
    [corpus.segment01(), corpus.tri3(), corpus.quad4(), corpus.curve14(),
     corpus.cube(3), corpus.cross_polytope(3), corpus.simplex(4),
     corpus.hypersimplex_2_4()]
    + [_random_small_point_set(random.Random(seed)) for seed in range(12)],
)
def test_ring_inverse_inverts_eval_matrix(ps):
    ring = buchberger_moller(ps)
    n = len(ps)
    inverse = [[Fraction(v, den) for v in row] for row, den in ring._inverse]
    evaluations = [[m.evaluate(p) for m in ring.basis] for p in ps.points]
    product = [
        [sum(inverse[l][s] * evaluations[s][j] for s in range(n))
         for j in range(n)]
        for l in range(n)
    ]
    assert product == [[int(l == j) for j in range(n)] for l in range(n)]


def test_point_set_coerce_forms():
    ps = PointSet(2, [(0, 0), (1, 0), (0, 1)])
    assert PointSet.coerce(ps) is ps
    assert PointSet.coerce(ps.to_json()) == ps
    assert PointSet.coerce([[0, 0], [1, 0], [0, 1]]) == ps


@pytest.mark.parametrize("entry", [buchberger_moller, quadric_space_from_points, facets])
def test_empty_point_list_is_input_error(entry):
    with pytest.raises(InputError):
        entry([])


# ------------------------------------------- integer core against Fractions

class _FractionElimination:
    """The elimination done entry by entry in Fractions: the reference."""

    def __init__(self):
        self.rows, self.pivots, self.combos = [], [], []

    def add(self, vector):
        vec = [Fraction(v) for v in vector]
        combo = [Fraction(0)] * len(self.rows) + [Fraction(1)]
        for row, c, p in zip(self.rows, self.combos, self.pivots):
            f = vec[p]
            vec = [v - f * w for v, w in zip(vec, row)]
            combo = [a - f * b for a, b in zip(combo, c + [Fraction(0)])]
        pivot = next((j for j, v in enumerate(vec) if v), None)
        if pivot is None:
            return False
        vec, combo = [v / vec[pivot] for v in vec], [a / vec[pivot] for a in combo]
        for i, (row, c) in enumerate(zip(self.rows, self.combos)):
            g = row[pivot]
            self.rows[i] = [v - g * w for v, w in zip(row, vec)]
            self.combos[i] = [a - g * b for a, b in zip(c + [Fraction(0)], combo)]
        at = sum(1 for p in self.pivots if p < pivot)
        self.rows.insert(at, vec)
        self.pivots.insert(at, pivot)
        self.combos.insert(at, combo)
        return True


def _is_canonical(value):
    return (type(value) is Fraction and value.denominator > 0
            and math.gcd(value.numerator, value.denominator) == 1)


def _awkward_matrix(rng):
    """Rows of every kind the exact layers feed the elimination."""
    cols = rng.randint(1, 7)
    big = 10**rng.randint(6, 30)
    kinds = [
        lambda: [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols)],
        lambda: [rng.randint(-5, 5) for _ in range(cols)],
        lambda: [Fraction(0)] * cols,
        lambda: [Fraction(rng.randint(-big, big), rng.randint(1, big)) for _ in range(cols)],
        lambda: [0] * rng.randrange(cols) + [Fraction(-rng.randint(1, 7), 3)],
    ]
    rows = [rng.choice(kinds)() for _ in range(rng.randint(1, 9))]
    for _ in range(rng.randint(0, 3)):  # duplicates and combinations of earlier rows
        a, b = rng.choice(rows), rng.choice(rows)
        rows.insert(rng.randint(0, len(rows)),
                    list(a) if rng.random() < 0.5 else [x - 3 * y for x, y in zip(a, b)])
    return [row[:cols] + [0] * (cols - len(row)) for row in rows]


@pytest.mark.parametrize("seed", range(80))
def test_integer_elimination_matches_fraction_reference(seed):
    rng = random.Random(seed)
    ours, ref = _Elimination(), _FractionElimination()
    for row in _awkward_matrix(rng):
        # ints and den with a common factor, as Buchberger-Moller passes them
        ints, den = exactalg._over_lcm(row)
        factor = rng.choice([1, 2, 6, 35, 3**40])
        assert ours.add([v * factor for v in ints], den * factor) == ref.add(row)
        assert ours.pivots == ref.pivots
        assert ours.rows == ref.rows
        assert all(_is_canonical(v) for part in ours.rows for v in part)
        # the combos transposed, each over the lcm of its entries' denominators
        assert ours.inverse() == [exactalg._over_lcm(col) for col in zip(*ref.combos)]


@pytest.mark.parametrize("seed", range(8))
def test_integer_normal_forms_match_fraction_reference(seed):
    ps = _random_small_point_set(random.Random(100 + seed))
    ring = buchberger_moller(ps)
    n = len(ps)
    evaluations = [[m.evaluate(p) for m in ring.basis] for p in ps.points]
    # E^-1 from the Fraction reference: combos of the rows of E^T
    ref = _FractionElimination()
    for l in range(n):
        assert ref.add([evaluations[s][l] for s in range(n)])
    inverse = [[ref.combos[s][l] for s in range(n)] for l in range(n)]

    def reference_nf(values):
        out = {l: sum((w * v for w, v in zip(row, values)), Fraction(0))
               for l, row in enumerate(inverse)}
        return {l: c for l, c in out.items() if c}

    for i in range(n):
        for j in range(i, n):
            got = ring.product_normal_form(i, j)
            column = [evaluations[s][i] * evaluations[s][j] for s in range(n)]
            assert got == reference_nf(column)
            assert all(_is_canonical(v) for v in got.values())
    rng = random.Random(seed)
    for _ in range(5):
        values = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n)]
        ints, den = exactalg._over_lcm(values)
        got = ring._interpolate(ints, den)
        assert got == reference_nf(values)
        assert all(_is_canonical(v) for v in got.values())
        poly = {mono(*(rng.randint(0, 3) for _ in range(ps.dim))): values[0]}
        expected = reference_nf([sum(c * m.evaluate(p) for m, c in poly.items())
                                 for p in ps.points])
        assert ring.normal_form(poly) == expected


def _evaluation_sets():
    """Sets with mixed denominators, negative and zero coordinates, and (the
    last three) a coordinate constant on S."""
    f = Fraction
    sets = [
        PointSet(2, [(f(1, 2), -3), (0, f(2, 3)), (f(-5, 7), 0), (3, f(1, 4)), (0, 0)]),
        PointSet(3, [(f(-1, 6), f(4, 9), 0), (f(5, 4), 0, f(-7, 10)), (0, 0, 0),
                     (1, f(-1, 15), f(2, 21)), (f(-3, 8), f(3, 8), 1)]),
        PointSet(2, [(f(3, 5), f(-2, 3)), (f(-1, 10), f(-2, 3)), (4, f(-2, 3))]),
        PointSet(3, [(0, f(1, 4), f(5, 6)), (f(-2, 9), 0, f(5, 6)), (1, -1, f(5, 6)),
                     (f(7, 3), f(1, 2), f(5, 6))]),
    ]
    rng = random.Random(31)
    for _ in range(6):
        dim = rng.randint(2, 4)
        constant = Fraction(rng.randint(-4, 4), rng.randint(1, 12))
        pts = {
            tuple(rng.choice([Fraction(0), Fraction(rng.randint(-9, 9), rng.randint(1, 12))])
                  for _ in range(dim - 1)) + (constant,)
            for _ in range(rng.randint(2, 12))
        }
        sets.append(PointSet(dim, sorted(pts)))
    return sets


@pytest.mark.parametrize("ps", _evaluation_sets())
def test_integer_evaluation_matches_monomial_evaluate(ps):
    from thetabody.quadrics import _deg2_monomials

    ring = buchberger_moller(ps)
    columns = [[Fraction(v, den) for v in col] for col, den in ring._columns]
    assert [list(row) for row in zip(*columns)] == [
        [m.evaluate(p) for m in ring.basis] for p in ps.points]
    assert all(_is_canonical(v) for col in columns for v in col)
    monos = _deg2_monomials(ps.dim)
    rows = [[m.evaluate(p) for m in monos] for p in ps.points]
    assert quadric_space_from_points(ps).vectors == rational_rref(nullspace(rows, len(monos)))[0]


@pytest.mark.parametrize("ps", _evaluation_sets())
def test_normal_form_matches_fraction_reference(ps):
    ring = buchberger_moller(ps)
    n, rng = len(ps), random.Random(len(ps))
    ref = _FractionElimination()
    for l in range(n):
        assert ref.add([ring.basis[l].evaluate(p) for p in ps.points])
    inverse = [[ref.combos[s][l] for s in range(n)] for l in range(n)]

    def reference_nf(poly):
        values = [sum((c * m.evaluate(p) for m, c in poly.items()), Fraction(0))
                  for p in ps.points]
        out = {l: sum((w * v for w, v in zip(row, values)), Fraction(0))
               for l, row in enumerate(inverse)}
        return {l: c for l, c in out.items() if c}

    outside = [m for m in map(Monomial, itertools.product(range(4), repeat=ps.dim))
               if ring.basis_index(m) is None]
    for _ in range(6):
        # basis and non-basis monomials, and always a constant
        poly = {m: Fraction(rng.randint(-9, 9), rng.randint(1, 8))
                for m in rng.sample(ring.basis, rng.randint(0, n)) + rng.sample(outside, 2)}
        poly[Monomial.unit(ps.dim)] = Fraction(rng.randint(1, 9), rng.randint(1, 8))
        got = ring.normal_form(poly)
        assert got == reference_nf(poly)
        assert list(got) == sorted(got) and all(_is_canonical(v) for v in got.values())
    # m minus its normal form: every term cancels, or only the basis part stays
    for m in outside[:3]:
        poly = {m: Fraction(3, 7)}
        poly.update({ring.basis[l]: -c for l, c in reference_nf(poly).items()})
        assert ring.normal_form(poly) == {}
        poly[ring.basis[-1]] = poly.get(ring.basis[-1], 0) + 2
        assert ring.normal_form(poly) == reference_nf(poly) == {n - 1: Fraction(2)}


# ------------------------------------------------------------------- input

def _file_reads(tree):
    """(innermost enclosing function or None, line) of every call to open or
    to a read_text or read_bytes method."""
    reads = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = child.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if name in ("open", "read_text", "read_bytes"):
                    reads.append((function, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else function)

    visit(tree, None)
    return reads


def test_read_file_is_the_one_reader():
    """No module opens a file but exactalg.read_file, so each input is read
    once and its digest is of the bytes that were parsed."""
    found = [
        (path.stem, function, line)
        for path in sorted(Path(exactalg.__file__).parent.glob("*.py"))
        for function, line in _file_reads(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert [place[:2] for place in found] == [("exactalg", "read_file")], found
