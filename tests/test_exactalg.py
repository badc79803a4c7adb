"""Tests for exact monomial algebra and Buchberger-Moller quotient rings."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import corpus
import oracles
from thetabody.errors import InputError
from thetabody.exactalg import (
    Monomial,
    PointSet,
    QuotientRing,
    _invert_rational_matrix,
    buchberger_moller,
    display_key,
    format_rational,
    grevlex_key,
    nullspace,
    parse_monomial,
    parse_polynomial,
    parse_rational,
)
from thetabody.geomexact import facets
from thetabody.quadrics import quadric_space_from_points


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
    xi = ring.evaluate_basis(3)  # the point (2, 2)
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
    b2 = [str(ring.basis[i]) for i in ring.indices_up_to_degree(2)]
    assert b2 == ["1", "x1", "x2", "x1^2", "x1*x2", "x2^2"]
    b4 = [str(ring.basis[i]) for i in ring.indices_up_to_degree(4)]
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
        rows = ring.indices_up_to_degree(2)
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
    rows = ring.indices_up_to_degree(2)
    for i in rows:
        for j in rows:
            bound = ring.degrees[i] + ring.degrees[j]
            assert all(ring.degrees[l] <= bound for l in ring.product_normal_form(i, j))


def test_evaluate_basis_matches_matrix_rows():
    ring = buchberger_moller(corpus.quad4())
    for s in range(len(ring.points)):
        assert ring.evaluate_basis(s) == ring.eval_matrix[s]
    with pytest.raises(InputError):
        ring.evaluate_basis(99)


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
    rng = random.Random(11)
    a = _random_rational_matrix(rng, 5, 5)
    inv = _invert_rational_matrix(a)
    product = [[sum(inv[i][k] * a[k][j] for k in range(5)) for j in range(5)] for i in range(5)]
    assert product == [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
    singular = a[:4] + [[x - 3 * y for x, y in zip(a[0], a[2])]]
    with pytest.raises(InputError):
        _invert_rational_matrix(singular)


def test_point_set_coerce_forms():
    ps = PointSet(2, [(0, 0), (1, 0), (0, 1)])
    assert PointSet.coerce(ps) is ps
    assert PointSet.coerce(ps.to_json()) == ps
    assert PointSet.coerce([[0, 0], [1, 0], [0, 1]]) == ps


@pytest.mark.parametrize("entry", [buchberger_moller, quadric_space_from_points, facets])
def test_empty_point_list_is_input_error(entry):
    with pytest.raises(InputError):
        entry([])
