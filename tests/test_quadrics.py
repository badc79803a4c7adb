"""Tests for quadric slices, convex-quadric certificates, and membership."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

import corpus
import thetabody.momentsdp as momentsdp
import thetabody.quadrics as quadrics
from thetabody.errors import InputError, ResourceLimitError
from thetabody.exactalg import Monomial, _over_lcm, parse_polynomial, rational_rref
from thetabody.quadrics import (
    Quadric,
    _deg2_monomials,
    _integer_forms,
    _is_psd_exact,
    _linear_kernel,
    _monomials_at,
    _quadric,
    _trace_split,
    _values_at,
    has_convex_quadric,
    quadric_space_from_generators,
    quadric_space_from_points,
    th1_membership,
)
from thetabody.sdpsolve import SolverOptions

TIGHT = SolverOptions(gap_tol=1e-10, feas_tol=1e-10)


# ---------------------------------------------------------------- quadrics

def test_quadric_polynomial_round_trip():
    poly = parse_polynomial("x1^2 + 4*x1*x2 - 3", 2)
    q = Quadric.from_polynomial(poly, 2)
    assert q.a == ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(0)))
    assert q.b == (Fraction(0), Fraction(0))
    assert q.c == Fraction(-3)
    assert q.to_polynomial() == poly
    assert str(q) == "-3 + x1^2 + 4*x1*x2"
    assert q.evaluate((1, 1)) == Fraction(2)


def test_quadric_rejects_higher_degree_and_asymmetry():
    with pytest.raises(InputError):
        Quadric.from_polynomial({Monomial((3, 0)): 1}, 2)
    with pytest.raises(InputError):
        Quadric(((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))), (Fraction(0),) * 2, Fraction(0))


def test_exact_psd_check():
    f = Fraction
    assert _is_psd_exact([[f(2), f(1)], [f(1), f(2)]])
    assert not _is_psd_exact([[f(1), f(2)], [f(2), f(1)]])
    assert _is_psd_exact([[f(0), f(0)], [f(0), f(1)]])
    assert not _is_psd_exact([[f(0), f(1)], [f(1), f(1)]])
    assert _is_psd_exact([])


# ---------------------------------------------------------------- spaces

def test_segment_space_is_x_squared_minus_x():
    space = quadric_space_from_points(corpus.segment01())
    assert space.dimension == 1
    q = space.basis[0]
    assert str(q) in ("-x1 + x1^2", "x1 - x1^2")
    report = has_convex_quadric(space)
    assert report.exists and report.verified
    assert report.certificate.a == ((Fraction(1),),)  # exact 0-dof decision
    assert report.status == "Decided"


def test_quad4_space_structure():
    space = quadric_space_from_points(corpus.quad4())
    assert space.dimension == 2
    for coeffs in [(1, 0), (0, 1), (2, -3), ("1/2", "1/3")]:
        q = space.member(coeffs)
        a00, a11 = q.a[0][0], q.a[1][1]
        assert q.a[0][1] == -(a00 + a11) / 4
        assert q.b == (-a00, -a11)
        assert q.c == 0


def test_quad4_interval_endpoints():
    space = quadric_space_from_points(corpus.quad4())
    report = has_convex_quadric(space, TIGHT)
    assert report.exists and report.definite
    assert abs(report.margin - 0.25) <= 1e-6
    assert report.verified
    assert report.interval is not None and report.extremes is not None
    ends = sorted(float(q.a[0][0]) for q in report.extremes)
    assert abs(ends[0] - (0.5 - math.sqrt(3) / 4)) <= 1e-8
    assert abs(ends[1] - (0.5 + math.sqrt(3) / 4)) <= 1e-8
    # the extremes are on the PSD boundary: trace 1, determinant ~ 0
    for q in report.extremes:
        det = q.a[0][0] * q.a[1][1] - q.a[0][1] * q.a[1][0]
        assert abs(float(det)) <= 1e-7
        assert abs(float(q.trace()) - 1.0) <= 1e-8


def test_slice_dimension_is_capped():
    """Both entry points refuse a slice past MAX_SLICE_DIM before building
    it: one point in dimension 40 took 30 s and 79 MB without the cap."""
    cap = quadrics.MAX_SLICE_DIM
    assert quadric_space_from_generators(cap, ["x1^2 - x1"]).ambient_dim == cap
    with pytest.raises(ResourceLimitError):
        quadric_space_from_generators(cap + 1, ["x1^2 - x1"])
    with pytest.raises(ResourceLimitError):
        quadric_space_from_points([[1] * (cap + 1)])
    with pytest.raises(ResourceLimitError):
        quadric_space_from_generators(10**9, [])


def test_generators_expand_linear_by_variables():
    space = quadric_space_from_generators(2, ["x2"])
    assert space.dimension == 3  # x2, x1*x2, x2^2
    with pytest.raises(InputError):
        quadric_space_from_generators(2, ["x1^3"])
    with pytest.raises(InputError):
        quadric_space_from_generators(2, ["x1 - x1"])
    mixed = quadric_space_from_generators(
        2, [{Monomial((1, 0)): 1, Monomial((0, 0)): -1}]
    )
    assert mixed.dimension == 3  # x1 - 1 and its two variable shifts


def test_space_member_validation():
    space = quadric_space_from_points(corpus.quad4())
    with pytest.raises(InputError):
        space.member([1])
    with pytest.raises(InputError):
        th1_membership(space, (1, 2, 3))


# ---------------------------------------------------------------- existence

def test_no_convex_quadric_when_traceless():
    space = quadric_space_from_generators(2, ["x1*x2"])
    report = has_convex_quadric(space)
    assert not report.exists and report.verified
    assert report.certificate is None


def test_no_convex_quadric_indefinite_pencil():
    space = quadric_space_from_generators(2, ["x1^2 - 2*x2^2", "x1*x2"])
    report = has_convex_quadric(space)
    assert not report.exists
    assert report.margin is not None and report.margin < -0.5


def test_two_parabola_witness():
    space = quadric_space_from_generators(3, ["x1^2 - x3", "x2^2 - x3"])
    assert space.dimension == 2
    report = has_convex_quadric(space)
    assert report.exists
    assert abs(report.margin) <= 1e-6  # the pencil is singular throughout
    assert report.verified  # rounded certificate is exactly PSD


@pytest.mark.parametrize("gens, square", [(["x2"], "x2^2"), (["x1 - 1"], "-1 + x1^2")])
def test_one_point_section_is_decided(gens, square):
    # the PSD part of the trace-1 section is the single point where the
    # member is the square of the generator: no interior, yet the sweep of
    # the one-dimensional section must still end in a verdict
    report = has_convex_quadric(quadric_space_from_generators(2, gens))
    assert report.exists and report.verified
    assert str(report.certificate) == square


def test_empty_space_has_no_quadric():
    pts = [(0, 0), (1, 0), (0, 1), (2, 2), (1, 3), (3, 1)]
    space = quadric_space_from_points(pts)
    assert space.dimension == 0
    assert not has_convex_quadric(space).exists
    assert th1_membership(space, (100, 100)).status == "Inside"


def test_zero_ideal_relaxes_to_everything():
    space = quadric_space_from_generators(2, [])
    assert space.dimension == 0
    assert th1_membership(space, (1000, -1000)).status == "Inside"


# ---------------------------------------------------------------- membership

def test_segment_membership_signs():
    space = quadric_space_from_points(corpus.segment01())
    assert th1_membership(space, ("1/2",)).status == "Inside"
    assert th1_membership(space, (2,)).status == "Outside"
    assert th1_membership(space, (-1,)).status == "Outside"
    for s in ((0,), (1,)):
        assert th1_membership(space, s).status == "Borderline"
    # 0-dof path evaluates exactly
    assert th1_membership(space, ("1/2",)).supremum == -0.25


def test_quad4_membership():
    space = quadric_space_from_points(corpus.quad4())
    inside = th1_membership(space, (1, 1), TIGHT)
    assert inside.status == "Inside"
    assert abs(inside.supremum + 0.5) <= 1e-6
    for s in corpus.quad4().points:
        r = th1_membership(space, s, TIGHT)
        assert r.status in ("Borderline", "Inside")
        assert abs(r.supremum) <= 1e-6
    far = th1_membership(space, (5, 5), TIGHT)
    assert far.status == "Outside" and far.supremum > 1.0
    assert far.certificate is not None


def test_quad4_midpoints_inside():
    space = quadric_space_from_points(corpus.quad4())
    pts = corpus.quad4().points
    mid = th1_membership(space, ("1/2", "1/2"), TIGHT)
    assert mid.status == "Inside"
    assert abs(mid.supremum + 0.375) <= 1e-6  # value is alpha-independent
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            q = tuple((a + b) / 2 for a, b in zip(pts[i], pts[j]))
            assert th1_membership(space, q, TIGHT).status == "Inside"


def test_membership_scaling_invariance():
    base = corpus.quad4().points
    scaled = [tuple(3 * c for c in p) for p in base]
    space1 = quadric_space_from_points(base)
    space2 = quadric_space_from_points(scaled)
    queries = [(1, 1), (5, 5), (0, 0), ("1/2", 0)]
    for q in queries:
        s1 = th1_membership(space1, q, TIGHT).status
        s2 = th1_membership(space2, tuple(3 * Fraction(str(c)) for c in q), TIGHT).status
        assert s1 == s2, q


def test_outside_certificate_lies_in_the_ideal_exactly():
    # the even-weight points of the 4-cube: a quadric combined from rounded
    # float coefficients missed S by ~6e-10
    points = [p for p in itertools.product((0, 1), repeat=4) if sum(p) % 2 == 0]
    query = (Fraction(-1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
    report = th1_membership(quadric_space_from_points(points), query)
    assert report.status == "Outside"
    q = report.certificate
    assert all(q.evaluate(p) == 0 for p in points)
    assert _is_psd_exact(q.a)
    assert abs(float(q.evaluate(query)) - 0.75) <= 1e-6


def test_two_parabola_membership_triple():
    space = quadric_space_from_generators(3, ["x1^2 - x3", "x2^2 - x3"])
    out = th1_membership(space, (1, 0, 0))
    assert out.status == "Outside"
    assert abs(out.supremum - 1.0) <= 1e-6
    assert out.certificate is not None
    assert float(out.certificate.a[0][0]) > 0.9  # essentially x1^2 - x3
    assert th1_membership(space, (0, 0, 1)).status == "Inside"
    on_variety = th1_membership(space, (1, 1, 1))
    assert on_variety.status in ("Borderline", "Inside")
    assert abs(on_variety.supremum) <= 1e-7


def test_linear_ray_certificate():
    space = quadric_space_from_points([(0, 0), (1, 0)])
    report = th1_membership(space, (0, 1))
    assert report.status == "Outside"
    assert report.ray is not None
    assert report.ray.quadratic_is_zero()
    assert report.ray.evaluate((0, 1)) > 0
    below = th1_membership(space, (0, -1))
    assert below.status == "Outside" and below.ray.evaluate((0, -1)) > 0
    on_line = th1_membership(space, ("1/2", 0))
    assert on_line.status in ("Borderline", "Inside")


def test_infeasible_section_is_inside():
    space = quadric_space_from_generators(2, ["x1^2 - 2*x2^2", "x1*x2"])
    report = th1_membership(space, (0, 0))
    assert report.status == "Inside"
    assert report.solver_status == "Infeasible"


def test_empty_section_is_inside_at_every_query():
    # the unit member diag(-1, 2) keeps its (0, 0) entry in every member
    # u + t*(x1*x2) of the section, so the section is empty at every query
    space = quadric_space_from_generators(2, ["x1^2 - 2*x2^2", "x1*x2"])
    for query in [(1, 2), (1, 0), ("-3/2", "5/7"), (4, -1)]:
        report = th1_membership(space, query)
        assert report.status == "Inside"
        assert report.solver_status == "Infeasible"


def test_traceless_space_without_ray_is_inside():
    space = quadric_space_from_generators(2, ["x1*x2"])
    report = th1_membership(space, (0, 0))
    assert report.status == "Inside"
    # but a query where nothing vanishes still cannot be separated: x1*x2 is
    # indefinite, not convex, so it certifies nothing
    report = th1_membership(space, (1, 1))
    assert report.status == "Inside"


def test_variety_points_never_outside():
    for ps in [corpus.quad4(), corpus.tri3(), corpus.cube(2)]:
        space = quadric_space_from_points(ps)
        for p in ps.points:
            status = th1_membership(space, p, TIGHT).status
            assert status in ("Borderline", "Inside"), (ps, p, status)


def test_report_serialization():
    space = quadric_space_from_points(corpus.quad4())
    import json

    payload = th1_membership(space, (5, 5)).to_json()
    assert payload["status"] == "Outside"
    json.dumps(payload)
    payload = has_convex_quadric(space).to_json()
    assert payload["exists"] is True
    json.dumps(payload)
    json.dumps(space.to_json())


# ---------------------------------------------------------------- internals

def _point_spaces():
    sets = [corpus.cube(2), corpus.cube(3), corpus.cross_polytope(3), corpus.simplex(3),
            corpus.quad4(), corpus.curve14(), corpus.tri3(), corpus.segment01(),
            corpus.hypersimplex_2_4()]
    return [(ps.points, quadric_space_from_points(ps)) for ps in sets]


def _generator_spaces():
    gens = [(3, ["x1^2 - x3", "x2^2 - x3"]), (2, ["x1^2 - 2*x2^2", "x1*x2"]),
            (2, ["x2"]), (2, ["x1 - 1"]), (2, ["x1*x2"]),
            (3, ["x1*x2 - x3", "x2*x3 - x1", "x1^2 - x2^2"]),
            (3, ["x1^2 - x1", "x2^2 - x2", "x3^2 - x3", "x1*x2 - x3"])]
    return [(None, quadric_space_from_generators(d, g)) for d, g in gens]


def _quadratic_part(q):
    return [q.a[i][j] for i in range(q.dim) for j in range(i, q.dim)]


def test_trace_split_and_kernel_invariants():
    for points, space in _point_spaces() + _generator_spaces():
        n = space.ambient_dim
        for g in (_quadric(v, n) for v in _linear_kernel(space)):
            assert g.quadratic_is_zero() and not g.is_zero()
            assert points is None or all(g.evaluate(p) == 0 for p in points)
        split = _trace_split(space)
        if split is None:
            assert all(q.trace() == 0 for q in space.basis)
            continue
        unit, rest = split
        assert _quadric(unit, n).trace() == 1
        parts = []
        for q in (_quadric(v, n) for v in rest):
            assert q.trace() == 0 and not q.quadratic_is_zero()
            assert points is None or all(q.evaluate(p) == 0 for p in points)
            parts.append(_quadratic_part(q))
        assert len(rational_rref(parts)[0]) == len(rest)


def test_member_is_the_combination_of_the_basis():
    f = Fraction
    for _, space in _point_spaces() + _generator_spaces():
        basis, n = space.basis, space.ambient_dim
        for shift in range(3):
            coeffs = [f((k + shift) % 5 - 2, 1 + k % 3) for k in range(space.dimension)]
            q = space.member(coeffs)

            def total(entry):
                return sum((c * entry(b) for c, b in zip(coeffs, basis)), f(0))

            assert q.a == tuple(
                tuple(total(lambda b: b.a[i][j]) for j in range(n)) for i in range(n)
            )
            assert q.b == tuple(total(lambda b: b.b[i]) for i in range(n))
            assert q.c == total(lambda b: b.c)


def _sdp(side, y_dim, cells, objective):
    """SdpProblem.to_json() without labels, from compact literals, plus the
    cell insertion order (the solver sums each coordinate's entries in it)."""
    return {
        "side": side,
        "yDim": y_dim,
        "cells": [
            {"row": i, "col": j, "coeffs": {str(l): c for l, c in vec.items()}}
            for (i, j), vec in cells.items()
        ],
        "objective": {str(l): c for l, c in objective.items()},
        "fixed": {"0": 1.0},
        "cellOrder": list(cells),
    }


QUAD4_SECTION = {(0, 0): {0: 1.0, 1: 1.0}, (0, 1): {0: -0.25}, (1, 1): {1: -1.0}}


def test_section_sdp_data_is_pinned(monkeypatch):
    # the lead and the row-major RREF columns and cells decide these numbers;
    # any change to them shows here
    seen = []
    real = momentsdp.solve

    def spy(problem, options=None):
        payload = problem.to_json()
        payload.pop("labels")
        payload["cellOrder"] = list(problem.cells)
        seen.append(payload)
        return real(problem, options)

    monkeypatch.setattr(momentsdp, "solve", spy)

    def captured(call):
        seen.clear()
        call()
        return list(seen)

    quad4 = quadric_space_from_points(corpus.quad4())
    assert captured(lambda: th1_membership(quad4, (5, 5))) == [
        _sdp(2, 2, QUAD4_SECTION, {})
    ]
    parabolas = quadric_space_from_generators(3, ["x1^2 - x3", "x2^2 - x3"])
    assert captured(lambda: th1_membership(parabolas, (1, 0, 0))) == [
        _sdp(3, 2, {(0, 0): {1: 1.0}, (1, 1): {0: 1.0, 1: -1.0}}, {1: 1.0})
    ]
    half = [p for p in itertools.product((0, 1), repeat=4) if sum(p) % 2 == 0]
    query = (Fraction(-1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
    half_cells = {
        (0, 0): {1: 1.0}, (0, 1): {2: 1.0}, (0, 2): {3: 1.0}, (0, 3): {0: 1.0, 4: 1.0},
        (1, 1): {0: 1.0, 5: 1.0}, (1, 2): {0: -1.0, 4: -1.0}, (1, 3): {3: -1.0},
        (2, 2): {0: 1.0, 6: 1.0}, (2, 3): {2: -1.0},
        (3, 3): {0: -1.0, 1: -1.0, 5: -1.0, 6: -1.0},
    }
    assert captured(lambda: th1_membership(quadric_space_from_points(half), query)) == [
        _sdp(4, 7, half_cells, {1: 0.9375, 2: 0.375, 3: 0.375, 4: 0.375})
    ]
    slack_cells = {(0, 0): {0: 1.0, 1: 1.0, 2: -1.0}, (0, 1): {0: -0.25},
                   (1, 1): {1: -1.0, 2: -1.0}}
    assert captured(lambda: has_convex_quadric(quad4)) == [
        _sdp(2, 3, slack_cells, {2: 1.0}),
        _sdp(2, 2, QUAD4_SECTION, {1: -1.0}),
        _sdp(2, 2, QUAD4_SECTION, {1: 1.0}),
    ]


def test_trace_split_directions_are_pinned():
    # the SDP data depend only on the directions' quadratic parts and their
    # values where the kernel vanishes; the traceless order picks the kernel
    # representative, which shows in the affine parts here
    space = quadric_space_from_points(corpus.hypersimplex_2_4())
    unit, rest = _trace_split(space)
    assert str(_quadric(unit, 4)) == (
        "-1/3 + 1/3*x2^2 - 1/3*x2*x3 + 1/3*x3^2 - 1/3*x2*x4 - 1/3*x3*x4 + 1/3*x4^2"
    )
    assert [str(_quadric(v, 4)) for v in rest] == [
        "-2 + x2 + x3 + 2*x4 + x1^2 - x4^2",
        "-2 + 2*x3 + 2*x4 + 2*x1*x2 - 2*x3*x4",
        "-2 + 2*x2 + 2*x4 + 2*x1*x3 - 2*x2*x4",
        "-2*x4 + 2*x1*x4 + 2*x2*x4 + 2*x3*x4",
        "-x2 + x4 + x2^2 - x4^2",
        "2 - 2*x2 - 2*x3 - 2*x4 + 2*x2*x3 + 2*x2*x4 + 2*x3*x4",
        "-x3 + x4 + x3^2 - x4^2",
    ]


SQUARE_IN_SPACE = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]


@pytest.mark.parametrize("points, queries", [
    (corpus.quad4().points,
     [(1, 1), (5, 5), ("1/2", "1/2"), (0, 0), (2, 2), (-1, 3), ("3/2", "1/4"), (1, 0),
      (-2, -2), ("7/3", "-5/4")]),
    (SQUARE_IN_SPACE,
     [(0, 0, 1), ("1/2", "1/2", 0), (2, 0, 0), (1, 1, 0), (0, 0, -3), ("1/3", 1, 0),
      (3, 3, 0), ("-1/2", 0, 0), (1, 1, 1), ("1/4", "3/4", 0)]),
])
def test_membership_set_up_runs_once_per_space(monkeypatch, points, queries):
    counts = {"_trace_split": 0, "_linear_kernel": 0}
    for name in counts:
        real = getattr(quadrics, name)

        def counted(space, real=real, name=name):
            counts[name] += 1
            return real(space)

        monkeypatch.setattr(quadrics, name, counted)
    calls = [lambda s, z=z: th1_membership(s, z) for z in queries] + [has_convex_quadric]
    space = quadric_space_from_points(points)
    shared = [call(space).to_json() for call in calls]
    assert counts == {"_trace_split": 1, "_linear_kernel": 1}
    fresh = [call(quadric_space_from_points(points)).to_json() for call in reversed(calls)]
    assert shared == fresh[::-1]


def test_on_variety_queries_share_one_section_solve(monkeypatch):
    """Where every trace-0 direction vanishes the membership SDP has no
    objective, so one solve per space and solver settings, and the
    certificate its weights pick, serve every such query; a query elsewhere
    solves its own SDP and builds its own certificate each time."""
    points = corpus.hypersimplex_2_4().points
    elsewhere = [(1, "1/2", "1/2", 0), ("1/2", "1/2", "1/2", "1/2")]
    queries = list(points) + elsewhere
    objectives = []
    combines = []
    real_solve, real_combine = momentsdp.solve, quadrics._combine

    def counted(problem, options):
        objectives.append(dict(problem.objective))
        return real_solve(problem, options)

    def counted_combine(unit, rest, weights):
        combines.append(len(weights))
        return real_combine(unit, rest, weights)

    monkeypatch.setattr(momentsdp, "solve", counted)
    monkeypatch.setattr(quadrics, "_combine", counted_combine)

    def solves():
        zero = sum(1 for objective in objectives if not objective)
        return zero, len(objectives) - zero

    space = quadric_space_from_points(points)
    assert space._split[1]
    shared = [th1_membership(space, z).to_json() for z in queries + queries[::-1]]
    assert solves() == (1, 2 * len(elsewhere))
    # every report here is Borderline and carries a certificate
    assert {r["status"] for r in shared} == {"Borderline"}
    assert len(combines) == 1 + 2 * len(elsewhere)
    tight = [th1_membership(space, z, TIGHT).to_json() for z in points]
    assert solves() == (2, 2 * len(elsewhere))
    assert len(combines) == 2 + 2 * len(elsewhere)
    fresh = [th1_membership(quadric_space_from_points(points), z).to_json()
             for z in queries + queries[::-1]]
    assert solves() == (2 + 2 * len(points), 4 * len(elsewhere))
    assert len(combines) == 2 + 2 * len(points) + 4 * len(elsewhere)
    assert shared == fresh
    assert tight == [th1_membership(quadric_space_from_points(points), z, TIGHT).to_json()
                     for z in points]


def _query_spaces():
    """Spaces in dimensions 1-5, some with affine-linear members."""
    spaces = [quadric_space_from_points(corpus.simplex(d)) for d in range(1, 6)]
    spaces += [quadric_space_from_points(corpus.cube(d)) for d in (1, 2, 4)]
    # a cube inside the hyperplane x_d = 1/2 of R^d: x_d - 1/2 is in the kernel
    for d in (2, 3, 5):
        pts = [p + (Fraction(1, 2),) for p in corpus.cube(d - 1).points]
        spaces.append(quadric_space_from_points(pts))
    spaces += [space for _, space in _generator_spaces()]
    assert sorted({s.ambient_dim for s in spaces}) == [1, 2, 3, 4, 5]
    assert sum(1 for s in spaces if s._kernel) >= 3
    return spaces


def test_integer_query_values_match_fraction_sums():
    rng = random.Random(8)
    checked = 0
    for space in _query_spaces():
        n = space.ambient_dim
        vectors = list(space._kernel)
        if space._split is not None:
            vectors += [space._split[0]] + space._split[1]
        forms = _integer_forms(vectors)
        for _ in range(6):
            # zeros, negatives and a denominator of its own per coordinate
            query = [
                rng.choice([0, Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 12]))])
                for _ in range(n)
            ]
            at, scale = _monomials_at(*_over_lcm(query))
            got = _values_at(forms, at, scale)
            at_z = [m.evaluate(query) for m in _deg2_monomials(n)]
            for vec, value in zip(vectors, got):
                assert value == sum((c * m for c, m in zip(vec, at_z)), Fraction(0))
                assert type(value) is Fraction and value.denominator > 0
                assert math.gcd(value.numerator, value.denominator) == 1
                checked += 1
    assert checked > 300


def test_membership_leaves_the_cached_section_alone():
    space = quadric_space_from_points(corpus.quad4())
    th1_membership(space, (5, 5))
    section = space._section
    snapshot = [(cell, dict(vec)) for cell, vec in section.items()]
    for query in [(1, 1), ("1/2", "-1/3"), (0, 0), (-2, 7)]:
        th1_membership(space, query)
    has_convex_quadric(space)
    assert space._section is section
    assert [(cell, dict(vec)) for cell, vec in section.items()] == snapshot
