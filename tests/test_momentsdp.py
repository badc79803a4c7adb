"""Tests for moment-matrix templates and theta-body SDP assembly."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

import corpus
from thetabody.errors import InputError
from thetabody.exactalg import Monomial, buchberger_moller
from thetabody.momentsdp import (
    MomentTemplate,
    SdpProblem,
    assemble,
    build_moment_template,
    build_theta_sdp,
    orbit_problem,
)


def mono(*exps):
    return Monomial(tuple(exps))


def test_segment_level_one_template():
    ring = buchberger_moller(corpus.segment01())
    t = build_moment_template(ring, 1)
    assert t.row_labels == ["1", "x1"]
    assert t.y_labels == ["1", "x1"]
    # matrix [[y0, y1], [y1, y1]]
    assert t.cell(0, 0) == {0: Fraction(1)}
    assert t.cell(0, 1) == {1: Fraction(1)}
    assert t.cell(1, 1) == {1: Fraction(1)}


def test_equal_products_share_storage():
    ring = buchberger_moller(corpus.curve14())
    t = build_moment_template(ring, 2)
    # rows 1..5 are x1, x2, x1^2, x1*x2, x2^2; x1 * (x1*x2) and x2 * x1^2
    # are both x1^2*x2, so the two cells must be one shared object
    assert t.cell(1, 4) is t.cell(2, 3)
    # whereas distinct products with equal normal forms stay distinct objects
    assert t.cell(1, 4) == t.cell(0, 0)  # both reduce to y[1]
    assert t.cell(1, 4) is not t.cell(0, 0)


def test_quad4_level_one_cells():
    ring = buchberger_moller(corpus.quad4())
    t = build_moment_template(ring, 1)
    assert t.row_labels == ["1", "x1", "x2"]
    assert t.y_labels == ["1", "x1", "x2", "x2^2"]
    # x1*x2 is a leading term on this set: x1*x2 = -2*x2 + 2*x2^2
    assert t.cell(1, 2) == {2: Fraction(-2), 3: Fraction(2)}
    assert t.cell(2, 2) == {3: Fraction(1)}


def test_stable_set_ring_template_zero_cells():
    pts = corpus.stable_set_points(3, corpus.path_edges(3))
    ring = buchberger_moller(pts)
    t = build_moment_template(ring, 1)
    assert t.row_labels == ["1", "x1", "x2", "x3"]
    # edges of the path give identically-zero cells
    assert t.cell(1, 2) == {}
    assert t.cell(2, 3) == {}
    # the non-edge pair {1,3} is the stable-set coordinate y[x1*x3]
    assert t.cell(1, 3) == {t.y_labels.index("x1*x3"): Fraction(1)}
    # diagonal idempotence M_ii = y_i
    assert t.cell(1, 1) == {1: Fraction(1)}


CURVE14_PATTERN = [
    ["1", "x1", "x2", "x1^2", "x1*x2", "x2^2"],
    ["x1", "x1^2", "x1*x2", "x1^3", "1", "x1*x2^2"],
    ["x2", "x1*x2", "x2^2", "1", "x1*x2^2", "x2^3"],
    ["x1^2", "x1^3", "1", "x1^4", "x1", "x2"],
    ["x1*x2", "1", "x1*x2^2", "x1", "x2", "x1*x2^3"],
    ["x2^2", "x1*x2^2", "x2^3", "x2", "x1*x2^3", "x2^4"],
]


def test_curve14_level_two_pattern():
    ring = buchberger_moller(corpus.curve14())
    t = build_moment_template(ring, 2)
    assert t.row_labels == CURVE14_PATTERN[0]
    assert t.y_labels[:12] == [
        "1", "x1", "x2", "x1^2", "x1*x2", "x2^2",
        "x1^3", "x1*x2^2", "x2^3", "x1^4", "x1*x2^3", "x2^4",
    ]
    for i in range(6):
        for j in range(6):
            expected = CURVE14_PATTERN[i][j]
            cell = t.cell(i, j)
            assert cell == {t.y_labels.index(expected): Fraction(1)}, (
                f"cell ({i},{j}) should be y[{expected}], got {cell}"
            )


def test_rank_one_moment_matrices_exact():
    for ps in [corpus.segment01(), corpus.quad4(), corpus.curve14()]:
        ring = buchberger_moller(ps)
        for k in (1, 2):
            t = build_moment_template(ring, k)
            for s in range(len(ps)):
                xi_full = ring.evaluate_basis(s)
                y = [xi_full[l] for l in range(t.y_dim)]
                matrix = assemble(t, y)
                xi = [xi_full[l] for l in t.row_indices]
                for i in range(t.side):
                    for j in range(t.side):
                        assert matrix[i][j] == xi[i] * xi[j]


def test_assemble_float_path():
    ring = buchberger_moller(corpus.segment01())
    t = build_moment_template(ring, 1)
    matrix = assemble(t, [1.0, 0.25])
    assert isinstance(matrix, np.ndarray)
    assert matrix.tolist() == [[1.0, 0.25], [0.25, 0.25]]
    with pytest.raises(InputError):
        assemble(t, [1.0])


def test_level_validation():
    ring = buchberger_moller(corpus.quad4())
    with pytest.raises(InputError):
        build_moment_template(ring, 0)


def test_truncation_saturates_at_full_basis():
    ring = buchberger_moller(corpus.quad4())
    t = build_moment_template(ring, 3)  # 2k = 6 exceeds the top degree 2
    assert t.y_dim == len(ring)


def test_build_theta_sdp_basic():
    ring = buchberger_moller(corpus.segment01())
    t = build_moment_template(ring, 1)
    problem = build_theta_sdp(t, {mono(1): 1})
    assert problem.fixed == {0: 1.0}
    assert problem.objective == {1: 1.0}
    assert problem.side == 2 and problem.y_dim == 2
    with pytest.raises(InputError):
        build_theta_sdp(t, {})
    with pytest.raises(InputError):
        build_theta_sdp(t, {mono(2): 1})  # nonlinear objective


def test_objective_rewrite_through_normal_form():
    # 0/1 points with coordinate sum 2: x1 is not a standard monomial, and
    # the sum of all coordinates reduces to the constant 2
    ring = buchberger_moller(corpus.hypersimplex_2_4())
    t = build_moment_template(ring, 1)
    objective = {Monomial.variable(i, 4): 1 for i in range(1, 5)}
    problem = build_theta_sdp(t, objective)
    assert problem.objective == {0: 2.0}


def test_sdp_problem_json_round_trip():
    ring = buchberger_moller(corpus.quad4())
    t = build_moment_template(ring, 1)
    problem = build_theta_sdp(t, {mono(1, 0): 1, mono(0, 1): "1/2"})
    again = SdpProblem.from_json(problem.to_json())
    assert again.cells == problem.cells
    assert again.objective == problem.objective
    assert again.fixed == problem.fixed
    assert again.side == problem.side and again.y_dim == problem.y_dim


def test_template_dump_format():
    ring = buchberger_moller(corpus.segment01())
    t = build_moment_template(ring, 1)
    dump = t.to_json()
    assert dump["level"] == 1
    assert dump["rows"] == ["1", "x1"]
    entries = {tuple(e["cell"]): e["coeffs"] for e in dump["cells"]}
    assert entries[("1", "x1")] == {"y[x1]": "1"}
    assert entries[("x1", "x1")] == {"y[x1]": "1"}


def test_sdp_problem_validation():
    with pytest.raises(InputError):
        SdpProblem(side=1, y_dim=1, cells={(0, 0): {3: 1.0}}, objective={}, fixed={0: 1.0})
    with pytest.raises(InputError):
        SdpProblem(side=1, y_dim=1, cells={(1, 0): {0: 1.0}}, objective={}, fixed={0: 1.0})


def test_orbit_problem_scales_by_root_orbit_size():
    # y_1, y_2 swap under the symmetry of M = [[1, y1, y2], [y1, 1, y3], [y2, y3, 1]]
    # that exchanges rows 1 and 2 (with y_3 fixed)
    problem = SdpProblem(
        side=3,
        y_dim=4,
        cells={(0, 0): {0: 1.0}, (1, 1): {0: 1.0}, (2, 2): {0: 1.0},
               (0, 1): {1: 1.0}, (0, 2): {2: 1.0}, (1, 2): {3: 1.0}},
        objective={1: 1.0, 2: 1.0},
        fixed={0: 1.0},
        y_labels=["1", "a", "b", "c"],
    )
    same, expand = orbit_problem(problem, [0, 1, 2, 3])
    assert same == problem and expand([1.0, 2.0, 3.0, 4.0]) == [1.0, 2.0, 3.0, 4.0]
    reduced, expand = orbit_problem(problem, [0, 1, 1, 2])
    half = 1 / np.sqrt(2)
    assert reduced.y_dim == 3 and reduced.fixed == {0: 1.0}
    assert reduced.cells[(0, 1)] == {1: half} and reduced.cells[(0, 2)] == {1: half}
    assert reduced.cells[(1, 2)] == {2: 1.0}
    assert reduced.objective == {1: 2 * half}
    assert reduced.y_labels == ["1", "a", "c"]
    assert expand([1.0, 2.0, 3.0]) == [1.0, 2 * half, 2 * half, 3.0]
    with pytest.raises(InputError):
        orbit_problem(problem, [0, 0, 1, 2])
    with pytest.raises(InputError):
        orbit_problem(problem, [0, 1, 1])
