"""Tests for moment-matrix templates and theta-body SDP assembly."""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import corpus
import thetabody.momentsdp as momentsdp
from thetabody.errors import InputError
from thetabody.exactalg import Monomial, buchberger_moller
from thetabody.momentsdp import (
    MomentTemplate,
    SdpProblem,
    assemble,
    build_moment_template,
    build_theta_sdp,
    orbit_scales,
    solve,
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
            for point in ps.points:
                xi_full = [m.evaluate(point) for m in ring.basis]
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


DISK_CELLS = {(0, 0): {0: 1.0}, (0, 1): {1: 1.0}, (1, 1): {0: 1.0}}


def _disk(cells):
    """max y_1 over [[1, y_1], [y_1, 1]] PSD, with the cells given."""
    return SdpProblem(2, 2, cells, {1: 1.0}, {0: 1.0})


def test_cell_keys_follow_the_integer_rule():
    # an integral float key is read as its int and solves like the int-keyed
    # twin; a numpy integer key solves too (test_exactalg's NOT_INTEGERS has
    # the keys that are refused)
    twin = solve(_disk(DISK_CELLS))
    assert twin.status == "Optimal"
    zero = np.int64(0)
    for cells in ({(0.0, 0.0): {0: 1.0}, (0, 1): {1: 1.0}, (1, 1): {0: 1.0}},
                  {(zero, zero): {0: 1.0}, (0, 1): {1: 1.0}, (1, 1): {0: 1.0}},
                  {(0, 0): {0.0: 1.0}, (0, 1): {1.0: 1.0}, (1, 1): {zero: 1.0}}):
        problem = _disk(cells)
        assert problem == _disk(DISK_CELLS)
        assert all(type(k) is int for key in problem.cells for k in key)
        assert all(type(l) is int for vec in problem.cells.values() for l in vec)
        sol = solve(problem)
        assert vars(sol) == vars(twin)


def test_int_keyed_dicts_are_kept():
    problem = _disk(DISK_CELLS)
    assert problem.cells is DISK_CELLS
    assert all(problem.cells[key] is vec for key, vec in DISK_CELLS.items())


def test_theta_sdp_over_orbits_scales_by_root_orbit_size():
    # y_1, y_2 swap under the symmetry of M = [[1, y1, y2], [y1, 1, y3], [y2, y3, 1]]
    # that exchanges rows 1 and 2 (with y_3 fixed)
    one = Fraction(1)
    t = MomentTemplate(
        level=1, ambient_dim=2, row_indices=[0, 1, 2], row_labels=["1", "a", "b"],
        y_dim=4, y_labels=["1", "a", "b", "c"],
        cells={(0, 0): {0: one}, (1, 1): {0: one}, (2, 2): {0: one},
               (0, 1): {1: one}, (0, 2): {2: one}, (1, 2): {3: one}},
        linear_index={1: 1, 2: 2},
    )
    objective = {mono(1, 0): 1, mono(0, 1): 1}
    problem = SdpProblem(
        side=3,
        y_dim=4,
        cells={(0, 0): {0: 1.0}, (1, 1): {0: 1.0}, (2, 2): {0: 1.0},
               (0, 1): {1: 1.0}, (0, 2): {2: 1.0}, (1, 2): {3: 1.0}},
        objective={1: 1.0, 2: 1.0},
        fixed={0: 1.0},
        y_labels=["1", "a", "b", "c"],
    )
    assert build_theta_sdp(t, objective) == problem
    assert build_theta_sdp(t, objective, [0, 1, 2, 3]) == problem
    assert orbit_scales([0, 1, 2, 3]) == [1.0] * 4
    orbit = [0, 1, 1, 2]
    reduced = build_theta_sdp(t, objective, orbit)
    half = 1 / np.sqrt(2)
    assert reduced.y_dim == 3 and reduced.fixed == {0: 1.0}
    assert reduced.cells[(0, 1)] == {1: half} and reduced.cells[(0, 2)] == {1: half}
    assert reduced.cells[(1, 2)] == {2: 1.0}
    assert reduced.objective == {1: 2 * half}
    assert reduced.y_labels == ["1", "a", "c"]
    z = [1.0, 2.0, 3.0]
    assert [z[o] * s for o, s in zip(orbit, orbit_scales(orbit))] == [1.0, 2 * half, 2 * half, 3.0]
    with pytest.raises(InputError):
        build_theta_sdp(t, objective, [0, 0, 1, 2])
    with pytest.raises(InputError):
        build_theta_sdp(t, objective, [0, 1, 1])


def test_combinatorial_objective_constant_and_uncovered_variable():
    # no ring: a constant lands on y_0, and a variable must have a y-coordinate
    one = Fraction(1)
    t = MomentTemplate(
        level=1, ambient_dim=2, row_indices=[0, 1], row_labels=["1", "a"],
        y_dim=2, y_labels=["1", "a"],
        cells={(0, 0): {0: one}, (0, 1): {1: one}, (1, 1): {1: one}},
        linear_index={1: 1},
    )
    problem = build_theta_sdp(t, {mono(0, 0): 3, mono(1, 0): "1/2"})
    assert problem.objective == {0: 3.0, 1: 0.5}
    with pytest.raises(InputError, match="x2 has no y-coordinate"):
        build_theta_sdp(t, {mono(0, 1): 1})


def test_cells_sharing_a_template_vector_share_its_reduction():
    ring = buchberger_moller(corpus.curve14())
    t = build_moment_template(ring, 2)
    problem = build_theta_sdp(t, {mono(1, 0): 1})
    for a in t.cells:
        for b in t.cells:
            assert (problem.cells[a] is problem.cells[b]) == (t.cells[a] is t.cells[b])


# ------------------------------------------------------------ solver door

STATUS_NAMES = ("OPTIMAL", "NEAR_OPTIMAL", "INFEASIBLE", "UNBOUNDED", "ITER_LIMIT")


def _sdpsolve_imports(tree):
    """Lines of the imports of sdpsolve that run: those under
    `if TYPE_CHECKING:` never do."""
    typing_only = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
        for inner in ast.walk(node)
    }
    lines = []
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "sdpsolve" for name in names):
            lines.append(node.lineno)
    return lines


def test_momentsdp_is_the_one_door_to_the_solver():
    """Only momentsdp imports sdpsolve, and a solver status is spelled as a
    string only where momentsdp names it."""
    statuses = {getattr(momentsdp, name) for name in STATUS_NAMES}
    assert momentsdp.CONCLUSIVE == (momentsdp.OPTIMAL, momentsdp.NEAR_OPTIMAL)
    found = []
    for path in sorted(Path(momentsdp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        definitions = set()
        if path.stem == "momentsdp":
            definitions = {
                id(node.value)
                for node in tree.body
                if isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in STATUS_NAMES
            }
        else:
            found += [f"{path.name}:{line} imports sdpsolve" for line in _sdpsolve_imports(tree)]
        found += [
            f"{path.name}:{node.lineno} spells {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in statuses and id(node) not in definitions
        ]
    assert found == []
