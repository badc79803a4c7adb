"""Tests for the interior-point SDP solver."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

import corpus
import oracles
from thetabody.combopt import (
    Graph,
    cut_theta,
    enumerate_stable_sets,
    moment_template,
    stable_set_theta,
)
from thetabody.errors import InputError, ResourceLimitError
from thetabody.exactalg import Monomial, PointSet, buchberger_moller
from thetabody.momentsdp import SdpProblem, build_moment_template, build_theta_sdp
from thetabody.sdpsolve import (
    SdpSolution,
    SolverOptions,
    _centering_weight,
    _schur,
    _TRI_BLOCK,
    _split_data,
    _tri_solve,
    solve,
)


def problem_from(side, y_dim, cells, objective, fixed=None):
    return SdpProblem(
        side=side,
        y_dim=y_dim,
        cells={k: dict(v) for k, v in cells.items()},
        objective=dict(objective),
        fixed=dict(fixed if fixed is not None else {0: 1.0}),
    )


def arrow_3x3(obj1, obj2):
    """max obj1*y1 + obj2*y2 over [[1,y1,0],[y1,1,y2],[0,y2,1]] PSD,
    i.e. over the unit disk y1^2 + y2^2 <= 1."""
    cells = {
        (0, 0): {0: 1.0},
        (1, 1): {0: 1.0},
        (2, 2): {0: 1.0},
        (0, 1): {1: 1.0},
        (1, 2): {2: 1.0},
    }
    return problem_from(3, 3, cells, {1: obj1, 2: obj2})


def test_correlation_2x2():
    # max y s.t. [[1, y], [y, 1]] PSD -> 1
    p = problem_from(2, 2, {(0, 0): {0: 1.0}, (1, 1): {0: 1.0}, (0, 1): {1: 1.0}}, {1: 1.0})
    sol = solve(p)
    assert sol.status == "Optimal"
    assert abs(sol.objective - 1.0) <= 1e-6
    assert sol.min_eig >= -1e-7


def test_disk_instances_match_closed_forms():
    for (a, b), target in [((1.0, 1.0), math.sqrt(2)), ((2.0, 1.0), math.sqrt(5))]:
        grid = oracles.grid_max_on_disk((a, b))
        assert abs(grid - target) <= 1e-4  # closed form confirmed by grid
        sol = solve(arrow_3x3(a, b))
        assert sol.status == "Optimal"
        assert abs(sol.objective - target) <= 1e-5


def test_minimization_via_negated_objective():
    # max -y s.t. [[y, 1], [1, y]] PSD -> -1 at y = 1
    p = problem_from(2, 2, {(0, 0): {1: 1.0}, (1, 1): {1: 1.0}, (0, 1): {0: 1.0}}, {1: -1.0})
    sol = solve(p)
    assert sol.status == "Optimal"
    assert abs(sol.objective + 1.0) <= 1e-6
    assert abs(sol.y[1] - 1.0) <= 1e-5


def test_infeasible_diagonal():
    # matrix is constantly -1: no y can make it PSD
    p = problem_from(1, 2, {(0, 0): {0: -1.0, 1: 0.0}}, {1: 1.0})
    sol = solve(p)
    assert sol.status == "Infeasible"
    cert = np.array(sol.certificate)
    assert cert.shape == (1, 1)
    # certificate is a dual improving ray: PSD, annihilates F1, <F0, X> < 0
    assert cert[0, 0] > 0
    assert -cert[0, 0] < 0


def test_unbounded_ray():
    # max y s.t. [y] PSD -> unbounded above
    p = problem_from(1, 2, {(0, 0): {1: 1.0}}, {1: 1.0})
    sol = solve(p, SolverOptions(max_iter=2000))
    assert sol.status == "Unbounded"


def test_fully_fixed_problems():
    p = problem_from(1, 1, {(0, 0): {0: 1.0}}, {0: 2.0}, fixed={0: 1.0})
    sol = solve(p)
    assert sol.status == "Optimal" and sol.objective == 2.0 and sol.iterations == 0
    p_bad = problem_from(1, 1, {(0, 0): {0: -1.0}}, {}, fixed={0: 1.0})
    sol_bad = solve(p_bad)
    assert sol_bad.status == "Infeasible"
    assert sol_bad.certificate is not None


def test_iteration_limit_status():
    sol = solve(arrow_3x3(1.0, 1.0), SolverOptions(max_iter=1))
    assert sol.status in ("IterLimit", "NearOptimal")
    assert sol.iterations <= 1


def test_deterministic_bitwise():
    a = solve(arrow_3x3(2.0, 1.0))
    b = solve(arrow_3x3(2.0, 1.0))
    assert a.y == b.y
    assert a.objective == b.objective
    assert a.gap_history == b.gap_history


def test_gap_history_non_increasing():
    for p in [arrow_3x3(1.0, 1.0), arrow_3x3(2.0, 1.0)]:
        sol = solve(p)
        gaps = sol.gap_history
        for earlier, later in zip(gaps, gaps[1:]):
            assert later <= earlier * (1.0 + 1e-9)


def test_moment_sdp_end_to_end():
    # max y over [[1, y], [y, y]] PSD: theta body of {0, 1} is [0, 1]
    ring = buchberger_moller(corpus.segment01())
    t = build_moment_template(ring, 1)
    p = build_theta_sdp(t, {Monomial((1,)): 1})
    sol = solve(p)
    assert sol.status == "Optimal"
    assert abs(sol.objective - 1.0) <= 1e-6
    assert abs(sol.y[0] - 1.0) < 1e-12  # pinned coordinate survives


def test_constant_objective_after_rewrite():
    ring = buchberger_moller(corpus.hypersimplex_2_4())
    t = build_moment_template(ring, 1)
    objective = {Monomial.variable(i, 4): 1 for i in range(1, 5)}
    sol = solve(build_theta_sdp(t, objective))
    assert sol.status == "Optimal"
    assert abs(sol.objective - 2.0) <= 1e-6


def test_option_validation():
    with pytest.raises(InputError):
        SolverOptions(feas_tol=0.0)
    with pytest.raises(InputError):
        SolverOptions(max_iter=-1)


def test_optimal_status_is_certified():
    sol = solve(arrow_3x3(1.0, 0.5))
    assert sol.status == "Optimal"
    assert sol.duality_gap <= 1e-7
    assert sol.min_eig >= -1e-7


def test_unused_free_coordinate():
    # y_3 is free but appears in no cell: it must neither break the solve
    # nor move when the objective ignores it, and it is unbounded otherwise
    arrow = arrow_3x3(1.0, 1.0)
    sol = solve(problem_from(3, 4, arrow.cells, {1: 1.0, 2: 1.0}))
    assert sol.status == "Optimal" and sol.iterations == 6
    assert abs(sol.objective - math.sqrt(2)) <= 1e-6
    assert sol.y[3] == 0.0
    sol = solve(problem_from(3, 4, arrow.cells, {3: 1.0}))
    assert sol.status == "Unbounded"
    assert sol.objective > 1e12


def test_schur_blocks_match_definition():
    # against H_ij = tr(F_i Z^-1 F_j X) with dense F_i: the stable-set SDP of
    # C7 has supports of 1 to 6 rows on side 22, the sphere's moment SDP
    # supports as wide as its side 9
    c7 = moment_template(enumerate_stable_sets(Graph(7, corpus.cycle_edges(7)), 4), 2)
    sphere = build_moment_template(buchberger_moller(PointSet(3, SPHERE_OVERFLOW)), 2)
    cases = [
        (build_theta_sdp(c7, {Monomial.variable(v, 7): 1 for v in range(1, 8)}), 6),
        (build_theta_sdp(sphere, {Monomial.variable(1, 3): 1}), 9),
    ]
    for problem, widest in cases:
        m = problem.side
        free = sorted(l for l in range(problem.y_dim) if l not in problem.fixed)
        dense = [np.zeros((m, m)) for _ in free]
        for (i, j), vec in problem.cells.items():
            for l, c in vec.items():
                if l in problem.fixed:
                    continue
                dense[free.index(l)][i, j] += c
                if i != j:
                    dense[free.index(l)][j, i] += c
        widths = [int(np.count_nonzero(np.any(fi != 0, axis=0))) for fi in dense]
        assert max(widths) == widest
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((2, m, m))
        big_z, big_x = a @ a.T + m * np.eye(m), b @ b.T + m * np.eye(m)
        zinv = np.linalg.inv(big_z)
        expected = np.array([[np.trace(fi @ zinv @ fj @ big_x) for fj in dense] for fi in dense])
        _, f = _split_data(problem, free)
        d = len(free)
        for block in (5, d + 3):
            blocks = f.column_blocks(block)
            # each run is padded to its own widest support; some run mixes widths
            assert [rows.shape[1] for _, _, rows, _ in blocks] == [
                max(widths[j0:j1]) for j0, j1, _, _ in blocks
            ]
            assert any(len(set(widths[j0:j1])) > 1 for j0, j1, _, _ in blocks)
            got = _schur(f, blocks, zinv, big_x)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [1, _TRI_BLOCK - 1, _TRI_BLOCK + 1, 305])
@pytest.mark.parametrize("transpose", [False, True])
def test_tri_solve_matches_dense_solve(n, transpose):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    factor = np.linalg.cholesky(a @ a.T + n * np.eye(n))
    rhs = rng.standard_normal(n)
    expected = np.linalg.solve(factor.T if transpose else factor, rhs)
    got = _tri_solve(factor, rhs, transpose=transpose)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "run, most",
    [
        (lambda: stable_set_theta(Graph(9, corpus.cycle_edges(9)), 2), 10),
        (lambda: cut_theta(Graph(5, corpus.complete_edges(5)), None, 2), 13),
        (
            lambda: cut_theta(
                Graph(5, corpus.complete_edges(5)), [3, 1, 4, 1, 5, 2, 6, 5, 3, 5], 2
            ),
            12,
        ),
    ],
)
def test_largest_graph_sdps_keep_their_iteration_counts(run, most):
    # stable C9 level 2 (side 37, 8 free y over the orbits of its dihedral
    # group), cut K5 level 2 (side 56, 10 free y over the orbits of S_5) and
    # cut K5 level 2 with weights no automorphism keeps (305 free y, the
    # largest problem solved without reduction)
    result = run()
    assert result.status == "Optimal"
    assert result.solution.iterations <= most


# 14 rational points on the unit sphere whose level-2 theta SDP drove the
# centering ratio (mu_aff / mu)^3 into a float overflow.
SPHERE_OVERFLOW = [
    (F(-18, 19), F(6, 19), F(1, 19)), (F(-4, 9), F(4, 9), F(7, 9)),
    (F(-32, 93), F(20, 93), F(85, 93)), (F(-6, 19), F(1, 19), F(18, 19)),
    (F(-6, 19), F(10, 19), F(15, 19)), (F(-6, 23), F(-54, 115), F(97, 115)),
    (F(-5, 31), F(6, 31), F(30, 31)), (F(-4, 149), F(48, 149), F(141, 149)),
    (F(6, 19), F(-6, 19), F(17, 19)), (F(6, 19), F(10, 19), F(15, 19)),
    (F(1, 3), F(2, 15), F(14, 15)), (F(3, 7), F(2, 7), F(6, 7)),
    (F(36, 65), F(-96, 325), F(253, 325)), (F(12, 17), F(8, 17), F(9, 17)),
]


def test_sphere_overflow_points_level_two():
    weights = (-1, 3, -1)
    ring = buchberger_moller(PointSet(3, SPHERE_OVERFLOW))
    objective = {Monomial.variable(i + 1, 3): c for i, c in enumerate(weights)}
    values = {}
    for k in (1, 2):
        sol = solve(build_theta_sdp(build_moment_template(ring, k), objective))
        assert sol.status in ("Optimal", "NearOptimal")
        values[k] = sol.objective
    best = max(sum(c * x for c, x in zip(weights, p)) for p in SPHERE_OVERFLOW)
    assert float(best) - 1e-6 <= values[2] <= values[1] + 1e-6


def test_centering_weight_clamps_before_cubing():
    # a gap that went negative leaves mu = 1e-300 / m: the ratio cubed overflows
    assert _centering_weight(7.96e-10, 1e-300 / 9) == 0.999
    assert _centering_weight(-1.0, 1.0) == 1e-10
    assert _centering_weight(0.5, 1.0) == 0.125


def test_non_finite_data_is_rejected():
    arrow = arrow_3x3(1.0, 1.0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InputError):
            problem_from(3, 3, {**arrow.cells, (0, 2): {2: bad}}, arrow.objective)
        with pytest.raises(InputError):
            problem_from(3, 3, arrow.cells, {1: bad})
        with pytest.raises(InputError):
            problem_from(3, 3, arrow.cells, arrow.objective, fixed={0: bad})
    # finite coefficients whose norm overflows a float
    huge = problem_from(3, 3, {**arrow.cells, (0, 2): {2: 1e308}}, arrow.objective)
    with pytest.raises(InputError):
        solve(huge)


@pytest.mark.parametrize("side, y_dim", [(10**6, 2), (2, 10**6)])
def test_memory_estimate_refuses_before_allocating(side, y_dim):
    problem = problem_from(
        side, y_dim, {(0, 0): {0: 1.0}, (1, 1): {1: 1.0}}, {1: 1.0}
    )
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            solve(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
