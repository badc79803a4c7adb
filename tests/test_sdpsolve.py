"""Tests for the interior-point SDP solver."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

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
from thetabody.errors import InputError, ResourceLimitError, SolverError
from thetabody.exactalg import Monomial, PointSet, buchberger_moller
from thetabody.momentsdp import SdpProblem, build_moment_template, build_theta_sdp
from thetabody.quadrics import quadric_space_from_points, th1_membership
from thetabody.sdpsolve import (
    SdpSolution,
    SolverOptions,
    _block_inverses,
    _centering_weight,
    _min_eig,
    _min_eig_at_least,
    _pair_factor,
    _psd_factor,
    _schur,
    _step_to_boundary,
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


def _pd_pair(rng, m):
    a = rng.standard_normal((2, m, m))
    return a @ a.transpose(0, 2, 1) + 1e-2 * np.eye(m)


@pytest.mark.parametrize("m", [1, 2, 8, 56])
def test_pair_kernels_match_per_matrix(m):
    # the stacked Cholesky, inverse, whitening and eigvalsh of (Z, X) give
    # bitwise what one call per matrix gives
    rng = np.random.default_rng(m)
    for _ in range(5):
        pair = _pd_pair(rng, m)
        factors = _pair_factor(pair)
        inv_factors = np.linalg.inv(factors)
        directions = rng.standard_normal((2, m, m))
        directions = directions + directions.transpose(0, 2, 1)
        steps = _step_to_boundary(inv_factors, directions)
        for k in range(2):
            assert np.array_equal(factors[k], _psd_factor(pair[k], 1e-14))
            assert np.array_equal(inv_factors[k], np.linalg.inv(factors[k]))
            expected = oracles.step_to_boundary_per_matrix(inv_factors[k], directions[k])
            assert steps[k] == expected and type(steps[k]) is float
    # a PSD direction leaves the step unbounded
    pair = _pd_pair(rng, m)
    assert _step_to_boundary(np.linalg.inv(_pair_factor(pair)), pair) == [np.inf, np.inf]


@pytest.mark.parametrize("singular", [0, 1])
def test_pair_factor_falls_back_to_jittered_factors(singular):
    # a rank-one PSD matrix fails plain Cholesky; only it is jittered
    rng = np.random.default_rng(3 + singular)
    m = 6
    pair = _pd_pair(rng, m)
    v = rng.standard_normal(m)
    pair[singular] = np.outer(v, v)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(pair[singular])
    factors = _pair_factor(pair)
    for k in range(2):
        assert np.array_equal(factors[k], _psd_factor(pair[k], 1e-14))
    assert np.array_equal(factors[1 - singular], np.linalg.cholesky(pair[1 - singular]))
    # no jitter of _psd_factor reaches an eigenvalue of -1e8 on a unit diagonal
    pair[singular] = [[1.0 if i == j else 1e8 * (i + j == 1) for j in range(m)] for i in range(m)]
    with pytest.raises(np.linalg.LinAlgError):
        _pair_factor(pair)


def test_ray_pre_check_keeps_the_eigenvalue_answer():
    # the diagonal pre-check never turns a pass of _min_eig into a fail
    rng = np.random.default_rng(21)
    floor = -1e-12 * (1.0 + 3.0)
    cases = []
    for m in (1, 2, 5, 14):
        for _ in range(20):
            a = rng.standard_normal((m, m))
            cases.append(a + a.T)  # indefinite
            v = rng.standard_normal((m, 1))
            cases.append(v @ v.T)  # PSD of rank one: lambda_min ~ 0
        for diag in (2 * floor, np.nextafter(2 * floor, -np.inf), floor, 0.5 * floor, 0.0):
            cases.append(np.diag([diag] + [1.0] * (m - 1)))
            u = np.linalg.qr(rng.standard_normal((m, m)))[0]
            cases.append(u @ np.diag([diag] + [1.0] * (m - 1)) @ u.T)
    passed = 0
    for mat in cases:
        expected = _min_eig(mat) >= floor
        assert _min_eig_at_least(mat, floor) is expected
        passed += expected
    assert 0 < passed < len(cases)


def _theta_sdp(points, k, objective=(1, 2)):
    ring = buchberger_moller(points)
    objective = {Monomial.variable(i + 1, points.dim): c for i, c in enumerate(objective)}
    return build_theta_sdp(build_moment_template(ring, k), objective)


def _assembled(problem, y):
    """A(y) as one dense matrix, summed from the problem's cells."""
    a = np.zeros((problem.side, problem.side))
    for (i, j), vec in problem.cells.items():
        value = sum(c * y[l] for l, c in vec.items())
        a[i, j] += value
        if i != j:
            a[j, i] += value
    return a


@pytest.mark.parametrize(
    "points, k",
    [
        (corpus.grid(3, 3), 1),
        (corpus.rational_cloud(16, 2, 4), 1),
        (corpus.rational_cloud(16, 2, 4), 2),
        (corpus.rational_cloud(12, 3, 4), 1),
        (corpus.grid(2, 5), 2),
    ],
    ids=["grid3-1", "cloud16-1", "cloud16-2", "cloud12-1", "grid5-2"],
)
def test_curve_unbounded_theta_sdps_are_decided_before_the_loop(points, k):
    # The ideal has no element of degree <= 2k, so every moment of degree
    # <= 2k is free and TH_k = R^n; the objective grows only along a curve
    # (y_x = tc, higher moments those of the Dirac measure at tc), so no
    # improving ray exists.  The diagonal facial reduction decides it.
    problem = _theta_sdp(points, k)
    assert problem.y_dim == math.comb(points.dim + 2 * k, points.dim)
    sol = solve(problem)
    assert sol.status == "Unbounded" and sol.iterations == 0
    assert sol.gap_history == [] and sol.certificate is None
    assert all(math.isfinite(v) for v in sol.y)
    assert np.linalg.eigvalsh(_assembled(problem, sol.y))[0] > 0
    assert sol.objective == sum(c * sol.y[l] for l, c in problem.objective.items())


def _fixed_floor(problem):
    """-1e-7 (1 + ||F0||): the floor an A(y) reported Unbounded must clear,
    F0 being A(y) with every free coordinate 0."""
    pinned = [problem.fixed.get(l, 0.0) for l in range(problem.y_dim)]
    return -1e-7 * (1.0 + np.linalg.norm(_assembled(problem, pinned)))


def test_singular_kept_block_is_decided_by_the_loop():
    # grid3's level-1 SDP with -x1^2/2 added to the objective: it is still
    # unbounded along x2, but x1^2 no longer removes row 1, so the reduction
    # keeps rows {1, x1} with the singular block diag(1, 0) and the presolve
    # cannot show strict feasibility.  The loop decides it: the uncut steps
    # let the gap rise while z grows, until the improving-ray test fires.
    # The ray is PSD only up to a floor relative to its norm, so the ride
    # along it is shortened until A(y) clears the fixed floor.
    problem = _theta_sdp(corpus.grid(3, 3), 1)
    (square,) = problem.cells[(1, 1)]
    problem.objective[square] = -0.5
    sol = solve(problem)
    assert sol.status == "Unbounded" and sol.iterations > 0
    assert sol.min_eig >= _fixed_floor(problem)


def _sweep_draws():
    """(points, query, objective) of 300 seeded random rational point sets.

    Each draw picks the dimension (2 or 3), 4-14 distinct points, a query
    and integer objective coefficients in [-3, 3] with 0 replaced by 1;
    coordinates are p/q with |p| <= 5 and 1 <= q <= 4.
    """
    rng = random.Random(11)

    def point(dim):
        return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim))

    for _ in range(300):
        dim = rng.choice((2, 3))
        n = rng.randint(4, 14)
        points = set()
        while len(points) < n:
            points.add(point(dim))
        query = point(dim)
        objective = tuple(rng.randint(-3, 3) or 1 for _ in range(dim))
        yield PointSet(dim, sorted(points)), query, objective


def test_seeded_sweep_decides_membership_and_level_one():
    # Membership queries whose PSD section is empty, and level-1 SDPs whose
    # TH1 is unbounded, are decided only when X or z may grow along a ray,
    # which raises the gap <Z, X>.  Draw 284 (8 points in R^3) still ends at
    # IterLimit: its objective passes 1e22 at a PSD A(y), but neither the
    # presolve nor the improving-ray test decides it.
    iter_limits = []
    for draw, (points, query, objective) in enumerate(_sweep_draws()):
        try:
            th1_membership(quadric_space_from_points(points), query)
        except SolverError as exc:
            pytest.fail(f"draw {draw}: {exc}")
        problem = _theta_sdp(points, 1, objective)
        sol = solve(problem)
        if sol.status == "IterLimit":
            iter_limits.append(draw)
        if sol.status == "Unbounded":
            assert sol.min_eig >= _fixed_floor(problem), draw
    assert len(iter_limits) <= 1, iter_limits


def test_reduction_waits_until_a_coordinate_has_one_sign():
    # max w over [[1, w, w], [w, a, 0], [w, 0, b - 3a]] PSD, unbounded along
    # w = t, a = 2t^2, b = 8t^2.  b removes row 2 first; only then are a's
    # remaining entries of one sign, and a removes row 1.
    cells = {
        (0, 0): {0: 1.0},
        (0, 1): {1: 1.0},
        (0, 2): {1: 1.0},
        (1, 1): {2: 1.0},
        (2, 2): {2: -3.0, 3: 1.0},
    }
    problem = problem_from(3, 4, cells, {1: 1.0})
    sol = solve(problem)
    assert sol.status == "Unbounded" and sol.iterations == 0
    assert np.linalg.eigvalsh(_assembled(problem, sol.y))[0] > 0


def test_reduction_without_a_witness_leaves_the_loop():
    # max y1 over [[1, y1], [y1, y2]] PSD with 1 - y2 >= 0: y2 has diagonal
    # entries of both signs, so it forces no row to vanish; the optimum is 1
    mixed = problem_from(
        3, 3, {(0, 0): {0: 1.0}, (0, 1): {1: 1.0}, (1, 1): {2: 1.0}, (2, 2): {0: 1.0, 2: -1.0}},
        {1: 1.0},
    )
    # max y1 over [[1, y1], [y1, 1]] and y2 >= 0: y2 removes row 2, but y1
    # keeps its entries, so the dual stays feasible; the optimum is 1
    apart = problem_from(
        3, 3, {(0, 0): {0: 1.0}, (1, 1): {0: 1.0}, (0, 1): {1: 1.0}, (2, 2): {2: 1.0}}, {1: 1.0}
    )
    for problem in (mixed, apart):
        sol = solve(problem)
        assert sol.status == "Optimal" and sol.iterations > 0
        assert abs(sol.objective - 1.0) <= 1e-6


def test_zero_coefficients_count_as_absent():
    # a zero entry of the x1^2 coordinate off the diagonal would block the
    # reduction if it counted, and a zero entry on an untouched diagonal cell
    # would hide that cell from the infeasibility rule
    problem = _theta_sdp(corpus.grid(3, 3), 1)
    (square,) = problem.cells[(1, 1)]
    problem.cells[(0, 1)] = {**problem.cells[(0, 1)], square: 0.0}
    sol = solve(problem)
    assert sol.status == "Unbounded" and sol.iterations == 0
    p = problem_from(2, 2, {(0, 0): {0: -1.0, 1: 0.0}, (0, 1): {1: 1.0}, (1, 1): {0: 2.0}}, {1: 4.0})
    sol = solve(p)
    assert sol.status == "Infeasible" and sol.iterations == 0


def test_untouched_negative_diagonal_is_infeasible_before_the_loop():
    # the PSD section of th1_membership(["x1^2 - 2*x2^2", "x1*x2"]) at (1, 2):
    # F0 = diag(-1, 2) and y_1 sits off the diagonal, so A(y)_00 = -1 for
    # every y and E_00 certifies it
    p = problem_from(2, 2, {(0, 0): {0: -1.0}, (0, 1): {1: 1.0}, (1, 1): {0: 2.0}}, {1: 4.0})
    sol = solve(p)
    assert sol.status == "Infeasible" and sol.iterations == 0
    cert = np.array(sol.certificate)
    assert cert.tolist() == [[1.0, 0.0], [0.0, 0.0]]
    assert np.sum(cert * np.diag([-1.0, 2.0])) < 0
    # a diagonal that some coordinate touches is left to the loop
    touched = problem_from(2, 2, {(0, 0): {0: -1.0, 1: 1.0}, (1, 1): {0: 2.0}}, {1: -1.0})
    sol = solve(touched)
    assert sol.status == "Optimal" and sol.iterations > 0
    assert abs(sol.objective + 1.0) <= 1e-6


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
    for bad in (
        {"max_iter": -1},
        {"max_iter": 0},
        {"feas_tol": math.nan},
        {"gap_tol": math.inf},
        {"feas_tol": 1e-13},
        {"gap_tol": 1e-300},
    ):
        with pytest.raises(InputError):
            SolverOptions(**bad)
    SolverOptions(feas_tol=1e-12, gap_tol=1e-12)  # the floor itself is accepted


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
    sphere = build_moment_template(buchberger_moller(PointSet(3, corpus.SPHERE_OVERFLOW)), 2)
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
    got = _tri_solve(factor, _block_inverses(factor), rhs, transpose=transpose)
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


def test_sphere_overflow_points_level_two():
    weights = (-1, 3, -1)
    ring = buchberger_moller(PointSet(3, corpus.SPHERE_OVERFLOW))
    objective = {Monomial.variable(i + 1, 3): c for i, c in enumerate(weights)}
    values = {}
    for k in (1, 2):
        sol = solve(build_theta_sdp(build_moment_template(ring, k), objective))
        assert sol.status in ("Optimal", "NearOptimal")
        values[k] = sol.objective
    best = max(sum(c * x for c, x in zip(weights, p)) for p in corpus.SPHERE_OVERFLOW)
    assert float(best) - 1e-6 <= values[2] <= values[1] + 1e-6


def test_sphere_overflow_level_two_stays_optimal():
    # Side 9, 13 free coordinates, ||X|| about 1.2e3, so <F_i, X> rounds at
    # about 4e-8.  While rel_d was scaled by 1 + ||c|| only, that rounding
    # floor sat just under feas_tol: the run ended Optimal at iteration 13,
    # and a change in the last bits of the iteration (np.vdot for the inner
    # products, or one batched inverse for the triangular solves) sent it to
    # NearOptimal after 200 iterations.  rel_d is now scaled by ||X|| too.
    problem = _theta_sdp(PointSet(3, corpus.SPHERE_OVERFLOW), 2, (-1, 3, -1))
    assert (problem.side, problem.y_dim - len(problem.fixed)) == (9, 13)
    sol = solve(problem)
    assert sol.status == "Optimal" and sol.iterations <= 13


@pytest.mark.parametrize("toward", [math.inf, -math.inf])
@pytest.mark.parametrize("coordinate", [1, 2, 3])
def test_sphere_overflow_level_two_survives_one_ulp(coordinate, toward):
    # One objective coefficient moved by one unit in the last place: with
    # rel_d scaled by 1 + ||c|| only, three of these six took 16, 20 and 93
    # iterations.
    problem = _theta_sdp(PointSet(3, corpus.SPHERE_OVERFLOW), 2, (-1, 3, -1))
    problem.objective[coordinate] = math.nextafter(problem.objective[coordinate], toward)
    sol = solve(problem)
    assert sol.status == "Optimal" and sol.iterations <= 13


def test_sweep_draw_281_is_optimal_at_level_two():
    # 7 points in R^3: the level-2 SDP converges to 8.3333 with min_eig
    # 1e-13, but ||X|| is large enough that a dual residual scaled by
    # 1 + ||c|| alone never fell under feas_tol, and it ended IterLimit.
    points, _, objective = next(itertools.islice(_sweep_draws(), 281, None))
    sol = solve(_theta_sdp(points, 2, objective))
    assert sol.status == "Optimal"
    assert abs(sol.objective - 25 / 3) <= 1e-6


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
