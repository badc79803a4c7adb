"""Acceptance suite: ten end-to-end criteria with stated tolerances.

Each test prints one `[acceptance] criterion N: PASS` line (visible with
`pytest -s`); a failing criterion fails its test in the ordinary way.
"""

from __future__ import annotations

import math
from fractions import Fraction

import corpus
import oracles
from thetabody.combopt import Graph, cut_theta, stable_set_theta
from thetabody.exactalg import buchberger_moller
from thetabody.geomexact import (
    classify_01,
    facet_vertex_report,
    is_exact,
    theta_rank_upper_bound,
)
from thetabody.momentsdp import assemble, build_moment_template, build_theta_sdp
from thetabody.quadrics import (
    has_convex_quadric,
    quadric_space_from_generators,
    quadric_space_from_points,
    th1_membership,
)
from thetabody.sdpsolve import SolverOptions, solve

TIGHT = SolverOptions(gap_tol=1e-10, feas_tol=1e-10)


def C(n):
    return Graph(n, corpus.cycle_edges(n))


def _report(n, detail):
    print(f"[acceptance] criterion {n}: PASS — {detail}")


def test_criterion_01_c5_level_one_theta():
    value = stable_set_theta(C(5), 1).value
    target = math.sqrt(5)
    assert abs(value - target) <= 1e-4, f"got {value}, want sqrt(5)={target}"
    _report(1, f"level-1 value {value:.7f} matches sqrt(5) within 1e-4")


def test_criterion_02_odd_cycles_level_two():
    for n, alpha in ((5, 2.0), (7, 3.0)):
        value = stable_set_theta(C(n), 2).value
        assert abs(value - alpha) <= 1e-4, f"C{n}: got {value}, want {alpha}"
    _report(2, "level-2 values of C5 and C7 hit the stability numbers 2 and 3")


def test_criterion_03_perfect_graphs_level_one():
    cases = []
    for m in range(1, 5):
        cases.append((Graph(2 * m, corpus.complete_bipartite_edges(m, m)),
                      f"K{m},{m}"))
    for n in range(2, 7):
        cases.append((Graph(n, corpus.complete_edges(n)), f"K{n}"))
    for graph, name in cases:
        value = stable_set_theta(graph, 1).value
        alpha = oracles.brute_force_alpha(graph.n, graph.edges)
        assert abs(value - alpha) <= 1e-4, f"{name}: got {value}, want {alpha}"
    _report(3, f"level-1 value equals brute-force stability number on "
               f"{len(cases)} perfect graphs")


def test_criterion_04_cut_model():
    k3 = Graph(3, corpus.complete_edges(3))
    v1 = cut_theta(k3, None, 1).value
    assert abs(v1 - 3.0) <= 1e-6, f"K3 level 1: got {v1}"
    v2 = cut_theta(k3, None, 2).value
    maxcut = oracles.brute_force_max_cut(3, k3.edges)
    assert abs(v2 - maxcut) <= 1e-4, f"K3 level 2: got {v2}, want {maxcut}"
    v5 = cut_theta(C(5), None, 2).value
    assert abs(v5 - 5.0) <= 1e-4, f"C5 level 2: got {v5}"
    _report(4, f"cut values K3: {v1:.6f} then {v2:.4f}; C5 level 2 stays "
               f"at {v5:.4f}")


def test_criterion_05_two_level_certification():
    for d in range(1, 5):
        assert is_exact(corpus.cube(d)).exact, f"cube({d})"
        assert is_exact(corpus.cross_polytope(d)).exact, f"cross({d})"
    report = is_exact(corpus.quad4())
    assert not report.exact
    assert report.failing is not None and report.failing.level_count == 3
    c5_stables = corpus.stable_set_points(5, corpus.cycle_edges(5))
    assert theta_rank_upper_bound(c5_stables) == 2
    _report(5, "cubes/cross-polytopes (d<=4) certified exact; the four-point "
               "counterexample shows a 3-value facet; C5 stable sets bound 2")


def test_criterion_06_zero_one_classification():
    for cls in classify_01(2):
        assert cls.exact, cls
    classes = classify_01(3)
    assert len(classes) == 8, f"expected 8 affine classes, got {len(classes)}"
    split = sorted((c.size, c.exact) for c in classes)
    assert split == [
        (4, True), (5, False), (5, True), (6, False), (6, True), (6, True),
        (7, False), (8, True),
    ], split
    _report(6, "8 full-dimensional affine classes in the 3-cube "
               "(5 exact / 3 not); every 2-dimensional class exact")


def test_criterion_07_facet_vertex_bounds():
    exact_sets = []
    for d in range(1, 5):
        exact_sets += [corpus.cube(d), corpus.cross_polytope(d), corpus.simplex(d)]
    exact_sets += [corpus.tri3(), corpus.hypersimplex_2_4(), corpus.segment01()]
    for ps in exact_sets:
        r = facet_vertex_report(ps)
        assert r.exact, ps
        assert r.facet_count <= r.bound and r.vertex_count <= r.bound, ps
    cube3 = facet_vertex_report(corpus.cube(3))
    cross3 = facet_vertex_report(corpus.cross_polytope(3))
    assert cube3.vertex_count == cube3.bound == 8
    assert cross3.facet_count == cross3.bound == 8
    _report(7, f"{len(exact_sets)} exact sets stay within the 2^d facet and "
               "vertex bounds; 3-cube and 3-cross-polytope attain them")


def test_criterion_08_quadric_certificates():
    space = quadric_space_from_points(corpus.quad4())
    witness = has_convex_quadric(space, TIGHT)
    assert witness.exists and witness.verified
    ends = sorted(float(q.a[0][0]) for q in witness.extremes)
    lo, hi = 0.5 - math.sqrt(3) / 4, 0.5 + math.sqrt(3) / 4
    assert abs(ends[0] - lo) <= 1e-6 and abs(ends[1] - hi) <= 1e-6, ends
    parabolas = quadric_space_from_generators(3, ["x1^2 - x3", "x2^2 - x3"])
    assert th1_membership(parabolas, (1, 0, 0)).status == "Outside"
    assert th1_membership(parabolas, (0, 0, 1)).status == "Inside"
    assert th1_membership(parabolas, (1, 1, 1)).status in ("Inside", "Borderline")
    _report(8, f"feasible-interval endpoints {ends[0]:.7f}, {ends[1]:.7f} "
               "match 1/2 -+ sqrt(3)/4; membership triple as certified")


def test_criterion_09_fourteen_point_curve_template():
    ring = buchberger_moller(corpus.curve14())
    expected_basis = ["1", "x1", "x2", "x1^2", "x1*x2", "x2^2"]
    got = [str(ring.basis[i]) for i in range(6)]
    assert got == expected_basis, (
        "FOURTEEN-POINT CURVE BASIS MISMATCH: the degree-<=2 slice came out "
        f"as {got} instead of {expected_basis}; the level-2 template cannot "
        "be compared cell-by-cell"
    )
    template = build_moment_template(ring, 2)
    pattern = [
        ["1", "x1", "x2", "x1^2", "x1*x2", "x2^2"],
        ["x1", "x1^2", "x1*x2", "x1^3", "1", "x1*x2^2"],
        ["x2", "x1*x2", "x2^2", "1", "x1*x2^2", "x2^3"],
        ["x1^2", "x1^3", "1", "x1^4", "x1", "x2"],
        ["x1*x2", "1", "x1*x2^2", "x1", "x2", "x1*x2^3"],
        ["x2^2", "x1*x2^2", "x2^3", "x2", "x1*x2^3", "x2^4"],
    ]
    for i in range(6):
        for j in range(6):
            cell = template.cell(i, j)
            want = {template.y_labels.index(pattern[i][j]): Fraction(1)}
            assert cell == want, (
                f"cell ({i},{j}): expected the single moment "
                f"y[{pattern[i][j]}], got {cell}"
            )
    _report(9, "degree-2 basis and all 36 template cells match the expected "
               "symbolic pattern exactly")


def test_criterion_10_property_suites():
    # (a) rank-one moment matrices of variety points are exactly feasible
    sets = [corpus.segment01(), corpus.quad4(), corpus.tri3(), corpus.cube(2),
            corpus.curve14()]
    for ps in sets:
        ring = buchberger_moller(ps)
        for k in (1, 2):
            template = build_moment_template(ring, k)
            for s in range(len(ps)):
                xi_full = ring.evaluate_basis(s)
                y = [xi_full[l] for l in range(template.y_dim)]
                matrix = assemble(template, y)
                xi = [xi_full[l] for l in template.row_indices]
                for i in range(template.side):
                    for j in range(template.side):
                        assert matrix[i][j] == xi[i] * xi[j]

    # (b) optima are monotone along the hierarchy
    stable = [stable_set_theta(C(5), k).value for k in (1, 2)]
    assert stable[0] >= stable[1] - 1e-6
    cuts = [cut_theta(C(5), None, k).value for k in (1, 2, 3)]
    assert cuts[0] >= cuts[1] - 1e-6 and cuts[1] >= cuts[2] - 1e-6

    # (c) solver agrees with analytic / dense-grid oracles on small SDPs
    def disk_problem(c1, c2):
        from thetabody.momentsdp import SdpProblem
        cells = {(0, 0): {0: 1.0}, (1, 1): {0: 1.0}, (2, 2): {0: 1.0},
                 (0, 1): {1: 1.0}, (1, 2): {2: 1.0}}
        return SdpProblem(side=3, y_dim=3, cells=cells,
                          objective={1: c1, 2: c2}, fixed={0: 1.0})

    for c1, c2 in [(1.0, 0.0), (1.0, 1.0), (0.3, -0.7), (-2.0, 1.0)]:
        got = solve(disk_problem(c1, c2), TIGHT).objective
        assert abs(got - math.hypot(c1, c2)) <= 1e-5

    def box_problem(c):
        from thetabody.momentsdp import SdpProblem
        return SdpProblem(side=2, y_dim=2,
                          cells={(0, 0): {0: 1.0}, (0, 1): {1: 1.0},
                                 (1, 1): {0: 1.0}},
                          objective={1: c}, fixed={0: 1.0})

    for c in (1.0, -1.0, 0.5):
        got = solve(box_problem(c), TIGHT).objective
        assert abs(got - abs(c)) <= 1e-5

    # (d) normal forms are exact: p - NF(p) vanishes on the variety
    from thetabody.exactalg import Monomial
    for ps in sets:
        ring = buchberger_moller(ps)
        x1 = Monomial.variable(1, ps.dim)
        probes = [
            {x1 * x1: Fraction(3, 2)},
            {Monomial.unit(ps.dim): Fraction(1),
             Monomial.variable(ps.dim, ps.dim): Fraction(-2)},
        ]
        for poly in probes:
            nf = ring.normal_form(poly)
            for s, point in enumerate(ps.points):
                direct = sum(c * m.evaluate(point) for m, c in poly.items())
                via_basis = sum(
                    c * ring.evaluate_basis(s)[l] for l, c in nf.items()
                )
                assert direct == via_basis

    _report(10, "rank-one feasibility exact on 5 varieties; hierarchy "
                "monotone; solver matches closed forms to 1e-5; normal "
                "forms reproduce evaluations exactly")
