"""Tests for graph parsing, combinatorial bases, and theta relaxations."""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import corpus
import oracles
from thetabody import combopt
from thetabody.errors import InputError, ResourceLimitError
from thetabody.combopt import (
    Graph,
    automorphism_group,
    coordinate_orbits,
    cut_theta,
    enumerate_odd_cycle_free,
    enumerate_stable_sets,
    moment_template,
    parse_weights,
    stable_set_theta,
)
from thetabody.exactalg import Monomial
from thetabody.momentsdp import assemble, build_theta_sdp
from thetabody.sdpsolve import PSD_TOL, SolverOptions, solve


def C(n):
    return Graph(n, corpus.cycle_edges(n))


def K(n):
    return Graph(n, corpus.complete_edges(n))


def Kmn(m, n):
    return Graph(m + n, corpus.complete_bipartite_edges(m, n))


PETERSEN = Graph(10, corpus.petersen_edges())
# the cut weights of the benchmark's K5w operation, in edge order
K5W = [3, 1, 4, 1, 5, 2, 6, 5, 3, 5]


# ---------------------------------------------------------------- graphs

def test_graph_normalization():
    g = Graph(4, [(2, 1), (1, 2), (3, 4)])
    assert g.edges == ((1, 2), (3, 4))  # dedup + sorted pairs
    with pytest.raises(InputError):
        Graph(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph(3, [(1, 4)])


def test_dimacs_round_trip():
    text = """c five cycle
p edge 5 5
e 1 2
e 2 3
e 3 4
e 4 5
e 5 1
"""
    g = Graph.from_dimacs(text)
    assert g == C(5)
    with pytest.raises(InputError):
        Graph.from_dimacs("e 1 2\n")  # edge before problem line
    with pytest.raises(InputError):
        Graph.from_dimacs("p edge 3 1\nq 1 2\n")


def test_graph_json_round_trip():
    g = C(5)
    assert Graph.from_json(g.to_json()) == g


@pytest.mark.parametrize("obj", [
    {"n": 3, "edges": ["12", "23"]},  # strings would be read digit by digit
    {"n": 3, "edges": [[1.7, 2], [2, 3]]},  # int() would truncate 1.7
    {"n": 3, "edges": [[1, 2], [2, 3, 3]]},  # a third endpoint would be dropped
    {"n": 3, "edges": [[1]]},
    {"n": 3, "edges": [(1, 2)]},
    {"n": 3, "edges": [[True, 2]]},
    {"n": 3, "edges": [["1", "2"]]},
    {"n": 3, "edges": [[1, float("nan")]]},
    {"n": 3, "edges": "12"},
    {"n": 3.5, "edges": []},
    {"n": "3", "edges": []},
    {"n": None, "edges": []},
])
def test_graph_json_rejects_malformed_edges(obj):
    with pytest.raises(InputError, match="integral"):
        Graph.from_json(obj)


def test_graph_json_accepts_integral_floats():
    assert Graph.from_json({"n": 3.0, "edges": [[1.0, 2], [2, 3.0]]}) == Graph(3, [(1, 2), (2, 3)])


def test_graph_file_sniffing(tmp_path):
    j = tmp_path / "g.json"
    j.write_text('{"n": 3, "edges": [[1, 2]]}')
    assert Graph.from_file(str(j)).m == 1
    d = tmp_path / "g.col"
    d.write_text("p edge 3 1\ne 1 2\n")
    assert Graph.from_file(str(d)).m == 1


# ---------------------------------------------------------------- enumeration

def test_stable_set_counts_c5():
    assert len(enumerate_stable_sets(C(5), 1).elements) == 6
    assert len(enumerate_stable_sets(C(5), 2).elements) == 11
    assert len(enumerate_stable_sets(K(3), 2).elements) == 4


def test_stable_sets_sorted_and_subset_closed():
    basis = enumerate_stable_sets(C(5), 2)
    elems = basis.elements
    assert elems[0] == ()
    assert elems == sorted(elems, key=lambda e: (len(e), e))
    members = set(elems)
    for e in elems:
        for i in range(len(e)):
            assert e[:i] + e[i + 1 :] in members


def test_stable_sets_match_brute_force():
    for n, edges in [
        (5, corpus.cycle_edges(5)),
        (6, corpus.complete_bipartite_edges(3, 3)),
        (4, corpus.path_edges(4)),
    ]:
        basis = enumerate_stable_sets(Graph(n, edges), n)
        expected = oracles.brute_force_stable_sets(n, edges)
        got = [tuple(basis.ground[i] for i in e) for e in basis.elements]
        assert sorted(got) == sorted(expected)


def test_odd_cycle_free_counts():
    # triangle: every proper edge subset is bipartite, the full set is not
    assert len(enumerate_odd_cycle_free(K(3), 3).elements) == 7
    # C5 has no odd cycle among subsets of size <= 4
    assert len(enumerate_odd_cycle_free(C(5), 4).elements) == 31
    # bipartite graph: every subset qualifies
    assert len(enumerate_odd_cycle_free(Kmn(2, 3), 6).elements) == 64


def test_odd_cycle_free_matches_brute_force():
    g = Graph(5, corpus.cycle_edges(5) + [(1, 3)])
    basis = enumerate_odd_cycle_free(g, g.m)
    expected = oracles.brute_force_odd_cycle_free(g.n, list(g.edges))
    assert sorted(basis.elements) == sorted(expected)


def test_odd_cycle_free_order_matches_is_bipartite_filter():
    # the same elements in the same order as extending level by level and
    # keeping the extensions whose edge subgraph networkx calls bipartite
    rng = random.Random(29)
    for n, m in [(5, 8), (6, 11), (7, 14), (7, 21)]:
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        g = Graph(n, rng.sample(pairs, m))
        expected, frontier = [], [()]
        while frontier and len(frontier[0]) <= 4:
            expected += frontier
            frontier = [
                s + (e,)
                for s in frontier
                for e in range(s[-1] + 1 if s else 0, g.m)
                if oracles.is_bipartite_nx(n, [g.edges[f] for f in s + (e,)])
            ]
        assert enumerate_odd_cycle_free(g, 4).elements == expected


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_stable_sets(Kmn(8, 8), 8, cap=50)
    with pytest.raises(ResourceLimitError):
        enumerate_odd_cycle_free(Kmn(4, 4), 16, cap=100)
    with pytest.raises(InputError):
        enumerate_stable_sets(Kmn(2, 2), 2, cap=0)


@pytest.mark.parametrize("n, cap", [(1000, 1050), (100_000, 1000)])
def test_enumeration_cap_bounds_memory(n, cap):
    # 1,000 isolated vertices have 499,500 stable pairs (49 MiB when a level
    # was built whole before the cap test); 100,000 vertices pass the cap with
    # their singletons, before their adjacency sets (21 MiB) are needed
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            enumerate_stable_sets(Graph(n, []), 2, cap=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**21


# ---------------------------------------------------------------- templates

def _cells_by_label(t):
    return {
        tuple(sorted((t.row_labels[i], t.row_labels[j]))): {
            t.y_labels[l]: c for l, c in vec.items()
        }
        for (i, j), vec in t.cells.items()
    }


@pytest.mark.parametrize(
    "graph, k",
    [(Graph(3, corpus.path_edges(3)), 1), (C(5), 2), (C(6), 2), (C(7), 2)],
    ids=["P3-1", "C5-2", "C6-2", "C7-2"],
)
def test_stable_template_matches_ring_route(graph, k):
    # the combinatorial template equals the one from the quotient ring; the
    # two routes may order rows of equal degree differently
    from thetabody.exactalg import buchberger_moller
    from thetabody.momentsdp import build_moment_template

    comb = moment_template(enumerate_stable_sets(graph, 2 * k), k)
    ring = buchberger_moller(corpus.stable_set_points(graph.n, list(graph.edges)))
    ringt = build_moment_template(ring, k)
    assert sorted(comb.row_labels) == sorted(ringt.row_labels)
    assert sorted(comb.y_labels) == sorted(ringt.y_labels)
    assert _cells_by_label(comb) == _cells_by_label(ringt)


def test_template_ignores_over_enumeration():
    g = C(7)
    exact = moment_template(enumerate_stable_sets(g, 2), 1)
    over = moment_template(enumerate_stable_sets(g, 4), 1)
    assert over.y_dim == exact.y_dim
    assert over.y_labels == exact.y_labels
    assert over.cells == exact.cells
    assert over.linear_index == exact.linear_index


def test_template_shared_cells_and_zero_cells():
    g = C(5)
    t = moment_template(enumerate_stable_sets(g, 2), 1)
    labels = t.y_labels
    i13 = labels.index("x1*x3")
    # rows: 1, x1..x5; cell (x1, x3) is the union coordinate
    assert t.cell(1, 3) == {i13: Fraction(1)}
    # (0, {1,3}-row) shares with... row of x1*x3 is not a row at level 1, so
    # check sharing between (0,1) and (1,1): both unions equal {1}
    assert t.cell(0, 1) is t.cell(1, 1)
    # adjacent pair is the zero cell
    assert t.cell(1, 2) == {}


def test_template_requires_enough_enumeration():
    basis = enumerate_stable_sets(C(5), 1)  # only singletons
    with pytest.raises(InputError):
        moment_template(basis, 1)


# ---------------------------------------------------------------- stable theta

def test_stable_theta_bipartite_complete():
    r = stable_set_theta(Kmn(3, 3), 1)
    assert r.status == "Optimal"
    assert abs(r.value - 3.0) <= 1e-4


def test_stable_theta_c5_level_one_is_lovasz():
    r = stable_set_theta(C(5), 1)
    assert r.status == "Optimal"
    assert abs(r.value - math.sqrt(5)) <= 1e-5
    assert abs(r.value - oracles.odd_cycle_lovasz_theta(5)) <= 1e-5


def test_stable_theta_c5_level_two_is_alpha():
    r = stable_set_theta(C(5), 2)
    assert r.status == "Optimal"
    assert abs(r.value - 2.0) <= 1e-5


def test_stable_theta_monotone_and_sandwiched():
    for g in [C(5), C(7), Graph(6, corpus.cycle_edges(5) + [(5, 6)])]:
        alpha = oracles.brute_force_alpha(g.n, list(g.edges))
        values = [stable_set_theta(g, k).value for k in (1, 2)]
        assert values[1] <= values[0] + 1e-6
        assert values[1] >= alpha - 1e-5
        assert values[0] >= alpha - 1e-5


def test_stable_theta_perfect_graphs_exact_at_level_one():
    cases = [K(4), Kmn(2, 4), Graph(4, corpus.path_edges(4)), C(6), C(4)]
    for g in cases:
        alpha = oracles.brute_force_alpha(g.n, list(g.edges))
        r = stable_set_theta(g, 1)
        assert abs(r.value - alpha) <= 1e-4, (g, r.value, alpha)


def test_stable_theta_odd_cycles_level_one_closed_form():
    for n in (5, 7, 9):
        r = stable_set_theta(C(n), 1)
        assert abs(r.value - oracles.odd_cycle_lovasz_theta(n)) <= 1e-4


def test_stable_theta_projection_dimensions():
    r = stable_set_theta(C(5), 1)
    assert len(r.x) == 5
    # symmetric graph: optimal projection is uniform at theta/n
    assert all(abs(v - r.value / 5) <= 1e-4 for v in r.x)


# ---------------------------------------------------------------- cut theta

def test_cut_theta_triangle():
    r1 = cut_theta(K(3), None, 1)
    assert r1.status == "Optimal"
    assert abs(r1.value - 3.0) <= 1e-6  # level 1 is the unit cube
    r2 = cut_theta(K(3), None, 2)
    assert abs(r2.value - 2.0) <= 1e-4  # level 2 reaches the max cut
    assert oracles.brute_force_max_cut(3, corpus.complete_edges(3)) == 2


def test_cut_theta_c5_level_two_still_cube():
    # unions of two 2-edge sets cannot cover the 5-cycle, so no constraint binds
    r = cut_theta(C(5), None, 2)
    assert abs(r.value - 5.0) <= 1e-4


def test_cut_theta_c5_level_three_below_cube():
    r = cut_theta(C(5), None, 3)
    assert r.status == "Optimal"
    maxcut = oracles.brute_force_max_cut(5, corpus.cycle_edges(5))
    assert maxcut == 4
    assert maxcut - 1e-5 <= r.value <= 5.0 - 1e-3


def test_cut_theta_bipartite_level_one_is_edge_count():
    g = Kmn(2, 3)
    r = cut_theta(g, None, 1)
    assert abs(r.value - g.m) <= 1e-6
    assert oracles.brute_force_max_cut(g.n, list(g.edges)) == g.m


def test_cut_theta_weights():
    g = K(3)
    r = cut_theta(g, ["0", "0", "0"], 2)
    assert r.value == 0.0  # identically-zero objective stays exactly zero
    r2 = cut_theta(g, {"1,2": "1/2", "1,3": 2, "2,3": 1}, 2)
    expected = oracles.brute_force_max_cut(3, list(g.edges), [Fraction(1, 2), 2, 1])
    assert abs(r2.value - float(expected)) <= 1e-4
    with pytest.raises(InputError):
        cut_theta(g, ["-1", "1", "1"], 1)
    with pytest.raises(InputError):
        cut_theta(g, ["1", "1"], 1)
    with pytest.raises(InputError):
        parse_weights({"1,2": 1}, g)


def test_cut_theta_monotone_in_level():
    g = K(3)
    values = [cut_theta(g, None, k).value for k in (1, 2, 3)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-6


def test_theta_result_report_shape():
    r = stable_set_theta(K(3), 1, options=SolverOptions(gap_tol=1e-9))
    payload = r.to_json()
    assert payload["kind"] == "StableSets"
    assert payload["matrixSide"] == 4
    assert payload["yDim"] == 4
    # S_3 permutes the three singletons, which form one free orbit
    assert payload["groupOrder"] == 6
    assert payload["yOrbits"] == 1
    assert abs(payload["value"] - 1.0) <= 1e-5


# ---------------------------------------------------------------- symmetry

def _model(graph, model, weights):
    """Basis and objective exactly as stable_set_theta / cut_theta build them."""
    if model == "stable":
        return enumerate_stable_sets, {
            Monomial.variable(v, graph.n): 1 for v in range(1, graph.n + 1)
        }, None
    w = parse_weights(weights, graph)
    return enumerate_odd_cycle_free, {
        Monomial.variable(e + 1, graph.m): w[e] for e in range(graph.m)
    }, w


def _relax(graph, model, weights, k):
    if model == "stable":
        return stable_set_theta(graph, k)
    return cut_theta(graph, weights, k)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "graph, model, weights",
    [(C(n), "stable", None) for n in range(5, 12)]
    + [
        (PETERSEN, "stable", None),
        (K(5), "cut", None),
        (K(5), "cut", K5W),
        (C(7), "cut", None),
    ],
    ids=[f"C{n}" for n in range(5, 12)] + ["petersen", "cutK5", "cutK5w", "cutC7"],
)
def test_orbit_reduction_changes_no_result(graph, model, weights, k):
    enumerate_basis, objective, w = _model(graph, model, weights)
    basis = enumerate_basis(graph, 2 * k)
    template = moment_template(basis, k)
    full = solve(build_theta_sdp(template, objective))
    r = _relax(graph, model, weights, k)
    assert r.status == full.status
    assert r.solution.iterations == full.iterations
    assert abs(r.value - full.objective) <= 1e-9 * max(1.0, abs(full.objective))
    orbit = coordinate_orbits(basis, template.y_dim, automorphism_group(graph, w)[0])
    assert r.y_orbits == max(orbit)
    y = r.solution.y
    assert len(y) == template.y_dim and y[0] == 1.0
    first = {}
    for l, o in enumerate(orbit):
        assert y[l] == y[first.setdefault(o, l)]
    assert np.linalg.eigvalsh(assemble(template, y))[0] >= -PSD_TOL


def test_trivial_group_hands_solve_the_unreduced_problem(monkeypatch):
    rng = random.Random(3)
    edges = rng.sample(corpus.complete_edges(9), 14)
    cases = [(K(5), "cut", K5W, 1), (K(5), "cut", K5W, 2), (Graph(9, edges), "stable", None, 1)]
    seen = []
    real_solve = combopt.solve

    def capture(problem, options=None):
        seen.append(problem)
        return real_solve(problem, options)

    monkeypatch.setattr(combopt, "solve", capture)
    for graph, model, weights, k in cases:
        enumerate_basis, objective, w = _model(graph, model, weights)
        assert automorphism_group(graph, w) == ([], 1, True)
        r = _relax(graph, model, weights, k)
        assert r.group_order == 1 and r.y_orbits == r.template.y_dim - 1
        expected = build_theta_sdp(moment_template(enumerate_basis(graph, 2 * k), k), objective)
        assert seen.pop() == expected


@pytest.mark.parametrize(
    "graph, weights, order",
    [(C(n), None, 2 * n) for n in range(3, 10)]
    + [
        (PETERSEN, None, 120),
        (K(5), None, 120),
        (Kmn(2, 3), None, 12),
        (K(7), None, 5040),
        (Graph(6, []), None, 720),
        (K(5), K5W, 1),
        # weights 1, 2, 1, 2 around C4 (edges (1,2), (1,4), (2,3), (3,4)):
        # the half turn and the two reflections through edge midpoints
        (C(4), [1, 2, 2, 1], 4),
    ],
    ids=[f"C{n}" for n in range(3, 10)]
    + ["petersen", "K5", "K23", "K7", "edgeless6", "K5w", "C4w"],
)
def test_automorphism_group_orders(graph, weights, order):
    w = None if weights is None else [Fraction(x) for x in weights]
    generators, got, complete = automorphism_group(graph, w)
    assert got == order and complete
    weight = {e: (1 if w is None else w[i]) for i, e in enumerate(graph.edges)}
    for g in generators:
        assert sorted(g) == list(range(graph.n))
        image = {
            tuple(sorted((g[u - 1] + 1, g[v - 1] + 1))): x for (u, v), x in weight.items()
        }
        assert image == weight


@pytest.mark.parametrize(
    "graph, model, k",
    [(C(9), "stable", 2), (PETERSEN, "stable", 1), (K(5), "cut", 1), (C(7), "cut", 2)],
    ids=["C9-2", "petersen-1", "cutK5-1", "cutC7-2"],
)
def test_search_budget_keeps_values(monkeypatch, graph, model, k):
    full = _relax(graph, model, None, k)
    monkeypatch.setattr(combopt, "MAX_SEARCH_NODES", 1)
    cut = _relax(graph, model, None, k)
    assert cut.group_order < full.group_order
    assert full.to_json()["groupComplete"] is True
    assert cut.to_json()["groupComplete"] is False
    assert cut.y_orbits > full.y_orbits
    assert abs(cut.value - full.value) <= 1e-9 * abs(full.value)


def test_cut_k6_level_two_over_orbits():
    # 1,680 free y without the reduction (3.5 s on a 2-CPU Xeon); 15 orbits
    # with y_0's
    r = cut_theta(K(6), None, 2)
    assert r.status == "Optimal"
    assert r.solution.iterations <= 15
    assert abs(r.value - 9.0) <= 1e-6
    assert r.group_order == 720
    assert r.y_orbits == 14
