"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from thetabody import __version__, geomexact
from thetabody.cli import main
from thetabody.exactalg import PointSet
from thetabody.momentsdp import SdpProblem

C5_DIMACS = "c five cycle\np edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"
K3_DIMACS = "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


@pytest.fixture
def files(tmp_path):
    """Input corpus shared by the CLI tests, one file per format."""
    d = {}
    d["c5"] = tmp_path / "c5.col"
    d["c5"].write_text(C5_DIMACS)
    d["k3"] = tmp_path / "k3.col"
    d["k3"].write_text(K3_DIMACS)
    d["square"] = tmp_path / "square.json"
    d["square"].write_text(
        json.dumps({"dim": 2, "points": [[0, 0], [1, 0], [0, 1], [1, 1]]})
    )
    d["quad4"] = tmp_path / "quad4.json"
    d["quad4"].write_text(
        json.dumps({"dim": 2, "points": [[0, 0], [1, 0], [0, 1], [2, 2]]})
    )
    d["segment"] = tmp_path / "segment.json"
    d["segment"].write_text(json.dumps({"dim": 1, "points": [[0], [1]]}))
    d["curve14"] = tmp_path / "curve14.json"
    d["curve14"].write_text(
        json.dumps(
            {
                "dim": 2,
                "points": [
                    [str(s * t), f"1/{t * t}"] for t in range(1, 8) for s in (1, -1)
                ],
            }
        )
    )
    d["parabolas"] = tmp_path / "parabolas.json"
    d["parabolas"].write_text(
        json.dumps({"dim": 3, "generators": ["x1^2 - x3", "x2^2 - x3"]})
    )
    d["nogens"] = tmp_path / "nogens.json"
    d["nogens"].write_text(json.dumps({"dim": 3, "generators": []}))
    return d


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


# ------------------------------------------------------------------ theta

def test_theta_stable_c5_level1(files, capsys):
    code, report, err = run(capsys, "theta", "--graph", files["c5"], "--level", 1)
    assert code == 0
    assert report["subcommand"] == "theta"
    assert report["version"] == __version__
    assert abs(report["result"]["value"] - math.sqrt(5)) <= 1e-4
    assert report["result"]["status"] in ("Optimal", "NearOptimal")
    assert report["solver"]["iterations"] >= 1
    assert "value 2.23" in err
    digest = hashlib.sha256(files["c5"].read_bytes()).hexdigest()
    assert report["inputDigest"] == {"graph": digest}
    assert report["parameters"]["model"] == "stable"
    assert report["parameters"]["vertices"] == 5


def test_theta_stable_c5_level2(files, capsys):
    code, report, _ = run(capsys, "theta", "--graph", files["c5"], "--level", 2)
    assert code == 0
    assert abs(report["result"]["value"] - 2.0) <= 1e-4


def test_theta_cut_k3(files, capsys):
    code, report, _ = run(
        capsys, "theta", "--graph", files["k3"], "--model", "cut", "--level", 1
    )
    assert code == 0
    assert abs(report["result"]["value"] - 3.0) <= 1e-6
    code, report, _ = run(
        capsys, "theta", "--graph", files["k3"], "--model", "cut", "--level", 2
    )
    assert code == 0
    assert abs(report["result"]["value"] - 2.0) <= 1e-4


def test_theta_cut_weights_inline_and_file(files, capsys, tmp_path):
    code, report, _ = run(
        capsys,
        "theta", "--graph", files["k3"], "--model", "cut", "--level", 2,
        "--weights", '{"1,2": 2, "1,3": 1, "2,3": 1}',
    )
    assert code == 0
    assert abs(report["result"]["value"] - 3.0) <= 1e-4
    assert "weights" not in report["inputDigest"]  # inline literal, no file

    wfile = tmp_path / "w.json"
    wfile.write_text("[2, 1, 1]")
    code, report, _ = run(
        capsys,
        "theta", "--graph", files["k3"], "--model", "cut", "--level", 2,
        "--weights", str(wfile),
    )
    assert code == 0
    assert abs(report["result"]["value"] - 3.0) <= 1e-4
    assert report["parameters"]["weights"] == [2, 1, 1]
    assert "weights" in report["inputDigest"]


def test_theta_rejects_weights_for_stable(files, capsys):
    code, report, err = run(
        capsys, "theta", "--graph", files["k3"], "--weights", "[1,1,1]"
    )
    assert code == 2
    assert report is None
    assert "cut model" in err


# -------------------------------------------------------------- exactness

def test_exactness_square(files, capsys):
    code, report, err = run(capsys, "exactness", "--points", files["square"])
    assert code == 0
    assert report["result"]["exact"] is True
    assert report["result"]["rankBound"] == 1
    assert report["result"]["counts"]["withinBounds"] is True
    assert "exact at level one" in err


def test_exactness_quad4(files, capsys):
    code, report, _ = run(capsys, "exactness", "--points", files["quad4"])
    assert code == 0
    assert report["result"]["exact"] is False
    assert report["result"]["rankBound"] == 2
    assert len(report["result"]["failingFacet"]["values"]) == 3


def test_exactness_computes_facets_once(files, capsys, monkeypatch):
    points = PointSet.from_file(str(files["curve14"]))
    expected = geomexact.facet_vertex_report(points).to_json()
    real, calls = geomexact.facets, []
    monkeypatch.setattr(geomexact, "facets", lambda pts: calls.append(pts) or real(pts))
    code, report, _ = run(capsys, "exactness", "--points", files["curve14"])
    assert code == 0
    assert len(calls) == 1
    assert report["result"]["counts"] == expected


# ------------------------------------------------------------- classify01

def test_classify01_dim2(capsys):
    code, report, err = run(capsys, "classify01", "--dim", 2)
    assert code == 0
    assert report["result"]["classCount"] == 2
    assert report["result"]["exactCount"] == 2
    assert "2 affine classes" in err


def test_classify01_dim3(capsys):
    code, report, _ = run(capsys, "classify01", "--dim", 3)
    assert code == 0
    assert report["result"]["classCount"] == 8
    assert report["result"]["exactCount"] == 5
    assert report["parameters"] == {"dim": 3}


def test_classify01_bad_dim(capsys):
    code, report, err = run(capsys, "classify01", "--dim", 9)
    assert code == 2
    assert report is None


# -------------------------------------------------------------------- th1

def test_th1_generator_triple(files, capsys):
    for query, expected in [
        ("1,0,0", ["Outside"]),
        ("0,0,1", ["Inside"]),
        ("1,1,1", ["Inside", "Borderline"]),
    ]:
        code, report, err = run(
            capsys, "th1", "--gens", files["parabolas"], "--query", query
        )
        assert code == 0
        assert report["result"]["status"] in expected
        assert report["result"]["status"] in err


def test_th1_empty_generators(files, capsys):
    code, report, _ = run(
        capsys, "th1", "--gens", files["nogens"], "--query", "9,9,9"
    )
    assert code == 0
    assert report["result"]["status"] == "Inside"
    assert report["parameters"]["sliceDimension"] == 0


def test_th1_from_points(files, capsys):
    code, report, _ = run(
        capsys, "th1", "--points", files["quad4"], "--query", "5,5"
    )
    assert code == 0
    assert report["result"]["status"] == "Outside"
    code, report, _ = run(
        capsys, "th1", "--points", files["quad4"], "--query", "1/2,1/2"
    )
    assert code == 0
    assert report["result"]["status"] == "Inside"


def test_th1_input_errors(files, capsys, tmp_path):
    bad = tmp_path / "bad-gens.json"
    bad.write_text(json.dumps({"generators": ["x1"]}))  # dim missing
    code, _, err = run(capsys, "th1", "--gens", bad, "--query", "1")
    assert code == 2 and "dim" in err
    code, _, _ = run(
        capsys, "th1", "--points", files["quad4"], "--query", "1,2,3"
    )
    assert code == 2
    code, _, _ = run(
        capsys, "th1", "--points", files["quad4"], "--query", "1,oops"
    )
    assert code == 2


def test_th1_negative_query(capsys, tmp_path):
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps({"dim": 2, "generators": ["x1^2 + x2^2 - 1"]}))
    reports = []
    for argv in (["--query", "-1/2,3/4"], ["--query=-1/2,3/4"]):
        code, report, _ = run(capsys, "th1", "--gens", circle, *argv)
        assert code == 0
        reports.append(report)
    assert reports[0]["result"] == reports[1]["result"]
    assert reports[0]["parameters"]["query"] == ["-1/2", "3/4"]
    assert reports[0]["result"]["status"] == "Inside"


# ------------------------------------------------------------ moment-dump

def test_moment_dump_segment(files, capsys):
    code, report, err = run(
        capsys, "moment-dump", "--points", files["segment"], "--level", 1
    )
    assert code == 0
    assert len(report["result"]["rows"]) == 2
    assert "2x2 matrix" in err


def test_moment_dump_curve(files, capsys):
    code, report, _ = run(
        capsys, "moment-dump", "--points", files["curve14"], "--level", 2
    )
    assert code == 0
    assert len(report["result"]["rows"]) == 6
    assert len(report["result"]["y"]) == 12


# ------------------------------------------------------------------ solve

def test_solve_roundtrip(files, capsys, tmp_path):
    problem = SdpProblem(
        side=3,
        y_dim=3,
        cells={
            (0, 0): {0: 1.0},
            (1, 1): {0: 1.0},
            (2, 2): {0: 1.0},
            (0, 1): {1: 1.0},
            (1, 2): {2: 1.0},
        },
        objective={1: 1.0, 2: 1.0},
        fixed={0: 1.0},
    )
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(problem.to_json()))
    code, report, err = run(capsys, "solve", "--sdp", path)
    assert code == 0
    assert report["result"]["status"] in ("Optimal", "NearOptimal")
    assert abs(report["result"]["objective"] - math.sqrt(2)) <= 1e-5
    assert report["solver"]["iterations"] >= 1


def test_solve_infeasible_is_conclusive(capsys, tmp_path):
    problem = SdpProblem(
        side=1,
        y_dim=1,
        cells={(0, 0): {0: -1.0}},
        objective={},
        fixed={0: 1.0},
    )
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(problem.to_json()))
    code, report, _ = run(capsys, "solve", "--sdp", path)
    assert code == 0
    assert report["result"]["status"] == "Infeasible"


def test_solve_non_finite_data_exits_2(capsys, tmp_path):
    for bad in (float("nan"), 1e308):
        problem = {
            "side": 3, "yDim": 3, "objective": {"1": 1, "2": 1}, "fixed": {"0": 1},
            "cells": [
                {"row": 0, "col": 0, "coeffs": {"0": 1}},
                {"row": 1, "col": 1, "coeffs": {"0": 1}},
                {"row": 2, "col": 2, "coeffs": {"0": 1}},
                {"row": 0, "col": 1, "coeffs": {"1": 1}},
                {"row": 0, "col": 2, "coeffs": {"2": bad}},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(problem))
        code, report, err = run(capsys, "solve", "--sdp", path)
        assert code == 2 and report is None and "error" in err


def test_solve_memory_estimate_exits_3(capsys, tmp_path):
    for side, y_dim in ((10**6, 2), (2, 10**6)):
        problem = {
            "side": side, "yDim": y_dim, "objective": {"1": 1}, "fixed": {"0": 1},
            "cells": [
                {"row": 0, "col": 0, "coeffs": {"0": 1}},
                {"row": 1, "col": 1, "coeffs": {"1": 1}},
            ],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(problem))
        code, report, err = run(capsys, "solve", "--sdp", path)
        assert code == 3 and report is None and "resource limit" in err


# ------------------------------------------------- exit codes & plumbing

def test_missing_file_exits_2(capsys):
    code, report, err = run(capsys, "exactness", "--points", "/nonexistent.json")
    assert code == 2 and report is None and "error" in err


def test_bad_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, _ = run(capsys, "exactness", "--points", bad)
    assert code == 2


def test_cap_exits_3(files, capsys):
    code, _, err = run(
        capsys, "theta", "--graph", files["c5"], "--level", 2, "--cap", 3
    )
    assert code == 3 and "resource limit" in err


def test_iteration_starvation_exits_4(files, capsys):
    code, report, _ = run(
        capsys, "theta", "--graph", files["c5"], "--level", 1, "--max-iter", 2
    )
    assert code == 4
    assert report["result"]["status"] == "IterLimit"


def test_env_overrides_and_flag_precedence(files, capsys, monkeypatch):
    monkeypatch.setenv("THETA_CAP", "3")
    code, _, _ = run(capsys, "theta", "--graph", files["c5"], "--level", 2)
    assert code == 3
    code, report, _ = run(
        capsys, "theta", "--graph", files["c5"], "--level", 2, "--cap", 100
    )
    assert code == 0
    assert report["parameters"]["cap"] == 100
    monkeypatch.delenv("THETA_CAP")
    monkeypatch.setenv("THETA_MAX_ITER", "2")
    code, _, _ = run(capsys, "theta", "--graph", files["c5"], "--level", 1)
    assert code == 4
    monkeypatch.setenv("THETA_MAX_ITER", "banana")
    code, _, _ = run(capsys, "theta", "--graph", files["c5"], "--level", 1)
    assert code == 2


def test_reports_are_deterministic(files, capsys):
    def snapshot():
        _, report, _ = run(
            capsys, "theta", "--graph", files["c5"], "--level", 1
        )
        report.pop("wallTimeSeconds")
        return report

    assert snapshot() == snapshot()


def test_wall_time_and_float_rounding(files, capsys):
    _, report, _ = run(capsys, "theta", "--graph", files["c5"], "--level", 1)
    assert report["wallTimeSeconds"] >= 0
    # 12-significant-digit policy: re-rounding changes nothing
    value = report["result"]["value"]
    assert value == float(f"{value:.12g}")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
