"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import thetabody
from thetabody import __version__, geomexact
from thetabody.cli import _digest, main
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
    d["circle10"] = tmp_path / "circle10.json"
    d["circle10"].write_text(json.dumps({"dim": 2, "points": CIRCLE10}))
    d["circle"] = tmp_path / "circle.json"
    d["circle"].write_text(json.dumps({"dim": 2, "generators": ["x1^2 + x2^2 - 1"]}))
    d["nan-sdp"] = tmp_path / "nan-sdp.json"
    d["nan-sdp"].write_text(json.dumps({
        "side": 2, "yDim": 2, "objective": {"1": 1},
        "cells": [{"row": 0, "col": 0, "coeffs": {"0": 1}},
                  {"row": 0, "col": 1, "coeffs": {"1": float("nan")}},
                  {"row": 1, "col": 1, "coeffs": {"0": 1}}],
    }))
    d["disk-sdp"] = tmp_path / "disk-sdp.json"
    d["disk-sdp"].write_text(json.dumps({
        "side": 2, "yDim": 2, "objective": {"1": 1},
        "cells": [{"row": 0, "col": 0, "coeffs": {"0": 1}},
                  {"row": 0, "col": 1, "coeffs": {"1": 1}},
                  {"row": 1, "col": 1, "coeffs": {"0": 1}}],
    }))
    d["bad-graph"] = tmp_path / "bad-graph.json"
    d["bad-graph"].write_text(json.dumps({"n": 3, "edges": [[1, 4]]}))
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


def test_th1_empty_section_is_inside(capsys, tmp_path):
    # the section's unit member is diag(-1, 2) and the traceless member
    # x1*x2 leaves its (0, 0) entry alone, so no PSD member exists
    gens = tmp_path / "empty-section.json"
    gens.write_text(json.dumps({"dim": 2, "generators": ["x1^2 - 2*x2^2", "x1*x2"]}))
    code, report, _ = run(capsys, "th1", "--gens", gens, "--query", "1,2")
    assert code == 0
    assert report["result"]["status"] == "Inside"
    assert report["solver"]["status"] == "Infeasible"


def test_th1_empty_section_from_points_is_inside(capsys, tmp_path):
    # no member of the points' quadric space has a PSD quadratic part, so
    # the membership SDP must end Infeasible rather than at IterLimit
    points = tmp_path / "four-points.json"
    points.write_text(
        json.dumps({"dim": 2, "points": [[-4, -2], ["-5/3", "-1/4"], ["-3/2", "2/3"], [2, "-5/3"]]})
    )
    code, report, _ = run(capsys, "th1", "--points", points, "--query", "0,-3/4")
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


def test_th1_negative_query(files, capsys):
    reports = []
    for argv in (["--query", "-1/2,3/4"], ["--query=-1/2,3/4"]):
        code, report, _ = run(capsys, "th1", "--gens", files["circle"], *argv)
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


def test_moment_dump_then_solve_curve_unbounded(capsys, tmp_path):
    # 16 rational points in the plane: no quadric vanishes on them, so TH1 is
    # all of R^2 and the level-1 SDP with the objective x1 + 2*x2 is Unbounded
    cloud = corpus.rational_cloud(16, 2, 4)
    points = tmp_path / "cloud16.json"
    points.write_text(
        json.dumps({"dim": 2, "points": [[str(c) for c in p] for p in cloud.points]})
    )
    code, report, _ = run(capsys, "moment-dump", "--points", points, "--level", 1)
    assert code == 0
    template = report["result"]
    rows, index = template["rows"], {label: l for l, label in enumerate(template["y"])}
    sdp = {
        "side": len(rows),
        "yDim": len(index),
        "cells": [
            {
                "row": rows.index(cell["cell"][0]),
                "col": rows.index(cell["cell"][1]),
                "coeffs": {str(index[key[2:-1]]): c for key, c in cell["coeffs"].items()},
            }
            for cell in template["cells"]
        ],
        "objective": {str(index["x1"]): 1, str(index["x2"]): 2},
        "fixed": {str(index["1"]): 1},
    }
    path = tmp_path / "cloud16-sdp.json"
    path.write_text(json.dumps(sdp))
    code, report, err = run(capsys, "solve", "--sdp", path)
    assert code == 0
    assert report["result"]["status"] == "Unbounded"
    assert report["result"]["iterations"] == 0
    assert "Unbounded" in err


def test_moment_dump_point_cap_exits_3(capsys, tmp_path):
    path = tmp_path / "line65.json"
    path.write_text(json.dumps({"dim": 1, "points": [[i] for i in range(65)]}))
    code, report, err = run(capsys, "moment-dump", "--points", path, "--level", 1)
    assert code == 3 and report is None and "resource limit" in err


# --------------------------------------------------------- golden reports

GOLDEN = Path(__file__).resolve().parent / "golden"
# ten rational points of the unit circle, ((1 - t^2) / (1 + t^2), 2t / (1 + t^2))
CIRCLE10 = [
    ["1", "0"], ["3/5", "4/5"], ["0", "1"], ["-3/5", "4/5"], ["4/5", "3/5"],
    ["-4/5", "3/5"], ["3/5", "-4/5"], ["-3/5", "-4/5"], ["4/5", "-3/5"], ["5/13", "12/13"],
]
CUBE4 = [list(p) for p in itertools.product((0, 1), repeat=4)]
GOLDEN_RUNS = {
    # name: (points file content, argv); a --points file with that content
    # goes right after the subcommand unless the content is None
    "moment-dump-cube6-level2": (
        {"dim": 3, "points": [list(p) for p in itertools.product((0, 1), repeat=3)][:6]},
        ["moment-dump", "--level", "2"],
    ),
    "th1-circle10-outside": ({"dim": 2, "points": CIRCLE10}, ["th1", "--query", "1,1"]),
    "th1-circle10-on-set": ({"dim": 2, "points": CIRCLE10}, ["th1", "--query", "3/5,4/5"]),
    # not 2-level: a facet with three levels, rank bound 2
    "exactness-cube4-first11": ({"dim": 4, "points": CUBE4[:11]}, ["exactness"]),
    "classify01-dim3": (None, ["classify01", "--dim", "3"]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_report_matches_golden(name, capsys, tmp_path, monkeypatch):
    """The report, byte for byte apart from its wall time, as recorded in
    tests/golden/<name>.json."""
    content, argv = GOLDEN_RUNS[name]
    monkeypatch.chdir(tmp_path)
    if content is not None:
        Path("points.json").write_text(json.dumps(content))
        argv = argv[:1] + ["--points", "points.json"] + argv[1:]
    assert main(argv) == 0
    out = re.sub(r'"wallTimeSeconds": [^,\n]+', '"wallTimeSeconds": 0', capsys.readouterr().out)
    assert out == (GOLDEN / f"{name}.json").read_text()


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

FILE_FLAGS = {
    # id: subcommand and flags with {bad} for the file under test
    "theta-graph": ["theta", "--graph", "{bad}"],
    "theta-weights": ["theta", "--graph", "{k3}", "--model", "cut", "--weights", "{bad}"],
    "exactness-points": ["exactness", "--points", "{bad}"],
    "th1-points": ["th1", "--points", "{bad}", "--query", "0,0"],
    "th1-gens": ["th1", "--gens", "{bad}", "--query", "0,0"],
    "moment-dump-points": ["moment-dump", "--points", "{bad}"],
    "solve-sdp": ["solve", "--sdp", "{bad}"],
}


@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8", "bad-json"])
@pytest.mark.parametrize("argv", FILE_FLAGS.values(), ids=FILE_FLAGS)
def test_unreadable_file_exits_2(files, tmp_path, capsys, argv, kind):
    bad = tmp_path / "unreadable.json"
    if kind == "directory":
        bad.mkdir()
    elif kind == "non-utf8":
        bad.write_bytes(b'{"dim": 1, "points": [["\xff\xfe"]]}\n')
    elif kind == "bad-json":
        bad.write_text('{"dim": 2, "generators": [')
    argv = [a.format(bad=bad, k3=files["k3"]) for a in argv]
    code, report, err = run(capsys, *argv)
    assert code == 2 and report is None and err.startswith("error:")
    if kind == "non-utf8":
        assert str(bad) in err
    if kind == "bad-json":
        assert f"invalid JSON in {bad}" in err
    if kind == "missing" and "--weights" in argv:
        assert f"--weights value {str(bad)!r} is neither a readable file nor inline JSON" in err
    elif kind in ("missing", "directory"):
        assert "cannot read" in err and str(bad) in err


MALFORMED = {
    # id: (subcommand and flags with {bad} for the file, file content)
    "syntax": (["exactness", "--points", "{bad}"], "{oops"),
    "weights-key": (
        ["theta", "--graph", "{bad}", "--model", "cut", "--weights", '{"a,b": 1, "2,3": 1}'],
        K3_DIMACS,
    ),
    "weights-scalar": (
        ["theta", "--graph", "{bad}", "--model", "cut", "--weights", "5"],
        K3_DIMACS,
    ),
    "points-dim": (["exactness", "--points", "{bad}"], '{"dim": "x", "points": [[0]]}'),
    "points-scalar": (["exactness", "--points", "{bad}"], '{"dim": 1, "points": 5}'),
    # int() would truncate 2.5 and read true as 1 and "2" as 2
    "points-dim-fraction": (
        ["exactness", "--points", "{bad}"], '{"dim": 2.5, "points": [[0, 0], [1, 0], [0, 1]]}'
    ),
    "points-dim-bool": (["exactness", "--points", "{bad}"], '{"dim": true, "points": [[0], [1]]}'),
    "points-dim-string": (
        ["exactness", "--points", "{bad}"], '{"dim": "2", "points": [[0, 0], [1, 0], [0, 1]]}'
    ),
    "gens-dim-fraction": (
        ["th1", "--gens", "{bad}", "--query", "0,0"], '{"dim": 2.5, "generators": ["x1^2 - x1"]}'
    ),
    "gens-dim-bool": (["th1", "--gens", "{bad}", "--query", "0"], '{"dim": true, "generators": []}'),
    "points-rows": (["moment-dump", "--points", "{bad}"], '{"dim": 1, "points": [0, 1]}'),
    "gens-dim": (["th1", "--gens", "{bad}", "--query", "0,0"], '{"dim": "abc", "generators": []}'),
    "gens-dim-null": (["th1", "--gens", "{bad}", "--query", "0"], '{"dim": null, "generators": []}'),
    "gens-scalar": (["th1", "--gens", "{bad}", "--query", "0,0"], '{"dim": 2, "generators": [5]}'),
    "gens-object": (
        ["th1", "--gens", "{bad}", "--query", "0,0"],
        '{"dim": 2, "generators": [{"x1": 1}]}',
    ),
    "graph-n": (["theta", "--graph", "{bad}"], '{"n": "x", "edges": []}'),
    "graph-edge": (["theta", "--graph", "{bad}"], '{"n": 3, "edges": [[1]]}'),
    # a string row or edge would be read character by character
    "points-string-rows": (
        ["exactness", "--points", "{bad}"], '{"dim": 2, "points": ["12", "30", "03"]}'
    ),
    "th1-string-rows": (
        ["th1", "--points", "{bad}", "--query", "0,0"], '{"dim": 2, "points": ["12", "30"]}'
    ),
    "dump-string-rows": (
        ["moment-dump", "--points", "{bad}"], '{"dim": 2, "points": ["12", "30"]}'
    ),
    "graph-string-edges": (["theta", "--graph", "{bad}"], '{"n": 3, "edges": ["12", "23"]}'),
    # int() would truncate 1.7, and only the first two endpoints were read
    "graph-float-edge": (
        ["theta", "--graph", "{bad}"], '{"n": 3, "edges": [[1.7, 2], [2, 3]]}'
    ),
    "graph-long-edge": (["theta", "--graph", "{bad}"], '{"n": 3, "edges": [[1, 2], [2, 3, 3]]}'),
    "graph-float-n": (["theta", "--graph", "{bad}"], '{"n": 3.5, "edges": [[1, 2]]}'),
    "graph-string-n": (["theta", "--graph", "{bad}"], '{"n": "3", "edges": [[1, 2]]}'),
    "graph-bool-edge": (["theta", "--graph", "{bad}"], '{"n": 3, "edges": [[true, 2]]}'),
    # booleans are not numbers, though Python's bool is an int
    "points-bool": (
        ["exactness", "--points", "{bad}"], '{"dim": 2, "points": [[true, false], [0, 1], [1, 1]]}'
    ),
    "sdp-bool": (
        ["solve", "--sdp", "{bad}"],
        '{"side": 1, "yDim": 2, "objective": {"1": 1}, "cells": [{"row": 0, "col": 0, '
        '"coeffs": {"0": 1, "1": true}}]}',
    ),
    # a cell index that int() would read as 1, then the cell it would have
    # been, and a cell listed twice: each silently replaced an entry
    "sdp-bool-cell": (
        ["solve", "--sdp", "{bad}"],
        '{"side": 2, "yDim": 2, "objective": {"1": 1}, "cells": [{"row": 0, "col": 0, '
        '"coeffs": {"0": 1}}, {"row": true, "col": 1, "coeffs": {"1": 1}}, '
        '{"row": 1, "col": 1, "coeffs": {"0": 1}}]}',
    ),
    "sdp-bool-side": (
        ["solve", "--sdp", "{bad}"],
        '{"side": true, "yDim": 2, "objective": {"1": 1}, "cells": [{"row": 0, "col": 0, '
        '"coeffs": {"0": 1, "1": 1}}]}',
    ),
    # int() would read these y-indices as 10, 1 and 1
    "sdp-index-underscore": (
        ["solve", "--sdp", "{bad}"],
        '{"side": 1, "yDim": 11, "objective": {"1_0": 1}, "cells": [{"row": 0, "col": 0, '
        '"coeffs": {"0": 1}}]}',
    ),
    "sdp-index-space": (
        ["solve", "--sdp", "{bad}"],
        '{"side": 1, "yDim": 2, "objective": {"1": 1}, "cells": [{"row": 0, "col": 0, '
        '"coeffs": {"0": 1, " 1": 1}}]}',
    ),
    "sdp-index-plus": (
        ["solve", "--sdp", "{bad}"],
        '{"side": 1, "yDim": 2, "objective": {"1": 1}, "cells": [{"row": 0, "col": 0, '
        '"coeffs": {"0": 1, "1": 1}}], "fixed": {"+0": 1}}',
    ),
    "sdp-cell-twice": (
        ["solve", "--sdp", "{bad}"],
        '{"side": 2, "yDim": 2, "objective": {"1": 1}, "cells": [{"row": 0, "col": 0, '
        '"coeffs": {"0": 1}}, {"row": 0, "col": 1, "coeffs": {"1": 1}}, '
        '{"row": 0, "col": 1, "coeffs": {"1": 2}}, {"row": 1, "col": 1, "coeffs": {"0": 1}}]}',
    ),
    # the path 1-2-3 with edge (1, 2) weighted twice
    "weights-twice": (
        ["theta", "--graph", "{bad}", "--model", "cut", "--weights", '{"1,2": 1, "2,1": 5, "2,3": 1}'],
        "p edge 3 2\ne 1 2\ne 2 3\n",
    ),
    # rationals beyond float range
    "float-weight": (
        ["theta", "--graph", "{bad}", "--model", "cut", "--weights", '[1, 1, "1e400"]'], K3_DIMACS
    ),
    "float-sdp": (
        ["solve", "--sdp", "{bad}"],
        '{"side": 2, "yDim": 2, "objective": {"1": 1}, "cells": [{"row": 0, "col": 0, '
        '"coeffs": {"0": 1}}, {"row": 0, "col": 1, "coeffs": {"1": "1e400"}}, '
        '{"row": 1, "col": 1, "coeffs": {"0": 1}}]}',
    ),
    "float-th1-points": (
        ["th1", "--points", "{bad}", "--query=1,0"],
        '{"dim": 2, "points": [["1e400", 0], [0, 1], [1, 1]]}',
    ),
    "float-th1-gens": (
        ["th1", "--gens", "{bad}", "--query=0,0"],
        '{"dim": 2, "generators": ["x1^2 + x2^2 - 1e400"]}',
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_bad_json_exits_2(capsys, tmp_path, case):
    argv, content = MALFORMED[case]
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    code, report, err = run(capsys, *[a.replace("{bad}", str(bad)) for a in argv])
    assert code == 2 and report is None and err.startswith("error:")


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


def test_cap_flag(files, capsys):
    code, _, _ = run(
        capsys, "theta", "--graph", files["c5"], "--level", 2, "--cap", 3
    )
    assert code == 3
    code, report, _ = run(
        capsys, "theta", "--graph", files["c5"], "--level", 2, "--cap", 100
    )
    assert code == 0
    assert report["parameters"]["cap"] == 100


def test_nonpositive_solver_flags_exit_2(files, capsys):
    for flag, value in (
        ("--max-iter", 0),
        ("--feas-tol", 0),
        ("--gap-tol", -1),
        ("--feas-tol", "nan"),
        ("--feas-tol", "inf"),
        ("--gap-tol", "nan"),
        ("--gap-tol", "inf"),
        ("--feas-tol", "1e-300"),
        ("--cap", 0),
        ("--cap", -1),
    ):
        code, report, _ = run(
            capsys, "theta", "--graph", files["c5"], "--level", 1, flag, value
        )
        assert code == 2 and report is None, (flag, value)


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


REPORT_KEYS = {"subcommand", "version", "inputDigest", "parameters", "result", "wallTimeSeconds"}
SOLVER_PARAMETERS = {"feasTol", "gapTol", "maxIter"}


@pytest.mark.parametrize(
    "argv, solver",
    [
        (("theta", "--graph", "c5"), True),
        (("exactness", "--points", "square"), False),
        (("classify01", "--dim", "2"), False),
        (("th1", "--points", "circle10", "--query", "1,1"), False),
        (("th1", "--points", "quad4", "--query", "5,5"), True),
        (("moment-dump", "--points", "segment"), False),
        (("solve", "--sdp", "disk-sdp"), True),
    ],
    ids=["theta", "exactness", "classify01", "th1-exact", "th1-section-sdp",
         "moment-dump", "solve"],
)
def test_report_shape(files, capsys, argv, solver):
    """Every report has the same top-level keys, plus solver where a solver
    ran, and the solver-backed commands echo the solver settings."""
    code, report, _ = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 0
    assert set(report) == REPORT_KEYS | ({"solver"} if solver else set())
    assert report["subcommand"] == argv[0]
    if argv[0] in ("theta", "th1", "solve"):
        assert SOLVER_PARAMETERS <= set(report["parameters"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


# --------------------------------------------------------------- start-up

# Runs main on argv (when given) with its output discarded, then prints its
# exit code and the names in sys.modules.
_LOADED = """
import contextlib, io, json, sys
from thetabody.cli import main
code = 0
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""
SOLVER_SIDE = {"numpy", "thetabody.sdpsolve", "thetabody.combopt"}
GEOMETRY = {"thetabody.geomexact", "thetabody.quadrics"}
# @dataclass imports inspect, about 6 ms of a cold start; numpy loads both
INTROSPECTION = {"dataclasses", "inspect"}
# hashlib's OpenSSL backend: input digests use the builtin SHA-256
OPENSSL = {"_hashlib"}


def _fresh_process(files, script, argv=()):
    """What `script` prints, run with argv (fixture names replaced by their
    paths) in a new interpreter that imports this source tree."""
    src = str(Path(thetabody.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, "-c", script, *(str(files.get(a, a)) for a in argv)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "argv, code, absent",
    [
        ((), 0, SOLVER_SIDE | GEOMETRY | INTROSPECTION | OPENSSL),
        # exactness needs no symmetry search, classify01 no graph model
        (("exactness", "--points", "square"), 0,
         {"numpy", "thetabody.symmetry"} | INTROSPECTION | OPENSSL),
        (("classify01", "--dim", "2"), 0,
         {"numpy", "thetabody.combopt", "thetabody.momentsdp"} | INTROSPECTION | OPENSSL),
        (("moment-dump", "--points", "square"), 0, {"numpy"} | INTROSPECTION | OPENSSL),
        (("theta", "--graph", "c5"), 0, GEOMETRY | OPENSSL),
        # numpy loads at the first SDP solve, and momentsdp where a section
        # SDP is built: th1 queries decided exactly and inputs rejected
        # before the solve load neither
        (("th1", "--points", "circle10", "--query", "1,1"), 0,
         {"numpy", "thetabody.sdpsolve", "thetabody.momentsdp"} | INTROSPECTION | OPENSSL),
        (("th1", "--gens", "circle", "--query=-1/2,3/4"), 0,
         {"numpy", "thetabody.sdpsolve", "thetabody.momentsdp"} | INTROSPECTION | OPENSSL),
        (("solve", "--sdp", "nan-sdp"), 2,
         {"numpy", "thetabody.sdpsolve"} | INTROSPECTION | OPENSSL),
        (("theta", "--graph", "bad-graph"), 2,
         {"numpy", "thetabody.sdpsolve"} | GEOMETRY | INTROSPECTION | OPENSSL),
        # a malformed query is rejected before the quadric space is built
        (("th1", "--points", "quad4", "--query", "1,oops"), 2,
         SOLVER_SIDE | GEOMETRY | INTROSPECTION | OPENSSL),
    ],
    ids=["import", "exactness", "classify01", "moment-dump", "theta",
         "th1-points-exact", "th1-gens-exact", "solve-invalid", "theta-invalid",
         "th1-bad-query"],
)
def test_process_loads_only_what_its_subcommand_runs(files, argv, code, absent):
    exit_code, modules = _fresh_process(files, _LOADED, argv)
    assert exit_code == code
    assert absent.isdisjoint(modules)


def test_section_sdp_loads_numpy(files):
    """The control for the cases above: a th1 query that needs the section
    SDP (quad4 at (5, 5)) does load the solver."""
    argv = ("th1", "--points", "quad4", "--query", "5,5")
    exit_code, modules = _fresh_process(files, _LOADED, argv)
    assert exit_code == 0
    assert {"numpy", "thetabody.sdpsolve"} <= set(modules)


def test_solver_options_resolve_without_numpy(files):
    script = (
        "import json, sys, thetabody\n"
        "thetabody.SolverOptions(max_iter=5)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    modules = _fresh_process(files, script)
    assert "thetabody.options" in modules
    assert "thetabody.momentsdp" not in modules
    assert SOLVER_SIDE.isdisjoint(modules)


def test_digest_matches_hashlib(files, tmp_path):
    """The builtin SHA-256 of _digest gives hashlib's hex digest, on every
    fixture, an empty file and one of many 64-byte blocks."""
    (tmp_path / "empty").write_bytes(b"")
    (tmp_path / "long").write_bytes(bytes(range(256)) * 1001)
    paths = [*files.values(), tmp_path / "empty", tmp_path / "long"]
    for path in paths:
        assert _digest(str(path)) == hashlib.sha256(path.read_bytes()).hexdigest(), path


def test_digest_falls_back_to_hashlib(files):
    """An interpreter built without the builtin hashes digests through hashlib."""
    script = (
        "import json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from thetabody.cli import _digest, _sha256\n"
        "print(json.dumps([_sha256.__module__, _digest(sys.argv[1])]))\n"
    )
    module, digest = _fresh_process(files, script, ["c5"])
    assert module == "_hashlib"
    assert digest == hashlib.sha256(files["c5"].read_bytes()).hexdigest()


def test_package_names_resolve_to_their_home_objects():
    for name in thetabody.__all__:
        value = getattr(thetabody, name)
        if name != "__version__":
            home = importlib.import_module(value.__module__)
            assert getattr(home, name) is value, name
    assert set(thetabody.__all__) <= set(dir(thetabody))
    with pytest.raises(AttributeError):
        getattr(thetabody, "no_such_name")
