#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. A smoke-sized run of every workload, untraced and traced: each must exit
   0, end with the result object, be correct and print exactly the metrics
   BENCHMARK.json names.
2. Each kind of checker must reject a corrupted result: theta(C5) off by
   1e-3, a dropped facet, a forged Outside certificate.
3. In a directory holding only BENCHMARK.json and the benchmark, the command
   must fail without printing a result.
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run  # sets the BLAS thread pins before numpy loads

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(args, cwd=ROOT):
    cmd = [*SPEC["command"], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def smoke_runs():
    for wl in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(["--workload", wl, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--smoke"])
            assert proc.returncode == 0, f"{wl} trace {trace}: exit {proc.returncode}\n{proc.stderr[-1500:]}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, f"{wl} trace {trace}: wrong outputs\n{proc.stdout[-1500:]}"
            assert result["attempted"] >= 1
            names = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == names, f"{wl} trace {trace}: metrics {sorted(got)} != {sorted(names)}"
            print(f"ok  smoke {wl:14s} trace {trace}: {result['attempted']} ops, {result['failed']} failed")


def expect_rejection(label, op, output, state):
    from checks import CheckError

    try:
        op.check(output, state)
    except CheckError as exc:
        print(f"ok  {label} rejected: {exc}")
        return
    raise AssertionError(f"{label} was accepted")


def checker_rejections():
    import random

    import workloads

    rng = random.Random(1)

    # theta(C5) off by 1e-3, with y, x and value kept consistent
    op = workloads._graph_ops("C5", workloads.cycle(5), "stable", odd_cycle=True)[0]
    res = op.run({})
    op.check(res, {})
    bad = copy.deepcopy(res)
    for v in range(1, 6):
        bad.solution.y[bad.template.linear_index[v]] += 2e-4
    bad.x = [x + 2e-4 for x in bad.x]
    bad.value += 1e-3
    expect_rejection("theta(C5) + 1e-3", op, bad, {})

    # a dropped facet
    wl = workloads.Workload("hulls", [], [])
    workloads._add_exact_hulls(wl, rng, smoke=True)
    run.fill_expected(wl, dict(run.os.environ, PYTHONPATH=str(ROOT / "src")))
    op = wl.ops[0]
    report, counts = op.run({})
    op.check((report, counts), {})
    dropped = copy.deepcopy(report)
    dropped.facets.pop(0)
    expect_rejection(f"{op.name} without its first facet", op, (dropped, counts), {})

    # a forged Outside certificate
    circle = workloads.circle_points(rng, 8)
    query = workloads.ball_query(rng, 2, True)
    ops = workloads._point_ops("circle", circle, [1, 0], [(query, "outside")], {})
    state = {}
    for op in ops:
        state[op.name] = op.run(state)
        op.check(state[op.name], state)
    member = ops[-1]
    rep = state[member.name]
    assert rep.status == "Outside"
    forged = copy.deepcopy(rep)
    cert = forged.certificate
    object.__setattr__(cert, "c", cert.c + Fraction(1, 7))
    expect_rejection("Outside certificate with a shifted constant", member, forged, state)
    forged = copy.deepcopy(rep)
    cert = forged.certificate
    object.__setattr__(cert, "a", tuple(tuple(-v for v in row) for row in cert.a))
    object.__setattr__(cert, "b", tuple(-v for v in cert.b))
    object.__setattr__(cert, "c", -cert.c)
    expect_rejection("negated Outside certificate", member, forged, state)


def bare_directory_fails():
    base = ROOT / run.TMP_DIR
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=tmp)
        assert proc.returncode != 0, "the benchmark ran without the program's sources"
        assert '"metrics"' not in proc.stdout, "a result was printed without the program's sources"
    try:
        base.rmdir()
    except OSError:
        pass
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main():
    sys.path.insert(0, str(ROOT / "src"))
    smoke_runs()
    checker_rejections()
    bare_directory_fails()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
