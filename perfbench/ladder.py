#!/usr/bin/env python3
"""Re-measure the single-call timing table of ROADMAP item 1, warm.

Run from the root of a checkout:

    python3 perfbench/ladder.py

Each row is called once untimed (imports, BLAS start-up), then timed
five times; the table gives the median and the range, with BLAS
pinned to one thread as in run.py.  The template row gets a fresh ring for
each call, built untimed, because a ring caches its products.  The cube5
facet row takes about a minute per call, so it is timed once, without a
warm-up call.  The CLI row is a fresh process each time and is never warm.
"""

import run  # noqa: F401  (pins BLAS threads before numpy loads)

import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPEATS = 5
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import thetabody as tb  # noqa: E402
import workloads  # noqa: E402


def rows():
    graph = lambda g: tb.Graph(*g)  # noqa: E731
    rng = random.Random(0)
    pts40 = set()
    while len(pts40) < 40:
        pts40.add(tuple(rng.randint(0, 9) for _ in range(3)))
    ps40 = tb.PointSet(3, sorted(pts40))
    c5 = ROOT / ".perfbench_out" / "ladder-c5.json"
    c5.parent.mkdir(exist_ok=True)
    c5.write_text('{"n": 5, "edges": [[1,2],[2,3],[3,4],[4,5],[1,5]]}')
    cli = [sys.executable, "-m", "thetabody.cli", "theta", "--graph", str(c5), "--level", "2"]
    env = dict(run.os.environ, PYTHONPATH=str(ROOT / "src"))
    none = lambda: ()  # noqa: E731
    return [  # (label, untimed preparation, timed call, warm-up call first)
        ("stable C5 level 2", none, lambda: tb.stable_set_theta(graph(workloads.cycle(5)), 2), True),
        ("stable C7 level 2", none, lambda: tb.stable_set_theta(graph(workloads.cycle(7)), 2), True),
        ("stable C9 level 2", none, lambda: tb.stable_set_theta(graph(workloads.cycle(9)), 2), True),
        ("stable C11 level 2", none, lambda: tb.stable_set_theta(graph(workloads.cycle(11)), 2), True),
        ("stable Petersen level 2", none, lambda: tb.stable_set_theta(graph(workloads.PETERSEN), 2), True),
        ("cut K5 level 2", none, lambda: tb.cut_theta(graph(workloads.complete(5)), None, 2), True),
        ("facets cube3", none, lambda: tb.facets(workloads.cube(3)), True),
        ("facets cube4", none, lambda: tb.facets(workloads.cube(4)), True),
        ("facets cube5", none, lambda: tb.facets(workloads.cube(5)), False),
        ("classify_01(3)", none, lambda: tb.classify_01(3), True),
        ("Buchberger-Moller, 40 points in dim 3", none, lambda: tb.buchberger_moller(ps40), True),
        ("level-2 template of that ring", lambda: (tb.buchberger_moller(ps40),),
         lambda ring: tb.build_moment_template(ring, 2), True),
        ("CLI theta C5 level 2, fresh process", none,
         lambda: subprocess.run(cli, env=env, check=True, capture_output=True), False),
    ]


def main():
    print("| call | median | min-max | repeats |")
    print("|---|---|---|---|")
    for label, prepare, call, warm in rows():
        repeats = REPEATS
        if warm:
            call(*prepare())
        elif "cube5" in label:
            repeats = 1
        times = []
        for _ in range(repeats):
            call_args = prepare()
            start = time.perf_counter()
            call(*call_args)
            times.append(time.perf_counter() - start)
        ms = [1000 * t for t in times]
        print(f"| {label} | {statistics.median(ms):.1f} ms | {min(ms):.1f}-{max(ms):.1f} ms | {repeats} |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
