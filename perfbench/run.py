#!/usr/bin/env python3
"""Benchmark of thetabody: one command, three seeded workloads.

Run from the root of a source checkout (the directory that holds ``src/``):

    python3 perfbench/run.py --workload graph-theta --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics
(see README.md).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; details of
the run go to ``.perfbench_out/``.
"""

import ctypes
import os
import sys

# Pin BLAS to one thread before numpy loads, here and in every child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# glibc raises its mmap threshold after large frees, so whether a numpy array
# lands in the heap (and stays resident after it is freed) depends on the
# arrays freed before it.  A fixed threshold, here and in the children, makes
# peak RSS repeatable.
MMAP_THRESHOLD = 128 * 1024
os.environ["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
try:
    ctypes.CDLL(None).mallopt(-3, MMAP_THRESHOLD)  # -3 is M_MMAP_THRESHOLD
except (OSError, AttributeError):
    pass  # not glibc
# The CLI reads THETA_* defaults; the benchmark runs the program's defaults.
for _var in [v for v in os.environ if v.startswith("THETA_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("graph-theta", "point-sets", "cli-cold")
SETUP_EDGE = 3  # set-up samples before and after the measured loop
SETUP_PER_PASS = 2  # set-up samples after each untraced pass
OUT_DIR = ".perfbench_out"
TMP_DIR = ".perfbench_run"
HERE = Path(__file__).resolve().parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny operation list (self-test)")
    return p.parse_args(argv)


def time_imports(root, env, count):
    """Times of ``count`` fresh interpreters importing thetabody.cli."""
    import workloads

    times = []
    for _ in range(count):
        start = time.perf_counter()
        code, _ = workloads.run_child([sys.executable, "-c", "import thetabody.cli"], env, root)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"importing thetabody.cli failed with exit {code}")
    return times


def fill_expected(wl, env):
    """Hull data of the workload's point sets, from qhull in a child process."""
    if not wl.hull_sets:
        return
    names = list(wl.hull_sets)
    payload = json.dumps([[[str(c) for c in p] for p in wl.hull_sets[n]] for n in names])
    proc = subprocess.run([sys.executable, str(HERE / "oracle.py")], input=payload, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    for name, data in zip(names, json.loads(proc.stdout)):
        wl.expected.setdefault(name, {}).update(data)


def run_pass(wl, tracer=None):
    """One pass over the operation list; returns wall time, per-op times,
    outputs by op name and the error (or None) of each op."""
    import checks

    state, times, errors = {}, [], []
    start = time.perf_counter()
    for idx, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = idx
        t0 = time.perf_counter()
        try:
            state[op.name] = op.run(state)
            err = None
        except checks.OpFailed as exc:
            err = str(exc)
        except Exception as exc:  # the program failed this operation
            err = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        errors.append(err)
    return time.perf_counter() - start, times, state, errors


def check_pass(ops, state, errors):
    """Check every output; returns (per-op records, failed ops, wrong ops)."""
    import checks

    records, failed, wrong = [], [], []
    for op, err in zip(ops, errors):
        rec = {"op": op.name, "kind": op.kind}
        if err is None:
            try:
                rec.update(op.check(state[op.name], state))
            except checks.OpFailed as exc:
                err = str(exc)
            except checks.CheckError as exc:
                rec["status"] = f"WRONG: {exc}"
                wrong.append(f"{op.name}: {exc}")
        if err is not None:
            rec["status"] = f"FAILED: {err}"
            failed.append(f"{op.name}: {err}")
        records.append(rec)
    return records, failed, wrong


def collect_child_spans(wl, state):
    """Spans written by traced CLI children, re-indexed into one list."""
    out = []
    for idx, op in enumerate(wl.ops):
        path = getattr(state.get(op.name), "spans_file", None)
        if path is None or not path.exists():
            continue
        base = len(out)
        for span in json.loads(path.read_text()):
            span[3] = span[3] + base if span[3] >= 0 else -1
            span[4] = idx
            out.append(span)
    return out


def traced_pass(wl, ctx, mode):
    """Run one pass under the tracer (in-process) or traced CLI children."""
    import spans

    if wl.child_rss is not None:
        ctx.trace_mode = mode
        try:
            result = run_pass(wl)
        finally:
            ctx.trace_mode = None
        return result, collect_child_spans(wl, result[2])
    tracer = spans.Tracer(mode)
    tracer.install()
    try:
        result = run_pass(wl, tracer)
    finally:
        tracer.uninstall()
    return result, tracer.spans


def measure(wl, ctx, seconds, trace, after_pass=None):
    """The measured loop: whole passes until ``seconds`` have gone by.

    Untraced runs time every pass and call ``after_pass`` after each one.
    Traced runs alternate untraced and traced passes (at least one of each)
    and end with one allocation pass."""
    if wl.warmup:  # excluded from counts and timing
        _, _, state, errors = run_pass(type(wl)(wl.name, wl.warmup, []))
        _, failed, wrong = check_pass(wl.warmup, state, errors)
        if failed or wrong:
            raise SystemExit(f"warm-up operation failed: {failed + wrong}")
    run = {"walls": [], "op_times": [], "traced_walls": [], "layer": [],
           "attempted": 0, "failed": [], "wrong": [], "records": None, "peak_kib": None}
    start = time.perf_counter()
    i = 0
    # start a pass only if it is expected to end within ``seconds``
    while i < (2 if trace else 1) or (time.perf_counter() - start) * (i + 1) / i <= seconds:
        if trace and i % 2:
            (wall, times, state, errors), span_list = traced_pass(wl, ctx, "spans")
            run["traced_walls"].append(wall)
            run["layer"].append(span_list)
        else:
            wall, times, state, errors = run_pass(wl)
            run["walls"].append(wall)
            run["op_times"] += times
        if run["peak_kib"] is None:  # one pass over the operation list, before any check
            run["peak_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        records, failed, wrong = check_pass(wl.ops, state, errors)
        for rec, t in zip(records, times):
            rec["seconds"] = t
        run["records"] = run["records"] or records
        run["attempted"] += len(wl.ops)
        run["failed"] += failed
        run["wrong"] += wrong
        del state
        if after_pass is not None:
            after_pass()
        i += 1
    if trace:
        _, alloc_spans = traced_pass(wl, ctx, "alloc")
        run["alloc"] = [s[5] for s in alloc_spans if s[0] == "sdpsolve.solve"]
    return run


def src_lines(src):
    import spans

    return {f"{m}.src_lines": sum(1 for _ in open(src / "thetabody" / f"{m}.py", encoding="utf-8"))
            for m in spans.MODULES}


def layer_metrics(run, src):
    import spans

    per_pass = [spans.pass_metrics(s) for s in run["layer"]]
    out = {k: (statistics.median_low if unit_of(k) == "count" else statistics.median)(p[k] for p in per_pass)
           for k in per_pass[0]}
    out.update(spans.cli_metrics([s for spans_ in run["layer"] for s in spans_]))
    out["sdpsolve.peak_alloc_mb"] = max(run["alloc"], default=0) / 2**20
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(run["traced_walls"]) / statistics.median(run["walls"]) - 1.0)
    out.update(src_lines(src))
    return out


UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "_pct": "%", "_yield": "ratio"}


def unit_of(name):
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "thetabody" / "__init__.py").is_file():
        print(f"error: {src}/thetabody not found; run from the root of a thetabody checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    import thetabody
    if Path(thetabody.__file__).resolve().parent != (src / "thetabody").resolve():
        print(f"error: imported thetabody from {thetabody.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    # set-up samples before the measured loop, after each of its passes and
    # after it, so they span the run's slow and fast phases of the host; the
    # first import may compile bytecode and is discarded
    setup_times = []

    def sample_setup(count):
        setup_times.extend(time_imports(root, env, count))

    if not args.trace:
        time_imports(root, env, 1)
        sample_setup(SETUP_EDGE)

    tmp = root / TMP_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        ctx = workloads.Context(root=root, src=src, tmp=tmp, env=env)
        wl = workloads.build(args.workload, args.seed, ctx, smoke=args.smoke)
        fill_expected(wl, env)
        run = measure(wl, ctx, args.seconds, args.trace,
                      None if args.trace else lambda: sample_setup(SETUP_PER_PASS))
        if not args.trace:
            sample_setup(SETUP_EDGE)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        metrics = layer_metrics(run, src)
    else:
        peak_kib = max(wl.child_rss) if wl.child_rss is not None else run["peak_kib"]
        metrics = {
            "setup_s": statistics.median(setup_times),
            # the mean, not the median, of the few passes of a run: the
            # machine's speed drifts in phases of seconds, and the mean
            # follows the share of slow time smoothly
            "wall_s": statistics.fmean(run["walls"]),
            "op_p50_s": statistics.median(run["op_times"]),
            "peak_rss_mb": peak_kib / 1024.0,
        }

    ops_per_pass = len(wl.ops)
    passes = run["attempted"] // ops_per_pass
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"BLAS threads {BLAS_THREADS} (nproc {os.cpu_count()})")
    print(f"{passes} passes x {ops_per_pass} ops; warm-up ops excluded: {len(wl.warmup)}")
    print(f"{'op':34s} {'status':12s} {'ms':>9s}  sizes")
    for rec in run["records"]:
        sizes = " ".join(f"{k}={v}" for k, v in rec.items() if k not in ("op", "kind", "status", "seconds"))
        print(f"{rec['op']:34s} {rec['status'][:12]:12s} {1000 * rec['seconds']:9.2f}  {sizes}")
    for line in sorted(set(run["failed"])):
        print(f"failed: {line}")
    for line in sorted(set(run["wrong"])):
        print(f"WRONG: {line}")
    if not args.trace:
        times = sorted(run["op_times"])
        print(f"op_p50_s is the median of {len(times)} op latencies over {len(run['walls'])} passes")
        if ops_per_pass >= 40:
            print(f"op_p90_s {statistics.quantiles(times, n=10)[-1]:.6f} s (pass has {ops_per_pass} ops)")
        print(f"setup_s is the median of {len(setup_times)} imports: "
              f"{' '.join(f'{t:.4f}' for t in setup_times)}")
    for name, value in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"{name:28s} {shown} {unit_of(name)}")

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "setup_times": setup_times, "pass_walls": run["walls"], "traced_pass_walls": run["traced_walls"],
        "ops": run["records"], "failed": sorted(set(run["failed"])), "wrong": sorted(set(run["wrong"])),
        "metrics": metrics,
        # spans of the first traced pass: [name, start, end, parent, op, info]
        "spans": run["layer"][0] if run["layer"] else [],
    }
    suffix = "-trace" if args.trace else ""
    (out_dir / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(json.dumps(detail))

    result = {
        "correct": not run["wrong"],
        "attempted": run["attempted"],
        "failed": len(run["failed"]),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
