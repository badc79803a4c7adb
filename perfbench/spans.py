"""Span tracing from outside the package.

``Tracer.install`` replaces each public function listed in ``LAYERS`` by a
wrapper, in its own module and wherever another package module (or the
package namespace) imported the same function object, e.g.
``geomexact.rational_rref`` and ``combopt.solve``.  A span is the list
``[name, start, end, parent, op, info]``: ``parent`` is the index of the
enclosing span (-1 at top level), ``op`` the id of the benchmark operation
and ``info`` a small count taken from the result.  Spans stay in memory; the
benchmark writes them out when the run ends.

In ``alloc`` mode only ``sdpsolve.solve`` is wrapped, with tracemalloc
running inside it, and ``info`` is the peak traced allocation in bytes.

Run as a script, this wraps one ``thetabody`` CLI call:

    python3 perfbench/spans.py spans|alloc OUT.json SRC_DIR SUBCOMMAND [ARGS...]
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
import tracemalloc
from math import comb
from typing import Dict, List

import numpy as np

LAYERS = {
    "exactalg": ["buchberger_moller", "rational_rref"],
    "momentsdp": ["build_moment_template", "build_theta_sdp", "assemble"],
    "sdpsolve": ["solve"],
    "combopt": [
        "enumerate_stable_sets",
        "enumerate_odd_cycle_free",
        "moment_template",
        "stable_set_theta",
        "cut_theta",
    ],
    "geomexact": [
        "facets",
        "is_exact",
        "vertex_indices",
        "facet_vertex_report",
        "classify_01",
        "down_closed_analysis",
        "affine_dimension",
    ],
    "quadrics": [
        "quadric_space_from_points",
        "quadric_space_from_generators",
        "has_convex_quadric",
        "th1_membership",
    ],
    "cli": ["main"],
}
MODULES = list(LAYERS)
CLI_COMMANDS = ["theta", "exactness", "classify01", "th1", "moment-dump", "solve"]


def _facet_candidates(args, result):
    """(facets found, candidate subsets scanned) of one facets() call."""
    points = args[0]
    rows = getattr(points, "points", points)
    pts = np.array([[float(c) for c in p] for p in rows])
    d = int(np.linalg.matrix_rank(pts[1:] - pts[0])) if len(pts) > 1 else 0
    return [len(result), comb(len(pts), d) if d >= 2 else 0]


# Counts read from a call's arguments and result after its span has closed.
INFO = {
    "sdpsolve.solve": lambda args, r: r.iterations,
    "combopt.enumerate_stable_sets": lambda args, r: len(r.elements),
    "combopt.enumerate_odd_cycle_free": lambda args, r: len(r.elements),
    "momentsdp.build_moment_template": lambda args, r: len(r.cells),
    "geomexact.facets": _facet_candidates,
    "cli.main": lambda args, r: (args[0] or [None])[0] if args else None,
}


class Tracer:
    def __init__(self, mode: str = "spans"):
        if mode not in ("spans", "alloc"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.spans: List[list] = []
        self.op = None
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)

        if self.mode == "alloc":
            def wrapper(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    spans.append([name, 0.0, 0.0, -1, self.op, peak])
            return wrapper

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result
        return wrapper

    def install(self) -> None:
        package = importlib.import_module("thetabody")
        modules = [package] + [importlib.import_module(f"thetabody.{m}") for m in MODULES]
        targets = LAYERS if self.mode == "spans" else {"sdpsolve": ["solve"]}
        for mod_name, names in targets.items():
            home = importlib.import_module(f"thetabody.{mod_name}")
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{mod_name}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


# ---------------------------------------------------------------- metrics


def _durations(spans):
    """Inclusive time per name (outermost calls only) and self time per module."""
    inclusive: Dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    self_time = {m: 0.0 for m in MODULES}
    for idx, s in enumerate(spans):
        name, start, end, parent = s[0], s[1], s[2], s[3]
        self_time[name.split(".")[0]] += (end - start) - child_time[idx]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
    return inclusive, self_time


def pass_metrics(spans) -> Dict[str, float]:
    """Per-layer figures of one traced pass."""
    inc, self_time = _durations(spans)

    def t(*names):
        return sum(inc.get(n, 0.0) for n in names)

    def infos(name):
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    iterations = sum(infos("sdpsolve.solve"))
    solve_s = t("sdpsolve.solve")
    found = sum(f for f, _ in infos("geomexact.facets"))
    scanned = sum(c for _, c in infos("geomexact.facets"))
    out = {
        "sdpsolve.solve_s": solve_s,
        "sdpsolve.iter_ms": 1000.0 * solve_s / iterations if iterations else 0.0,
        "sdpsolve.solves": calls("sdpsolve.solve"),
        "sdpsolve.iterations": iterations,
        "combopt.enumerate_s": t("combopt.enumerate_stable_sets", "combopt.enumerate_odd_cycle_free"),
        "combopt.template_s": t("combopt.moment_template"),
        "combopt.basis_elements": sum(infos("combopt.enumerate_stable_sets"))
        + sum(infos("combopt.enumerate_odd_cycle_free")),
        "exactalg.bm_s": t("exactalg.buchberger_moller"),
        "exactalg.rref_s": t("exactalg.rational_rref"),
        "exactalg.rref_calls": calls("exactalg.rational_rref"),
        "momentsdp.template_s": t("momentsdp.build_moment_template"),
        "momentsdp.sdp_build_s": t("momentsdp.build_theta_sdp"),
        "momentsdp.template_cells": sum(infos("momentsdp.build_moment_template")),
        "geomexact.facets_s": t("geomexact.facets"),
        "geomexact.facets_calls": calls("geomexact.facets"),
        "geomexact.facet_yield": found / scanned if scanned else 0.0,
        "geomexact.vertex_s": t("geomexact.vertex_indices"),
        "geomexact.classify_s": t("geomexact.classify_01"),
        "quadrics.space_s": t("quadrics.quadric_space_from_points", "quadrics.quadric_space_from_generators"),
        "quadrics.membership_s": t("quadrics.th1_membership"),
        "quadrics.convex_quadric_s": t("quadrics.has_convex_quadric"),
        "trace.spans": len(spans),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = self_time[module]
    return out


def cli_metrics(spans) -> Dict[str, float]:
    """Median in-process time of ``cli.main`` per subcommand."""
    out = {}
    for command in CLI_COMMANDS:
        times = [s[2] - s[1] for s in spans if s[0] == "cli.main" and s[5] == command]
        out[f"cli.{command.replace('-', '_')}_s"] = statistics.median(times) if times else 0.0
    return out


def _main(argv) -> int:
    mode, out_path, src_dir, cli_args = argv[0], argv[1], argv[2], argv[3:]
    sys.path.insert(0, src_dir)
    tracer = Tracer(mode)
    tracer.install()
    cli = importlib.import_module("thetabody.cli")
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
