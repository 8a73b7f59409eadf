#!/usr/bin/env python3
"""spikec benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload verify-narrow --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the benchmark imports ``spikec`` from
its ``src/`` directory and nowhere else.  It runs whole rounds of the
workload's operations for about ``--seconds`` seconds, sets the workload up
again after every round (reporting the median set-up time), checks every output
and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced rounds, runs ``verify`` in this process, and
reports the per-layer metrics plus the tracing overhead; the spans of the
traced set-up and first traced round are written to
``.bench_build/spikec-bench/``.  ``--small`` shrinks every
workload so that a run with all checks takes a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "spikec-bench"
#: Set-ups timed before the first round; one more is timed after every round,
#: so the set-up samples spread over the whole run.
SETUP_BEFORE = 3
#: Threads for ``verify``'s pool (SPIKEC_THREADS), capped by the CPUs we may use.
MAX_THREADS = 2


def _configure_env() -> dict:
    """Pin thread counts before numpy loads; returns the CLI children's env."""
    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["SPIKEC_THREADS"] = str(threads)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    return dict(os.environ, PYTHONPATH=str(SRC))


def _spikec():
    from spikec import (
        ann_core, boxes, calculus, cli, compiler, regions, serialization, simplex,
        snn_core,
    )

    return types.SimpleNamespace(
        ann_core=ann_core, boxes=boxes, calculus=calculus, cli=cli, compiler=compiler,
        regions=regions, serialization=serialization, simplex=simplex, snn_core=snn_core,
    )


def _unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), (".calls", "count"), ("us_per_call", "us"),
                         ("ns_per_synapse", "ns"), ("fraction", "fraction"),
                         ("_bytes", "bytes"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name}")


def _timed_setup(wl, setup_s: list[float]) -> None:
    t0 = time.perf_counter()
    wl.setup()
    setup_s.append(time.perf_counter() - t0)


def _run_rounds(wl, seconds: float, setup_s: list[float], tracer=None):
    """Whole rounds, each followed by a timed set-up, while the next one is
    expected to end within `seconds`.  With a tracer, rounds alternate
    untraced and traced, starting untraced, and at least one of each runs."""
    plain, traced = [], []
    t_start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(traced) < len(plain)
        if trace_this:
            tracer.phase = f"round{len(traced)}"
            tracer.install()
        t0 = time.perf_counter()
        try:
            r = wl.run_round()
        finally:
            if trace_this:
                tracer.uninstall()
        r.wall_s = time.perf_counter() - t0
        wl.check_round(r)
        (traced if trace_this else plain).append(r)
        _timed_setup(wl, setup_s)
        elapsed = time.perf_counter() - t_start
        per_round = elapsed / (len(plain) + len(traced))
        if elapsed + per_round > seconds and (tracer is None or traced):
            return plain, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify-narrow", "wide-compile-simulate", "regions-d10"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="shrink every workload so a run takes seconds")
    args = ap.parse_args(argv)

    if not (SRC / "spikec" / "__init__.py").is_file():
        print(f"bench: no spikec sources under {SRC}", file=sys.stderr)
        return 2
    env = _configure_env()
    m = _spikec()
    from tracing import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](m, args.seed, args.small, workdir, env)
        setup_s: list[float] = []
        for _ in range(SETUP_BEFORE):
            _timed_setup(wl, setup_s)

        tracer = None
        if args.trace:
            wl.in_process = True
            tracer = Tracer(m)
            tracer.phase = "setup"
            tracer.install()
            try:
                wl.setup()
            finally:
                tracer.uninstall()
        plain, traced = _run_rounds(wl, args.seconds, setup_s, tracer)
        rounds = plain + traced
        problems = [p for r in rounds for p in r.problems]
        notes = sorted({n for r in rounds for n in r.notes})

        if tracer is None:
            metrics = {
                "setup_s": (statistics.median(setup_s), "s"),
                "main_per_s": (statistics.median(items / secs for r in rounds
                                                 for items, secs in r.main), "1/s"),
                "side_ms": (statistics.median(1e3 * secs / items for r in rounds
                                              for items, secs in r.side), "ms"),
                "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
            }
        else:
            setup_spans = [s for s in tracer.spans if s.phase == "setup"]
            by_round = [[s for s in tracer.spans if s.phase == f"round{i}"]
                        for i in range(len(traced))]
            values = per_layer_metrics(setup_spans, by_round)
            values["serialization.snn_file_bytes"] = wl.snn_file_bytes()
            base = statistics.median(r.wall_s for r in plain)
            over = statistics.median(r.wall_s for r in traced) - base
            values["trace.overhead_ms"] = 1e3 * over
            values["trace.overhead_pct"] = 100.0 * over / base
            metrics = {k: (v, _unit(k)) for k, v in sorted(values.items())}
            tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl.gz",
                        ("setup", "round0"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{len(traced)} traced", file=sys.stderr)
    shown = dict(metrics)
    if tracer is None:
        shown.update(wl.named(metrics["main_per_s"][0], metrics["side_ms"][0]))
    for name, (value, unit) in shown.items():
        print(f"  {name:48s} {value:14.6g} {unit}", file=sys.stderr)
    for line in notes:
        print(f"  failed: {line}", file=sys.stderr)
    for line in sorted(set(problems)):
        print(f"  WRONG: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
