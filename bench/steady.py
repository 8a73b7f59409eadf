#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report the spread.

    python3 bench/steady.py --workload regions-d10 --seeds 1-5
    python3 bench/steady.py --seeds 1-10 --sets 2      # every workload, twice

For each end-to-end metric (or, with --trace 1, each per-layer metric) it
prints the median, the first and third quartiles of the runs, the spread
(q3 - q1) / median and, for metrics with a bound in BENCHMARK.json, the
spread as a share of the bound; "ok" means the spread is below a third of
the bound (set-up time is exempt).  With --sets 2 the whole set is run twice
and the second median is compared with the first against the bound.  It
also checks that every run was correct and failed the same share of its
operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_set(workload, seeds, seconds, trace) -> list[dict]:
    results = []
    for seed in seeds:
        res = run_once(workload, seed, seconds, trace)
        share = Fraction(res["failed"], res["attempted"])
        print(f"  {workload} seed {seed}: correct={res['correct']} "
              f"failed {res['failed']}/{res['attempted']} ({float(share):.4f})",
              flush=True)
        results.append(res)
    return results


def report(workload, sets: list[list[dict]], bounds: dict, better: dict) -> bool:
    ok = True
    shares = {Fraction(r["failed"], r["attempted"]) for s in sets for r in s}
    if len(shares) != 1:
        print(f"  {workload}: failed share differs between runs: "
              f"{sorted(float(x) for x in shares)}")
        ok = False
    if not all(r["correct"] for s in sets for r in s):
        print(f"  {workload}: some run was not correct")
        ok = False
    print(f"  {'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    medians = []
    for i, results in enumerate(sets):
        med = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med[name] = q2
            spread = (q3 - q1) / q2 if q2 else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                if name == "setup_s":
                    verdict = "(set-up: spread not gated)"
                elif spread < bound / 3:
                    verdict = "ok"
                else:
                    verdict = "TOO WIDE" if spread > bound else "wide (above bound/3)"
                    ok = ok and spread <= bound
            print(f"  {name:44s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
                  f"{'' if bound is None else bound:>6}  {verdict}  [set {i + 1}]")
            print("      runs: " + " ".join(f"{v:.4g}" for v in values))
        medians.append(med)
    for i in range(1, len(medians)):
        for name, bound in bounds.items():
            if name not in medians[0]:
                continue
            a, b = medians[0][name], medians[i][name]
            worse = (a - b) / a if better[name] == "higher" else (b - a) / a
            flag = "ok" if worse <= bound else "WORSE THAN BOUND"
            print(f"  set {i + 1} vs set 1: {name:32s} {100 * worse:+7.2f}% worse  {flag}")
            ok = ok and worse <= bound
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help='"1-10" or "3,5,8"')
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args(argv)

    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    bounds = {m["name"]: m["bound"] for m in metrics if "bound" in m}
    better = {m["name"]: m["better"] for m in metrics}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    all_ok = True
    for wl in workloads:
        sets = [run_set(wl, seeds, args.seconds, args.trace) for _ in range(args.sets)]
        all_ok = report(wl, sets, bounds, better) and all_ok
    print("steady" if all_ok else "NOT steady")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
