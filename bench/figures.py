#!/usr/bin/env python3
"""Reference figures quoted in bench/README.md, measured once, not per run.

    python3 bench/figures.py            # about three minutes on two cores

Prints: the numpy ANN forward against ``realize_batch`` on the benchmark's
batches; per-layer kernel milliseconds keyed by fan-in, fan-out and density;
the exactness error of wide and unit-variance networks; how often
``stabilized_region_count`` comes back short on raw N(0,1) 10-input neurons;
and its time per neuron at d = 12.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from reference import positive_subsets, random_relu, relu_forward  # noqa: E402
from spikec import Box, ReluNetwork, compile_ann, stabilized_region_count  # noqa: E402
from spikec.snn_core import layer_forward_batch, realize_batch  # noqa: E402


def best_of(fn, n=3) -> float:
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def compiled(layers):
    width = layers[0][0].shape[1]
    typed, _ = compile_ann(ReluNetwork(tuple(layers)), Box.cube(-1.0, 1.0, width))
    return typed


def forward_and_layers(label, layers, xs):
    typed = compiled(layers)
    t_ann = best_of(lambda: relu_forward(layers, xs))
    t_snn = best_of(lambda: realize_batch(typed.net, typed.enc, xs), n=1)
    print(f"{label}: {len(xs)} points: numpy forward {1e3 * t_ann:.2f} ms, "
          f"realize_batch {1e3 * t_snn:.0f} ms ({t_snn / t_ann:.0f}x)")
    times = np.hstack([typed.enc.t_in_ref + xs,
                       np.broadcast_to(typed.net.aux_input_times, (len(xs), typed.net.n_aux))])
    print("  layer  fan_in  fan_out  density    ms")
    for i, layer in enumerate(typed.net.layers):
        t = best_of(lambda: layer_forward_batch(layer, times), n=1)
        density = np.count_nonzero(layer.weights) / layer.weights.size
        print(f"  {i:5d}  {layer.fan_in:6d}  {layer.fan_out:7d}  {density:7.3f}  {1e3 * t:6.1f}")
        times = layer_forward_batch(layer, times)


def max_rel_error(layers, xs) -> float:
    typed = compiled(layers)
    want = relu_forward(layers, xs)
    got = realize_batch(typed.net, typed.enc, xs)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def main() -> None:
    rng = np.random.default_rng(1)
    print("== numpy forward vs realize_batch, per-layer kernel time ==")
    forward_and_layers("width 128, depth 3, N(0,1/128)",
                       random_relu(rng, 128, 3, 128**-0.5), rng.uniform(-1, 1, (192, 128)))
    forward_and_layers("width 4, depth 5, N(0,1)",
                       random_relu(rng, 4, 5, 1.0), rng.uniform(-1, 1, (20**4 // 2, 4)))

    print("\n== exactness: max |snn - ann| / max(1, |ann|) on 96 points ==")
    for width, scale, label in ((64, 1.0, "N(0,1)"), (128, 128**-0.5, "N(0,1/128)"),
                                (256, 256**-0.5, "N(0,1/256)")):
        errs = [max_rel_error(random_relu(np.random.default_rng(s), width, 3, scale),
                              np.random.default_rng(100 + s).uniform(-1, 1, (96, width)))
                for s in range(4)]
        print(f"width {width}, depth 3, {label}: seeds 0-3: "
              + ", ".join(f"{e:.2e}" for e in errs))

    print("\n== stabilized_region_count on raw N(0,1) 10-input neurons, seeds 0-39 ==")
    short = []
    for s in range(40):
        r = np.random.default_rng(s)
        w, d = r.normal(0, 1, 10), r.uniform(0, 1, 10)
        want = positive_subsets(w)[0]
        got = stabilized_region_count(w, d, 1.0)
        if got != want:
            short.append(f"seed {s}: {got}/{want}")
    print(f"{len(short)} of 40 short: " + "; ".join(short))

    print("\n== stabilized_region_count at d = 12, N(0,1) weights ==")
    for s in range(2):
        r = np.random.default_rng(s)
        w, d = r.normal(0, 1, 12), r.uniform(0, 1, 12)
        t0 = time.perf_counter()
        got = stabilized_region_count(w, d, 1.0)
        print(f"seed {s}: {time.perf_counter() - t0:.1f} s, {got} regions "
              f"of {positive_subsets(w)[0]} positive-sum subsets")


if __name__ == "__main__":
    main()
