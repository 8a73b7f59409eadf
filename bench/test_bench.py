"""Tests of the benchmark itself: its references and a small run of every
workload with all checks.

    python -m pytest bench/
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from reference import (  # noqa: E402
    compiled_size,
    grid_chunks,
    positive_subsets,
    random_relu,
    relu_forward,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Failed share of one round in --small mode: the two named faults.
FAILED_SHARE = {
    "verify-narrow": Fraction(1, 23),  # 2 verify + 20 scalar points + fault verify
    "wide-compile-simulate": Fraction(0),
    "regions-d10": Fraction(1, 4),  # 2 zero-sum + 1 all-positive + fixed neuron
}


def test_positive_subsets_matches_brute_force():
    rng = np.random.default_rng(0)
    w = rng.normal(size=7)
    sums = [sum(c) for r in range(1, 8) for c in itertools.combinations(w, r)]
    count, smallest = positive_subsets(w)
    assert count == sum(s > 0 for s in sums)
    assert smallest == pytest.approx(min(s for s in sums if s > 0))


def test_zero_sum_weights_have_half_the_subsets():
    w = np.round(np.random.default_rng(2).normal(size=8) * 2**20) / 2**20
    w[-1] = -w[:-1].sum()
    assert positive_subsets(w)[0] == 2 ** (w.size - 1) - 1
    assert positive_subsets(np.abs(w))[0] == 2**w.size - 1


def test_relu_forward_matches_a_loop():
    rng = np.random.default_rng(1)
    layers = random_relu(rng, 3, 3, 1.0)
    xs = rng.uniform(-1, 1, (5, 3))
    for x, y in zip(xs, relu_forward(layers, xs)):
        h = x
        for i, (w, b) in enumerate(layers):
            h = np.array([sum(w[o, k] * h[k] for k in range(len(h))) + b[o]
                          for o in range(w.shape[0])])
            if i < len(layers) - 1:
                h = np.maximum(h, 0)
        np.testing.assert_allclose(y, h, rtol=1e-13, atol=1e-13)


def test_closed_form_size():
    # Width-2, depth-2: 5 source neurons + 2*7 - 6.
    assert compiled_size(2, 2) == (13, 4)


def test_grid_chunks_are_the_row_major_grid():
    got = np.concatenate(list(grid_chunks(-1.0, 1.0, 3, 4, chunk=7)))
    axis = np.linspace(-1.0, 1.0, 4)
    want = np.array(list(itertools.product(axis, repeat=3)))
    np.testing.assert_array_equal(got, want)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--small")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"], proc.stderr
    assert Fraction(res["failed"], res["attempted"]) == FAILED_SHARE[workload]
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "regions-d10", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
