"""Expected values the benchmark checks the program against.

Nothing here imports spikec: every reference is computed from the
workload's inputs alone, so a fault in the program cannot leak into the
value it is checked against.
"""

from __future__ import annotations

import numpy as np


def random_relu(rng: np.random.Generator, width: int, depth: int, scale: float):
    """Fixed-width, single-output ReLU layers [(W out x in, b)], N(0, scale^2)."""
    layers = []
    for i in range(depth):
        rows = 1 if i == depth - 1 else width
        layers.append(
            (rng.normal(0.0, scale, (rows, width)), rng.normal(0.0, scale, rows))
        )
    return layers


def relu_forward(layers, xs: np.ndarray) -> np.ndarray:
    """Rows of xs through the ReLU layers; the last layer has no activation."""
    y = np.asarray(xs, dtype=float)
    for i, (w, b) in enumerate(layers):
        y = np.einsum("oi,ni->no", w, y) + b
        if i < len(layers) - 1:
            y = np.maximum(y, 0.0)
    return y


def compiled_size(width: int, depth: int) -> tuple[int, int]:
    """Closed-form (neurons, layers) of the compiled fixed-width network.

    neurons = N + L(2d+3) - (2d+2) and layers = 3L - 2, where N counts the
    source network's inputs, hidden units and single output.
    """
    n_source = width + width * (depth - 1) + 1
    neurons = n_source + depth * (2 * width + 3) - (2 * width + 2)
    return neurons, 3 * depth - 2


def positive_subsets(weights: np.ndarray) -> tuple[int, float]:
    """Count of nonempty input subsets with positive weight sum, and the
    smallest such sum.

    Each such subset is the contributing set of one linear region of the
    firing-time map: its inputs arriving together and the rest late realize
    it, and distinct subsets give distinct gradients w_I / sum(w_I).
    """
    w = np.asarray(weights, dtype=float)
    masks = (np.arange(1, 1 << w.size)[:, None] >> np.arange(w.size)) & 1
    sums = masks @ w
    pos = sums[sums > 0]
    return int(pos.size), float(pos.min()) if pos.size else float("inf")


def grid_chunks(lo: float, hi: float, dim: int, n: int, chunk: int = 1 << 15):
    """The n**dim regular grid of [lo, hi]^dim in row-major ("ij") order,
    yielded in slices so the whole grid is never held at once."""
    axis = np.linspace(lo, hi, n)
    total = n**dim
    for start in range(0, total, chunk):
        idx = np.unravel_index(np.arange(start, min(total, start + chunk)), (n,) * dim)
        yield np.stack([axis[k] for k in idx], axis=1)
