"""ReLU feed-forward networks and conservative per-layer range bounds.

These networks are the source language of the spiking compiler.  Evaluation
alternates affine maps with componentwise max(0, .); the final layer stays
affine.  The range bound is a deliberately loose symmetric interval per
row; the compiler chains its stage domains by its rule, but sizes thresholds
from whole-layer maxima, by the rule ``compiler._size_stage`` states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import Box
from .errors import DimensionError, InvalidParameterError

__all__ = ["ReluNetwork", "ann_forward", "layer_range_bound"]


@dataclass(frozen=True)
class ReluNetwork:
    """Layer list of finite (weights, biases); weights have shape (out, in),
    at least one row and column, and are stored C-contiguous so that each
    row is summed in one order whatever the layout passed in."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise DimensionError("a network needs at least one layer")
        norm = []
        prev_out = None
        for i, (a, b) in enumerate(self.layers):
            a = np.atleast_2d(np.ascontiguousarray(a, dtype=float))
            b = np.atleast_1d(np.asarray(b, dtype=float))
            if 0 in a.shape:
                raise DimensionError(f"layer {i}: weights need at least one row and column")
            if b.shape != (a.shape[0],):
                raise DimensionError(f"layer {i}: bias length must match rows of A")
            if prev_out is not None and a.shape[1] != prev_out:
                raise DimensionError(
                    f"layer {i} expects {a.shape[1]} inputs, got {prev_out}"
                )
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                raise InvalidParameterError(f"layer {i}: weights and biases must be finite")
            prev_out = a.shape[0]
            norm.append((a, b))
        object.__setattr__(self, "layers", tuple(norm))

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def num_neurons(self) -> int:
        """Computational units: inputs plus every layer's outputs."""
        return self.input_dim + sum(a.shape[0] for a, _ in self.layers)

    @property
    def fixed_width(self) -> int | None:
        """The common hidden/input width d, or None if widths vary.

        Width is fixed when the input and every layer but the last have the
        same dimension d and the last layer has one output.
        """
        d = self.input_dim
        for a, _ in self.layers[:-1]:
            if a.shape[0] != d:
                return None
        if self.layers[-1][0].shape[1] != d or self.output_dim != 1:
            return None
        return d


def ann_forward(net: ReluNetwork, x) -> np.ndarray:
    """Evaluate on one input or a (batch, input_dim) array; the last layer is affine.

    Each row's bits are independent of the batch: numpy's sum-of-products
    loop sums a C-contiguous row in its own order, where BLAS rounds a row
    by the shape of the call and its thread count.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim > 2 or x.shape[-1] != net.input_dim:
        raise DimensionError(f"input must have trailing dimension {net.input_dim}")
    for a, b in net.layers[:-1]:
        x = np.maximum(0.0, np.einsum("...i,oi->...o", x, a) + b)
    a, b = net.layers[-1]
    return np.einsum("...i,oi->...o", x, a) + b


def layer_range_bound(A: np.ndarray, B: np.ndarray, domain: Box) -> Box:
    """Conservative symmetric output interval for x -> Ax + B on a box.

    Each output row j gets the bound +-(d * m_j * M + |b_j|) where d is the
    input dimension, m_j the row's largest absolute weight, and M the box's
    largest absolute coordinate bound.  Sound but loose by design; callers
    clip the lower end to 0 after a ReLU layer.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_1d(np.asarray(B, dtype=float))
    if A.shape[1] != domain.dim:
        raise DimensionError("matrix columns must match domain dimension")
    if B.shape != (A.shape[0],):
        raise DimensionError("bias length must match matrix rows")
    r = _range_radius(np.max(np.abs(A), axis=1, initial=0.0), B, A.shape[1], domain.max_abs)
    return Box(-r, r)


def _range_radius(row_max: np.ndarray, B: np.ndarray, d: int, M: float) -> np.ndarray:
    """d * m_j * M + |b_j| per row from the row maxima m_j; the compiler chains on it too."""
    return d * row_max * M + np.abs(B)
