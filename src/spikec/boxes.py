"""Axis-aligned box domains."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidParameterError

CONTAINS_TOL = 1e-9


@dataclass(frozen=True)
class Box:
    """A closed axis-aligned box, one interval per input dimension."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DimensionError("box bounds must be 1-d arrays of equal length")
        if lo.size == 0:
            raise InvalidParameterError("box must have at least one dimension")
        if np.any(lo > hi):
            raise InvalidParameterError("box is empty: lo > hi in some dimension")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def cube(cls, lo: float, hi: float, dim: int) -> "Box":
        return cls(np.full(dim, float(lo)), np.full(dim, float(hi)))

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def max_abs(self) -> float:
        """max over dimensions of max{|lo|, |hi|}."""
        return float(np.max(np.maximum(np.abs(self.lo), np.abs(self.hi))))

    @property
    def diameter(self) -> float:
        return float(np.max(self.hi - self.lo))

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != self.lo.shape:
            raise DimensionError(f"point has dimension {x.size}, box {self.dim}")
        lo, hi = self.lo - CONTAINS_TOL, self.hi + CONTAINS_TOL
        return bool(np.all(x >= lo) and np.all(x <= hi))

    def shift(self, offset: float) -> "Box":
        return Box(self.lo + offset, self.hi + offset)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform points, shape (n, dim)."""
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def grid(self, n_per_axis: int) -> np.ndarray:
        """Regular grid with n points per axis, shape (n**dim, dim)."""
        if n_per_axis < 1:
            raise InvalidParameterError("a grid needs at least one point per axis")
        axes = [np.linspace(self.lo[i], self.hi[i], n_per_axis) for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)
