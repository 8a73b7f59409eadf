"""Axis-aligned box domains."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidParameterError

CONTAINS_TOL = 1e-9
#: Largest grid point count: the grid's row indices are int64.
INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class Box:
    """A closed axis-aligned box, one finite interval per input dimension."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DimensionError("box bounds must be 1-d arrays of equal length")
        if lo.size == 0:
            raise InvalidParameterError("box must have at least one dimension")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise InvalidParameterError("box bounds must be finite")
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
        """Whether x, or every row of a (batch, dim) x, lies in the box up to CONTAINS_TOL."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            n = np.atleast_1d(x).shape[-1]
            raise DimensionError(f"point has dimension {n}, box {self.dim}")
        lo, hi = self.lo - CONTAINS_TOL, self.hi + CONTAINS_TOL
        return bool(np.all(x >= lo) and np.all(x <= hi))

    def shift(self, offset: float) -> "Box":
        return Box(self.lo + offset, self.hi + offset)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform points, shape (n, dim)."""
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def grid_size(self, n_per_axis: int) -> int:
        """Number of points of the grid with n points per axis, n**dim."""
        if n_per_axis < 1:
            raise InvalidParameterError("a grid needs at least one point per axis")
        total = n_per_axis**self.dim
        if total > INT64_MAX:
            raise InvalidParameterError(
                f"a grid of {n_per_axis}^{self.dim} points does not fit an int64 index"
            )
        return total

    def grid(self, n_per_axis: int, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Regular grid with n points per axis, shape (n**dim, dim), in row-major
        ("ij") order: the last coordinate varies fastest and axis i takes the
        values of ``np.linspace(lo[i], hi[i], n)``.

        With start and stop, only rows [start, stop) of that grid, equal bit
        for bit to the same slice of the whole grid.  A slice costs memory in
        proportion to its own rows, not to the grid's, so a caller can walk a
        grid far larger than memory.
        """
        total = self.grid_size(n_per_axis)
        stop = total if stop is None else stop
        if not 0 <= start <= stop <= total:
            raise InvalidParameterError(
                f"grid rows [{start}, {stop}) are not within [0, {total})"
            )
        idx = np.unravel_index(np.arange(start, stop), (n_per_axis,) * self.dim)
        return np.stack(
            [_linspace_at(lo, hi, n_per_axis, k) for lo, hi, k in zip(self.lo, self.hi, idx)],
            axis=1,
        )


def _linspace_at(lo: float, hi: float, n: int, k: np.ndarray) -> np.ndarray:
    """``np.linspace(lo, hi, n)[k]`` bit for bit, by numpy's own arithmetic,
    without building the n values of the axis."""
    y = k.astype(float)
    div = n - 1
    delta = hi - lo
    if div > 0:
        step = delta / div
        if step == 0:
            # numpy's order when the step underflows, as for lo == hi.
            y /= div
            y *= delta
        else:
            y *= step
    else:
        y *= delta
    y += lo
    if div > 0:
        y[k == div] = hi
    return y
