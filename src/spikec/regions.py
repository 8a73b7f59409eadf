"""Linear-region analysis of a one-layer, single-output spiking neuron.

The firing time of such a neuron is piecewise affine in the input spike
times: each region corresponds to one subset I of inputs whose spikes arrive
strictly before the output fires.  On that region the firing time is

    t_v = sum_{i in I} (w_i / W) t_i + (theta + sum_{i in I} w_i d_i) / W,

with W = sum_{i in I} w_i > 0, and the region itself is cut out by linear
inequalities: inputs outside I must arrive at or after t_v, inputs inside I
strictly before.  enumerate_regions returns the candidate regions as one
table of arrays, Regions: per region a membership row for I, the gradient,
the offset and whether the region meets the box.  Each region is first
tried at one closed-form point, with every input of I arriving at once, as
early as the box allows, and every other input at the box's upper end; a
region that point satisfies is feasible.  Row k of a region's system has
the normal g - e_k or e_k - g, so the point is checked from the table row
in O(d).  The inequalities are not kept; one helper, _systems, builds them
as a (regions, d, d) array only for the regions whose point fails, which
the simplex then decides a chunk at a time, and for a descriptor asked for
them.  In a box big enough to hold the regions the point decides nearly
all of them.  This yields the exact region count inside a box.  A
finite-difference gradient clustering over a grid provides an independent
empirical count.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, repeat
from math import comb

import numpy as np

from .boxes import Box
from .errors import DimensionError, InvalidParameterError
from .simplex import CHUNK_ELEMS, feasible
from .snn_core import SpikingNetwork, network_forward_batch

MAX_ENUM_DIM = 20
ZERO_NORMAL_TOL = 1e-12
STRICT_EPS_SCALE = 1e-7
CLUSTER_TOL = 1e-6
MAX_DOUBLINGS = 40


@dataclass(frozen=True)
class Halfspace:
    """The constraint normal . t >= bound (weak) or > bound (strict)."""

    normal: np.ndarray
    bound: float
    strict: bool


@dataclass(frozen=True, eq=False)
class Regions(Sequence):
    """The candidate regions of one neuron, as enumerate_regions returns them.

    Row i is one region: ``inset[i]`` marks its subset, ``gradients[i]`` and
    ``offsets[i]`` give its affine map, and ``feasible[i]`` says whether it
    meets the interior of the box it was enumerated in.  ``delays`` are the
    neuron's; with them the rows give back each region's inequalities.  The
    arrays are read-only.  An index gives a RegionDescriptor, a view of one
    row.
    """

    inset: np.ndarray
    gradients: np.ndarray
    offsets: np.ndarray
    feasible: np.ndarray
    delays: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.inset, self.gradients, self.offsets, self.feasible, self.delays):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.offsets)

    def __getitem__(self, i) -> RegionDescriptor:
        i = range(len(self))[operator.index(i)]
        return RegionDescriptor(self, i, bool(self.feasible[i]))

    def __iter__(self):
        return map(RegionDescriptor, repeat(self), range(len(self)), self.feasible.tolist())


class RegionDescriptor:
    """One candidate linear region: a view of row ``index`` of a Regions table.

    ``subset``, ``gradient`` and ``offset`` read the row.  Row k of the
    region's system is ``normals[k] . t >= bounds[k]``, strict where
    ``strict[k]``; these arrays, and ``halfspaces``, the same rows as
    Halfspace objects, are rebuilt from the table row when asked.
    """

    __slots__ = ("table", "index", "feasible_in_box")

    def __init__(self, table: Regions, index: int, feasible_in_box: bool) -> None:
        self.table = table
        self.index = index
        self.feasible_in_box = feasible_in_box

    @property
    def subset(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.table.inset[self.index]).tolist())

    @property
    def gradient(self) -> np.ndarray:
        return self.table.gradients[self.index]

    @property
    def offset(self) -> float:
        return float(self.table.offsets[self.index])

    def _system(self):
        t, row = self.table, slice(self.index, self.index + 1)
        return [a[0] for a in _systems(t.inset[row], t.gradients[row], t.offsets[row], t.delays)]

    normals = property(lambda self: self._system()[0])
    bounds = property(lambda self: self._system()[1])
    strict = property(lambda self: self._system()[2])

    @property
    def halfspaces(self) -> tuple[Halfspace, ...]:
        normals, bounds, strict = self._system()
        return tuple(map(Halfspace, normals, bounds.tolist(), strict.tolist()))


def _bounds(inset, offsets, delays):
    """The (regions, d) bounds of a stack of regions' systems."""
    return np.where(inset, delays - offsets[:, None], offsets[:, None] - delays)


def _systems(inset, gradients, offsets, delays):
    """The inequalities of a stack of regions, from their table rows:
    (regions, d, d) normals and (regions, d) bounds and strict flags.

    Input k of the subset arrives strictly before the firing time,
    (g - e_k) . t > d_k - offset, and every other input at or after it,
    (e_k - g) . t >= offset - d_k.  Built only for the regions that go to
    the simplex and for a descriptor asked for them.
    """
    eye = np.eye(inset.shape[1])
    g = gradients[:, None, :]
    # I - g rather than -(g - I), so zero entries stay +0.0.
    normals = np.subtract(eye, g)
    np.subtract(g, eye, out=normals, where=inset[:, :, None])
    return normals, _bounds(inset, offsets, delays), inset


def _point(bounds, strict, box: Box):
    """One closed-form point per system, (systems, dim).

    On the strict rows t_k = max_i (lo_i + b_i) - b_k, the maximum taken
    over the strict rows, and never below lo_k; on the other rows
    t_k = hi_k.  On a region's system, where b_k = d_k - offset on the
    strict rows, every input of the subset then arrives at one time, the
    earliest the box allows, and every other input at the box's upper end.
    """
    lead = np.max(np.where(strict, box.lo + bounds, -np.inf), axis=1)
    # (lo_k + b_k) - b_k can round to just below lo_k.
    return np.where(strict, np.maximum(lead[:, None] - bounds, box.lo), box.hi)


def _need(bounds, strict, box: Box):
    """Bounds with the margin that shrinks the strict rows, proportional to
    the box diameter."""
    eps = STRICT_EPS_SCALE * max(box.diameter, 1.0)
    return bounds + np.where(strict, eps, 0.0)


def _zero_rows(normals):
    """The rows with a (numerically) zero normal."""
    return np.all(np.abs(normals) < ZERO_NORMAL_TOL, axis=2)


def _satisfies(t, products, zero, bounds, strict, box: Box):
    """Whether each point t satisfies its system, given every row's
    normal . t as ``products`` and the rows with a (numerically) zero normal
    as ``zero``: the check of the system the simplex would get.  The point
    lies inside the box, and every row's slack is >= 0 with the strict
    margin added, a zero-normal row being decided as a constant.  A system
    without a strict row is never satisfied here.
    """
    need = _need(bounds, strict, box)
    ok = np.where(zero, need <= 0, products - need >= 0)
    ok &= (t >= box.lo) & (t <= box.hi)
    return np.any(strict, axis=1) & np.all(ok, axis=1)


def _witness(normals, bounds, strict, box: Box):
    """The closed-form point of each system (_point) and whether it
    satisfies the system (_satisfies).  Needs one row per input; returns the
    (systems, dim) points and the (systems,) flags.
    """
    t = _point(bounds, strict, box)
    products = np.matmul(normals, t[:, :, None])[:, :, 0]
    return t, _satisfies(t, products, _zero_rows(normals), bounds, strict, box)


def _row_witness(inset, gradients, offsets, delays, box: Box) -> np.ndarray:
    """_witness's flags for a stack of regions, from their table rows in O(d)
    each.  Row k's normal is g - e_k on the subset and e_k - g off it, so
    its product with t is g.t - t_k or t_k - g.t, and the normal is zero
    exactly when |g_k - 1| and every other |g_j| are below ZERO_NORMAL_TOL.
    """
    bounds = _bounds(inset, offsets, delays)
    t = _point(bounds, inset, box)
    gt = np.einsum("ij,ij->i", gradients, t)[:, None]
    products = np.where(inset, gt - t, t - gt)
    zero = np.abs(gradients - 1.0) < ZERO_NORMAL_TOL
    if zero.any():
        # Such a g_k must be its row's one entry not below the tolerance.
        big = np.count_nonzero(~(np.abs(gradients) < ZERO_NORMAL_TOL), axis=1)
        zero &= (big == 1)[:, None]
    return _satisfies(t, products, zero, bounds, inset, box)


def _simplex_feasible(normals, bounds, strict, box: Box) -> np.ndarray:
    """The simplex's interior-point feasibility of a stack of systems, with
    the strict rows shrunk by the margin.  A row with a zero normal is
    decided as a constant, and then reaches the simplex as 0 <= 0.
    Overwrites ``normals``.
    """
    b, zero = _need(bounds, strict, box), _zero_rows(normals)
    decided = ~np.any(zero & (b > 0), axis=1)
    # normal . t >= bound + margin  <=>  -normal . t <= -(bound + margin)
    np.negative(normals, out=normals)
    np.negative(b, out=b)
    normals[zero] = 0.0
    b[zero] = 0.0
    return decided & feasible(normals, b, box.lo, box.hi)


def halfspaces_feasible(halfspaces, box: Box) -> bool:
    """Interior-point feasibility of one halfspace system inside a box.

    A system with one row per input whose closed-form point (_witness)
    satisfies it is feasible; the others go to the simplex.
    """
    rows = (1, len(halfspaces))
    normals = np.array([h.normal for h in halfspaces], dtype=float).reshape(*rows, box.dim)
    bounds = np.array([h.bound for h in halfspaces], dtype=float).reshape(rows)
    strict = np.array([h.strict for h in halfspaces], dtype=bool).reshape(rows)
    if len(halfspaces) == box.dim and _witness(normals, bounds, strict, box)[1][0]:
        return True
    return bool(_simplex_feasible(normals, bounds, strict, box)[0])


def _chunk(dim: int) -> int:
    """Systems per simplex chunk: as many as have normals of CHUNK_ELEMS / 2
    elements in all, and at least one.  A chunk's normals live only while
    it is decided, beside a temporary of their size in _zero_rows, so a
    chunk holds about CHUNK_ELEMS elements; the simplex cuts its own chunks
    from these."""
    return max(1, CHUNK_ELEMS // (2 * dim * dim))


def _fill_subsets(inset, starts) -> None:
    """Write every nonempty subset of range(d) into the (2^d - 1, d) array as
    a membership row, in order of size, then lexicographically; those of
    size r start at row starts[r - 1].

    Read with input 0 as the high bit, lexicographic order within one size
    is descending order of the bit vectors.  The vectors are taken in
    descending blocks of CHUNK_ELEMS // d, and each block's rows are placed
    by their size.
    """
    n, dim = inset.shape
    bits = 1 << np.arange(dim - 1, -1, -1)
    # The row where the next subset of each size goes.
    at = starts[:-1]
    step = max(1, CHUNK_ELEMS // dim)
    for top in range(n, 0, -step):
        member = (np.arange(top, max(top - step, 0), -1)[:, None] & bits) != 0
        size = np.count_nonzero(member, axis=1)
        for r in range(1, dim + 1):
            rows = member[size == r]
            inset[at[r - 1] : at[r - 1] + len(rows)] = rows
            at[r - 1] += len(rows)


def _neuron(weights, delays, theta: float):
    """The weights and delays as float vectors, checked together with theta."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    d = np.atleast_1d(np.asarray(delays, dtype=float))
    if w.shape != d.shape or w.ndim != 1:
        raise DimensionError("weights and delays must be equal-length vectors")
    if not theta > 0:
        raise InvalidParameterError("threshold must be positive")
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(d)) and np.isfinite(theta)):
        raise InvalidParameterError("weights, delays and threshold must be finite")
    return w, d


def enumerate_regions(weights, delays, theta: float, box: Box) -> Regions:
    """All candidate regions (nonempty subsets with positive weight sum).

    Subsets come in order of size, then lexicographically.  Their
    membership rows are written first.  Then the rows are taken a chunk of
    CHUNK_ELEMS // (4 d) at a time, since the gathers of one size hold about
    four (rows, size) arrays at once: the candidates among them move up in
    place, and their affine maps are written beside them.  Weight sums and
    dot products reduce over each subset's own entries, one size at a time,
    as the per-subset formulas do, so every value is what they give.  Last,
    the candidates are decided in the box.  Beyond the table, working
    memory does not grow with the 2^d subsets.
    """
    w, d = _neuron(weights, delays, theta)
    if w.size > MAX_ENUM_DIM:
        raise InvalidParameterError(f"subset enumeration limited to d <= {MAX_ENUM_DIM}")
    if box.dim != w.size:
        raise DimensionError("box dimension must match the number of inputs")
    dim, n = w.size, (1 << w.size) - 1
    # Subsets of size r are rows starts[r - 1] to starts[r].
    starts = [0, *accumulate(comb(dim, r) for r in range(1, dim + 1))]
    inset = np.empty((n, dim), dtype=bool)
    _fill_subsets(inset, starts)
    gradients, offsets = np.zeros((n, dim)), np.empty(n)
    step, kept = max(1, CHUNK_ELEMS // (4 * dim)), 0
    for s in range(0, n, step):
        e = min(s + step, n)
        W, dots = [], []
        for r in range(1, dim + 1):
            lo, hi = max(s, starts[r - 1]), min(e, starts[r])
            if lo < hi:
                idx = np.nonzero(inset[lo:hi])[1].reshape(hi - lo, r)
                W.append(w[idx].sum(axis=1))
                dots.append(np.matmul(w[idx][:, None, :], d[idx][:, :, None])[:, 0, 0])
        W, dots = np.concatenate(W), np.concatenate(dots)
        keep = W > 0
        W = W[keep]
        rows = slice(kept, kept + len(W))
        inset[rows] = inset[s:e][keep]
        offsets[rows] = (theta + dots[keep]) / W
        np.divide(w, W[:, None], out=gradients[rows], where=inset[rows])
        kept += len(W)
    inset, gradients, offsets = inset[:kept], gradients[:kept], offsets[:kept]
    return Regions(inset, gradients, offsets, _decide(inset, gradients, offsets, d, box), d.copy())


def _decide(inset, gradients, offsets, delays, box: Box) -> np.ndarray:
    """Whether each region of the table rows meets the interior of the box.

    Each region's closed-form point is checked from its table row
    (_row_witness), CHUNK_ELEMS // (8 d) rows at a time, so that its
    (rows, d) temporaries take no more memory than an enumeration chunk's
    gathers.  Only the regions whose point fails get their (d, d) systems,
    _chunk(d) at a time, for the simplex.
    """
    n, dim = inset.shape
    flags, step = np.empty(n, dtype=bool), max(1, CHUNK_ELEMS // (8 * dim))
    for s in range(0, n, step):
        rows = slice(s, s + step)
        flags[rows] = _row_witness(inset[rows], gradients[rows], offsets[rows], delays, box)
    rest, step = np.flatnonzero(~flags), _chunk(dim)
    for s in range(0, rest.size, step):
        idx = rest[s : s + step]
        flags[idx] = _simplex_feasible(
            *_systems(inset[idx], gradients[idx], offsets[idx], delays), box
        )
    return flags


def count_feasible(regions: Regions, box: Box) -> int:
    """Number of the regions, a table as enumerate_regions returns, that
    meet the interior of the box."""
    if box.dim != regions.inset.shape[1]:
        raise DimensionError("box dimension must match the number of inputs")
    return int(np.count_nonzero(
        _decide(regions.inset, regions.gradients, regions.offsets, regions.delays, box)
    ))


def stabilized_region_count(weights, delays, theta: float) -> int:
    """Feasible-region count over a box grown until the count stops changing.

    Starts from a unit box around the delays and doubles its radius, at most
    MAX_DOUBLINGS times, until the count is identical across two consecutive
    doublings, which operationalizes counting over a sufficiently large
    domain.  The first box's count is read off the flags that
    enumerate_regions computes for it.
    """
    w, d = _neuron(weights, delays, theta)
    center = float(np.mean(d)) if d.size else 0.0
    radius = max(1.0, float(np.max(np.abs(d - center), initial=0.0)))
    box = Box.cube(center - radius, center + radius, w.size)
    regions = enumerate_regions(w, d, theta, box)
    cnt = int(np.count_nonzero(regions.feasible))
    prev = prev2 = -1
    for _ in range(MAX_DOUBLINGS - 1):
        if cnt == prev == prev2:
            break
        prev2, prev = prev, cnt
        radius *= 2.0
        box = Box.cube(center - radius, center + radius, w.size)
        cnt = count_feasible(regions, box)
    return cnt


@dataclass(frozen=True)
class EmpiricalRegionCount:
    """Result of the grid oracle: affine-piece count and no-fire cells."""

    count: int
    no_fire_points: int


def empirical_region_count(
    net: SpikingNetwork, box: Box, grid_n: int
) -> EmpiricalRegionCount:
    """Count distinct affine pieces of the firing-time map on a grid.

    Evaluates the (single-output) network on a regular grid of input spike
    times, estimates the gradient at each point by central differences, and
    keeps only points whose neighbors are affine-consistent with that
    gradient, discarding points whose stencil straddles a region boundary.
    The surviving (gradient, offset) pairs are clustered and counted.
    Points where the output never fires are tallied separately.
    """
    if net.output_dim != 1:
        raise DimensionError("empirical count needs a single-output network")
    if box.dim != net.input_dim:
        raise DimensionError("box dimension must match the network input")
    if grid_n < 2:
        raise InvalidParameterError("grid_n must be at least 2")
    if grid_n**box.dim > 1e7:
        raise InvalidParameterError("grid too large")
    dim = box.dim
    pts = box.grid(grid_n)
    h = 0.25 * (box.hi - box.lo) / (grid_n - 1)
    if np.any(h <= 0):
        raise InvalidParameterError("box must have positive extent on every axis")

    stencil = [pts]
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h[i]
        stencil.extend([pts + e, pts - e])
    allpts = np.vstack(stencil)
    aux = np.broadcast_to(
        np.asarray(net.aux_input_times), (allpts.shape[0], net.n_aux)
    )
    vals = network_forward_batch(net, np.hstack([allpts, aux]))[:, 0]
    n = pts.shape[0]
    f0 = vals[:n]
    fplus = np.stack([vals[(2 * i + 1) * n : (2 * i + 2) * n] for i in range(dim)], axis=1)
    fminus = np.stack([vals[(2 * i + 2) * n : (2 * i + 3) * n] for i in range(dim)], axis=1)

    no_fire = int(np.sum(np.isnan(f0)))
    ok = ~np.isnan(f0) & ~np.isnan(fplus).any(axis=1) & ~np.isnan(fminus).any(axis=1)
    grad = (fplus - fminus) / (2.0 * h)
    # Keep points whose one-sided steps match the central gradient: that
    # holds exactly when the whole stencil lies in one affine piece.
    resid = np.abs(fplus - f0[:, None] - grad * h)
    # The acceptance threshold keeps any straddler that slips through from
    # perturbing the estimated gradient by more than a twentieth of the
    # clustering tolerance, while staying far above double-precision noise.
    atol = np.maximum(0.05 * CLUSTER_TOL * h, 1e-12 * np.maximum(1.0, np.abs(f0[:, None])))
    ok &= np.all(resid < atol, axis=1)
    if not np.any(ok):
        return EmpiricalRegionCount(0, no_fire)
    grad = grad[ok]
    offset = f0[ok] - np.einsum("ij,ij->i", grad, pts[ok])
    sig = np.hstack([grad, offset[:, None]])

    # Two-stage clustering: coarse dedup by rounding, then greedy merge of
    # the survivors at the clustering tolerance.
    reps = np.unique(np.round(sig / (0.01 * CLUSTER_TOL)), axis=0) * (0.01 * CLUSTER_TOL)
    clusters: list[np.ndarray] = []
    for row in reps:
        if not any(np.max(np.abs(row - c)) <= CLUSTER_TOL for c in clusters):
            clusters.append(row)
    return EmpiricalRegionCount(len(clusters), no_fire)
