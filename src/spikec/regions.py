"""Linear-region analysis of a one-layer, single-output spiking neuron.

The firing time of such a neuron is piecewise affine in the input spike
times: each region corresponds to one subset I of inputs whose spikes arrive
strictly before the output fires.  On that region the firing time is

    t_v = sum_{i in I} (w_i / W) t_i + (theta + sum_{i in I} w_i d_i) / W,

with W = sum_{i in I} w_i > 0, and the region itself is cut out by linear
inequalities: inputs outside I must arrive at or after t_v, inputs inside I
strictly before.  enumerate_regions returns the candidate regions as one
table of arrays, Regions: per region a membership row for I, the gradient
g, the offset c and whether the region meets the box.

Whether a region meets the open box is decided exactly, in one variable,
the firing time tau = g . t + c: each input of I arrives after its box
start and before tau, every other input can arrive at tau or later, and
g . t must take the value tau - c while each t_i of I stays below
tau - d_i.  Each region is tested first at its own time at the box centre,
from its table row in O(d); in a box big enough to hold the regions that
decides nearly all of them.  The others are searched over the d + 1 pieces
of tau between the sorted kinks hi_k + d_k, on each of which the test is
an intersection of intervals in closed form.  No LP and no margin is
involved, which yields the exact region count inside a box.  The
inequalities are not kept; a descriptor's halfspaces rebuilds them from
its table row when asked, and halfspaces_feasible decides an arbitrary
system with the in-repo simplex.  A finite-difference gradient clustering
over a grid provides an independent empirical count.

The subsets' membership rows and member indices depend on d alone; the
last dimension's are kept, read-only, for the calls that repeat it.
stabilized_region_count grows nested cubes around one centre, and decides
in each only the regions not found in a smaller one.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations, repeat
from math import comb

import numpy as np

from .boxes import Box
from .errors import DimensionError, InvalidParameterError
from .simplex import feasible
from .snn_core import SpikingNetwork, network_forward_batch

MAX_ENUM_DIM = 20
ZERO_NORMAL_TOL = 1e-12
STRICT_EPS_SCALE = 1e-7
CLUSTER_TOL = 1e-6
MAX_DOUBLINGS = 40
#: Regions are enumerated and decided in chunks whose temporaries hold about
#: this many elements.
CHUNK_ELEMS = 1 << 15


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

    ``subset``, ``gradient`` and ``offset`` read the row.  ``halfspaces``
    rebuilds the region's inequalities from it when asked, one Halfspace
    per input.
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

    @property
    def halfspaces(self) -> tuple[Halfspace, ...]:
        t, i = self.table, self.index
        return _systems(t.inset[i], t.gradients[i], t.offsets[i], t.delays)


def _systems(member, gradient, offset, delays) -> tuple[Halfspace, ...]:
    """The inequalities of one region, from its table row.

    Input k of the subset arrives strictly before the firing time,
    (g - e_k) . t > d_k - offset, and every other input at or after it,
    (e_k - g) . t >= offset - d_k.  Built only for a descriptor asked for
    them.
    """
    eye = np.eye(member.size)
    # I - g rather than -(g - I), so zero entries stay +0.0.
    normals = np.subtract(eye, gradient)
    np.subtract(gradient, eye, out=normals, where=member[:, None])
    bounds = np.where(member, delays - offset, offset - delays)
    return tuple(map(Halfspace, normals, bounds.tolist(), member.tolist()))


def halfspaces_feasible(halfspaces, box: Box) -> bool:
    """Interior-point feasibility of one arbitrary halfspace system inside a
    box, by the simplex, with the strict rows shrunk by a margin of
    STRICT_EPS_SCALE * max(box diameter, 1).  A row whose normal is zero
    within ZERO_NORMAL_TOL is decided as a constant, and then reaches the
    simplex as 0 <= 0.  Regions are decided exactly, without this margin, by
    enumerate_regions and count_feasible.
    """
    normals = np.array([h.normal for h in halfspaces], dtype=float).reshape(-1, box.dim)
    bounds = np.array([h.bound for h in halfspaces], dtype=float)
    strict = np.array([h.strict for h in halfspaces], dtype=bool)
    need = bounds + np.where(strict, STRICT_EPS_SCALE * max(box.diameter, 1.0), 0.0)
    zero = np.all(np.abs(normals) < ZERO_NORMAL_TOL, axis=1)
    if np.any(need[zero] > 0):
        return False
    # normal . t >= bound + margin  <=>  -normal . t <= -(bound + margin)
    A, b = -normals, -need
    A[zero], b[zero] = 0.0, 0.0
    return bool(feasible(A, b, box.lo, box.hi))


@lru_cache(maxsize=1)
def _subset_plan(dim: int):
    """Every nonempty subset of range(dim), as enumerate_regions reads them:
    (inset, starts, members).

    inset holds one membership row per subset, in order of size, then in
    the order of itertools.combinations; the subsets of size r are rows
    starts[r - 1] to starts[r], and members[r - 1] holds their (comb(dim,
    r), r) member indices as uint8.  The arrays are read-only and take
    (2^dim - 1) dim + dim 2^(dim - 1) bytes, within 2 (2^dim - 1) dim.  They
    depend on dim alone, so every call at one dimension shares them; only
    the last dimension's are kept.  inset is filled one member column at a
    time, so the build's temporaries are a few index vectors of one size.
    """
    starts = (0, *accumulate(comb(dim, r) for r in range(1, dim + 1)))
    inset = np.zeros((starts[-1], dim), dtype=bool)
    members = []
    for r in range(1, dim + 1):
        n = comb(dim, r)
        idx = np.fromiter(chain.from_iterable(combinations(range(dim), r)), dtype=np.uint8,
                          count=n * r).reshape(n, r)
        rows = np.arange(starts[r - 1], starts[r])
        for col in idx.T:
            inset[rows, col] = True
        members.append(idx)
    for a in (inset, *members):
        a.flags.writeable = False
    return inset, starts, tuple(members)


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


def _check_box(box: Box, dim: int) -> None:
    """Refuse a box of another dimension or one without interior; Box
    itself refuses unbounded ones."""
    if box.dim != dim:
        raise DimensionError("box dimension must match the number of inputs")
    if not np.all(box.hi > box.lo):
        raise InvalidParameterError("box must have positive extent on every axis")


def enumerate_regions(weights, delays, theta: float, box: Box) -> Regions:
    """All candidate regions (nonempty subsets with positive weight sum).

    Subsets come in order of size, then lexicographically.  Their
    membership rows and member indices depend on d alone, and are read from
    the subset plan, which keeps them for the last dimension asked: a call
    that repeats the dimension does only the work that depends on the
    weights, and a call at a new d builds the plan first.  Each subset
    size is one block of the plan's rows, taken CHUNK_ELEMS // (8 d) rows
    at a time, as _decide takes them: one gather, one weight sum and one
    batched dot product per slice, about four (rows, size) arrays at once.
    The candidates among them are copied into the table, and their affine
    maps are written beside them.  Weight sums and dot products reduce over
    each subset's own entries, as the per-subset formulas do, so every
    value is what they give.  Last, the candidates are decided in the box.
    Beyond the table and the last dimension's plan, working memory does not
    grow with the 2^d subsets.
    """
    w, d = _neuron(weights, delays, theta)
    if w.size > MAX_ENUM_DIM:
        raise InvalidParameterError(f"subset enumeration limited to d <= {MAX_ENUM_DIM}")
    _check_box(box, w.size)
    dim = w.size
    subsets, starts, members = _subset_plan(dim)
    n = len(subsets)
    inset, gradients, offsets = np.empty((n, dim), dtype=bool), np.zeros((n, dim)), np.empty(n)
    step, kept = max(1, CHUNK_ELEMS // (8 * dim)), 0
    for first, block in zip(starts, members):
        for s in range(0, len(block), step):
            # Cast once: numpy gathers faster with intp indices than uint8.
            idx = block[s : s + step].astype(np.intp)
            wi = w[idx]
            W = wi.sum(axis=1)
            keep = W > 0
            dots = np.matmul(wi[:, None, :], d[idx][:, :, None])[keep, 0, 0]
            W = W[keep]
            rows = slice(kept, kept + len(W))
            inset[rows] = subsets[first + s : first + s + len(idx)][keep]
            offsets[rows] = (theta + dots) / W
            np.divide(w, W[:, None], out=gradients[rows], where=inset[rows])
            kept += len(W)
    inset, gradients, offsets = inset[:kept], gradients[:kept], offsets[:kept]
    return Regions(inset, gradients, offsets, _decide(inset, gradients, offsets, d, box), d.copy())


def _decide(inset, gradients, offsets, delays, box: Box) -> np.ndarray:
    """Whether each region of the table rows meets the open box.

    Region (I, g, c) meets it exactly when some firing time tau in (L0, U)
    has m(tau) < tau - c < M(tau), where L0 = max_{i in I} (lo_i + d_i),
    U = min_{k not in I} (hi_k + d_k), and m and M bound g . t as each t_i
    of I ranges over (lo_i, min(hi_i, tau - d_i)).  Rows are taken
    CHUNK_ELEMS // (8 d) at a time, as in the enumeration.  Each is tested
    at one tau (_at_centre); only the rows that test rejects are searched
    over every piece of tau (_over_pieces).
    """
    n, dim = inset.shape
    first, last = box.lo + delays, box.hi + delays
    flags, step = np.empty(n, dtype=bool), max(1, CHUNK_ELEMS // (8 * dim))
    for s in range(0, n, step):
        member, g, c = inset[s : s + step], gradients[s : s + step], offsets[s : s + step]
        after = np.max(np.where(member, first, -np.inf), axis=1)
        before = np.min(np.where(member, np.inf, last), axis=1)
        ok = _at_centre(g, c, after, before, delays, box)
        rest = np.flatnonzero(~ok)
        if rest.size:
            ok[rest] = _over_pieces(g[rest], c[rest], after[rest], before[rest], delays, box)
        flags[s : s + step] = ok
    return flags


def _at_centre(g, c, after, before, delays, box: Box) -> np.ndarray:
    """_decide's test of some rows, given their (L0, U), at each region's
    own time at the box centre, tau = c + g . (lo + hi) / 2, in O(d).

    With u_i = min(hi_i, tau - d_i) - lo_i, the room of t_i above lo_i,
    m(tau) = g . lo + g- . u and M(tau) = g . lo + g+ . u, where g+ and g-
    are the positive and negative parts of g.  In a box big enough to hold
    the regions this decides nearly all of them.
    """
    tau = c + np.einsum("ij,j->i", g, 0.5 * (box.lo + box.hi))
    u = tau[:, None] - (box.lo + delays)
    np.minimum(u, box.hi - box.lo, out=u)
    up = np.einsum("ij,ij->i", np.maximum(g, 0.0), u)
    x = tau - c - np.einsum("ij,j->i", g, box.lo)
    return (after < tau) & (tau < before) & (np.einsum("ij,ij->i", g, u) - up < x) & (x < up)


def _over_pieces(g, c, after, before, delays, box: Box) -> np.ndarray:
    """_decide's test of some rows, given their (L0, U), over every piece of
    tau.

    With the kinks hi_k + d_k sorted, tau's d + 1 pieces lie between them.
    On piece j the inputs of the first j kinks are capped at hi_i, and
    every other t_i of I reaches up to tau - d_i, so m(tau) = a + b tau and
    M(tau) = A + B tau are affine; one product of the rows' positive and
    negative parts with the box's (2 (d + 1), d) table of slopes and
    constants gives them all.  On each piece the test is then an
    intersection of intervals: tau - c > m(tau) holds above
    (c + a) / (1 - b), with 1 - b >= 1, and tau - c < M(tau) holds below or
    above (c + A) / (1 - B) as 1 - B is positive or negative, or everywhere
    or nowhere when it is zero.  Rows are taken CHUNK_ELEMS // (32 (d + 1))
    at a time, since about eleven (rows, d + 1) arrays live at once.
    """
    dim = delays.size
    kinks = box.hi + delays
    order = np.argsort(kinks, kind="stable")
    capped = np.empty(dim, dtype=np.intp)
    capped[order] = np.arange(dim)
    capped = capped < np.arange(dim + 1)[:, None]
    table = np.concatenate([~capped, np.where(capped, box.hi, -delays)])
    edges = np.concatenate([[-np.inf], kinks[order], [np.inf]])
    out, step = np.empty(len(c), dtype=bool), max(1, CHUNK_ELEMS // (32 * (dim + 1)))
    for s in range(0, len(c), step):
        rows = slice(s, s + step)
        gp, gn = np.maximum(g[rows], 0.0), np.minimum(g[rows], 0.0)
        b, a = np.split(np.einsum("ij,kj->ik", gn, table), 2, axis=1)
        B, A = np.split(np.einsum("ij,kj->ik", gp, table), 2, axis=1)
        a += (c[rows] + np.einsum("ij,j->i", gp, box.lo))[:, None]
        A += (c[rows] + np.einsum("ij,j->i", gn, box.lo))[:, None]
        B = 1.0 - B
        root = A / np.where(B == 0.0, 1.0, B)
        low = np.maximum(np.maximum(edges[:-1], after[rows, None]), a / (1.0 - b))
        high = np.minimum(edges[1:], before[rows, None])
        np.maximum(low, root, out=low, where=B < 0.0)
        np.minimum(high, root, out=high, where=B > 0.0)
        out[rows] = np.any((low < high) & ((B != 0.0) | (A > 0.0)), axis=1)
    return out


def count_feasible(regions: Regions, box: Box) -> int:
    """Number of the regions, a table as enumerate_regions returns, that
    meet the interior of the box."""
    _check_box(box, regions.inset.shape[1])
    return int(np.count_nonzero(
        _decide(regions.inset, regions.gradients, regions.offsets, regions.delays, box)
    ))


def stabilized_region_count(weights, delays, theta: float) -> int:
    """Feasible-region count over a box grown until the count stops changing.

    Starts from a unit box around the delays and doubles its radius, at most
    MAX_DOUBLINGS times, until the count is identical across two consecutive
    doublings, which operationalizes counting over a sufficiently large
    domain.  The first box's regions are the flags that enumerate_regions
    computes for it.  The boxes are nested cubes around one centre, and a
    region that meets a cube meets every larger one, so each doubled box
    decides only the regions not found in a smaller one.
    """
    w, d = _neuron(weights, delays, theta)
    center = float(np.mean(d)) if d.size else 0.0
    radius = max(1.0, float(np.max(np.abs(d - center), initial=0.0)))
    box = Box.cube(center - radius, center + radius, w.size)
    table = enumerate_regions(w, d, theta, box)
    found = table.feasible.copy()
    cnt = int(np.count_nonzero(found))
    prev = prev2 = -1
    for _ in range(MAX_DOUBLINGS - 1):
        if cnt == prev == prev2:
            break
        prev2, prev = prev, cnt
        radius *= 2.0
        box = Box.cube(center - radius, center + radius, w.size)
        rest = np.flatnonzero(~found)
        found[rest] = _decide(table.inset[rest], table.gradients[rest], table.offsets[rest], d,
                              box)
        cnt = int(np.count_nonzero(found))
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

    # The grid, then the grid stepped by +h_i e_i and by -h_i e_i for each
    # axis i: row 0 of vals is f0, rows 1::2 are fplus and rows 2::2 fminus.
    shifts = np.zeros((2 * dim + 1, dim))
    shifts[1::2] = np.diag(h)
    shifts[2::2] = -shifts[1::2]
    allpts = (shifts[:, None, :] + pts).reshape(-1, dim)
    aux = np.broadcast_to(np.asarray(net.aux_input_times), (allpts.shape[0], net.n_aux))
    vals = network_forward_batch(net, np.hstack([allpts, aux]))[:, 0].reshape(2 * dim + 1, -1)
    f0, fplus, fminus = vals[0], vals[1::2].T, vals[2::2].T
    no_fire = int(np.sum(np.isnan(f0)))
    ok = ~np.isnan(vals).any(axis=0)
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
