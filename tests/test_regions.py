"""Tests for linear-region enumeration, counting and the grid oracle."""

import functools
import hashlib
import tracemalloc
from itertools import compress

import numpy as np
import pytest

from spikec import (
    Box,
    DimensionError,
    InvalidParameterError,
    count_feasible,
    empirical_region_count,
    enumerate_regions,
    resolve_firing_time,
    single_neuron_network,
    stabilized_region_count,
)
from spikec.regions import (
    STRICT_EPS_SCALE,
    ZERO_NORMAL_TOL,
    Halfspace,
    Regions,
    _row_witness,
    _witness,
    halfspaces_feasible,
)
from spikec import regions, simplex
from spikec.simplex import feasible
from test_simplex import feasible_reference


def random_nondegenerate_weights(rng, d):
    """Weights whose subset sums stay away from zero.

    Keeps the region structure stable under the grid oracle's finite
    differences: a subset sum very close to zero makes firing times blow up
    near a region's appearance threshold.
    """
    while True:
        w = rng.uniform(-1.5, 1.5, d)
        sums = [abs(w[list(s)].sum()) for s in _subsets(d)]
        if min(sums) > 0.05:
            return w


def _subsets(d):
    from itertools import combinations

    for r in range(1, d + 1):
        yield from combinations(range(d), r)


def test_worked_two_input_example():
    box = Box.cube(-5, 5, 2)
    descs = enumerate_regions([1.0, 1.0], [2.0, 1.0], 1.0, box)
    assert len(descs) == 3
    by_subset = {tuple(sorted(r.subset)): r for r in descs}
    r0 = by_subset[(0,)]
    assert np.allclose(r0.gradient, [1, 0]) and r0.offset == pytest.approx(3.0)
    r1 = by_subset[(1,)]
    assert np.allclose(r1.gradient, [0, 1]) and r1.offset == pytest.approx(2.0)
    r01 = by_subset[(0, 1)]
    assert np.allclose(r01.gradient, [0.5, 0.5]) and r01.offset == pytest.approx(2.0)
    assert all(r.feasible_in_box for r in descs)
    assert count_feasible(descs, box) == 3


def test_two_input_facets_have_unit_difference_normals():
    # Every region boundary of a two-input neuron is a line of the form
    # t2 = t1 + constant.
    descs = enumerate_regions([1.0, 1.0], [2.0, 1.0], 1.0, Box.cube(-5, 5, 2))
    for r in descs:
        for h in r.halfspaces:
            n = h.normal
            if np.max(np.abs(n)) < 1e-12:
                continue
            assert abs(n[0] + n[1]) < 1e-12


def test_three_positive_inputs_give_seven_regions():
    box = Box.cube(-10, 10, 3)
    descs = enumerate_regions(np.ones(3), np.zeros(3), 1.0, box)
    assert count_feasible(descs, box) == 7


def test_nonpositive_subsets_are_omitted():
    box = Box.cube(-10, 10, 2)
    descs = enumerate_regions([1.0, -2.0], [0.0, 0.0], 1.0, box)
    assert {tuple(sorted(r.subset)) for r in descs} == {(0,)}
    assert count_feasible(descs, box) == 1


def test_gradients_sum_to_one():
    rng = np.random.default_rng(17)
    box = Box.cube(-8, 8, 3)
    descs = enumerate_regions(rng.uniform(-1, 1, 3), rng.uniform(0, 2, 3), 1.2, box)
    for r in descs:
        assert r.gradient.sum() == pytest.approx(1.0, abs=1e-12)


def test_count_bound_holds():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        w = rng.uniform(-2, 2, d)
        delays = rng.uniform(0, 2, d)
        box = Box.cube(-20, 20, d)
        descs = enumerate_regions(w, delays, 1.0, box)
        assert count_feasible(descs, box) <= 2**d - 1


def test_stabilized_count_attains_bound_for_positive_weights():
    rng = np.random.default_rng(29)
    for d in (2, 3, 4):
        w = rng.uniform(0.2, 2.0, d)
        delays = rng.uniform(0.0, 3.0, d)
        assert stabilized_region_count(w, delays, 1.0) == 2**d - 1


def test_dimension_cap():
    with pytest.raises(InvalidParameterError):
        enumerate_regions(np.ones(25), np.zeros(25), 1.0, Box.cube(-1, 1, 25))


def test_empirical_matches_worked_example():
    net = single_neuron_network([1.0, 1.0], [2.0, 1.0], 1.0)
    res = empirical_region_count(net, Box.cube(-5, 5, 2), 200)
    assert res.count == 3
    assert res.no_fire_points == 0


def test_empirical_single_input_is_one_region():
    net = single_neuron_network([1.0], [0.7], 1.0)
    res = empirical_region_count(net, Box.cube(-4, 4, 1), 500)
    assert res.count == 1


def test_empirical_counts_no_fire_points():
    net = single_neuron_network([-1.0], [0.0], 1.0)
    res = empirical_region_count(net, Box.cube(-1, 1, 1), 50)
    assert res.count == 0
    assert res.no_fire_points == 50


def test_empirical_agrees_with_analytic_on_random_neurons():
    rng = np.random.default_rng(41)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        w = random_nondegenerate_weights(rng, d)
        delays = rng.uniform(0.0, 1.5, d)
        theta = float(rng.uniform(0.3, 2.0))
        box = Box.cube(-6, 6, d)
        descs = enumerate_regions(w, delays, theta, box)
        analytic = count_feasible(descs, box)
        net = single_neuron_network(w, delays, theta)
        emp = empirical_region_count(net, box, 60 if d == 2 else 25)
        assert emp.count == analytic


def test_adjacent_region_maps_agree_on_shared_facets():
    # Continuity: where two regions meet, their affine maps coincide.
    w = np.array([1.0, 1.0])
    delays = np.array([2.0, 1.0])
    theta = 1.0
    descs = {tuple(sorted(r.subset)): r for r in enumerate_regions(w, delays, theta, Box.cube(-5, 5, 2))}
    rng = np.random.default_rng(53)
    # Facet between {0} and {0,1}: t2 = t1 + 2; between {1} and {0,1}: t2 = t1.
    for (sa, sb, shift) in (((0,), (0, 1), 2.0), ((1,), (0, 1), 0.0)):
        for _ in range(10):
            t1 = float(rng.uniform(-5, 5))
            p = np.array([t1, t1 + shift])
            va = descs[sa].gradient @ p + descs[sa].offset
            vb = descs[sb].gradient @ p + descs[sb].offset
            assert abs(va - vb) <= 1e-9


def test_strict_halfspace_shrink_excludes_degenerate_regions():
    # A region whose interior is a single line outside the box must not be
    # counted; the epsilon shrink of strict inequalities handles this.
    box = Box.cube(0.0, 1.0, 2)
    descs = enumerate_regions([1.0, 1.0], [5.0, 0.0], 1.0, box)
    # With delay 5 on input 1, the set where input 1 contributes lies far
    # from the unit box.
    feas = {tuple(sorted(r.subset)) for r in descs if halfspaces_feasible(r.halfspaces, box)}
    assert (1,) in feas
    assert (0,) not in feas


def region_for_subset_reference(subset, w, d, theta):
    """The per-input loop that built a region's halfspaces before the array form."""
    idx = np.asarray(subset)
    W = float(w[idx].sum())
    if W <= 0:
        return None
    dim = w.size
    g = np.zeros(dim)
    g[idx] = w[idx] / W
    offset = (theta + float(np.dot(w[idx], d[idx]))) / W
    inset = np.zeros(dim, dtype=bool)
    inset[idx] = True
    hs = []
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = 1.0
        if inset[k]:
            hs.append(Halfspace(g - e, d[k] - offset, strict=True))
        else:
            hs.append(Halfspace(e - g, offset - d[k], strict=False))
    return g, offset, tuple(hs)


def halfspaces_feasible_reference(halfspaces, box):
    """The per-halfspace loop that unpacked a system before the array form."""
    eps = STRICT_EPS_SCALE * max(box.diameter, 1.0)
    rows, rhs = [], []
    for h in halfspaces:
        margin = eps if h.strict else 0.0
        if np.max(np.abs(h.normal)) < ZERO_NORMAL_TOL:
            if h.bound + margin > 0:
                return False
            continue
        rows.append(-h.normal)
        rhs.append(-(h.bound + margin))
    if not rows:
        return True
    return feasible(np.array(rows), np.array(rhs), box.lo, box.hi)


def test_array_form_matches_the_loop_references():
    rng = np.random.default_rng(61)
    zero_rows = {False: 0, True: 0}
    for i in range(320):
        d = 1 + i % 8
        w = rng.normal(0.0, 1.0, d)
        w[rng.random(d) < 0.2] = 0.0
        delays = rng.uniform(0.0, 2.0, d) if i % 3 else np.zeros(d)
        # A threshold far below the strict margin makes a singleton's
        # zero-normal row infeasible.
        theta = (1.0, 1e-9, 0.4)[i % 3]
        r = float(rng.uniform(0.5, 12.0))
        box = Box.cube(-r, r, d)
        descs = iter(enumerate_regions(w, delays, theta, box))
        for subset in _subsets(d):
            want = region_for_subset_reference(subset, w, delays, theta)
            if want is None:
                continue
            got = next(descs)
            g, offset, hs = want
            assert got.subset == frozenset(subset)
            assert np.array_equal(got.gradient, g) and got.offset == offset
            assert len(got.halfspaces) == len(hs)
            for a, b in zip(got.halfspaces, hs):
                assert np.array_equal(a.normal, b.normal)
                assert np.array_equal(np.signbit(a.normal), np.signbit(b.normal))
                assert a.bound == b.bound and a.strict is b.strict
            flag = halfspaces_feasible_reference(hs, box)
            assert got.feasible_in_box == flag
            if len(subset) == 1:
                zero_rows[flag] += 1
        assert next(descs, None) is None
    assert min(zero_rows.values()) > 0


def test_every_positive_subset_is_a_region_over_all_of_r_d():
    # Over all of R^d every subset I with a positive, finite-quotient weight
    # sum W_I is a region: with I's inputs arriving at 0 and the others at
    # theta/W_I + 1, the neuron fires at theta/W_I on exactly I.  So the
    # count over R^d is the number of such subsets, and needs no LP.
    rng = np.random.default_rng(71)
    for i in range(40):
        d = 1 + i % 8
        w = rng.normal(0.0, 1.0, d)
        delays = rng.uniform(0.0, 2.0, d)
        theta = float(rng.uniform(0.3, 2.0))
        descs = enumerate_regions(w, delays, theta, Box.cube(-1, 1, d))
        by_subset = {r.subset: r for r in descs}
        positive = []
        for subset in _subsets(d):
            W = w[list(subset)].sum()
            if not (W > 0 and np.isfinite(theta / W)):
                continue
            positive.append(frozenset(subset))
            arrivals = np.where(np.isin(np.arange(d), subset), 0.0, theta / W + 1.0)
            cert = resolve_firing_time(list(zip(arrivals, w)), theta)
            assert cert.contributing == frozenset(subset)
            # The region's affine map gives the same time at the input times.
            r = by_subset[frozenset(subset)]
            t = r.gradient @ (arrivals - delays) + r.offset
            assert t == pytest.approx(cert.firing_time.time, rel=1e-9, abs=1e-12)
        assert set(by_subset) == set(positive)
        if i % 8 in (3, 4, 5):
            assert stabilized_region_count(w, delays, theta) <= len(positive)


def loop_flag(halfspaces, box):
    """One system through the per-halfspace unpacking and the per-system
    simplex loop, as regions were decided before systems were stacked."""
    eps = STRICT_EPS_SCALE * max(box.diameter, 1.0)
    rows, rhs = [], []
    for h in halfspaces:
        margin = eps if h.strict else 0.0
        if np.max(np.abs(h.normal)) < ZERO_NORMAL_TOL:
            if h.bound + margin > 0:
                return False
            continue
        rows.append(-h.normal)
        rhs.append(-(h.bound + margin))
    if not rows:
        return True
    return feasible_reference(np.array(rows), np.array(rhs), box.lo, box.hi)


@functools.lru_cache(maxsize=None)
def _seeded_neurons():
    """40 seeded neurons (d <= 8, uneven boxes, thresholds from 1e-9 to 2)
    with the per-system loop's flags in their box and in a wider one."""
    rng = np.random.default_rng(83)
    cases = []
    for i in range(40):
        d = 1 + i % 8
        w = rng.normal(0.0, 1.0, d)
        w[rng.random(d) < 0.15] = 0.0
        delays = rng.uniform(0.0, 2.0, d)
        theta = (1.0, 1e-9, 0.5, 2.0)[i % 4]
        lo = rng.uniform(-6.0, 1.0, d)
        box = Box(lo, lo + rng.uniform(0.2, 8.0, d))
        wide = Box(box.lo - 10.0, box.hi + 10.0)
        descs = enumerate_regions(w, delays, theta, box)
        flags = [loop_flag(r.halfspaces, box) for r in descs]
        wide_flags = [loop_flag(r.halfspaces, wide) for r in descs]
        cases.append((w, delays, theta, box, wide, flags, wide_flags))
    return cases


@pytest.mark.parametrize("budget", [None, 1, 999])
def test_stacked_region_flags_match_the_per_system_loop(monkeypatch, budget):
    # budget 1 decides one subset per simplex call; 999 cuts the stacks at
    # odd places.
    if budget is not None:
        monkeypatch.setattr(simplex, "CHUNK_ELEMS", budget)
    both = {False: 0, True: 0}
    for w, delays, theta, box, wide, flags, wide_flags in _seeded_neurons():
        descs = enumerate_regions(w, delays, theta, box)
        assert [r.feasible_in_box for r in descs] == flags
        assert count_feasible(descs, box) == sum(flags)
        assert count_feasible(descs, wide) == sum(wide_flags)
        if budget is None:
            assert [halfspaces_feasible(r.halfspaces, box) for r in descs] == flags
        for f in flags:
            both[f] += 1
    assert min(both.values()) > 100


#: A 10-input neuron from the regions-d10 benchmark on which the box doubling
#: stops early: it reads 80 of its 81 positive-sum subsets.
UNDERCOUNT_WEIGHTS = [
    1.101262453505847, 0.3384312766461778, -0.5399715152535035, -1.2602418568524327,
    -1.8946212698392553, 0.018638290983285614, -0.8105670995116028,
    -0.8721559599345132, -0.22196950708389104, -0.05184602813201771,
]
UNDERCOUNT_DELAYS = [
    0.6041458545639301, 0.08373669468714318, 0.9977636809229765, 0.8323461245007039,
    0.03677735766732482, 0.5675398131484446, 0.6093401370451035,
    0.006926579514268227, 0.17908387391323455, 0.1649222135263957,
]


def test_stabilized_counts_of_raw_gaussian_neurons_are_pinned():
    # The counts of the per-system loop, short ones included (seed 7 has
    # 189 positive-sum subsets).  Fixing the undercount changes them.
    got = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        w = rng.normal(0.0, 1.0, 10)
        got.append(stabilized_region_count(w, rng.uniform(0.0, 1.0, 10), 1.0))
    assert got == [646, 865, 503, 417, 293, 558, 926, 186, 117, 304]
    assert stabilized_region_count(UNDERCOUNT_WEIGHTS, UNDERCOUNT_DELAYS, 1.0) == 80


def test_enumeration_working_memory_does_not_grow_with_the_subsets():
    # Subsets are built and decided a chunk at a time: beyond the
    # descriptors it returns, enumeration holds about two chunks of
    # tableaux, whether there are 255 subsets or 4095.
    def transient(d):
        rng = np.random.default_rng(d)
        w, delays = rng.uniform(0.1, 1.0, d), rng.uniform(0.0, 1.0, d)
        tracemalloc.start()
        try:
            descs = enumerate_regions(w, delays, 1.0, Box.cube(-4, 4, d))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(descs) == 2**d - 1
        return peak - retained

    small, large = transient(8), transient(12)
    assert large <= 1.5 * small + 65536
    assert large <= 4 * simplex.CHUNK_ELEMS * 8


def _stacked(descs):
    """The descriptors' normals, bounds and strict flags, stacked."""
    return (np.stack([getattr(r, f) for r in descs]) for f in ("normals", "bounds", "strict"))


def test_the_closed_form_point_is_a_sound_witness():
    # A system the point decides is feasible for the reference, and at the
    # point the neuron fires on exactly the subset, at the region's value.
    decided = 0
    for w, delays, theta, box, wide, flags, wide_flags in _seeded_neurons():
        for b in (box, wide):
            descs = enumerate_regions(w, delays, theta, b)
            if not descs:
                continue
            points, ok = _witness(*_stacked(descs), b)
            for r, t in compress(zip(descs, points), ok):
                assert b.contains(t)
                assert halfspaces_feasible_reference(r.halfspaces, b)
                cert = resolve_firing_time(list(zip(t + delays, w)), theta)
                assert cert.contributing == r.subset
                want = r.offset + r.gradient @ t
                assert abs(cert.firing_time.time - want) <= 1e-12 * max(1.0, abs(want))
            decided += int(np.sum(ok))
    assert decided > 100


def test_both_the_point_and_the_simplex_decide_systems(monkeypatch):
    # Every system is decided by its closed-form point or reaches the
    # simplex, and on these neurons each path takes many of them.
    cases = _seeded_neurons()
    reached = []

    def counting(A, b, lo, hi):
        reached.append(len(A))
        return feasible(A, b, lo, hi)

    monkeypatch.setattr(regions, "feasible", counting)
    by_point = systems = 0
    for w, delays, theta, box, wide, flags, wide_flags in cases:
        descs = enumerate_regions(w, delays, theta, box)
        assert [r.feasible_in_box for r in descs] == flags
        assert count_feasible(descs, wide) == sum(wide_flags)
        if descs:
            by_point += sum(int(np.sum(_witness(*_stacked(descs), b)[1])) for b in (box, wide))
        systems += 2 * len(descs)
    assert by_point > 100 and sum(reached) > 100
    assert by_point + sum(reached) == systems


def test_a_box_that_holds_every_region_needs_no_simplex(monkeypatch):
    # An all-positive 10-input neuron in a box of radius 4 theta / (smallest
    # subset sum), as the regions-d10 benchmark sizes it: every one of its
    # 1023 regions is decided by its closed-form point.
    def refuse(*args):
        raise AssertionError("the simplex was called")

    monkeypatch.setattr(regions, "feasible", refuse)
    rng = np.random.default_rng(97)
    w = rng.uniform(0.05, 1.5, 10)
    delays = rng.uniform(0.0, 1.0, 10)
    radius = max(1.0, 4.0 / w.min())
    center = float(np.mean(delays))
    descs = enumerate_regions(w, delays, 1.0, Box.cube(center - radius, center + radius, 10))
    assert len(descs) == 1023 and all(r.feasible_in_box for r in descs)


def test_arbitrary_halfspace_systems_match_the_reference():
    # Random systems of one to four rows in two dimensions: the closed-form
    # point is tried on those of two rows, the others go to the simplex alone.
    rng = np.random.default_rng(101)
    box = Box.cube(-1.0, 1.0, 2)
    both = {False: 0, True: 0}
    for rows in (1, 2, 3, 4) * 30:
        hs = [
            Halfspace(rng.normal(0.0, 1.0, 2), float(rng.normal()), bool(rng.random() < 0.5))
            for _ in range(rows)
        ]
        flag = halfspaces_feasible(hs, box)
        assert flag == halfspaces_feasible_reference(hs, box)
        both[flag] += 1
    assert min(both.values()) > 5


def test_region_tables_are_pinned():
    # Every region's subset, gradient bytes, offset and flag, in order, for
    # the seeded neurons in their box and the widened box, as the
    # per-descriptor enumeration gave them.
    h = hashlib.sha256()
    for w, delays, theta, box, wide, flags, wide_flags in _seeded_neurons():
        for b in (box, wide):
            for r in enumerate_regions(w, delays, theta, b):
                h.update(repr((sorted(r.subset), r.offset, r.feasible_in_box)).encode())
                h.update(r.gradient.tobytes())
    assert h.hexdigest() == "8ab661ad00b1107682e765791ecb7e1a58971576f7abaf3735300beac76aeccc"


def test_regions_is_a_sequence_of_row_views():
    rng = np.random.default_rng(103)
    w, delays = rng.normal(0.0, 1.0, 6), rng.uniform(0.0, 2.0, 6)
    box = Box.cube(-3.0, 3.0, 6)
    table = enumerate_regions(w, delays, 0.7, box)
    assert isinstance(table, Regions)
    n = len(table)
    assert n == len(table.offsets) == int(np.sum([w[list(s)].sum() > 0 for s in _subsets(6)]))
    listed = list(table)
    assert len(listed) == n
    for i, r in enumerate(listed):
        for j in (i, i - n):
            got = table[j]
            assert got.index == i and got.subset == r.subset
            assert np.array_equal(got.gradient, r.gradient) and got.offset == r.offset
            assert got.feasible_in_box is r.feasible_in_box
        assert r.subset == frozenset(np.flatnonzero(table.inset[i]).tolist())
        assert r.offset == table.offsets[i] and r.feasible_in_box == table.feasible[i]
    with pytest.raises(IndexError):
        table[n]
    with pytest.raises(IndexError):
        table[-n - 1]
    with pytest.raises(ValueError):
        table.gradients[0, 0] = 1.0


def test_count_feasible_of_a_table_sums_its_descriptors():
    for w, delays, theta, box, wide, flags, wide_flags in _seeded_neurons():
        table = enumerate_regions(w, delays, theta, box)
        want = sum(halfspaces_feasible(r.halfspaces, wide) for r in table)
        assert count_feasible(table, wide) == want == sum(wide_flags)


def test_the_table_keeps_o_of_d_bytes_per_region():
    # At d = 12 the 4095 regions' normals alone would take 4095 * 144 * 8
    # bytes, about 4.7 MB; the table keeps membership rows, gradients,
    # offsets and flags.
    rng = np.random.default_rng(12)
    w, delays = rng.uniform(0.1, 1.0, 12), rng.uniform(0.0, 1.0, 12)
    tracemalloc.start()
    try:
        table = enumerate_regions(w, delays, 1.0, Box.cube(-4, 4, 12))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table) == 4095
    assert retained < 1 << 20


def test_count_feasible_checks_the_box_dimension_first(monkeypatch):
    def refuse(*args):
        raise AssertionError("the simplex was called")

    rng = np.random.default_rng(107)
    table = enumerate_regions(rng.normal(0.0, 1.0, 4), rng.uniform(0.0, 1.0, 4), 1.0,
                              Box.cube(-2.0, 2.0, 4))
    monkeypatch.setattr(regions, "feasible", refuse)
    for dim in (1, 3):
        with pytest.raises(DimensionError, match="box dimension"):
            count_feasible(table, Box.cube(-50.0, 50.0, dim))


@pytest.mark.parametrize("weights, delays, theta", [
    ([np.nan], [0.0], 1.0),
    ([np.inf, 1.0], [0.0, 0.0], 1.0),
    ([1.0, 0.5], [0.0, 0.0], np.inf),
    ([1.0, 0.5], [0.0, -np.inf], 1.0),
], ids=["nan-weight", "infinite-weight", "infinite-threshold", "infinite-delay"])
def test_non_finite_neurons_are_refused(weights, delays, theta):
    box = Box.cube(-1.0, 1.0, len(weights))
    with pytest.raises(InvalidParameterError, match="finite"):
        enumerate_regions(weights, delays, theta, box)
    with pytest.raises(InvalidParameterError, match="finite"):
        stabilized_region_count(weights, delays, theta)


def test_the_row_point_decides_what_the_stacked_point_decides():
    # The point checked from table rows in O(d) gives _witness's flags, also
    # on rows whose normal is zero within the tolerance without being a
    # singleton's (w_0 = 1 beside +-1e-13 has such rows), and on rows with
    # g_k = 1 whose normal is not zero (w_0 = 1 beside +-0.5).
    def both(table, box):
        normals, bounds, strict = _stacked(table)
        want = _witness(normals, bounds, strict, box)[1]
        got = _row_witness(table.inset, table.gradients, table.offsets, table.delays, box)
        assert np.array_equal(got, want)
        return want, np.all(np.abs(normals) < ZERO_NORMAL_TOL, axis=2)

    seen = {False: 0, True: 0}
    for w, delays, theta, box, wide, flags, wide_flags in _seeded_neurons():
        for b in (box, wide):
            table = enumerate_regions(w, delays, theta, b)
            if table:
                for f in both(table, b)[0]:
                    seen[bool(f)] += 1
    assert min(seen.values()) > 100
    wide_zero = 0
    for w in ([1.0, 1e-13, -1e-13], [1.0, 0.5, -0.5]):
        for theta in (1e-9, 1e-7, 0.1, 1.0):
            for radius in (0.5, 1.0, 100.0):
                box = Box.cube(-radius, radius, 3)
                table = enumerate_regions(w, [0.2, 0.0, 0.5], theta, box)
                zero = both(table, box)[1]
                wide_zero += int(np.sum(zero.any(axis=1) & (table.inset.sum(axis=1) > 1)))
    assert wide_zero > 0


def test_a_region_the_point_decides_gets_no_system(monkeypatch):
    built, reached = [], []

    def counting_systems(inset, *rest):
        built.append(len(inset))
        return systems(inset, *rest)

    def counting_feasible(A, b, lo, hi):
        reached.append(len(A))
        return feasible(A, b, lo, hi)

    systems = regions._systems
    monkeypatch.setattr(regions, "_systems", counting_systems)
    monkeypatch.setattr(regions, "feasible", counting_feasible)
    # The all-positive neuron in the box that holds every region.
    rng = np.random.default_rng(97)
    w = rng.uniform(0.05, 1.5, 10)
    delays = rng.uniform(0.0, 1.0, 10)
    radius = max(1.0, 4.0 / w.min())
    center = float(np.mean(delays))
    table = enumerate_regions(w, delays, 1.0, Box.cube(center - radius, center + radius, 10))
    assert len(table) == 1023 and sum(built) == 0 == sum(reached)
    # In a small box many regions reach the simplex, and only they get systems.
    for w, delays, theta, box, wide, flags, wide_flags in _seeded_neurons():
        table = enumerate_regions(w, delays, theta, box)
        count_feasible(table, wide)
    assert sum(built) == sum(reached) > 100
