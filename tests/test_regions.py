"""Tests for linear-region enumeration, counting and the grid oracle."""

import functools
import hashlib
import tracemalloc

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
    halfspaces_feasible,
)
from spikec import regions
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


def max_slack_flags(systems, box):
    """Whether each region's system meets the open box, without a margin:
    the largest s with normal . t - bound >= s on every row and
    lo + s <= t <= hi - s is positive.  On a region's system the weak rows
    may take the slack too, since an input outside the subset can always
    arrive a little later.  The systems' LPs share nothing, so scipy's HiGHS
    solves them as one block-diagonal LP whose objective is the sum of the
    slacks."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    block_diag = pytest.importorskip("scipy.sparse").block_diag
    if not systems:
        return []
    eye = np.eye(box.dim)
    blocks, rhs = [], []
    for halfspaces in systems:
        A = np.vstack([-np.array([h.normal for h in halfspaces]), -eye, eye])
        blocks.append(np.column_stack([A, np.ones(len(A))]))
        rhs.append(np.concatenate([[-h.bound for h in halfspaces], -box.lo, box.hi]))
    objective = np.tile(np.append(np.zeros(box.dim), -1.0), len(systems))
    res = linprog(objective, A_ub=block_diag(blocks, format="csr"), b_ub=np.concatenate(rhs),
                  bounds=(None, None), method="highs")
    assert res.status == 0, res.message
    return (res.x.reshape(len(systems), box.dim + 1)[:, -1] > 0).tolist()


def test_array_form_matches_the_loop_references():
    rng = np.random.default_rng(61)
    zero_rows = {False: 0, True: 0}
    for i in range(320):
        d = 1 + i % 8
        w = rng.normal(0.0, 1.0, d)
        w[rng.random(d) < 0.2] = 0.0
        delays = rng.uniform(0.0, 2.0, d) if i % 3 else np.zeros(d)
        # With a threshold of 1e-9 a singleton's zero-normal row has a slack
        # of 1e-9 / w_k.
        theta = (1.0, 1e-9, 0.4)[i % 3]
        r = float(rng.uniform(0.5, 12.0))
        box = Box.cube(-r, r, d)
        descs = iter(enumerate_regions(w, delays, theta, box))
        got_flags, systems, sizes = [], [], []
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
            got_flags.append(got.feasible_in_box)
            systems.append(hs)
            sizes.append(len(subset))
        assert next(descs, None) is None
        flags = max_slack_flags(systems, box)
        assert got_flags == flags
        for size, flag in zip(sizes, flags):
            if size == 1:
                zero_rows[flag] += 1
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
    """One system through the per-halfspace unpacking, with the strict
    margin of halfspaces_feasible, decided by the test module's reference
    simplex loop."""
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
    with the max-slack flags in their box and in a wider one."""
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
        flags = max_slack_flags([r.halfspaces for r in descs], box)
        wide_flags = max_slack_flags([r.halfspaces for r in descs], wide)
        cases.append((w, delays, theta, box, wide, flags, wide_flags))
    return cases


@pytest.mark.parametrize("budget", [None, 1, 999])
def test_stacked_region_flags_match_the_per_system_loop(monkeypatch, budget):
    # budget 1 decides one subset per chunk; 999 cuts the chunks at odd
    # places.  halfspaces_feasible keeps the strict margin of the
    # per-system loop.
    if budget is not None:
        monkeypatch.setattr(regions, "CHUNK_ELEMS", budget)
    both = {False: 0, True: 0}
    for w, delays, theta, box, wide, flags, wide_flags in _seeded_neurons():
        descs = enumerate_regions(w, delays, theta, box)
        assert [r.feasible_in_box for r in descs] == flags
        assert count_feasible(descs, box) == sum(flags)
        assert count_feasible(descs, wide) == sum(wide_flags)
        if budget is None:
            assert [halfspaces_feasible(r.halfspaces, box) for r in descs] == [
                loop_flag(r.halfspaces, box) for r in descs
            ]
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


def stabilized_count_reference(w, delays, theta):
    """stabilized_region_count's box doubling as it was before it kept the
    regions found: count_feasible decides every region in every doubled
    cube.  Returns the count and the cubes visited."""
    center = float(np.mean(delays))
    radius = max(1.0, float(np.max(np.abs(delays - center))))
    cubes = [Box.cube(center - radius, center + radius, w.size)]
    table = enumerate_regions(w, delays, theta, cubes[0])
    cnt = int(np.count_nonzero(table.feasible))
    prev = prev2 = -1
    for _ in range(regions.MAX_DOUBLINGS - 1):
        if cnt == prev == prev2:
            break
        prev2, prev = prev, cnt
        radius *= 2.0
        cubes.append(Box.cube(center - radius, center + radius, w.size))
        cnt = count_feasible(table, cubes[-1])
    return cnt, cubes


def test_regions_found_in_a_cube_stay_found_in_the_doubled_cube():
    # Gaussian, dyadic, all-positive and zero-sum weights; zero or random
    # delays; thresholds from 1e-4 to 2.  stabilized_region_count decides
    # only the regions not yet found in each doubled cube, which holds when
    # every region that meets a cube meets the cube of twice its radius.
    rng = np.random.default_rng(109)
    grew = 0
    for i in range(1000):
        d = 1 + i % 10
        kind = i // 10 % 4
        if kind == 0:
            w = rng.normal(0.0, 1.0, d)
        elif kind == 1:
            w = rng.integers(-16, 17, d) / 8.0
        elif kind == 2:
            w = rng.uniform(0.01, 2.0, d)
        else:
            w = rng.normal(0.0, 1.0, d)
            w[-1] = -w[:-1].sum()
        delays = np.zeros(d) if i % 3 == 0 else rng.uniform(0.0, 2.0, d)
        theta = float(10.0 ** rng.uniform(-4.0, np.log10(2.0)))
        want, cubes = stabilized_count_reference(w, delays, theta)
        assert stabilized_region_count(w, delays, theta) == want
        flags = [enumerate_regions(w, delays, theta, c).feasible for c in cubes]
        for small, large in zip(flags, flags[1:]):
            assert not np.any(small & ~large)
            grew += int(np.any(large & ~small))
    assert grew > 100


def test_the_subset_plan_is_built_once_per_dimension():
    # The plan holds the membership rows and each size's member indices,
    # read-only, within 2 (2^d - 1) d bytes.
    d = 14
    regions._subset_plan.cache_clear()
    rng = np.random.default_rng(113)
    for _ in range(2):
        w, delays = rng.normal(0.0, 1.0, d), rng.uniform(0.0, 1.0, d)
        enumerate_regions(w, delays, 1.0, Box.cube(-2.0, 2.0, d))
    info = regions._subset_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    inset, starts, members = regions._subset_plan(d)
    assert inset.shape == (2**d - 1, d) and len(members) == d
    for r, idx in enumerate(members, start=1):
        rows = inset[starts[r - 1] : starts[r]]
        assert np.array_equal(idx, np.nonzero(rows)[1].reshape(len(rows), r))
    for a in (inset, *members):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0
    assert inset.nbytes + sum(a.nbytes for a in members) <= 2 * (2**d - 1) * d


def test_enumeration_working_memory_does_not_grow_with_the_subsets():
    # Subsets are built and decided a chunk at a time: beyond the
    # descriptors it returns, enumeration holds about one chunk of
    # temporaries, whether there are 4095 subsets (12 chunks) or 16383 (56).
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

    small, large = transient(12), transient(14)
    assert large <= small + 16384
    assert large <= 4 * regions.CHUNK_ELEMS * 8


def test_building_the_subset_plan_takes_about_one_chunk_of_temporaries():
    # The test above never sees the plan's build: it is cached, or built
    # before the table the call keeps.  Built alone, beyond the plan itself
    # it takes one block of subsets at a time, whatever the dimension.
    def transient(d):
        regions._subset_plan.cache_clear()
        tracemalloc.start()
        try:
            inset, starts, members = regions._subset_plan(d)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert inset.shape == (2**d - 1, d) and starts[-1] == 2**d - 1
        return peak - retained

    try:
        for d in (12, 14, 16):
            assert transient(d) <= 4 * regions.CHUNK_ELEMS * 8, d
    finally:
        regions._subset_plan.cache_clear()


def test_a_box_that_holds_every_region_needs_no_simplex(monkeypatch):
    # An all-positive 10-input neuron in a box of radius 4 theta / (smallest
    # subset sum), as the regions-d10 benchmark sizes it: every one of its
    # 1023 regions meets the box, decided in the firing time alone.
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
    # Random systems of one to four rows in two dimensions, each decided by
    # one call of the simplex and by loop_flag's reference simplex loop.
    rng = np.random.default_rng(101)
    box = Box.cube(-1.0, 1.0, 2)
    both = {False: 0, True: 0}
    for rows in (1, 2, 3, 4) * 30:
        hs = [
            Halfspace(rng.normal(0.0, 1.0, 2), float(rng.normal()), bool(rng.random() < 0.5))
            for _ in range(rows)
        ]
        flag = halfspaces_feasible(hs, box)
        assert flag == loop_flag(hs, box)
        both[flag] += 1
    assert min(both.values()) > 5


def test_region_tables_are_pinned():
    # Every region's subset, gradient bytes, offset and flag, in order, for
    # the seeded neurons in their box and the widened box.  The subsets,
    # gradients and offsets are the per-descriptor enumeration's; the flags
    # are the max-slack LP's.
    h = hashlib.sha256()
    for w, delays, theta, box, wide, flags, wide_flags in _seeded_neurons():
        for b in (box, wide):
            for r in enumerate_regions(w, delays, theta, b):
                h.update(repr((sorted(r.subset), r.offset, r.feasible_in_box)).encode())
                h.update(r.gradient.tobytes())
    assert h.hexdigest() == "80b3e453752333b159f1f49a9732400e5ec1392398692b8a0a6014123a1c8ad0"


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
        want = sum(max_slack_flags([r.halfspaces for r in table], wide))
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


def test_regions_are_decided_without_the_simplex_or_their_systems(monkeypatch):
    # Small boxes as well as wide ones: every region is decided from its
    # table row, by the test at the box centre or over the pieces of its
    # firing time.
    def refuse(*args):
        raise AssertionError("a region reached the simplex or built its system")

    monkeypatch.setattr(regions, "feasible", refuse)
    monkeypatch.setattr(regions, "_systems", refuse)
    for w, delays, theta, box, wide, flags, wide_flags in _seeded_neurons():
        table = enumerate_regions(w, delays, theta, box)
        assert table.feasible.tolist() == flags
        assert count_feasible(table, wide) == sum(wide_flags)
        assert enumerate_regions(w, delays, theta, wide).feasible.tolist() == wide_flags


def test_boxes_without_interior_are_refused():
    # Such a box has no interior for a region to meet.
    w, delays = [1.0, 0.5], [0.0, 0.3]
    table = enumerate_regions(w, delays, 1.0, Box.cube(-1.0, 1.0, 2))
    for box in (Box([0.0, 0.0], [0.0, 1.0]), Box([0.0, 0.0], [0.0, 0.0])):
        with pytest.raises(InvalidParameterError, match="positive extent"):
            enumerate_regions(w, delays, 1.0, box)
        with pytest.raises(InvalidParameterError, match="positive extent"):
            count_feasible(table, box)
    # Nor can an unbounded box be decided.
    with pytest.raises(InvalidParameterError, match="finite"):
        enumerate_regions(w, delays, 1.0, Box([0.0, -np.inf], [1.0, 1.0]))


#: Neuron 21 of the regions-d10 benchmark at seed 408.  Its smallest
#: positive subset sum is 2.9e-6, so the box that holds every region has a
#: radius of 1.4e6.
SEED_408_WEIGHTS = [
    0.9016590118408203, -1.1378583908081055, 0.2730417251586914, -2.223400115966797,
    -2.0164756774902344, 0.7134504318237305, -1.0593147277832031, -1.174703598022461,
    -1.6735572814941406, 7.397158622741699,
]
SEED_408_DELAYS = [
    0.016401890132934693, 0.1616201951754207, 0.05562644143205586, 0.3983927355107484,
    0.2707215910755054, 0.21566998771231138, 0.6911253254704623, 0.7696225976916299,
    0.4062948255015446, 0.20989202798605755,
]


def test_a_huge_box_keeps_every_region():
    # The box of the regions-d10 benchmark: radius 4 theta / (smallest
    # positive subset sum) around the mean delay.  The weights sum to zero,
    # so 511 of the 1023 subsets have a positive sum.
    w, delays = np.array(SEED_408_WEIGHTS), np.array(SEED_408_DELAYS)
    sums = np.array([w[list(s)].sum() for s in _subsets(10)])
    radius, center = 4.0 / sums[sums > 0].min(), float(np.mean(delays))
    assert radius > 1e6
    table = enumerate_regions(w, delays, 1.0, Box.cube(center - radius, center + radius, 10))
    assert len(table) == 511 and int(np.sum(table.feasible)) == 511


def test_the_count_does_not_fall_as_the_box_grows():
    # The fixed neuron's 81 regions all meet every cube of radius 2^k
    # around its mean delay from k = 5 on.
    table = enumerate_regions(UNDERCOUNT_WEIGHTS, UNDERCOUNT_DELAYS, 1.0, Box.cube(-1.0, 1.0, 10))
    center = float(np.mean(UNDERCOUNT_DELAYS))
    counts = [count_feasible(table, Box.cube(center - 2.0**k, center + 2.0**k, 10))
              for k in range(5, 30)]
    assert counts == [81] * 25


def test_a_singleton_meets_the_box_by_its_closed_form():
    # Singleton {k} fires theta / w_k after input k arrives, and meets the
    # box exactly when lo_k + d_k + theta / w_k < min_{j != k} (hi_j + d_j),
    # however small theta is.
    seen = {False: 0, True: 0}
    tiny = 0
    for w, delays, theta, box, wide, flags, wide_flags in _seeded_neurons():
        for b in (box, wide):
            for r in enumerate_regions(w, delays, theta, b):
                if len(r.subset) != 1:
                    continue
                (k,) = r.subset
                others = np.delete(b.hi + delays, k)
                want = bool(b.lo[k] + delays[k] + theta / w[k] < np.min(others, initial=np.inf))
                assert r.feasible_in_box == want
                seen[want] += 1
                tiny += int(want and theta == 1e-9)
    assert min(seen.values()) > 10 and tiny > 10


def test_a_piece_on_which_the_slack_cannot_be_met_decides_nothing():
    # w = (1, 1, -1): on the pieces of tau where input 1 is capped and
    # input 0 is not, M(tau) - (tau - c) is the constant 1 - lo_2 + hi_1 < 0.
    # Region {0, 1, 2} needs t_2 < t_1 + 1 < 2 for input 0 to arrive
    # first, but input 2 arrives after 5: it is empty.  Region {0} fires at
    # t_0 + 1 > 1 = hi_1 + d_1, so it touches the box only on its boundary,
    # at t_0 = 0 and t_1 = 1: it is empty too.
    box = Box([0.0, 0.0, 5.0], [10.0, 1.0, 6.0])
    table = enumerate_regions([1.0, 1.0, -1.0], [0.0, 0.0, 0.0], 1.0, box)
    by_subset = {r.subset: r.feasible_in_box for r in table}
    assert by_subset[frozenset({0, 1, 2})] is False and by_subset[frozenset({0})] is False
    assert table.feasible.tolist() == max_slack_flags([r.halfspaces for r in table], box)
