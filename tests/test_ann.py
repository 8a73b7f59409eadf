"""Tests for ReLU network evaluation and the conservative range bounds."""

import numpy as np
import pytest

from spikec import Box, DimensionError, ReluNetwork, ann_forward, layer_range_bound
from spikec.compiler import build_example_3_1_ann


def test_two_kink_ann_value_at_zero():
    net = build_example_3_1_ann(1.0)
    assert ann_forward(net, [0.0])[0] == pytest.approx(-0.5, abs=1e-12)


def test_identity_single_layer():
    net = ReluNetwork(((np.eye(3), np.zeros(3)),))
    x = np.array([0.4, -1.2, 2.0])
    assert np.allclose(ann_forward(net, x), x, atol=0)


def test_forward_matches_hand_rolled_loop():
    rng = np.random.default_rng(21)
    A1, B1 = rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, 4)
    A2, B2 = rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, 2)
    net = ReluNetwork(((A1, B1), (A2, B2)))
    for _ in range(20):
        x = rng.uniform(-2, 2, 3)
        h = np.array([max(0.0, sum(A1[i, j] * x[j] for j in range(3)) + B1[i]) for i in range(4)])
        y = np.array([sum(A2[i, j] * h[j] for j in range(4)) + B2[i] for i in range(2)])
        assert np.allclose(ann_forward(net, x), y, atol=1e-12)


def test_forward_dimension_check():
    net = ReluNetwork(((np.eye(2), np.zeros(2)),))
    with pytest.raises(DimensionError):
        ann_forward(net, [1.0])


def test_batch_forward_matches_row_by_row():
    rng = np.random.default_rng(5)
    net = ReluNetwork(
        (
            (rng.normal(size=(6, 3)), rng.normal(size=6)),
            (rng.normal(size=(4, 6)), rng.normal(size=4)),
            (rng.normal(size=(2, 4)), rng.normal(size=2)),
        )
    )
    xs = rng.uniform(-2, 2, (40, 3))
    got = ann_forward(net, xs)
    assert got.shape == (40, 2)
    # Matrix-matrix and matrix-vector products may round differently.
    want = np.array([ann_forward(net, x) for x in xs])
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_batch_forward_dimension_check():
    net = ReluNetwork(((np.eye(2), np.zeros(2)),))
    with pytest.raises(DimensionError):
        ann_forward(net, np.zeros((5, 3)))
    with pytest.raises(DimensionError):
        ann_forward(net, np.zeros((1, 5, 2)))


def test_layer_shape_chaining_validated():
    with pytest.raises(DimensionError):
        ReluNetwork(((np.eye(2), np.zeros(2)), (np.ones((1, 3)), np.zeros(1))))


def test_range_bound_identity_example():
    box = layer_range_bound(np.eye(2), np.zeros(2), Box.cube(-1, 1, 2))
    assert np.allclose(box.lo, [-2, -2]) and np.allclose(box.hi, [2, 2])


def test_range_bound_zero_map():
    box = layer_range_bound(np.zeros((2, 2)), np.zeros(2), Box.cube(-1, 1, 2))
    assert np.allclose(box.lo, 0) and np.allclose(box.hi, 0)


def test_range_bound_row_example():
    box = layer_range_bound(np.array([[2.0, -1.0]]), np.array([3.0]), Box.cube(-1, 1, 2))
    assert np.allclose(box.lo, [-7]) and np.allclose(box.hi, [7])


def test_range_bound_soundness_random():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        m, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        A = rng.uniform(-2, 2, (m, d))
        B = rng.uniform(-2, 2, m)
        lo = rng.uniform(-3, 0, d)
        hi = lo + rng.uniform(0, 3, d)
        dom = Box(lo, hi)
        bound = layer_range_bound(A, B, dom)
        x = rng.uniform(lo, hi)
        y = A @ x + B
        assert np.all(y >= bound.lo - 1e-12) and np.all(y <= bound.hi + 1e-12)


def test_forward_is_piecewise_affine():
    rng = np.random.default_rng(4)
    A1, B1 = rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, 3)
    A2, B2 = rng.uniform(-1, 1, (1, 3)), rng.uniform(-1, 1, 1)
    net = ReluNetwork(((A1, B1), (A2, B2)))
    h = 1e-4
    checked = 0
    while checked < 50:
        x = rng.uniform(-2, 2, 2)
        i = int(rng.integers(0, 2))
        e = np.zeros(2)
        e[i] = h
        pre = [A1 @ (x + s * e) + B1 for s in (-1, 0, 1)]
        if not all(
            np.array_equal(np.sign(p) >= 0, np.sign(pre[1]) >= 0) for p in pre
        ):
            continue
        f = [ann_forward(net, x + s * e)[0] for s in (-1, 0, 1)]
        second = f[0] - 2 * f[1] + f[2]
        assert abs(second) < 1e-8
        checked += 1


def test_fixed_width_detection():
    d = 3
    hidden = (np.eye(d), np.zeros(d))
    final = (np.ones((1, d)), np.zeros(1))
    assert ReluNetwork((hidden, final)).fixed_width == d
    assert ReluNetwork((final,)).fixed_width == d
    wide = (np.ones((2, d)), np.zeros(2))
    assert ReluNetwork((wide, (np.ones((1, 2)), np.zeros(1)))).fixed_width is None
