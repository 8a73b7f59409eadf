"""Tests for the ReLU-to-spiking gadgets and the full compiler."""

from functools import reduce

import numpy as np
import pytest

from spikec import (
    Box,
    DimensionError,
    InvalidParameterError,
    ReluNetwork,
    ann_forward,
    build_affine_gadget,
    build_example_3_1,
    build_example_3_1_ann,
    build_layer_gadget,
    build_neuron_gadget,
    build_relu_gadget,
    compile_ann,
    layer_certificates,
)
from spikec.calculus import TypedSNN, merge_neurons, parallelize
from spikec.snn_core import Layer, SpikingNetwork, finite, network_trace


def ann_batch(ann, xs):
    ys = xs
    for a, b in ann.layers[:-1]:
        ys = np.maximum(0.0, ys @ a.T + b)
    a, b = ann.layers[-1]
    return ys @ a.T + b


def test_relu_gadget_reference_time_and_values():
    g = build_relu_gadget((-1.0, 1.0), 0.0)
    assert g.enc.t_out_ref == pytest.approx(4.0)
    assert g.realize([0.5])[0] == pytest.approx(0.5, abs=1e-12)
    assert g.realize([-0.7])[0] == pytest.approx(0.0, abs=1e-12)
    assert g.realize([0.0])[0] == pytest.approx(0.0, abs=1e-12)


def test_relu_gadget_dense_grid():
    g = build_relu_gadget((-1.0, 1.0), 0.0)
    xs = np.linspace(-1, 1, 2001)[:, None]
    got = g.realize_batch(xs)[:, 0]
    assert np.max(np.abs(got - np.maximum(0.0, xs[:, 0]))) <= 1e-12


def test_relu_gadget_requires_straddling_domain():
    with pytest.raises(InvalidParameterError):
        build_relu_gadget((0.0, 1.0), 0.0)


def test_affine_gadget_worked_example():
    g = build_affine_gadget([2.0, -1.0], 3.0, Box.cube(-1, 1, 2), 0.0)
    assert g.net.layers[0].thresholds[0] == pytest.approx(11.0)
    assert g.enc.t_out_ref == pytest.approx(8.0)
    assert g.realize([1.0, -1.0])[0] == pytest.approx(6.0, abs=1e-12)


def test_affine_gadget_zero_map():
    g = build_affine_gadget([0.0, 0.0], 0.0, Box.cube(-1, 1, 2), 0.0)
    xs = Box.cube(-1, 1, 2).grid(7)
    assert np.max(np.abs(g.realize_batch(xs))) <= 1e-12


def test_affine_gadget_full_contribution():
    rng = np.random.default_rng(31)
    g = build_affine_gadget([2.0, -1.0], 3.0, Box.cube(-1, 1, 2), 0.0)
    layer = g.net.layers[0]
    for _ in range(10):
        x = rng.uniform(-1, 1, 2)
        inputs = tuple(finite(v) for v in x) + (finite(0.0),)
        certs = layer_certificates(layer, inputs)
        assert certs[0].contributing == {0, 1, 2}


def test_neuron_gadget_count_and_values():
    g = build_neuron_gadget([2.0, -1.0], 3.0, Box.cube(-1, 1, 2), 0.0)
    assert g.net.num_neurons == 2 + 6
    xs = Box.cube(-1, 1, 2).grid(11)
    got = g.realize_batch(xs)[:, 0]
    want = np.maximum(0.0, xs @ [2.0, -1.0] + 3.0)
    assert np.max(np.abs(got - want)) <= 1e-9


def test_neuron_gadget_zero_map():
    g = build_neuron_gadget([0.0], 0.0, Box.cube(-1, 1, 1), 0.0)
    xs = Box.cube(-1, 1, 1).grid(21)
    assert np.max(np.abs(g.realize_batch(xs))) <= 1e-12


def test_layer_gadget_size_and_realization():
    A = np.array([[1.0, 0.5], [-0.3, 0.8]])
    B = np.array([0.2, -0.1])
    g = build_layer_gadget(A, B, Box.cube(-1, 1, 2), 0.0)
    assert g.net.num_neurons == 4 * 2 + 3
    assert g.net.depth == 3
    xs = Box.cube(-1, 1, 2).grid(11)
    got = g.realize_batch(xs)
    want = np.maximum(0.0, xs @ A.T + B)
    assert np.max(np.abs(got - want)) <= 1e-9


def test_layer_gadget_identity_map():
    g = build_layer_gadget(np.eye(2), np.zeros(2), Box.cube(-1, 1, 2), 0.0)
    xs = Box.cube(-1, 1, 2).grid(9)
    assert np.max(np.abs(g.realize_batch(xs) - np.maximum(0.0, xs))) <= 1e-9


def test_layer_gadget_aux_output_fires_at_reference():
    A = np.array([[0.4, -0.2], [0.1, 0.9]])
    B = np.array([-0.3, 0.6])
    g = build_layer_gadget(A, B, Box.cube(-1, 1, 2), 0.0, aux_output=True)
    trace = network_trace(g.net, (finite(0.3), finite(-0.8)))
    assert trace[-1][-1].time == pytest.approx(g.enc.t_out_ref, abs=1e-12)


def layer_gadget_reference(A, B, domain, t_in_ref, aux_output=False):
    """The layer gadget by the composition algebra: one neuron gadget per row,
    all sized with the shared bounds and run side by side, with every row's
    timing neuron and every ReLU stage's constant neuron merged into row 0's,
    and the optional re-export column appended."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_1d(np.asarray(B, dtype=float))
    m, d = A.shape
    ca = float(np.max(np.abs(A), initial=0.0))
    sb = float(np.max(np.abs(B), initial=0.0))
    margin = 1.0 if float(np.min(B + sb)) <= 1e-9 * max(1.0, sb) else 0.0
    par = reduce(
        parallelize,
        [build_neuron_gadget(A[j], B[j], domain, t_in_ref, ca, sb, margin) for j in range(m)],
    )
    net = par.net
    for j in range(m - 1, 0, -1):
        net = merge_neurons(net, 0, keep=1, drop=2 * j + 1)
    for j in range(m - 1, 0, -1):
        net = merge_neurons(net, 1, keep=1, drop=2 * j + 1)
    if aux_output:
        theta = max(d * ca * domain.max_abs + sb, 1.0) + 1.0
        last = net.layers[-1]
        w = np.hstack([last.weights, np.zeros((last.fan_in, 1))])
        w[1, -1] = 1.0
        layer = Layer(w, np.zeros_like(w), np.append(last.thresholds, theta))
        net = SpikingNetwork(net.input_dim, net.layers[:-1] + (layer,), net.aux_input_times)
    return TypedSNN(net, par.enc)


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def gadget_cases():
    rng = np.random.default_rng(17)
    for m, d in ((1, 1), (1, 4), (3, 2), (2, 5), (6, 6), (9, 3), (20, 20)):
        A = rng.normal(0.0, 1.0 / np.sqrt(d), (m, d))
        B = rng.normal(0.0, 1.0, m)
        yield A, B
        margin_B = B.copy()
        margin_B[rng.integers(m)] = -np.max(np.abs(B))
        yield A, margin_B
        zero_row = A.copy()
        zero_row[rng.integers(m)] = 0.0
        yield zero_row, B
        yield np.asfortranarray(A), B


@pytest.mark.parametrize("aux_output", [False, True])
@pytest.mark.parametrize("t_in_ref", [0.0, 3.75])
def test_layer_gadget_equals_the_algebra_reference(aux_output, t_in_ref):
    for A, B in gadget_cases():
        d = A.shape[1]
        domain = Box(np.full(d, -1.5), np.full(d, 0.75))
        got = build_layer_gadget(A, B, domain, t_in_ref, aux_output=aux_output)
        want = layer_gadget_reference(A, B, domain, t_in_ref, aux_output=aux_output)
        assert got.net.input_dim == want.net.input_dim
        assert got.net.aux_input_times == want.net.aux_input_times
        assert got.enc.t_in_ref == want.enc.t_in_ref
        assert got.enc.t_out_ref == want.enc.t_out_ref
        assert got.net.depth == want.net.depth == 3
        for g, w in zip(got.net.layers, want.net.layers):
            assert same_bits(g.weights, w.weights)
            assert same_bits(g.delays, w.delays)
            assert same_bits(g.thresholds, w.thresholds)


def test_layer_gadget_needs_an_output_row():
    with pytest.raises(DimensionError):
        build_layer_gadget(np.zeros((0, 2)), np.zeros(0), Box.cube(-1, 1, 2), 0.0)


def random_square_ann(rng, width, depth):
    layers = [
        (rng.normal(0.0, 1.0 / np.sqrt(width), (width, width)), rng.normal(0.0, 1.0, width))
        for _ in range(depth - 1)
    ]
    layers.append((rng.normal(0.0, 1.0, (1, width)), rng.normal(0.0, 1.0, 1)))
    return ReluNetwork(tuple(layers))


def test_compiles_of_one_width_share_read_only_relu_weights():
    rng = np.random.default_rng(23)
    box = Box.cube(-1.0, 1.0, 5)
    first, _ = compile_ann(random_square_ann(rng, 5, 3), box)
    second, _ = compile_ann(random_square_ann(rng, 5, 3), box)
    a, b = first.net.layers, second.net.layers
    assert not np.array_equal(a[0].weights, b[0].weights)
    for i in (1, 2, 4, 5):
        assert a[i].weights is b[i].weights
        assert not a[i].weights.flags.writeable
        with pytest.raises(ValueError):
            a[i].weights[0, 0] = 2.0
    xs = rng.uniform(-1.0, 1.0, (300, 5))
    for snn in (first, second):
        unshared = SpikingNetwork(
            snn.net.input_dim,
            tuple(
                Layer(np.array(l.weights), np.array(l.delays), l.thresholds.copy())
                for l in snn.net.layers
            ),
            snn.net.aux_input_times,
        )
        want = TypedSNN(unshared, snn.enc).realize_batch(xs)
        assert np.array_equal(snn.realize_batch(xs), want, equal_nan=True)


def test_compile_counts_spot_value():
    rng = np.random.default_rng(0)
    ann = ReluNetwork(
        (
            (rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, 2)),
            (rng.uniform(-1, 1, (1, 2)), rng.uniform(-1, 1, 1)),
        )
    )
    snn, report = compile_ann(ann, Box.cube(-1, 1, 2))
    assert report.neuron_count == 13
    assert report.layer_count == 4
    assert report.predicted_neurons == 13
    assert report.predicted_layers == 4


def test_compile_single_affine_layer():
    ann = ReluNetwork(((np.array([[0.7, -0.4]]), np.array([0.25])),))
    snn, report = compile_ann(ann, Box.cube(-1, 1, 2))
    assert report.layer_count == 1
    assert report.neuron_count == 4
    xs = Box.cube(-1, 1, 2).grid(11)
    got = snn.realize_batch(xs)[:, 0]
    assert np.max(np.abs(got - ann_batch(ann, xs)[:, 0])) <= 1e-9


def test_compile_reference_times_chain():
    rng = np.random.default_rng(6)
    ann = ReluNetwork(
        (
            (rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 3)),
            (rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 3)),
            (rng.uniform(-1, 1, (1, 3)), rng.uniform(-1, 1, 1)),
        )
    )
    snn, report = compile_ann(ann, Box.cube(-1, 1, 3))
    for (t_in_a, t_out_a), (t_in_b, _) in zip(
        report.per_stage_refs, report.per_stage_refs[1:]
    ):
        assert t_out_a == t_in_b
    assert report.per_stage_refs[0][0] == snn.enc.t_in_ref
    assert report.per_stage_refs[-1][1] == snn.enc.t_out_ref


def test_compile_two_kink_ann_matches_branch_values():
    ann = build_example_3_1_ann(1.0)
    snn, _ = compile_ann(ann, Box.cube(-3, 3, 1))
    for x, want in ((-2.0, -2.0), (0.0, -0.5), (2.0, 0.0)):
        assert snn.realize([x])[0] == pytest.approx(want, abs=1e-9)


def test_compile_multi_output_final_layer():
    rng = np.random.default_rng(13)
    ann = ReluNetwork(
        (
            (rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, 2)),
            (rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, 3)),
        )
    )
    snn, report = compile_ann(ann, Box.cube(-1, 1, 2))
    assert report.predicted_neurons is None
    xs = Box.cube(-1, 1, 2).grid(11)
    got = snn.realize_batch(xs)
    assert np.max(np.abs(got - ann_batch(ann, xs))) <= 1e-9


def test_compile_random_networks_emulate_exactly():
    rng = np.random.default_rng(99)
    for _ in range(15):
        d = int(rng.integers(1, 5))
        L = int(rng.integers(1, 4))
        layers = [(rng.uniform(-1, 1, (d, d)), rng.uniform(-1, 1, d)) for _ in range(L - 1)]
        layers.append((rng.uniform(-1, 1, (1, d)), rng.uniform(-1, 1, 1)))
        ann = ReluNetwork(tuple(layers))
        box = Box.cube(-1, 1, d)
        snn, report = compile_ann(ann, box)
        assert report.neuron_count == report.predicted_neurons
        assert report.layer_count == report.predicted_layers
        xs = box.grid(7)
        got = snn.realize_batch(xs)[:, 0]
        assert np.max(np.abs(got - ann_batch(ann, xs)[:, 0])) <= 1e-9


def test_two_kink_gadget_branch_values_and_continuity():
    g = build_example_3_1(1.0, (-3.0, 3.0))
    assert g.net.num_neurons == 3 and g.net.depth == 1
    for x, want in ((-2.0, -2.0), (0.0, -0.5), (2.0, 0.0)):
        assert g.realize([x])[0] == pytest.approx(want, abs=1e-12)
    for kink in (-1.0, 1.0):
        lo = g.realize([kink - 1e-9])[0]
        hi = g.realize([kink + 1e-9])[0]
        assert abs(lo - hi) < 1e-8


def test_two_kink_gadget_matches_minimal_ann_on_grid():
    g = build_example_3_1(1.0, (-3.0, 3.0))
    ann = build_example_3_1_ann(1.0)
    xs = np.linspace(-3, 3, 201)[:, None]
    got = g.realize_batch(xs)[:, 0]
    want = ann_batch(ann, xs)[:, 0]
    assert np.max(np.abs(got - want)) <= 1e-12
