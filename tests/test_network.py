"""Tests for layered propagation, encoding and realization."""

import numpy as np
import pytest

from spikec import (
    Box,
    DimensionError,
    DomainViolationError,
    EncodingSpec,
    InvalidParameterError,
    Layer,
    NEVER,
    RealizationUndefinedError,
    SpikingNetwork,
    finite,
    layer_forward,
    network_forward,
    network_forward_batch,
    network_trace,
    realize,
    realize_batch,
    single_neuron_network,
)
from spikec.boxes import CONTAINS_TOL


def identity_layer():
    return Layer(np.array([[1.0]]), np.array([[0.0]]), np.array([1.0]))


def test_identity_like_layer():
    out = layer_forward(identity_layer(), (finite(0.0),))
    assert out[0].time == pytest.approx(1.0, abs=1e-12)


def test_worked_two_input_layer():
    layer = Layer(np.ones((2, 1)), np.array([[2.0], [1.0]]), np.array([1.0]))
    out = layer_forward(layer, (finite(0.0), finite(1.0)))
    assert out[0].time == pytest.approx(2.5, abs=1e-12)


def test_all_negative_weights_never_fire():
    layer = Layer(-np.ones((2, 1)), np.zeros((2, 1)), np.array([1.0]))
    out = layer_forward(layer, (finite(0.0), finite(0.5)))
    assert out[0] is NEVER


def test_never_inputs_contribute_no_arrival():
    layer = Layer(np.array([[1.0], [10.0]]), np.zeros((2, 1)), np.array([1.0]))
    out = layer_forward(layer, (finite(0.0), NEVER))
    assert out[0].time == pytest.approx(1.0, abs=1e-12)


def test_layer_forward_dimension_mismatch():
    with pytest.raises(DimensionError):
        layer_forward(identity_layer(), (finite(0.0), finite(1.0)))


def test_layer_validation():
    with pytest.raises(InvalidParameterError):
        Layer(np.ones((1, 1)), -np.ones((1, 1)), np.array([1.0]))
    with pytest.raises(InvalidParameterError):
        Layer(np.ones((1, 1)), np.zeros((1, 1)), np.array([0.0]))
    with pytest.raises(DimensionError):
        Layer(np.ones((2, 1)), np.zeros((1, 1)), np.array([1.0]))


@pytest.mark.parametrize("weights, delays, thresholds", [
    ([[1.0], [np.inf]], [[0.0], [0.0]], [1.0]),
    ([[1.0], [-np.inf]], [[0.0], [0.0]], [1.0]),
    ([[np.nan], [1.0]], [[0.0], [0.0]], [1.0]),
    ([[1.0], [1.0]], [[0.0], [np.nan]], [1.0]),
    ([[1.0], [1.0]], [[np.inf], [0.0]], [1.0]),
    ([[1.0], [1.0]], [[0.0], [0.0]], [np.nan]),
    ([[1.0], [1.0]], [[0.0], [0.0]], [np.inf]),
    # Zero-stride delays, as compiled layers share them.
    ([[1.0], [1.0]], np.broadcast_to(np.nan, (2, 1)), [1.0]),
    (np.ones((2, 3)), np.broadcast_to([[0.0], [np.inf]], (2, 3)), np.ones(3)),
], ids=["inf-weight", "minus-inf-weight", "nan-weight", "nan-delay", "inf-delay",
        "nan-threshold", "inf-threshold", "nan-shared-delay", "inf-shared-delay"])
def test_layer_refuses_non_finite_values(weights, delays, thresholds):
    # A NaN threshold used to pass, and then the scalar path raised while
    # the batch path answered Never.
    with pytest.raises(InvalidParameterError, match="finite"):
        Layer(np.asarray(weights), np.asarray(delays), np.asarray(thresholds))


def test_one_layer_network_equals_layer_forward():
    net = SpikingNetwork(1, (identity_layer(),))
    out = network_forward(net, (finite(0.25),))
    ref = layer_forward(identity_layer(), (finite(0.25),))
    assert out[0].time == ref[0].time


def test_two_layer_network_composes_layer_forward():
    rng = np.random.default_rng(3)
    l1 = Layer(rng.uniform(0.1, 1, (2, 3)), rng.uniform(0, 1, (2, 3)), rng.uniform(0.5, 2, 3))
    l2 = Layer(rng.uniform(0.1, 1, (3, 2)), rng.uniform(0, 1, (3, 2)), rng.uniform(0.5, 2, 2))
    net = SpikingNetwork(2, (l1, l2))
    inputs = (finite(0.1), finite(-0.4))
    direct = network_forward(net, inputs)
    manual = layer_forward(l2, layer_forward(l1, inputs))
    for a, b in zip(direct, manual):
        assert a.time == b.time


def test_network_trace_includes_aux_inputs():
    net = SpikingNetwork(
        1,
        (Layer(np.ones((2, 1)), np.zeros((2, 1)), np.array([1.0])),),
        aux_input_times=(0.5,),
    )
    trace = network_trace(net, (finite(0.0),))
    assert len(trace) == 2
    assert [ft.time for ft in trace[0]] == [0.0, 0.5]


def test_network_shape_chaining_validated():
    l1 = Layer(np.ones((2, 2)), np.zeros((2, 2)), np.ones(2))
    l2 = Layer(np.ones((3, 1)), np.zeros((3, 1)), np.ones(1))
    with pytest.raises(DimensionError):
        SpikingNetwork(2, (l1, l2))
    with pytest.raises(DimensionError):
        SpikingNetwork(2, ())


def test_num_neurons_counts_inputs_aux_and_layers():
    net = SpikingNetwork(
        2,
        (
            Layer(np.ones((3, 2)), np.zeros((3, 2)), np.ones(2)),
            Layer(np.ones((2, 1)), np.zeros((2, 1)), np.ones(1)),
        ),
        aux_input_times=(0.0,),
    )
    assert net.num_neurons == 2 + 1 + 2 + 1


def test_realize_requires_domain_membership():
    net = single_neuron_network([1.0], [0.0], 1.0)
    enc = EncodingSpec(0.0, 1.0, Box([-1.0], [1.0]))
    assert realize(net, enc, [0.5])[0] == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(DomainViolationError):
        realize(net, enc, [2.0])


def test_realize_batch_requires_domain_membership():
    net = single_neuron_network([1.0, 1.0], [0.0, 0.0], 1.0)
    enc = EncodingSpec(0.0, 3.0, Box([-1.0, 0.0], [1.0, 2.0]))
    # Corners, an edge point, and a corner widened by CONTAINS_TOL lie inside.
    edge = np.array([[-1.0, 0.0], [1.0, 2.0], [0.3, 0.0],
                     [-1.0 - CONTAINS_TOL, 2.0 + CONTAINS_TOL]])
    assert enc.domain.contains(edge)
    want = np.array([realize(net, enc, x) for x in edge])
    assert np.allclose(realize_batch(net, enc, edge), want, rtol=0, atol=1e-12)
    for bad in ([1.0 + 2 * CONTAINS_TOL, 1.0], [0.0, -2 * CONTAINS_TOL], [np.nan, 1.0]):
        xs = np.vstack([edge, bad])
        assert not enc.domain.contains(xs)
        with pytest.raises(DomainViolationError):
            realize_batch(net, enc, xs)
        with pytest.raises(DomainViolationError):
            realize(net, enc, bad)
    with pytest.raises(DimensionError):
        enc.domain.contains(np.zeros((2, 3)))


def test_realize_errors_on_silent_output():
    net = single_neuron_network([-1.0], [0.0], 1.0)
    enc = EncodingSpec(0.0, 1.0, Box([-1.0], [1.0]))
    with pytest.raises(RealizationUndefinedError):
        realize(net, enc, [0.0])
    with pytest.raises(RealizationUndefinedError):
        realize_batch(net, enc, np.array([[0.0]]))


def test_encoding_spec_orders_references():
    with pytest.raises(InvalidParameterError):
        EncodingSpec(1.0, 1.0, Box([0.0], [1.0]))


@pytest.mark.parametrize("t_in_ref, t_out_ref", [
    (0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan),
], ids=["inf-out", "minus-inf-in", "nan-in", "nan-out"])
def test_encoding_spec_refuses_non_finite_references(t_in_ref, t_out_ref):
    # An infinite t_out_ref used to pass the ordering test and decode every
    # output to -inf.
    with pytest.raises(InvalidParameterError, match="finite"):
        EncodingSpec(t_in_ref, t_out_ref, Box([0.0], [1.0]))


@pytest.mark.parametrize("aux", [np.nan, np.inf, -np.inf])
def test_network_refuses_non_finite_aux_times(aux):
    # The batch kernel used to read a NaN auxiliary time as Never, where
    # the scalar path refused it.
    layer = Layer(np.ones((2, 1)), np.zeros((2, 1)), np.array([1.0]))
    with pytest.raises(InvalidParameterError, match="auxiliary input times must be finite"):
        SpikingNetwork(1, (layer,), aux_input_times=(aux,))


@pytest.mark.parametrize("lo, hi", [
    ([np.nan], [1.0]), ([0.0], [np.nan]), ([0.0, -np.inf], [1.0, 1.0]), ([0.0], [np.inf]),
], ids=["nan-lo", "nan-hi", "minus-inf-lo", "inf-hi"])
def test_box_refuses_non_finite_bounds(lo, hi):
    # NaN passes the lo > hi test, so such a box used to be built.
    with pytest.raises(InvalidParameterError, match="box bounds must be finite"):
        Box(lo, hi)


def test_batch_network_forward_matches_scalar():
    rng = np.random.default_rng(9)
    l1 = Layer(rng.uniform(-1, 1, (3, 3)), rng.uniform(0, 1, (3, 3)), rng.uniform(0.2, 2, 3))
    l2 = Layer(rng.uniform(-1, 1, (3, 1)), rng.uniform(0, 1, (3, 1)), rng.uniform(0.2, 2, 1))
    net = SpikingNetwork(2, (l1, l2), aux_input_times=(0.0,))
    xs = rng.uniform(-1, 1, (40, 2))
    times = np.hstack([xs, np.zeros((40, 1))])
    batch = network_forward_batch(net, times)
    for r in range(40):
        out = network_forward(net, (finite(xs[r, 0]), finite(xs[r, 1])))
        if out[0].fires:
            assert batch[r, 0] == pytest.approx(out[0].time, abs=1e-12)
        else:
            assert np.isnan(batch[r, 0])
