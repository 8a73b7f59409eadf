"""Tests for the batch firing-rule kernel: it must give exactly what the
per-output dense kernel it replaced gives, agree bit for bit with the scalar
path, and hold its temporaries to a fixed size."""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikec import (
    NEVER,
    Box,
    InvalidParameterError,
    Layer,
    RealizationUndefinedError,
    ReluNetwork,
    SpikingNetwork,
    compile_ann,
    finite,
    layer_forward,
    layer_forward_batch,
    realize_batch,
    resolve_firing_time,
    single_neuron_network,
)
from spikec import snn_core
from spikec.serialization import dumps_canonical, snn_to_dict


def dense_per_output_reference(layer, times):
    """Test-only reference: the original dense kernel, one output at a time,
    scanning the whole fan-in, zero-weight synapses included."""
    batch = times.shape[0]
    out = np.empty((batch, layer.fan_out))
    rows = np.arange(batch)
    for j in range(layer.fan_out):
        arr = times + layer.delays[:, j]
        arr = np.where(np.isnan(arr), np.inf, arr)
        order = np.argsort(arr, axis=1, kind="stable")
        arr_s = np.take_along_axis(arr, order, axis=1)
        w_s = layer.weights[order, j]
        finite_mask = np.isfinite(arr_s)
        wcum = np.cumsum(w_s, axis=1)
        scum = np.cumsum(w_s * np.where(finite_mask, arr_s, 0.0), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = (layer.thresholds[j] + scum) / wcum
        nxt = np.concatenate(
            [arr_s[:, 1:], np.full((batch, 1), np.inf)], axis=1
        )
        valid = (wcum > 0) & finite_mask & (cand > arr_s) & (cand <= nxt)
        has = valid.any(axis=1)
        first = np.argmax(valid, axis=1)
        out[:, j] = np.where(has, cand[rows, first], np.nan)
    return out


def random_ann(rng, width, depth, scale):
    layers = [
        (rng.normal(0.0, scale, (width, width)), rng.normal(0.0, scale, width))
        for _ in range(depth - 1)
    ]
    layers.append((rng.normal(0.0, scale, (1, width)), rng.normal(0.0, scale, 1)))
    return ReluNetwork(tuple(layers))


@pytest.mark.parametrize(
    "width, depth, batch, scale",
    [(4, 5, 300, 1.0), (8, 8, 300, 1.0), (128, 3, 192, 128**-0.5)],
)
def test_kernel_matches_reference_on_compiled_layers(width, depth, batch, scale):
    rng = np.random.default_rng(width * 100 + depth)
    snn, _ = compile_ann(random_ann(rng, width, depth, scale), Box.cube(-1, 1, width))
    net = snn.net
    xs = rng.uniform(-1.0, 1.0, (batch, width))
    times = np.hstack(
        [snn.enc.t_in_ref + xs, np.broadcast_to(net.aux_input_times, (batch, net.n_aux))]
    )
    for i, layer in enumerate(net.layers):
        want = dense_per_output_reference(layer, times)
        got = layer_forward_batch(layer, times)
        assert np.array_equal(got, want, equal_nan=True), f"layer {i}"
        times = want


def random_layer(rng, fan_in, fan_out):
    w = rng.normal(0.0, 1.0, (fan_in, fan_out))
    w[rng.random(w.shape) < rng.uniform(0.0, 0.9)] = 0.0
    d = np.where(rng.random(w.shape) < 0.5, 0.0, rng.integers(0, 3, w.shape) * 0.5)
    return Layer(w, d, rng.uniform(0.1, 3.0, fan_out))


def random_times(rng, batch, fan_in):
    # Half-integer times tie with each other and with delayed arrivals.
    times = rng.integers(-4, 5, (batch, fan_in)) * 0.5
    times = np.where(rng.random(times.shape) < 0.5, times, rng.uniform(-2, 2, times.shape))
    times[rng.random(times.shape) < 0.2] = np.nan
    return times


@pytest.mark.parametrize("chunk", [1, 7, snn_core.KERNEL_CHUNK_ELEMS])
def test_kernel_matches_reference_on_random_layers(monkeypatch, chunk):
    monkeypatch.setattr(snn_core, "KERNEL_CHUNK_ELEMS", chunk)
    rng = np.random.default_rng(chunk)
    for _ in range(200):
        fan_in, fan_out = rng.integers(1, 9, 2)
        layer = random_layer(rng, fan_in, fan_out)
        times = random_times(rng, int(rng.integers(1, 40)), fan_in)
        got = layer_forward_batch(layer, times)
        assert np.array_equal(got, dense_per_output_reference(layer, times), equal_nan=True)


def zero_delay_layer(rng, fan_in, fan_out, density):
    w = rng.normal(0.0, 1.0, (fan_in, fan_out))
    w[rng.random(w.shape) >= density] = 0.0
    return Layer(w, np.zeros(w.shape), rng.uniform(0.1, 3.0, fan_out))


@pytest.mark.parametrize("chunk", [1, 7, snn_core.KERNEL_CHUNK_ELEMS])
def test_shared_order_matches_reference_on_zero_delay_layers(monkeypatch, chunk):
    # All-zero delays take the shared arrival sort when the widest live
    # column covers at least half the fan-in, the per-output sort otherwise.
    monkeypatch.setattr(snn_core, "KERNEL_CHUNK_ELEMS", chunk)
    rng = np.random.default_rng(100 + chunk)
    sides = {"shared": 0, "per_output": 0, "boundary": 0}
    for density in np.linspace(0.05, 1.0, 20):
        for _ in range(15):
            fan_in, fan_out = rng.integers(1, 13), rng.integers(1, 9)
            layer = zero_delay_layer(rng, fan_in, fan_out, density)
            k = int((layer.weights != 0).sum(axis=0).max())
            if k:
                sides["shared" if 2 * k >= fan_in else "per_output"] += 1
                sides["boundary"] += 2 * k == fan_in
            times = random_times(rng, int(rng.integers(1, 40)), fan_in)
            got = layer_forward_batch(layer, times)
            assert np.array_equal(got, dense_per_output_reference(layer, times), equal_nan=True)
    assert min(sides.values()) > 0, sides


def two_synapse_layer(rng, fan_in, fan_out):
    # At most two live synapses per output, with delays, or with zero delays
    # and a fan-in above 2k, so the layer takes the per-output order.
    w = np.zeros((fan_in, fan_out))
    for j in range(fan_out):
        live = rng.choice(fan_in, size=min(fan_in, int(rng.integers(0, 3))), replace=False)
        w[live, j] = rng.normal(0.0, 1.0, live.size)
    if rng.random() < 0.5:
        d = rng.integers(0, 3, w.shape) * 0.5
    else:
        d = np.zeros(w.shape)
    return Layer(w, d, rng.uniform(0.1, 3.0, fan_out))


@pytest.mark.parametrize("chunk", [1, 7, snn_core.KERNEL_CHUNK_ELEMS])
def test_two_synapse_layers_match_reference(monkeypatch, chunk):
    # Layers whose widest live column has k <= 2 skip the sort: the two
    # arrivals are ordered by one comparison and resolved in closed form.
    monkeypatch.setattr(snn_core, "KERNEL_CHUNK_ELEMS", chunk)
    rng = np.random.default_rng(200 + chunk)
    cases = dict.fromkeys(
        ["k=1", "k=2 padded", "delays", "tie", "never", "negative", "positive"], 0
    )
    for _ in range(300):
        fan_in, fan_out = rng.integers(1, 9, 2)
        layer = two_synapse_layer(rng, fan_in, fan_out)
        times = random_times(rng, int(rng.integers(1, 40)), fan_in)
        got = layer_forward_batch(layer, times)
        assert np.array_equal(got, dense_per_output_reference(layer, times), equal_nan=True)
        live = layer.weights != 0
        counts = live.sum(axis=0)
        k = int(counts.max())
        if k == 0 or (2 * k >= fan_in and not layer.delays.any()):
            continue
        cases["k=1"] += k == 1
        cases["k=2 padded"] += k == 2 and counts.min() < 2
        cases["delays"] += bool(layer.delays[live].any())
        cases["never"] += bool(np.isnan(times[:, live.any(axis=1)]).any())
        cases["negative"] += bool((layer.weights < 0).any())
        cases["positive"] += bool((layer.weights > 0).any())
        for j in np.flatnonzero(counts == 2):
            i0, i1 = np.flatnonzero(live[:, j])
            a0 = times[:, i0] + layer.delays[i0, j]
            cases["tie"] += bool((a0 == times[:, i1] + layer.delays[i1, j]).any())
    assert min(cases.values()) > 0, cases


def test_network_forward_batch_calls_each_layer_through_the_module():
    # The benchmark's tracer times each layer by patching
    # snn_core.layer_forward_batch, so the network pass must look the kernel
    # up there once per layer.
    snn, _ = compile_ann(FIXED_ANN, Box.cube(-1.0, 1.0, 3))
    kernel = snn_core.layer_forward_batch
    seen = []

    def counting(layer, times):
        seen.append(layer)
        return kernel(layer, times)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(snn_core, "layer_forward_batch", counting)
        realize_batch(snn.net, snn.enc, np.zeros((5, 3)))
    assert len(seen) == snn.net.depth
    assert all(a is b for a, b in zip(seen, snn.net.layers))


def test_infinite_input_times_are_refused():
    # FiringTime cannot hold +-inf, so the scalar path has no such input;
    # the batch path used to read -inf as a time and +inf as Never.
    layer = Layer(np.ones((3, 1)), np.zeros((3, 1)), np.ones(1))
    net = SpikingNetwork(3, (layer,))
    for bad in (np.inf, -np.inf):
        times = np.array([[0.0, 0.0, 0.0], [0.0, bad, np.nan]])
        for forward, arg in ((layer_forward_batch, layer), (snn_core.network_forward_batch, net)):
            with pytest.raises(InvalidParameterError, match="finite"):
                forward(arg, times)
    silent = Layer(np.zeros((3, 1)), np.zeros((3, 1)), np.ones(1))
    with pytest.raises(InvalidParameterError, match="finite"):
        layer_forward_batch(silent, np.array([[np.nan, -np.inf, 0.0]]))
    # NaN stays Never.
    times = np.array([[0.0, np.nan, np.nan], [np.nan] * 3])
    assert np.array_equal(layer_forward_batch(layer, times), [[1.0], [np.nan]], equal_nan=True)


def test_kernel_handles_empty_batch_and_silent_layer():
    layer = Layer(np.zeros((3, 2)), np.zeros((3, 2)), np.ones(2))
    assert np.isnan(layer_forward_batch(layer, np.zeros((4, 3)))).all()
    assert layer_forward_batch(layer, np.zeros((0, 3))).shape == (0, 2)


def test_kernel_temporaries_do_not_grow_with_the_batch():
    rng = np.random.default_rng(3)
    dense = Layer(rng.normal(size=(16, 16)), np.zeros((16, 16)), np.ones(16))
    # A compiled ReLU-stage layer: two live synapses per output.
    snn, _ = compile_ann(random_ann(rng, 16, 2, 1.0), Box.cube(-1.0, 1.0, 16))
    relu_stage = snn.net.layers[1]
    assert (relu_stage.weights != 0).sum(axis=0).max() == 2

    def peak(layer, batch):
        times = rng.uniform(-1, 1, (batch, layer.fan_in))
        tracemalloc.start()
        try:
            layer_forward_batch(layer, times)
            return tracemalloc.get_traced_memory()[1] - batch * layer.fan_out * 8
        finally:
            tracemalloc.stop()

    for layer in (dense, relu_stage):
        small, large = peak(layer, 2_000), peak(layer, 40_000)
        assert large <= 1.5 * small + 65536


def test_subnormal_weight_sum_is_not_a_crossing():
    # theta / 5e-324 overflows: a candidate time that is not finite is not
    # a crossing, in every path.
    assert resolve_firing_time([(0.0, 5e-324)], 1.0).firing_time is NEVER
    layer = Layer(np.array([[5e-324]]), np.zeros((1, 1)), np.array([1.0]))
    assert np.isnan(layer_forward_batch(layer, np.array([[0.0]]))).all()
    net = single_neuron_network([5e-324], [0.0], 1.0)
    enc = snn_core.EncodingSpec(0.0, 1.0, Box([-1.0], [1.0]))
    with pytest.raises(RealizationUndefinedError):
        realize_batch(net, enc, np.array([[0.0]]))


def test_subnormal_weight_sum_does_not_warn():
    # theta / 5e-324 overflows to inf as a Python float, with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = resolve_firing_time([(0.0, 5e-324)], np.float64(1.0))
    assert cert.firing_time is NEVER


WEIGHTS = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1.0, -1.0]),
    st.floats(-2.0, 2.0),
)
TIMES = st.one_of(
    st.just(float("nan")), st.sampled_from([-1.0, 0.0, 0.5, 1.0]), st.floats(-3.0, 3.0)
)


def exactly(elem, n):
    return st.lists(elem, min_size=n, max_size=n)


@st.composite
def layer_and_times(draw):
    fan_in = draw(st.integers(1, 5))
    fan_out = draw(st.integers(1, 3))
    batch = draw(st.integers(1, 4))
    w = draw(exactly(WEIGHTS, fan_in * fan_out))
    d = draw(exactly(st.sampled_from([0.0, 0.5, 1.0]), fan_in * fan_out))
    theta = draw(exactly(st.floats(0.05, 3.0), fan_out))
    times = draw(exactly(TIMES, batch * fan_in))
    layer = Layer(
        np.reshape(w, (fan_in, fan_out)), np.reshape(d, (fan_in, fan_out)), np.array(theta)
    )
    return layer, np.reshape(times, (batch, fan_in))


@settings(max_examples=300, deadline=None)
@given(layer_and_times())
def test_scalar_and_batch_paths_agree_exactly(case):
    layer, times = case
    batch = layer_forward_batch(layer, times)
    for row, want in zip(times, batch):
        inputs = tuple(NEVER if np.isnan(v) else finite(v) for v in row)
        got = np.array(
            [ft.time if ft.fires else np.nan for ft in layer_forward(layer, inputs)]
        )
        assert np.array_equal(got, want, equal_nan=True)


@st.composite
def shared_order_layer_and_times(draw):
    # All-zero delays and one fully live column, so 2*k >= fan_in holds.
    fan_in = draw(st.integers(1, 5))
    fan_out = draw(st.integers(1, 3))
    batch = draw(st.integers(1, 4))
    live = draw(exactly(WEIGHTS.filter(lambda w: w != 0.0), fan_in))
    rest = draw(exactly(WEIGHTS, fan_in * (fan_out - 1)))
    theta = draw(exactly(st.floats(0.05, 3.0), fan_out))
    times = draw(exactly(TIMES, batch * fan_in))
    w = np.hstack([np.reshape(live, (fan_in, 1)), np.reshape(rest, (fan_in, fan_out - 1))])
    layer = Layer(w, np.zeros(w.shape), np.array(theta))
    return layer, np.reshape(times, (batch, fan_in))


@settings(max_examples=300, deadline=None)
@given(shared_order_layer_and_times())
def test_scalar_and_shared_order_batch_paths_agree_exactly(case):
    layer, times = case
    batch = layer_forward_batch(layer, times)
    for row, want in zip(times, batch):
        inputs = tuple(NEVER if np.isnan(v) else finite(v) for v in row)
        got = [ft.time if ft.fires else np.nan for ft in layer_forward(layer, inputs)]
        assert np.array_equal(got, want, equal_nan=True)


FIXED_ANN = ReluNetwork(
    (
        (
            np.array([[0.5, -0.25, 1.0], [0.75, 0.5, -1.5], [-0.125, 2.0, 0.25]]),
            np.array([0.5, -0.25, 0.0]),
        ),
        (
            np.array([[1.0, -0.5, 0.25], [0.5, 0.5, -0.75], [-1.0, 0.125, 1.5]]),
            np.array([-0.5, 0.25, 1.0]),
        ),
        (np.array([[1.0, -2.0, 0.5]]), np.array([0.25])),
    )
)


def test_compiled_layers_share_zero_delays():
    snn, _ = compile_ann(FIXED_ANN, Box.cube(-1.0, 1.0, 3))
    for layer in snn.net.layers:
        assert layer.delays.strides == (0, 0)
        assert not layer.delays.flags.writeable
        assert not layer.delays.any()
    # The canonical file is byte for byte what dense zero delays gave.
    text = dumps_canonical(snn_to_dict(snn))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "7f499a479e9f4ae6cafb206506af74762dd4ad83a5edc90cb5539980a8201465"


def test_compiled_relu_stages_share_one_read_only_weight_matrix():
    rng = np.random.default_rng(4)
    snn, _ = compile_ann(random_ann(rng, 4, 4, 1.0), Box.cube(-1.0, 1.0, 4))
    layers = snn.net.layers
    assert len(layers) == 10
    for stage in (1, 2):
        assert layers[3 * stage + 1].weights is layers[1].weights
        assert layers[3 * stage + 2].weights is layers[2].weights
    for layer in layers:
        assert not layer.weights.flags.writeable
        with pytest.raises(ValueError):
            layer.weights[0, 0] = 1.0
    unshared = SpikingNetwork(
        snn.net.input_dim,
        tuple(
            Layer(np.array(l.weights), np.array(l.delays), l.thresholds.copy())
            for l in layers
        ),
        snn.net.aux_input_times,
    )
    assert all(u.weights.flags.writeable for u in unshared.layers)
    xs = rng.uniform(-1.0, 1.0, (200, 4))
    want = realize_batch(unshared, snn.enc, xs)
    assert np.array_equal(realize_batch(snn.net, snn.enc, xs), want)
