"""The scalar layer step against the per-neuron reference, and the oracle's step bound."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikec import (
    NEVER,
    Box,
    DimensionError,
    EncodingSpec,
    InvalidParameterError,
    Layer,
    RealizationUndefinedError,
    ReluNetwork,
    SpikingNetwork,
    compile_ann,
    finite,
    layer_certificates,
    layer_forward,
    layer_forward_batch,
    network_trace,
    oracle_firing_time,
    realize,
    realize_batch,
    resolve_firing_time,
)
from spikec import snn_core
from spikec.errors import SpikecError
from spikec.snn_core import ORACLE_MAX_STEPS

# ---------------------------------------------------------------------------
# The per-neuron reference: each output neuron gathers its arrivals from the
# firing inputs in input order and resolves them on its own.
# ---------------------------------------------------------------------------


def ref_arrivals(layer, inputs, j):
    return [
        (inputs[i].time + layer.delays[i, j], layer.weights[i, j])
        for i in range(layer.fan_in)
        if inputs[i].fires
    ]


def ref_certificates(layer, inputs):
    if len(inputs) != layer.fan_in:
        raise DimensionError("fan-in mismatch")
    # t + d is a numpy scalar sum: an overflow gives inf, which
    # resolve_firing_time refuses, after a warning that is silenced here.
    with np.errstate(over="ignore"):
        return [
            resolve_firing_time(ref_arrivals(layer, inputs, j), layer.thresholds[j])
            for j in range(layer.fan_out)
        ]


def ref_forward(layer, inputs):
    return tuple(c.firing_time for c in ref_certificates(layer, inputs))


def ref_trace(net, input_times):
    current = tuple(input_times) + tuple(finite(t) for t in net.aux_input_times)
    trace = [current]
    for layer in net.layers:
        current = ref_forward(layer, current)
        trace.append(current)
    return trace


def ref_realize(net, enc, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = ref_trace(net, tuple(finite(enc.t_in_ref + xi) for xi in x))[-1]
    if not all(ft.fires for ft in out):
        return "never"
    return [ft.time - enc.t_out_ref for ft in out]


def bits(t):
    """A float or None as something that compares equal only bit for bit."""
    return None if t is None else struct.pack("<d", t)


def spike_bits(spikes):
    return [bits(ft.time) for ft in spikes]


def outcome(f, *args):
    """What f returns, or the type of what it raises."""
    try:
        return "ok", f(*args)
    except SpikecError as e:
        return "raised", type(e)


# ---------------------------------------------------------------------------
# Random layers
# ---------------------------------------------------------------------------

WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -1.0, 0.5]),
    st.floats(-3.0, 3.0),
)
TIMES = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, 0.5, 1.0]),
    st.floats(-3.0, 3.0),
)


@st.composite
def layers(draw, fan_in, fan_out=None):
    fan_out = draw(st.integers(1, 4)) if fan_out is None else fan_out
    w = np.array(draw(st.lists(WEIGHTS, min_size=fan_in * fan_out,
                               max_size=fan_in * fan_out))).reshape(fan_in, fan_out)
    kind = draw(st.sampled_from(["zero-stride", "zeros", "nonzero"]))
    if kind == "zero-stride":
        # As compiled layers hold them: one zero-stride view of zero.
        d = np.broadcast_to(0.0, (fan_in, fan_out))
    elif kind == "zeros":
        d = np.zeros((fan_in, fan_out))
    else:
        d = np.array(draw(st.lists(
            st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 3.0)),
            min_size=fan_in * fan_out, max_size=fan_in * fan_out,
        ))).reshape(fan_in, fan_out)
    th = np.array(draw(st.lists(
        st.one_of(st.sampled_from([1.0, 1e-300]), st.floats(1e-3, 5.0)),
        min_size=fan_out, max_size=fan_out,
    )))
    return Layer(w, d, th)


def spikes(times):
    return tuple(NEVER if t is None else finite(t) for t in times)


def read_only(layer):
    """The same layer with all three arrays read-only, which the scalar path
    reads once; a zero-stride delay stays one."""
    arrays = [a.copy() if a.flags.writeable else a
              for a in (layer.weights, layer.delays, layer.thresholds)]
    for a in arrays:
        a.setflags(write=False)
    return Layer(*arrays)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_layer_step_equals_per_neuron_reference(data):
    fan_in = data.draw(st.integers(1, 6))
    layer = data.draw(layers(fan_in))
    inputs = spikes(data.draw(st.lists(TIMES, min_size=fan_in, max_size=fan_in)))
    poison = data.draw(st.sampled_from(
        [None, None, "nan-weight", "inf-weight", "overflow", "nan-delay", "threshold"]
    ))
    i = data.draw(st.integers(0, fan_in - 1))
    j = data.draw(st.integers(0, layer.fan_out - 1))
    if poison in ("nan-weight", "inf-weight"):
        # Written after construction; refused only on a firing input's row.
        layer.weights[i, j] = np.nan if poison == "nan-weight" else -np.inf
    elif poison in ("overflow", "nan-delay"):
        delays = np.array(layer.delays)
        delays[i, j] = 1.7e308 if poison == "overflow" else np.nan
        object.__setattr__(layer, "delays", delays)
        if poison == "overflow" and inputs[i].fires:
            inputs = inputs[:i] + (finite(1e300),) + inputs[i + 1:]
    elif poison == "threshold":
        layer.thresholds[j] = data.draw(st.sampled_from([0.0, -1.0, np.nan, np.inf]))

    kind, want = outcome(ref_certificates, layer, inputs)
    got_kind, got = outcome(layer_certificates, layer, inputs)
    assert (got_kind, kind) == ("raised", "raised") or got_kind == kind == "ok"
    if kind == "raised":
        assert got is want
        assert outcome(layer_forward, layer, inputs) == ("raised", want)
        return
    # A read-only copy of a layer that was not written to is read once, on
    # its first step, and gives the same results at every step.
    frozen = read_only(layer) if poison is None else layer
    for step in (layer, frozen, frozen):
        got = layer_certificates(step, inputs)
        assert [c.contributing for c in got] == [c.contributing for c in want]
        assert [bits(c.firing_time.time) for c in got] == [bits(c.firing_time.time) for c in want]
        assert spike_bits(layer_forward(step, inputs)) == [bits(c.firing_time.time) for c in want]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_trace_and_realize_equal_per_neuron_reference(data):
    input_dim = data.draw(st.integers(1, 4))
    aux = tuple(data.draw(st.lists(st.floats(-1.0, 1.0), max_size=2)))
    fan_in = input_dim + len(aux)
    net_layers = []
    for _ in range(data.draw(st.integers(1, 3))):
        net_layers.append(data.draw(layers(fan_in)))
        fan_in = net_layers[-1].fan_out
    net = SpikingNetwork(input_dim, tuple(net_layers), aux_input_times=aux)
    frozen = SpikingNetwork(input_dim, tuple(map(read_only, net_layers)), aux_input_times=aux)
    inputs = spikes(data.draw(st.lists(TIMES, min_size=input_dim, max_size=input_dim)))
    enc = EncodingSpec(0.0, 1.0, Box.cube(-3.0, 3.0, input_dim))
    x = data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-3.0, 3.0)),
        min_size=input_dim, max_size=input_dim,
    ))
    want_trace = [spike_bits(v) for v in ref_trace(net, inputs)]
    want = ref_realize(net, enc, x)
    # The read-only copy runs twice: its tables are read on the first pass.
    for n in (net, frozen, frozen):
        assert [spike_bits(v) for v in network_trace(n, inputs)] == want_trace
        kind, got = outcome(realize, n, enc, x)
        if want == "never":
            assert (kind, got) == ("raised", RealizationUndefinedError)
        else:
            assert kind == "ok"
            assert [bits(v) for v in got.tolist()] == [bits(v) for v in want]


def test_wide_compiled_trace_equals_batch_kernel():
    # Fan-in 129 (128 inputs and the auxiliary): every compiled layer has
    # zero delays, so the scalar step sorts each layer's inputs once.
    rng = np.random.default_rng(128)
    width, scale = 128, 128 ** -0.5
    ann = ReluNetwork(tuple(
        (rng.normal(0.0, scale, (rows, width)), rng.normal(0.0, scale, rows))
        for rows in (width, width, 1)
    ))
    typed, _ = compile_ann(ann, Box.cube(-1.0, 1.0, width))
    net, enc = typed.net, typed.enc
    assert max(layer.fan_in for layer in net.layers) >= 129
    xs = rng.uniform(-1.0, 1.0, (5, width))
    batch = np.hstack([enc.t_in_ref + xs,
                       np.broadcast_to(net.aux_input_times, (len(xs), net.n_aux))])
    want = [batch]
    for layer in net.layers:
        want.append(layer_forward_batch(layer, want[-1]))
    for r, x in enumerate(xs):
        trace = network_trace(net, tuple(finite(enc.t_in_ref + v) for v in x))
        for spikes_, times in zip(trace[1:], want[1:]):
            got = np.array([np.nan if ft.time is None else ft.time for ft in spikes_])
            assert got.tobytes() == times[r].tobytes()


# ---------------------------------------------------------------------------
# Read-only layers: their tables are read once
# ---------------------------------------------------------------------------


def seeded_w4d4():
    """A compiled width-4, depth-4 network (every layer read-only) and 200
    points of its domain."""
    rng = np.random.default_rng(4)
    ann = ReluNetwork(tuple(
        (rng.normal(0.0, 1.0, (rows, 4)), rng.normal(0.0, 1.0, rows)) for rows in (4, 4, 4, 1)
    ))
    typed, _ = compile_ann(ann, Box.cube(-1.0, 1.0, 4))
    return typed, rng.uniform(-1.0, 1.0, (200, 4))


def test_scalar_outputs_of_a_compiled_network_are_pinned():
    # realize, network_trace and every layer's certificates, bit for bit.
    typed, xs = seeded_w4d4()
    net, enc = typed.net, typed.enc
    h = hashlib.sha256()
    for x in xs:
        h.update(realize(net, enc, x).tobytes())
        trace = network_trace(net, tuple(finite(enc.t_in_ref + v) for v in x))
        for layer, inputs in zip(net.layers, trace):
            h.update(b"".join(bits(ft.time) or b"N" for ft in inputs))
            for c in layer_certificates(layer, inputs):
                h.update(repr(sorted(c.contributing)).encode())
                h.update(bits(c.firing_time.time) or b"N")
        h.update(b"".join(bits(ft.time) or b"N" for ft in trace[-1]))
    assert h.hexdigest() == "e104f7e24bb671a6b68a72674419cada7ffabe3d294d629bac06e32f5053c79d"


def test_read_only_layers_are_read_once(monkeypatch):
    reads = []
    read = snn_core._read_layer
    monkeypatch.setattr(snn_core, "_read_layer",
                        lambda layer, rows: reads.append(layer) or read(layer, rows))
    typed, xs = seeded_w4d4()
    net, enc = typed.net, typed.enc
    for x in xs[:5]:
        realize(net, enc, x)
        network_trace(net, tuple(finite(enc.t_in_ref + v) for v in x))
    assert len(reads) == net.depth
    assert {id(layer) for layer in reads} == {id(layer) for layer in net.layers}
    # One writeable array is enough for a layer to be read at every step.
    first = net.layers[0]
    thawed = Layer(first.weights, first.delays, first.thresholds.copy())
    inputs = tuple(map(finite, [enc.t_in_ref + v for v in xs[0]] + list(net.aux_input_times)))
    reads.clear()
    for _ in range(3):
        assert layer_forward(thawed, inputs) == layer_forward(first, inputs)
    assert len(reads) == 3 and all(layer is thawed for layer in reads)


def test_a_writeable_layer_is_read_at_every_step():
    layer = Layer(np.array([[1.0], [1.0]]), np.zeros((2, 1)), np.array([1.0]))
    inputs = (finite(0.0), finite(0.5))
    assert layer_forward(layer, inputs) == (finite(0.75),)
    layer.weights[1, 0] = 3.0
    layer.delays[0, 0] = 0.25
    layer.thresholds[0] = 2.0
    want = resolve_firing_time([(0.25, 1.0), (0.5, 3.0)], 2.0).firing_time
    assert layer_forward(layer, inputs) == (want,) == (finite(0.9375),)


def test_the_batch_path_reads_no_tables(monkeypatch):
    # The tables of a width-64 layer hold about 4,000 Python floats; a
    # compile and a batch run keep none of them.
    def refuse(layer, rows):
        raise AssertionError("the batch path read a layer's tables")

    monkeypatch.setattr(snn_core, "_read_layer", refuse)
    rng = np.random.default_rng(64)
    width, scale = 64, 64 ** -0.5
    ann = ReluNetwork(tuple(
        (rng.normal(0.0, scale, (rows, width)), rng.normal(0.0, scale, rows))
        for rows in (width, width, 1)
    ))
    typed, _ = compile_ann(ann, Box.cube(-1.0, 1.0, width))
    realize_batch(typed.net, typed.enc, rng.uniform(-1.0, 1.0, (16, width)))
    assert not any("_tables" in vars(layer) for layer in typed.net.layers)


# ---------------------------------------------------------------------------
# The oracle's step bound
# ---------------------------------------------------------------------------


def test_oracle_refuses_more_steps_than_its_bound():
    # 2e12 steps to the horizon: refused before the first step.
    with pytest.raises(InvalidParameterError, match="ORACLE_MAX_STEPS"):
        oracle_firing_time([(0.0, 1.0)], 1.0, 1e-12)
    # A horizon that is not finite, and a dt that makes the count overflow.
    with pytest.raises(InvalidParameterError, match="ORACLE_MAX_STEPS"):
        oracle_firing_time([(0.0, 5e-324)], 1.0, 1.0)
    with pytest.raises(InvalidParameterError, match="ORACLE_MAX_STEPS"):
        oracle_firing_time([(0.0, 1.0)], 1.0, 5e-324)
    # The horizon is 1 + 1e-6 past the arrival: one step under the bound
    # runs (and crosses at once), one step over it is refused.
    horizon = 1.0 + 1e-6
    assert oracle_firing_time([(0.0, 1.0)], 1e-6, horizon / (ORACLE_MAX_STEPS - 2)).fires
    with pytest.raises(InvalidParameterError, match="ORACLE_MAX_STEPS"):
        oracle_firing_time([(0.0, 1.0)], 1e-6, horizon / ORACLE_MAX_STEPS)
    # Without a possible crossing there is nothing to step.
    assert oracle_firing_time([(0.0, -1.0)], 1.0, 1e-12) is NEVER
