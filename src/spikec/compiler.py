"""Lowering ReLU networks to spiking networks that realize the same function.

The construction is gadget-based.  An affine map and a scalar ReLU each have
a small hand-parameterized spiking network realizing them exactly under
temporal coding; a neuron gadget chains the two.  A layer gadget is one
neuron gadget per output row run side by side with their duplicated
constant-firing neurons merged, written down directly: an affine layer and
two ReLU layers whose weights depend only on the width.  The full compiler
makes one pass over the ANN's layers, appending a layer gadget's layers per
hidden layer and a bare affine layer for the final one, and builds one
network at the end.

``_size_stage`` sizes every stage from conservative symmetric range bounds,
so that inside the declared domain every gadget neuron fires, and every
affine-stage neuron only after all of its inputs.  That makes the firing
times affine in the inputs and the emulation exact, not approximate.  Its
record gives the next stage's domain, and ``_stage_layers`` its layers.

All gadget delays are zero: delays only shift reference times and zero keeps
the time bookkeeping minimal.  Gadget layers hold read-only weights and one
zero-stride view for their delays, so the ReLU weight pair of a given width
is shared by every stage and every compile while some network still holds
it, and freed with the last one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple
from weakref import WeakValueDictionary

import numpy as np

from .ann_core import ReluNetwork, _range_radius
from .boxes import Box
from .calculus import TypedSNN, concatenate
# Uncalled here, but bench/tracing.py patches these names on this module.
from .calculus import merge_neurons, parallelize  # noqa: F401
from .errors import DimensionError, InvalidParameterError
from .snn_core import EncodingSpec, Layer, SpikingNetwork


@dataclass(frozen=True)
class CompileReport:
    """Size accounting for a compiled network.

    ``predicted_neurons`` and ``predicted_layers`` come from the closed-form
    size of the construction for a fixed-width, single-output source network
    with L layers and width d:

        neurons = N_source + L(2d+3) - (2d+2),    layers = 3L - 2.

    They are None when the source has varying widths or multiple outputs.
    """

    neuron_count: int
    layer_count: int
    predicted_neurons: int | None
    predicted_layers: int | None
    per_stage_refs: tuple[tuple[float, float], ...]
    per_layer_domains: tuple[Box, ...]


def build_relu_gadget(domain: tuple[float, float], t_in_ref: float) -> TypedSNN:
    """Two-layer gadget realizing max(0, x) on [a, b] with a < 0 < b.

    One payload input plus one auxiliary input firing at t_in_ref.  The
    hidden layer computes a negated copy of x and a constant timing spike;
    the output neuron either fires off the constant spike alone (x <= 0) or
    is additionally delayed by the negated copy (x > 0).  Threshold is b+1
    (any value above b works); output reference time is t_in_ref + 2(b+1).
    """
    a, b = float(domain[0]), float(domain[1])
    if not a < 0 < b:
        raise InvalidParameterError("ReLU gadget domain must satisfy a < 0 < b")
    theta = b + 1.0
    l1 = _zero_delay_layer(np.array([[-0.5, 0.0], [1.0, 1.0]]), np.full(2, theta))
    l2 = _zero_delay_layer(np.array([[-0.5], [1.0]]), np.full(1, theta))
    return _gadget(Box([a], [b]), t_in_ref, (l1, l2), t_in_ref + 2.0 * theta)


def _zero_delay_layer(weights: np.ndarray, thresholds: np.ndarray) -> Layer:
    """A gadget layer with read-only weights and one zero-stride zero delay.

    Every gadget delay is zero, so the delays take no memory, and read-only
    weights may be shared between layers and networks.
    """
    weights.setflags(write=False)
    return Layer(weights, np.broadcast_to(0.0, weights.shape), thresholds)


class _Stage(NamedTuple):
    """An affine stage x -> Ax + B, checked against its domain and sized."""

    A: np.ndarray  # C-contiguous, one row per output
    M: float  # the domain's largest absolute coordinate
    row_max: np.ndarray  # max_k |A[j, k]| per row j: the range bound's m_j
    t_in_ref: float
    thetas: np.ndarray  # affine thresholds, one per row
    t_out_ref: float  # affine output reference time
    bp: float  # bound on |Ax + B|: a ReLU stage's domain is [-bp, bp]


def _size_stage(C, s, domain: Box, t_in_ref: float, ca=None, sb=None, margin=None) -> _Stage:
    """Check x -> C.x + s against the domain and size its thresholds.

    Every gadget stage is sized here.  C is a vector with a scalar s, or a
    matrix with one row per output and a vector s.  With d inputs and M the
    domain's largest absolute coordinate, row j's threshold

        theta_j = (1 + d*ca) * M + s[j] + sb + margin

    fires it only after every input spike has arrived, and all rows share
    the output reference time t_in_ref + (1 + d*ca)*M + sb + margin.  ca and
    sb bound |C| and |s|, max|C| and max|s| by default.  The least gap between
    firing and the latest arrival is min_j (s[j] + sb) + margin; where its
    first term is zero, rounding could flip a neuron firing on a domain
    corner to never firing, so margin defaults to 1 there and 0 otherwise.
    Smaller ca or sb, or a negative or non-finite override, is refused.
    """
    A = np.atleast_2d(np.ascontiguousarray(C, dtype=float))
    B = np.atleast_1d(np.asarray(s, dtype=float))
    m, d = A.shape
    if m == 0:
        raise DimensionError("an affine gadget needs at least one output row")
    if B.shape != (m,):
        raise DimensionError("bias length must match matrix rows")
    if domain.dim != d:
        raise DimensionError("domain dimension must match matrix columns")
    M = domain.max_abs
    if not M > 0:
        raise InvalidParameterError("domain must have a positive coordinate bound")
    row_max = np.max(np.abs(A), axis=1, initial=0.0)
    ca_max, sb_max = float(np.max(row_max)), float(np.max(np.abs(B)))
    for name, value, least in (("ca", ca, ca_max), ("sb", sb, sb_max), ("margin", margin, 0.0)):
        if value is not None and not least <= value < np.inf:
            raise InvalidParameterError(f"{name} must be finite and at least {least}")
    ca = ca_max if ca is None else ca
    sb = sb_max if sb is None else sb
    if margin is None:
        margin = 1.0 if float(np.min(B + sb)) <= 1e-9 * max(1.0, sb) else 0.0
    thetas = (1.0 + d * ca) * M + B + sb + margin
    t_out_ref = t_in_ref + (1.0 + d * ca) * M + sb + margin
    return _Stage(A, M, row_max, t_in_ref, thetas, t_out_ref, max(d * ca * M + sb, 1.0))


def _stage_layers(st: _Stage, relu: bool, aux_output: bool) -> tuple[tuple[Layer, ...], float]:
    """A stage's layers and output reference time: the affine layer, giving
    row j the weights A[j] and 1 - sum(A[j]) summed in C order (so its bits
    depend neither on A's layout nor on the other rows), written row by row
    into a transient and copied once; then, with relu, the ReLU gadget's two
    layers on [-bp, bp].  Position 1 re-exports the timing signal after a
    ReLU stage's affine layer and, with aux_output, after the stage."""
    (m, d), aux = st.A.shape, int(relu or aux_output)
    w, th = np.empty((m + aux, d + 1)), np.empty(m + aux)
    w[aux:, :d], w[aux:, d], th[aux:] = st.A, 1.0 - st.A.sum(axis=1), st.thetas
    if aux:  # row 0 goes ahead of the timing re-export
        w[0], th[0] = w[1], th[1]
        w[1, :d], w[1, d], th[1] = 0.0, 1.0, st.t_out_ref - st.t_in_ref
    layers = (_zero_delay_layer(w.T.copy(), th),)
    if not relu:
        return layers, st.t_out_ref
    theta = st.bp + 1.0
    hidden, out = _relu_stage_weights(m, aux_output)
    return layers + (
        _zero_delay_layer(hidden, np.full(m + 1, theta)),
        _zero_delay_layer(out, np.full(out.shape[1], theta)),
    ), st.t_out_ref + 2.0 * theta


def _gadget(domain: Box, t_in_ref: float, layers: tuple, t_out_ref: float) -> TypedSNN:
    """Layers over the domain's inputs and one auxiliary input at t_in_ref."""
    net = SpikingNetwork(domain.dim, layers, aux_input_times=(t_in_ref,))
    return TypedSNN(net, EncodingSpec(t_in_ref, t_out_ref, domain))


def build_affine_gadget(
    C,
    s,
    domain: Box,
    t_in_ref: float,
    ca: float | None = None,
    sb: float | None = None,
    aux_output: bool = False,
    margin: float | None = None,
) -> TypedSNN:
    """One-layer gadget realizing x -> C.x + s on the domain.

    C is a vector with a scalar s, or a matrix with one row per output and
    a vector s.  Inputs are the d payload neurons plus one auxiliary neuron
    firing at t_in_ref.  Output row j has payload weights C[j] and auxiliary
    weight 1 - sum(C[j]); the weights sum to one, so its firing time is
    affine with gradient C[j].  :func:`_size_stage` checks the shapes and the
    ca, sb and margin overrides and sizes the thresholds.  With aux_output set, output
    1 re-exports the timing signal at the output reference time for a
    downstream gadget; a layer gadget's ReLU stage reads it there.
    """
    st = _size_stage(C, s, domain, t_in_ref, ca, sb, margin)
    return _gadget(domain, t_in_ref, *_stage_layers(st, False, aux_output))


def build_neuron_gadget(
    C,
    s: float,
    domain: Box,
    t_in_ref: float,
    ca: float | None = None,
    sb: float | None = None,
    margin: float | None = None,
) -> TypedSNN:
    """Three-layer gadget realizing x -> max(0, C.x + s) on the domain.

    Chains the affine gadget (with its timing re-export) into the ReLU
    gadget on [-bp, bp], both sized by :func:`_size_stage`.  Has d + 6
    neurons: d + 1 inputs, two affine-stage outputs, two ReLU hidden neurons
    and one output.
    """
    st = _size_stage(C, s, domain, t_in_ref, ca, sb, margin)
    if len(st.A) != 1:
        raise DimensionError("a neuron gadget takes one weight row")
    aff = _gadget(domain, t_in_ref, *_stage_layers(st, False, True))
    return concatenate(build_relu_gadget((-st.bp, st.bp), st.t_out_ref), aff, check_range=False)


#: (m, aux_output, layer index) -> ReLU stage weights, kept while a network holds them.
_RELU_WEIGHTS: WeakValueDictionary = WeakValueDictionary()


def _relu_stage_weights(m: int, aux_output: bool) -> tuple[np.ndarray, np.ndarray]:
    """Weights of the two ReLU layers of an m-output layer gadget.

    Payload j enters at position P[j] = [0, 2, ..., m] and the timing neuron
    at 1.  In both layers payload P[j] feeds output j's slot (P[j] in the
    hidden layer, j in the output layer) with weight -1/2, and the timing or
    constant neuron at 1 feeds every neuron with weight 1, the constant
    hidden neuron and the optional re-export included.  The pair depends only
    on (m, aux_output), so every stage and compile of that width shares it
    for as long as some network still holds it.
    """
    hidden, out = (_RELU_WEIGHTS.get((m, aux_output, i)) for i in (0, 1))
    if hidden is None or out is None:
        p = np.r_[0, 2 : m + 1]
        hidden = np.zeros((m + 1, m + 1))
        out = np.zeros((m + 1, m + int(aux_output)))
        hidden[p, p] = out[p, np.arange(m)] = -0.5
        hidden[1] = out[1] = 1.0
        _RELU_WEIGHTS[m, aux_output, 0], _RELU_WEIGHTS[m, aux_output, 1] = hidden, out
    return hidden, out


def build_layer_gadget(
    A: np.ndarray,
    B: np.ndarray,
    domain: Box,
    t_in_ref: float,
    aux_output: bool = False,
) -> TypedSNN:
    """Depth-3 gadget realizing x -> max(0, Ax + B) componentwise.

    It equals one neuron gadget per output row, all sized alike by
    :func:`_size_stage`, run side by side with their duplicated
    constant-firing neurons merged.  Layer 1 is the affine layer with its
    timing re-export at position 1; layers 2 and 3 are the ReLU gadget's
    blocks on [-bp, bp] over the payload positions [0, 2, ..., m], sharing
    that timing neuron and one constant hidden neuron.  A square d x d layer
    gives 4d + 3 neurons.  With aux_output set, one extra output re-exports
    the timing signal at the output reference time.
    """
    st = _size_stage(A, B, domain, t_in_ref)
    return _gadget(domain, t_in_ref, *_stage_layers(st, True, aux_output))


def compile_ann(ann: ReluNetwork, domain: Box) -> tuple[TypedSNN, CompileReport]:
    """Compile a ReLU network into a spiking network with equal realization.

    Each hidden ANN layer becomes a depth-3 layer gadget carrying a timing
    re-export for the next stage; the final affine layer becomes a bare
    one-layer affine gadget.  Each stage starts at the reference time the
    previous one ends at, so their layers chain as they are into one
    network.  Stage domains are chained through the conservative range
    bounds, lower-clipped at 0 after each ReLU.  The report records actual
    versus predicted sizes; the prediction applies to fixed-width
    single-output sources.
    """
    if domain.dim != ann.input_dim:
        raise DimensionError("domain dimension must match the network input")
    t = 0.0
    layers: list[Layer] = []
    refs: list[tuple[float, float]] = []
    domains: list[Box] = [domain]
    for i, (A, B) in enumerate(ann.layers, start=1):
        st = _size_stage(A, B, domains[-1], t)
        stage, t_out = _stage_layers(st, i < ann.depth, i < ann.depth)
        layers.extend(stage)
        refs.append((t, t_out))
        if i < ann.depth:  # layer_range_bound's upper end, ones where it is all 0
            hi = _range_radius(st.row_max, B, st.A.shape[1], st.M)
            domains.append(Box(np.zeros_like(hi), hi if np.max(hi) > 0 else np.ones_like(hi)))
        t = t_out
    snn = _gadget(domain, 0.0, tuple(layers), t)

    d = ann.fixed_width
    if d is not None:
        L = ann.depth
        predicted_n = ann.num_neurons + L * (2 * d + 3) - (2 * d + 2)
        predicted_l = 3 * L - 2
    else:
        predicted_n = predicted_l = None
    report = CompileReport(
        neuron_count=snn.net.num_neurons,
        layer_count=snn.net.depth,
        predicted_neurons=predicted_n,
        predicted_layers=predicted_l,
        per_stage_refs=tuple(refs),
        per_layer_domains=tuple(domains),
    )
    return snn, report


def build_example_3_1(
    theta: float, domain: tuple[float, float], t_in_ref: float = 0.0
) -> TypedSNN:
    """One-layer, 3-neuron network realizing a two-kink piecewise-linear map.

    With threshold theta > 0, payload and auxiliary weights both 1 and zero
    delays, the realized function is x for x <= -theta, (x - theta)/2 for
    |x| < theta, and 0 for x >= theta.  The same function needs two layers
    and four units as a ReLU network (see :func:`build_example_3_1_ann`).
    """
    if not theta > 0:
        raise InvalidParameterError("theta must be positive")
    a, b = float(domain[0]), float(domain[1])
    layer = Layer(np.ones((2, 1)), np.zeros((2, 1)), np.array([theta]))
    return _gadget(Box([a], [b]), t_in_ref, (layer,), t_in_ref + theta)


def build_example_3_1_ann(theta: float) -> ReluNetwork:
    """Smallest ReLU network computing the same two-kink map.

    Computes -max(0, -x - theta)/2 - max(0, -x + theta)/2, which matches the
    spiking gadget of :func:`build_example_3_1` everywhere.
    """
    if not theta > 0:
        raise InvalidParameterError("theta must be positive")
    return ReluNetwork(
        (
            (np.array([[-1.0], [-1.0]]), np.array([-theta, theta])),
            (np.array([[-0.5, -0.5]]), np.array([0.0])),
        )
    )
