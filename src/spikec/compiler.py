"""Lowering ReLU networks to spiking networks that realize the same function.

The construction is gadget-based.  An affine map and a scalar ReLU each have
a small hand-parameterized spiking network realizing them exactly under
temporal coding; a neuron gadget chains the two.  A layer gadget is what
running one neuron gadget per output row side by side and merging their
duplicated constant-firing auxiliary neurons gives, written down directly:
an affine layer and two ReLU layers whose weights depend only on the width.
The full compiler concatenates one layer gadget per ANN layer, with a bare
affine gadget for the final (activation-free) layer.

Thresholds are sized from conservative symmetric range bounds so that inside
the declared domain every gadget neuron is guaranteed to fire, and in the
affine gadget every input spike arrives before the output fires.  That makes
the firing times affine in the inputs and the emulation exact, not
approximate.

All gadget delays are zero: delays only shift reference times and zero keeps
the time bookkeeping minimal.  Compiled layers hold read-only weights and one
zero-stride view for their delays, so the ReLU weight pair of a given width
is built once and shared by every stage and every compile.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ann_core import ReluNetwork, layer_range_bound
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
    zeros2 = np.zeros((2, 2))
    l1 = Layer(np.array([[-0.5, 0.0], [1.0, 1.0]]), zeros2, np.array([theta, theta]))
    l2 = Layer(np.array([[-0.5], [1.0]]), np.zeros((2, 1)), np.array([theta]))
    net = SpikingNetwork(1, (l1, l2), aux_input_times=(t_in_ref,))
    enc = EncodingSpec(t_in_ref, t_in_ref + 2.0 * theta, Box([a], [b]))
    return TypedSNN(net, enc)


def _zero_delay_layer(weights: np.ndarray, thresholds: np.ndarray) -> Layer:
    """A gadget layer with read-only weights and one zero-stride zero delay.

    Every gadget delay is zero, so the delays take no memory, and read-only
    weights may be shared between layers and networks.
    """
    weights.setflags(write=False)
    return Layer(weights, np.broadcast_to(0.0, weights.shape), thresholds)


def _affine_layer_gadget(
    A: np.ndarray,
    B: np.ndarray,
    domain: Box,
    t_in_ref: float,
    ca: float | None = None,
    sb: float | None = None,
    aux_output: bool = False,
    margin: float | None = None,
) -> TypedSNN:
    """One-layer gadget realizing x -> Ax + B on the domain.

    Inputs are the d payload neurons plus one auxiliary neuron firing at
    t_in_ref.  Output row j has payload weights A[j] and auxiliary weight
    1 - sum(A[j]), so the weights sum to one and the firing time is affine
    with gradient A[j].  The threshold

        theta_j = (1 + d*ca) * M + B[j] + sb + margin,

    with M the largest absolute domain coordinate, ca an upper bound on the
    absolute weights and sb on the absolute biases, is large enough that the
    output fires only after every input spike has arrived.  All rows share
    the output reference time t_in_ref + (1 + d*ca)*M + sb + margin, which
    is what lets sibling gadgets be run in parallel.

    The worst-case gap between the firing time and the latest arrival is
    min_j (B[j] + sb) + margin.  When the first term is zero (some bias
    equals -sb) the gadget would fire exactly at an input arrival on a
    domain corner, where rounding could flip the neuron to never firing, so
    margin defaults to 1 in that case and 0 otherwise.  A caller sizing
    several sibling gadgets uniformly must pass the same margin to each.

    With aux_output set, an extra output neuron fed only by the auxiliary
    input fires at exactly the output reference time, re-exporting the
    timing signal for a downstream gadget.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_1d(np.asarray(B, dtype=float))
    m, d = A.shape
    if B.shape != (m,):
        raise DimensionError("bias length must match matrix rows")
    if domain.dim != d:
        raise DimensionError("domain dimension must match matrix columns")
    if ca is None:
        ca = float(np.max(np.abs(A), initial=0.0))
    if sb is None:
        sb = float(np.max(np.abs(B), initial=0.0))
    M = domain.max_abs
    if not M > 0:
        raise InvalidParameterError("domain must have a positive coordinate bound")
    if margin is None:
        margin = 1.0 if float(np.min(B + sb)) <= 1e-9 * max(1.0, sb) else 0.0
    thetas = (1.0 + d * ca) * M + B + sb + margin
    t_out_ref = t_in_ref + (1.0 + d * ca) * M + sb + margin

    w = np.vstack([A.T, 1.0 - A.sum(axis=1)])
    th = thetas
    if aux_output:
        w = np.hstack([w, np.zeros((d + 1, 1))])
        w[d, m] = 1.0
        th = np.concatenate([thetas, [t_out_ref - t_in_ref]])
    net = SpikingNetwork(d, (_zero_delay_layer(w, th),), aux_input_times=(t_in_ref,))
    return TypedSNN(net, EncodingSpec(t_in_ref, t_out_ref, domain))


def build_affine_gadget(
    C,
    s: float,
    domain: Box,
    t_in_ref: float,
    ca: float | None = None,
    sb: float | None = None,
    aux_output: bool = False,
    margin: float | None = None,
) -> TypedSNN:
    """Single-output affine gadget realizing x -> C.x + s; see the layer form."""
    C = np.atleast_1d(np.asarray(C, dtype=float))
    return _affine_layer_gadget(
        C[None, :], np.array([float(s)]), domain, t_in_ref, ca, sb, aux_output, margin
    )


def _relu_stage_bound(d: int, ca: float, sb: float, M: float) -> float:
    """Symmetric bound on |C.x + s| feeding a ReLU stage, floored at 1."""
    return max(d * ca * M + sb, 1.0)


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
    gadget.  Has d + 6 neurons: d + 1 inputs, two affine-stage outputs, two
    ReLU hidden neurons and one output.
    """
    C = np.atleast_1d(np.asarray(C, dtype=float))
    if ca is None:
        ca = float(np.max(np.abs(C), initial=0.0))
    if sb is None:
        sb = abs(float(s))
    aff = build_affine_gadget(
        C, s, domain, t_in_ref, ca, sb, aux_output=True, margin=margin
    )
    bp = _relu_stage_bound(C.size, ca, sb, domain.max_abs)
    relu = build_relu_gadget((-bp, bp), aff.enc.t_out_ref)
    return concatenate(relu, aff, check_range=False)


@lru_cache(maxsize=8)
def _relu_stage_weights(m: int, aux_output: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read-only weights of the two ReLU layers of an m-output layer gadget.

    Payload j enters at position P[j] = [0, 2, ..., m] and the timing neuron
    at 1.  In both layers payload P[j] feeds output j's slot (P[j] in the
    hidden layer, j in the output layer) with weight -1/2, and the timing or
    constant neuron at 1 feeds every neuron with weight 1, the constant
    hidden neuron and the optional re-export included.  The pair depends only
    on (m, aux_output), so every stage and compile of that width shares it.
    """
    p = np.r_[0, 2 : m + 1]
    hidden = np.zeros((m + 1, m + 1))
    out = np.zeros((m + 1, m + int(aux_output)))
    hidden[p, p] = out[p, np.arange(m)] = -0.5
    hidden[1] = out[1] = 1.0
    hidden.setflags(write=False)
    out.setflags(write=False)
    return hidden, out


def build_layer_gadget(
    A: np.ndarray,
    B: np.ndarray,
    domain: Box,
    t_in_ref: float,
    aux_output: bool = False,
) -> TypedSNN:
    """Depth-3 gadget realizing x -> max(0, Ax + B) componentwise.

    Written in closed form, it equals running one neuron gadget per output
    row (all sized with the shared weight and bias bounds, so they agree on
    reference times) side by side and merging their duplicated
    constant-firing neurons.  Layer 1 is the affine layer gadget with its
    timing re-export moved to position 1.  Layers 2 and 3 are the ReLU
    gadget's 2x2 and 2x1 blocks over the payload positions [0, 2, ..., m],
    all sharing the one timing neuron at position 1 and a single constant
    hidden neuron; every ReLU threshold is bp + 1, with bp the stage's range
    bound.  For a square d x d layer the result has 4d + 3 neurons.

    With aux_output set, one extra output neuron re-exports the timing
    signal at the gadget's output reference time.
    """
    # C order makes the affine stage sum each row on its own, as a
    # single-row gadget does, so the weights agree to the last bit.
    A = np.atleast_2d(np.ascontiguousarray(A, dtype=float))
    B = np.atleast_1d(np.asarray(B, dtype=float))
    m, d = A.shape
    if m == 0:
        raise DimensionError("a layer gadget needs at least one output row")
    ca = float(np.max(np.abs(A), initial=0.0))
    sb = float(np.max(np.abs(B), initial=0.0))
    aff = _affine_layer_gadget(A, B, domain, t_in_ref, ca, sb, aux_output=True)
    first = aff.net.layers[0]
    perm = np.r_[0, m, 1:m]
    theta = _relu_stage_bound(d, ca, sb, domain.max_abs) + 1.0
    hidden, out = _relu_stage_weights(m, aux_output)
    layers = (
        _zero_delay_layer(first.weights[:, perm], first.thresholds[perm]),
        _zero_delay_layer(hidden, np.full(m + 1, theta)),
        _zero_delay_layer(out, np.full(out.shape[1], theta)),
    )
    net = SpikingNetwork(d, layers, aux_input_times=(t_in_ref,))
    enc = EncodingSpec(t_in_ref, aff.enc.t_out_ref + 2.0 * theta, domain)
    return TypedSNN(net, enc)


def compile_ann(ann: ReluNetwork, domain: Box) -> tuple[TypedSNN, CompileReport]:
    """Compile a ReLU network into a spiking network with equal realization.

    Each hidden ANN layer becomes a depth-3 layer gadget carrying a timing
    re-export for the next stage; the final affine layer becomes a bare
    one-layer affine gadget.  Stage domains are chained through the
    conservative range bounds, lower-clipped at 0 after each ReLU.  The
    report records actual versus predicted sizes; the prediction applies to
    fixed-width single-output sources.
    """
    if domain.dim != ann.input_dim:
        raise DimensionError("domain dimension must match the network input")
    t = 0.0
    cur_domain = domain
    composed: TypedSNN | None = None
    refs: list[tuple[float, float]] = []
    domains: list[Box] = [domain]
    for A, B in ann.layers[:-1]:
        g = build_layer_gadget(A, B, cur_domain, t, aux_output=True)
        composed = g if composed is None else concatenate(g, composed, check_range=False)
        refs.append((t, g.enc.t_out_ref))
        t = g.enc.t_out_ref
        r = layer_range_bound(A, B, cur_domain)
        hi = r.hi if np.max(r.hi) > 0 else np.ones_like(r.hi)
        cur_domain = Box(np.zeros_like(hi), hi)
        domains.append(cur_domain)
    A, B = ann.layers[-1]
    f = _affine_layer_gadget(A, B, cur_domain, t)
    composed = f if composed is None else concatenate(f, composed, check_range=False)
    refs.append((t, f.enc.t_out_ref))

    d = ann.fixed_width
    if d is not None:
        L = ann.depth
        predicted_n = ann.num_neurons + L * (2 * d + 3) - (2 * d + 2)
        predicted_l = 3 * L - 2
    else:
        predicted_n = predicted_l = None
    report = CompileReport(
        neuron_count=composed.net.num_neurons,
        layer_count=composed.net.depth,
        predicted_neurons=predicted_n,
        predicted_layers=predicted_l,
        per_stage_refs=tuple(refs),
        per_layer_domains=tuple(domains),
    )
    return composed, report


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
    net = SpikingNetwork(1, (layer,), aux_input_times=(t_in_ref,))
    enc = EncodingSpec(t_in_ref, t_in_ref + theta, Box([a], [b]))
    return TypedSNN(net, enc)


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
