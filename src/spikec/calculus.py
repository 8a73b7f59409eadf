"""Composition algebra for encoded spiking networks.

A TypedSNN couples a network with its temporal-coding convention.  Two
constructors build larger networks from smaller ones:

* concatenate feeds one network's output spikes into another's inputs, which
  is function composition at the realization level, and
* parallelize runs two networks side by side on shared inputs, stacking
  their outputs.

Both keep the reference-time bookkeeping straight and preserve realizations
exactly, because appending layers, or padding weight matrices with zeros,
does not perturb any firing time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, IncompatibleNetworksError, InvalidParameterError
from .snn_core import EncodingSpec, Layer, SpikingNetwork, realize, realize_batch

REF_TOL = 1e-9
RANGE_CHECK_SAMPLES = 200
RANGE_CHECK_SEED = 0


@dataclass(frozen=True)
class TypedSNN:
    """A spiking network together with its encoding convention."""

    net: SpikingNetwork
    enc: EncodingSpec

    def __post_init__(self) -> None:
        if self.enc.domain.dim != self.net.input_dim:
            raise DimensionError("encoding domain dimension must match input_dim")

    def realize(self, x) -> np.ndarray:
        return realize(self.net, self.enc, x)

    def realize_batch(self, xs: np.ndarray) -> np.ndarray:
        return realize_batch(self.net, self.enc, xs)


def concatenate(outer: TypedSNN, inner: TypedSNN, check_range: bool = True) -> TypedSNN:
    """Compose two networks: result realizes outer after inner.

    The inner network's output spikes become the outer network's input
    spikes, so the reference times must meet: inner.t_out_ref must equal
    outer.t_in_ref.  If the outer network has auxiliary inputs, the inner
    network must supply them too: its trailing outer.n_aux outputs must fire
    at exactly the outer auxiliary times for every input, and the remaining
    outputs feed the outer payload inputs in order.

    With check_range set, the inner realization is sampled at
    RANGE_CHECK_SAMPLES seeded points of its domain and required to land
    inside the outer domain (and the trailing outputs at the outer auxiliary
    times).  The sampled check is a heuristic stand-in for exact range
    containment, which would itself require region enumeration; callers
    with a prior guarantee can skip it.
    """
    k = outer.net.n_aux
    if inner.net.output_dim != outer.net.input_dim + k:
        raise IncompatibleNetworksError(
            f"inner produces {inner.net.output_dim} outputs, outer consumes "
            f"{outer.net.input_dim} payload inputs plus {k} auxiliary inputs"
        )
    if abs(inner.enc.t_out_ref - outer.enc.t_in_ref) > REF_TOL:
        raise IncompatibleNetworksError(
            "reference-time mismatch: inner t_out_ref != outer t_in_ref"
        )
    if check_range:
        rng = np.random.default_rng(RANGE_CHECK_SEED)
        xs = inner.enc.domain.sample(rng, RANGE_CHECK_SAMPLES)
        ys = inner.realize_batch(xs)
        payload, aux = ys[:, : outer.net.input_dim], ys[:, outer.net.input_dim :]
        lo, hi = outer.enc.domain.lo, outer.enc.domain.hi
        if np.any(payload < lo - REF_TOL) or np.any(payload > hi + REF_TOL):
            raise IncompatibleNetworksError(
                "inner realization leaves the outer domain on sampled inputs"
            )
        want = np.asarray(outer.net.aux_input_times) - outer.enc.t_in_ref
        if k and np.max(np.abs(aux - want)) > REF_TOL:
            raise IncompatibleNetworksError(
                "inner auxiliary outputs do not fire at the outer auxiliary times"
            )
    net = SpikingNetwork(
        input_dim=inner.net.input_dim,
        layers=inner.net.layers + outer.net.layers,
        aux_input_times=inner.net.aux_input_times,
    )
    enc = EncodingSpec(inner.enc.t_in_ref, outer.enc.t_out_ref, inner.enc.domain)
    return TypedSNN(net, enc)


def _block_diag_layer(a: Layer, b: Layer) -> Layer:
    w = np.zeros((a.fan_in + b.fan_in, a.fan_out + b.fan_out))
    d = np.zeros_like(w)
    w[: a.fan_in, : a.fan_out] = a.weights
    d[: a.fan_in, : a.fan_out] = a.delays
    w[a.fan_in :, a.fan_out :] = b.weights
    d[a.fan_in :, a.fan_out :] = b.delays
    return Layer(w, d, np.concatenate([a.thresholds, b.thresholds]))


def parallelize(a: TypedSNN, b: TypedSNN) -> TypedSNN:
    """Run two networks on the same inputs; outputs are stacked (a then b).

    Requires matching depth, input dimension, auxiliary inputs, reference
    times and domains.  The first layers share their inputs and are stacked
    side by side; deeper layers become block-diagonal, with zero-weight
    (hence inert) synapses between the halves.
    """
    if a.net.depth != b.net.depth:
        raise IncompatibleNetworksError("parallelize requires equal depth")
    if a.net.input_dim != b.net.input_dim:
        raise IncompatibleNetworksError("parallelize requires equal input_dim")
    if a.net.n_aux != b.net.n_aux or any(
        abs(x - y) > REF_TOL
        for x, y in zip(a.net.aux_input_times, b.net.aux_input_times)
    ):
        raise IncompatibleNetworksError("parallelize requires equal auxiliary inputs")
    if (
        abs(a.enc.t_in_ref - b.enc.t_in_ref) > REF_TOL
        or abs(a.enc.t_out_ref - b.enc.t_out_ref) > REF_TOL
    ):
        raise IncompatibleNetworksError("parallelize requires equal reference times")
    if not (
        np.allclose(a.enc.domain.lo, b.enc.domain.lo, atol=REF_TOL)
        and np.allclose(a.enc.domain.hi, b.enc.domain.hi, atol=REF_TOL)
    ):
        raise IncompatibleNetworksError("parallelize requires equal domains")

    la, lb = a.net.layers, b.net.layers
    first = Layer(
        np.hstack([la[0].weights, lb[0].weights]),
        np.hstack([la[0].delays, lb[0].delays]),
        np.concatenate([la[0].thresholds, lb[0].thresholds]),
    )
    layers = (first,) + tuple(
        _block_diag_layer(x, y) for x, y in zip(la[1:], lb[1:])
    )
    net = SpikingNetwork(a.net.input_dim, layers, a.net.aux_input_times)
    return TypedSNN(net, a.enc)


def merge_neurons(net: SpikingNetwork, layer_idx: int, keep: int, drop: int) -> SpikingNetwork:
    """Merge two duplicate neurons in a hidden layer, preserving firing times.

    The two neurons must be exact duplicates: identical incoming weight and
    delay columns and identical thresholds, so they always fire at the same
    time.  Neuron ``drop`` is removed; its outgoing synapses are folded into
    ``keep`` by summing weights.  Where both neurons drive the same target
    with nonzero weight, the delays must agree so the merged synapse carries
    a well-defined arrival time.
    """
    if not 0 <= layer_idx < net.depth - 1:
        raise InvalidParameterError("can only merge neurons in a non-final layer")
    layer = net.layers[layer_idx]
    nxt = net.layers[layer_idx + 1]
    if keep == drop or not (0 <= keep < layer.fan_out and 0 <= drop < layer.fan_out):
        raise InvalidParameterError("keep/drop must be distinct valid neuron indices")
    same = (
        np.array_equal(layer.weights[:, keep], layer.weights[:, drop])
        and np.array_equal(layer.delays[:, keep], layer.delays[:, drop])
        and layer.thresholds[keep] == layer.thresholds[drop]
    )
    if not same:
        raise IncompatibleNetworksError("neurons are not duplicates; cannot merge")

    keep_cols = [j for j in range(layer.fan_out) if j != drop]
    new_layer = Layer(
        layer.weights[:, keep_cols],
        layer.delays[:, keep_cols],
        layer.thresholds[keep_cols],
    )

    w = nxt.weights.copy()
    d = nxt.delays.copy()
    both = (w[keep] != 0) & (w[drop] != 0)
    if np.any(both) and not np.array_equal(d[keep][both], d[drop][both]):
        raise IncompatibleNetworksError("conflicting delays on merged synapses")
    d[keep] = np.where(w[drop] != 0, d[drop], d[keep])
    w[keep] = w[keep] + w[drop]
    keep_rows = [i for i in range(nxt.fan_in) if i != drop]
    new_next = Layer(w[keep_rows], d[keep_rows], nxt.thresholds)

    layers = (
        net.layers[:layer_idx] + (new_layer, new_next) + net.layers[layer_idx + 2 :]
    )
    return SpikingNetwork(net.input_dim, layers, net.aux_input_times)
