"""Exact firing-time semantics for single-spike networks with linear response.

A neuron's membrane potential is a sum of linear ramps, one per presynaptic
spike: P(t) = sum over arrived spikes of w * (t - arrival).  The neuron fires
the first time P reaches its threshold from below.  Because the potential is
piecewise linear in t with breakpoints at the arrival times, the firing time
can be resolved exactly by scanning arrival prefixes, and independently
cross-checked by dense time stepping of P.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .boxes import Box
from .errors import (
    CertificateError,
    DimensionError,
    DomainViolationError,
    InvalidParameterError,
    RealizationUndefinedError,
)

#: Relative tolerance for the residual check on firing certificates.
CERTIFICATE_RTOL = 1e-10


@dataclass(frozen=True)
class FiringTime:
    """Either a finite spike time or Never (the neuron stays silent)."""

    time: float | None = None

    def __post_init__(self) -> None:
        if self.time is not None and not math.isfinite(self.time):
            raise InvalidParameterError("finite firing times must be finite reals")

    @property
    def fires(self) -> bool:
        return self.time is not None

    def __repr__(self) -> str:
        return "Never" if self.time is None else f"Finite({self.time!r})"


NEVER = FiringTime(None)


def finite(t: float) -> FiringTime:
    return FiringTime(float(t))


SpikeVector = tuple[FiringTime, ...]


@dataclass(frozen=True)
class ContributionCertificate:
    """The resolved contributing arrival set together with the firing time.

    Indices refer to positions in the arrival list passed to
    :func:`resolve_firing_time`.  For a finite firing time t, every
    contributing arrival is strictly earlier than t, every other arrival is
    at t or later, the contributing weights sum to a positive value, and the
    weighted ramp heights add up to the threshold.
    """

    contributing: frozenset[int]
    firing_time: FiringTime


@dataclass(frozen=True)
class Layer:
    """One synaptic layer: weights, delays and thresholds.

    ``weights`` and ``delays`` have shape (fan_in, fan_out); entry [u, v] is
    the synapse from input u to output v.  Delays are nonnegative, thresholds
    strictly positive.  Weights carry the excitatory/inhibitory sign and may
    be any real; a zero weight encodes an absent synapse.
    """

    weights: np.ndarray
    delays: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self) -> None:
        w = np.atleast_2d(np.asarray(self.weights, dtype=float))
        d = np.atleast_2d(np.asarray(self.delays, dtype=float))
        th = np.atleast_1d(np.asarray(self.thresholds, dtype=float))
        if w.shape != d.shape:
            raise DimensionError("weights and delays must have equal shape")
        if th.shape != (w.shape[1],):
            raise DimensionError("thresholds must have one entry per output neuron")
        if np.any(d < 0):
            raise InvalidParameterError("delays must be nonnegative")
        if np.any(th <= 0):
            raise InvalidParameterError("thresholds must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "delays", d)
        object.__setattr__(self, "thresholds", th)

    @property
    def fan_in(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class SpikingNetwork:
    """A layered spiking network plus optional fixed-time auxiliary inputs.

    Auxiliary inputs fire at a constant, input-independent time; they are
    appended after the payload inputs when feeding the first layer.
    """

    input_dim: int
    layers: tuple[Layer, ...]
    aux_input_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        aux = tuple(float(t) for t in self.aux_input_times)
        if not layers:
            raise DimensionError("a network needs at least one layer")
        fan_in = self.input_dim + len(aux)
        for i, layer in enumerate(layers):
            if layer.fan_in != fan_in:
                raise DimensionError(
                    f"layer {i} expects fan-in {layer.fan_in}, got {fan_in}"
                )
            fan_in = layer.fan_out
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "aux_input_times", aux)

    @property
    def n_aux(self) -> int:
        return len(self.aux_input_times)

    @property
    def output_dim(self) -> int:
        return self.layers[-1].fan_out

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def num_neurons(self) -> int:
        """Total computational units, input and auxiliary neurons included."""
        return self.input_dim + self.n_aux + sum(l.fan_out for l in self.layers)


@dataclass(frozen=True)
class EncodingSpec:
    """Temporal-coding calling convention: reference times and input domain.

    A value x is encoded as a spike at time t_in_ref + x; an output spike at
    time t decodes to t - t_out_ref.
    """

    t_in_ref: float
    t_out_ref: float
    domain: Box

    def __post_init__(self) -> None:
        if not self.t_out_ref > self.t_in_ref:
            raise InvalidParameterError("t_out_ref must exceed t_in_ref")


# ---------------------------------------------------------------------------
# Event-driven firing-time resolution
# ---------------------------------------------------------------------------


def resolve_firing_time(
    arrivals: Sequence[tuple[float, float]], threshold: float
) -> ContributionCertificate:
    """Resolve the first threshold crossing of a sum of linear ramps.

    ``arrivals`` is a list of (arrival_time, weight) pairs.  Sorted by
    arrival, the potential between consecutive arrivals is affine, so the
    crossing is found by scanning prefixes: a prefix with positive weight sum
    yields the candidate

        t = (threshold + sum w_i * a_i) / sum w_i,

    accepted when t lies strictly after every arrival in the prefix and no
    later than the next arrival outside it.  An arrival exactly at the
    candidate time is non-contributing (the strict-inequality convention), so
    a prefix that would split a group of equal arrivals is rejected
    automatically.  A candidate that is not finite (the weight sum is too
    small for theta to be divided by it) is not a crossing.  Returns a
    certificate with Never if no prefix is accepted.

    Arrivals, weights and threshold are taken as Python floats: the IEEE
    results are those of numpy scalars, and a division that overflows gives
    inf without a warning.
    """
    threshold = float(threshold)
    if not threshold > 0:
        raise InvalidParameterError("threshold must be positive")
    arrivals = [(float(a), float(w)) for a, w in arrivals]
    n = len(arrivals)
    if n == 0:
        return ContributionCertificate(frozenset(), NEVER)
    for a, _w in arrivals:
        if not math.isfinite(a):
            raise InvalidParameterError("arrival times must be finite")
    order = sorted(range(n), key=lambda i: arrivals[i][0])
    wsum = 0.0
    wasum = 0.0
    for k, idx in enumerate(order):
        a, w = arrivals[idx]
        wsum += w
        wasum += w * a
        if wsum <= 0.0:
            continue
        t = (threshold + wasum) / wsum
        if not math.isfinite(t) or t <= a:
            continue
        if k + 1 < n and t > arrivals[order[k + 1]][0]:
            continue
        cert = ContributionCertificate(frozenset(order[: k + 1]), finite(t))
        _validate_certificate(cert, arrivals, threshold, order)
        return cert
    return ContributionCertificate(frozenset(), NEVER)


def _validate_certificate(
    cert: ContributionCertificate,
    arrivals: Sequence[tuple[float, float]],
    threshold: float,
    order: Sequence[int] | None = None,
) -> None:
    """Assert the certificate invariants; raises CertificateError on failure.

    Sums run in arrival order (``order``, the stable arrival sort, computed
    when not given), the order in which the potential accumulates its ramps
    and :func:`resolve_firing_time` adds them up.
    """
    t = cert.firing_time.time
    assert t is not None
    if order is None:
        order = sorted(range(len(arrivals)), key=lambda i: arrivals[i][0])
    wsum = 0.0
    residual = -threshold
    for i in order:
        a, w = arrivals[i]
        if i in cert.contributing:
            if not a < t:
                raise CertificateError("contributing arrival not strictly before t")
            wsum += w
            residual += w * (t - a)
        elif a < t:
            raise CertificateError("non-contributing arrival strictly before t")
    if not wsum > 0:
        raise CertificateError("contributing weights do not sum to a positive value")
    tol = CERTIFICATE_RTOL * max(1.0, abs(threshold))
    if abs(residual) > tol:
        # Rounding t and the products moves the residual by up to (2n + 3)
        # eps times the size of its terms; with weights near 1e300 that
        # exceeds any fixed tolerance even when t is correctly rounded.
        scale = sum(abs(arrivals[i][1]) * (abs(t) + abs(arrivals[i][0]))
                    for i in cert.contributing)
        tol += (2 * len(cert.contributing) + 3) * sys.float_info.epsilon * scale
        if abs(residual) > tol:
            raise CertificateError(f"threshold residual too large: {residual!r}")


def oracle_firing_time(
    arrivals: Sequence[tuple[float, float]], threshold: float, dt: float
) -> FiringTime:
    """Brute-force firing time by dense time stepping of the potential.

    Steps t from the earliest arrival in increments of dt, accumulating
    P(t) = sum over arrivals earlier than t of w * (t - arrival), and returns
    the first step with P >= threshold.  The scan stops at a horizon beyond
    which a crossing is impossible, with a 1.0 time-unit margin: past the
    latest arrival the potential is affine with slope sum(w), so if that
    slope is positive the final segment crosses the threshold no later than
    (threshold + sum w*a) / sum(w), and if it is not, any crossing must have
    happened before the latest arrival.  If no arrival prefix has a positive
    weight sum the potential never rises and the result is Never.
    """
    if not dt > 0:
        raise InvalidParameterError("dt must be positive")
    if not threshold > 0:
        raise InvalidParameterError("threshold must be positive")
    if len(arrivals) == 0:
        return NEVER
    arr = np.array([a for a, _ in arrivals], dtype=float)
    w = np.array([wi for _, wi in arrivals], dtype=float)
    order = np.argsort(arr, kind="stable")
    slopes = np.cumsum(w[order])
    positive = slopes[slopes > 0]
    if positive.size == 0:
        return NEVER
    last = float(arr.max())
    total = float(slopes[-1])
    if total > 0:
        final_cross = (threshold + float(np.dot(w, arr))) / total
        horizon = max(last, final_cross) + 1.0
    else:
        horizon = last + 1.0

    t0 = float(arr.min())
    chunk = 1 << 16
    steps_total = int(math.ceil((horizon - t0) / dt)) + 1
    start = 1
    while start <= steps_total:
        stop = min(start + chunk, steps_total + 1)
        ts = t0 + dt * np.arange(start, stop)
        ramp = ts[:, None] - arr[None, :]
        p = ((ramp > 0) * ramp) @ w
        hit = np.nonzero(p >= threshold)[0]
        if hit.size:
            return finite(float(ts[hit[0]]))
        start = stop
    return NEVER


# ---------------------------------------------------------------------------
# Layer and network evaluation
# ---------------------------------------------------------------------------


def _neuron_arrivals(
    layer: Layer, inputs: Sequence[FiringTime], j: int
) -> list[tuple[float, float]]:
    return [
        (inputs[i].time + layer.delays[i, j], layer.weights[i, j])
        for i in range(layer.fan_in)
        if inputs[i].fires
    ]


def layer_certificates(
    layer: Layer, inputs: Sequence[FiringTime]
) -> list[ContributionCertificate]:
    """Per-output-neuron certificates for one layer step.

    Certificate indices refer to positions among the *firing* inputs, in
    input order.
    """
    if len(inputs) != layer.fan_in:
        raise DimensionError(
            f"layer expects {layer.fan_in} inputs, got {len(inputs)}"
        )
    return [
        resolve_firing_time(_neuron_arrivals(layer, inputs, j), layer.thresholds[j])
        for j in range(layer.fan_out)
    ]


def layer_forward(layer: Layer, inputs: Sequence[FiringTime]) -> SpikeVector:
    """Firing times of one layer given the firing times of the previous one."""
    return tuple(c.firing_time for c in layer_certificates(layer, inputs))


def network_trace(
    net: SpikingNetwork, input_times: Sequence[FiringTime]
) -> list[SpikeVector]:
    """Firing times of every layer, input layer (with auxiliaries) first."""
    if len(input_times) != net.input_dim:
        raise DimensionError(
            f"network expects {net.input_dim} inputs, got {len(input_times)}"
        )
    current: SpikeVector = tuple(input_times) + tuple(
        finite(t) for t in net.aux_input_times
    )
    trace = [current]
    for layer in net.layers:
        current = layer_forward(layer, current)
        trace.append(current)
    return trace


def network_forward(net: SpikingNetwork, input_times: Sequence[FiringTime]) -> SpikeVector:
    """Output firing times after asynchronous layer-by-layer propagation."""
    return network_trace(net, input_times)[-1]


def realize(net: SpikingNetwork, enc: EncodingSpec, x) -> np.ndarray:
    """The value realized at input x under the temporal encoding.

    Encodes x as input spikes at t_in_ref + x, propagates, and decodes the
    output spikes against t_out_ref.  Raises if x is outside the domain or
    if any output neuron never fires.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if enc.domain.dim != net.input_dim:
        raise DimensionError("encoding domain dimension does not match network")
    if not enc.domain.contains(x):
        raise DomainViolationError(f"input {x.tolist()} outside declared domain")
    inputs = tuple(finite(enc.t_in_ref + xi) for xi in x)
    out = network_forward(net, inputs)
    for idx, ft in enumerate(out):
        if not ft.fires:
            raise RealizationUndefinedError(f"output neuron {idx} never fires")
    return np.array([ft.time - enc.t_out_ref for ft in out])


# ---------------------------------------------------------------------------
# Vectorized evaluation over batches of inputs
# ---------------------------------------------------------------------------


#: Most elements a temporary of :func:`layer_forward_batch` holds: the batch
#: is resolved in chunks of rows sized to it (at least one row per chunk).
KERNEL_CHUNK_ELEMS = 1 << 15


def _first_crossing(arr_s: np.ndarray, w_s: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The prefix-scan rule of :func:`resolve_firing_time` along the last axis.

    ``arr_s`` holds arrival times sorted along the last axis (+inf for Never)
    and ``w_s`` the weights in the same order; both broadcast against each
    other and ``theta`` against the result without its last axis.  Returns
    the first accepted candidate of each scan, NaN where none is accepted.
    """
    finite_mask = np.isfinite(arr_s)
    wcum = np.cumsum(w_s, axis=-1)
    scum = np.cumsum(w_s * np.where(finite_mask, arr_s, 0.0), axis=-1)
    cand = (theta[..., None] + scum) / wcum
    valid = (wcum > 0) & finite_mask & np.isfinite(cand) & (cand > arr_s)
    valid[..., :-1] &= cand[..., :-1] <= arr_s[..., 1:]
    first = np.argmax(valid, axis=-1)[..., None]
    picked = np.take_along_axis(cand, first, axis=-1)[..., 0]
    return np.where(valid.any(axis=-1), picked, np.nan)


def layer_forward_batch(layer: Layer, times: np.ndarray) -> np.ndarray:
    """Vectorized :func:`layer_forward` over a (batch, fan_in) time array.

    Never is represented by NaN in both directions.  Follows exactly the
    prefix-scan acceptance rule of :func:`resolve_firing_time`; the two ways
    of ordering arrivals below differ only in which synapses they scan, and
    give the same result bit for bit.

    - Shared order: when every delay is zero, all outputs see the same
      arrival order, so each batch row is sorted once and every output scans
      the whole fan-in in that order.  Used when the widest live column
      covers at least half the fan-in (``2*k >= fan_in``).
    - Per-output order: otherwise each output scans only its nonzero-weight
      synapses, padded to the widest live column with weight 0 and arrival
      +inf, and sorts them on its own.  A zero weight adds nothing to the
      prefix sums, and its arrival only splits a segment whose candidate time
      it cannot change, so skipping it does not change the result.

    Either way all outputs of the layer are resolved at once, and the batch
    is walked in chunks of rows so that every temporary holds at most
    KERNEL_CHUNK_ELEMS elements, or one row's worth.
    """
    if times.ndim != 2 or times.shape[1] != layer.fan_in:
        raise DimensionError("batch times must have shape (batch, fan_in)")
    batch, fan_in, fan_out = times.shape[0], layer.fan_in, layer.fan_out
    out = np.full((batch, fan_out), np.nan)
    live = layer.weights != 0
    counts = live.sum(axis=0)
    k = int(counts.max(initial=0))
    if k == 0:
        return out
    shared = 2 * k >= fan_in and not layer.delays.any()
    if shared:
        src, d, width = slice(None), 0.0, fan_in
        # Outputs first, so that each output's weights in a row's arrival
        # order are one contiguous gather.
        w = np.ascontiguousarray(layer.weights.T)
    else:
        # Column j's live inputs in input order, then padding: (fan_out, k).
        src = np.argsort(~live, axis=0, kind="stable")[:k].T
        cols = np.arange(fan_out)[:, None]
        pad = np.arange(k) >= counts[:, None]
        w = np.where(pad, 0.0, layer.weights[src, cols])
        d = np.where(pad, np.inf, layer.delays[src, cols])
        width = k
    step = max(1, KERNEL_CHUNK_ELEMS // (fan_out * width))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, batch, step):
            arr = times[lo : lo + step][:, src] + d
            arr[np.isnan(arr)] = np.inf
            order = np.argsort(arr, axis=-1, kind="stable")
            arr_s = np.take_along_axis(arr, order, axis=-1)
            if shared:
                # (rows, fan_out, fan_in): every output scans its row's order.
                w_s = w[:, order].transpose(1, 0, 2)
                arr_s = arr_s[:, None]
            else:
                w_s = w[cols, order]
            out[lo : lo + step] = _first_crossing(arr_s, w_s, layer.thresholds)
    return out


def network_forward_batch(net: SpikingNetwork, times: np.ndarray) -> np.ndarray:
    """Vectorized forward pass; input shape (batch, input_dim + n_aux)."""
    expected = net.input_dim + net.n_aux
    if times.ndim != 2 or times.shape[1] != expected:
        raise DimensionError(f"batch times must have shape (batch, {expected})")
    current = np.asarray(times, dtype=float)
    for layer in net.layers:
        current = layer_forward_batch(layer, current)
    return current


def realize_batch(net: SpikingNetwork, enc: EncodingSpec, xs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`realize` over rows of xs, shape (batch, input_dim)."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1] != net.input_dim:
        raise DimensionError("batch inputs must have shape (batch, input_dim)")
    aux = np.broadcast_to(
        np.asarray(net.aux_input_times, dtype=float), (xs.shape[0], net.n_aux)
    )
    times = np.concatenate([enc.t_in_ref + xs, aux], axis=1)
    out = network_forward_batch(net, times)
    if np.any(np.isnan(out)):
        raise RealizationUndefinedError("some output neurons never fire")
    return out - enc.t_out_ref


def single_neuron_network(
    weights: Iterable[float], delays: Iterable[float], theta: float
) -> SpikingNetwork:
    """One-layer, single-output network from per-input weights and delays."""
    w = np.asarray(list(weights), dtype=float)
    d = np.asarray(list(delays), dtype=float)
    return SpikingNetwork(
        input_dim=w.size,
        layers=(Layer(w[:, None], d[:, None], np.array([theta])),),
    )
