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

#: Most time steps :func:`oracle_firing_time` takes to reach its horizon.
#: A scan of this length took 2.2 s with one arrival, 6.8 s with five and
#: 15 s with ten (one thread of a 2-vCPU x86-64 VM); the largest scan the
#: test suite asks for is about 1.05e8 steps.
ORACLE_MAX_STEPS = 1 << 28


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
    the synapse from input u to output v.  Every entry is finite; delays are
    nonnegative, thresholds strictly positive.  Weights carry the
    excitatory/inhibitory sign; a zero weight encodes an absent synapse.
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
        # A zero-stride axis repeats one entry, so one of them is checked
        # (compiled delays are one zero-stride view of zero).
        dd = d[tuple(slice(None, 1) if s == 0 else slice(None) for s in d.strides)]
        if not (np.isfinite(w).all() and np.isfinite(dd).all() and np.isfinite(th).all()):
            raise InvalidParameterError("weights, delays and thresholds must be finite")
        if np.any(dd < 0):
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

    Auxiliary inputs fire at a constant, input-independent, finite time;
    they are appended after the payload inputs when feeding the first layer.
    """

    input_dim: int
    layers: tuple[Layer, ...]
    aux_input_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        aux = tuple(float(t) for t in self.aux_input_times)
        if not layers:
            raise DimensionError("a network needs at least one layer")
        if not all(map(math.isfinite, aux)):
            raise InvalidParameterError("auxiliary input times must be finite")
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
    time t decodes to t - t_out_ref.  Both reference times are finite.
    """

    t_in_ref: float
    t_out_ref: float
    domain: Box

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_in_ref) and math.isfinite(self.t_out_ref)):
            raise InvalidParameterError("reference times must be finite")
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

    This is the checked entry of the scan that the scalar layer step runs
    for every output neuron: it converts the arrivals, weights and threshold
    to Python floats (the IEEE results are those of numpy scalars, and a
    division that overflows gives inf without a warning), refuses a NaN or
    infinite one with InvalidParameterError, sorts the arrivals stably and
    hands them to the same scan, which validates the certificate it accepts.
    """
    threshold = float(threshold)
    if not (threshold > 0 and math.isfinite(threshold)):
        raise InvalidParameterError("threshold must be positive and finite")
    times = [float(a) for a, _ in arrivals]
    weights = [float(w) for _, w in arrivals]
    if not all(map(math.isfinite, times + weights)):
        raise InvalidParameterError("arrival times and weights must be finite")
    order = sorted(range(len(times)), key=times.__getitem__)
    k, t = _scan(times, weights, threshold, order)
    return ContributionCertificate(frozenset(order[:k]), NEVER if t is None else finite(t))


def _scan(
    times: Sequence[float], weights: Sequence[float], threshold: float, order: Sequence[int]
) -> tuple[int, float | None]:
    """The prefix scan of :func:`resolve_firing_time` over checked floats.

    Arrival ``i`` lands at ``times[i]`` with weight ``weights[i]``; ``order``
    lists the arrivals in stable arrival order.  Returns ``(k, t)``: the
    neuron fires at t with the arrivals ``order[:k]`` contributing, after
    :func:`_check_invariants` has passed them, or ``(0, None)`` for Never.
    """
    isfinite = math.isfinite
    last = len(order) - 1
    wsum = wasum = 0  # integer starts keep Fraction inputs exact
    for k, i in enumerate(order):
        a = times[i]
        w = weights[i]
        wsum += w
        wasum += w * a
        if wsum <= 0.0:
            continue
        t = (threshold + wasum) / wsum
        if t <= a or (k < last and t > times[order[k + 1]]) or not isfinite(t):
            continue
        _check_invariants(times, weights, threshold, t, order, k + 1)
        return k + 1, t
    return 0, None


def _check_invariants(
    times: Sequence[float],
    weights: Sequence[float],
    threshold: float,
    t: float,
    order: Sequence[int],
    k: int,
) -> None:
    """Assert the certificate invariants of firing at t; raises CertificateError.

    The arrivals ``order[:k]`` contribute, summed in that order as
    :func:`_scan` sums them, and the rest of ``order`` do not.  The residual
    r = sum w (t - a) - theta may carry only rounding (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3; u = eps / 2, gamma_n = n u /
    (1 - n u), S = |theta| + sum |w| (|t| + |a|)).  The scan's sums, adding
    theta and dividing leave the exact residual at t within gamma_(k+2) S,
    and evaluating r adds as much: 2 gamma_(k+2) S < (2k + 3) eps S.  An
    underflowing product or quotient is off by up to 2^-1075, and t's error
    meets sum |w|: so |t| counts as at least 2^-1022 in S, and (2k + 3)
    2^-1074 is added.  S is summed only if |r| > (2k + 3) eps |theta|.
    """
    wsum = 0
    residual = -threshold
    for i in order[:k]:
        a = times[i]
        if not a < t:
            raise CertificateError("contributing arrival not strictly before t")
        w = weights[i]
        wsum += w
        residual += w * (t - a)
    for i in order[k:]:
        if times[i] < t:
            raise CertificateError("non-contributing arrival strictly before t")
    if not wsum > 0:
        raise CertificateError("contributing weights do not sum to a positive value")
    unit = (2 * k + 3) * sys.float_info.epsilon
    if abs(residual) > unit * abs(threshold):
        tmag = max(abs(t), sys.float_info.min)
        scale = sum(abs(weights[i]) * (tmag + abs(times[i])) for i in order[:k])
        if abs(residual) > unit * (abs(threshold) + scale) + (2 * k + 3) * math.ulp(0.0):
            raise CertificateError(f"threshold residual too large: {residual!r}")


def _validate_certificate(
    cert: ContributionCertificate,
    arrivals: Sequence[tuple[float, float]],
    threshold: float,
) -> None:
    """Assert the invariants of ``cert`` for these arrivals; raises
    CertificateError on failure.

    The check of :func:`_check_invariants`, with the contributing set given
    as a set of arrival indices: its members, in stable arrival order, are
    put before the other arrivals.
    """
    t = cert.firing_time.time
    assert t is not None
    times = [float(a) for a, _ in arrivals]
    weights = [float(w) for _, w in arrivals]
    order = sorted(range(len(times)), key=times.__getitem__)
    inside = [i for i in order if i in cert.contributing]
    outside = [i for i in order if i not in cert.contributing]
    _check_invariants(times, weights, float(threshold), t, inside + outside, len(inside))


def _oracle_steps(arr: np.ndarray, w: np.ndarray, threshold: float, dt: float) -> float:
    """Steps of dt from the earliest arrival to the horizon of
    :func:`oracle_firing_time`, 0 if no arrival prefix has a positive weight
    sum (the potential never rises); a dt that is not positive and finite is
    refused with InvalidParameterError.

    Past the latest arrival the potential is affine with slope sum(w): if it
    is positive, the crossing comes by (threshold + sum w*a) / sum(w), and
    if not, before the latest arrival.  The horizon is the later of the two
    times plus a 1.0 time-unit margin.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise InvalidParameterError("dt must be positive and finite")
    slopes = np.cumsum(w[np.argsort(arr, kind="stable")])
    if not (slopes > 0).any():
        return 0.0
    horizon = float(arr.max())
    if slopes[-1] > 0:
        horizon = max(horizon, (threshold + float(np.dot(w, arr))) / float(slopes[-1]))
    return (horizon + 1.0 - float(arr.min())) / dt


def oracle_firing_time(
    arrivals: Sequence[tuple[float, float]], threshold: float, dt: float
) -> FiringTime:
    """Brute-force firing time by dense time stepping of the potential.

    Steps t from the earliest arrival in increments of dt, accumulating
    P(t) = sum over arrivals earlier than t of w * (t - arrival), and returns
    the first step with P >= threshold, or Never at the horizon of
    :func:`_oracle_steps`.  A NaN or infinite arrival, weight or threshold,
    and a bad dt, are refused with InvalidParameterError, and so is a scan
    of more than ORACLE_MAX_STEPS steps, before any step is taken.
    """
    if not (threshold > 0 and math.isfinite(threshold)):
        raise InvalidParameterError("threshold must be positive and finite")
    arr = np.array([a for a, _ in arrivals], dtype=float)
    w = np.array([wi for _, wi in arrivals], dtype=float)
    if not (np.isfinite(arr).all() and np.isfinite(w).all()):
        raise InvalidParameterError("arrival times and weights must be finite")
    span = _oracle_steps(arr, w, threshold, dt)
    if span == 0:
        return NEVER
    if not span <= ORACLE_MAX_STEPS - 1:
        raise InvalidParameterError(
            f"dense stepping to the horizon needs {span:.3g} steps of dt, "
            f"more than ORACLE_MAX_STEPS = {ORACLE_MAX_STEPS}"
        )
    t0 = float(arr.min())
    chunk = 1 << 16
    steps_total = int(math.ceil(span)) + 1
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


def _layer_tables(layer: Layer, times: Sequence[float | None]):
    """What one layer step reads, as Python floats.

    ``times[i]`` is input i's firing time, None for Never.  Returns
    ``(arrivals, weights, thresholds, shared)``: ``arrivals[j]`` and
    ``weights[j]`` list output j's arrival times and weights from the firing
    inputs, in input order.  When ``shared``, every delay on a firing input's
    row is zero, as in every compiled layer, and every ``arrivals[j]`` is one
    list, the firing inputs' times.  A threshold that is not
    positive and finite, a non-finite weight on a firing input's row and a
    non-finite arrival are refused with InvalidParameterError.
    """
    thresholds = layer.thresholds.tolist()
    if not all(0.0 < th < math.inf for th in thresholds):
        raise InvalidParameterError("threshold must be positive and finite")
    fire = [i for i, t in enumerate(times) if t is not None]
    arrivals = [times[i] for i in fire]
    w, d = layer.weights, layer.delays
    if len(fire) < layer.fan_in:
        w, d = w[fire], d[fire]
    if not np.isfinite(w).all():
        raise InvalidParameterError("arrival times and weights must be finite")
    shared = not d.any()
    if shared:
        arrivals = [arrivals] * len(thresholds)
    else:
        arrivals = [[t + dij for t, dij in zip(arrivals, col)] for col in d.T.tolist()]
        if not all(math.isfinite(a) for col in arrivals for a in col):
            raise InvalidParameterError("arrival times and weights must be finite")
    return arrivals, w.T.tolist(), thresholds, shared


def _layer_step(
    layer: Layer, times: Sequence[float | None], contributing: list | None = None
) -> list[float | None]:
    """One layer over plain floats: the outputs' firing times, None for Never.

    ``times[i]`` is input i's firing time, None for Never.  Every output runs
    :func:`_scan`; the arrivals are sorted once when :func:`_layer_tables`
    shares them and per output otherwise.  When ``contributing`` is a list,
    each output's contributing set is appended to it, as positions among the
    firing inputs.
    """
    arrivals, weights, thresholds, shared = _layer_tables(layer, times)
    out = []
    order = None
    for a, w, theta in zip(arrivals, weights, thresholds):
        if order is None or not shared:
            order = sorted(range(len(a)), key=a.__getitem__)
        k, t = _scan(a, w, theta, order)
        out.append(t)
        if contributing is not None:
            contributing.append(frozenset(order[:k]))
    return out


def _times(spikes: Sequence[FiringTime]) -> list[float | None]:
    return [None if ft.time is None else float(ft.time) for ft in spikes]


def _layer_inputs(layer: Layer, inputs: Sequence[FiringTime]) -> list[float | None]:
    if len(inputs) != layer.fan_in:
        raise DimensionError(
            f"layer expects {layer.fan_in} inputs, got {len(inputs)}"
        )
    return _times(inputs)


def _spikes(times: Sequence[float | None]) -> SpikeVector:
    return tuple(NEVER if t is None else finite(t) for t in times)


def layer_certificates(
    layer: Layer, inputs: Sequence[FiringTime]
) -> list[ContributionCertificate]:
    """Per-output-neuron certificates for one layer step.

    Certificate indices refer to positions among the *firing* inputs, in
    input order.  Each output neuron resolves its arrivals (firing input i's
    time plus the delay to it, with the weight from it) as
    :func:`resolve_firing_time` does, by the same scan; the layer's tables
    are read and checked once, and the firing inputs are sorted once when
    every delay from them is zero.
    """
    sets: list[frozenset[int]] = []
    times = _layer_step(layer, _layer_inputs(layer, inputs), sets)
    return [ContributionCertificate(c, ft) for c, ft in zip(sets, _spikes(times))]


def layer_forward(layer: Layer, inputs: Sequence[FiringTime]) -> SpikeVector:
    """Firing times of one layer given the firing times of the previous one."""
    return _spikes(_layer_step(layer, _layer_inputs(layer, inputs)))


def _trace(net: SpikingNetwork, payload: list[float | None]) -> list[list[float | None]]:
    """Every layer's firing times over plain floats, input layer first."""
    if len(payload) != net.input_dim:
        raise DimensionError(
            f"network expects {net.input_dim} inputs, got {len(payload)}"
        )
    trace = [payload + list(net.aux_input_times)]
    for layer in net.layers:
        trace.append(_layer_step(layer, trace[-1]))
    return trace


def network_trace(
    net: SpikingNetwork, input_times: Sequence[FiringTime]
) -> list[SpikeVector]:
    """Firing times of every layer, input layer (with auxiliaries) first.

    The times run through the layers as Python floats (None for Never), by
    the layer step of :func:`layer_forward`; the FiringTime objects are made
    once, at the end.
    """
    trace = _trace(net, _times(input_times))
    aux = tuple(finite(t) for t in net.aux_input_times)
    return [tuple(input_times) + aux] + [_spikes(times) for times in trace[1:]]


def network_forward(net: SpikingNetwork, input_times: Sequence[FiringTime]) -> SpikeVector:
    """Output firing times after asynchronous layer-by-layer propagation."""
    return _spikes(_trace(net, _times(input_times))[-1])


def realize(net: SpikingNetwork, enc: EncodingSpec, x) -> np.ndarray:
    """The value realized at input x under the temporal encoding.

    Encodes x as input spikes at t_in_ref + x, propagates, and decodes the
    output spikes against t_out_ref.  Raises if x is outside the domain or
    if any output neuron never fires.  The times run from input to output
    as Python floats, by the layer step of :func:`network_trace`.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not enc.domain.contains(x):
        raise DomainViolationError(f"input {x.tolist()} outside declared domain")
    payload = [enc.t_in_ref + xi for xi in x.tolist()]
    if not all(map(math.isfinite, payload)):
        raise InvalidParameterError("finite firing times must be finite reals")
    out = _trace(net, payload)[-1]
    for idx, t in enumerate(out):
        if t is None:
            raise RealizationUndefinedError(f"output neuron {idx} never fires")
    return np.array([t - enc.t_out_ref for t in out])


# ---------------------------------------------------------------------------
# Vectorized evaluation over batches of inputs
# ---------------------------------------------------------------------------


#: Most elements a temporary of :func:`layer_forward_batch` holds: the batch
#: is resolved in chunks of rows sized to it (at least one row per chunk).
KERNEL_CHUNK_ELEMS = 1 << 15


def _arrivals(rows: np.ndarray, src: np.ndarray, d) -> np.ndarray:
    """Arrival times ``rows[:, src] + d``, with +inf for Never."""
    arr = rows[:, src] + d
    arr[np.isnan(arr)] = np.inf
    return arr


def _accept(theta, wsum, wasum, last, nxt):
    """Candidate firing time of an arrival prefix, and whether it is accepted.

    The prefix has weight sum ``wsum``, weighted arrival sum ``wasum`` and
    latest arrival ``last``; ``nxt`` is the earliest arrival after it (+inf
    when none).  This is the rule of :func:`resolve_firing_time`: the
    candidate (theta + wasum) / wsum is accepted when the weight sum is
    positive, the candidate is finite, strictly after ``last`` and no later
    than ``nxt``.  Everything broadcasts elementwise.  The scans sum +inf
    arrivals unmasked: input times of +-inf are refused, so each +inf is a
    Never input or padding, which the stable sort puts after every finite
    arrival, and a prefix that reaches one has ``last`` = +inf, which
    ``cand > last`` rejects.  A finite prefix can still give a +inf
    candidate (theta over a tiny weight sum), hence the finite test.
    """
    cand = (theta + wasum) / wsum
    ok = (wsum > 0) & np.isfinite(cand) & (cand > last) & (cand <= nxt)
    return cand, ok


def _first_crossing(arr_s: np.ndarray, w_s: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The prefix-scan rule of :func:`resolve_firing_time` along the last axis.

    ``arr_s`` holds arrival times sorted along the last axis (+inf for Never)
    and ``w_s`` the weights in the same order; both broadcast against each
    other and ``theta`` against the result without its last axis.  Returns
    the first accepted candidate of each scan, NaN where none is accepted.
    """
    wcum = np.cumsum(w_s, axis=-1)
    scum = np.cumsum(w_s * arr_s, axis=-1)
    nxt = np.empty_like(arr_s)
    nxt[..., :-1] = arr_s[..., 1:]
    nxt[..., -1] = np.inf
    cand, ok = _accept(theta[..., None], wcum, scum, arr_s, nxt)
    first = np.argmax(ok, axis=-1)[..., None]
    picked = np.take_along_axis(cand, first, axis=-1)[..., 0]
    return np.where(ok.any(axis=-1), picked, np.nan)


def _first_crossing_of_two(a0, w0, a1, w1, theta):
    """:func:`_first_crossing` unrolled over a scan of two arrivals.

    ``a0``, ``a1`` are the two arrivals in input order (+inf for Never or
    padding) and ``w0``, ``w1`` their weights.  The strict ``a1 < a0`` puts
    them in the order of the stable sort (equal arrivals keep input order),
    and the two prefixes are summed in that order, as the cumulative sums
    are, so the result is the same bit for bit.
    """
    swap = a1 < a0
    first, second = np.where(swap, a1, a0), np.where(swap, a0, a1)
    wf, ws = np.where(swap, w1, w0), np.where(swap, w0, w1)
    s0 = wf * first
    s1 = s0 + ws * second
    c0, ok0 = _accept(theta, wf, s0, first, second)
    c1, ok1 = _accept(theta, wf + ws, s1, second, np.inf)
    return np.where(ok0, c0, np.where(ok1, c1, np.nan))


def layer_forward_batch(layer: Layer, times: np.ndarray) -> np.ndarray:
    """Vectorized :func:`layer_forward` over a (batch, fan_in) time array.

    Never is represented by NaN in both directions; an input time of +-inf
    is refused with InvalidParameterError.  Follows exactly the
    prefix-scan acceptance rule of :func:`resolve_firing_time`: output j
    sorts its arrivals ``times[:, src[j]] + d[j]`` and scans them with their
    weights, gathered in sorted order from one table.  Either

    - ``src`` is one row of all inputs, read by every output, and table row
      i holds input i's weights: used when every delay is zero and the widest
      live column covers at least half the fan-in (``2*k >= fan_in``), so
      each batch row is sorted once; or
    - ``src`` row j lists output j's nonzero-weight synapses, padded to the
      widest live column with weight 0 and arrival +inf, and the table holds
      one weight per row.  A zero weight cannot move a candidate time, so
      both give the same result bit for bit.

    When ``src`` is per output and k <= 2, as in a compiled ReLU stage,
    there is nothing to sort: slots 0 and 1 are read as two (rows,
    fan_out) arrays, and the strict ``a1 < a0`` swaps them into the order
    the stable sort gives (equal arrivals keep input order).  The two
    prefixes are summed in that order, as the cumulative sums add them, and
    judged by the same acceptance tests, so the result is the same bit for
    bit.

    The batch is walked in chunks of rows so that every temporary holds at
    most KERNEL_CHUNK_ELEMS elements, or one row's worth.
    """
    if times.ndim != 2 or times.shape[1] != layer.fan_in:
        raise DimensionError("batch times must have shape (batch, fan_in)")
    # +-inf is no spike time (FiringTime refuses it).  fmin and fmax skip NaN
    # and reduce without a temporary the size of the batch.
    if times.size and np.isinf([np.fmin.reduce(times, axis=None),
                                np.fmax.reduce(times, axis=None)]).any():
        raise InvalidParameterError("input times must be finite, or NaN for Never")
    batch, fan_in, fan_out = times.shape[0], layer.fan_in, layer.fan_out
    out = np.full((batch, fan_out), np.nan)
    live = layer.weights != 0
    counts = live.sum(axis=0)
    k = int(counts.max(initial=0))
    if k == 0:
        return out
    shared = 2 * k >= fan_in and not layer.delays.any()
    if shared:
        # Row i of the table holds input i's weight to every output.
        src, d, table, row0 = np.arange(fan_in)[None], 0.0, layer.weights, 0
    else:
        # Column j's live inputs in input order, then padding: (fan_out, k).
        src = np.argsort(~live, axis=0, kind="stable")[:k].T
        cols = np.arange(fan_out)[:, None]
        pad = np.arange(k) >= counts[:, None]
        d = np.where(pad, np.inf, layer.delays[src, cols])
        # Row j*k + i of the table holds output j's weight from src[j, i].
        table = np.where(pad, 0.0, layer.weights[src, cols]).reshape(-1, 1)
        row0 = cols * k
    # The two-position scan's temporaries are (rows, fan_out); with k = 1,
    # slot 1 is padding (+inf, weight 0).
    pair = not shared and k <= 2
    if pair:
        w = table.reshape(fan_out, k)
    step = max(1, KERNEL_CHUNK_ELEMS // (fan_out * (1 if pair else src.shape[1])))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, batch, step):
            rows = times[lo : lo + step]
            if pair:
                a1, w1 = np.inf, 0.0
                if k == 2:
                    a1, w1 = _arrivals(rows, src[:, 1], d[:, 1]), w[:, 1]
                out[lo : lo + step] = _first_crossing_of_two(
                    _arrivals(rows, src[:, 0], d[:, 0]), w[:, 0], a1, w1, layer.thresholds
                )
                continue
            arr = _arrivals(rows, src, d)
            order = np.argsort(arr, axis=-1, kind="stable")
            arr_s = np.take_along_axis(arr, order, axis=-1)
            # The gathered rows are (rows, 1, fan_in, fan_out) or (rows,
            # fan_out, k, 1); with the last two axes swapped, both are one
            # (rows, fan_out, scan) array.
            w_s = table[row0 + order].swapaxes(-1, -2).reshape(len(arr), fan_out, -1)
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
    if not enc.domain.contains(xs):
        raise DomainViolationError("some batch inputs lie outside the declared domain")
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
