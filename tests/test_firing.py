"""Tests for the exact firing-time solver and its dense-stepping oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikec import (
    NEVER,
    Box,
    CertificateError,
    ContributionCertificate,
    InvalidParameterError,
    Layer,
    ReluNetwork,
    compile_ann,
    finite,
    layer_forward,
    layer_forward_batch,
    network_trace,
    oracle_firing_time,
    realize,
    resolve_firing_time,
)
from spikec.snn_core import _scan, _validate_certificate


def test_two_equal_arrivals_share_the_crossing():
    cert = resolve_firing_time([(2.0, 1.0), (2.0, 1.0)], 1.0)
    assert cert.firing_time.time == pytest.approx(2.5, abs=1e-12)
    assert cert.contributing == {0, 1}


def test_early_arrival_fires_before_late_one_lands():
    cert = resolve_firing_time([(2.0, 1.0), (4.0, 1.0)], 1.0)
    assert cert.firing_time.time == pytest.approx(3.0, abs=1e-12)
    assert cert.contributing == {0}


def test_single_synapse_reduces_to_threshold_over_weight():
    cert = resolve_firing_time([(0.0, 1.0)], 1.0)
    assert cert.firing_time.time == pytest.approx(1.0, abs=1e-12)


def test_nonpositive_prefix_sums_never_fire():
    cert = resolve_firing_time([(0.0, -0.5), (1.0, 0.3)], 1.0)
    assert cert.firing_time is NEVER
    assert cert.contributing == frozenset()


def test_empty_arrivals_never_fire():
    assert resolve_firing_time([], 1.0).firing_time is NEVER


def test_nonpositive_threshold_rejected():
    with pytest.raises(InvalidParameterError):
        resolve_firing_time([(0.0, 1.0)], 0.0)
    with pytest.raises(InvalidParameterError):
        oracle_firing_time([(0.0, 1.0)], -1.0, 1e-4)


def test_nonfinite_arrival_rejected():
    with pytest.raises(InvalidParameterError):
        resolve_firing_time([(np.inf, 1.0)], 1.0)
    # Weights and thresholds too, and in the oracle: a NaN or infinite
    # weight used to give Never in the solver and Finite(0.1) in the oracle,
    # an arrival of +inf a bare ValueError in the oracle, and a threshold of
    # +inf Never in the solver and an OverflowError in the oracle.
    for bad in (np.nan, np.inf, -np.inf):
        for arrivals in ([(0.0, 1.0), (bad, 1.0)], [(0.0, 1.0), (0.5, bad)]):
            with pytest.raises(InvalidParameterError, match="finite"):
                resolve_firing_time(arrivals, 1.0)
            with pytest.raises(InvalidParameterError, match="finite"):
                oracle_firing_time(arrivals, 1.0, 1e-3)
    with pytest.raises(InvalidParameterError, match="finite"):
        resolve_firing_time([(0.0, 1.0)], np.inf)
    with pytest.raises(InvalidParameterError, match="finite"):
        oracle_firing_time([(0.0, 1.0)], np.inf, 1e-3)


def test_boundary_arrival_is_excluded():
    # The second spike lands exactly when the first alone reaches threshold;
    # by the strict-inequality convention it does not contribute.
    cert = resolve_firing_time([(0.0, 1.0), (1.0, 5.0)], 1.0)
    assert cert.firing_time.time == pytest.approx(1.0, abs=1e-12)
    assert cert.contributing == {0}


def test_zero_weight_arrivals_are_inert():
    base = [(0.3, 1.2), (1.1, 0.7), (2.0, -0.4)]
    ref = resolve_firing_time(base, 1.5)
    padded = [(0.0, 0.0), (0.3, 1.2), (0.9, 0.0), (1.1, 0.7), (2.0, -0.4)]
    got = resolve_firing_time(padded, 1.5)
    assert got.firing_time.time == pytest.approx(ref.firing_time.time, abs=0.0)


def test_oracle_refuses_a_dt_that_is_not_positive_and_finite():
    # With dt = inf the oracle used to step once past the horizon and give
    # Never, where the solver fires at 1.5.
    arrivals = [(0.0, 1.0), (0.5, -0.5)]
    assert resolve_firing_time(arrivals, 1.0).firing_time.time == 1.5
    for dt in (np.inf, np.nan, -np.inf, 0.0, -1e-3):
        with pytest.raises(InvalidParameterError, match="dt must be positive and finite"):
            oracle_firing_time(arrivals, 1.0, dt)


def test_oracle_matches_worked_instance():
    t = oracle_firing_time([(2.0, 1.0), (2.0, 1.0)], 1.0, 1e-5)
    assert t.time == pytest.approx(2.5, abs=1e-4)


def test_oracle_single_arrival():
    t = oracle_firing_time([(0.0, 1.0)], 1.0, 1e-5)
    assert t.time == pytest.approx(1.0, abs=1e-4)


def test_oracle_late_crossing_after_inhibition():
    # Strong early inhibition pushes the crossing far past the last arrival;
    # the horizon must still cover it.
    arrivals = [(-1.0, -0.2), (1.5, 0.21)]
    cert = resolve_firing_time(arrivals, 0.1)
    orc = oracle_firing_time(arrivals, 0.1, 1e-5)
    assert cert.firing_time.fires and orc.fires
    assert orc.time == pytest.approx(cert.firing_time.time, abs=1e-3)


def test_oracle_agreement_on_random_instances():
    rng = np.random.default_rng(2024)
    dt = 1e-5
    for _ in range(150):
        n = int(rng.integers(1, 9))
        w = rng.uniform(-2.0, 2.0, n)
        a = rng.uniform(-3.0, 3.0, n)
        theta = float(rng.uniform(0.01, 3.0))
        arrivals = list(zip(a, w))
        cert = resolve_firing_time(arrivals, theta)
        orc = oracle_firing_time(arrivals, theta, dt)
        assert cert.firing_time.fires == orc.fires
        if orc.fires:
            tol = 2.0 * dt * (1.0 + np.abs(w).sum())
            assert abs(cert.firing_time.time - orc.time) <= tol


def test_certificate_invariants_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        arrivals = list(zip(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n)))
        theta = float(rng.uniform(0.05, 2.5))
        cert = resolve_firing_time(arrivals, theta)
        if cert.firing_time.fires:
            # Re-validate explicitly; resolve_firing_time also does this.
            _validate_certificate(cert, arrivals, theta)
            t = cert.firing_time.time
            wsum = sum(arrivals[i][1] for i in cert.contributing)
            # The potential is at most (sum of positive contributing
            # weights) * (t - first arrival), which bounds the firing time
            # from below.
            wpos = sum(max(arrivals[i][1], 0.0) for i in cert.contributing)
            first = min(arrivals[i][0] for i in cert.contributing)
            assert wsum > 0
            assert t >= first + theta / wpos - 1e-9
            assert all(arrivals[i][0] < t for i in cert.contributing)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-5, 5, allow_nan=False),
            st.floats(-2, 2, allow_nan=False),
        ),
        min_size=1,
        max_size=6,
    ),
    st.floats(0.05, 3.0),
    st.floats(-10, 10),
)
def test_time_translation_equivariance(arrivals, theta, delta):
    base = resolve_firing_time(arrivals, theta)
    shifted = resolve_firing_time([(a + delta, w) for a, w in arrivals], theta)
    assert base.firing_time.fires == shifted.firing_time.fires
    if base.firing_time.fires:
        assert shifted.firing_time.time == pytest.approx(
            base.firing_time.time + delta, rel=1e-9, abs=1e-9
        )
        assert shifted.contributing == base.contributing


def test_batch_layer_forward_matches_scalar():
    rng = np.random.default_rng(11)
    layer = Layer(
        rng.uniform(-2, 2, (5, 3)),
        rng.uniform(0, 2, (5, 3)),
        rng.uniform(0.1, 3.0, 3),
    )
    times = rng.uniform(-2, 2, (60, 5))
    times[rng.random((60, 5)) < 0.25] = np.nan
    batch = layer_forward_batch(layer, times)
    for r in range(times.shape[0]):
        inputs = tuple(
            NEVER if np.isnan(v) else finite(v) for v in times[r]
        )
        scalar = layer_forward(layer, inputs)
        for j in range(3):
            if scalar[j].fires:
                assert batch[r, j] == pytest.approx(scalar[j].time, abs=1e-12)
            else:
                assert np.isnan(batch[r, j])


def test_mixed_sign_weights_jump_across_a_facet_where_the_slope_rule_says():
    # Region {0} fires at 1.0, and arrival 1 lands on that facet as a2
    # crosses 1.  With w1 = -2, W_{0} + w1 = -1 <= 0: {0, 1} is no candidate,
    # so below the facet the neuron waits for arrival 2 and the map jumps.
    def fire(a2, w1):
        return resolve_firing_time([(0.0, 1.0), (a2, w1), (5.0, 3.0)], 1.0)

    below = fire(0.999999, -2.0)
    assert below.contributing == {0, 1, 2}
    assert below.firing_time.time == pytest.approx(7.000001, abs=1e-12)
    for a2 in (1.0, 1.000001):
        at = fire(a2, -2.0)
        assert at.contributing == {0}
        assert at.firing_time.time == 1.0
    # With w1 = 0.5, W_{0} + w1 = 1.5 > 0 and the map is continuous there.
    below = fire(0.999999, 0.5)
    assert below.contributing == {0, 1}
    assert below.firing_time.time == pytest.approx(1.0, abs=1e-6)
    assert fire(1.0, 0.5).firing_time.time == 1.0


def test_the_scan_keeps_fractions_exact():
    F = Fraction
    k, t = _scan([F(0), F(1, 3), F(5)], [F(1), F(-2), F(3)], F(1), [0, 1, 2])
    assert (k, t) == (3, F(23, 3))
    assert type(t) is Fraction


def _random_relu(rng, width, depth, scale):
    """The draw of bench/reference.py's random_relu: fixed-width,
    single-output layers with N(0, scale^2) weights and biases."""
    layers = []
    for i in range(depth):
        rows = 1 if i == depth - 1 else width
        layers.append((rng.normal(0.0, scale, (rows, width)), rng.normal(0.0, scale, rows)))
    return layers


def test_certificate_refuses_a_time_off_by_a_small_fraction_of_a_large_threshold():
    # The benchmark's width-8, depth-8 network compiles to thresholds up to
    # 3.93e10.  Moving that neuron's firing time by 1e-11 theta (0.39 time
    # units) moves the residual by as much, far beyond the rounding bound.
    ann = ReluNetwork(tuple(_random_relu(np.random.default_rng(0), 8, 8, 1.0)))
    typed, _ = compile_ann(ann, Box.cube(-1.0, 1.0, 8))
    net, enc = typed.net, typed.enc
    largest = [float(layer.thresholds.max()) for layer in net.layers]
    li = int(np.argmax(largest))
    layer = net.layers[li]
    assert (li, int(layer.thresholds.argmax())) == (21, 0)
    theta = float(layer.thresholds[0])
    assert theta == pytest.approx(3.93e10, rel=1e-3)

    rng = np.random.default_rng(1)
    xs = rng.uniform(-1.0, 1.0, (30, 8))
    for x in xs:
        realize(net, enc, x)
    trace = network_trace(net, tuple(finite(enc.t_in_ref + v) for v in xs[0]))
    arrivals = [
        (ft.time + layer.delays[i, 0], layer.weights[i, 0])
        for i, ft in enumerate(trace[li])
        if ft.fires
    ]
    cert = resolve_firing_time(arrivals, theta)
    assert cert.firing_time == trace[li + 1][0]
    _validate_certificate(cert, arrivals, theta)
    moved = ContributionCertificate(
        cert.contributing, finite(cert.firing_time.time + 1e-11 * theta)
    )
    with pytest.raises(CertificateError, match="residual"):
        _validate_certificate(moved, arrivals, theta)


@pytest.mark.parametrize("scale", [1e-310, 1e-315, 1e-320])
def test_subnormal_neurons_are_certified(scale):
    # Weights and threshold scaled into the subnormal range, so products
    # underflow; then arrivals and threshold, with weights near 1e10, so the
    # firing time itself is subnormal and its rounding is met 1e10 times.
    # Each accepted time passes the certificate check.
    rng = np.random.default_rng(int(-np.log10(scale)))
    fired = 0
    for _ in range(2000):
        k = int(rng.integers(1, 7))
        a, w = rng.uniform(-2.0, 2.0, k), rng.uniform(-2.0, 2.0, k)
        theta = float(rng.uniform(0.05, 2.5))
        for arrivals, th in (
            (list(zip(a, w * scale)), theta * scale),
            (list(zip(a * scale, w * 1e10)), theta * scale),
        ):
            fired += resolve_firing_time(arrivals, th).firing_time.fires
    assert fired > 1000
