"""In-memory spans around the calls into each spikec layer.

A :class:`Tracer` replaces functions under the module attribute the program
looks them up by (``spikec.regions.feasible``, ``spikec.compiler.parallelize``
and so on), records one span per call and restores the originals on
:meth:`Tracer.uninstall`.  Spans stay in memory until :meth:`Tracer.dump`.

A span's parent is the innermost span open on its own thread.  A span opened
on a thread with no open span (a ``verify`` pool worker) takes as parent the
innermost span open on the thread that installed the tracer, which is the
call that handed it the work.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

#: Role of compiled layer i within its 3-layer stage (the last layer is "final").
ROLES = ("affine", "relu_hidden", "relu_out")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    thread: int
    phase: str
    note: tuple | None


class Tracer:
    def __init__(self, spikec_modules) -> None:
        self.m = spikec_modules
        self.spans: list[Span] = []
        self.phase = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        #: id(layer) -> (role, fan_in, fan_out, nonzero weights)
        self._layers: dict[int, tuple[str, int, int, int]] = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, note=None, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before:
                before(args)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            self.spans.append(
                Span(
                    sid, name, t0, t1, parent, threading.get_ident(), self.phase,
                    note(args, result) if note else None,
                )
            )
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, note=None, before=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, note, before))

    # -- layer notes -------------------------------------------------------

    def _register_layers(self, args) -> None:
        layers = args[0].layers
        last = len(layers) - 1
        for i, layer in enumerate(layers):
            role = "final" if i == last else ROLES[i % 3]
            self._layers[id(layer)] = (
                role, layer.fan_in, layer.fan_out, int(np.count_nonzero(layer.weights))
            )

    def _kernel_note(self, args, result):
        layer, times = args[0], args[1]
        role, fan_in, fan_out, live = self._layers[id(layer)]
        batch = times.shape[0]
        return role, batch * fan_in * fan_out, batch * live

    # -- install -----------------------------------------------------------

    def install(self) -> None:
        m = self.m
        self._main_stack = self._stack()
        p = self._patch
        # snn_core: batch kernel, scalar firing rule, per-layer trace.
        p(m.snn_core, "network_forward_batch", "snn_core.network_forward_batch",
          before=self._register_layers)
        p(m.snn_core, "layer_forward_batch", "snn_core.layer_forward_batch",
          self._kernel_note)
        p(m.snn_core, "resolve_firing_time", "snn_core.resolve_firing_time")
        p(m.snn_core, "network_trace", "snn_core.network_trace")
        p(m.cli, "network_trace", "snn_core.network_trace")
        # compiler and the calculus functions it calls.
        p(m.compiler, "compile_ann", "compiler.compile_ann")
        p(m.compiler, "build_layer_gadget", "compiler.build_layer_gadget")
        p(m.compiler, "build_neuron_gadget", "compiler.build_neuron_gadget")
        p(m.compiler, "parallelize", "calculus.parallelize")
        p(m.compiler, "merge_neurons", "calculus.merge_neurons")
        p(m.compiler, "concatenate", "calculus.concatenate")
        # serialization, under both the module's and the CLI's names.
        for owner in (m.serialization, m.cli):
            p(owner, "load_snn", "serialization.load_snn")
            p(owner, "load_ann", "serialization.load_ann")
            p(owner, "save_snn", "serialization.save_snn")
        p(m.boxes.Box, "grid", "boxes.grid")
        p(m.cli, "main", "cli.main")
        # regions and the simplex it calls.
        p(m.regions, "stabilized_region_count", "regions.stabilized_region_count")
        p(m.regions, "enumerate_regions", "regions.enumerate_regions")
        p(m.regions, "count_feasible", "regions.count_feasible")
        p(m.regions, "halfspaces_feasible", "regions.halfspaces_feasible",
          lambda args, result: (bool(result),))
        p(m.regions, "feasible", "simplex.feasible")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path, phases) -> None:
        """Write the spans of the given phases, one JSON object per line,
        gzip-compressed."""
        with gzip.open(path, "wt") as f:
            for s in self.spans:
                if s.phase not in phases:
                    continue
                f.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "thread": s.thread, "phase": s.phase,
                }) + "\n")


# ---------------------------------------------------------------------------
# Spans -> per-layer metrics
# ---------------------------------------------------------------------------

#: Inclusive milliseconds of every span with this name.
MS_METRICS = {
    "snn_core.network_trace_ms": "snn_core.network_trace",
    "compiler.compile_ann_ms": "compiler.compile_ann",
    "compiler.build_layer_gadget_ms": "compiler.build_layer_gadget",
    "calculus.parallelize_ms": "calculus.parallelize",
    "calculus.merge_neurons_ms": "calculus.merge_neurons",
    "calculus.concatenate_ms": "calculus.concatenate",
    "serialization.load_snn_ms": "serialization.load_snn",
    "serialization.load_ann_ms": "serialization.load_ann",
    "serialization.save_snn_ms": "serialization.save_snn",
    "boxes.grid_ms": "boxes.grid",
    "regions.stabilized_region_count_ms": "regions.stabilized_region_count",
    "regions.enumerate_regions_ms": "regions.enumerate_regions",
    "simplex.feasible_ms": "simplex.feasible",
}

#: Number of spans with this name.
CALL_METRICS = {
    "snn_core.resolve_firing_time.calls": "snn_core.resolve_firing_time",
    "compiler.build_neuron_gadget.calls": "compiler.build_neuron_gadget",
    "calculus.parallelize.calls": "calculus.parallelize",
    "calculus.merge_neurons.calls": "calculus.merge_neurons",
    "regions.count_feasible.calls": "regions.count_feasible",
    "regions.halfspaces_feasible.calls": "regions.halfspaces_feasible",
    "simplex.feasible.calls": "simplex.feasible",
}


def _phase_totals(spans: list[Span]) -> dict[str, float]:
    """Additive totals of one phase: ms, call counts, and ratio numerators
    and denominators (combined across phases before dividing)."""
    tot: dict[str, float] = {}

    def add(key, v):
        tot[key] = tot.get(key, 0.0) + v

    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    for s in spans:
        ms = (s.end - s.start) * 1e3
        add("ms:" + s.name, ms)
        add("calls:" + s.name, 1)
        if s.name == "snn_core.layer_forward_batch":
            role, synapses, live = s.note
            add(f"kernel_ms:{role}", ms)
            add("synapses", synapses)
            add("live", live)
        elif s.name == "regions.halfspaces_feasible":
            add("feasible_true", s.note[0])
        elif s.name == "cli.main":
            add("verify_self_ms", ms - _covered_ms(s, children.get(s.id, [])))
    return tot


def _covered_ms(span: Span, kids: list[Span]) -> float:
    """Milliseconds of span's interval covered by the union of its children."""
    covered, reach = 0.0, span.start
    for k in sorted(kids, key=lambda k: k.start):
        lo, hi = max(k.start, reach), min(k.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered * 1e3


def per_layer_metrics(setup_spans, round_spans: list[list[Span]]) -> dict[str, float]:
    """Per-layer figures: one traced set-up plus the median traced round."""
    setup = _phase_totals(setup_spans)
    rounds = [_phase_totals(r) for r in round_spans]
    keys = set(setup).union(*rounds)
    value = {
        k: setup.get(k, 0.0) + statistics.median(r.get(k, 0.0) for r in rounds)
        for k in keys
    }

    def get(k):
        return value.get(k, 0.0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out = {m: get("ms:" + n) for m, n in MS_METRICS.items()}
    out.update({m: get("calls:" + n) for m, n in CALL_METRICS.items()})
    for role in (*ROLES, "final"):
        out[f"snn_core.layer_forward_batch.{role}_ms"] = get(f"kernel_ms:{role}")
    kernel_ms = get("ms:snn_core.layer_forward_batch")
    out["snn_core.layer_forward_batch.ns_per_synapse"] = ratio(
        kernel_ms, get("synapses"), 1e6
    )
    out["snn_core.live_synapse_fraction"] = ratio(get("live"), get("synapses"))
    out["snn_core.resolve_firing_time.us_per_call"] = ratio(
        get("ms:snn_core.resolve_firing_time"),
        get("calls:snn_core.resolve_firing_time"),
        1e3,
    )
    out["cli.verify_self_ms"] = get("verify_self_ms")
    out["regions.feasible_fraction"] = ratio(
        get("feasible_true"), get("calls:regions.halfspaces_feasible")
    )
    out["simplex.feasible.us_per_call"] = ratio(
        get("ms:simplex.feasible"), get("calls:simplex.feasible"), 1e3
    )
    return out
