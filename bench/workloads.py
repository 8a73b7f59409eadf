"""The three benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup`, runs one
round of operations in :meth:`run_round` and checks what the program
returned.  Every round runs the same operations on the same inputs, so a
run's failed share does not depend on how many rounds fit in it.

A round reports two timed operations.  *Main* is the workload's bulk
operation, reported as items per second; *side* is its second operation,
reported as milliseconds per item.  Each is timed in samples, and a run
reports the median over all its samples:

=====================  ===================================  ==========================
workload               main (items/s), sample               side (ms per item), sample
=====================  ===================================  ==========================
verify-narrow          grid points of the round's           the round's scalar points
                       ``spikec verify`` runs
wide-compile-simulate  points, one ``realize_batch``        one ``compile_ann``
regions-d10            one seeded neuron counted            the fixed neuron, once
=====================  ===================================  ==========================
"""

from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import (
    compiled_size,
    grid_chunks,
    positive_subsets,
    random_relu,
    relu_forward,
)

#: "Exact" as the program claims it: within REL_TOL * max(1, |y|).
REL_TOL = 1e-9
#: Scalar and batch paths must agree this closely.
PATH_TOL = 1e-12
#: A child process that has not ended by then is killed.
CHILD_TIMEOUT_S = 150.0


@dataclass
class Round:
    #: (items, seconds) of each timed sample of the main and side operations.
    main: list[tuple[int, float]] = field(default_factory=list)
    side: list[tuple[int, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: What the program returned, checked by Workload.check_round.
    outputs: dict = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, m, seed: int, small: bool, workdir: Path, env: dict) -> None:
        self.m = m  # the spikec modules, looked up at call time
        self.seed = seed
        self.small = small
        self.workdir = workdir
        self.env = env
        #: Run the CLI inside this process instead of as a child.
        self.in_process = False
        self.child_peak_kb = 0

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def check_round(self, r: Round) -> None:
        """Append to r.problems every output that misses its check.

        Runs outside the timed and traced part of the round."""
        raise NotImplementedError

    def snn_file_bytes(self) -> int:
        return 0

    def named(self, main_per_s: float, side_ms: float) -> dict[str, tuple[float, str]]:
        """main_per_s and side_ms under this workload's own names."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(own, self.child_peak_kb) / 1024.0

    # -- the CLI -----------------------------------------------------------

    def cli(self, argv: list[str]) -> tuple[int, dict, float]:
        """Run ``spikec <argv>``; returns exit code, parsed output, seconds."""
        if self.in_process:
            buf = io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(buf):
                code = self.m.cli.main(argv)
            return code, json.loads(buf.getvalue()), time.perf_counter() - t0
        cmd = [sys.executable, "-m", "spikec.cli", *argv]
        errpath = self.workdir / "child.err"
        with open(errpath, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                # wait4, not wait: it returns the child's own peak RSS.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            elapsed = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        try:
            return code, json.loads(out), elapsed
        except json.JSONDecodeError:
            raise RuntimeError(
                f"spikec {argv[0]} exited {code} without JSON output:\n"
                + errpath.read_text()
            ) from None


def _close(got, want, tol) -> np.ndarray:
    """Elementwise |got - want| <= tol * max(1, |want|), NaN matching NaN."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    same_nan = np.isnan(got) == np.isnan(want)
    with np.errstate(invalid="ignore"):
        ok = np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))
    return same_nan & (ok | np.isnan(want))


# ---------------------------------------------------------------------------
# verify-narrow
# ---------------------------------------------------------------------------


@dataclass
class _Net:
    label: str
    layers: list
    ann_path: Path
    snn_path: Path
    typed: object
    grid: int
    points: np.ndarray  # scalar-path inputs
    expected: np.ndarray  # numpy forward at points
    fault: bool = False


class VerifyNarrow(Workload):
    """Width-4 ReLU networks checked by ``spikec verify`` on a big grid,
    plus seeded points through the scalar path; one fixed width-8, depth-8
    network whose ``verify`` fails."""

    name = "verify-narrow"
    WIDTH = 4
    DEPTHS = (4, 5)
    FAULT_WIDTH = FAULT_DEPTH = 8
    FAULT_SEED = 0
    FAULT_GRID = 3

    def __init__(self, *a, **kw) -> None:
        super().__init__(*a, **kw)
        self.grid = 5 if self.small else 20
        self.n_scalar = 10 if self.small else 500
        # Check references by network label.  Set-up rebuilds the same
        # networks every time, so these are computed once per run.
        self._grid_errors: dict[str, tuple[float, float]] = {}
        self._batch_out: dict[str, np.ndarray] = {}

    def _net(self, label, layers, grid, points, fault=False) -> _Net:
        m = self.m
        width = layers[0][0].shape[1]
        ann = m.ann_core.ReluNetwork(tuple(layers))
        typed, _ = m.compiler.compile_ann(ann, m.boxes.Box.cube(-1.0, 1.0, width))
        ann_path = self.workdir / f"{label}.ann.json"
        snn_path = self.workdir / f"{label}.snn.json"
        m.serialization.save_ann(ann_path, ann)
        m.serialization.save_snn(snn_path, typed)
        return _Net(label, layers, ann_path, snn_path, typed, grid, points,
                    relu_forward(layers, points), fault)

    def setup(self) -> None:
        rng = self.rng(1)
        self.nets = []
        for depth in self.DEPTHS:
            layers = random_relu(rng, self.WIDTH, depth, 1.0)
            points = rng.uniform(-1.0, 1.0, (self.n_scalar, self.WIDTH))
            self.nets.append(self._net(f"w4d{depth}", layers, self.grid, points))
        # The fault network does not depend on the seed.
        layers = random_relu(
            np.random.default_rng(self.FAULT_SEED), self.FAULT_WIDTH, self.FAULT_DEPTH, 1.0
        )
        self.nets.append(self._net("w8d8-fault", layers, self.FAULT_GRID,
                                   np.empty((0, self.FAULT_WIDTH)), fault=True))

    def run_round(self) -> Round:
        m = self.m
        r = Round()
        points = verify_s = 0
        for net in self.nets:
            argv = ["verify", "--ann", str(net.ann_path), "--snn", str(net.snn_path),
                    "--grid", str(net.grid)]
            code, out, secs = self.cli(argv)
            points += net.grid ** net.layers[0][0].shape[1]
            verify_s += secs
            r.attempted += 1
            if code not in (0, 4):
                raise RuntimeError(f"verify {net.label}: exit {code}: {out}")
            if code == 4:
                r.failed += 1
                r.notes.append(f"{net.label}: verify exit 4, max_err {out['max_err']:.3g}")
            r.outputs[net.label] = (code, out)
        r.main.append((points, verify_s))

        scalar_s = scalar_points = 0
        for net in self.nets:
            if net.fault:
                continue
            typed = net.typed
            t_in = typed.enc.t_in_ref
            got = np.empty(len(net.points))
            last = np.empty(len(net.points))
            t0 = time.perf_counter()
            for i, x in enumerate(net.points):
                # What `spikec simulate --trace` computes for one point.
                got[i] = m.snn_core.realize(typed.net, typed.enc, x)[0]
                trace = m.snn_core.network_trace(
                    typed.net, tuple(m.snn_core.finite(t_in + v) for v in x)
                )
                ft = trace[-1][0]
                last[i] = ft.time if ft.fires else np.nan
            scalar_s += time.perf_counter() - t0
            scalar_points += len(net.points)
            r.attempted += len(net.points)
            r.outputs[net.label + ":scalar"] = (got, last)
        r.side.append((scalar_points, scalar_s))
        return r

    def check_round(self, r: Round) -> None:
        for net in self.nets:
            code, out = r.outputs[net.label]
            self._check_verdict(net, code, out, r)
            if net.fault:
                continue
            got, last = r.outputs[net.label + ":scalar"]
            bad = ~_close(got, net.expected[:, 0], REL_TOL)
            if bad.any():
                r.problems.append(f"{net.label}: scalar output off the numpy forward "
                                  f"at {int(bad.sum())} points")
            if not np.array_equal(last - net.typed.enc.t_out_ref, got):
                r.problems.append(f"{net.label}: network_trace disagrees with realize")
            if net.label not in self._batch_out:
                typed = net.typed
                times = np.hstack([
                    typed.enc.t_in_ref + net.points,
                    np.broadcast_to(typed.net.aux_input_times,
                                    (len(net.points), typed.net.n_aux)),
                ])
                self._batch_out[net.label] = self.m.snn_core.network_forward_batch(
                    typed.net, times)[:, 0]
            if not _close(last, self._batch_out[net.label], PATH_TOL).all():
                r.problems.append(f"{net.label}: scalar and batch paths differ by more "
                                  f"than {PATH_TOL} or in their Never pattern")

    def _grid_error(self, net: _Net) -> tuple[float, float]:
        """Largest |y| of the numpy forward over the grid and, for the (small)
        fault grid, the largest |batch output - y|."""
        if net.label not in self._grid_errors:
            ymax, err = 0.0, 0.0
            for xs in grid_chunks(-1.0, 1.0, net.layers[0][0].shape[1], net.grid):
                y = relu_forward(net.layers, xs)
                ymax = max(ymax, float(np.abs(y).max()))
                if net.fault:
                    got = self.m.snn_core.realize_batch(net.typed.net, net.typed.enc, xs)
                    err = max(err, float(np.abs(got - y).max()))
            self._grid_errors[net.label] = ymax, err
        return self._grid_errors[net.label]

    def _check_verdict(self, net: _Net, code: int, out: dict, r: Round) -> None:
        """verify's verdict and max_err against the benchmark's own forward."""
        p = np.asarray(out["argmax_point"], dtype=float)
        axis = np.linspace(-1.0, 1.0, net.grid)
        if p.shape != (net.layers[0][0].shape[1],) or not np.isin(p, axis).all():
            r.problems.append(f"{net.label}: argmax_point {p.tolist()} is not a grid point")
            return
        if out["pass"] != (code == 0) or out["pass"] != (out["max_err"] <= out["tol"]):
            r.problems.append(f"{net.label}: verdict, exit code and max_err disagree")
        y = relu_forward(net.layers, p[None, :])[0]
        snn_y = self.m.snn_core.realize_batch(net.typed.net, net.typed.enc, p[None, :])[0]
        own_err = float(np.abs(snn_y - y).max())
        if abs(own_err - out["max_err"]) > REL_TOL * max(1.0, float(np.abs(y).max())):
            r.problems.append(f"{net.label}: max_err {out['max_err']!r} but the error "
                              f"at its argmax is {own_err!r}")
        ymax, grid_err = self._grid_error(net)
        if net.fault:
            # The benchmark's own pass over the whole grid must give the
            # same verdict.
            if (grid_err <= out["tol"]) != out["pass"]:
                r.problems.append(f"{net.label}: verify says pass={out['pass']} but the "
                                  f"grid error is {grid_err!r}")
        elif out["max_err"] > REL_TOL * max(1.0, ymax):
            r.problems.append(f"{net.label}: max_err {out['max_err']!r} is not within "
                              f"{REL_TOL} * max(1, |y|) of the numpy forward")

    def snn_file_bytes(self) -> int:
        return sum(n.snn_path.stat().st_size for n in self.nets)

    def named(self, main_per_s, side_ms):
        return {"verify_pts_per_s": (main_per_s, "points/s"),
                "scalar_pts_per_s": (1e3 / side_ms, "points/s")}


# ---------------------------------------------------------------------------
# wide-compile-simulate
# ---------------------------------------------------------------------------


class WideCompileSimulate(Workload):
    """One wide ReLU network compiled, then evaluated on a batch."""

    name = "wide-compile-simulate"
    DEPTH = 3

    def __init__(self, *a, **kw) -> None:
        super().__init__(*a, **kw)
        self.width = 16 if self.small else 128
        self.batch = 16 if self.small else 192

    def setup(self) -> None:
        m = self.m
        rng = self.rng(2)
        self.layers = random_relu(rng, self.width, self.DEPTH, 1.0 / np.sqrt(self.width))
        path = self.workdir / "wide.ann.json"
        m.serialization.save_ann(path, m.ann_core.ReluNetwork(tuple(self.layers)))
        self.ann = m.serialization.load_ann(path)
        self.points = rng.uniform(-1.0, 1.0, (self.batch, self.width))
        self.expected = relu_forward(self.layers, self.points)
        self.domain = m.boxes.Box.cube(-1.0, 1.0, self.width)

    def run_round(self) -> Round:
        m = self.m
        r = Round(attempted=2)
        t0 = time.perf_counter()
        typed, _ = m.compiler.compile_ann(self.ann, self.domain)
        t1 = time.perf_counter()
        got = m.snn_core.realize_batch(typed.net, typed.enc, self.points)
        t2 = time.perf_counter()
        r.side.append((1, t1 - t0))
        r.main.append((self.batch, t2 - t1))
        r.outputs["compiled"], r.outputs["values"] = typed, got
        self.typed = typed
        return r

    def check_round(self, r: Round) -> None:
        typed, got = r.outputs["compiled"], r.outputs["values"]
        want_n, want_l = compiled_size(self.width, self.DEPTH)
        if (typed.net.num_neurons, typed.net.depth) != (want_n, want_l):
            r.problems.append(f"compiled size {typed.net.num_neurons} neurons, "
                              f"{typed.net.depth} layers; closed form {want_n}, {want_l}")
        bad = ~_close(got, self.expected, REL_TOL)
        if bad.any():
            err = np.abs(got - self.expected) / np.maximum(1.0, np.abs(self.expected))
            r.problems.append(f"realize_batch off the numpy forward at {int(bad.sum())} "
                              f"points (worst relative error {np.nanmax(err):.3g})")

    def snn_file_bytes(self) -> int:
        s = self.m.serialization
        return len(s.dumps_canonical(s.snn_to_dict(self.typed)).encode())

    def named(self, main_per_s, side_ms):
        return {"simulate_pts_per_s": (main_per_s, "points/s"),
                "compile_s": (side_ms / 1e3, "s")}


# ---------------------------------------------------------------------------
# regions-d10
# ---------------------------------------------------------------------------

#: A fixed 10-input neuron (threshold 1) on which stabilized_region_count
#: stops doubling its box too early: it has 81 positive-sum subsets.
FAULT_WEIGHTS = np.array([
    1.101262453505847, 0.3384312766461778, -0.5399715152535035, -1.2602418568524327,
    -1.8946212698392553, 0.018638290983285614, -0.8105670995116028,
    -0.8721559599345132, -0.22196950708389104, -0.05184602813201771,
])
FAULT_DELAYS = np.array([
    0.6041458545639301, 0.08373669468714318, 0.9977636809229765, 0.8323461245007039,
    0.03677735766732482, 0.5675398131484446, 0.6093401370451035,
    0.006926579514268227, 0.17908387391323455, 0.1649222135263957,
])
#: Weights are multiples of 2**-20, so every subset sum is exact in float64
#: and the program and the reference agree on each sum's sign.
QUANTUM = 2.0**-20


@dataclass
class _Neuron:
    weights: np.ndarray
    delays: np.ndarray
    expected: int
    radius: float


class RegionsD10(Workload):
    """Seeded 10-input neurons counted over a box sized to hold every region,
    plus the fixed neuron through ``stabilized_region_count``."""

    name = "regions-d10"
    DIM = 10
    THETA = 1.0
    #: The fixed neuron runs before every this many seeded neurons, so that
    #: side_ms samples the whole run.
    FAULT_EVERY = 8

    def __init__(self, *a, **kw) -> None:
        super().__init__(*a, **kw)
        self.n_mixed = 2 if self.small else 32

    def _neuron(self, w, delays) -> _Neuron:
        expected, smallest = positive_subsets(w)
        # A subset with weight sum W fires theta/W after its inputs, and the
        # other inputs must arrive after that: 4/W holds every region.
        return _Neuron(w, delays, expected, max(1.0, 4.0 * self.THETA / smallest))

    def setup(self) -> None:
        rng = self.rng(3)
        d = self.DIM
        self.neurons = []
        for _ in range(self.n_mixed):
            # Mixed signs summing to exactly zero: of each subset and its
            # complement exactly one has a positive sum, so every such neuron
            # has 511 regions and the same amount of work.
            w = np.round(rng.normal(0.0, 1.0, d) / QUANTUM) * QUANTUM
            w[-1] = -w[:-1].sum()
            self.neurons.append(self._neuron(w, rng.uniform(0.0, 1.0, d)))
        w = (np.abs(np.round(rng.normal(0.0, 1.0, d) / QUANTUM)) + 1.0) * QUANTUM
        self.neurons.append(self._neuron(w, rng.uniform(0.0, 1.0, d)))
        self.fault = self._neuron(FAULT_WEIGHTS, FAULT_DELAYS)

    def run_round(self) -> Round:
        m = self.m
        r = Round()
        for i, n in enumerate(self.neurons):
            if i % self.FAULT_EVERY == 0:
                self._fault_neuron(r)
            t0 = time.perf_counter()
            center = float(np.mean(n.delays))
            box = m.boxes.Box.cube(center - n.radius, center + n.radius, self.DIM)
            regions = m.regions.enumerate_regions(n.weights, n.delays, self.THETA, box)
            r.outputs[i] = sum(1 for reg in regions if reg.feasible_in_box)
            r.main.append((1, time.perf_counter() - t0))
            r.attempted += 1
        return r

    def _fault_neuron(self, r: Round) -> None:
        t0 = time.perf_counter()
        got = self.m.regions.stabilized_region_count(FAULT_WEIGHTS, FAULT_DELAYS, self.THETA)
        r.side.append((1, time.perf_counter() - t0))
        r.attempted += 1
        if got != self.fault.expected:
            r.failed += 1
            r.notes.append(f"fixed neuron: stabilized_region_count {got}, "
                           f"expected {self.fault.expected}")

    def check_round(self, r: Round) -> None:
        for i, n in enumerate(self.neurons):
            if r.outputs[i] != n.expected:
                r.problems.append(f"neuron {i}: {r.outputs[i]} regions, "
                                  f"expected {n.expected}")
        if self.neurons[-1].expected != (1 << self.DIM) - 1:
            r.problems.append("the all-positive neuron does not have 2^d - 1 regions")

    def named(self, main_per_s, side_ms):
        return {"region_neurons_per_s": (main_per_s, "neurons/s"),
                "stabilized_region_count_ms": (side_ms, "ms")}


WORKLOADS = {w.name: w for w in (VerifyNarrow, WideCompileSimulate, RegionsD10)}
