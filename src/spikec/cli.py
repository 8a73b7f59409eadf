"""Command-line interface: simulate, compile, verify, regions, oracle.

Exit codes: 0 success; 1 malformed input file or argument, an output file
that cannot be opened, or an ANN output that is not finite; 2 an output
neuron never fires; 3 input outside the declared domain; 4 differential
verification failed.

Run as a program (``python -m spikec.cli`` or the ``spikec`` script), the
process enters through :func:`run`, which first fixes glibc malloc's mmap
threshold at 32 MiB and its trim threshold at 64 MiB.  The batch kernel
allocates temporaries of about 256 KB per chunk of rows; under glibc's
dynamic thresholds they are mapped, or the heap trimmed and regrown, again
for every chunk.  On the verify-narrow benchmark (three ``verify`` runs:
width-4 networks of depth 4 and 5 on a 20^4 grid, width 8 and depth 8 on a
3^8 grid) the fixed thresholds take a round from about 285k minor page
faults to 24k and raise its points/s by 15-20%; each run's peak RSS rises
by about 1 MB.  Only glibc is tuned, and only in a process started as the
program: :func:`main` and ``import spikec`` leave the allocator of the
process that calls them as it is.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import platform
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .ann_core import ann_forward
from .boxes import Box
from .compiler import compile_ann
from .errors import DimensionError, InvalidParameterError, RealizationUndefinedError, SpikecError
from .regions import empirical_region_count, enumerate_regions
from .serialization import (
    FileFormatError,
    dumps_canonical,
    load_ann,
    load_snn,
    save_snn,
)
from .snn_core import _layer_tables, finite, network_trace, oracle_firing_time

EXIT_OK = 0
EXIT_BAD_FILE = 1
EXIT_NO_FIRE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY_FAIL = 4


def _emit(obj) -> None:
    print(dumps_canonical(obj), end="")


def _parse_csv(text: str) -> np.ndarray:
    try:
        values = np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError as e:
        raise FileFormatError(f"bad numeric list {text!r}: {e}") from e
    if not np.all(np.isfinite(values)):
        raise FileFormatError(f"non-finite value in numeric list {text!r}")
    return values


def _input_times(t, text: str):
    """``--input`` as the network's input spike times, or None, with the
    domain violation reported, when it lies outside the network's domain."""
    x = _parse_csv(text)
    if not t.enc.domain.contains(x):
        _emit({"error": "domain-violation", "input": x.tolist()})
        return None
    return tuple(finite(t.enc.t_in_ref + xi) for xi in x)


def cmd_simulate(args) -> int:
    t = load_snn(args.network)
    inputs = _input_times(t, args.input)
    if inputs is None:
        return EXIT_DOMAIN
    trace = network_trace(t.net, inputs)
    silent = [i for i, ft in enumerate(trace[-1]) if not ft.fires]
    if silent:
        _emit({"error": "no-fire", "neuron": silent[0]})
        return EXIT_NO_FIRE
    result: dict = {"output": [ft.time - t.enc.t_out_ref for ft in trace[-1]]}
    if args.trace:
        result["trace"] = [[ft.time for ft in layer] for layer in trace]
    _emit(result)
    return EXIT_OK


def cmd_compile(args) -> int:
    ann = load_ann(args.ann)
    bounds = _parse_csv(args.domain)
    if bounds.size != 2:
        raise FileFormatError(f"domain needs exactly two values \"a,b\", got {args.domain!r}")
    a, b = bounds
    domain = Box.cube(a, b, ann.input_dim)
    compiled, report = compile_ann(ann, domain)
    save_snn(args.output, compiled)
    rep = {
        "neurons": report.neuron_count,
        "layers": report.layer_count,
        "predicted_neurons": report.predicted_neurons,
        "predicted_layers": report.predicted_layers,
        "per_stage_refs": [list(r) for r in report.per_stage_refs],
        "per_layer_domains": [
            {"lo": box.lo.tolist(), "hi": box.hi.tolist()}
            for box in report.per_layer_domains
        ],
    }
    if args.report:
        with open(args.report, "w") as f:
            f.write(dumps_canonical(rep))
    _emit({"output": args.output, "neurons": rep["neurons"], "layers": rep["layers"]})
    return EXIT_OK


#: The largest pool ``SPIKEC_THREADS`` may ask for.
MAX_THREADS = 64


def _thread_count() -> int:
    """verify's pool size: ``SPIKEC_THREADS``, an integer from 1 to
    MAX_THREADS, or else the number of CPUs the process may run on, at
    most 4."""
    env = os.environ.get("SPIKEC_THREADS", "").strip()
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return min(4, len(os.sched_getaffinity(0)))
        return min(4, os.cpu_count() or 1)
    try:
        n = int(env)
    except ValueError:
        raise InvalidParameterError(f"SPIKEC_THREADS is not an integer: {env!r}") from None
    if not 1 <= n <= MAX_THREADS:
        raise InvalidParameterError(f"SPIKEC_THREADS must be from 1 to {MAX_THREADS}, got {n}")
    return n


#: About how many grid points ``verify`` checks together (see _chunks).
VERIFY_CHUNK_POINTS = 16384
#: Chunks queued per thread ahead of the one being consumed.
VERIFY_CHUNKS_PER_THREAD = 2


def _chunks(total: int, n_threads: int):
    """Cuts verify's grid of `total` points into runs of rows; returns their
    count and the first row of run i (`total` for i == count).

    The runs are nearly equal, at least one per VERIFY_CHUNK_POINTS points,
    and as many as a multiple of the thread count, so that the threads
    finish together, but at most one per point.
    """
    count = -(-max(1, total // VERIFY_CHUNK_POINTS) // n_threads) * n_threads
    count = min(count, total)

    def start(i: int) -> int:
        return i * total // count

    return count, start


def _in_order(fn, items, n_threads: int):
    """Yields fn(item) for each item in order.  With several threads, at most
    VERIFY_CHUNKS_PER_THREAD calls per thread are pending at a time (unlike
    ``Executor.map``, which submits every item at once)."""
    if n_threads == 1 or len(items) == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        pending: deque = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == VERIFY_CHUNKS_PER_THREAD * n_threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def cmd_verify(args) -> int:
    """Compares the ANN and the SNN on every point of the ``--grid`` grid of
    the SNN's domain.

    The grid is walked in row-major chunks of at most about twice
    VERIFY_CHUNK_POINTS points, on ``SPIKEC_THREADS`` threads, so memory
    does not grow with ``--grid``.  The largest per-point error and its
    first grid point are kept as the chunks come back in grid order, and
    ``--dump-grid`` is written chunk by chunk; a run that stops early
    leaves no dump.  An ANN output that is not finite at some grid point is
    bad input, named by its first such point.
    """
    if not 0 <= args.tol < np.inf:
        raise InvalidParameterError(f"--tol must be finite and non-negative, got {args.tol}")
    n_threads = _thread_count()
    ann = load_ann(args.ann)
    snn = load_snn(args.snn)
    if (ann.input_dim, ann.output_dim) != (snn.net.input_dim, snn.net.output_dim):
        raise DimensionError(f"the ANN maps {ann.input_dim} inputs to {ann.output_dim} "
                             f"outputs, the SNN {snn.net.input_dim} to {snn.net.output_dim}")
    box, n = snn.enc.domain, args.grid
    total = box.grid_size(n)
    n_chunks, start = _chunks(total, n_threads)

    def check(i: int):
        pts = box.grid(n, start(i), start(i + 1))
        want = ann_forward(ann, pts)
        bad = ~np.isfinite(want).all(axis=1)
        if bad.any():
            raise InvalidParameterError(
                f"the ANN output is not finite at grid point {pts[bad.argmax()].tolist()}"
            )
        got = snn.realize_batch(pts)
        return pts, want, got, np.abs(got - want).max(axis=1)

    dump = open(args.dump_grid, "w") if args.dump_grid else None
    if dump:
        header = (
            [f"x{j + 1}" for j in range(box.dim)]
            + [f"ann{j + 1}" for j in range(ann.output_dim)]
            + [f"snn{j + 1}" for j in range(snn.net.output_dim)]
            + ["err"]
        )
        dump.write(",".join(header) + "\n")
    max_err = argmax_point = None
    finished = False
    try:
        for pts, want, got, per_point in _in_order(check, range(n_chunks), n_threads):
            i = int(np.argmax(per_point))
            # np.argmax's rule across chunks: the first maximum wins.
            if max_err is None or per_point[i] > max_err:
                max_err, argmax_point = float(per_point[i]), pts[i].tolist()
            if dump:
                np.savetxt(dump, np.hstack([pts, want, got, per_point[:, None]]), delimiter=",")
        finished = True
    except RealizationUndefinedError as e:
        _emit({"error": "no-fire", "detail": str(e)})
        return EXIT_NO_FIRE
    finally:
        if dump:
            dump.close()
            if not finished:
                os.remove(args.dump_grid)
    ok = max_err <= args.tol
    _emit(
        {
            "max_err": max_err,
            "argmax_point": argmax_point,
            "pass": bool(ok),
            "grid": args.grid,
            "tol": args.tol,
        }
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_regions(args) -> int:
    t = load_snn(args.network)
    net, enc = t.net, t.enc
    if net.depth != 1 or net.output_dim != 1 or net.n_aux != 0:
        raise FileFormatError(
            "region analysis needs a one-layer, single-output network "
            "without auxiliary inputs"
        )
    layer = net.layers[0]
    box = enc.domain.shift(enc.t_in_ref)
    descs = enumerate_regions(
        layer.weights[:, 0], layer.delays[:, 0], float(layer.thresholds[0]), box
    )
    result: dict = {
        "analytic_count": int(np.count_nonzero(descs.feasible)),
        "regions": [
            {
                "subset": sorted(r.subset),
                "gradient": r.gradient.tolist(),
                "offset": r.offset,
                "feasible": r.feasible_in_box,
            }
            for r in descs
        ],
    }
    if args.empirical:
        emp = empirical_region_count(net, box, args.grid)
        result["empirical_count"] = emp.count
        result["no_fire_points"] = emp.no_fire_points
    _emit(result)
    return EXIT_OK


def cmd_oracle(args) -> int:
    t = load_snn(args.network)
    inputs = _input_times(t, args.input)
    if inputs is None:
        return EXIT_DOMAIN
    times = [ft.time for ft in inputs] + list(t.net.aux_input_times)
    for layer in t.net.layers:
        # The arrivals and weights the scalar path reads, in input order.
        arrivals, weights, thresholds, _ = _layer_tables(layer, times)
        times = [
            oracle_firing_time(list(zip(a, w)), theta, args.dt).time
            for a, w, theta in zip(arrivals, weights, thresholds)
        ]
    _emit({"firing_times": times})
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a SpikecError, so that it is bad-input with
    exit 1 like any other malformed argument; subparsers inherit the class."""

    def error(self, message):
        raise InvalidParameterError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="spikec",
        description="Simulate, compile, verify and analyze single-spike "
        "temporally coded spiking networks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="evaluate a network's realization")
    s.add_argument("--network", required=True)
    s.add_argument("--input", required=True, help="comma-separated input values")
    s.add_argument("--trace", action="store_true", help="include per-neuron times")
    s.set_defaults(func=cmd_simulate)

    c = sub.add_parser("compile", help="compile a ReLU network file")
    c.add_argument("--ann", required=True)
    c.add_argument("--domain", required=True, help='input cube as "a,b"')
    c.add_argument("-o", "--output", required=True)
    c.add_argument("--report", help="write the size report to this file")
    c.set_defaults(func=cmd_compile)

    v = sub.add_parser("verify", help="compare an ANN and an SNN on a grid")
    v.add_argument("--ann", required=True)
    v.add_argument("--snn", required=True)
    v.add_argument("--grid", type=int, default=11, help="points per axis")
    v.add_argument("--tol", type=float, default=1e-9)
    v.add_argument("--dump-grid", help="write per-point CSV to this file")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("regions", help="linear regions of a one-layer neuron")
    r.add_argument("--network", required=True)
    r.add_argument("--empirical", action="store_true")
    r.add_argument("--grid", type=int, default=100)
    r.set_defaults(func=cmd_regions)

    o = sub.add_parser("oracle", help="firing times by dense time stepping")
    o.add_argument("--network", required=True)
    o.add_argument("--input", required=True)
    o.add_argument("--dt", type=float, default=1e-5)
    o.set_defaults(func=cmd_oracle)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (SpikecError, OSError) as e:
        # An OSError's text names the file that could not be opened.
        _emit({"error": "bad-input", "detail": str(e)})
        return EXIT_BAD_FILE


# mallopt's parameter numbers, from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: glibc malloc settings made by run(), as (mallopt parameter, bytes).  Fixed
#: values, not options.  32 MiB is the ceiling of glibc's own dynamic mmap
#: threshold on 64-bit hosts: far above any kernel temporary, which then
#: comes from the heap, while a bigger block is still mapped and returned at
#: once.  The trim threshold is twice it, as glibc's dynamic rule sets it, so
#: the freed top of the heap stays for the next chunk instead of being
#: returned and faulted in again.
MALLOC_SETTINGS = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20))


def _tune_malloc() -> bool:
    """Applies MALLOC_SETTINGS on Linux with glibc and nowhere else; returns
    whether every setting took.  A setting glibc refuses leaves its default
    in place, which costs speed, not correctness."""
    if not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success and 0 on error; each setting is tried.
    return all([mallopt(param, value) == 1 for param, value in MALLOC_SETTINGS])


def run() -> int:
    """The program entry: tunes the allocator once, then runs main()."""
    _tune_malloc()
    return main()


if __name__ == "__main__":
    sys.exit(run())
