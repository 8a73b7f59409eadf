"""Command-line interface: simulate, compile, verify, regions, oracle.

Exit codes: 0 success; 1 malformed input file; 2 an output neuron never
fires; 3 input outside the declared domain; 4 differential verification
failed.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .ann_core import ann_forward
from .boxes import Box
from .compiler import compile_ann
from .errors import (
    DomainViolationError, InvalidParameterError, RealizationUndefinedError, SpikecError
)
from .regions import empirical_region_count, enumerate_regions
from .serialization import (
    FileFormatError,
    dumps_canonical,
    load_ann,
    load_snn,
    save_snn,
)
from .snn_core import _neuron_arrivals, finite, network_trace, oracle_firing_time, realize

EXIT_OK = 0
EXIT_BAD_FILE = 1
EXIT_NO_FIRE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY_FAIL = 4


def _emit(obj) -> None:
    print(dumps_canonical(obj), end="")


def _parse_csv(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError as e:
        raise FileFormatError(f"bad numeric list {text!r}: {e}") from e


def cmd_simulate(args) -> int:
    t = load_snn(args.network)
    x = _parse_csv(args.input)
    try:
        out = realize(t.net, t.enc, x)
    except DomainViolationError:
        _emit({"error": "domain-violation", "input": x.tolist()})
        return EXIT_DOMAIN
    except RealizationUndefinedError:
        trace = network_trace(t.net, tuple(finite(t.enc.t_in_ref + xi) for xi in x))
        idx = next(i for i, ft in enumerate(trace[-1]) if not ft.fires)
        _emit({"error": "no-fire", "neuron": idx})
        return EXIT_NO_FIRE
    result: dict = {"output": out.tolist()}
    if args.trace:
        trace = network_trace(t.net, tuple(finite(t.enc.t_in_ref + xi) for xi in x))
        result["trace"] = [[ft.time for ft in layer] for layer in trace]
    _emit(result)
    return EXIT_OK


def cmd_compile(args) -> int:
    ann = load_ann(args.ann)
    a, b = _parse_csv(args.domain)
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


def _thread_count() -> int:
    env = os.environ.get("SPIKEC_THREADS", "").strip()
    if not env:
        return min(4, os.cpu_count() or 1)
    try:
        return max(1, int(env))
    except ValueError:
        raise InvalidParameterError(f"SPIKEC_THREADS is not an integer: {env!r}") from None


def cmd_verify(args) -> int:
    n_threads = _thread_count()
    ann = load_ann(args.ann)
    snn = load_snn(args.snn)
    pts = snn.enc.domain.grid(args.grid)
    want = ann_forward(ann, pts)

    if n_threads > 1 and pts.shape[0] >= 4 * n_threads:
        chunks = np.array_split(pts, n_threads)
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            got = np.vstack(list(pool.map(snn.realize_batch, chunks)))
    else:
        got = snn.realize_batch(pts)

    err = np.abs(got - want)
    per_point = err.max(axis=1)
    imax = int(np.argmax(per_point))
    max_err = float(per_point[imax])
    ok = max_err <= args.tol
    if args.dump_grid:
        header = (
            [f"x{i + 1}" for i in range(pts.shape[1])]
            + [f"ann{j + 1}" for j in range(want.shape[1])]
            + [f"snn{j + 1}" for j in range(got.shape[1])]
            + ["err"]
        )
        table = np.hstack([pts, want, got, per_point[:, None]])
        np.savetxt(
            args.dump_grid, table, delimiter=",", header=",".join(header), comments=""
        )
    _emit(
        {
            "max_err": max_err,
            "argmax_point": pts[imax].tolist(),
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
        "analytic_count": sum(1 for r in descs if r.feasible_in_box),
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
    x = _parse_csv(args.input)
    if x.size != t.net.input_dim:
        raise FileFormatError(
            f"input length {x.size} does not match input_dim {t.net.input_dim}"
        )
    times = [finite(t.enc.t_in_ref + xi) for xi in x] + [
        finite(a) for a in t.net.aux_input_times
    ]
    for layer in t.net.layers:
        times = [
            oracle_firing_time(
                _neuron_arrivals(layer, times, j), layer.thresholds[j], args.dt
            )
            for j in range(layer.fan_out)
        ]
    _emit({"firing_times": [ft.time for ft in times]})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, SpikecError) as e:
        _emit({"error": "bad-input", "detail": str(e)})
        return EXIT_BAD_FILE


if __name__ == "__main__":
    sys.exit(main())
