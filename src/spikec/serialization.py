"""JSON serialization of spiking and ReLU networks.

JSON keeps compiled artifacts diffable.  Output is canonical: keys sorted,
two-space indent, floats in Python repr form (shortest round-trip), so
saving a loaded file reproduces it byte for byte.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .ann_core import ReluNetwork
from .boxes import Box
from .calculus import TypedSNN
from .errors import SpikecError
from .snn_core import EncodingSpec, Layer, SpikingNetwork


class FileFormatError(SpikecError, ValueError):
    """A network file is malformed or fails validation on load."""


def dumps_canonical(obj) -> str:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline.

    json writes an indented text with its pure-Python encoder, one call per
    value.  Here a list of finite floats, most of a network file, is one
    join of their reprs, which is how json writes each of them; every other
    scalar is written by json itself.  Dict keys must be strings.
    """
    return _canonical(obj, "\n") + "\n"


def _canonical(obj, nl: str) -> str:
    # nl is a newline and the indent of obj's own line.
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (json.dumps(k) + ": " + _canonical(v, inner) for k, v in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        sep = "," + inner
        body = _float_list(obj, sep)
        if body is None:
            body = sep.join(_canonical(x, inner) for x in obj)
        return "[" + inner + body + nl + "]"
    return json.dumps(obj)


def _float_list(obj, sep: str):
    """The items of obj joined by sep if they are all finite floats, else None."""
    try:
        # isfinite refuses containers, strings and None; float.__repr__
        # refuses ints and bools.
        if all(map(math.isfinite, obj)):
            return sep.join(map(float.__repr__, obj))
    except (TypeError, OverflowError):
        pass
    return None


def snn_to_dict(t: TypedSNN) -> dict:
    return {
        "input_dim": t.net.input_dim,
        "aux_inputs": [{"time": x} for x in t.net.aux_input_times],
        "layers": [
            {
                "W": layer.weights.tolist(),
                "D": layer.delays.tolist(),
                "theta": layer.thresholds.tolist(),
            }
            for layer in t.net.layers
        ],
        "t_in_ref": t.enc.t_in_ref,
        "t_out_ref": t.enc.t_out_ref,
        "domain": {"lo": t.enc.domain.lo.tolist(), "hi": t.enc.domain.hi.tolist()},
    }


def snn_from_dict(d: dict) -> TypedSNN:
    try:
        # A JSON integer, not a float, bool or string that int() would take.
        if type(d["input_dim"]) is not int:
            raise TypeError(f"input_dim must be an integer, got {d['input_dim']!r}")
        layers = tuple(
            Layer(
                np.asarray(l["W"], dtype=float),
                np.asarray(l["D"], dtype=float),
                np.asarray(l["theta"], dtype=float),
            )
            for l in d["layers"]
        )
        net = SpikingNetwork(
            input_dim=d["input_dim"],
            layers=layers,
            aux_input_times=tuple(float(a["time"]) for a in d.get("aux_inputs", [])),
        )
        enc = EncodingSpec(
            float(d["t_in_ref"]),
            float(d["t_out_ref"]),
            Box(
                np.asarray(d["domain"]["lo"], dtype=float),
                np.asarray(d["domain"]["hi"], dtype=float),
            ),
        )
        return TypedSNN(net, enc)
    except (KeyError, TypeError, ValueError, SpikecError) as e:
        raise FileFormatError(f"invalid spiking-network file: {e}") from e


def ann_to_dict(net: ReluNetwork) -> dict:
    return {
        "layers": [{"W": a.tolist(), "B": b.tolist()} for a, b in net.layers]
    }


def ann_from_dict(d: dict) -> ReluNetwork:
    try:
        return ReluNetwork(
            tuple(
                (np.asarray(l["W"], dtype=float), np.asarray(l["B"], dtype=float))
                for l in d["layers"]
            )
        )
    except (KeyError, TypeError, ValueError, SpikecError) as e:
        raise FileFormatError(f"invalid ReLU-network file: {e}") from e


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text()
        d = json.loads(text)
    except (OSError, json.JSONDecodeError) as e:
        raise FileFormatError(f"cannot read {path}: {e}") from e
    if not isinstance(d, dict):
        raise FileFormatError(f"{path}: top-level JSON value must be an object")
    return d


def load_snn(path) -> TypedSNN:
    return snn_from_dict(_load_json(path))


def save_snn(path, t: TypedSNN) -> None:
    Path(path).write_text(dumps_canonical(snn_to_dict(t)))


def load_ann(path) -> ReluNetwork:
    return ann_from_dict(_load_json(path))


def save_ann(path, net: ReluNetwork) -> None:
    Path(path).write_text(dumps_canonical(ann_to_dict(net)))
