"""Tests for the command-line interface and JSON file formats."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spikec import (
    Box,
    EncodingSpec,
    InvalidParameterError,
    Layer,
    ReluNetwork,
    SpikingNetwork,
    TypedSNN,
    single_neuron_network,
)
from spikec.cli import main
from spikec.compiler import build_example_3_1, build_example_3_1_ann
from spikec.serialization import (
    dumps_canonical,
    load_snn,
    save_ann,
    save_snn,
    snn_to_dict,
)


@pytest.fixture
def two_kink_file(tmp_path):
    path = tmp_path / "two_kink.json"
    save_snn(path, build_example_3_1(1.0, (-3.0, 3.0)))
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_simulate_two_kink_at_zero(capsys, two_kink_file):
    code, out = run_cli(capsys, "simulate", "--network", two_kink_file, "--input", "0")
    assert code == 0
    assert out["output"][0] == pytest.approx(-0.5, abs=1e-12)


def test_simulate_trace_lists_all_layers(capsys, two_kink_file):
    code, out = run_cli(
        capsys, "simulate", "--network", two_kink_file, "--input", "0", "--trace"
    )
    assert code == 0
    assert len(out["trace"]) == 2
    assert out["trace"][0] == [0.0, 0.0]


def test_simulate_domain_violation_exit_code(capsys, two_kink_file):
    code, out = run_cli(capsys, "simulate", "--network", two_kink_file, "--input", "9")
    assert code == 3
    assert out["error"] == "domain-violation"


def test_simulate_no_fire_exit_code(capsys, tmp_path):
    net = single_neuron_network([-1.0, -1.0], [0.0, 0.0], 1.0)
    t = TypedSNN(net, EncodingSpec(0.0, 1.0, Box.cube(-1, 1, 2)))
    path = tmp_path / "neg.json"
    save_snn(path, t)
    code, out = run_cli(capsys, "simulate", "--network", str(path), "--input", "0,0")
    assert code == 2
    assert out["error"] == "no-fire"
    assert out["neuron"] == 0


def test_malformed_file_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    code, out = run_cli(capsys, "simulate", "--network", str(path), "--input", "0")
    assert code == 1
    assert out["error"] == "bad-input"


def test_compile_verify_round(capsys, tmp_path):
    ann_path = tmp_path / "ann.json"
    snn_path = tmp_path / "snn.json"
    report_path = tmp_path / "report.json"
    save_ann(ann_path, build_example_3_1_ann(1.0))
    code, out = run_cli(
        capsys,
        "compile",
        "--ann", str(ann_path),
        "--domain=-3,3",
        "-o", str(snn_path),
        "--report", str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["neurons"] == out["neurons"]
    # Width varies (1 -> 2 -> 1), so no closed-form size prediction applies.
    assert report["predicted_layers"] is None
    assert report["layers"] == 4

    code, out = run_cli(
        capsys,
        "verify",
        "--ann", str(ann_path),
        "--snn", str(snn_path),
        "--grid", "201",
        "--tol", "1e-9",
    )
    assert code == 0
    assert out["pass"] is True
    assert out["max_err"] <= 1e-9


def test_verify_fails_on_perturbed_weight(capsys, tmp_path):
    ann_path = tmp_path / "ann.json"
    snn_path = tmp_path / "snn.json"
    save_ann(ann_path, build_example_3_1_ann(1.0))
    assert main(["compile", "--ann", str(ann_path), "--domain=-3,3", "-o", str(snn_path)]) == 0
    capsys.readouterr()
    doc = json.loads(snn_path.read_text())
    doc["layers"][0]["W"][0][0] += 1e-3
    snn_path.write_text(json.dumps(doc))
    code, out = run_cli(
        capsys, "verify", "--ann", str(ann_path), "--snn", str(snn_path),
        "--grid", "21", "--tol", "1e-9",
    )
    assert code == 4
    assert out["pass"] is False
    assert out["max_err"] > 1e-9


def test_verify_dump_grid_writes_csv(capsys, tmp_path):
    ann_path = tmp_path / "ann.json"
    snn_path = tmp_path / "snn.json"
    csv_path = tmp_path / "grid.csv"
    save_ann(ann_path, build_example_3_1_ann(1.0))
    assert main(["compile", "--ann", str(ann_path), "--domain=-3,3", "-o", str(snn_path)]) == 0
    capsys.readouterr()
    code, _ = run_cli(
        capsys, "verify", "--ann", str(ann_path), "--snn", str(snn_path),
        "--grid", "11", "--tol", "1e-9", "--dump-grid", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x1,ann1,snn1,err"
    assert len(lines) == 12


def _never_firing_verify_files(tmp_path):
    # Aux spike at 0 with weight 1, input x with weight -1: for x < 1 the
    # input cancels the aux ramp before the potential reaches theta = 1.
    layer = Layer(np.array([[-1.0], [1.0]]), np.zeros((2, 1)), np.array([1.0]))
    net = SpikingNetwork(input_dim=1, layers=(layer,), aux_input_times=(0.0,))
    snn_path, ann_path = tmp_path / "snn.json", tmp_path / "ann.json"
    save_snn(snn_path, TypedSNN(net, EncodingSpec(0.0, 1.0, Box.cube(0, 2, 1))))
    save_ann(ann_path, ReluNetwork(((np.array([[1.0]]), np.array([0.0])),)))
    return str(ann_path), str(snn_path)


def test_verify_never_firing_snn_is_no_fire(capsys, tmp_path, monkeypatch):
    ann_path, snn_path = _never_firing_verify_files(tmp_path)
    # One thread evaluates inline; two split the 9 points over the pool.
    for threads in ("1", "2"):
        monkeypatch.setenv("SPIKEC_THREADS", threads)
        code, out = run_cli(
            capsys, "verify", "--ann", ann_path, "--snn", snn_path, "--grid", "9"
        )
        assert code == 2
        assert out["error"] == "no-fire"


def test_verify_nonpositive_grid_is_bad_input(capsys, tmp_path):
    ann_path = tmp_path / "ann.json"
    snn_path = tmp_path / "snn.json"
    save_ann(ann_path, build_example_3_1_ann(1.0))
    assert main(["compile", "--ann", str(ann_path), "--domain=-3,3", "-o", str(snn_path)]) == 0
    capsys.readouterr()
    for grid in ("0", "-3"):
        code, out = run_cli(
            capsys, "verify", "--ann", str(ann_path), "--snn", str(snn_path), "--grid", grid
        )
        assert code == 1
        assert out["error"] == "bad-input"
    with pytest.raises(InvalidParameterError):
        Box.cube(0, 1, 2).grid(0)
    assert Box.cube(0, 1, 2).grid(1).shape == (1, 2)


def test_regions_command(capsys, tmp_path):
    net = single_neuron_network([1.0, 1.0], [2.0, 1.0], 1.0)
    t = TypedSNN(net, EncodingSpec(0.0, 2.0, Box.cube(-5, 5, 2)))
    path = tmp_path / "a1.json"
    save_snn(path, t)
    code, out = run_cli(
        capsys, "regions", "--network", str(path), "--empirical", "--grid", "120"
    )
    assert code == 0
    assert out["analytic_count"] == 3
    assert out["empirical_count"] == 3
    assert len(out["regions"]) == 3


def test_regions_output_is_pinned(capsys, tmp_path):
    # A fixed mixed-sign 3-input neuron with input reference time 0.5: the
    # command's text, byte for byte, and what it says.
    net = single_neuron_network([0.9, -0.4, 0.7], [0.5, 0.0, 1.25], 0.8)
    path = tmp_path / "three.json"
    save_snn(path, TypedSNN(net, EncodingSpec(0.5, 3.0, Box.cube(-1.0, 1.0, 3))))
    assert main(["regions", "--network", str(path)]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "29cbebe36a1730b8eb1a9fc7ca4696b61c9a22027f71065ff10c20fee1e35d76"
    )
    out = json.loads(text)
    assert out["analytic_count"] == 4
    assert [(r["subset"], r["feasible"]) for r in out["regions"]] == [
        ([0], True), ([2], False), ([0, 1], True), ([0, 2], True), ([1, 2], False),
        ([0, 1, 2], True),
    ]
    assert out["regions"][4]["gradient"] == [0.0, -1.3333333333333337, 2.333333333333334]
    assert out["regions"][4]["offset"] == 5.583333333333335


def test_oracle_command(capsys, two_kink_file):
    code, out = run_cli(
        capsys, "oracle", "--network", two_kink_file, "--input", "0", "--dt", "1e-5"
    )
    assert code == 0
    # Two-kink gadget fires at 0.5 for x=0 (value -0.5 under the encoding).
    assert out["firing_times"][0] == pytest.approx(0.5, abs=1e-4)


def test_round_trip_is_byte_equal(tmp_path):
    t = build_example_3_1(1.0, (-3.0, 3.0))
    path = tmp_path / "net.json"
    save_snn(path, t)
    raw = path.read_text()
    assert raw == dumps_canonical(snn_to_dict(load_snn(path)))


def test_thread_env_controls_verify(capsys, tmp_path, monkeypatch):
    ann_path = tmp_path / "ann.json"
    snn_path = tmp_path / "snn.json"
    save_ann(ann_path, build_example_3_1_ann(1.0))
    assert main(["compile", "--ann", str(ann_path), "--domain=-3,3", "-o", str(snn_path)]) == 0
    capsys.readouterr()
    for threads in ("1", "3"):
        monkeypatch.setenv("SPIKEC_THREADS", threads)
        code, out = run_cli(
            capsys, "verify", "--ann", str(ann_path), "--snn", str(snn_path),
            "--grid", "101", "--tol", "1e-9",
        )
        assert code == 0 and out["pass"] is True


def test_non_integer_thread_count_is_bad_input(capsys, tmp_path, monkeypatch):
    ann_path = tmp_path / "ann.json"
    snn_path = tmp_path / "snn.json"
    save_ann(ann_path, build_example_3_1_ann(1.0))
    assert main(["compile", "--ann", str(ann_path), "--domain=-3,3", "-o", str(snn_path)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("SPIKEC_THREADS", "abc")
    code, out = run_cli(
        capsys, "verify", "--ann", str(ann_path), "--snn", str(snn_path), "--grid", "5"
    )
    assert code == 1
    assert out["error"] == "bad-input"
    assert "SPIKEC_THREADS" in out["detail"]


def test_package_and_cli_import_without_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys; sys.modules['scipy'] = None; import spikec, spikec.cli"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_compile_domain_needs_exactly_two_values(capsys, tmp_path):
    ann_path = tmp_path / "ann.json"
    snn_path = tmp_path / "snn.json"
    save_ann(ann_path, build_example_3_1_ann(1.0))
    for domain in ("--domain=1", "--domain=-3,0,3"):
        code, out = run_cli(capsys, "compile", "--ann", str(ann_path), domain, "-o", str(snn_path))
        assert code == 1
        assert out["error"] == "bad-input"
    assert not snn_path.exists()


def test_simulate_non_finite_input_is_bad_input(capsys, two_kink_file):
    for text in ("nan,0.2", "inf", "0,-inf"):
        code = main(["simulate", "--network", two_kink_file, "--input", text])
        raw = capsys.readouterr().out
        # The whole output must be valid JSON, with no bare NaN token.
        out = json.loads(raw, parse_constant=lambda c: pytest.fail(f"bare {c} in {raw}"))
        assert code == 1
        assert out["error"] == "bad-input"


def test_verify_nan_or_negative_tol_is_bad_input(capsys, tmp_path):
    ann_path = tmp_path / "ann.json"
    snn_path = tmp_path / "snn.json"
    save_ann(ann_path, build_example_3_1_ann(1.0))
    assert main(["compile", "--ann", str(ann_path), "--domain=-3,3", "-o", str(snn_path)]) == 0
    capsys.readouterr()
    for tol in ("nan", "-1e-9"):
        code, out = run_cli(
            capsys, "verify", "--ann", str(ann_path), "--snn", str(snn_path),
            "--grid", "5", f"--tol={tol}",
        )
        assert code == 1
        assert out["error"] == "bad-input"
        assert "--tol" in out["detail"]


def test_usage_errors_are_bad_input(capsys):
    # argparse itself would exit with status 2, the no-fire code, and print
    # plain text.  The files need not exist: parsing fails first.
    cases = {
        # argparse reads "-1e-9" as an option, so --tol has no value.
        ("verify", "--ann", "a.json", "--snn", "s.json", "--tol", "-1e-9"): "--tol",
        ("verify", "--ann", "a.json"): "--snn",
        ("verify", "--ann", "a.json", "--snn", "s.json", "--grid", "x"): "--grid",
        ("regions", "--network", "n.json", "--bogus"): "--bogus",
        ("frobnicate",): "frobnicate",
        (): "command",
    }
    for args, name in cases.items():
        code, out = run_cli(capsys, *args)
        assert code == 1
        assert out["error"] == "bad-input"
        assert name in out["detail"]


def test_help_still_exits_zero(capsys):
    for args in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as e:
            main(args)
        assert e.value.code == 0
        assert "usage: spikec" in capsys.readouterr().out
