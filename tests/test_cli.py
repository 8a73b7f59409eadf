"""Tests for the command-line interface and JSON file formats."""

import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spikec import (
    Box,
    EncodingSpec,
    InvalidParameterError,
    Layer,
    RealizationUndefinedError,
    ReluNetwork,
    SpikingNetwork,
    TypedSNN,
    single_neuron_network,
)
from spikec import cli
from spikec.ann_core import ann_forward
from spikec.cli import main
from spikec.compiler import build_example_3_1, build_example_3_1_ann, compile_ann
from spikec.serialization import (
    FileFormatError,
    dumps_canonical,
    load_ann,
    load_snn,
    save_ann,
    save_snn,
    snn_to_dict,
)
from spikec.snn_core import ORACLE_MAX_STEPS


@pytest.fixture
def two_kink_file(tmp_path):
    path = tmp_path / "two_kink.json"
    save_snn(path, build_example_3_1(1.0, (-3.0, 3.0)))
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    # The whole output must be valid JSON, with no bare NaN or Infinity token.
    return code, json.loads(out, parse_constant=lambda c: pytest.fail(f"bare {c} in {out}"))


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


@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_simulate_domain_violation_exit_code(capsys, two_kink_file, command):
    code, out = run_cli(capsys, command, "--network", two_kink_file, "--input", "9")
    assert code == 3
    assert out == {"error": "domain-violation", "input": [9.0]}


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


@pytest.mark.parametrize("dim", [1.9, 1.0, True, "1", None])
def test_input_dim_must_be_a_json_integer(capsys, tmp_path, two_kink_file, dim):
    d = json.loads(Path(two_kink_file).read_text())
    assert d["input_dim"] == 1
    path = tmp_path / "dim.json"
    path.write_text(json.dumps(dict(d, input_dim=dim)))
    with pytest.raises(FileFormatError, match="input_dim"):
        load_snn(path)
    code, out = run_cli(capsys, "simulate", "--network", str(path), "--input", "0")
    assert code == 1
    assert out["error"] == "bad-input"
    assert "input_dim" in out["detail"]


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
    # The file carries the library's reference times and stage domains exactly.
    _, lib = compile_ann(build_example_3_1_ann(1.0), Box.cube(-3.0, 3.0, 1))
    assert report["per_stage_refs"] == [list(r) for r in lib.per_stage_refs]
    assert report["per_layer_domains"] == [
        {"lo": box.lo.tolist(), "hi": box.hi.tolist()} for box in lib.per_layer_domains
    ]
    assert len(lib.per_stage_refs) == 2

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


def test_regions_refuses_a_domain_without_interior(capsys, tmp_path):
    net = single_neuron_network([1.0, 0.5], [0.0, 0.3], 1.0)
    path = tmp_path / "flat.json"
    save_snn(path, TypedSNN(net, EncodingSpec(0.0, 2.0, Box([0.0, 0.0], [0.0, 1.0]))))
    code, out = run_cli(capsys, "regions", "--network", str(path))
    assert code == 1
    assert out == {"error": "bad-input", "detail": "box must have positive extent on every axis"}


def test_oracle_command(capsys, two_kink_file):
    code, out = run_cli(
        capsys, "oracle", "--network", two_kink_file, "--input", "0", "--dt", "1e-5"
    )
    assert code == 0
    # Two-kink gadget fires at 0.5 for x=0 (value -0.5 under the encoding).
    assert out["firing_times"][0] == pytest.approx(0.5, abs=1e-4)


def test_oracle_command_refuses_more_steps_than_its_bound(capsys, two_kink_file):
    # 2e12 steps of dt to the horizon: refused as bad input before stepping.
    code, out = run_cli(
        capsys, "oracle", "--network", two_kink_file, "--input", "0", "--dt", "1e-12"
    )
    assert code == 1
    assert out["error"] == "bad-input"
    assert "ORACLE_MAX_STEPS" in out["detail"]


def test_oracle_command_refuses_a_non_finite_dt(capsys, two_kink_file):
    for dt in ("inf", "nan", "-inf"):
        code, out = run_cli(
            capsys, "oracle", "--network", two_kink_file, "--input", "0", f"--dt={dt}"
        )
        assert code == 1
        assert out == {"error": "bad-input", "detail": "dt must be positive and finite"}


def test_oracle_command_bounds_the_whole_run_before_stepping(capsys, tmp_path, monkeypatch):
    # Three neurons, each 0.4 * ORACLE_MAX_STEPS steps from its horizon: each
    # is under the per-neuron bound, the run is over the whole-run bound.
    layer = Layer(np.ones((1, 3)), np.zeros((1, 3)), np.ones(3))
    path = tmp_path / "three.json"
    save_snn(path, TypedSNN(SpikingNetwork(1, (layer,)), EncodingSpec(0.0, 2.0, Box([0.0], [1.0]))))
    dt = 2.0 / (0.4 * ORACLE_MAX_STEPS)

    def stepped(*args):
        raise AssertionError("oracle_firing_time ran before the whole run was bounded")

    monkeypatch.setattr(cli, "oracle_firing_time", stepped)
    code, out = run_cli(
        capsys, "oracle", "--network", str(path), "--input", "0", "--dt", repr(dt)
    )
    assert code == 1
    assert out["error"] == "bad-input"
    assert "ORACLE_MAX_STEPS" in out["detail"]


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


@pytest.mark.parametrize("threads", ["0", "-3", "65", "100000"])
def test_thread_count_out_of_range_is_bad_input(capsys, tmp_path, monkeypatch, threads):
    # Refused before any pool exists: a pool of one OS thread per chunk
    # is never started.
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
    ann_path = tmp_path / "ann.json"
    snn_path = tmp_path / "snn.json"
    save_ann(ann_path, build_example_3_1_ann(1.0))
    assert main(["compile", "--ann", str(ann_path), "--domain=-3,3", "-o", str(snn_path)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("SPIKEC_THREADS", str(cli.MAX_THREADS))
    assert cli._thread_count() == cli.MAX_THREADS
    monkeypatch.setenv("SPIKEC_THREADS", threads)
    with pytest.raises(InvalidParameterError, match="SPIKEC_THREADS"):
        cli._thread_count()
    code, out = run_cli(
        capsys, "verify", "--ann", str(ann_path), "--snn", str(snn_path), "--grid", "20"
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


def test_the_runtime_needs_numpy_only(two_kink_file):
    # README promises "runtime: numpy only"; the test-only packages are
    # made unimportable in a fresh interpreter that imports and simulates.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "for name in ('scipy', 'hypothesis', 'pytest'):\n"
        "    sys.modules[name] = None\n"
        "import spikec, spikec.cli\n"
        f"sys.exit(spikec.cli.main(['simulate', '--network', {two_kink_file!r}, '--input', '0']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["output"][0] == pytest.approx(-0.5, abs=1e-12)


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
        code, out = run_cli(capsys, "simulate", "--network", two_kink_file, "--input", text)
        assert code == 1
        assert out["error"] == "bad-input"


def test_ann_file_with_non_finite_weight_is_bad_input(capsys, tmp_path):
    # verify used to print "max_err": NaN and exit 4; compile refused the
    # file only with the spiking Layer's message.
    ann_path, bad_path = tmp_path / "ann.json", tmp_path / "bad.json"
    snn_path = tmp_path / "snn.json"
    save_ann(ann_path, build_example_3_1_ann(1.0))
    assert main(["compile", "--ann", str(ann_path), "--domain=-3,3", "-o", str(snn_path)]) == 0
    capsys.readouterr()
    d = json.loads(ann_path.read_text())
    for value in (float("nan"), float("inf")):
        d["layers"][1]["W"][0][0] = value
        bad_path.write_text(json.dumps(d))
        with pytest.raises(FileFormatError, match="ReLU-network file: layer 1: .* finite"):
            load_ann(bad_path)
        for args in (("compile", "--ann", str(bad_path), "--domain=-3,3",
                      "-o", str(tmp_path / "out.json")),
                     ("verify", "--ann", str(bad_path), "--snn", str(snn_path), "--grid", "3")):
            code, out = run_cli(capsys, *args)
            assert code == 1
            assert out["error"] == "bad-input"
            assert "ReLU-network file" in out["detail"]
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("key, value, message", [
    ("t_out_ref", float("inf"), "reference times must be finite"),
    ("t_in_ref", float("-inf"), "reference times must be finite"),
    ("aux", float("nan"), "auxiliary input times must be finite"),
    ("domain", float("nan"), "box bounds must be finite"),
], ids=["inf-t_out_ref", "minus-inf-t_in_ref", "nan-aux", "nan-domain"])
def test_snn_file_with_non_finite_value_is_bad_input(capsys, tmp_path, two_kink_file,
                                                     key, value, message):
    # An infinite t_out_ref used to load and simulate to -Infinity; a NaN
    # auxiliary time was refused by simulate, yet passed verify, whose batch
    # kernel read it as Never.
    d = json.loads(Path(two_kink_file).read_text())
    if key == "aux":
        d["aux_inputs"][0]["time"] = value
    elif key == "domain":
        d["domain"]["lo"][0] = value
    else:
        d[key] = value
    path, ann_path = tmp_path / "snn.json", tmp_path / "identity.json"
    path.write_text(json.dumps(d))
    with pytest.raises(FileFormatError, match=message):
        load_snn(path)
    save_ann(ann_path, ReluNetwork(((np.ones((1, 1)), np.zeros(1)),)))
    for args in (("simulate", "--network", str(path), "--input", "0.5"),
                 ("verify", "--ann", str(ann_path), "--snn", str(path), "--grid", "3")):
        code, out = run_cli(capsys, *args)
        assert code == 1
        assert out["error"] == "bad-input"
        assert message in out["detail"]


def test_verify_nan_or_negative_tol_is_bad_input(capsys, tmp_path):
    ann_path = tmp_path / "ann.json"
    snn_path = tmp_path / "snn.json"
    save_ann(ann_path, build_example_3_1_ann(1.0))
    assert main(["compile", "--ann", str(ann_path), "--domain=-3,3", "-o", str(snn_path)]) == 0
    capsys.readouterr()
    for tol in ("nan", "-1e-9", "inf", "1e400"):
        code, out = run_cli(
            capsys, "verify", "--ann", str(ann_path), "--snn", str(snn_path),
            "--grid", "5", f"--tol={tol}",
        )
        assert code == 1
        assert out["error"] == "bad-input"
        assert "--tol" in out["detail"]


@pytest.mark.parametrize("first, second, first_bad", [
    # relu(1e300 x) * 1e300 + relu(-1e300 x) * 1e300 is inf off x = 0.
    ([[1e300], [-1e300]], [[1e300, 1e300]], -3.0),
    # relu(1e300 x) * 1e300 - relu(1e300 x) * 1e300 is inf - inf for x > 0.
    ([[1e300], [1e300]], [[1e300, -1e300]], 0.75),
], ids=["inf", "nan"])
def test_verify_refuses_a_non_finite_ann_output(capsys, tmp_path, monkeypatch,
                                                first, second, first_bad):
    ann = ReluNetwork(((np.array(first), np.zeros(2)), (np.array(second), np.zeros(1))))
    ann_path, snn_path = tmp_path / "ann.json", tmp_path / "snn.json"
    csv_path = tmp_path / "grid.csv"
    save_ann(ann_path, ann)
    save_snn(snn_path, build_example_3_1(1.0, (-3.0, 3.0)))
    # One thread checks the 9 points inline; two split them over the pool.
    for threads in ("1", "2"):
        monkeypatch.setenv("SPIKEC_THREADS", threads)
        for dump in ((), ("--dump-grid", str(csv_path))):
            code, out = run_cli(
                capsys, "verify", "--ann", str(ann_path), "--snn", str(snn_path),
                "--grid", "9", *dump,
            )
            assert code == 1
            assert out["error"] == "bad-input"
            assert f"not finite at grid point [{first_bad}]" in out["detail"]
            assert not csv_path.exists()


def test_output_paths_that_cannot_be_opened_are_bad_input(capsys, tmp_path):
    ann_path = tmp_path / "ann.json"
    snn_path = tmp_path / "snn.json"
    missing = tmp_path / "missing"
    save_ann(ann_path, build_example_3_1_ann(1.0))
    compile_args = ("compile", "--ann", str(ann_path), "--domain=-3,3")
    cases = [
        (*compile_args, "-o", str(missing / "x.json")),
        (*compile_args, "-o", str(snn_path), "--report", str(missing / "r.json")),
        ("verify", "--ann", str(ann_path), "--snn", str(snn_path),
         "--dump-grid", str(missing / "x.csv")),
    ]
    for args in cases:
        code, out = run_cli(capsys, *args)
        assert code == 1
        assert out["error"] == "bad-input"
        assert str(missing) in out["detail"]
    # The network file was written before the report failed.
    assert load_snn(snn_path).net.output_dim == 1


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


# -- verify streams its grid ---------------------------------------------------


def _dyadic_ann():
    # Weights in quarters and biases in eighths: on a grid of [-1, 1] with
    # 9 points per axis every ANN value is exact.
    rng = np.random.default_rng(3)
    return ReluNetwork((
        (rng.integers(-8, 9, (3, 2)) / 4, rng.integers(-8, 9, 3) / 8),
        (rng.integers(-8, 9, (3, 3)) / 4, rng.integers(-8, 9, 3) / 8),
        (rng.integers(-8, 9, (1, 3)) / 4, rng.integers(-8, 9, 1) / 8),
    ))


def _normal_ann():
    # 2 inputs, N(0, 1) weights and biases, widths 3, 3, 1.
    rng = np.random.default_rng(11)
    return ReluNetwork(tuple(
        (rng.normal(size=(rows, 2 if i == 0 else 3)), rng.normal(size=rows))
        for i, rows in enumerate((3, 3, 1))
    ))


def _wide_normal_ann():
    # 2 inputs, N(0, 1) weights and biases, widths 16, 16, 1: wide enough
    # that a BLAS product rounds a row by the shape of the call it is in.
    rng = np.random.default_rng(12)
    return ReluNetwork(tuple(
        (rng.normal(size=(rows, cols)), rng.normal(size=rows))
        for rows, cols in ((16, 2), (16, 16), (1, 16))
    ))


def _verify_files(tmp_path, label, ann, perturb=0.0):
    ann_path, snn_path = tmp_path / f"{label}.ann.json", tmp_path / f"{label}.snn.json"
    save_ann(ann_path, ann)
    typed, _ = compile_ann(ann, Box.cube(-1, 1, ann.input_dim))
    doc = snn_to_dict(typed)
    doc["layers"][0]["W"][0][0] += perturb
    snn_path.write_text(dumps_canonical(doc))
    return str(ann_path), str(snn_path)


def _whole_grid_verify(ann_path, snn_path, grid, tol):
    """verify's exit code and reply, from one pass over the whole grid."""
    ann, snn = load_ann(ann_path), load_snn(snn_path)
    pts = snn.enc.domain.grid(grid)
    want = ann_forward(ann, pts)
    try:
        got = snn.realize_batch(pts)
    except RealizationUndefinedError:
        return 2, None
    per_point = np.abs(got - want).max(axis=1)
    i = int(np.argmax(per_point))
    ok = bool(per_point[i] <= tol)
    out = {"max_err": float(per_point[i]), "argmax_point": pts[i].tolist(), "pass": ok}
    return (0 if ok else 4), out


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("chunk", [1, 7, cli.VERIFY_CHUNK_POINTS])
def test_streamed_verify_matches_the_whole_grid(capsys, tmp_path, monkeypatch, chunk, threads):
    default_chunk = chunk == cli.VERIFY_CHUNK_POINTS
    monkeypatch.setattr(cli, "VERIFY_CHUNK_POINTS", chunk)
    monkeypatch.setenv("SPIKEC_THREADS", threads)
    ann = _dyadic_ann()
    cases = [
        # A wrong weight: a different error at every point, exit 4.
        (*_verify_files(tmp_path, "off", ann, 1e-3), 9, 1e-9),
        # Exact everywhere: the first grid point is the argmax.
        (*_verify_files(tmp_path, "exact", ann), 9, 0.0),
        (*_never_firing_verify_files(tmp_path), 9, 1e-9),
        # N(0, 1) weights: ANN values that round, in 40000 points in two or
        # three chunks at the default size, or 1600 in runs of 1 or 7 rows.
        (*_verify_files(tmp_path, "normal", _normal_ann()), 200 if default_chunk else 40, 1e-9),
        # A row-dependent ANN evaluation gives this network other bits in
        # runs of 1 or 7 rows than in one whole-grid call.
        (*_verify_files(tmp_path, "wide", _wide_normal_ann()), 40, 1e-9),
    ]
    outs = []
    for ann_path, snn_path, grid, tol in cases:
        want_code, want = _whole_grid_verify(ann_path, snn_path, grid, tol)
        code, out = run_cli(
            capsys, "verify", "--ann", ann_path, "--snn", snn_path,
            "--grid", str(grid), f"--tol={tol}",
        )
        assert code == want_code
        if want is None:
            assert out["error"] == "no-fire"
        else:
            assert {k: out[k] for k in want} == want
        outs.append((code, out))
    assert [code for code, _ in outs[:3]] == [4, 0, 2]
    assert outs[1][1]["max_err"] == 0.0 and outs[1][1]["argmax_point"] == [-1.0, -1.0]


def test_verify_rejects_mismatched_dimensions(capsys, tmp_path):
    rng = np.random.default_rng(5)

    def ann(n_in, n_out):
        return ReluNetwork((
            (rng.normal(size=(3, n_in)), rng.normal(size=3)),
            (rng.normal(size=(n_out, 3)), rng.normal(size=n_out)),
        ))

    one_out = _verify_files(tmp_path, "one", ann(2, 1))[1]
    two_out = _verify_files(tmp_path, "two", ann(2, 2))[1]
    dump = tmp_path / "grid.csv"
    # Every pair is refused before any grid work, so no dump is opened.
    for label, other, snn_path in (("3to1", ann(2, 3), one_out),
                                   ("3to2", ann(2, 3), two_out),
                                   ("inputs", ann(3, 1), one_out)):
        ann_path = tmp_path / f"{label}.ann.json"
        save_ann(ann_path, other)
        code, out = run_cli(
            capsys, "verify", "--ann", str(ann_path), "--snn", snn_path,
            "--dump-grid", str(dump),
        )
        assert code == 1
        assert out["error"] == "bad-input" and "inputs" in out["detail"]
        assert not dump.exists()


def test_verify_chunks_cover_the_grid_in_even_bounded_runs():
    size = cli.VERIFY_CHUNK_POINTS
    for total in (1, 2, 3, 7, 1023, 6561, 14641, size, 2 * size - 1, 160000,
                  10**6 + 3, 2**40 + 17):
        for threads in (1, 2, 3, 4):
            count, start = cli._chunks(total, threads)
            assert start(0) == 0 and start(count) == total
            assert total // size <= count <= total
            if total >= threads:
                assert count % threads == 0
            runs = {start(i + 1) - start(i) for i in {*range(min(count, 50)), count - 1}}
            assert 1 <= min(runs) and max(runs) - min(runs) <= 1 and max(runs) < 2 * size


def test_grid_rows_are_slices_of_the_whole_grid():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3, 4):
        for n in (1, 2, 3, 7, 10):
            lo = rng.uniform(-5, 5, d)
            # A degenerate axis, a denormal-width axis and ordinary ones.
            hi = lo + rng.choice([0.0, 1e-310, 0.3, 4.0], d)
            if d == 2:
                # (n - 1) * step + lo rounds to 0.7000000000000002 here;
                # linspace's last value is hi itself.
                lo[1], hi[1] = -2.3, 0.7
            box = Box(lo, hi)
            axes = [np.linspace(box.lo[i], box.hi[i], n) for i in range(d)]
            whole = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
            assert box.grid(n).tobytes() == whole.tobytes()
            total = n**d
            assert box.grid_size(n) == total
            for start, stop in [(0, total), (0, 0), (total, total), (total - 1, total),
                                *(sorted(rng.integers(0, total + 1, 2)) for _ in range(5))]:
                rows = box.grid(n, start, stop)
                assert rows.shape == (stop - start, d)
                assert rows.tobytes() == whole[start:stop].tobytes()
    box = Box.cube(-1, 1, 2)
    for start, stop in ((-1, 2), (3, 2), (0, 10)):
        with pytest.raises(InvalidParameterError):
            box.grid(3, start, stop)


def test_oversize_grid_is_bad_input(capsys, tmp_path):
    net = single_neuron_network([1.0] * 4, [0.0] * 4, 1.0)
    snn_path, ann_path = tmp_path / "snn.json", tmp_path / "ann.json"
    save_snn(snn_path, TypedSNN(net, EncodingSpec(0.0, 1.0, Box.cube(0, 1, 4))))
    save_ann(ann_path, ReluNetwork(((np.ones((1, 4)), np.zeros(1)),)))
    # 100000^4 = 1e20 points overflow an int64 index.
    code, out = run_cli(
        capsys, "verify", "--ann", str(ann_path), "--snn", str(snn_path), "--grid", "100000"
    )
    assert code == 1
    assert out["error"] == "bad-input"
    assert "int64" in out["detail"]
    line = Box.cube(0, 1, 1)
    assert line.grid_size(2**63 - 1) == 2**63 - 1
    with pytest.raises(InvalidParameterError):
        line.grid_size(2**63)
    # A slice of a grid with an int64-sized axis costs only its own rows;
    # the last points of so fine an axis round to its end.
    assert line.grid(2**63 - 1, 2**63 - 3).tolist() == [[1.0], [1.0]]


def test_thread_default_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("SPIKEC_THREADS", raising=False)
    for cpus, want in (({0}, 1), ({2, 5}, 2), (set(range(8)), 4)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c, raising=False)
        assert cli._thread_count() == want
        monkeypatch.setenv("SPIKEC_THREADS", "3")
        assert cli._thread_count() == 3
        monkeypatch.delenv("SPIKEC_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert cli._thread_count() == 2


def test_dump_grid_is_the_whole_table(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "VERIFY_CHUNK_POINTS", 7)
    monkeypatch.setenv("SPIKEC_THREADS", "2")
    ann_path, snn_path = _verify_files(tmp_path, "off", _dyadic_ann(), 1e-3)
    csv_path = tmp_path / "grid.csv"
    code, _ = run_cli(
        capsys, "verify", "--ann", ann_path, "--snn", snn_path,
        "--grid", "9", "--dump-grid", str(csv_path),
    )
    assert code == 4
    ann, snn = load_ann(ann_path), load_snn(snn_path)
    pts = snn.enc.domain.grid(9)
    want, got = ann_forward(ann, pts), snn.realize_batch(pts)
    table = np.hstack([pts, want, got, np.abs(got - want).max(axis=1)[:, None]])
    ref_path = tmp_path / "ref.csv"
    np.savetxt(ref_path, table, delimiter=",", header="x1,x2,ann1,snn1,err", comments="")
    assert csv_path.read_bytes() == ref_path.read_bytes()
    # A run that stops early leaves no dump.
    ann_path, snn_path = _never_firing_verify_files(tmp_path)
    code, _ = run_cli(
        capsys, "verify", "--ann", ann_path, "--snn", snn_path,
        "--grid", "9", "--dump-grid", str(csv_path),
    )
    assert code == 2
    assert not csv_path.exists()


def test_verify_memory_does_not_grow_with_the_grid(capsys, tmp_path, monkeypatch):
    # One thread, so the peak is one chunk's working set.  181^2 = 32761
    # points is a single chunk of the largest size verify makes; 362^2 is
    # four times the points in seven chunks.
    monkeypatch.setenv("SPIKEC_THREADS", "1")
    ann_path, snn_path = _verify_files(tmp_path, "normal", _normal_ann())

    def peak(grid):
        tracemalloc.start()
        try:
            code = main(["verify", "--ann", ann_path, "--snn", snn_path, "--grid", str(grid)])
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    (code_small, small), (code_large, large) = peak(181), peak(362)
    assert code_small == code_large == 0
    assert large <= 1.5 * small + 65536


# -- the program entry tunes the allocator; main() does not ---------------------

_SRC = str(Path(__file__).resolve().parent.parent / "src")

# Loaded by the child's `site` before anything else runs: records every
# mallopt call the process makes, pretends to be glibc, and reports the calls
# on stderr at exit.
_MALLOPT_PROBE = """
import atexit, ctypes, platform, sys, types

calls = []


class Mallopt:
    argtypes = restype = None

    def __call__(self, param, value):
        calls.append([param, value])
        return 1


_cdll = ctypes.CDLL
ctypes.CDLL = lambda name, *a, **k: (
    types.SimpleNamespace(mallopt=Mallopt()) if name is None else _cdll(name, *a, **k)
)
platform.libc_ver = lambda *a, **k: ("glibc", "2.36")
atexit.register(lambda: sys.stderr.write("mallopt calls: %r" % calls))
"""


def _child_env(*extra_paths):
    # The allocator is left to the code under test: glibc's own settings
    # from the environment would hide what it does.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*extra_paths, _SRC, env.get("PYTHONPATH")]))
    env["SPIKEC_THREADS"] = "1"
    return env


def _probed(tmp_path, *cmd):
    """Runs python with `cmd` under the mallopt probe; returns the process
    and the mallopt calls it made."""
    (tmp_path / "sitecustomize.py").write_text(_MALLOPT_PROBE)
    proc = subprocess.run([sys.executable, *cmd], env=_child_env(str(tmp_path)),
                          capture_output=True, text=True, timeout=300)
    calls = json.loads(proc.stderr.rpartition("mallopt calls: ")[2])
    return proc, calls


def test_main_works_with_the_allocator_hook_broken(capsys, tmp_path, monkeypatch):
    def refuse():
        raise AssertionError("main() tuned the allocator")

    monkeypatch.setattr(cli, "_tune_malloc", refuse)
    ann_path, snn_path = _verify_files(tmp_path, "dyadic", _dyadic_ann())
    code, out = run_cli(capsys, "verify", "--ann", ann_path, "--snn", snn_path, "--grid", "9")
    assert code == 0
    assert out["pass"] is True


def test_the_spikec_script_is_the_program_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["spikec"] == "spikec.cli:run"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the allocator is tuned on Linux only")
def test_only_the_program_entry_calls_mallopt(tmp_path, two_kink_file):
    proc, calls = _probed(
        tmp_path, "-m", "spikec.cli", "simulate", "--network", two_kink_file, "--input", "0"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["output"][0] == pytest.approx(-0.5, abs=1e-12)
    assert calls == [[-3, 32 << 20], [-1, 64 << 20]]

    proc, calls = _probed(tmp_path, "-c", "import spikec, spikec.cli")
    assert proc.returncode == 0, proc.stderr
    assert calls == []


def test_the_program_entry_cuts_page_faults_not_output(tmp_path):
    # A seeded compiled width-4, depth-4 network on a 20^4 grid, as one
    # verify-narrow child checks it, one thread: the program entry and a bare
    # main() must print the same bytes, and the entry, with glibc, must take
    # at most half the minor page faults.
    rng = np.random.default_rng(1)
    ann = ReluNetwork(tuple(
        (rng.normal(size=(rows, 4)), rng.normal(size=rows)) for rows in (4, 4, 4, 1)
    ))
    ann_path, snn_path = _verify_files(tmp_path, "w4d4", ann)
    neuron = tmp_path / "neuron.json"
    save_snn(neuron, TypedSNN(single_neuron_network([0.9, -0.4, 0.7, 0.3], [0.5, 0.0, 1.25, 0.1], 0.8),
                              EncodingSpec(0.5, 3.0, Box.cube(-1.0, 1.0, 4))))
    bare_main = "import sys; from spikec.cli import main; sys.exit(main(sys.argv[1:]))"

    def child(entry, *args):
        proc = subprocess.Popen([sys.executable, *entry, *args], env=_child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        killer = threading.Timer(300, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            # wait4, not wait: it returns the child's own page faults.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, usage.ru_minflt

    runs = {}
    for name, args in {
        "verify": ("verify", "--ann", ann_path, "--snn", snn_path, "--grid", "20"),
        "simulate": ("simulate", "--network", snn_path, "--input", "0.3,-0.7,0.1,0.9", "--trace"),
        "regions": ("regions", "--network", str(neuron)),
    }.items():
        entry, bare = child(("-m", "spikec.cli"), *args), child(("-c", bare_main), *args)
        assert entry[:2] == bare[:2], name
        assert entry[0] == 0 and json.loads(entry[1]), name
        runs[name] = entry[2], bare[2]
    if platform.libc_ver()[0] == "glibc":
        # glibc accepts every setting (in a child, so that this process's
        # allocator is left alone).
        took = subprocess.run(
            [sys.executable, "-c", "from spikec.cli import _tune_malloc; print(_tune_malloc())"],
            env=_child_env(), capture_output=True, text=True, timeout=60,
        )
        assert took.stdout.strip() == "True", took.stderr
        entry_faults, bare_faults = runs["verify"]
        assert entry_faults <= bare_faults / 2, runs
