"""Command-line interface: reports, exit codes, reproducibility."""

import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cstar_frames
from cstar_frames import cli, weaving
from cstar_frames.cli import EXIT_CODES, main
from cstar_frames.constructors import CompactTightCert
from cstar_frames.decomposition import DeviationCertificate, ShiftDecomposition, shift_decompose
from cstar_frames.errors import FrameFileError
from cstar_frames.frame_io import LoadedFrame, load_frame, save_frame
from cstar_frames.frames import MAX_FRAME_ENTRIES, FrameSystem, frame_from_operator, optimal_bounds
from cstar_frames.module_space import ModuleOperator, ModuleShape, ModuleVector, standard_basis
from cstar_frames.weaving import Partition, WeavingReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def write_onb(path, n=3, d=1, scale=None):
    basis = standard_basis(ModuleShape(d, n))
    vectors = [scale * e for e in basis] if scale is not None else basis
    save_frame(path, FrameSystem(vectors))
    return path


# ------------------------------------------------------------------- analyze

def test_analyze_onb(capsys, tmp_path):
    path = write_onb(tmp_path / "onb.json")
    report = run_json(capsys, "analyze", str(path))
    assert report["bounds"]["lower"] == 1.0
    assert report["bounds"]["upper"] == 1.0
    assert report["bounds"]["tight"] is True
    assert report["bounds"]["isFrame"] is True


def test_analyze_with_decomposition(capsys, tmp_path):
    code, out, err = run(capsys, "construct", "t4", "--kind", "gaussian",
                         "--xi", "1", "--c", "1", "--n", "8",
                         "--out", str(tmp_path / "t4.json"))
    assert code == 0
    report = run_json(capsys, "analyze", str(tmp_path / "t4.json"),
                      "--xi", "1", "--eta", "0", "--alpha", "1")
    dec = report["decomposition"]
    assert dec["besselBound"] == pytest.approx(2.0, abs=1e-9)
    assert dec["allPartsHold"] is True
    assert dec["parts"]["positiveShiftImpliesFrame"]["holds"] is True
    assert dec["parts"]["selfAdjoint"]["holds"] is True
    assert dec["parts"]["lowerBoundImpliesPositive"]["holds"] is True
    assert report["certificate"]["valid"] is True


def test_analyze_malformed_file_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": "cstar-frames/1"\n broken')
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "line" in err and "column" in err


def test_analyze_json_reproducible(capsys, tmp_path):
    path = write_onb(tmp_path / "onb.json")
    first = run_json(capsys, "analyze", str(path), "--xi", "1")
    second = run_json(capsys, "analyze", str(path), "--xi", "1")
    first.pop("timing")
    second.pop("timing")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_analyze_report_numbers_round_trip(capsys, tmp_path):
    path = write_onb(tmp_path / "onb.json", scale=math.sqrt(2.0))
    report = run_json(capsys, "analyze", str(path))
    again = json.loads(json.dumps(report))
    assert again["bounds"]["lower"] == report["bounds"]["lower"]
    assert again["bounds"]["upper"] == report["bounds"]["upper"]


# ----------------------------------------------------------------- construct

def test_construct_t4_reference(capsys, tmp_path):
    out = tmp_path / "t4.json"
    report = run_json(capsys, "construct", "t4", "--kind", "gaussian",
                      "--xi", "1", "--c", "1", "--n", "8", "--out", str(out))
    assert abs(report["bounds"]["lower"] - (1.0 + math.exp(-32.0))) <= 1e-9
    assert abs(report["bounds"]["upper"] - 2.0) <= 1e-9
    assert report["certificateEmbedded"] is True
    loaded = load_frame(out)
    assert loaded.certificate is not None


def test_construct_repetition_bounds(capsys, tmp_path):
    out = tmp_path / "rep.json"
    report = run_json(capsys, "construct", "repetition", "--n", "3",
                      "--repeat", "1:3", "--out", str(out))
    assert report["bounds"]["lower"] == pytest.approx(1.0, abs=1e-12)
    assert report["bounds"]["upper"] == pytest.approx(3.0, abs=1e-12)


def test_construct_t49_writes_two_files(capsys, tmp_path):
    prefix = tmp_path / "sc"
    report = run_json(capsys, "construct", "t49", "--n", "8",
                      "--profile1", "gaussian:1", "--profile2", "gaussian:1",
                      "--out", str(prefix))
    assert report["files"] == {"a": f"{prefix}-a.json", "b": f"{prefix}-b.json"}
    assert sorted(path.name for path in tmp_path.iterdir()) == ["sc-a.json", "sc-b.json"]
    loaded_a = load_frame(report["files"]["a"])
    loaded_b = load_frame(report["files"]["b"])
    assert loaded_a.scenario["role"] == "a"
    assert loaded_b.scenario["role"] == "b"
    # The adversarial partition takes family 2 on sigma and family 1 elsewhere.
    for scenario in (loaded_a.scenario, loaded_b.scenario):
        assignment = tuple(2 if k in scenario["sigma"] else 1 for k in range(1, 9))
        assert assignment == (2, 1, 2, 1, 2, 1, 2, 1)
    assert report["boundsA"]["lower"] >= 1.0 - 1e-9
    assert report["boundsB"]["lower"] >= 1.0 - 1e-9


def test_construct_invalid_flags_exit_4(capsys, tmp_path):
    code, _, err = run(capsys, "construct", "t4", "--kind", "gaussian",
                       "--xi", "-1", "--c", "1", "--n", "4",
                       "--out", str(tmp_path / "x.json"))
    assert code == 4
    code, _, _ = run(capsys, "construct", "t4", "--kind", "gaussian", "--xi", "1")
    assert code == 4
    code, _, _ = run(capsys, "construct", "repetition", "--n", "3",
                     "--repeat", "9:2", "--out", str(tmp_path / "y.json"))
    assert code == 4
    code, _, _ = run(capsys, "construct", "t49", "--n", "7",
                     "--profile1", "gaussian:1", "--profile2", "gaussian:1",
                     "--out", str(tmp_path / "z"))
    assert code == 4


@pytest.mark.parametrize("argv,written", [
    (["t4", "--kind", "gaussian", "--xi", "1", "--c", "1", "--n", "4"], "out"),
    (["repetition", "--n", "3", "--repeat", "1:3"], "out"),
    (["t49", "--n", "8", "--profile1", "gaussian:1", "--profile2", "gaussian:1"], "out-a.json"),
])
def test_construct_read_back_drift_exit_2(capsys, tmp_path, monkeypatch, argv, written):
    def drifted(path):
        loaded = load_frame(path)
        system = FrameSystem(2.0 * loaded.system.synthesis, loaded.system.shape)
        return LoadedFrame(system, loaded.certificate, loaded.scenario)

    monkeypatch.setattr(cli, "load_frame", drifted)
    code, _, err = run(capsys, "construct", *argv, "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith(f"error: {tmp_path / written}: bounds drifted on read-back: ")
    # Nothing is written after the file that failed its check.
    assert [path.name for path in tmp_path.iterdir()] == [written]


_EXPECTED_SPECS = "expected gaussian:c, geometric:c:r, or power:c:p"


@pytest.mark.parametrize("spec,message", [
    ("constant:1", f"bad profile spec 'constant:1'; {_EXPECTED_SPECS}"),
    ("gaussian", f"bad profile spec 'gaussian'; {_EXPECTED_SPECS}"),
    ("gaussian:1:2", f"bad profile spec 'gaussian:1:2'; {_EXPECTED_SPECS}"),
    ("geometric:1", f"bad profile spec 'geometric:1'; {_EXPECTED_SPECS}"),
    ("power:1:x", "bad profile spec 'power:1:x': could not convert string to float: 'x'"),
    ("geometric:1:2",
     "bad profile spec 'geometric:1:2': geometric profiles need a ratio r in (0, 1)"),
])
def test_construct_t49_bad_profile_spec_message(capsys, tmp_path, spec, message):
    code, _, err = run(capsys, "construct", "t49", "--n", "8", "--profile1", spec,
                       "--profile2", "gaussian:1", "--out", str(tmp_path / "sc"))
    assert code == 4
    assert err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_construct_t4_count_zero_exit_4(capsys, tmp_path):
    code, stdout, err = run(capsys, "construct", "t4", "--kind", "gaussian", "--xi", "1",
                            "--c", "1", "--n", "4", "--count", "0",
                            "--out", str(tmp_path / "t4.json"))
    assert (code, stdout, err) == (4, "", "error: count must be >= 1\n")
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------- perturb

def test_perturb_equal_files(capsys, tmp_path):
    path = write_onb(tmp_path / "onb.json", n=4)
    report = run_json(capsys, "perturb", str(path), str(path), "--xi", "0")
    assert report["mu"] == pytest.approx(0.0, abs=1e-12)
    assert report["predicted"]["low"] == pytest.approx(1.0, abs=1e-12)
    assert report["predicted"]["high"] == pytest.approx(1.0, abs=1e-12)
    assert report["sandwich"]["holds"] is True


def test_perturb_scaled_vector(capsys, tmp_path):
    eps = 0.1
    base = write_onb(tmp_path / "f.json", n=4)
    basis = standard_basis(ModuleShape(1, 4))
    bumped = [(1.0 + eps) * basis[0]] + list(basis[1:])
    save_frame(tmp_path / "g.json", FrameSystem(bumped))
    report = run_json(capsys, "perturb", str(base), str(tmp_path / "g.json"),
                      "--xi", "0")
    assert report["mu"] == pytest.approx(eps, abs=1e-12)
    assert report["predicted"]["low"] == pytest.approx((1 - eps) ** 2, abs=1e-12)
    assert report["predicted"]["high"] == pytest.approx((1 + eps) ** 2, abs=1e-12)
    assert report["sandwich"]["applicable"] is True
    assert report["sandwich"]["holds"] is True


def test_perturb_not_applicable(capsys, tmp_path):
    base = write_onb(tmp_path / "f.json", n=4)
    basis = standard_basis(ModuleShape(1, 4))
    far = [3.0 * basis[0]] + list(basis[1:])
    save_frame(tmp_path / "g.json", FrameSystem(far))
    code, out, err = run(capsys, "perturb", str(base), str(tmp_path / "g.json"),
                         "--xi", "0")
    assert code == 0
    assert "NotApplicable" in out


def test_perturb_shape_mismatch_exit_3(capsys, tmp_path):
    a = write_onb(tmp_path / "a.json", n=3)
    b = write_onb(tmp_path / "b.json", n=4)
    code, _, err = run(capsys, "perturb", str(a), str(b), "--xi", "0")
    assert code == 3


# --------------------------------------------------------------------- weave

def test_weave_identical_onbs(capsys, tmp_path):
    path = write_onb(tmp_path / "onb.json")
    report = run_json(capsys, "weave", str(path), str(path))
    assert report["universalLower"] == pytest.approx(1.0, abs=1e-12)
    assert report["universalUpper"] == pytest.approx(1.0, abs=1e-12)
    assert report["isWoven"] is True
    assert report["partitionsChecked"] == 8


def test_weave_scaled_pair(capsys, tmp_path):
    a = write_onb(tmp_path / "a.json")
    b = write_onb(tmp_path / "b.json", scale=math.sqrt(2.0))
    report = run_json(capsys, "weave", str(a), str(b))
    assert report["universalLower"] == pytest.approx(1.0, abs=1e-10)
    assert report["universalUpper"] == pytest.approx(2.0, abs=1e-10)


def test_weave_cap_exit_5(capsys, tmp_path):
    path = write_onb(tmp_path / "onb.json")
    code, _, err = run(capsys, "weave", str(path), str(path),
                       "--max-partitions", "7")
    assert code == 5


def test_weave_sweep_decay_table(capsys, tmp_path):
    prefix = tmp_path / "sc"
    built = run_json(capsys, "construct", "t49", "--n", "8",
                     "--profile1", "gaussian:1", "--profile2", "gaussian:1",
                     "--out", str(prefix))
    report = run_json(capsys, "weave", built["files"]["a"], built["files"]["b"],
                      "--tol", "1e-6", "--sweep", "4,8,12")
    assert report["isWoven"] is False  # adversarial minimum below 1e-6 at size 8
    rows = report["sweep"]
    assert [row["size"] for row in rows] == [4, 8, 12]
    minima = [row["adversarialMin"] for row in rows]
    assert minima[0] > minima[1] > minima[2]
    for row in rows:
        assert row["adversarialMin"] <= row["envelope"]


def spy_on_hermitian_eigen(monkeypatch):
    """A list that gets each hermitian_eigen call's `vectors`, True unless given.

    The spy is bound wherever the package imported hermitian_eigen, weaving,
    cli and linalg among them, so calls from inside linalg are seen too.
    """
    original = cli.hermitian_eigen
    calls = []

    def spy(matrix, **kwargs):
        calls.append(kwargs.get("vectors", True))
        return original(matrix, **kwargs)

    bound = [name for name, module in sys.modules.items() if name.startswith("cstar_frames")
             and getattr(module, "hermitian_eigen", None) is original]
    assert {"cstar_frames.weaving", "cstar_frames.cli", "cstar_frames.linalg"} <= set(bound)
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "hermitian_eigen", spy)
    return calls


@pytest.mark.parametrize("positions,sweep", [(6, []), (8, [4, 8, 12])])
def test_weave_makes_one_eigensolve_per_partition_and_sweep_size(capsys, tmp_path, monkeypatch,
                                                                 positions, sweep):
    """A weave of m families at N positions with --sweep s1,...,sk makes m^N + k eigensolves.

    The count is the one the benchmark pins for its weave workloads; the wrapper is bound
    wherever the package imported hermitian_eigen, weaving and cli among them.
    """
    prefix = tmp_path / "sc"
    built = run_json(capsys, "construct", "t49", "--n", str(positions),
                     "--profile1", "geometric:1:0.7", "--profile2", "geometric:1.5:0.8",
                     "--out", str(prefix))
    calls = spy_on_hermitian_eigen(monkeypatch)
    argv = ["weave", built["files"]["a"], built["files"]["b"]]
    if sweep:
        argv += ["--sweep", ",".join(map(str, sweep))]
    report = run_json(capsys, *argv)
    assert report["partitionsChecked"] == 2 ** positions
    assert len(calls) == 2 ** positions + len(sweep)


def test_eigenvectors_are_computed_only_where_they_are_read(capsys, tmp_path, monkeypatch):
    """Each command's hermitian_eigen calls, and how many of them compute eigenvectors.

    Only dual reads eigenvectors, in hermitian_inverse; every other call is
    values only.  The totals are the eigensolves per call that the benchmark
    pins: analyze 10 with --xi --eta --alpha and 1 without, dual 4, perturb 8,
    construct repetition 2, and m^N plus one per --sweep size for weave.
    """
    rng = np.random.default_rng(5)
    shape = ModuleShape(2, 3)
    first = rng.standard_normal((16, 6)) + 1j * rng.standard_normal((16, 6))
    second = first + 1e-3 * (rng.standard_normal((16, 6)) + 1j * rng.standard_normal((16, 6)))
    f, g = str(tmp_path / "f.json"), str(tmp_path / "g.json")
    save_frame(f, FrameSystem(first, shape=shape))
    save_frame(g, FrameSystem(second, shape=shape))
    pair = tmp_path / "pair"
    calls = spy_on_hermitian_eigen(monkeypatch)
    expected = [
        (["analyze", f], 1, 0),
        (["analyze", f, "--xi", "1.0", "--eta", "0.5", "--alpha", "1.0"], 10, 0),
        (["dual", f, "--out", str(tmp_path / "dual.json")], 4, 1),
        (["perturb", f, g, "--xi", "1.0", "--eta", "0.5"], 8, 0),
        (["construct", "t4", "--kind", "gaussian", "--xi", "1", "--c", "1", "--n", "8",
          "--out", str(tmp_path / "t4.json")], 2, 0),
        (["construct", "repetition", "--n", "3", "--repeat", "1:3",
          "--out", str(tmp_path / "rep.json")], 2, 0),
        (["construct", "t49", "--n", "6", "--profile1", "geometric:1:0.7",
          "--profile2", "geometric:1.5:0.8", "--out", str(pair)], 4, 0),
        (["weave", f"{pair}-a.json", f"{pair}-b.json", "--sweep", "4,8"], 2**6 + 2, 0),
        (["weave", f, g], 2**8, 0),
    ]
    for argv, total, with_vectors in expected:
        calls.clear()
        run_json(capsys, *argv)
        assert (len(calls), calls.count(True)) == (total, with_vectors), argv


def test_benchmark_pins_hold(capsys, tmp_path, monkeypatch):
    """Each command of each benchmark workload, at seed 1, makes the eigensolves pinned in
    bench/workloads.py, and its report passes the benchmark's oracle."""
    monkeypatch.syspath_prepend(str(Path(cstar_frames.__file__).parents[2] / "bench"))
    workloads = importlib.import_module("workloads").WORKLOADS
    calls = spy_on_hermitian_eigen(monkeypatch)
    for name, workload in workloads.items():
        (tmp_path / name).mkdir()
        for step in workload.prepare(1, tmp_path / name, main):
            calls.clear()
            code, out, err = run(capsys, *step.argv)
            assert code == 0, err
            step.check(json.loads(out))
            assert len(calls) == workload.eigen_calls[step.command], (name, step.command)
    assert [sorted(w.eigen_calls.values()) for w in workloads.values()] == [
        [4, 8, 10], [1, 2], [1024], [16388]]


def test_weave_sweep_without_scenario_exit_4(capsys, tmp_path):
    path = write_onb(tmp_path / "onb.json")
    code, _, err = run(capsys, "weave", str(path), str(path), "--sweep", "4,8")
    assert code == 4


# ---------------------------------------------------------------------- dual

def test_dual_onb_is_self(capsys, tmp_path):
    path = write_onb(tmp_path / "onb.json")
    out = tmp_path / "dual.json"
    report = run_json(capsys, "dual", str(path), "--out", str(out))
    assert report["dual"]["lower"] == pytest.approx(1.0, abs=1e-12)
    assert report["dual"]["upper"] == pytest.approx(1.0, abs=1e-12)


def test_dual_reciprocal_bounds(capsys, tmp_path):
    src = tmp_path / "t4.json"
    built = run_json(capsys, "construct", "t4", "--kind", "gaussian",
                     "--xi", "1", "--c", "1", "--n", "6", "--out", str(src))
    out = tmp_path / "dual.json"
    report = run_json(capsys, "dual", str(src), "--out", str(out))
    assert report["dual"]["lower"] == pytest.approx(
        1.0 / built["bounds"]["upper"], rel=1e-9)
    assert report["dual"]["upper"] == pytest.approx(
        1.0 / built["bounds"]["lower"], rel=1e-9)
    assert report["certificateEmbedded"] is True
    loaded = load_frame(out)
    assert loaded.certificate is not None
    assert loaded.certificate.xi == pytest.approx(1.0)


def test_dual_drops_a_certificate_its_loader_would_refuse(capsys, tmp_path):
    # S = diag(100, 1, 1, 1) + E, E = 5e-10 ||S||_F at (2, 3) and (3, 2): the
    # certificate diag(100, 1, 1, 1) misses S by 7.1e-10 and loads, but its dual
    # misses S^-1 by 4.1e-8, past the loader's DEFAULT_TOL = 1e-9.
    shape = ModuleShape(1, 4)
    operator = np.diag([100.0, 1.0, 1.0, 1.0])
    operator[1, 2] = operator[2, 1] = 5e-10 * np.linalg.norm(operator)
    source, out = tmp_path / "frame.json", tmp_path / "dual.json"
    save_frame(source, frame_from_operator(operator, shape),
               CompactTightCert(shape, 1.0, [99.0, 0.0, 0.0, 0.0]))
    assert load_frame(source).certificate is not None
    report = run_json(capsys, "dual", str(source), "--out", str(out))
    assert report["certificateEmbedded"] is False
    assert "certificate" not in json.loads(out.read_text())
    run_json(capsys, "analyze", str(out))


def test_dual_not_a_frame_exit_6(capsys, tmp_path):
    shape = ModuleShape(1, 2)
    save_frame(tmp_path / "thin.json",
               FrameSystem([ModuleVector(shape, [[1.0, 0.0]])]))
    code, _, err = run(capsys, "dual", str(tmp_path / "thin.json"),
                       "--out", str(tmp_path / "never.json"))
    assert code == 6


def test_profile_certificate_permutation_outside_the_module_exit_2(capsys, tmp_path):
    # With no alphas the permutation places the profile; CompactTightCert names its range.
    path = tmp_path / "t4.json"
    run_json(capsys, "construct", "t4", "--kind", "gaussian", "--xi", "1", "--c", "1",
             "--n", "4", "--out", str(path))
    payload = json.loads(path.read_text())
    del payload["certificate"]["alphas"]
    payload["certificate"]["permutation"] = [1, 2, 3, 5]
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert err == f"error: {path}: certificate: permutation entries must lie in 1..4\n"


# ------------------------------------------------------------------- general

def test_unknown_flag_exit_4(capsys, tmp_path):
    path = write_onb(tmp_path / "onb.json")
    code, _, _ = run(capsys, "analyze", str(path), "--bogus")
    assert code == 4


def test_missing_file_exit_2(capsys, tmp_path):
    path = tmp_path / "nope.json"
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert err == f"error: {path}: [Errno 2] No such file or directory: '{path}'\n"


@pytest.mark.parametrize("command", ["analyze", "perturb"])
def test_negative_eta_exit_4(capsys, tmp_path, command):
    path = str(write_onb(tmp_path / "onb.json"))
    files = [path] if command == "analyze" else [path, path]
    code, _, err = run(capsys, command, *files, "--xi", "1", "--eta", "-0.5")
    assert code == 4
    assert "--eta" in err


@pytest.mark.parametrize("flags,message", [
    (["--eta", "1"], "--eta needs --xi"),
    (["--xi", "1", "--alpha", "1"], "--alpha needs --eta"),
    (["--alpha", "1"], "--alpha needs --eta"),
])
def test_analyze_flag_without_its_prerequisite_exit_4(capsys, tmp_path, flags, message):
    # Refused before the file is read: the file does not exist.
    code, stdout, err = run(capsys, "analyze", str(tmp_path / "nope.json"), *flags)
    assert code == 4 and stdout == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["analyze", "perturb", "weave", "dual"])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "abc"])
def test_bad_tol_exit_4(capsys, tmp_path, command, tol):
    path = str(write_onb(tmp_path / "onb.json"))
    argv = {
        "analyze": ["analyze", path],
        "perturb": ["perturb", path, path, "--xi", "1"],
        "weave": ["weave", path, path],
        "dual": ["dual", path, "--out", str(tmp_path / "dual.json")],
    }[command]
    code, _, err = run(capsys, *argv, "--tol", tol)
    assert code == 4
    assert "--tol" in err


def test_zero_tol_accepted(capsys, tmp_path):
    path = write_onb(tmp_path / "onb.json")
    report = run_json(capsys, "analyze", str(path), "--tol", "0")
    assert report["bounds"]["isFrame"] is True


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_weave_nonpositive_max_partitions_exit_4(capsys, tmp_path, cap):
    path = write_onb(tmp_path / "onb.json")
    code, _, err = run(capsys, "weave", str(path), str(path), "--max-partitions", cap)
    assert code == 4
    assert "--max-partitions" in err


def test_unwritable_out_exit_4(capsys, tmp_path):
    path = write_onb(tmp_path / "onb.json")
    target = tmp_path / "missing-dir" / "x.json"
    for argv in (
        ["dual", str(path), "--out", str(target)],
        ["construct", "t4", "--kind", "gaussian", "--xi", "1", "--c", "1", "--n", "4",
         "--out", str(target)],
        ["construct", "repetition", "--n", "3", "--repeat", "1:2", "--out", str(target)],
        ["construct", "t49", "--n", "4", "--profile1", "gaussian:1",
         "--profile2", "gaussian:1", "--out", str(tmp_path / "missing-dir" / "pair")],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 4, argv
        assert "missing-dir" in err



@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_that_fills_mid_write_exit_4(tmp_path):
    """A write that fails part way through a stream exits 4 with the OS error alone."""
    path = write_onb(tmp_path / "onb.json")
    src = Path(cstar_frames.__file__).parent.parent
    for argv in (["construct", "repetition", "--n", "64", "--repeat", "5:1001", "--out", "/dev/full"],
                 ["dual", str(path), "--out", "/dev/full"]):
        done = subprocess.run([sys.executable, "-m", "cstar_frames.cli", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 4, argv
        assert done.stderr == "error: [Errno 28] No space left on device\n", argv


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_standard_output_exit_4(tmp_path, fmt):
    """A report printed to a pipe whose reader has gone exits 4 with one error line."""
    path = write_onb(tmp_path / "onb.json")
    src = Path(cstar_frames.__file__).parent.parent
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "cstar_frames.cli", "analyze", str(path),
                               "--format", fmt], stdout=write, stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
    finally:
        os.close(write)
    assert done.returncode == 4
    assert done.stderr == "error: [Errno 32] Broken pipe\n"


def test_closed_standard_output_and_error_exit_with_the_mapped_code(tmp_path):
    """With both streams one pipe whose reader has gone, the exit code is all that is left."""
    path = write_onb(tmp_path / "onb.json")
    src = Path(cstar_frames.__file__).parent.parent
    for argv, code in ((["analyze", str(path), "--format", "json"], 4),
                       (["analyze", str(tmp_path / "missing.json")], 2)):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "cstar_frames.cli", *argv], stdout=write,
                                  stderr=write, env={**os.environ, "PYTHONPATH": str(src)})
        finally:
            os.close(write)
        assert done.returncode == code, argv


def _write_minified(path, synthesis):
    """A d = 1 frame file with the rows of `synthesis` as its vectors, as minified JSON."""
    pairs = np.stack([synthesis.real, synthesis.imag], axis=-1)[:, :, None, None, :]
    path.write_text(json.dumps({"algebra": {"d": 1}, "module": {"n": synthesis.shape[1]},
                                "schema": "cstar-frames/1", "vectors": pairs.tolist()},
                               separators=(",", ":")))


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    """analyze prints the same bytes, apart from timing, on one OpenBLAS thread and on two.

    Threaded, LAPACK's Hermitian reduction of a dense dim-256 S (an exact
    integer Gram here), and the Gram of 16384 rows, each round in another order.
    """
    rng = np.random.default_rng(1)
    dense = rng.integers(-9, 10, (256, 256)) + 1j * rng.integers(-9, 10, (256, 256))
    src = Path(cstar_frames.__file__).parent.parent
    for name, synthesis in (("dense", dense), ("long", rng.standard_normal((16384, 1)) + 0j)):
        path = tmp_path / f"{name}.json"
        _write_minified(path, synthesis)
        reports = []
        for threads in ("1", "2"):
            done = subprocess.run([sys.executable, "-m", "cstar_frames.cli", "analyze", str(path),
                                   "--format", "json"], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": str(src),
                                       "OPENBLAS_NUM_THREADS": threads})
            assert (done.returncode, done.stderr) == (0, "")
            reports.append(re.sub(r'"seconds": .*', "", done.stdout))
        assert reports[0] == reports[1], name


def test_main_runs_on_one_blas_thread_and_restores_the_callers(capsys, tmp_path, monkeypatch):
    threads = cli._openblas_threads()
    if threads is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    get, set_ = threads
    seen, original = [], cli.optimal_bounds
    monkeypatch.setattr(cli, "optimal_bounds", lambda *args: seen.append(get()) or original(*args))
    saved = get()
    set_(2)
    try:
        run_json(capsys, "analyze", str(write_onb(tmp_path / "onb.json")))
        assert (seen, get()) == ([1], 2)
    finally:
        set_(saved)


@pytest.mark.parametrize("command,flags", [
    ("analyze", ["--xi", "nan"]),
    ("analyze", ["--xi", "inf"]),
    ("analyze", ["--xi=-inf"]),
    ("analyze", ["--xi", "1", "--eta", "0.5", "--alpha", "nan"]),
    ("analyze", ["--xi", "1", "--eta", "0.5", "--alpha", "inf"]),
    ("perturb", ["--xi", "nan"]),
    ("perturb", ["--xi", "inf"]),
])
def test_non_finite_xi_alpha_exit_4(capsys, tmp_path, command, flags):
    code, _, _ = run(capsys, "construct", "t4", "--kind", "gaussian", "--xi", "1",
                     "--c", "1", "--n", "4", "--out", str(tmp_path / "t4.json"))
    assert code == 0
    path = str(tmp_path / "t4.json")
    files = [path] if command == "analyze" else [path, path]
    code, _, err = run(capsys, command, *files, *flags)
    assert code == 4
    assert "must be finite" in err


# (S - xi*I) + xi*I rounds at about |xi|*eps, far above 1e-12 * ||S|| once
# |xi| >> ||S||; the consistency check must scale with the remainder too.
@pytest.mark.parametrize("command,xi", [
    ("analyze", "1e5"),
    ("analyze", "-1e5"),
    ("analyze", "1e6"),
    ("analyze", "1e20"),
    ("analyze", "1e150"),
    ("analyze", "1e160"),
    ("perturb", "1e5"),
])
def test_large_xi_exit_0(capsys, tmp_path, command, xi):
    code, _, _ = run(capsys, "construct", "t4", "--kind", "gaussian", "--xi", "1",
                     "--c", "1", "--n", "4", "--out", str(tmp_path / "t4.json"))
    assert code == 0
    path = str(tmp_path / "t4.json")
    files = [path] if command == "analyze" else [path, path]
    plain = run_json(capsys, command, *files, "--xi=0")
    report = run_json(capsys, command, *files, f"--xi={xi}")
    if command == "analyze":
        assert report["bounds"] == plain["bounds"]
        bessel = report["decomposition"]["besselBound"]
    else:
        assert report["actual"] == plain["actual"]
        bessel = report["besselBound"]
    # ||S - xi*I|| + |xi| >= ||S|| = 2 for this frame (triangle inequality).
    assert bessel >= 2.0 * (1 - 1e-12) and math.isfinite(bessel)


def test_xi_1e160_bessel_bound(capsys, tmp_path):
    # ||S - xi*I||^2 overflows a double here; the norm itself does not.
    run_json(capsys, "construct", "t4", "--kind", "gaussian", "--xi", "1", "--c", "1",
             "--n", "4", "--out", str(tmp_path / "t4.json"))
    report = run_json(capsys, "analyze", str(tmp_path / "t4.json"), "--xi", "1e160")
    assert report["decomposition"]["besselBound"] == 2e160


def test_analyze_huge_entry_exit_0(capsys, tmp_path):
    # S = 1e200 is finite, but the Gram S* S inside the norms is not.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"schema": "cstar-frames/1", "algebra": {"d": 1},
                                "module": {"n": 1}, "vectors": [[[[[1e100, 0.0]]]]]}))
    report = run_json(capsys, "analyze", str(path), "--xi", "0", "--eta", "0.5")
    dec = report["decomposition"]
    assert report["bounds"]["lower"] == report["bounds"]["upper"] == 1e200
    assert dec["besselBound"] == 1e200
    assert dec["lowerBound"]["rho"] == 1e200
    assert dec["allPartsHold"] is True


# json.loads refuses an integer past int's digit limit with a plain ValueError.
@pytest.mark.parametrize("where", ["vectors", "algebra.d"])
def test_analyze_long_integer_exit_2(capsys, tmp_path, where):
    long_integer = "1" * 5000
    vectors = long_integer if where == "vectors" else "1.0"
    d = long_integer if where == "algebra.d" else "1"
    path = tmp_path / "long.json"
    path.write_text('{"algebra": {"d": %s}, "module": {"n": 1}, "schema": "cstar-frames/1", '
                    '"vectors": [[[[[%s, 0.0]]]]]}' % (d, vectors))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: invalid JSON: an integer has more than "
                   f"{sys.get_int_max_str_digits()} digits\n")


def test_deviation_witness_with_cancellation_exit_0(capsys, tmp_path):
    # At eta = 1e5 the witness c^2 T T* - (alpha - T)(alpha - T)* cancels to
    # far below its terms, whose rounding is not symmetric at dim 6.
    rng = np.random.default_rng(7)
    synthesis = 100.0 * (rng.standard_normal((20, 6)) + 1j * rng.standard_normal((20, 6)))
    path = tmp_path / "frame.json"
    save_frame(path, FrameSystem(synthesis, ModuleShape(2, 3)))
    report = run_json(capsys, "analyze", str(path), "--xi", "0", "--eta", "1e5",
                      "--alpha", "0.001")
    assert math.isfinite(report["decomposition"]["deviation"]["slack"])


def test_deviation_at_xi_1e160_exit_0(capsys, tmp_path):
    # The witness squares T ~ 1e160: its verdict is taken on T / 2^k, and its
    # smallest eigenvalue, about -1e320, is past the double range: null.
    run_json(capsys, "construct", "t4", "--kind", "gaussian", "--xi", "1", "--c", "1",
             "--n", "4", "--out", str(tmp_path / "t4.json"))
    code, out, err = run(capsys, "analyze", str(tmp_path / "t4.json"), "--xi", "1e160",
                         "--eta", "0.5", "--alpha", "1", "--format", "json")
    assert code == 0, err
    assert "Infinity" not in out and "NaN" not in out
    deviation = json.loads(out)["decomposition"]["deviation"]
    assert deviation["holds"] is False
    assert deviation["slack"] is None


def test_deviation_of_a_remainder_with_rounding_skew_exit_0(capsys, tmp_path, monkeypatch):
    # A tight frame whose S = X*X is not Hermitian bit for bit: T = S - I is then
    # rounding noise, skew at S's size, which ShiftDecomposition accepts but which
    # is all of T.  The deviation verdict is taken on T's Hermitian part.
    def skewed(system, xi):
        dec = shift_decompose(system, xi)
        dim = dec.source.shape.dim
        skew = 1e-16 * (np.triu(np.ones((dim, dim)), 1) - np.tril(np.ones((dim, dim)), -1))
        return ShiftDecomposition(xi=dec.xi, source=dec.source,
                                  remainder=ModuleOperator(dec.source.shape,
                                                           dec.remainder.mat + skew))

    monkeypatch.setattr(cli, "shift_decompose", skewed)
    path = write_onb(tmp_path / "onb.json", n=5, d=3)
    report = run_json(capsys, "analyze", str(path), "--xi", "1", "--eta", "1", "--alpha", "0")
    assert report["decomposition"]["deviation"] == {"alpha": 0.0, "eta": 1.0, "holds": True,
                                                    "slack": 0.0}


def test_deviation_of_a_remainder_of_rounding_size_holds_exit_0(capsys, tmp_path, monkeypatch):
    # A tight frame whose T = S - I is Hermitian rounding noise, eigenvalues +-1e-16:
    # |0 - t| <= c|t| misses by 5e-33, which is nothing at the size of S and xi = 1.
    def noisy(system, xi):
        dec = shift_decompose(system, xi)
        noise = 1e-16 * np.diag((-1.0) ** np.arange(dec.source.shape.dim))
        return ShiftDecomposition(xi=dec.xi, source=dec.source,
                                  remainder=ModuleOperator(dec.source.shape,
                                                           dec.remainder.mat + noise))

    monkeypatch.setattr(cli, "shift_decompose", noisy)
    path = write_onb(tmp_path / "onb.json", n=5, d=3)
    report = run_json(capsys, "analyze", str(path), "--xi", "1", "--eta", "1", "--alpha", "0")
    deviation = report["decomposition"]["deviation"]
    assert deviation["holds"] is True
    assert deviation["slack"] == pytest.approx(-5e-33)


@pytest.mark.parametrize("xi,t", [("1", 1e-5), ("100", 1e-3)])
def test_deviation_of_a_resolved_remainder_small_next_to_xi_fails_exit_0(capsys, tmp_path, xi, t):
    # S = (xi + t) I: ||0 f - T f|| <= 0 fails by t^2, which rounding at S's size cannot reach.
    path = write_onb(tmp_path / "onb.json", scale=math.sqrt(float(xi) + t))
    report = run_json(capsys, "analyze", str(path), "--xi", xi, "--eta", "0", "--alpha", "0")
    deviation = report["decomposition"]["deviation"]
    assert deviation["holds"] is False
    assert deviation["slack"] == pytest.approx(-t * t, rel=1e-6)


def test_perturb_huge_entry_exit_0(capsys, tmp_path):
    # L = 1e200, so the display form (L - mu)^2 = 1e400 is past the double range.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"schema": "cstar-frames/1", "algebra": {"d": 1},
                                "module": {"n": 1}, "vectors": [[[[[1e100, 0.0]]]]]}))
    code, out, err = run(capsys, "perturb", str(path), str(path), "--xi", "0", "--eta", "0",
                         "--format", "json")
    assert code == 0, err
    assert "Infinity" not in out and "NaN" not in out
    report = json.loads(out)
    assert report["predicted"] == {"low": 1e200, "high": 1e200, "lowAlternate": None}
    assert report["sandwich"] == {"applicable": True, "holds": True}


def _strict_json(text):
    """A report parsed as JSON proper: Infinity, -Infinity and NaN are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_entries_near_double_range_exit_0(capsys, tmp_path):
    # S has entries up to 1e308, so S + S* overflows: the Hermitian folds halve first.
    path = str(tmp_path / "big.json")
    code, out, err = run(capsys, "construct", "t4", "--kind", "gaussian", "--xi", "1",
                         "--c", "1e308", "--n", "4", "--out", path, "--format", "json")
    assert code == 0, err
    bounds = _strict_json(out)["bounds"]
    assert bounds["upper"] == 1e308 and bounds["isFrame"] is True
    for argv in (["analyze", path, "--xi", "1", "--eta", "1", "--alpha", "1"],
                 ["dual", path, "--out", str(tmp_path / "dual.json")],
                 ["perturb", path, path, "--xi", "1"]):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0, err
        _strict_json(out)


def test_dual_near_double_range_exit_0(capsys, tmp_path):
    # S = 1e-308 I, so S^-1 = 1e308 I: its fold must halve before adding too.
    path = tmp_path / "small.json"
    save_frame(path, FrameSystem([1e-154 * e for e in standard_basis(ModuleShape(1, 2))]))
    code, out, err = run(capsys, "dual", str(path), "--out", str(tmp_path / "dual.json"),
                         "--format", "json")
    assert code == 0, err
    assert _strict_json(out)["dual"]["lower"] == pytest.approx(1e308, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_dual_past_double_range_exit_4(capsys, tmp_path):
    # S = 1e-310 is subnormal, so S^-1 overflows: no dual is written, and numpy stays quiet.
    path, out = tmp_path / "tiny.json", tmp_path / "dual.json"
    save_frame(path, FrameSystem(np.array([[1e-155 + 0j]]), shape=ModuleShape(1, 1)))
    code, stdout, err = run(capsys, "dual", str(path), "--out", str(out))
    assert code == 4 and stdout == ""
    assert err == ("error: the dual frame is past the double range: the smallest "
                   "eigenvalue of the frame operator is 1.000e-310\n")
    assert not out.exists()
    assert run(capsys, "analyze", str(path))[0] == 0


@pytest.mark.parametrize("argv", [
    ["t4", "--kind", "power", "--xi", "1", "--c", "1", "--p", "inf", "--n", "4"],
    ["t49", "--n", "4", "--profile1", "gaussian:1", "--profile2", "power:1:inf"],
])
def test_construct_infinite_exponent_exit_4(capsys, tmp_path, argv):
    code, _, err = run(capsys, "construct", *argv, "--out", str(tmp_path / "out"))
    assert code == 4
    assert "exponent p must be finite" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_dual_of_subnormal_shift_writes_no_certificate(capsys, tmp_path):
    # 1/xi overflows at xi = 1e-320: the dual is written without a certificate, silently.
    source, out = tmp_path / "t4.json", tmp_path / "dual.json"
    run_json(capsys, "construct", "t4", "--kind", "geometric", "--xi", "1e-320", "--c", "1",
             "--r", "0.5", "--n", "4", "--out", str(source))
    code, stdout, err = run(capsys, "dual", str(source), "--out", str(out), "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(stdout)["certificateEmbedded"] is False
    assert "certificate" not in json.loads(out.read_text())


# Each size is the smallest just above MAX_FRAME_ENTRIES = 2^18, so a missing
# check shows as a slow test rather than an exhausted machine.
@pytest.mark.parametrize("argv", [
    ["construct", "t4", "--kind", "gaussian", "--xi", "1", "--c", "1", "--n", "513"],
    ["construct", "t4", "--kind", "gaussian", "--xi", "1", "--c", "1", "--n", "1",
     "--d", "513"],
    ["construct", "t4", "--kind", "gaussian", "--xi", "1", "--c", "1", "--n", "4",
     "--count", "65537"],
    ["construct", "repetition", "--n", "1", "--repeat", "1:262145"],
    ["construct", "t49", "--n", "726", "--profile1", "gaussian:1",
     "--profile2", "gaussian:1"],
])
def test_oversized_construct_exit_4(capsys, tmp_path, argv):
    assert MAX_FRAME_ENTRIES == 1 << 18
    out = tmp_path / "big"
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 4
    assert "above the limit" in err
    assert list(tmp_path.iterdir()) == []


def test_oversized_sweep_exit_4(capsys, tmp_path):
    built = run_json(capsys, "construct", "t49", "--n", "4",
                     "--profile1", "gaussian:1", "--profile2", "gaussian:1",
                     "--out", str(tmp_path / "sc"))
    code, _, err = run(capsys, "weave", built["files"]["a"], built["files"]["b"],
                       "--sweep", "4,726")
    assert code == 4
    assert "above the limit" in err


def test_oversized_frame_file_exit_2(tmp_path):
    # 16 KB of JSON whose one vector in A^1000 would need a 1000 x 1000 X* X.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"schema": "cstar-frames/1", "algebra": {"d": 1},
                                "module": {"n": 1000}, "vectors": [[[[[1.0, 0.0]]]] * 1000]}))
    assert path.stat().st_size < 16 * 1024
    src = Path(cstar_frames.__file__).parent.parent
    done = subprocess.run([sys.executable, "-m", "cstar_frames.cli", "analyze", str(path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 2
    assert done.stderr == (f"error: {path}: vectors: a frame of 1 vectors with n = 1000, d = 1 "
                           f"has 1000000 entries, above the limit {MAX_FRAME_ENTRIES}\n")


@pytest.mark.parametrize("vectors,d,n", [
    (512, 1, 512),    # exactly at the limit
    (724, 1, 362),    # the largest t49 pair or sweep size
    (1064, 1, 64),    # the largest frame the benchmark builds
    (128, 1, 64),     # its largest sweep size
])
def test_size_limit_admits(vectors, d, n):
    cli._require_size(vectors, d, n)


def _documented_codes(text):
    return {int(code) for code in re.findall(r"^\s+([2-6])  \S", text, re.MULTILINE)}


def test_exit_code_table_matches_docs():
    assert _documented_codes(cli.__doc__) == set(EXIT_CODES.values())
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    listed = re.search(r"Exit codes: (.*?)\.", readme, re.DOTALL).group(1)
    assert {int(code) for code in re.findall(r"`(\d)`", listed)} == {0} | set(EXIT_CODES.values())


def test_t49_scenario_profiles_written_in_file_form(capsys, tmp_path):
    built = run_json(capsys, "construct", "t49", "--n", "4",
                     "--profile1", "geometric:1.5:0.5", "--profile2", "power:2:1.5",
                     "--out", str(tmp_path / "sc"))
    scenario = json.loads(Path(built["files"]["a"]).read_text())["scenario"]
    assert scenario["profile_a"] == {"kind": "geometric", "xi": 0.0, "c": 1.5, "r": 0.5}
    assert scenario["profile_b"] == {"kind": "power", "xi": 0.0, "c": 2.0, "p": 1.5}


# ------------------------------------------------- past the double range


def _one_error_line(err):
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err


def _weave_refused_past_range(capsys, monkeypatch, *files):
    """weave FILES exits 4 with the one past-range line, at every block size up to 2 KiB."""
    for budget in [1 << e for e in range(12)]:
        monkeypatch.setattr(weaving, "LEAF_BLOCK_BYTES", budget)
        code, stdout, err = run(capsys, "weave", *files)
        assert code == 4 and stdout == ""
        assert err == "error: the universal upper bound is past the double range\n", budget


@pytest.mark.filterwarnings("error")
def test_weave_overflowing_mix_of_finite_files_exit_4(capsys, tmp_path, monkeypatch):
    # Each S is about 1.44e308, but the partition taking both large vectors sums to 2.9e308.
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_frame(a, FrameSystem(np.array([[1.2e154 + 0j], [1e-300]]), shape=ModuleShape(1, 1)))
    save_frame(b, FrameSystem(np.array([[1e-300 + 0j], [1.2e154]]), shape=ModuleShape(1, 1)))
    _weave_refused_past_range(capsys, monkeypatch, str(a), str(b))


def _scalar_pair(tmp_path, small, tiny):
    """Two d = n = 1 files, the vectors [small, tiny] and [tiny, small]."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_frame(a, FrameSystem(np.array([[small + 0j], [tiny]]), shape=ModuleShape(1, 1)))
    save_frame(b, FrameSystem(np.array([[tiny + 0j], [small]]), shape=ModuleShape(1, 1)))
    return str(a), str(b)


@pytest.mark.filterwarnings("error")
def test_weave_underflowing_mix_weaves(capsys, tmp_path):
    # Each S is 1e-320 and kept, and (1e-164)^2 reads 0, but the pair is woven:
    # partition [2, 1] weighs 2e-328, 1e-8 times the upper bound 2e-320.
    report = run_json(capsys, "weave", *_scalar_pair(tmp_path, 1e-160, 1e-164))
    del report["timing"]
    assert report == {"isWoven": True, "partitionsChecked": 4, "universalLower": 0.0,
                      "universalUpper": 2e-320, "worstPartition": [2, 1]}


@pytest.mark.filterwarnings("error")
def test_weave_subnormal_mix_still_weaves(capsys, tmp_path):
    # The same pair 1e10 times larger: (1e-154)^2 = 1e-308 is subnormal but not 0.
    report = run_json(capsys, "weave", *_scalar_pair(tmp_path, 1e-150, 1e-154))
    del report["timing"]
    assert report == {"isWoven": True, "partitionsChecked": 4, "universalLower": 2e-308,
                      "universalUpper": 2e-300, "worstPartition": [2, 1]}


@pytest.mark.filterwarnings("error")
def test_weave_t49_pair_past_double_range_exit_4(capsys, tmp_path, monkeypatch):
    built = run_json(capsys, "construct", "t49", "--n", "4",
                     "--profile1", "geometric:1e308:0.99", "--profile2", "geometric:1e308:0.99",
                     "--out", str(tmp_path / "sc"))
    _weave_refused_past_range(capsys, monkeypatch, built["files"]["a"], built["files"]["b"])


@pytest.mark.filterwarnings("error")
def test_construct_profile_past_double_range_exit_4(capsys, tmp_path):
    out = tmp_path / "g.json"
    code, stdout, err = run(capsys, "construct", "t4", "--kind", "gaussian", "--xi", "1e308",
                            "--c", "1e308", "--n", "4", "--out", str(out))
    assert code == 4 and stdout == ""
    _one_error_line(err)
    assert "profile supremum" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_profile_past_double_range_in_file_exit_2(capsys, tmp_path):
    path = tmp_path / "t4.json"
    run_json(capsys, "construct", "t4", "--kind", "gaussian", "--xi", "1", "--c", "1",
             "--n", "4", "--out", str(path))
    payload = json.loads(path.read_text())
    payload["certificate"]["profile"].update(xi=1e308, c=1e308)
    path.write_text(json.dumps(payload))
    code, stdout, err = run(capsys, "analyze", str(path))
    assert code == 2 and stdout == ""
    _one_error_line(err)
    assert "certificate.profile: profile supremum" in err


@pytest.mark.filterwarnings("error")
def test_analyze_eta_past_double_range(capsys, tmp_path):
    # eta^2 overflows at 1e155; eta^2 / (1 + eta^2) is already 1.0 at 1e150.
    path = tmp_path / "t4.json"
    run_json(capsys, "construct", "t4", "--kind", "gaussian", "--xi", "1", "--c", "1",
             "--n", "4", "--out", str(path))
    reports = []
    for eta in ("1e150", "1e155"):
        report = run_json(capsys, "analyze", str(path), "--xi", "1", "--eta", eta, "--alpha", "1")
        report.pop("timing")
        decomposition = report["decomposition"]
        assert decomposition["lowerBound"].pop("eta") == decomposition["deviation"].pop("eta")
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,xi", [("analyze", "1e308"), ("perturb", "-1e308")])
def test_bessel_bound_past_double_range_reads_null(capsys, tmp_path, command, xi):
    # S - xi*I is finite, but ||S - xi*I|| + |xi| is about 2e308.
    path = str(tmp_path / "t4.json")
    run_json(capsys, "construct", "t4", "--kind", "gaussian", "--xi", "1", "--c", "1",
             "--n", "4", "--out", path)
    files = [path] if command == "analyze" else [path, path]
    code, stdout, err = run(capsys, command, *files, f"--xi={xi}", "--format", "json")
    assert (code, err) == (0, "")
    report = _strict_json(stdout)
    assert report.get("decomposition", report)["besselBound"] is None
    code, stdout, err = run(capsys, command, *files, f"--xi={xi}")
    assert (code, err) == (0, "")
    assert re.search(r"^ *besselBound: None$", stdout, re.MULTILINE)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["analyze", "perturb"])
def test_shift_past_double_range_exit_4(capsys, tmp_path, command):
    # S = 1e308, so S - xi*I = 2e308 at xi = -1e308.
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"schema": "cstar-frames/1", "algebra": {"d": 1},
                                "module": {"n": 1}, "vectors": [[[[[1e154, 0.0]]]]]}))
    files = [str(path)] * (1 if command == "analyze" else 2)
    code, stdout, err = run(capsys, command, *files, "--xi=-1e308")
    assert code == 4 and stdout == ""
    assert err == "error: S - xi*I is past the double range at xi = -1e+308\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["analyze", "F"], ["analyze", "F", "--tol", "0"], ["analyze", "F", "--xi", "1"],
    ["perturb", "F", "F", "--xi", "0", "--tol", "0"], ["dual", "F", "--out", "OUT"],
    ["weave", "F", "F"],
])
def test_spectrum_past_double_range_exit_4(capsys, tmp_path, argv):
    # X* X = [[1e308, 1e308], [1e308, 1e308]] is finite, but its eigenvalue 2e308 is not.
    path, out = tmp_path / "rank-one.json", tmp_path / "dual.json"
    path.write_text(json.dumps({"schema": "cstar-frames/1", "algebra": {"d": 1},
                                "module": {"n": 2},
                                "vectors": [[[[[1e154, 0.0]]], [[[1e154, 0.0]]]]]}))
    names = {"F": str(path), "OUT": str(out)}
    code, stdout, err = run(capsys, *[names.get(arg, arg) for arg in argv])
    assert code == 4 and stdout == ""
    if argv[0] == "weave":
        assert err == "error: the universal upper bound is past the double range\n"
    else:
        assert err == "error: hermitian_eigen: an eigenvalue is past the double range\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_certificate_past_double_range_exit_2(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({
        "algebra": {"d": 1},
        "certificate": {"alphas": [1e308], "permutation": [], "profile": None, "xi": 1e308},
        "module": {"n": 1}, "schema": "cstar-frames/1", "vectors": [[[[[1.0, 0.0]]]]]}))
    code, stdout, err = run(capsys, "analyze", str(path))
    assert code == 2 and stdout == ""
    assert err == (f"error: {path}: certificate: alphas + xi is past the double range "
                   f"at xi = 1e+308\n")


@pytest.mark.filterwarnings("error")
def test_certificate_profile_values_past_double_range_exit_2(capsys, tmp_path):
    # No alphas: they are derived as l_k - xi, about 1.7e308 + 1.7e308.
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({
        "algebra": {"d": 1},
        "certificate": {"permutation": [1], "xi": -1.7e308,
                        "profile": {"c": 1e300, "kind": "gaussian", "xi": 1.7e308}},
        "module": {"n": 1}, "schema": "cstar-frames/1", "vectors": [[[[[1.0, 0.0]]]]]}))
    code, stdout, err = run(capsys, "analyze", str(path))
    assert code == 2 and stdout == ""
    assert err == (f"error: {path}: certificate: l_k - xi is past the double range "
                   f"at xi = -1.7e+308\n")


@pytest.mark.filterwarnings("error")
def test_reports_past_double_range_are_strict_json(capsys, tmp_path):
    # Every report field that leaves the double range reads null, none Infinity or NaN.
    path = str(tmp_path / "t4.json")
    run_json(capsys, "construct", "t4", "--kind", "gaussian", "--xi", "1", "--c", "1",
             "--n", "4", "--out", path)
    for argv in (["analyze", path, "--xi", "1e160", "--eta", "0.5", "--alpha", "1"],
                 ["analyze", path, "--xi", "1e308", "--eta", "1e300", "--alpha", "1e308"],
                 ["perturb", path, path, "--xi=-1e308", "--eta", "1e300"]):
        code, stdout, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
        _strict_json(stdout)


def test_past_range_as_null_walks_the_whole_report():
    report = {"a": math.inf, "b": [1.0, -math.inf, {"c": math.nan}], "d": True, "e": "x", "f": 2}
    assert cli._past_range_as_null(report) == {"a": None, "b": [1.0, None, {"c": None}],
                                               "d": True, "e": "x", "f": 2}


def test_past_range_as_null_reads_results_as_json_objects():
    # A result becomes its JSON object first, so a -inf slack stays as null
    # rather than being left out like a None field; a Partition is a list.
    deviation = DeviationCertificate(alpha=1.0, eta=0.5, holds=False, slack=-math.inf)
    woven = WeavingReport(universal_lower=0.5, universal_upper=2.0, is_woven=True,
                          partitions_checked=4, worst_partition=Partition((2, 1)))
    assert cli._past_range_as_null({"deviation": deviation, "weave": woven}) == {
        "deviation": {"alpha": 1.0, "eta": 0.5, "holds": False, "slack": None},
        "weave": {"universalLower": 0.5, "universalUpper": 2.0, "isWoven": True,
                  "partitionsChecked": 4, "worstPartition": [2, 1]},
    }


def test_inapplicable_parts_have_no_slack(capsys, tmp_path):
    # xi = 2 is above the lower bound 1 and T = -I is not positive: parts 1 and
    # 3 do not apply, and their slack, None, is left out.
    path = write_onb(tmp_path / "onb.json")
    parts = run_json(capsys, "analyze", str(path), "--xi", "2")["decomposition"]["parts"]
    assert parts == {
        "positiveShiftImpliesFrame": {"applicable": False, "holds": True},
        "selfAdjoint": {"applicable": True, "holds": True, "slack": 0.0},
        "lowerBoundImpliesPositive": {"applicable": False, "holds": True},
    }


# ------------------------------------------------- flag errors by message


@pytest.mark.parametrize("repeat,message", [
    ("a:b", "bad repeat spec 'a:b'; expected index:count"),
    ("1-2", "bad repeat spec '1-2'; expected index:count"),
    (",", "at least one --repeat index:count is required"),
    ("2:3,2:5", "--repeat index 2 given twice"),
])
def test_construct_bad_repeat_exit_4(capsys, tmp_path, repeat, message):
    out = tmp_path / "rep.json"
    code, _, err = run(capsys, "construct", "repetition", "--n", "3", "--repeat", repeat,
                       "--out", str(out))
    assert code == 4
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_construct_repeat_index_in_two_flags_exit_4(capsys, tmp_path):
    out = tmp_path / "rep.json"
    code, stdout, err = run(capsys, "construct", "repetition", "--n", "3", "--repeat", "2:3",
                            "--repeat", "2:5", "--out", str(out))
    assert code == 4 and stdout == ""
    assert err == "error: --repeat index 2 given twice\n"
    assert not out.exists()


def _t49_pair(capsys, prefix, profile):
    built = run_json(capsys, "construct", "t49", "--n", "4", "--profile1", profile,
                     "--profile2", "gaussian:1", "--out", str(prefix))
    return built["files"]["a"], built["files"]["b"]


@pytest.mark.parametrize("sweep,message", [
    ("x", "bad --sweep value 'x'; expected comma-separated integers"),
    ("3", "--sweep sizes must be even integers >= 2"),
])
def test_weave_bad_sweep_exit_4(capsys, tmp_path, sweep, message):
    a, b = _t49_pair(capsys, tmp_path / "sc", "gaussian:1")
    code, stdout, err = run(capsys, "weave", a, b, "--sweep", sweep)
    assert code == 4 and stdout == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("sweep", ["", " ", ","])
def test_weave_empty_sweep_refused_before_enumeration(capsys, tmp_path, monkeypatch, sweep):
    a, b = _t49_pair(capsys, tmp_path / "sc", "gaussian:1")

    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("the partitions were enumerated before the --sweep refusal")

    monkeypatch.setattr(cli, "universal_bounds", enumerate_nothing)
    code, stdout, err = run(capsys, "weave", a, b, "--sweep", sweep)
    assert code == 4 and stdout == ""
    assert err == "error: --sweep sizes must be even integers >= 2\n"


def test_weave_sweep_over_different_profiles_exit_4(capsys, tmp_path):
    a, _ = _t49_pair(capsys, tmp_path / "one", "gaussian:1")
    _, b = _t49_pair(capsys, tmp_path / "two", "geometric:1:0.5")
    code, stdout, err = run(capsys, "weave", a, b, "--sweep", "4")
    assert code == 4 and stdout == ""
    assert err == "error: --sweep: the two files carry different scenario profiles\n"


@pytest.mark.parametrize("pair,sweep,message", [
    ("t49", "3", "--sweep sizes must be even integers >= 2"),
    ("t49", "4,726", "a frame of 726 vectors with n = 363, d = 1 has 263538 entries, "
                     f"above the limit {MAX_FRAME_ENTRIES}"),
    ("mixed", "4", "--sweep: the two files carry different scenario profiles"),
    ("plain", "4", "--sweep needs scenario metadata in both files (written by 'construct t49')"),
])
def test_weave_bad_sweep_refused_before_enumeration(capsys, tmp_path, monkeypatch,
                                                     pair, sweep, message):
    if pair == "plain":
        a = b = str(write_onb(tmp_path / "onb.json"))
    else:
        a, b = _t49_pair(capsys, tmp_path / "one", "gaussian:1")
        if pair == "mixed":
            _, b = _t49_pair(capsys, tmp_path / "two", "geometric:1:0.5")

    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("the partitions were enumerated before the --sweep refusal")

    monkeypatch.setattr(cli, "universal_bounds", enumerate_nothing)
    code, stdout, err = run(capsys, "weave", a, b, "--sweep", sweep)
    assert code == 4 and stdout == ""
    assert err == f"error: {message}\n"


def test_weave_bad_sweep_comes_before_the_partition_cap_and_the_shape(capsys, tmp_path):
    a, b = _t49_pair(capsys, tmp_path / "sc", "gaussian:1")
    onb = str(write_onb(tmp_path / "onb.json", n=2))
    for argv in ([a, b, "--max-partitions", "1"], [a, onb]):
        code, _, err = run(capsys, "weave", *argv, "--sweep", "3")
        assert code == 4
        assert err == "error: --sweep sizes must be even integers >= 2\n"
    assert run(capsys, "weave", a, b, "--max-partitions", "1")[0] == 5
    assert run(capsys, "weave", a, onb)[0] == 3


def test_weave_non_integer_max_partitions_exit_4(capsys, tmp_path):
    path = write_onb(tmp_path / "onb.json")
    code, _, err = run(capsys, "weave", str(path), str(path), "--max-partitions", "abc")
    assert code == 4
    _one_error_line(err)
    assert "--max-partitions: expected an integer, got 'abc'" in err


def test_weave_text_report_lists_worst_partition(capsys, tmp_path):
    a = write_onb(tmp_path / "a.json")
    b = write_onb(tmp_path / "b.json", scale=math.sqrt(2.0))
    code, stdout, _ = run(capsys, "weave", str(a), str(b))
    assert code == 0
    assert "worstPartition: [1, 1, 1]" in stdout.splitlines()


def test_weave_json_report_names_fields_in_camel_case(capsys, tmp_path):
    a = write_onb(tmp_path / "a.json")
    b = write_onb(tmp_path / "b.json", scale=math.sqrt(2.0))
    report = run_json(capsys, "weave", str(a), str(b))
    del report["timing"]
    assert report == {"universalLower": pytest.approx(1.0), "universalUpper": pytest.approx(2.0),
                      "isWoven": True, "partitionsChecked": 8, "worstPartition": [1, 1, 1]}


def _text_keys(stdout):
    """The key of each line of a text report, with its indent."""
    return [line.split(":")[0] for line in stdout.splitlines()]


_BOUNDS_KEYS = ["lower", "upper", "tight", "isFrame", "isBessel"]
_PART_KEYS = ["applicable", "holds", "slack"]


def _nested(keys, depth=1):
    return ["  " * depth + key for key in keys]


def test_text_reports_keep_their_line_order(capsys, tmp_path):
    t4 = str(tmp_path / "t4.json")
    code, stdout, _ = run(capsys, "construct", "t4", "--kind", "gaussian", "--xi", "1",
                          "--c", "1", "--n", "4", "--out", t4)
    assert code == 0
    assert _text_keys(stdout) == ["out", "kind", "vectors", "bounds", *_nested(_BOUNDS_KEYS),
                                  "certificateEmbedded"]

    code, stdout, _ = run(capsys, "analyze", t4, "--xi", "1", "--eta", "0.5", "--alpha", "1")
    assert code == 0
    parts = []
    for name in ("positiveShiftImpliesFrame", "selfAdjoint", "lowerBoundImpliesPositive"):
        parts += ["    " + name, *_nested(_PART_KEYS, 3)]
    assert _text_keys(stdout) == [
        "file", "shape", "  d", "  n", "vectors", "bounds", *_nested(_BOUNDS_KEYS),
        "certificate", *_nested(["valid", "xi", "kind", "declaredLimit"]),
        "decomposition", "  xi", "  besselBound", "  parts", *parts, "  allPartsHold",
        "  lowerBound", *_nested(["eta", "value", "rho", "formulaOnly"], 2),
        "  deviation", *_nested(["alpha", "eta", "holds", "slack"], 2),
        "timing", "  seconds",
    ]

    code, stdout, _ = run(capsys, "perturb", t4, t4, "--xi", "0")
    assert code == 0
    assert _text_keys(stdout) == [
        "mu", "xi", "eta", "lowerBound", *_nested(["value", "rho", "formulaOnly"]),
        "besselBound", "actual", *_nested(_BOUNDS_KEYS), "predicted",
        *_nested(["low", "high", "lowAlternate"]), "sandwich", *_nested(["applicable", "holds"]),
        "timing", "  seconds",
    ]

    code, stdout, _ = run(capsys, "dual", t4, "--out", str(tmp_path / "dual.json"))
    assert code == 0
    assert _text_keys(stdout) == ["out", "original", *_nested(_BOUNDS_KEYS),
                                  "dual", *_nested(_BOUNDS_KEYS), "certificateEmbedded"]

    code, stdout, _ = run(capsys, "weave", t4, t4)
    assert code == 0
    assert _text_keys(stdout) == ["universalLower", "universalUpper", "isWoven",
                                  "partitionsChecked", "worstPartition", "timing", "  seconds"]


# ------------------------------------------------------ one parser per process

@pytest.fixture
def parsed(monkeypatch):
    """(parser, namespace) of each command line that main parses."""
    calls = []
    parse_args = cli._Parser.parse_args

    def recording(self, *args, **kwargs):
        namespace = parse_args(self, *args, **kwargs)
        calls.append((self, namespace))
        return namespace

    monkeypatch.setattr(cli._Parser, "parse_args", recording)
    return calls


def test_main_calls_share_one_parser(capsys, tmp_path, parsed):
    path = write_onb(tmp_path / "onb.json")
    run_json(capsys, "analyze", str(path))
    run_json(capsys, "weave", str(path), str(path))
    assert len(parsed) == 2
    assert parsed[0][0] is parsed[1][0]


def test_build_parser_returns_a_new_parser_each_call():
    assert cli.build_parser() is not cli.build_parser()


def test_shared_parser_keeps_nothing_between_calls(capsys, tmp_path, parsed):
    path = write_onb(tmp_path / "onb.json")
    argv = ("analyze", str(path), "--xi", "1", "--eta", "0.5", "--alpha", "1")
    cli._shared_parser.cache_clear()
    first = run_json(capsys, *argv)
    assert run(capsys, "analyze", str(path), "--tol", "-1")[0] == 4
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", "--help"])
    assert exit_info.value.code == 0
    capsys.readouterr()
    again = run_json(capsys, *argv)
    first.pop("timing")
    again.pop("timing")
    assert again == first
    run_json(capsys, "weave", str(path), str(path))
    assert vars(parsed[-2][1])["xi"] == 1.0
    assert "xi" not in vars(parsed[-1][1])
    assert len({id(parser) for parser, _ in parsed}) == 1


def test_main_honours_load_frame_patched_after_first_call(capsys, tmp_path, monkeypatch):
    path = write_onb(tmp_path / "onb.json")
    run_json(capsys, "analyze", str(path))

    def refuse(path):
        raise FrameFileError(f"{path}: refused")

    monkeypatch.setattr(cli, "load_frame", refuse)
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert err == f"error: {path}: refused\n"


# ----------------------------------------------------- exits as a property

#: Extreme values for --xi, --eta, --alpha and --tol (and a construct's floats).
EXTREMES = ("1e308", "-1e308", "5e-324", "-5e-324", "0", "-0.0")


@st.composite
def small_frames(draw, shape=None, count=None):
    """A synthesis matrix with d <= 2, n <= 3 and N <= 8 small integer entries, times 1,
    2^-270 or 2^250 (its X* X stays inside the double range), and its shape; `shape` and
    the count N are drawn unless given."""
    if shape is None:
        shape = ModuleShape(draw(st.integers(1, 2)), draw(st.integers(1, 3)))
    if count is None:
        count = draw(st.integers(1, 8))
    size = 2 * count * shape.d * shape.dim
    parts = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    re_im = np.array(parts, dtype=float).reshape(2, count * shape.d, shape.dim)
    scale = draw(st.sampled_from((1.0, 2.0**-270, 2.0**250)))
    return shape, scale * (re_im[0] + 1j * re_im[1])


@st.composite
def cli_calls(draw, folder):
    """Two frames to write as f.json and g.json (g of f's shape or not), and an argument
    vector for one of the seven subcommands, with extreme floats and --sweep values."""
    first = draw(small_frames())
    second = draw(small_frames(first[0] if draw(st.booleans()) else None))
    f, g = str(folder / "f.json"), str(folder / "g.json")

    def value(flag, choices=EXTREMES):
        return [f"{flag}={draw(st.sampled_from(choices))}"]

    def maybe(flag):
        return value(flag) if draw(st.booleans()) else []

    command = draw(st.sampled_from(("analyze", "dual", "perturb", "weave", "t4", "repetition",
                                    "t49")))
    small = ["--n", str(draw(st.integers(1, 4))), "--d", str(draw(st.integers(1, 2)))]
    out = ["--out", str(folder / "out.json")]
    if command == "analyze":
        argv = ["analyze", f, *maybe("--xi"), *maybe("--eta"), *maybe("--alpha"), *maybe("--tol")]
    elif command == "dual":
        argv = ["dual", f, *out, *maybe("--tol")]
    elif command == "perturb":
        argv = ["perturb", f, g, *value("--xi"), *maybe("--eta"), *maybe("--tol")]
    elif command == "weave":
        pair = [f, g] if draw(st.booleans()) else [str(folder / "sc-a.json"),
                                                   str(folder / "sc-b.json")]
        sweep = ["--sweep", draw(st.sampled_from(("", ",", "3", "4")))] if draw(st.booleans()) else []
        argv = ["weave", *pair, *sweep, *maybe("--tol")]
    elif command == "t4":
        kind = draw(st.sampled_from(("constant", "gaussian", "geometric", "power")))
        argv = ["construct", "t4", "--kind", kind, *value("--xi"), *value("--c"), *maybe("--r"),
                *maybe("--p"), *small, *out]
    elif command == "repetition":
        spec = f"{draw(st.integers(0, 4))}:{draw(st.integers(0, 3))}"
        argv = ["construct", "repetition", "--repeat", spec, *small, *out]
    else:
        profiles = ("gaussian:1", "geometric:1e308:0.99", "power:1:2", "geometric:5e-324:0.5")
        argv = ["construct", "t49", *value("--profile1", profiles),
                *value("--profile2", profiles), *small, "--out", str(folder / "built")]
    form = draw(st.sampled_from(("json", "text")))
    return first, second, [*argv, "--format", form]


def _refuse_constant(name):
    raise ValueError(f"the report holds {name}")


@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_call_ends_in_a_documented_exit(capsys, tmp_path, data):
    if not (tmp_path / "sc-a.json").exists():  # a t49 pair, for weave --sweep
        assert main(["construct", "t49", "--n", "4", "--profile1", "gaussian:1",
                     "--profile2", "geometric:1:0.5", "--out", str(tmp_path / "sc")]) == 0
    (shape_f, synthesis_f), (shape_g, synthesis_g), argv = data.draw(cli_calls(tmp_path))
    save_frame(tmp_path / "f.json", FrameSystem(synthesis_f, shape=shape_f))
    save_frame(tmp_path / "g.json", FrameSystem(synthesis_g, shape=shape_g))
    capsys.readouterr()
    code, stdout, err = run(capsys, *argv)
    assert code in {0, 2, 3, 4, 5, 6}
    if code:
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n"), err
    elif argv[-1] == "json":
        json.loads(stdout, parse_constant=_refuse_constant)


# ---------------------------------------------------- scaling as a property

@st.composite
def scaling_calls(draw):
    """Two small integer families (d, n <= 2, N <= 4, entries -3..3), a shift, (alpha, eta)
    and a power of two 2^k with |k| <= 100, as in test_tolerances.scaling_cases."""
    shape = ModuleShape(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    count = draw(st.integers(1, 4))
    size = 2 * count * shape.d * shape.dim

    def family():
        parts = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
        re_im = np.array(parts, dtype=float).reshape(2, count * shape.d, shape.dim)
        return FrameSystem(re_im[0] + 1j * re_im[1], shape=shape)

    first, second = family(), family()
    shift = draw(st.sampled_from(("zero", "lower", "upper", "other")))
    # Multiples of 1/64, so that 4^k times them is exact for every k drawn.
    other, alpha = (draw(st.integers(-256, 1280)) / 64.0 for _ in range(2))
    eta = draw(st.sampled_from((0.0, 0.5, 1.0, 3.0)))
    return first, second, shift, other, alpha, eta, draw(st.integers(-100, 100))


def _leaves(report, path=""):
    """{dotted path: value} for every leaf of a JSON report but its file names and timing."""
    leaves = {}
    for key, value in report.items():
        if key not in ("file", "out", "timing"):
            name = f"{path}{key}"
            leaves.update(_leaves(value, f"{name}.") if isinstance(value, dict)
                          else {name: value})
    return leaves


@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scaling_calls())
def test_reports_scale_with_the_frame(capsys, tmp_path, case):
    # Scaling every vector by 2^k scales each frame operator by q = 4^k exactly,
    # so every bound the CLI reports scales exactly and no verdict changes.
    first, second, shift, other, alpha, eta, k = case
    c = 2.0**k
    q = c * c
    files = {}
    for name, family in (("f", first), ("g", second)):
        for scale, tag in ((1.0, ""), (c, "-scaled")):
            files[name + tag] = str(tmp_path / f"{name}{tag}.json")
            save_frame(files[name + tag], FrameSystem(scale * family.synthesis, shape=family.shape))
    bounds = optimal_bounds(first)
    xi = {"zero": 0.0, "lower": bounds.lower, "upper": bounds.upper, "other": other}[shift]

    def scales(base_argv, scaled_argv, factors):
        """Both calls exit alike; on exit 0 their reports agree leaf by leaf, each leaf
        named in `factors` scaled by its factor and every other one identical."""
        base_code, base_out, _ = run(capsys, *base_argv, "--format", "json")
        scaled_code, scaled_out, _ = run(capsys, *scaled_argv, "--format", "json")
        assert scaled_code == base_code
        if base_code == 0:
            base, scaled = _leaves(json.loads(base_out)), _leaves(json.loads(scaled_out))
            assert scaled.keys() == base.keys()
            for path, value in base.items():
                factor = factors.get(path)
                expected = value if factor is None or value is None else factor * value
                assert scaled[path] == expected, path

    scales(["analyze", files["f"], f"--xi={xi!r}", f"--eta={eta!r}", f"--alpha={alpha!r}"],
           ["analyze", files["f-scaled"], f"--xi={q * xi!r}", f"--eta={eta!r}",
            f"--alpha={q * alpha!r}"],
           {"bounds.lower": q, "bounds.upper": q, "decomposition.xi": q,
            "decomposition.besselBound": q, "decomposition.lowerBound.value": q,
            "decomposition.lowerBound.rho": q, "decomposition.deviation.alpha": q,
            "decomposition.deviation.slack": q * q,
            "decomposition.parts.positiveShiftImpliesFrame.slack": q,
            "decomposition.parts.lowerBoundImpliesPositive.slack": q})
    scales(["weave", files["f"], files["g"]], ["weave", files["f-scaled"], files["g-scaled"]],
           {"universalLower": q, "universalUpper": q})
    scales(["dual", files["f"], "--out", str(tmp_path / "dual.json")],
           ["dual", files["f-scaled"], "--out", str(tmp_path / "dual-scaled.json")],
           {"original.lower": q, "original.upper": q, "dual.lower": 1 / q, "dual.upper": 1 / q})


# ------------------------------------ spectra checked independently, as properties

#: Tolerances the two properties below pass as --tol: 0, the default and two large ones.
PROPERTY_TOLS = (0.0, 1e-9, 1e-3, 0.5)


def _band(dim, upper):
    """16 D eps lambda_max: how far two backward-stable eigensolves of one D x D Hermitian
    matrix of largest eigenvalue `upper` may disagree on any eigenvalue."""
    return 16 * dim * np.finfo(float).eps * upper


def _saved_synthesis(path):
    """The synthesis matrix of a frame file, read with json alone: "vectors" holds each
    vector's n coefficients, each a d x d matrix of [re, im] pairs."""
    with open(path) as f:
        vectors = np.array(json.load(f)["vectors"], dtype=float)
    count, n, d = vectors.shape[:3]
    blocks = vectors[..., 0] + 1j * vectors[..., 1]
    return blocks.transpose(0, 2, 1, 3).reshape(count * d, n * d)


def _bounds_agree(bounds, eigenvalues, tol, dim):
    """A report's bounds against an independent spectrum of X* X: lower and upper each
    within the band, and isFrame and tight the same wherever their margin lies more than
    3 bands from 0 (a margin sums at most three terms, each within a band)."""
    lower, upper = max(eigenvalues[0], 0.0), max(eigenvalues[-1], 0.0)
    band = _band(dim, upper)
    assert abs(bounds["lower"] - lower) <= band, (bounds, lower, band)
    assert abs(bounds["upper"] - upper) <= band, (bounds, upper, band)
    for verdict, margin in (("isFrame", lower - tol * upper),
                            ("tight", tol * upper - (upper - lower))):
        if abs(margin) > 3 * band:
            assert bounds[verdict] == (margin > 0), (verdict, bounds, margin, band)


@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_frames(), st.sampled_from(PROPERTY_TOLS))
def test_analyze_bounds_match_an_independent_eigvalsh(capsys, tmp_path, frame, tol):
    shape, synthesis = frame
    path = tmp_path / "f.json"
    save_frame(path, FrameSystem(synthesis, shape=shape))
    x = _saved_synthesis(path)
    report = run_json(capsys, "analyze", str(path), f"--tol={tol!r}")
    _bounds_agree(report["bounds"], np.linalg.eigvalsh(x.conj().T @ x), tol, shape.dim)


@st.composite
def rotated_pairs(draw):
    """Two small integer frames of one shape and length, a seed for a unitary U on C^{nd},
    and a tolerance."""
    shape, first = draw(small_frames())
    _, second = draw(small_frames(shape, first.shape[0] // shape.d))
    seed, tol = draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from(PROPERTY_TOLS))
    return shape, first, second, seed, tol


@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rotated_pairs())
def test_reports_survive_a_unitary_change_of_coordinates(capsys, tmp_path, case):
    # (XU)* XU = U* X* X U has the spectrum of X* X, and each weaving operator of
    # (XU, YU) is U* S_P U, so only rounding may move a bound: within the band.
    shape, first, second, seed, tol = case
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((shape.dim,) * 2)
                     + 1j * rng.standard_normal((shape.dim,) * 2)).Q
    paths = {}
    for name, synthesis in (("f", first), ("g", second), ("fu", first @ u), ("gu", second @ u)):
        paths[name] = str(tmp_path / f"{name}.json")
        save_frame(paths[name], FrameSystem(synthesis, shape=shape))
    eigenvalues = np.linalg.eigvalsh(first.conj().T @ first)
    for name in ("f", "fu"):
        report = run_json(capsys, "analyze", paths[name], f"--tol={tol!r}")
        _bounds_agree(report["bounds"], eigenvalues, tol, shape.dim)

    woven = run_json(capsys, "weave", paths["f"], paths["g"], f"--tol={tol!r}")
    rotated = run_json(capsys, "weave", paths["fu"], paths["gu"], f"--tol={tol!r}")
    band = _band(shape.dim, woven["universalUpper"])
    for key in ("universalLower", "universalUpper"):
        assert abs(rotated[key] - woven[key]) <= band, (key, woven, rotated, band)
    if abs(woven["universalLower"] - tol * woven["universalUpper"]) > 3 * band:
        assert rotated["isWoven"] == woven["isWoven"]
