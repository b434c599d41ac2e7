"""Self-tests of the benchmark: the oracle must reject wrong reports, and the
trace wrappers must bind everywhere and unbind cleanly.

    python3 -m pytest -q bench
"""

import json

import numpy as np
import pytest

import oracle
import run
import spans
import timing
from workloads import random_synthesis, write_frame


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def cli_report(cli, *argv):
    code, _, _, out, err = run.call(cli, [*argv, "--format", "json"], timing.WallTimer())
    assert code == 0, err
    return json.loads(out)


@pytest.fixture(scope="module")
def weave_case(cli, tmp_path_factory):
    """A dense pair small enough to weave quickly: 2^6 partitions of 4x4 Grams."""
    workdir = tmp_path_factory.mktemp("weave")
    rng = np.random.default_rng(7)
    paths = [workdir / "a.json", workdir / "b.json"]
    for path in paths:
        write_frame(path, random_synthesis(rng, 6, 2, 2), 2, 2)
    report = cli_report(cli, "weave", *map(str, paths))
    reference = oracle.WeaveReference.build([oracle.read_synthesis(p) for p in paths], 2)
    return report, reference


def test_weave_oracle_accepts_the_real_report(weave_case):
    report, reference = weave_case
    oracle.check_weave(report, reference)


def test_weave_oracle_rejects_scaled_upper_bound(weave_case):
    report, reference = weave_case
    doctored = {**report, "universalUpper": report["universalUpper"] * (1 + 1e-6)}
    with pytest.raises(oracle.OracleError, match="universalUpper"):
        oracle.check_weave(doctored, reference)


def test_weave_oracle_rejects_wrong_worst_partition(weave_case):
    report, reference = weave_case
    best = int(np.argmax(reference.lows))
    assignment = [int(c) + 1 for c in np.base_repr(best, 2).zfill(reference.length)]
    doctored = {**report, "worstPartition": assignment}
    with pytest.raises(oracle.OracleError, match="worstPartition"):
        oracle.check_weave(doctored, reference)


def test_analyze_oracle_rejects_scaled_upper_bound(cli, tmp_path):
    path = tmp_path / "f.json"
    write_frame(path, random_synthesis(np.random.default_rng(3), 12, 2, 3), 2, 3)
    report = cli_report(cli, "analyze", str(path), "--xi", "1", "--eta", "0.5")
    spectrum = oracle.frame_spectrum(oracle.read_synthesis(path))
    oracle.check_analyze(report, spectrum, 12, 1.0, 0.5)
    report["bounds"]["upper"] *= 1 + 1e-6
    with pytest.raises(oracle.OracleError, match="bounds.upper"):
        oracle.check_analyze(report, spectrum, 12, 1.0, 0.5)


def test_trace_wrappers_bind_every_namespace_and_restore(cli, tmp_path):
    import sys
    eigen = sys.modules["cstar_frames.linalg"].hermitian_eigen
    holders = [m for name, m in sys.modules.items()
               if name.startswith("cstar_frames") and getattr(m, "hermitian_eigen", None) is eigen]
    assert len(holders) >= 5    # linalg, frames, decomposition, weaving, cli, module_space, package
    path = tmp_path / "f.json"
    write_frame(path, random_synthesis(np.random.default_rng(5), 8, 1, 3), 1, 3)
    recorder = spans.Recorder()
    with recorder.installed():
        assert all(m.hermitian_eigen is not eigen for m in holders)
        cli_report(cli, "analyze", str(path))
    assert all(m.hermitian_eigen is eigen for m in holders)
    assert spans.eigen_calls_per_command(recorder.spans) == {"analyze": {1}}


def test_benchmark_json_names_the_metrics_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
