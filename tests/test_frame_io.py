"""Frame-file round-trips, certificate validation, and parse diagnostics."""

import json
import math

import numpy as np
import pytest

from cstar_frames.cli import main
from cstar_frames.constructors import ScalarProfile, profile_frame, repetition_frame
from cstar_frames.errors import FrameFileError
from cstar_frames.frame_io import (
    frame_to_payload,
    load_frame,
    load_partition,
    payload_to_frame,
    save_frame,
    save_partition,
)
from cstar_frames.frames import FrameSystem
from cstar_frames.module_space import ModuleShape, ModuleVector, random_vector, standard_basis
from cstar_frames.weaving import Partition


def random_system(rng, shape, count):
    return FrameSystem([random_vector(shape, rng) for _ in range(count)])


def test_round_trip_bit_exact(rng, tmp_path):
    shape = ModuleShape(2, 3)
    system = random_system(rng, shape, 4)
    path = tmp_path / "frame.json"
    save_frame(path, system)
    loaded = load_frame(path)
    assert loaded.system.shape == shape
    for vec, back in zip(system, loaded.system):
        assert np.array_equal(vec.rep, back.rep)  # bit-exact, not just close


def test_round_trip_preserves_certificate(tmp_path):
    profile = ScalarProfile("gaussian", xi=1.0, c=1.0)
    system, cert = profile_frame(profile, ModuleShape(1, 6))
    path = tmp_path / "t4.json"
    save_frame(path, system, cert)
    loaded = load_frame(path)
    assert loaded.certificate is not None
    assert loaded.certificate.xi == cert.xi
    assert loaded.certificate.profile == profile
    assert loaded.certificate.permutation == cert.permutation
    np.testing.assert_allclose(
        loaded.certificate.compact_part.mat, cert.compact_part.mat, atol=1e-12
    )


def test_round_trip_repetition_certificate(tmp_path):
    system, cert = repetition_frame(ModuleShape(1, 5), {1: 3, 4: 2})
    path = tmp_path / "rep.json"
    save_frame(path, system, cert)
    loaded = load_frame(path)
    assert loaded.certificate is not None
    assert loaded.certificate.profile is None
    np.testing.assert_allclose(
        loaded.certificate.direction_eigenvalues(), [2.0, 0.0, 0.0, 1.0, 0.0]
    )


def test_payload_round_trip_in_memory(rng):
    system = random_system(rng, ModuleShape(1, 4), 5)
    payload = frame_to_payload(system)
    again = frame_to_payload(payload_to_frame(payload).system)
    assert payload == again


def test_certificate_without_alphas_derived_from_profile(tmp_path):
    profile = ScalarProfile("gaussian", xi=1.0, c=1.0)
    system, cert = profile_frame(profile, ModuleShape(1, 4))
    payload = frame_to_payload(system, cert)
    del payload["certificate"]["alphas"]
    loaded = payload_to_frame(payload)
    np.testing.assert_allclose(
        loaded.certificate.direction_eigenvalues(),
        [profile.eval(k) - 1.0 for k in range(1, 5)],
        atol=1e-12,
    )


def test_tampered_certificate_shift_rejected(tmp_path):
    # Shift no longer matching the carried profile/alphas pair.
    profile = ScalarProfile("gaussian", xi=1.0, c=1.0)
    system, cert = profile_frame(profile, ModuleShape(1, 4))
    payload = frame_to_payload(system, cert)
    payload["certificate"]["xi"] = 1.5
    with pytest.raises(FrameFileError, match="certificate"):
        payload_to_frame(payload)


def test_certificate_vector_mismatch_rejected(tmp_path):
    # Internally consistent certificate that does not describe the vectors.
    profile = ScalarProfile("gaussian", xi=1.0, c=1.0)
    system, cert = profile_frame(profile, ModuleShape(1, 4))
    payload = frame_to_payload(system, cert)
    payload["vectors"][0][0][0][0][0] = 3.0  # re part of the first entry
    with pytest.raises(FrameFileError, match="validate against the vectors"):
        payload_to_frame(payload)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": "cstar-frames/1",\n  "algebra": oops}')
    with pytest.raises(FrameFileError, match=r"line 2, column"):
        load_frame(path)


def test_wrong_block_shape_reports_location():
    payload = {
        "schema": "cstar-frames/1",
        "algebra": {"d": 2},
        "module": {"n": 1},
        "vectors": [[[[[1.0, 0.0]], [[0.0, 0.0]]]]],
    }
    with pytest.raises(FrameFileError, match="vector 1, block 1"):
        payload_to_frame(payload)


def test_non_finite_entry_rejected():
    payload = {
        "schema": "cstar-frames/1",
        "algebra": {"d": 1},
        "module": {"n": 1},
        "vectors": [[[[[math.inf, 0.0]]]]],
    }
    with pytest.raises(FrameFileError, match="finite"):
        payload_to_frame(payload)


def test_wrong_schema_rejected():
    with pytest.raises(FrameFileError, match="schema"):
        payload_to_frame({"schema": "something-else"})


def test_missing_vectors_rejected():
    payload = {"schema": "cstar-frames/1", "algebra": {"d": 1}, "module": {"n": 2},
               "vectors": []}
    with pytest.raises(FrameFileError, match="vectors"):
        payload_to_frame(payload)


def test_scenario_block_round_trips(tmp_path):
    system = FrameSystem(standard_basis(ModuleShape(1, 2)))
    scenario = {
        "size": 4,
        "role": "a",
        "sigma": [1, 3],
        "profile_a": {"kind": "gaussian", "xi": 0.0, "c": 1.0},
        "profile_b": {"kind": "gaussian", "xi": 0.0, "c": 1.0},
    }
    path = tmp_path / "scenario.json"
    save_frame(path, system, None, scenario)
    loaded = load_frame(path)
    assert loaded.scenario == scenario


def test_partition_round_trip(tmp_path):
    part = Partition((2, 1, 2, 1))
    path = tmp_path / "part.json"
    save_partition(path, part, families=2, sigma=[1, 3])
    back, families = load_partition(path)
    assert families == 2
    assert back.assignment == part.assignment


def test_partition_rejects_out_of_range(tmp_path):
    path = tmp_path / "part.json"
    path.write_text(json.dumps({
        "schema": "cstar-frames-partition/1",
        "families": 2,
        "assignment": [1, 3],
    }))
    with pytest.raises(FrameFileError):
        load_partition(path)


def test_serialized_floats_shortest_repr(tmp_path):
    # Shortest-repr decimal serialization parses back to the same double.
    shape = ModuleShape(1, 1)
    value = 1.0 + math.exp(-32)
    system = FrameSystem([ModuleVector(shape, [[value]])])
    path = tmp_path / "tiny.json"
    save_frame(path, system)
    loaded = load_frame(path)
    assert loaded.system.vectors[0].rep[0, 0] == value


# JSON true/false decode to bool, which Python counts as an int; the schema must not.

def _scenario_payload():
    scenario = {
        "size": 4,
        "role": "a",
        "sigma": [1, 3],
        "profile_a": {"kind": "gaussian", "xi": 0.0, "c": 1.0},
        "profile_b": {"kind": "gaussian", "xi": 0.0, "c": 1.0},
    }
    return frame_to_payload(FrameSystem(standard_basis(ModuleShape(1, 2))), None, scenario)


def _set_d(payload):
    payload["algebra"]["d"] = True


def _set_n(payload):
    payload["module"]["n"] = True


def _set_size(payload):
    payload["scenario"]["size"] = True


def _set_sigma(payload):
    payload["scenario"]["sigma"][0] = True


@pytest.mark.parametrize("tamper,field", [
    (_set_d, "algebra.d"),
    (_set_n, "module.n"),
    (_set_size, "scenario.size"),
    (_set_sigma, "scenario.sigma"),
])
def test_boolean_integer_fields_rejected(tamper, field):
    payload = _scenario_payload()
    tamper(payload)
    with pytest.raises(FrameFileError, match=field):
        payload_to_frame(payload)


def test_boolean_permutation_entry_rejected():
    system, cert = profile_frame(ScalarProfile("gaussian", xi=1.0, c=1.0), ModuleShape(1, 4))
    payload = frame_to_payload(system, cert)
    assert payload["certificate"]["permutation"][0] == 1
    payload["certificate"]["permutation"][0] = True
    with pytest.raises(FrameFileError, match="certificate.permutation"):
        payload_to_frame(payload)


@pytest.mark.parametrize("families,assignment", [(True, [1, 1]), (2, [True, 2])])
def test_partition_boolean_integers_rejected(tmp_path, families, assignment):
    path = tmp_path / "part.json"
    path.write_text(json.dumps({
        "schema": "cstar-frames-partition/1",
        "families": families,
        "assignment": assignment,
    }))
    with pytest.raises(FrameFileError):
        load_partition(path)


def test_boolean_dimension_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bool.json"
    payload = _scenario_payload()
    _set_d(payload)
    path.write_text(json.dumps(payload))
    assert main(["analyze", str(path)]) == 2
    assert "algebra.d" in capsys.readouterr().err
