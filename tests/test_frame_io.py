"""Frame-file round-trips, certificate validation, and parse diagnostics."""

import copy
import gc
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import cstar_frames
from cstar_frames import frame_io
from cstar_frames.cli import main
from cstar_frames.constructors import ScalarProfile, profile_frame, repetition_frame
from cstar_frames.errors import FrameFileError
from cstar_frames.frame_io import (
    FRAME_SCHEMA,
    dumps_payload,
    frame_to_payload,
    load_frame,
    payload_to_frame,
    save_frame,
)
from cstar_frames.decomposition import PartCheck
from cstar_frames.frames import MAX_FRAME_ENTRIES, BoundsReport, FrameSystem
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
    np.testing.assert_allclose(loaded.certificate.alphas, cert.alphas, atol=1e-12)


def test_round_trip_repetition_certificate(tmp_path):
    system, cert = repetition_frame(ModuleShape(1, 5), {1: 3, 4: 2})
    path = tmp_path / "rep.json"
    save_frame(path, system, cert)
    loaded = load_frame(path)
    assert loaded.certificate is not None
    assert loaded.certificate.profile is None
    np.testing.assert_allclose(
        loaded.certificate.alphas, [2.0, 0.0, 0.0, 1.0, 0.0]
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
        loaded.certificate.alphas,
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
    with pytest.raises(FrameFileError) as info:
        load_frame(path)
    assert str(info.value) == f"{path}: invalid JSON at line 2, column 14: Expecting value"


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


def _overflowing_payload():
    # Every entry is finite, but X* X = 1e400 overflows a double.
    return {"schema": "cstar-frames/1", "algebra": {"d": 1}, "module": {"n": 1},
            "vectors": [[[[[1e200, 0.0]]]]]}


def test_overflowing_frame_operator_rejected(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_overflowing_payload()))
    with pytest.raises(FrameFileError) as info:
        load_frame(path)
    assert str(info.value) == f"{path}: vectors: the frame operator X* X overflows a double"


def test_overflowing_frame_operator_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_overflowing_payload()))
    assert main(["analyze", str(path)]) == 2
    assert "vectors: the frame operator X* X overflows" in capsys.readouterr().err


def test_underflowing_frame_operator_exits_2(tmp_path, capsys):
    # X* X = 1e-400 underflows to 0 where X is nonzero; at 1e-150, S = 1e-300 is a tight frame.
    payload = {"schema": "cstar-frames/1", "algebra": {"d": 1}, "module": {"n": 1},
               "vectors": [[[[[1e-150, 0.0]]]]]}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(payload))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["bounds"]["tight"] is True
    payload["vectors"][0][0][0][0][0] = 1e-200
    path.write_text(json.dumps(payload))
    for argv in (["analyze", str(path)], ["weave", str(path), str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {path}: vectors: the frame operator X* X "
                                           f"underflows a double: diagonal entry 1 is 0 on a "
                                           f"nonzero column of X\n")


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


def test_json_object_names_fields_in_camel_case_and_leaves_out_none():
    bounds = BoundsReport(lower=1.0, upper=2.0, tight=False, is_frame=True, is_bessel=True)
    assert list(frame_io.json_object(bounds).items()) == [
        ("lower", 1.0), ("upper", 2.0), ("tight", False), ("isFrame", True), ("isBessel", True)]
    assert frame_io.json_object(PartCheck(applicable=False, holds=True, slack=None)) == {
        "applicable": False, "holds": True}
    profile = ScalarProfile(kind="geometric", xi=0.5, c=2.0, r=0.25)
    assert frame_io.json_object(profile) == {"kind": "geometric", "xi": 0.5, "c": 2.0, "r": 0.25}
    assert frame_io.json_object(Partition((2, 1, 2))) == [2, 1, 2]


_NOT_UTF8 = b'\xff\xfe{"schema": "cstar-frames/1"}'


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(_NOT_UTF8)
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == (f"error: {path}: 'utf-8' codec can't decode byte 0xff "
                                       f"in position 0: invalid start byte\n")


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


def test_boolean_dimension_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bool.json"
    payload = _scenario_payload()
    _set_d(payload)
    path.write_text(json.dumps(payload))
    assert main(["analyze", str(path)]) == 2
    assert "algebra.d" in capsys.readouterr().err


# One fault past vector 1 in a 3-vector frame with n = 2, d = 2.  The message
# names the faulty container or number by its position in the file.

def _vectors_payload():
    rng = np.random.default_rng(5)
    synthesis = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    return frame_to_payload(FrameSystem(synthesis, shape=ModuleShape(2, 2)))


def _replace(path, value):
    def tamper(vectors):
        *parents, last = path
        node = vectors
        for i in parents:
            node = node[i]
        node[last] = value(node[last])
    return tamper


@pytest.mark.parametrize("tamper,message", [
    (_replace((1,), lambda v: v[:1]), "vector 2: expected 2 blocks"),
    (_replace((2,), lambda v: v + v[:1]), "vector 3: expected 2 blocks"),
    (_replace((1, 1), lambda b: b[:1]), "vector 2, block 2: expected 2 rows"),
    (_replace((2, 0), lambda b: "rows"), "vector 3, block 1: expected 2 rows"),
    (_replace((1, 1, 1), lambda r: r + r[:1]), "vector 2, block 2, row 2: expected 2 entries"),
    (_replace((2, 1, 0), lambda r: {}), "vector 3, block 2, row 1: expected 2 entries"),
    (_replace((1, 1, 1, 1), lambda e: e[:1]),
     "vector 2, block 2, row 2, column 2: expected an [re, im] pair"),
    (_replace((2, 0, 1, 0), lambda e: e + [0.0]),
     "vector 3, block 1, row 2, column 1: expected an [re, im] pair"),
    (_replace((1, 1, 1, 1, 1), lambda x: True),
     "vector 2, block 2, row 2, column 2 (im): expected a number, got True"),
    (_replace((2, 0, 1, 0, 0), lambda x: "1.5"),
     "vector 3, block 1, row 2, column 1 (re): expected a number, got '1.5'"),
    (_replace((1, 0, 0, 1, 1), lambda x: None),
     "vector 2, block 1, row 1, column 2 (im): expected a number, got None"),
    (_replace((2, 1, 1, 1, 0), lambda x: [1.5]),
     "vector 3, block 2, row 2, column 2 (re): expected a number, got [1.5]"),
    (_replace((1, 1, 0, 0, 0), lambda x: math.inf),
     "vector 2, block 2, row 1, column 1 (re): number must be finite"),
    (_replace((2, 0, 0, 1, 1), lambda x: math.nan),
     "vector 3, block 1, row 1, column 2 (im): number must be finite"),
    (_replace((1, 0, 1, 0, 1), lambda x: 10**400),
     "vector 2, block 1, row 2, column 1 (im): number must be finite"),
    (_replace((2, 1, 0, 1, 0), lambda x: -(10**400)),
     "vector 3, block 2, row 1, column 2 (re): number must be finite"),
])
def test_single_fault_message(tamper, message):
    payload = _vectors_payload()
    tamper(payload["vectors"])
    with pytest.raises(FrameFileError) as info:
        payload_to_frame(payload)
    assert str(info.value) == message


def test_every_number_a_list_is_named_at_the_first():
    payload = frame_to_payload(FrameSystem([ModuleVector(ModuleShape(1, 1), [[1.0]])]))
    payload["vectors"] = [[[[[[1.0], [0.0]]]]]]
    with pytest.raises(FrameFileError, match=r"^vector 1, block 1, row 1, column 1 \(re\): "
                                               r"expected a number, got \[1.0\]$"):
        payload_to_frame(payload)


# The same faults at the last entry: the type check over the whole array sees
# them, and the per-entry pass names them exactly as a fault past vector 1.

@pytest.mark.parametrize("value,message", [
    (True, "expected a number, got True"),
    ("1.5", "expected a number, got '1.5'"),
    (None, "expected a number, got None"),
    ([1.5], "expected a number, got [1.5]"),
    (10**400, "number must be finite"),
])
def test_single_fault_at_the_last_entry(value, message):
    payload = _vectors_payload()
    payload["vectors"][-1][-1][-1][-1][-1] = value
    with pytest.raises(FrameFileError) as info:
        payload_to_frame(payload)
    assert str(info.value) == f"vector 3, block 2, row 2, column 2 (im): {message}"


# The fault locator as a property: one or two faults anywhere in a small frame.
# A fault sits at a path into "vectors" of shape `expected` = (N, n, d, d, 2):
# a path of length k (1 to 4) names a list that must hold expected[k] items,
# and a path of length 5 names a number.

_LEVEL_WORDS = ("blocks", "rows", "entries")
_BAD_NUMBERS = [True, "1.5", None, [1.5], math.inf, math.nan, 10**400]


def _where(path):
    labels = ("vector", "block", "row", "column")
    where = ", ".join(f"{label} {i + 1}" for label, i in zip(labels, path))
    return f"{where} ({('re', 'im')[path[4]]})" if len(path) == 5 else where


def _fault_message(path, expected, value):
    if len(path) < 5:
        k = len(path)
        wanted = (f"{expected[k]} {_LEVEL_WORDS[k - 1]}" if k < 4
                  else "an [re, im] pair")
        return f"{_where(path)}: expected {wanted}"
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return f"{_where(path)}: number must be finite"
    return f"{_where(path)}: expected a number, got {value!r}"


@st.composite
def _faults(draw, expected):
    """A path into an (N, n, d, d, 2) nesting and the fault to put there."""
    depth = draw(st.integers(1, 5))
    path = tuple(draw(st.integers(0, size - 1)) for size in expected[:depth])
    if depth == 5:
        return path, ("number", draw(st.sampled_from(_BAD_NUMBERS)))
    kind = draw(st.sampled_from(["length", "string", "dict"]))
    size = expected[depth]
    length = draw(st.integers(0, size + 2).filter(lambda m: m != size))
    return path, (kind, length)


def _inject(vectors, path, fault):
    *parents, last = path
    node = vectors
    for i in parents:
        node = node[i]
    kind, arg = fault
    if kind == "number":
        node[last] = arg
    elif kind == "string":
        node[last] = "x" * len(node[last])
    elif kind == "dict":
        node[last] = {str(i): item for i, item in enumerate(node[last])}
    else:  # a list of the wrong length, its items distinct objects
        items = node[last]
        node[last] = [copy.deepcopy(items[i % len(items)]) for i in range(arg)]


@st.composite
def _faulty_payloads(draw, count):
    length, n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    expected = (length, n, d, d, 2)
    # All floats, as the package writes them, or JSON integers as every real part.
    real = int if draw(st.booleans()) else float
    numbers = iter(range(length * n * d * d))
    vectors = [[[[[real(next(numbers)), 0.5] for _ in range(d)] for _ in range(d)]
                 for _ in range(n)] for _ in range(length)]
    faults = draw(st.lists(_faults(expected), min_size=count, max_size=count,
                           unique_by=lambda fault: fault[0]))
    # Deepest first, so a path is still in place when its fault is put there.
    for path, fault in sorted(faults, key=lambda f: -len(f[0])):
        _inject(vectors, path, fault)
    payload = {"schema": "cstar-frames/1", "algebra": {"d": d}, "module": {"n": n},
               "vectors": vectors}
    return payload, expected, faults


def _load_message(payload):
    with pytest.raises(FrameFileError) as info:
        payload_to_frame(payload)
    return str(info.value)


@settings(deadline=None, max_examples=300)
@given(_faulty_payloads(1))
def test_any_single_fault_named_at_its_position(case):
    payload, expected, [(path, (_, arg))] = case
    assert _load_message(payload) == _fault_message(path, expected, arg)


@settings(deadline=None, max_examples=300)
@given(_faulty_payloads(2))
def test_of_two_faults_the_first_at_the_shallowest_level_is_named(case):
    payload, expected, faults = case
    path, (_, arg) = min(faults, key=lambda f: (len(f[0]), f[0]))
    assert _load_message(payload) == _fault_message(path, expected, arg)


def test_integer_entries_load_as_their_doubles():
    payload = _vectors_payload()
    vectors = payload["vectors"]
    vectors[0][0][0][0] = [3, -0.0]
    vectors[1][1][1][1][0] = -(2**60 + 1)
    vectors[2][0][1][0][1] = 0
    floats = json.loads(json.dumps(vectors), parse_int=float)
    mixed = payload_to_frame(payload).system.synthesis
    exact = payload_to_frame({**payload, "vectors": floats}).system.synthesis
    assert mixed.tobytes() == exact.tobytes()


def test_large_integer_in_file_exits_2(tmp_path, capsys):
    payload = _vectors_payload()
    payload["vectors"][1][0][0][0][0] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    assert main(["analyze", str(path)]) == 2
    assert "vector 2, block 1, row 1, column 1 (re): number must be finite" in capsys.readouterr().err


def test_large_integer_certificate_xi_rejected():
    system, cert = profile_frame(ScalarProfile("gaussian", xi=1.0, c=1.0), ModuleShape(1, 4))
    payload = frame_to_payload(system, cert)
    payload["certificate"]["xi"] = 10**400
    with pytest.raises(FrameFileError, match=r"certificate\.xi: number must be finite"):
        payload_to_frame(payload)


def test_certificate_past_double_range_rejected():
    # Each number is finite; the certified frame operator alphas + xi is not.
    payload = {"algebra": {"d": 1},
               "certificate": {"alphas": [1e308], "permutation": [], "profile": None, "xi": 1e308},
               "module": {"n": 1}, "schema": "cstar-frames/1", "vectors": [[[[[1.0, 0.0]]]]]}
    with pytest.raises(FrameFileError, match=r"^certificate: alphas \+ xi is past the double "
                                               r"range at xi = 1e\+308$"):
        payload_to_frame(payload)


def test_negative_zero_round_trips(tmp_path):
    shape = ModuleShape(1, 2)
    system = FrameSystem(np.array([[complex(-0.0, -0.0), complex(0.0, -0.0)]]), shape=shape)
    path = tmp_path / "zeros.json"
    save_frame(path, system)
    back = load_frame(path).system.synthesis
    assert np.array_equal(np.signbit(back.real), [[True, False]])
    assert np.array_equal(np.signbit(back.imag), [[True, True]])


# Any double, subnormals and -0.0 included, up to a size whose frame operator
# X* X stays finite (FrameSystem rejects a non-finite operator).  FrameSystem
# also rejects a nonzero column whose every |x|^2 underflows; such draws are
# discarded.
_doubles = st.floats(min_value=-1e150, max_value=1e150)


@st.composite
def frame_systems(draw):
    d, n, count = (draw(st.integers(1, 3)) for _ in range(3))
    parts = draw(st.lists(_doubles, min_size=2 * count * d * n * d,
                          max_size=2 * count * d * n * d))
    synthesis = np.array(parts).view(complex).reshape(count * d, n * d)
    try:
        return FrameSystem(synthesis, shape=ModuleShape(d, n))
    except OverflowError:
        reject()


@settings(deadline=None)
@given(frame_systems())
def test_save_load_bit_exact(system):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
        save_frame(first, system)
        loaded = load_frame(first).system
        save_frame(second, loaded)
        assert loaded.shape == system.shape
        assert loaded.synthesis.tobytes() == system.synthesis.tobytes()
        assert second.read_bytes() == first.read_bytes()


# The canonical text is json.dumps(payload, sort_keys=True, indent=2) + "\n";
# dumps_payload lays out "vectors" itself and must give the same bytes.

def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


_SCENARIO = {
    "size": 4,
    "role": "b",
    "sigma": [1, 3],
    "profile_a": {"kind": "geometric", "xi": 0.5, "c": 1.0, "r": 0.25},
    "profile_b": {"kind": "power", "xi": 0.5, "c": 2.0, "p": 1.5},
}


def _certificate(kind, shape):
    if kind == "profile":
        return profile_frame(ScalarProfile("gaussian", xi=1.0, c=1.0), shape)[1]
    if kind == "repetition":
        return repetition_frame(shape, {shape.n: 3})[1]
    return None


@settings(deadline=None, max_examples=200)
@given(frame_systems(), st.sampled_from([None, "profile", "repetition"]),
       st.sampled_from([None, _SCENARIO]))
def test_dumps_payload_is_the_canonical_json(system, certificate, scenario):
    cert = _certificate(certificate, system.shape)
    payload = frame_to_payload(system, cert, scenario)
    text = dumps_payload(payload)
    assert text == _canonical(payload)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.json"
        save_frame(path, system, cert, scenario)
        assert path.read_text() == text


# Every finite double: -0.0, subnormals and magnitudes up to 1e308, which no
# FrameSystem can hold once X* X overflows, so they go straight into "vectors".
_finite_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300, -1e-300]),
)


@st.composite
def vectors_lists(draw):
    """A "vectors" list of shape (N, n, d, d, 2), N, n, d in 1..3, of any finite doubles."""
    count, n, d = (draw(st.integers(1, 3)) for _ in range(3))
    size = 2 * count * n * d * d
    numbers = draw(st.lists(_finite_doubles, min_size=size, max_size=size))
    return np.array(numbers).reshape(count, n, d, d, 2).tolist()


@settings(deadline=None, max_examples=200)
@given(vectors_lists())
def test_dumps_payload_any_finite_doubles(vectors):
    payload = {"schema": "cstar-frames/1", "algebra": {"d": len(vectors[0][0])},
               "module": {"n": len(vectors[0])}, "vectors": vectors}
    assert dumps_payload(payload) == _canonical(payload)


def test_dumps_payload_rejects_non_finite_vectors():
    payload = frame_to_payload(FrameSystem(standard_basis(ModuleShape(1, 2))))
    payload["vectors"][1][0][0][0][1] = math.nan
    with pytest.raises(ValueError, match="finite"):
        dumps_payload(payload)


def test_dumps_payload_rejects_empty_vectors():
    with pytest.raises(ValueError, match="^vectors: expected a nonempty list"):
        dumps_payload({"schema": "cstar-frames/1", "vectors": []})


# Ragged one and two levels down, a string (numeric or not), a complex entry,
# and integers or booleans, which json.dumps would write as such, in a list
# (alone or cast to floats beside a double) or as an array.
_MALFORMED_VECTORS = [
    pytest.param([[1.0], [2.0, 3.0]], "^vectors: expected nested lists of one shape",
                 id="ragged-depth-1"),
    pytest.param([[[1.0], [2.0]], [[1.0], [2.0, 3.0]]], "^vectors: expected nested lists of one shape",
                 id="ragged-depth-2"),
    pytest.param([[1.0, "a"]], "^vectors: every entry must be a real number", id="string"),
    pytest.param([[1.0, "1.5"]], "^vectors: every entry must be a real number", id="numeric-string"),
    pytest.param([[1.0, 1j]], "^vectors: every entry must be a real number", id="complex"),
    pytest.param([[True, 1.0]], "^vectors: every entry must be a double", id="bool-beside-double"),
    pytest.param([[1, 1.0]], "^vectors: every entry must be a double", id="int-beside-double"),
    pytest.param([[1, 2]], "^vectors: every entry must be a double", id="ints"),
    pytest.param(np.array([[True, False]]), "^vectors: every entry must be a double",
                 id="bool-array"),
    pytest.param(np.array([[1, 2]]), "^vectors: every entry must be a double", id="int-array"),
]


@pytest.mark.parametrize("vectors,message", _MALFORMED_VECTORS)
def test_dumps_payload_names_vectors_for_malformed_lists(vectors, message):
    with pytest.raises(ValueError, match=message):
        dumps_payload({"schema": "cstar-frames/1", "vectors": vectors})


@pytest.mark.parametrize("vectors,message", _MALFORMED_VECTORS)
def test_malformed_vectors_leave_the_file_unchanged(tmp_path, monkeypatch, vectors, message):
    path = tmp_path / "frame.json"
    system = FrameSystem(standard_basis(ModuleShape(1, 2)))
    save_frame(path, system)
    before = path.read_bytes()
    monkeypatch.setattr(frame_io, "_payload",
                        lambda *frame: {"schema": "cstar-frames/1", "vectors": vectors})
    with pytest.raises(ValueError, match=message):
        save_frame(path, system)
    assert path.read_bytes() == before


# save_frame streams the text of dumps_payload to disk a slice of vectors at
# a time.  The file is canonical as bytes: "\n" line ends
# whatever the platform's, which reading back as text would hide.

def _canonical_bytes(payload) -> bytes:
    return _canonical(payload).encode()


@pytest.mark.parametrize("certificate", [None, "profile", "repetition"])
@pytest.mark.parametrize("scenario", [None, _SCENARIO])
def test_save_frame_writes_canonical_bytes(rng, tmp_path, certificate, scenario):
    system = random_system(rng, ModuleShape(2, 3), 7)
    cert = _certificate(certificate, system.shape)
    path = tmp_path / "frame.json"
    save_frame(path, system, cert, scenario)
    assert path.read_bytes() == _canonical_bytes(frame_to_payload(system, cert, scenario))


def _slice_sizes(shape):
    """Vector counts around the slice boundaries of this shape: 1, per - 1, per, per + 1, 2 per + 1."""
    template = frame_io._number_template((shape.n, shape.d, shape.d, 2), 2)
    per = frame_io._vectors_per_slice(template, 2 * shape.n * shape.d * shape.d)
    return per, sorted({1, max(1, per - 1), per, per + 1, 2 * per + 1})


# d = n = 1 packs the most vectors into a slice; (4, 64) gives one vector per slice.
@pytest.mark.parametrize("d,n", [(1, 1), (2, 3), (1, 64), (4, 64)])
def test_save_frame_bytes_across_slice_boundaries(rng, tmp_path, d, n):
    shape = ModuleShape(d, n)
    per, sizes = _slice_sizes(shape)
    path = tmp_path / "frame.json"
    for count in sizes:
        rows = (count * d, shape.dim)
        system = FrameSystem(rng.standard_normal(rows) + 1j * rng.standard_normal(rows), shape=shape)
        payload = frame_to_payload(system)
        save_frame(path, system)
        assert path.read_bytes() == _canonical_bytes(payload), count
        assert len(list(frame_io._layout(payload))) == 2 * math.ceil(count / per) + 1, count


def _assert_writes_canonical_text(path, system):
    """dumps_payload gives the canonical text of the frame, and save_frame writes its bytes."""
    payload = frame_to_payload(system)
    text = dumps_payload(payload)
    assert text == _canonical(payload)
    save_frame(path, system)
    assert path.read_bytes() == text.encode()
    return text


# A run of equal vectors is formatted once; each run here holds five vectors,
# and "boundary" runs from two vectors before a slice boundary to three after.
@pytest.mark.parametrize("d,n,where", [(2, 3, "first"), (2, 3, "last"),
                                       (1, 64, "boundary"), (2, 16, "boundary")])
def test_run_of_equal_vectors_writes_canonical_bytes(rng, tmp_path, d, n, where):
    shape = ModuleShape(d, n)
    per, _ = _slice_sizes(shape)
    count = 2 * per + 1
    first = {"first": 0, "last": count - 5, "boundary": per - 2}[where]
    blocks = rng.standard_normal((count, d, shape.dim)) + 1j * rng.standard_normal((count, d, shape.dim))
    blocks[first:first + 5] = blocks[first]
    system = FrameSystem(blocks.reshape(-1, shape.dim), shape=shape)
    _assert_writes_canonical_text(tmp_path / "frame.json", system)


def test_negative_zero_breaks_a_run_of_equal_vectors(tmp_path):
    # The third vector equals the others in value, not in bits: its -0.0 is kept.
    e1, flipped = [1.0, 0.0], [1.0, complex(-0.0, 0.0)]
    system = FrameSystem(np.array([e1, e1, flipped, e1]), shape=ModuleShape(1, 2))
    text = _assert_writes_canonical_text(tmp_path / "frame.json", system)
    assert [line.strip(" ,") for line in text.splitlines()].count("-0.0") == 1


def test_save_frame_memory_stays_below_half_the_file(tmp_path):
    system, cert = repetition_frame(ModuleShape(1, 64), {5: 1001})
    path = tmp_path / "repetition.json"
    tracemalloc.start()
    try:
        save_frame(path, system, cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 6_000_000
    assert peak < size / 2, (peak, size)


def test_save_frame_memory_stays_below_half_the_file_with_no_repeated_vector(rng, tmp_path):
    # Only the previous vector's text is kept, so a frame with no repeats holds one slice too.
    rows = (1064, 64)
    system = FrameSystem(rng.standard_normal(rows) + 1j * rng.standard_normal(rows),
                         shape=ModuleShape(1, 64))
    path = tmp_path / "random.json"
    tracemalloc.start()
    try:
        save_frame(path, system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 5_000_000
    assert peak < size / 2, (peak, size)


def test_refused_save_leaves_the_file_unchanged(tmp_path, monkeypatch):
    system = FrameSystem(standard_basis(ModuleShape(1, 2)))
    path = tmp_path / "frame.json"
    save_frame(path, system)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        save_frame(path, system, None, {"size": {2}})
    payload = frame_to_payload(system)
    payload["vectors"][1][0][0][0][1] = math.inf
    monkeypatch.setattr(frame_io, "_payload", lambda *frame: payload)
    with pytest.raises(ValueError, match="finite"):
        save_frame(path, system)
    payload["vectors"] = []
    with pytest.raises(ValueError, match="^vectors"):
        save_frame(path, system)
    assert path.read_bytes() == before

def _construct_and_dual(tmp_path):
    """Every file the CLI writes: each construct kind, and duals with and without a certificate."""
    t4 = {"constant": [], "gaussian": ["--c", "1"], "geometric": ["--c", "1", "--r", "0.5"],
          "power": ["--c", "2", "--p", "1.5"]}
    for kind, extra in t4.items():
        out = tmp_path / f"t4-{kind}.json"
        assert main(["construct", "t4", "--kind", kind, "--xi", "1", "--n", "5", "--d", "2",
                     "--out", str(out), *extra]) == 0
        yield out
    out = tmp_path / "rep.json"
    assert main(["construct", "repetition", "--n", "4", "--d", "3", "--repeat", "2:3",
                 "--out", str(out)]) == 0
    yield out
    assert main(["construct", "t49", "--n", "6", "--profile1", "geometric:1.3:0.7",
                 "--profile2", "gaussian:1", "--out", str(tmp_path / "sc")]) == 0
    yield from (tmp_path / f"sc-{key}.json" for key in ("a", "b"))
    rng = np.random.default_rng(11)
    plain = tmp_path / "plain.json"
    save_frame(plain, random_system(rng, ModuleShape(2, 2), 5))
    for source in (tmp_path / "t4-gaussian.json", plain):
        out = tmp_path / f"dual-{source.name}"
        assert main(["dual", str(source), "--out", str(out)]) == 0
        yield out


def test_cli_writes_canonical_json(tmp_path, capsys):
    files = list(_construct_and_dual(tmp_path))
    capsys.readouterr()
    assert len(files) == 9
    for path in files:
        text = path.read_text()
        assert text == _canonical(json.loads(text)), path.name
    assert "certificate" in json.loads(files[-2].read_text())
    assert "certificate" not in json.loads(files[-1].read_text())


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind,extra", [("gaussian", ["--c", "1"]),
                                        ("geometric", ["--c", "1.3", "--r", "0.7"]),
                                        ("power", ["--c", "0.5", "--p", "1.5"])])
def test_construct_writes_profile_alphas_bit_exact(tmp_path, capsys, kind, extra, d):
    out = tmp_path / "t4.json"
    assert main(["construct", "t4", "--kind", kind, "--xi", "1", "--n", "6", "--d", str(d),
                 "--out", str(out), *extra]) == 0
    written = json.loads(out.read_text())["certificate"]
    profile = ScalarProfile(**written["profile"])
    expected = profile.values(6) - profile.xi
    assert [a.hex() for a in written["alphas"]] == [a.hex() for a in expected.tolist()]


# Loading pauses the cyclic collector while JSON is decoded, and leaves it as it
# found it on every path out.

_DEEP = '{"schema": "cstar-frames/1", "vectors": ' + "[" * 100000 + "]" * 100000 + "}"


def test_deeply_nested_json_exits_2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(_DEEP)
    src = Path(cstar_frames.__file__).parent.parent
    done = subprocess.run([sys.executable, "-m", "cstar_frames.cli", "analyze", str(path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 2
    assert done.stderr == f"error: {path}: invalid JSON: nested too deeply to decode\n"


@pytest.fixture
def collector():
    """Restores the collector's state after a test that changes it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


_GC_CASES = {
    "valid": None,
    "invalid JSON": '{"schema": oops}',
    "deep nesting": _DEEP,
    "not UTF-8": _NOT_UTF8,
    "schema fault": '{"schema": "something-else", "families": true}',
}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case", list(_GC_CASES))
@pytest.mark.parametrize("load", [load_frame])
def test_load_leaves_the_collector_as_found(tmp_path, collector, load, case, enabled):
    path = tmp_path / "file.json"
    content = _GC_CASES[case]
    if content is None:
        save_frame(path, FrameSystem(standard_basis(ModuleShape(1, 2))))
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    (gc.enable if enabled else gc.disable)()
    if content is None:
        load(path)
    else:
        with pytest.raises(FrameFileError):
            load(path)
    assert gc.isenabled() is enabled


def test_collector_paused_while_decoding(tmp_path, monkeypatch, collector):
    # A written file is decoded in two json.loads calls, its head and the numbers of
    # "vectors"; a minified copy with "vectors" first is decoded whole, in one.
    system = FrameSystem(standard_basis(ModuleShape(1, 2)))
    written, whole = tmp_path / "frame.json", tmp_path / "whole.json"
    save_frame(written, system)
    payload = frame_to_payload(system)
    whole.write_text(json.dumps({"vectors": payload.pop("vectors"), **payload}))
    seen = []
    decode = json.loads
    monkeypatch.setattr(json, "loads",
                        lambda *args, **kwargs: seen.append(gc.isenabled()) or decode(*args, **kwargs))
    gc.enable()
    load_frame(written)
    assert seen == [False, False] and gc.isenabled()
    seen.clear()
    load_frame(whole)
    assert seen == [False] and gc.isenabled()


def test_collector_paused_while_checking(tmp_path, monkeypatch, collector):
    # The decoded document is still alive while _frame checks it.
    path = tmp_path / "frame.json"
    save_frame(path, FrameSystem(standard_basis(ModuleShape(1, 2))))
    seen = []
    check = frame_io._frame
    monkeypatch.setattr(frame_io, "_frame",
                        lambda *decoded: seen.append(gc.isenabled()) or check(*decoded))
    gc.enable()
    load_frame(path)
    assert seen == [False] and gc.isenabled()


@pytest.mark.parametrize("count,d,n", [(262145, 1, 1), (1, 1, 513), (2, 2, 363)])
def test_oversized_frame_refused_before_decoding(count, d, n):
    # Every entry is malformed, so a message about the entries would mean
    # the size was checked too late.
    payload = {"schema": "cstar-frames/1", "algebra": {"d": d}, "module": {"n": n},
               "vectors": [None] * count}
    entries = max(count, n) * d * n * d
    with pytest.raises(FrameFileError) as info:
        payload_to_frame(payload)
    assert str(info.value) == (f"vectors: a frame of {count} vectors with n = {n}, d = {d} "
                               f"has {entries} entries, above the limit {MAX_FRAME_ENTRIES}")


def test_size_limit_admits_the_largest_benchmark_frame(tmp_path):
    path = tmp_path / "tall.json"
    save_frame(path, FrameSystem(np.ones((1064, 64)), shape=ModuleShape(1, 64)))
    assert load_frame(path).system.synthesis.shape == (1064, 64)


# A JSON integer longer than int's digit limit: json.loads raises a plain
# ValueError for it, wherever it sits.

_LONG_INTEGER = "1" * 5000


def _long_integer_message(path):
    return f"{path}: invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize("field", ["vectors", "algebra.d"])
def test_long_integer_in_frame_file_rejected(tmp_path, field):
    payload = _vectors_payload()
    payload["vectors"][1][0][0][0][0] = 0.125
    old = "0.125" if field == "vectors" else '"d": 2'
    new = _LONG_INTEGER if field == "vectors" else f'"d": {_LONG_INTEGER}'
    path = tmp_path / "long.json"
    path.write_text(dumps_payload(payload).replace(old, new, 1))
    with pytest.raises(FrameFileError) as info:
        load_frame(path)
    assert str(info.value) == _long_integer_message(path)


# load_frame reads "vectors" from the text of a file when it can, and decodes
# any other file whole, as the reference below does.  Both must give the same
# frame, bit for bit, or the same message.

def _walk(path):
    """load_frame with the whole file decoded and its "vectors" checked level by level."""
    with frame_io._loading(path):
        return payload_to_frame(frame_io._read_json(path))


def _outcome(load, path):
    try:
        loaded = load(path)
    except FrameFileError as exc:
        return str(exc)
    certificate = loaded.certificate
    return (loaded.system.shape, loaded.system.synthesis.view(np.uint64).tobytes(),
            None if certificate is None else (certificate.xi, certificate.alphas.tobytes()),
            loaded.scenario)


def _takes_text_path(path) -> bool:
    return frame_io._text_payload(path.read_bytes()) is not None


# Up to 1e150, so that X* X stays finite, with the edges drawn often; one entry
# of +-1e308, whose X* X overflows, goes into a quarter of the frames.
_file_numbers = st.one_of(
    st.floats(min_value=-1e150, max_value=1e150),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                     1e-308, -1e-308]),
    st.integers(-(2**70), 2**70),
)


@st.composite
def frame_texts(draw):
    """A frame file's text: d 1-3, n 1-4, N 1-6, finite doubles and JSON integers."""
    d, n, count = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    size = count * n * d * d * 2
    numbers = draw(st.lists(_file_numbers, min_size=size, max_size=size))
    if draw(st.integers(0, 3)) == 0:
        numbers[draw(st.integers(0, size - 1))] = draw(st.sampled_from([1e308, -1e308]))
    numbers = iter(numbers)
    vectors = [[[[[next(numbers), next(numbers)] for _ in range(d)] for _ in range(d)]
                 for _ in range(n)] for _ in range(count)]
    payload = {"schema": FRAME_SCHEMA, "algebra": {"d": d}, "module": {"n": n},
               "vectors": vectors}
    indent = draw(st.sampled_from([2, None]))
    return json.dumps(payload, sort_keys=True, indent=indent) + "\n"


@settings(deadline=None, max_examples=200)
@given(frame_texts())
def test_text_path_gives_the_frame_of_the_decoded_payload(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.json"
        path.write_text(text)
        assert _takes_text_path(path)
        try:
            expected = payload_to_frame(json.loads(text)).system.synthesis
        except FrameFileError as exc:  # X* X past the double range
            with pytest.raises(FrameFileError) as info:
                load_frame(path)
            assert str(info.value) == f"{path}: {exc}"
            return
        actual = load_frame(path).system.synthesis
        assert actual.shape == expected.shape
        assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


def _written_frame_payload():
    system, cert = profile_frame(ScalarProfile("gaussian", xi=1.0, c=1.0), ModuleShape(2, 3))
    return frame_to_payload(system, cert, _SCENARIO)


def _vectors_first(payload):
    return json.dumps({"vectors": payload["vectors"], **payload}, indent=2)


def _nested_vectors(payload):
    return _canonical({**payload, "scenario": {**payload["scenario"],
                                               "vectors": payload["vectors"]}})


def _duplicate_vectors(payload):
    return _canonical(payload).replace("{\n", '{\n  "vectors": [],\n', 1)


def _negative_zero_integers(payload):
    # Every 0.0 on a line of its own, certificate alphas included, as the integer -0.
    return re.sub(r"(?m)^( +)0\.0(,?)$", r"\1-0\2", _canonical(payload))


# Each non-canonical copy of a written frame, and whether load_frame reads its
# "vectors" from the text.
_COPIES = {
    "canonical": (_canonical, True),
    "minified": (lambda p: json.dumps(p, sort_keys=True, separators=(",", ":")), True),
    "crlf": (lambda p: _canonical(p).replace("\n", "\r\n"), True),
    "negative-zero-integers": (_negative_zero_integers, True),
    "vectors-first": (_vectors_first, False),
    "escaped-key": (lambda p: _canonical(p).replace('"vectors"', '"vect\\u006frs"'), False),
    "nested-vectors": (_nested_vectors, False),
    "duplicate-vectors": (_duplicate_vectors, False),
    "trailing-text": (lambda p: _canonical(p) + "x", False),
    "bom": (lambda p: "\ufeff" + _canonical(p), False),
}


@pytest.mark.parametrize("copy_kind", list(_COPIES))
def test_non_canonical_copies_load_as_the_walk_does(tmp_path, copy_kind):
    render, text_path = _COPIES[copy_kind]
    path = tmp_path / "frame.json"
    path.write_bytes(render(_written_frame_payload()).encode())
    assert _takes_text_path(path) is text_path
    expected = _outcome(_walk, path)
    assert _outcome(load_frame, path) == expected
    if copy_kind in ("trailing-text", "bom"):
        assert isinstance(expected, str) and "invalid JSON" in expected
    else:
        assert expected == _outcome(load_frame, _canonical_copy(tmp_path))


def _canonical_copy(tmp_path):
    path = tmp_path / "canonical.json"
    path.write_text(_canonical(_written_frame_payload()))
    return path


def test_package_written_files_take_the_text_path(tmp_path, capsys, monkeypatch):
    files = [path for path in _construct_and_dual(tmp_path) if "partition" not in path.name]
    capsys.readouterr()
    # As the benchmark writes its inputs: json.dumps with indent=2, no certificate.
    rng = np.random.default_rng(3)
    plain = frame_to_payload(random_system(rng, ModuleShape(2, 4), 6))
    bench = tmp_path / "bench.json"
    bench.write_text(_canonical(plain))
    files.append(bench)

    big = tmp_path / "repetition.json"
    save_frame(big, *repetition_frame(ModuleShape(1, 64), {5: 1001}))
    files.append(big)

    def refuse(path):
        raise AssertionError(f"{path.name} decoded whole")

    monkeypatch.setattr(frame_io, "_read_json", refuse)
    for path in files:
        assert _takes_text_path(path), path.name
        load_frame(path)
    assert len(files) == 11


# Faulty copies of a minified frame file: each must take the walk and get its
# message.  The first keeps the count of brackets and commas but not their
# order; the rest keep both.  Read with whitespace or brackets deleted, the
# next three would pass as another number.

def _swap(old, new):
    return lambda text: text.replace(old, new, 1)


_FAULTY_COPIES = {
    "bracket-moved": lambda text: text.replace("],[", ",[", 1).replace("]]", "]]]", 1),
    "space-inside-a-number": _swap("0.125", "0.1 25"),
    "number-before-a-bracket": _swap('"vectors":[[', '"vectors":[5['),
    "number-after-a-bracket": _swap("],", "]5,"),
    "empty-entry": _swap("0.125", ""),
    "plus-sign": _swap("0.125", "+0.125"),
    "hexadecimal": _swap("0.125", "0x1"),
    "past-the-double-range": _swap("0.125", "1E999"),
    "nan": _swap("0.125", "NaN"),
    "infinity": _swap("0.125", "-Infinity"),
    "boolean": _swap("0.125", "true"),
}


@pytest.mark.parametrize("fault", list(_FAULTY_COPIES))
def test_faulty_copies_get_the_walks_message(tmp_path, fault):
    payload = _vectors_payload()
    payload["vectors"][1][0][0][0][0] = 0.125
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    path = tmp_path / "frame.json"
    path.write_text(_FAULTY_COPIES[fault](text))
    assert not _takes_text_path(path)
    expected = _outcome(_walk, path)
    assert isinstance(expected, str)
    assert _outcome(load_frame, path) == expected


def test_payload_vectors_as_an_array_refused():
    # payload_to_frame takes what json.loads decodes to; an array is not that.
    payload = _vectors_payload()
    with pytest.raises(FrameFileError, match="^vectors: expected a nonempty list$"):
        payload_to_frame({**payload, "vectors": np.array(payload["vectors"])})


def test_oversized_frame_file_refused_without_building_its_skeleton(tmp_path):
    # One vector of n = 10^6 would have a skeleton of 8 MB, and its X* X 10^12 entries.
    n = 10**6
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"algebra": {"d": 1}, "module": {"n": n},
                                "schema": "cstar-frames/1", "vectors": [[[[[1.0, 0.0]]]]]}))
    tracemalloc.start()
    try:
        with pytest.raises(FrameFileError) as info:
            load_frame(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == (f"{path}: vectors: a frame of 1 vectors with n = {n}, d = 1 "
                               f"has {n * n} entries, above the limit {MAX_FRAME_ENTRIES}")
    assert peak < 1_000_000, peak


# Runs of equal vectors: the text path decodes the first vector of each run and
# repeats its numbers, so a run must load as the decoded payload does, bit for
# bit, wherever it sits and however the file is laid out.

def _bit_runs(rows):
    """The lengths of the runs of rows equal to the one before them, bit for bit."""
    return [len(list(run)) for _, run in itertools.groupby(row.tobytes() for row in rows)]


def _runs_found(data, numbers):
    """The run lengths the text path finds in a file whose vectors hold `numbers` numbers each."""
    start = data.index(b"[", data.index(b'"vectors"'))
    stop = data.rindex(b"]", 0, data.rindex(b"]")) + 1  # past the last vector's last bracket
    return frame_io._vector_runs(data, start, stop, numbers - 1)[-1].tolist()


def _rows_of_runs(distinct, lengths):
    return np.repeat(np.array([distinct[k] for k, _ in lengths]), [n for _, n in lengths], axis=0)


@st.composite
def run_frames(draw):
    """A shape with d in {1, 2}, and the file-order numbers of vectors in runs of 1-3 distinct ones.

    With a twin, the second distinct vector is the first with one 0.0 made -0.0.
    A long frame has n = 16, and its second run crosses the writer's first
    64 KiB slice boundary.
    """
    d, long = draw(st.sampled_from([1, 2])), draw(st.booleans())
    shape = ModuleShape(d, 16 if long else draw(st.integers(1, 3)))
    size = 2 * shape.n * d * d
    numbers = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]), st.floats(-1e150, 1e150))
    distinct = [draw(st.lists(numbers, min_size=size, max_size=size))
                for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        distinct[0][0] = 0.0
        distinct[1:2] = [[-0.0] + distinct[0][1:]]
    which = st.integers(0, len(distinct) - 1)
    if long:
        per, _ = _slice_sizes(shape)
        lengths = [(draw(which), per - 2 + draw(st.integers(0, 1))), (draw(which), 5),
                   (draw(which), draw(st.integers(1, 3)))]
    else:
        lengths = draw(st.lists(st.tuples(which, st.integers(1, 6)), min_size=1, max_size=6))
    return shape, _rows_of_runs(distinct, lengths)


_E1, _E1_NEGATIVE_ZERO = [1.0, 0.0, 0.0, 0.0], [1.0, 0.0, -0.0, 0.0]


@example((ModuleShape(1, 2), _rows_of_runs([_E1], [(0, 4)])), False)  # one run, vector 1 to the last
@example((ModuleShape(1, 2), _rows_of_runs([_E1, _E1_NEGATIVE_ZERO], [(0, 2), (1, 3)])), False)
@settings(deadline=None, max_examples=150)
@given(run_frames(), st.booleans())
def test_runs_of_equal_vectors_load_as_the_decoded_payload(frame, minified):
    shape, rows = frame
    payload = {"schema": FRAME_SCHEMA, "algebra": {"d": shape.d}, "module": {"n": shape.n},
               "vectors": rows.reshape(len(rows), shape.n, shape.d, shape.d, 2).tolist()}
    text = (json.dumps(payload, sort_keys=True, separators=(",", ":")) if minified
            else dumps_payload(payload))
    assert _runs_found(text.encode(), rows.shape[1]) == _bit_runs(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.json"
        path.write_text(text)
        assert _takes_text_path(path)
        try:
            expected = payload_to_frame(json.loads(text)).system.synthesis
        except FrameFileError as exc:  # X* X past the double range
            with pytest.raises(FrameFileError) as info:
                load_frame(path)
            assert str(info.value) == f"{path}: {exc}"
            return
        actual = load_frame(path).system.synthesis
        assert actual.shape == expected.shape
        assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


# A fault planted in a copy of a repetition frame: e1, e2 and e3, then a run
# of four more copies of e2, vectors 4 to 7.  Most go into vector 5; the first
# of those keeps the brackets and commas, so the text path decodes the faulty
# copy and refuses it; the next two do not keep them; the fourth makes a
# well-formed file of eight vectors, whose certificate then fails.  The fifth
# puts a number after vector 7, past the last bracket of the run's last copy,
# which keeps them too.  The last moves the last comma of vector 5 past its
# closing bracket, next to the comma before vector 6: the count of commas is
# kept, and only the skeleton of vectors 5 and 6 shows the fault.  Each file
# is decoded whole, as before, and gets the same message.
_RUN_FAULTS = {
    "two-numbers": (5, lambda vector: vector.replace("1.0", "1 2", 1), False,
                    "invalid JSON at line 138, column 15: Expecting ',' delimiter"),
    "letter": (5, lambda vector: vector.replace("1.0", "x1.0", 1), False,
               "invalid JSON at line 138, column 13: Expecting value"),
    "missing-comma": (5, lambda vector: vector.replace(",", "", 1), False,
                      "invalid JSON at line 131, column 13: Expecting ',' delimiter"),
    "vector-too-many": (5, lambda vector: f"{vector},\n    {vector}", True,
                        "certificate: does not validate against the vectors; relative frame "
                        "operator drift 1.622e-01 exceeds 1e-09"),
    "number-after-the-last-vector": (7, lambda vector: f"{vector} 7", False,
                                     "invalid JSON at line 203, column 7: Expecting ',' "
                                     "delimiter"),
    "comma-moved-to-the-next-copy": (5, lambda vector: "".join(vector.rsplit(",", 1)) + ",",
                                     False, "invalid JSON at line 147, column 13: Expecting "
                                            "',' delimiter"),
}


@pytest.mark.parametrize("fault", list(_RUN_FAULTS))
def test_fault_in_a_copy_inside_a_run_gets_the_whole_decodes_message(tmp_path, capsys, fault):
    vector, plant, text_path, message = _RUN_FAULTS[fault]
    system, cert = repetition_frame(ModuleShape(1, 3), {2: 5})
    payload = frame_to_payload(system, cert)
    text = dumps_payload(payload)
    copy_text = json.dumps(payload["vectors"][1], indent=2).replace("\n", "\n    ")
    copies = [m.start() for m in re.finditer(re.escape(copy_text), text)]
    assert len(copies) == 5 and _runs_found(text.encode(), 6) == [1, 1, 1, 4]
    at = copies[vector - 3]
    path = tmp_path / "frame.json"
    path.write_text(text[:at] + plant(copy_text) + text[at + len(copy_text):])
    assert _takes_text_path(path) is text_path
    assert _outcome(load_frame, path) == _outcome(_walk, path) == f"{path}: {message}"
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def _text_path_peak(path):
    data = path.read_bytes()
    tracemalloc.start()
    try:
        assert frame_io._text_payload(data) is not None
        return tracemalloc.get_traced_memory()[1] / len(data)
    finally:
        tracemalloc.stop()


def test_text_path_memory_with_and_without_runs(rng, tmp_path):
    # With no run, two copies of the file beside the file itself, as before runs
    # were decoded once; the repetition frame's runs leave about one.
    rows = (1064, 64)
    plain = tmp_path / "random.json"
    save_frame(plain, FrameSystem(rng.standard_normal(rows) + 1j * rng.standard_normal(rows),
                                  shape=ModuleShape(1, 64)))
    runs = tmp_path / "repetition.json"
    save_frame(runs, *repetition_frame(ModuleShape(1, 64), {5: 1001}))
    assert _text_path_peak(plain) < 2.2
    assert _text_path_peak(runs) < 1.5


# Damaged copies of repetition frames with runs: the text path decodes only
# the first vector of each run, which is sound only if every byte of "vectors"
# is in some vector's text.  Whatever one or two edits inside "vectors" do, the
# text path and the whole decode must agree: the same frame to the bit, or the
# same message.

_EDIT_BYTES = ",[]0123456789.-+eE \n"


def _repetition_text(d, n, repeats, certificate, minified):
    system, cert = repetition_frame(ModuleShape(d, n), repeats)
    payload = frame_to_payload(system, cert if certificate else None)
    if minified:
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    return dumps_payload(payload)


def _inside_vectors(text):
    """The offsets of the brackets that open and close "vectors"."""
    return text.index("[", text.index('"vectors"')), text.rindex("]")


def _vector_ends(text):
    """The offsets just past the closing bracket of each vector."""
    depth, ends = 0, []
    for at in range(_inside_vectors(text)[0], len(text)):
        depth += {"[": 1, "]": -1}.get(text[at], 0)
        if depth == 1 and text[at] == "]":
            ends.append(at + 1)
    return ends


@st.composite
def damaged_repetition_texts(draw):
    """A repetition frame with runs, d in {1, 2}, pretty or minified, with or without its
    certificate, and one or two edits inside "vectors".  An edit replaces, inserts or
    deletes one byte of _EDIT_BYTES, or deletes a comma and inserts a "," or "]" elsewhere."""
    n = draw(st.integers(1, 3))
    repeats = draw(st.dictionaries(st.integers(1, n), st.integers(2, 5), min_size=1))
    text = _repetition_text(draw(st.sampled_from([1, 2])), n, repeats, draw(st.booleans()),
                            draw(st.booleans()))

    def position(low, high):
        # Anywhere, or often just past the closing bracket of a vector, where its text ends.
        ends = [k for k in _vector_ends(text) if low <= k <= high]
        anywhere = st.integers(low, high)
        return draw(anywhere | st.sampled_from(ends) if ends else anywhere)

    for _ in range(draw(st.integers(1, 2))):
        first, last = _inside_vectors(text)
        kind = draw(st.sampled_from(["replace", "insert", "delete", "move-comma"]))
        if kind == "move-comma":
            cut = draw(st.sampled_from([k for k in range(first, last) if text[k] == ","]))
            text = text[:cut] + text[cut + 1:]
            at = position(first + 1, last - 1)
            text = text[:at] + draw(st.sampled_from(",]")) + text[at:]
        else:
            at = position(first + (kind == "insert"), last)
            new = "" if kind == "delete" else draw(st.sampled_from(_EDIT_BYTES))
            text = text[:at] + new + text[at + (kind != "insert"):]
    return text


def _in_vector(text, vector, old, new):
    """`text` with the first `old` in its `vector`-th vector (from 1) made `new`."""
    at = text.index(old, ([_inside_vectors(text)[0]] + _vector_ends(text))[vector - 1])
    return text[:at] + new + text[at + len(old):]


# Each takes the text path.  Vectors 4-8 of the first two are copies of
# vector 2, and vectors 3-6 of the last two copies of vector 1: a digit changed
# inside a copy, without and with the certificate that then fails; a 0 added
# to the first vector of a run, which keeps its value but not its text; and a
# 0.0 made -0.0 inside a copy, which keeps neither its text nor its bits.
_TEXT_PATH_DAMAGE = [
    _in_vector(_repetition_text(1, 3, {2: 6}, False, False), 6, "1.0", "1.5"),
    _in_vector(_repetition_text(1, 3, {2: 6}, True, False), 6, "1.0", "1.5"),
    _in_vector(_repetition_text(2, 2, {1: 5}, True, True), 3, "1.0", "1.00"),
    _in_vector(_repetition_text(2, 2, {1: 5}, False, True), 5, "0.0", "-0.0"),
]


@example(_TEXT_PATH_DAMAGE[0])
@example(_TEXT_PATH_DAMAGE[1])
@example(_TEXT_PATH_DAMAGE[2])
@example(_TEXT_PATH_DAMAGE[3])
@settings(deadline=None, max_examples=300)
@given(damaged_repetition_texts())
def test_damaged_runs_load_as_the_whole_decode_does(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.json"
        path.write_text(text)
        if text in _TEXT_PATH_DAMAGE:
            assert _takes_text_path(path)
        assert _outcome(load_frame, path) == _outcome(_walk, path)
