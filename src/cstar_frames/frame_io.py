"""JSON frame files: parsing, validation, and serialization.

A frame file is human-diffable JSON.  Complex numbers are [re, im]
pairs; Python's shortest-repr float serialization round-trips doubles
bit-exactly, so parse(serialize(F)) reproduces F to the bit.  Written
files are the canonical text json.dumps(payload, sort_keys=True,
indent=2) plus a newline, produced without the standard library's
pure-Python encoder: the numbers of "vectors" are laid out in one
template per vector, and a run of vectors equal to the bit is formatted
once (see dumps_payload).  Files are written as a stream of that text, a
slice of vectors at a time, so a save holds about one slice of it, with LF
line ends on every platform; every check runs before the file is opened,
so a refused save leaves an existing file as it was.

A file is loaded in one of two ways, to the same frame.  When its bytes
are ASCII with no backslash and its only "vectors" member is its last
member, as in every file the package writes, "vectors" is read from its
text (see _text_payload): the rest of the document is decoded with
"vectors" cut out, the brackets and commas of "vectors" are checked
against the nesting (N, n, d, d, 2) implies, and its numbers are decoded
by one flat json.loads, with no nested list built.  A run of vectors whose
text is the same byte for byte is decoded once and its numbers repeated,
the mirror of the writer's run (see _vector_runs); with no run, every vector
is decoded.  Any other file, and any file that fails one of these checks,
is read again and decoded whole, and its "vectors" list checked one level
at a time (see _decode_synthesis), which names the position of a fault.
Both ways end in one builder, _frame, given the shape and the synthesis
matrix.

Layout::

    {
      "schema": "cstar-frames/1",
      "algebra": {"d": 1},
      "module":  {"n": 8},
      "vectors": [ [block, ...n blocks...], ...N vectors... ],
      "certificate": {                    # optional
        "xi": 1.0,
        "profile": {"kind": "gaussian", "xi": 1.0, "c": 1.0},   # or null
        "permutation": [1, 2, ...],
        "alphas": [0.5, 0.1, ...]         # compact-part eigenvalue per direction
      },
      "scenario": {                       # optional, written by construct t49
        "size": 8, "role": "a", "sigma": [1, 3, 5, 7],
        "profile_a": {...}, "profile_b": {...}
      }
    }

where each block is a d x d row-major array of [re, im] pairs: "vectors"
is the synthesis matrix as one (N, n, d, d, 2) array.  The "alphas" list
makes certificates self-contained even when the eigenvalue sequence has
no closed-form profile (repetition frames, canonical duals); it may be
left out when a profile is given, and is then derived from the profile
(see CompactTightCert).  A present certificate is validated against the
vectors on load: the frame operator must match alphas + xi * I within
DEFAULT_TOL relative to its Frobenius norm (CompactTightCert.drift).
The scenario block records the adversarial pair of its size: the index
split "sigma" fixes the degenerate partition, which takes family 2 (file
"b") at the 1-based positions in "sigma" and family 1 elsewhere
(AdversarialScenario.adversarial).
"""

from __future__ import annotations

import gc
import json
import math
import re
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path

import numpy as np

from .constructors import CompactTightCert, ScalarProfile
from .errors import FrameFileError
from .frames import FrameSystem, _oversized
from .linalg import DEFAULT_TOL
from .module_space import ModuleShape
from .weaving import Partition

FRAME_SCHEMA = "cstar-frames/1"


@dataclass(frozen=True, eq=False)
class LoadedFrame:
    """A parsed frame file: the system plus any validated metadata."""

    system: FrameSystem
    certificate: CompactTightCert | None
    scenario: dict | None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FrameFileError(message)


def _is_int(value) -> bool:
    """JSON integers only: ``true`` and ``false`` decode to bool, an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_double(value) -> float:
    """A JSON number as a double; NaN for any other value, inf past the double range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _as_finite_float(value, where: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{where}: expected a number, got {value!r}")
    number = _as_double(value)
    _require(math.isfinite(number), f"{where}: number must be finite")
    return number


def _entry_where(flat: int, shape: tuple[int, ...]) -> str:
    """'vector 2, block 1, row 3, column 1 (im)' for a flat index into "vectors" of this shape."""
    index = np.unravel_index(flat, shape)
    labels = ("vector", "block", "row", "column")
    where = ", ".join(f"{label} {i + 1}" for label, i in zip(labels, index))
    return f"{where} ({('re', 'im')[index[4]]})" if len(index) == 5 else where


def _synthesis(values: np.ndarray, shape: ModuleShape) -> np.ndarray:
    """The synthesis matrix of "vectors" from its doubles in file order, [re, im] pair by pair."""
    # Viewing each [re, im] pair as one complex keeps every bit, the sign of zero too.
    blocks = values.view(complex).reshape(-1, shape.n, shape.d, shape.d)
    return blocks.transpose(0, 2, 1, 3).reshape(-1, shape.dim)


def _decode_synthesis(raw: list, shape: ModuleShape) -> np.ndarray:
    """The synthesis matrix of "vectors", nested lists checked one level at a time.

    At each of the four list levels, the first item that is not a list of the
    expected length is named by its position; then the first non-finite number.
    """
    expected = (len(raw), shape.n, shape.d, shape.d, 2)
    what = (None, f"{shape.n} blocks", f"{shape.d} rows", f"{shape.d} entries",
            "an [re, im] pair")
    items = raw
    for k in range(1, 5):
        if set(map(type, items)) != {list} or set(map(len, items)) != {expected[k]}:
            flat = next(i for i, item in enumerate(items)
                        if not (isinstance(item, list) and len(item) == expected[k]))
            raise FrameFileError(f"{_entry_where(flat, expected[:k])}: expected {what[k]}")
        items = list(chain.from_iterable(items))
    # Files the package writes hold floats only; _as_double marks any fault NaN or inf.
    numbers = items if set(map(type, items)) == {float} else map(_as_double, items)
    values = np.fromiter(numbers, float, len(items))
    finite = np.isfinite(values)
    if not finite.all():
        flat = int(np.argmin(finite))
        _as_finite_float(items[flat], _entry_where(flat, expected))
    return _synthesis(values, shape)


def _decode_profile(payload, where: str) -> ScalarProfile:
    _require(isinstance(payload, dict), f"{where}: expected an object")
    _require("kind" in payload and "xi" in payload, f"{where}: needs 'kind' and 'xi'")
    kwargs = {
        "kind": payload["kind"],
        "xi": _as_finite_float(payload["xi"], f"{where}.xi"),
        "c": _as_finite_float(payload.get("c", 0.0), f"{where}.c"),
    }
    if "r" in payload and payload["r"] is not None:
        kwargs["r"] = _as_finite_float(payload["r"], f"{where}.r")
    if "p" in payload and payload["p"] is not None:
        kwargs["p"] = _as_finite_float(payload["p"], f"{where}.p")
    try:
        return ScalarProfile(**kwargs)
    except ValueError as exc:
        raise FrameFileError(f"{where}: {exc}") from exc


def json_object(result):
    """A result dataclass as the object reports and files hold: field names in camelCase,
    None fields left out, a Partition as its assignment list.  Nested results are kept."""
    if isinstance(result, Partition):
        return list(result.assignment)
    values = {field.name: getattr(result, field.name) for field in fields(result)}
    return {re.sub(r"_(.)", lambda m: m.group(1).upper(), name): value
            for name, value in values.items() if value is not None}


def _payload(
    system: FrameSystem,
    certificate: CompactTightCert | None,
    scenario: dict | None,
) -> dict:
    """The file payload, with "vectors" as the (N, n, d, d, 2) float array."""
    shape = system.shape
    d = shape.d
    blocks = system.synthesis.reshape(len(system), d, shape.n, d).transpose(0, 2, 1, 3)
    payload = {
        "schema": FRAME_SCHEMA,
        "algebra": {"d": d},
        "module": {"n": shape.n},
        "vectors": np.stack([blocks.real, blocks.imag], axis=-1),
    }
    if certificate is not None:
        payload["certificate"] = {
            "xi": certificate.xi,
            "profile": (
                json_object(certificate.profile)
                if certificate.profile is not None
                else None
            ),
            "permutation": list(certificate.permutation),
            "alphas": certificate.alphas.tolist(),
        }
    if scenario is not None:
        payload["scenario"] = scenario
    return payload


def frame_to_payload(
    system: FrameSystem,
    certificate: CompactTightCert | None = None,
    scenario: dict | None = None,
) -> dict:
    """Serialize a frame system (and optional metadata) to the file schema."""
    payload = _payload(system, certificate, scenario)
    payload["vectors"] = payload["vectors"].tolist()
    return payload


def _decode_shape(payload) -> ModuleShape:
    """The module shape of a frame payload, its schema checked first."""
    _require(isinstance(payload, dict), "top level: expected an object")
    _require(payload.get("schema") == FRAME_SCHEMA,
             f"unsupported schema {payload.get('schema')!r}; expected {FRAME_SCHEMA!r}")
    algebra = payload.get("algebra")
    module = payload.get("module")
    _require(isinstance(algebra, dict) and _is_int(algebra.get("d"))
             and algebra["d"] >= 1, "algebra.d must be an integer >= 1")
    _require(isinstance(module, dict) and _is_int(module.get("n"))
             and module["n"] >= 1, "module.n must be an integer >= 1")
    return ModuleShape(d=algebra["d"], n=module["n"])


def payload_to_frame(payload) -> LoadedFrame:
    """Parse and validate a frame payload: a frame file as json.loads decodes it.

    Its "vectors" are nested lists (see the module docstring), checked level
    by level and handed to _frame as a synthesis matrix.
    """
    shape = _decode_shape(payload)
    raw_vectors = payload.get("vectors")
    _require(isinstance(raw_vectors, list) and len(raw_vectors) >= 1,
             "vectors: expected a nonempty list")
    refusal = _oversized(len(raw_vectors), shape.d, shape.n)
    _require(refusal is None, f"vectors: {refusal}")
    return _frame(payload, shape, _decode_synthesis(raw_vectors, shape))


def _frame(payload: dict, shape: ModuleShape, synthesis: np.ndarray) -> LoadedFrame:
    """The frame of a payload whose "vectors" decoded to `synthesis`; both decoders end here."""
    try:
        system = FrameSystem(synthesis, shape=shape)
    except OverflowError as exc:
        raise FrameFileError(f"vectors: {exc}") from exc
    certificate, scenario = payload.get("certificate"), payload.get("scenario")
    return LoadedFrame(
        system=system,
        certificate=None if certificate is None else _decode_certificate(certificate, system),
        scenario=None if scenario is None else _decode_scenario(scenario),
    )


def _decode_certificate(raw, system: FrameSystem) -> CompactTightCert:
    where = "certificate"
    _require(isinstance(raw, dict), f"{where}: expected an object")
    _require("xi" in raw, f"{where}: needs 'xi'")
    xi = _as_finite_float(raw["xi"], f"{where}.xi")
    profile = None
    if raw.get("profile") is not None:
        profile = _decode_profile(raw["profile"], f"{where}.profile")
    permutation = raw.get("permutation", [])
    _require(isinstance(permutation, list)
             and all(_is_int(i) for i in permutation),
             f"{where}.permutation: expected a list of integers")
    shape = system.shape
    alphas = raw.get("alphas")
    if alphas is not None:
        _require(isinstance(alphas, list) and len(alphas) == shape.n,
                 f"{where}.alphas: expected {shape.n} numbers")
        alphas = [_as_finite_float(a, f"{where}.alphas[{i}]")
                  for i, a in enumerate(alphas)]
    try:  # CompactTightCert refuses a missing alphas and a permutation outside 1..n
        cert = CompactTightCert(shape, xi, alphas, profile, tuple(permutation))
    except ValueError as exc:
        raise FrameFileError(f"{where}: {exc}") from exc
    drift = cert.drift(system)
    if drift > DEFAULT_TOL:
        raise FrameFileError(f"{where}: does not validate against the vectors; relative "
                             f"frame operator drift {drift:.3e} exceeds {DEFAULT_TOL:.0e}")
    return cert


def _decode_scenario(raw) -> dict:
    where = "scenario"
    _require(isinstance(raw, dict), f"{where}: expected an object")
    _require(_is_int(raw.get("size")) and raw["size"] >= 2,
             f"{where}.size: expected an integer >= 2")
    _require(raw.get("role") in ("a", "b"), f"{where}.role: expected 'a' or 'b'")
    sigma = raw.get("sigma")
    _require(isinstance(sigma, list) and all(_is_int(i) for i in sigma),
             f"{where}.sigma: expected a list of integers")
    profile_a = _decode_profile(raw.get("profile_a"), f"{where}.profile_a")
    profile_b = _decode_profile(raw.get("profile_b"), f"{where}.profile_b")
    return {
        "size": raw["size"],
        "role": raw["role"],
        "sigma": list(sigma),
        "profile_a": json_object(profile_a),
        "profile_b": json_object(profile_b),
    }


def _json_list(items: list[str], level: int) -> str:
    """Encoded items (at least one) as the JSON list json.dumps(indent=2) writes at `level`."""
    inner = "\n" + "  " * (level + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * level + "]"


def _number_template(shape: tuple[int, ...], level: int) -> str:
    """The layout of a nested list of doubles of this shape, with one %r slot per number."""
    if not shape:
        return "%r"
    return _json_list([_number_template(shape[1:], level + 1)] * shape[0], level)


# About this many characters of "vectors" text go into one piece of a stream.
_SLICE_CHARS = 1 << 16


def _vectors_per_slice(template: str, numbers: int) -> int:
    """Vectors per piece: each 2-character %r of the template becomes a repr of at most 24."""
    return max(1, _SLICE_CHARS // (len(template) + 22 * numbers))


def _layout(payload: dict) -> Iterator[str]:
    """The canonical text of `payload` as an iterator of pieces, every check done first.

    The pieces are the text before "vectors", the "vectors" list a slice of
    vectors at a time (each one str.join over one template per vector), and
    the text after it.  A refused payload raises here, before any piece exists.
    """
    raw = payload["vectors"]
    try:
        values = np.asarray(raw)
    except ValueError:  # numpy's message for a ragged list names no field
        raise ValueError("vectors: expected nested lists of one shape, every list at a "
                         "depth of one length") from None
    if values.dtype.kind not in "biuf":
        raise ValueError("vectors: every entry must be a real number in the double range")
    # json.dumps writes an int or a bool as itself, not as its double.  A float
    # array holds neither; a list that numpy cast to floats may hold both.
    if values.dtype.kind != "f" or (not isinstance(raw, np.ndarray) and not all(
            isinstance(entry, float) for entry in np.asarray(raw, dtype=object).flat)):
        raise ValueError("vectors: every entry must be a double, not an integer or a boolean")
    values = values.astype(float, copy=False)
    if values.ndim == 0 or values.size == 0:
        raise ValueError("vectors: expected a nonempty list with no empty list inside")
    if not np.isfinite(values).all():
        raise ValueError("vectors: every number must be finite")
    # Top-level keys sit at a two-space indent, and JSON strings hold no raw
    # newline, so the first match is the "vectors" key itself.
    head, _, tail = json.dumps({**payload, "vectors": None}, sort_keys=True,
                               indent=2).partition('\n  "vectors": null')
    template = _number_template(values.shape[1:], 2)
    rows = values.reshape(len(values), -1)
    return _vector_pieces(head, template, rows, tail)


def _vector_pieces(head: str, template: str, rows: np.ndarray, tail: str) -> Iterator[str]:
    """The "vectors" list as _json_list(..., 1) lays it out, one slice at a time.

    A row whose bytes equal the previous row's (so a -0.0 is not a 0.0) reuses
    its text: a run of equal vectors is formatted once, across slice boundaries
    too, and with only that one row kept a save still holds about one slice.
    """
    separator = ",\n    "
    step = _vectors_per_slice(template, rows.shape[1])
    last_bits, last_text = None, ""
    yield head + '\n  "vectors": [\n    '
    for start in range(0, len(rows), step):
        if start:
            yield separator
        texts = []
        for row in rows[start:start + step]:
            bits = bytes(row)
            if bits != last_bits:
                last_bits, last_text = bits, template % tuple(row.tolist())
            texts.append(last_text)
        yield separator.join(texts)
    yield "\n  ]" + tail + "\n"


def dumps_payload(payload: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing newline.

    The text is ``json.dumps(payload, sort_keys=True, indent=2) + "\n"``.  With
    ``indent`` the standard library runs its pure-Python encoder, so the
    numbers of "vectors" (a nonempty list or array of finite doubles; integers
    and booleans, which json.dumps writes as such, are refused) are laid out
    here instead: one template per vector, filled with ``'%r' % float``,
    which is ``float.__repr__``, the function both standard encoders call.
    A vector whose bits equal the one before it reuses that vector's text, so
    a run of equal vectors is formatted once.  This is the join of the pieces
    that save_frame streams to disk a slice of vectors at a time, holding
    about one slice of text, so a file holds the same bytes.
    """
    return "".join(_layout(payload))


def save_frame(
    path,
    system: FrameSystem,
    certificate: CompactTightCert | None = None,
    scenario: dict | None = None,
) -> None:
    """Stream the canonical text of the frame to `path`; a refused payload leaves it untouched."""
    pieces = _layout(_payload(system, certificate, scenario))  # raises before the file is truncated
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.writelines(pieces)


def _read_json(path: Path):
    """Decode a UTF-8 JSON file; read and parse errors carry the line and column."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise FrameFileError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise FrameFileError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # the only other: an integer past int's digit limit
        raise FrameFileError(f"invalid JSON: an integer has more than "
                             f"{sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise FrameFileError("invalid JSON: nested too deeply to decode") from exc


# The bytes of JSON whitespace and of JSON numbers; what is left of "vectors"
# without them is its skeleton of brackets and commas.
_WHITESPACE = b" \t\n\r"
_NOT_SKELETON = _WHITESPACE + b"0123456789+-.eE"
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
_VECTORS_VALUE = re.compile(rb'"vectors"[ \t\n\r]*:[ \t\n\r]*\[')


def _int_as_double(text: str) -> float:
    return _as_double(int(text))


def _vector_runs(data: bytes, start: int, stop: int, commas: int) -> tuple[np.ndarray, ...]:
    """The runs of equal vectors in "vectors": the spans of `data` that hold the first vector
    of each run, where each span starts and ends, and the length of each run.

    data[start] is the bracket that opens "vectors" and data[stop - 1] the last
    bracket of its last vector, and the skeleton between them is checked:
    vectors of `commas` commas each, so every (commas + 1)-th comma ends one.
    A vector's text runs from past the bracket or comma before it to the comma
    after it, or to `stop`; a vector whose text has the bytes of the one before
    it continues that one's run.  First vectors next to each other share one
    span, the commas between them included, so a file with no run is one span.
    """
    inside = np.frombuffer(data, np.uint8, stop - start - 1, start + 1)
    separators = np.flatnonzero(inside == ord(","))[commas::commas + 1] + start + 1
    starts = np.append(start + 1, separators + 1)
    ends = np.append(separators, stop)
    lengths = ends - starts
    first = np.ones(len(starts), bool)
    view = memoryview(data)
    # Only a vector as long as the one before can repeat it; memcmp stops at the first difference.
    for k in (np.flatnonzero(lengths[1:] == lengths[:-1]) + 1).tolist():
        first[k] = not data.startswith(view[starts[k - 1]:ends[k - 1]], starts[k])
    heads = np.flatnonzero(first)
    runs = np.append(heads[1:], len(first)) - heads
    # A span closes at the last first vector and at each one whose run has copies.
    closes = np.append(np.flatnonzero(runs[:-1] > 1), len(heads) - 1)
    return starts[heads[np.append(0, closes[:-1] + 1)]], ends[heads[closes]], runs


def _text_payload(data: bytes) -> tuple[dict, ModuleShape, np.ndarray] | None:
    """A frame file with "vectors" read from its text: head, shape and synthesis, or None.

    Only for ASCII bytes with no backslash whose one "vectors" member is the
    last: the rest of the document, "vectors" cut out for a null, must decode
    to the shape of a frame; the brackets and commas of "vectors" must be the
    skeleton of N vectors of that shape, N within the size limit; and the
    numbers, brackets turned into spaces so that no two can run together, must
    decode as one flat JSON list of finite numbers.  Only the first vector of
    each run of vectors with the same text goes into that list (see
    _vector_runs), and its numbers are repeated for the rest of the run; a
    file with no run puts every vector in.  Every byte of "vectors" is in the
    text of some vector, so a fault in a copy is a fault in its run's first
    vector.  At most three copies of the file's size are alive at once.
    Anything else, a fault included, returns None before a nested list
    exists, and the caller decodes the file whole.  The head is the rest of
    the document, its "vectors" null; load_frame hands all three to _frame,
    where payload_to_frame ends too.
    """
    if not data.isascii() or b"\\" in data:
        return None
    key = data.find(b'"vectors"')
    value = _VECTORS_VALUE.match(data, key) if key >= 0 else None
    end = data.rfind(b"]")
    # The tail holds no other member, and the head no other "vectors": a
    # quote inside "vectors" would fail the skeleton.
    if value is None or data[end + 1:].strip(_WHITESPACE) != b"}":
        return None
    start = value.end() - 1
    try:
        # Decoded as ASCII text: json.loads would take bytes with NULs for UTF-16.
        payload = json.loads((data[:start] + b"null" + data[end + 1:]).decode("ascii"))
        shape = _decode_shape(payload)
    except (ValueError, RecursionError, FrameFileError):
        return None
    # Not a top-level key; or one vector past the size limit, whose skeleton
    # is not to be built.
    if "vectors" not in payload or _oversized(1, shape.d, shape.n):
        return None
    template = _number_template((shape.n, shape.d, shape.d, 2), 0)  # the writer's, for one vector
    vector = template.encode().translate(None, b"%r" + _WHITESPACE)  # its brackets and commas
    skeleton = data.translate(None, _NOT_SKELETON)
    lead = len(data[:start].translate(None, _NOT_SKELETON))
    # N vectors are "[" + N vector skeletons joined by "," + "]", and the tail is "}".
    count, rest = divmod(len(skeleton) - lead - 2, len(vector) + 1)
    if (rest or _oversized(count, shape.d, shape.n)
            or skeleton[lead:-1] != b"[" + b",".join([vector] * count) + b"]"):
        return None
    # The last vector ends at its last bracket; a number past it would be in no vector's text.
    stop = data.rfind(b"]", start, end) + 1
    if data[stop:end].strip(_WHITESPACE):
        return None
    span_starts, span_ends, runs = _vector_runs(data, start, stop, vector.count(b","))
    # One copy of the file's size at a time beside the text, so that at most
    # three are alive.  A file with no run is one span; joining it as the spans
    # of a file with runs are joined raised the spectral benchmark's peak RSS
    # by 0.5-1 MB.
    if len(runs) == count:  # no run: all of "vectors", from one translate of the file
        text = "[" + str(memoryview(data.translate(_BRACKETS_TO_SPACES))[start + 1:stop], "ascii") + "]"
    else:  # each span with the comma or bracket before it, the last with the byte after it
        view = memoryview(data)
        span_ends[-1] += 1
        text = bytearray()
        for span_start, span_end in zip((span_starts - 1).tolist(), span_ends.tolist()):
            text += view[span_start:span_end]
        text = text.translate(_BRACKETS_TO_SPACES)
        text[0], text[-1] = ord("["), ord("]")  # the first and last bytes close the list
        text = str(text, "ascii")
    try:
        # Every number a float, an integer as _as_double has it: no per-item type check.
        numbers = json.loads(text, parse_int=_int_as_double)
    except ValueError:  # not one number between each two commas, or a too long integer
        return None
    values = np.fromiter(numbers, float, len(numbers))
    if not np.isfinite(values).all():
        return None
    if len(runs) < count:  # the numbers of each run's first vector, once for each vector
        values = np.repeat(values.reshape(len(runs), -1), runs, axis=0)
    return payload, shape, _synthesis(values, shape)


@contextmanager
def _loading(path: Path):
    """Name `path` in every FrameFileError, with the cyclic collector paused.

    Decoded JSON holds no cycles, but its many lists set off collections that
    free nothing.  The collector resumes only if it ran on entry; load_frame
    drops every decoded tree before it does.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    except FrameFileError as exc:
        raise FrameFileError(f"{path}: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def load_frame(path) -> LoadedFrame:
    """Read and validate a frame file; parse errors carry line and column.

    "vectors" is read from the file's text when _text_payload can; otherwise,
    and for every fault, the file is read again and decoded whole, and its
    "vectors" checked level by level.
    """
    path = Path(path)
    with _loading(path):
        try:
            decoded = _text_payload(path.read_bytes())
        except OSError:
            decoded = None  # _read_json raises it again, with its message
        return _frame(*decoded) if decoded is not None else payload_to_frame(_read_json(path))
