"""Command-line front end: analyze, construct, perturb, weave, dual.

Exit codes are fixed so scripts can branch on them (see EXIT_CODES):

    0  success
    2  file parse or validation error (JSON nested too deeply or not UTF-8, too,
       a frame file above MAX_FRAME_ENTRIES, vectors whose X* X overflows or
       underflows to a zero diagonal entry on a nonzero column, and a written
       frame whose bounds drift when it is read back)
    3  dimension mismatch between operands
    4  invalid flags, out-of-range values, an --out that cannot be written
       or a closed standard output (the message is the OS error), a frame too
       large to build, or an S - xi*I, a dual, an eigenvalue or a universal
       weaving upper bound past the double range
    5  partition enumeration cap exceeded
    6  input is not a frame

Reports are printed as plain text, one field per line in insertion order,
or canonical JSON (sorted keys, two-space indent); apart from the "timing"
field, identical inputs give byte-identical JSON.  A report holds the
package's result types (BoundsReport, PartCheck, ...) as they are; each is
printed as its JSON object (frame_io.json_object: field names in camelCase,
None fields left out), and then a number past the double range reads null
(None in text), so no report holds Infinity or NaN.  In-process callers
may call main(argv) repeatedly: the argument parser is built on the first
call and kept for the process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import math
import os
import sys
import time
from dataclasses import is_dataclass
from pathlib import Path

import numpy as np

from .constructors import ScalarProfile, profile_frame, repetition_frame
from .decomposition import (
    bessel_bound,
    deviation_certificate,
    decomposition_diagnostics,
    frame_lower_bound,
    perturbed_frame_bounds,
    shift_decompose,
)
from .errors import (
    FrameFileError,
    LengthMismatchError,
    NotAFrameError,
    ShapeMismatchError,
    TooManyPartitionsError,
)
from .frame_io import json_object, load_frame, save_frame
from .frames import _oversized, dual_frame, optimal_bounds, perturbation_distance
from .linalg import DEFAULT_TOL, exceeds, hermitian_eigen, relative_drift
from .module_space import ModuleShape
from .weaving import (
    DEFAULT_PARTITION_CAP,
    adversarial_scenario,
    universal_bounds,
    weaving_operator,
)


class UsageError(Exception):
    """Flag-level misuse; mapped to exit code 4."""


#: Exit code of each error that is reported without a traceback; no command
#: handler catches an error to translate it.  OSError is an --out that cannot
#: be written or a closed standard output (reading a file reports
#: FrameFileError), and OverflowError an S - xi*I, a dual, an eigenvalue or a
#: universal weaving upper bound past the double range.
EXIT_CODES = {FrameFileError: 2, ShapeMismatchError: 3, LengthMismatchError: 3,
              UsageError: 4, OSError: 4, OverflowError: 4,
              TooManyPartitionsError: 5, NotAFrameError: 6}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def _require_size(vectors: int, d: int, n: int) -> None:
    """Refuse a frame above MAX_FRAME_ENTRIES before anything is allocated."""
    refusal = _oversized(vectors, d, n)
    if refusal is not None:
        raise UsageError(refusal)


#: The parameters a profile spec gives after its kind, in order.
_PROFILE_PARAMS = {"gaussian": ("c",), "geometric": ("c", "r"), "power": ("c", "p")}


def _parse_profile_spec(spec: str, xi: float = 0.0) -> ScalarProfile:
    """Parse 'kind:c', 'geometric:c:r', or 'power:c:p' with a fixed limit."""
    kind, *values = spec.split(":")
    names = _PROFILE_PARAMS.get(kind, ())
    if names and len(values) == len(names):
        try:
            return ScalarProfile(kind=kind, xi=xi,
                                 **{name: float(value) for name, value in zip(names, values)})
        except ValueError as exc:
            raise UsageError(f"bad profile spec {spec!r}: {exc}")
    raise UsageError(
        f"bad profile spec {spec!r}; expected gaussian:c, geometric:c:r, or power:c:p"
    )


def cmd_analyze(args) -> dict:
    started = time.perf_counter()
    if args.eta is not None and args.xi is None:
        raise UsageError("--eta needs --xi")
    if args.alpha is not None and args.eta is None:
        raise UsageError("--alpha needs --eta")
    loaded = load_frame(args.file)
    system = loaded.system
    report = {
        "file": str(args.file),
        "shape": system.shape,
        "vectors": len(system),
        "bounds": optimal_bounds(system, args.tol),
    }
    if loaded.certificate is not None:
        cert = loaded.certificate
        report["certificate"] = {
            "valid": True,
            "xi": cert.xi,
            "kind": cert.profile.kind if cert.profile is not None else "explicit",
            "declaredLimit": cert.declared_limit,
        }
    if args.xi is not None:
        dec = shift_decompose(system, args.xi)
        diag = decomposition_diagnostics(system, args.xi, args.tol)
        decomposition = {
            "xi": args.xi,
            "besselBound": bessel_bound(dec),
            "parts": {
                "positiveShiftImpliesFrame": diag.frame_from_positivity,
                "selfAdjoint": diag.self_adjointness,
                "lowerBoundImpliesPositive": diag.positivity_from_lower_bound,
            },
            "allPartsHold": diag.all_hold,
        }
        if args.eta is not None:
            est = frame_lower_bound(dec, args.eta)
            decomposition["lowerBound"] = {"eta": args.eta, **json_object(est)}
            if args.alpha is not None:
                decomposition["deviation"] = deviation_certificate(dec, args.alpha, args.eta)
        report["decomposition"] = decomposition
    report["timing"] = {"seconds": time.perf_counter() - started}
    return report


def _save_checked(path, system, certificate, scenario=None):
    """Write a constructed frame; return its bounds if reading the file back keeps them."""
    save_frame(path, system, certificate, scenario)
    bounds = optimal_bounds(system)
    again = optimal_bounds(load_frame(path).system)
    if exceeds(relative_drift((bounds.lower, bounds.upper), (again.lower, again.upper)), DEFAULT_TOL):
        raise FrameFileError(
            f"{path}: bounds drifted on read-back: ({again.lower}, {again.upper}) vs "
            f"({bounds.lower}, {bounds.upper}) as written"
        )
    return bounds


def cmd_construct_t4(args) -> dict:
    count = args.count if args.count is not None else args.n
    _require_size(count, args.d, args.n)
    try:
        profile = ScalarProfile(
            kind=args.kind, xi=args.xi, c=args.c, r=args.r, p=args.p
        )
        shape = ModuleShape(d=args.d, n=args.n)
        system, cert = profile_frame(profile, shape, count)
    except ValueError as exc:
        raise UsageError(str(exc))
    # A truncated certificate only covers the spanned submodule; embed it
    # only when it validates against the whole-module frame operator.
    embedded = cert if count == shape.n else None
    bounds = _save_checked(args.out, system, embedded)
    return {
        "out": str(args.out),
        "kind": args.kind,
        "vectors": len(system),
        "bounds": bounds,
        "certificateEmbedded": embedded is not None,
    }


def _parse_repeats(raw_items) -> dict[int, int]:
    table: dict[int, int] = {}
    for raw in raw_items:
        for piece in raw.split(","):
            piece = piece.strip()
            if not piece:
                continue
            try:
                index_text, count_text = piece.split(":")
                index, count = int(index_text), int(count_text)
            except ValueError:
                raise UsageError(
                    f"bad repeat spec {piece!r}; expected index:count"
                )
            if index in table:
                raise UsageError(f"--repeat index {index} given twice")
            table[index] = count
    if not table:
        raise UsageError("at least one --repeat index:count is required")
    return table


def cmd_construct_repetition(args) -> dict:
    table = _parse_repeats(args.repeat)
    _require_size(args.n + sum(max(count - 1, 0) for count in table.values()), args.d, args.n)
    try:
        shape = ModuleShape(d=args.d, n=args.n)
        system, cert = repetition_frame(shape, table)
    except ValueError as exc:
        raise UsageError(str(exc))
    bounds = _save_checked(args.out, system, cert)
    return {
        "out": str(args.out),
        "repeats": {str(k): v for k, v in sorted(table.items())},
        "vectors": len(system),
        "bounds": bounds,
        "certificateEmbedded": True,
    }


def cmd_construct_t49(args) -> dict:
    """Write the pair as PREFIX-a.json and PREFIX-b.json; each file's scenario block holds
    sigma, where the adversarial partition takes family 2 (and family 1 elsewhere)."""
    profile_a = _parse_profile_spec(args.profile1)
    profile_b = _parse_profile_spec(args.profile2)
    _require_size(args.n, args.d, args.n // 2)
    try:
        scenario = adversarial_scenario(args.n, profile_a, profile_b, d=args.d)
    except ValueError as exc:
        raise UsageError(str(exc))
    meta = {
        "size": args.n,
        "sigma": list(scenario.sigma),
        "profile_a": json_object(profile_a),
        "profile_b": json_object(profile_b),
    }
    files, bounds = {}, {}
    for role, frame, cert in (("a", scenario.frame_a, scenario.cert_a),
                              ("b", scenario.frame_b, scenario.cert_b)):
        files[role] = f"{args.out}-{role}.json"
        bounds[role] = _save_checked(files[role], frame, cert, {**meta, "role": role})
    return {
        "files": files,
        "size": args.n,
        "boundsA": bounds["a"],
        "boundsB": bounds["b"],
    }


def cmd_perturb(args) -> dict:
    started = time.perf_counter()
    base = load_frame(args.file_f).system
    other = load_frame(args.file_g).system
    mu = perturbation_distance(base, other)
    dec = shift_decompose(base, args.xi)
    est = frame_lower_bound(dec, args.eta)
    predicted = perturbed_frame_bounds(dec, args.eta, mu)
    actual = optimal_bounds(other, args.tol)
    report = {
        "mu": mu,
        "xi": args.xi,
        "eta": args.eta,
        "lowerBound": est,
        "besselBound": bessel_bound(dec),
        "actual": actual,
    }
    if predicted is None:
        report["predicted"] = "NotApplicable"
        report["sandwich"] = {"applicable": False, "holds": None}
    else:
        low, high = predicted
        holds = (not exceeds(low - actual.lower, DEFAULT_TOL, high)
                 and not exceeds(actual.upper - high, DEFAULT_TOL, high))
        gap = est.value - mu  # the flattened display form (L - mu)^2, reported alongside
        report["predicted"] = {"low": low, "high": high, "lowAlternate": gap * gap}
        report["sandwich"] = {"applicable": True, "holds": holds}
    report["timing"] = {"seconds": time.perf_counter() - started}
    return report


def _sweep_plan(loaded_a, loaded_b, raw: str) -> tuple:
    """The profiles, sizes and d of a --sweep table; every refusal of the --sweep is raised here."""
    try:
        sizes = [int(piece) for piece in raw.split(",") if piece.strip()]
    except ValueError:
        raise UsageError(f"bad --sweep value {raw!r}; expected comma-separated integers")
    if not sizes or any(size < 2 or size % 2 for size in sizes):
        raise UsageError("--sweep sizes must be even integers >= 2")
    meta_a = loaded_a.scenario
    meta_b = loaded_b.scenario
    if meta_a is None or meta_b is None:
        raise UsageError(
            "--sweep needs scenario metadata in both files (written by 'construct t49')"
        )
    if meta_a["profile_a"] != meta_b["profile_a"] or meta_a["profile_b"] != meta_b["profile_b"]:
        raise UsageError("--sweep: the two files carry different scenario profiles")
    d = loaded_a.system.shape.d
    for size in sizes:
        _require_size(size, d, size // 2)
    return ScalarProfile(**meta_a["profile_a"]), ScalarProfile(**meta_a["profile_b"]), sizes, d


def _sweep_table(profile_a, profile_b, sizes, d) -> list[dict]:
    rows = []
    for size in sizes:
        scenario = adversarial_scenario(size, profile_a, profile_b, d=d)
        mixed = weaving_operator(
            [scenario.frame_a, scenario.frame_b], scenario.adversarial
        )
        smallest = float(hermitian_eigen(mixed.mat, vectors=False).eigenvalues[0])
        envelope = 2.0 * (profile_a.eval(size - 1) + profile_b.eval(size - 1))
        rows.append({
            "size": size,
            "adversarialMin": smallest,
            "envelope": envelope,
        })
    return rows


def cmd_weave(args) -> dict:
    started = time.perf_counter()
    loaded_a = load_frame(args.file_f)
    loaded_b = load_frame(args.file_g)
    # A bad --sweep is refused before the partitions are enumerated.
    sweep = _sweep_plan(loaded_a, loaded_b, args.sweep) if args.sweep is not None else None
    families = [loaded_a.system, loaded_b.system]
    report = json_object(
        universal_bounds(families, tol=args.tol, max_partitions=args.max_partitions)
    )
    if sweep:
        report["sweep"] = _sweep_table(*sweep)
    report["timing"] = {"seconds": time.perf_counter() - started}
    return report


def cmd_dual(args) -> dict:
    loaded = load_frame(args.file)
    system = loaded.system
    bounds = optimal_bounds(system, args.tol)
    dual = dual_frame(system, args.tol)
    # A certificate that barely clears the file tolerance can still be
    # numerically singular, or its dual miss the computed dual by more than
    # the loader takes; in either case the dual is written without one.
    cert = loaded.certificate
    dual_cert = cert.dual(args.tol) if cert is not None else None
    if dual_cert is not None and exceeds(dual_cert.drift(dual), DEFAULT_TOL):
        dual_cert = None
    save_frame(args.out, dual, dual_cert)
    return {
        "out": str(args.out),
        "original": bounds,
        "dual": optimal_bounds(dual, args.tol),
        "certificateEmbedded": dual_cert is not None,
    }


def build_parser() -> _Parser:
    """A new parser for the command line; main parses with one kept per process."""
    parser = _Parser(prog="cstar-frames", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # Options shared by subcommands: --format on all, --tol also on the analyses.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json"), default="text")
    analysis = argparse.ArgumentParser(add_help=False, parents=[output])
    analysis.add_argument("--tol", type=_nonnegative_float, default=DEFAULT_TOL,
                          help="verdict tolerance, relative to the largest eigenvalue")

    analyze = sub.add_parser("analyze", help="optimal bounds and decomposition diagnostics",
                             parents=[analysis])
    analyze.add_argument("file")
    analyze.add_argument("--xi", type=_finite_float, default=None)
    analyze.add_argument("--eta", type=_nonnegative_float, default=None)
    analyze.add_argument("--alpha", type=_finite_float, default=None)
    analyze.set_defaults(handler=cmd_analyze)

    construct = sub.add_parser("construct", help="build and serialize reference frames")
    kinds = construct.add_subparsers(dest="constructor", required=True)

    t4 = kinds.add_parser("t4", help="profile-scaled orthonormal basis frame", parents=[output])
    t4.add_argument("--kind", choices=("constant", "gaussian", "geometric", "power"),
                    required=True)
    t4.add_argument("--xi", type=float, required=True)
    t4.add_argument("--c", type=float, default=0.0)
    t4.add_argument("--r", type=float, default=None)
    t4.add_argument("--p", type=float, default=None)
    t4.add_argument("--d", type=int, default=1)
    t4.add_argument("--n", type=int, required=True)
    t4.add_argument("--count", type=int, default=None,
                    help="truncation size (default: n)")
    t4.add_argument("--out", required=True)
    t4.set_defaults(handler=cmd_construct_t4)

    repetition = kinds.add_parser("repetition", help="basis with repeated directions",
                                  parents=[output])
    repetition.add_argument("--n", type=int, required=True)
    repetition.add_argument("--d", type=int, default=1)
    repetition.add_argument("--repeat", action="append", required=True,
                            metavar="INDEX:COUNT")
    repetition.add_argument("--out", required=True)
    repetition.set_defaults(handler=cmd_construct_repetition)

    t49 = kinds.add_parser("t49", help="adversarial interleaved pair", parents=[output])
    t49.add_argument("--n", type=int, required=True, help="index set size (even)")
    t49.add_argument("--d", type=int, default=1)
    t49.add_argument("--profile1", required=True, metavar="KIND:C[:EXTRA]")
    t49.add_argument("--profile2", required=True, metavar="KIND:C[:EXTRA]")
    t49.add_argument("--out", required=True, help="output path prefix")
    t49.set_defaults(handler=cmd_construct_t49)

    perturb = sub.add_parser("perturb", help="perturbation distance and predicted sandwich",
                             parents=[analysis])
    perturb.add_argument("file_f")
    perturb.add_argument("file_g")
    perturb.add_argument("--xi", type=_finite_float, required=True)
    perturb.add_argument("--eta", type=_nonnegative_float, default=0.0)
    perturb.set_defaults(handler=cmd_perturb)

    weave = sub.add_parser("weave", help="exhaustive universal weaving bounds", parents=[analysis])
    weave.add_argument("file_f")
    weave.add_argument("file_g")
    weave.add_argument("--max-partitions", type=_positive_int,
                       default=DEFAULT_PARTITION_CAP)
    weave.add_argument("--sweep", default=None, metavar="N1,N2,...")
    weave.set_defaults(handler=cmd_weave)

    dual = sub.add_parser("dual", help="write the canonical dual frame", parents=[analysis])
    dual.add_argument("file")
    dual.add_argument("--out", required=True)
    dual.set_defaults(handler=cmd_dual)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    # Parsing leaves a parser unchanged, so one serves every call of main;
    # building it costs more than a small command.  It holds the cmd_*
    # handlers bound when it was built, and they look up the helpers they
    # call (load_frame, universal_bounds, ...) when they run.
    return build_parser()


@functools.cache
def _openblas_threads():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or None if not found.

    numpy's Linux wheels ship scipy-openblas in the numpy.libs folder beside the
    package; it is already loaded, so opening it again returns the same library.
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        with contextlib.suppress(OSError, AttributeError):
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's thread count.

    A threaded Gram or Hermitian reduction rounds in another order for each
    thread count, so a report of a large frame would change its last bits with
    the core count.  Where no setter is found, the block runs unpinned.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)


def _past_range_as_null(value):
    """The report with every result as its JSON object (see frame_io.json_object), then
    every float past the double range (inf or NaN) as None: a -inf slack reads null."""
    if is_dataclass(value):
        value = json_object(value)
    if isinstance(value, dict):
        return {key: _past_range_as_null(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_past_range_as_null(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _render_text(report: dict, indent: int = 0) -> list[str]:
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_text(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


def _print(text: str, stream) -> None:
    """Print to `stream`; a closed stream raises BrokenPipeError (an OSError).

    The stream is then pointed at os.devnull, as the SIGPIPE note in the
    Python docs shows, so that the interpreter's flush at exit prints nothing.
    """
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise


def main(argv=None) -> int:
    """Run one command and return its exit code; may be called repeatedly in one process.

    The parser is built on the first call and kept for the process.  The
    command runs on one OpenBLAS thread (see _one_blas_thread).
    """
    with _one_blas_thread():
        try:
            args = _shared_parser().parse_args(argv)
            report = _past_range_as_null(args.handler(args))
            _print(json.dumps(report, sort_keys=True, indent=2) if args.format == "json"
                   else "\n".join(_render_text(report)), sys.stdout)
        except tuple(EXIT_CODES) as exc:
            with contextlib.suppress(BrokenPipeError):  # standard error closed too: the code is all
                _print(f"error: {exc}", sys.stderr)
            return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
        return 0


if __name__ == "__main__":
    sys.exit(main())
