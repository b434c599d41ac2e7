"""Independent correctness oracle for the benchmark.

Only ``json`` and numpy are used here; nothing imports ``cstar_frames``,
so a defect in the package's Jacobi solver or file layer cannot vouch for
itself.  Every reference spectrum comes from LAPACK (``numpy.linalg``).

Each ``check_*`` function takes a parsed CLI report plus references
computed once per input, and raises :class:`OracleError` on the first
disagreement.  Floating-point figures must agree within ``RTOL`` relative
to the problem's spectral scale; boolean verdicts must match exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Relative tolerance against the spectral scale of the problem.
RTOL = 1e-10

#: The CLI's default ``--tol``, which decides isFrame, tight and isWoven.
CLI_TOL = 1e-9


class OracleError(Exception):
    """A report or a written file disagrees with the independent reference."""


def _close(name: str, got, want: float, scale: float) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        raise OracleError(f"{name}: expected a number, got {got!r}")
    if not abs(got - want) <= RTOL * max(abs(want), scale):
        raise OracleError(f"{name}: report has {got!r}, reference is {want!r}")


def _equal(name: str, got, want) -> None:
    if got != want:
        raise OracleError(f"{name}: report has {got!r}, expected {want!r}")


def synthesis_from_payload(payload: dict) -> np.ndarray:
    """The (N*d) x (n*d) synthesis matrix of a frame-file payload.

    Row block k is vector k's d x (n*d) representation [f_1 | ... | f_n];
    each d x d block is stored row-major as [re, im] pairs.
    """
    d = payload["algebra"]["d"]
    n = payload["module"]["n"]
    raw = np.asarray(payload["vectors"], dtype=float)
    if raw.ndim != 5 or raw.shape[1:] != (n, d, d, 2):
        raise OracleError(f"frame file vectors have shape {raw.shape}, expected (N, {n}, {d}, {d}, 2)")
    blocks = raw[..., 0] + 1j * raw[..., 1]
    return blocks.transpose(0, 2, 1, 3).reshape(raw.shape[0] * d, n * d)


def read_synthesis(path) -> np.ndarray:
    return synthesis_from_payload(json.loads(Path(path).read_text()))


def frame_spectrum(synthesis: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the frame operator X* X."""
    return np.linalg.eigvalsh(synthesis.conj().T @ synthesis)


def check_bounds(name: str, bounds: dict, spectrum: np.ndarray) -> None:
    """Optimal bounds are the clamped extreme eigenvalues of the frame operator."""
    lower = max(float(spectrum[0]), 0.0)
    upper = max(float(spectrum[-1]), 0.0)
    _close(f"{name}.lower", bounds["lower"], lower, upper)
    _close(f"{name}.upper", bounds["upper"], upper, upper)
    _equal(f"{name}.isFrame", bounds["isFrame"], lower > CLI_TOL)
    _equal(f"{name}.tight", bounds["tight"], upper - lower <= CLI_TOL * max(1.0, upper))


def _check_shift_bounds(report: dict, spectrum: np.ndarray, xi: float, eta: float | None) -> None:
    """besselBound = max|l - xi| + |xi|; lower value = min|l - xi|/sqrt(1+eta^2) - |xi|."""
    shifted = np.abs(spectrum - xi)
    scale = max(float(np.max(np.abs(spectrum))), abs(xi))
    _close("besselBound", report["besselBound"], float(shifted.max()) + abs(xi), scale)
    if eta is not None:
        want = float(shifted.min()) / math.sqrt(1.0 + eta * eta) - abs(xi)
        _close("lowerBound.value", report["lowerBound"]["value"], want, scale)


def check_analyze(report: dict, spectrum: np.ndarray, vectors: int,
                  xi: float | None = None, eta: float | None = None) -> None:
    _equal("vectors", report["vectors"], vectors)
    check_bounds("bounds", report["bounds"], spectrum)
    if xi is not None:
        _check_shift_bounds(report["decomposition"], spectrum, xi, eta)


def check_dual(report: dict, spectrum: np.ndarray) -> None:
    """The dual's frame operator is S^-1: reciprocal bounds in swapped order."""
    check_bounds("original", report["original"], spectrum)
    check_bounds("dual", report["dual"], np.sort(1.0 / spectrum))


def check_dual_file(payload: dict, frame_op: np.ndarray) -> None:
    """The dual file's frame operator times S gives the identity."""
    dual = synthesis_from_payload(payload)
    product = (dual.conj().T @ dual) @ frame_op
    scale = np.linalg.norm(frame_op, 2) * np.linalg.norm(dual, 2) ** 2
    residual = float(np.linalg.norm(product - np.eye(len(frame_op)), 2))
    if not residual <= RTOL * scale:
        raise OracleError(f"dual file: ||S_dual S - I|| = {residual:.3e} exceeds {RTOL:.0e} * {scale:.3e}")


def check_perturb(report: dict, synth_f: np.ndarray, synth_g: np.ndarray,
                  spectrum_f: np.ndarray, spectrum_g: np.ndarray,
                  xi: float, eta: float) -> None:
    mu = float(np.linalg.norm(synth_f - synth_g, 2))
    _close("mu", report["mu"], mu, mu)
    _check_shift_bounds(report, spectrum_f, xi, eta)
    check_bounds("actual", report["actual"], spectrum_g)
    _equal("sandwich.holds", report["sandwich"]["holds"], True)


def repetition_spectrum(counts: np.ndarray, d: int) -> np.ndarray:
    """Closed form: direction j of a repetition frame carries eigenvalue count_j = 1 + r_j."""
    return np.sort(np.repeat(counts.astype(float), d))


def check_construct_repetition(report: dict, counts: np.ndarray, d: int) -> None:
    _equal("vectors", report["vectors"], int(counts.sum()))
    _equal("certificateEmbedded", report["certificateEmbedded"], True)
    check_bounds("bounds", report["bounds"], repetition_spectrum(counts, d))


def check_repetition_file(payload: dict, counts: np.ndarray, d: int) -> np.ndarray:
    """The written frame operator is diag(counts) (each repeated d times); returns its spectrum."""
    synthesis = synthesis_from_payload(payload)
    frame_op = synthesis.conj().T @ synthesis
    want = np.diag(np.repeat(counts.astype(float), d))
    drift = float(np.max(np.abs(frame_op - want)))
    if not drift <= RTOL * float(counts.max()):
        raise OracleError(f"repetition file: frame operator is off diag(counts) by {drift:.3e}")
    alphas = payload["certificate"]["alphas"]
    if not np.array_equal(np.asarray(alphas, dtype=float), counts - 1.0):
        raise OracleError("repetition file: certificate alphas are not counts - 1")
    return frame_spectrum(synthesis)


@dataclass(frozen=True)
class WeaveReference:
    """Extreme eigenvalues of every partition's weaving operator, by brute force."""

    lows: np.ndarray      # smallest eigenvalue per partition, lexicographic order
    highs: np.ndarray     # largest eigenvalue per partition
    families: int
    length: int

    @classmethod
    def build(cls, syntheses: list[np.ndarray], d: int) -> "WeaveReference":
        """Enumerate all m^N partitions in itertools.product order (first position most significant).

        Each vector contributes rep* rep; one batched eigvalsh covers all partitions.
        """
        m = len(syntheses)
        count = syntheses[0].shape[0] // d
        dim = syntheses[0].shape[1]
        reps = np.stack([s.reshape(count, d, dim) for s in syntheses])       # (m, N, d, dim)
        contribs = np.einsum("fkia,fkib->fkab", reps.conj(), reps)          # (m, N, dim, dim)
        grams = contribs[:, 0]
        for j in range(1, count):
            grams = (grams[:, None] + contribs[None, :, j]).reshape(-1, dim, dim)
        eigenvalues = np.linalg.eigvalsh(grams)
        return cls(eigenvalues[:, 0].copy(), eigenvalues[:, -1].copy(), m, count)

    def index(self, assignment) -> int:
        if (not isinstance(assignment, list) or len(assignment) != self.length
                or not all(isinstance(a, int) and 1 <= a <= self.families for a in assignment)):
            raise OracleError(f"worstPartition {assignment!r} is not an assignment of "
                              f"{self.length} positions to families 1..{self.families}")
        position = 0
        for family in assignment:
            position = position * self.families + (family - 1)
        return position


def check_weave(report: dict, reference: WeaveReference, sweep_sizes: list[int] | None = None) -> None:
    low = float(reference.lows.min())
    high = float(reference.highs.max())
    _equal("partitionsChecked", report["partitionsChecked"], reference.families ** reference.length)
    _close("universalLower", report["universalLower"], low, high)
    _close("universalUpper", report["universalUpper"], high, high)
    # The argmin itself may differ on a last-bit tie; the partition must attain the minimum.
    worst = float(reference.lows[reference.index(report["worstPartition"])])
    _close("worstPartition minimum", worst, low, high)
    _equal("isWoven", report["isWoven"], low > CLI_TOL)
    if sweep_sizes is not None:
        rows = report.get("sweep", [])
        _equal("sweep sizes", [row["size"] for row in rows], sweep_sizes)
        for row in rows:
            if not row["adversarialMin"] <= row["envelope"]:
                raise OracleError(f"sweep size {row['size']}: adversarialMin {row['adversarialMin']!r} "
                                  f"exceeds envelope {row['envelope']!r}")


class VerifiedFiles:
    """Content digests of written files that already passed a full check.

    A command that rewrites the same bytes every cycle is checked in full
    once; later calls only need their file to match a verified digest.
    """

    def __init__(self):
        self._results: dict[str, object] = {}

    def check(self, path, verify):
        """Run ``verify(payload)`` on the file unless its bytes were verified before."""
        data = Path(path).read_bytes()
        key = hashlib.sha256(data).hexdigest()
        if key not in self._results:
            self._results[key] = verify(json.loads(data))
        return self._results[key]
