"""Dense complex matrix kernel: Hermitian spectra and spectral calculus.

Every spectral quantity in this package funnels through
:func:`hermitian_eigen`, which hands the Hermitian part of its input to
LAPACK's ``eigh_lo`` kernel, the gufunc ``numpy.linalg.eigh`` dispatches to,
under the error state numpy sets for it (the invalid flag, LAPACK's failure,
raises; overflow, division and underflow are ignored) but without numpy's
checks, which the Hermitian part has passed.  That state is one object, built
at import by numpy's private ``_make_extobj`` and set around each kernel call
in its private ``_extobj_contextvar`` (numpy 2.0 on), as ``np.errstate`` does
minus the rebuild: so it is thread-safe and leaves the caller's state as it
found it.  An eigenvalue past the double range is refused.  :func:`jacobi_eigen`,
a cyclic Jacobi iteration with complex rotations, computes the same spectrum by
an independent method and is kept as the reference the LAPACK path is checked
against in the tests (Jacobi is the more accurate of the two on graded
matrices; Demmel & Veselic, SIAM J. Matrix Anal. Appl. 1992).

Near-Hermitian input is folded to its Hermitian part ``(M + M*)/2``
before either kernel runs; input that is Hermitian bit for bit goes to the
kernel as it is.  Asymmetry beyond ``DEFAULT_TOL`` (relative Frobenius) is
an error rather than something to fix silently, so that assembly bugs
surface where they happen.  Every fold in the package but the hot path of
that check is :func:`_fold`, which halves after the sum, so that a
subnormal entry keeps its bits, or first, ``M/2 + (M/2)*``, where the sum
could overflow.

The package's whole tolerance policy is the two constants below, each
times the size of what a decision was computed from, never an absolute
threshold: so no verdict changes when a frame is rescaled.  Every verdict
is decided in one place, :func:`exceeds`, or its negation.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np
from numpy._core._ufunc_config import _extobj_contextvar, _make_extobj
from numpy.linalg._umath_linalg import eigh_lo

from .errors import (
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    SingularMatrixError,
)

#: Verdicts (frame, tight, PSD, woven, ...), relative to the largest |eigenvalue|
#: or the operands' norms; also declared input against what it implies.
DEFAULT_TOL = 1e-9

#: A matrix against the same matrix rebuilt from its parts: rounding only.
ROUNDING_RTOL = 1e-12

#: Full cyclic sweeps allowed before giving up.
JACOBI_SWEEP_CAP = 100

# Convergence target: off-diagonal Frobenius mass relative to ||M||_F.
_JACOBI_OFFDIAG_RTOL = 1e-13


def exceeds(value: float, tol: float, size: float = 1.0) -> bool:
    """Whether `value` is above `tol` times `size`, the size of what it was computed from.

    The one threshold rule: x >= -tol * size is decided as not exceeds(-x, tol, size).
    """
    return value > tol * size


def as_matrix(data) -> np.ndarray:
    """Validate and normalize input into a fresh 2-D complex128 array.

    Rejects empty shapes and non-finite entries.
    """
    mat = np.array(data, dtype=complex, order="C")
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={mat.ndim}")
    if mat.shape[0] < 1 or mat.shape[1] < 1:
        raise ValueError(f"matrix must be nonempty, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    return mat


def frobenius(mat: np.ndarray) -> float:
    return math.sqrt(np.vdot(mat, mat).real)


def _binade(largest: float) -> float:
    """The power of two s with 1 <= largest / s < 2, or 2^-1022 if that is smaller."""
    return math.ldexp(1.0, math.frexp(max(largest, sys.float_info.min))[1] - 1)


def relative_drift(reference, other, *operands) -> float:
    """||reference - other||_F over the largest Frobenius norm of `reference` and `operands`.

    The operands are what the two were computed from; a zero scale gives 0 or
    inf.  Squares outside (2^-900, 2^900) are retaken after dividing all by one
    power of two (see _binade), which keeps the ratio.
    """
    size = max([np.vdot(x, x).real for x in (reference, *operands)])
    if not 2.0**-900 < size < 2.0**900:
        arrays = [np.asarray(x) for x in (reference, other, *operands)]
        scale = _binade(max(float(np.abs(x).max()) for x in arrays))
        reference, other, *operands = [x / scale for x in arrays]
        size = max([np.vdot(x, x).real for x in (reference, *operands)])
    diff = np.subtract(reference, other)
    drift = np.vdot(diff, diff).real
    if not size:
        return math.inf if drift else 0.0
    return math.sqrt(drift / size)


def _fold(mat) -> np.ndarray:
    """The Hermitian part (M + M*)/2: summed, then halved, so that a subnormal entry keeps
    its bits; taken as M/2 + (M/2)* where an entry of 2^1022 or more could make the sum
    overflow (halving such a matrix first moves only entries far below its rounding)."""
    if np.abs(mat).max() < 2.0**1022:
        folded = mat + mat.conj().T
        folded *= 0.5
        return folded
    half = mat * 0.5
    return half + half.conj().T


def require_square(mat: np.ndarray, where: str) -> None:
    if mat.shape[0] != mat.shape[1]:
        raise NotSquareError(
            f"{where}: expected a square matrix, got {mat.shape[0]}x{mat.shape[1]}"
        )


class SpectralResult(NamedTuple):
    """Ascending real eigenvalues and the matching unitary eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _offdiag_mass(mat: np.ndarray) -> float:
    off = mat.copy()
    np.fill_diagonal(off, 0.0)
    return frobenius(off)


def _jacobi_rotate(work: np.ndarray, vecs: np.ndarray, p: int, q: int) -> None:
    """Zero work[p, q] with a unitary plane rotation, accumulated into vecs.

    The pivot's phase is factored out first so the usual real formulas
    apply: with work[p, q] = |b| e^(i phi), the rotation is
    diag(1, e^(-i phi)) composed with the classic symmetric-Jacobi
    rotation on [[a_pp, |b|], [|b|, a_qq]].
    """
    pivot = work[p, q]
    if pivot == 0:
        return
    mag = abs(pivot)
    phase = pivot / mag
    tau = (work[q, q].real - work[p, p].real) / (2.0 * mag)
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.hypot(1.0, t)
    s = t * c
    rot = np.array(
        [[c, s], [-s * phase.conjugate(), c * phase.conjugate()]], dtype=complex
    )
    cols = [p, q]
    work[:, cols] = work[:, cols] @ rot
    work[cols, :] = rot.conj().T @ work[cols, :]
    work[p, q] = 0.0
    work[q, p] = 0.0
    work[p, p] = work[p, p].real
    work[q, q] = work[q, q].real
    vecs[:, cols] = vecs[:, cols] @ rot


def _hermitian_part(matrix, where: str) -> np.ndarray:
    """Validate square, finite, near-Hermitian input and fold it to (M + M*)/2.

    The argument is never written to, but it may be what comes back, so a
    caller that writes into the result must copy it first.  One ||M||_F^2 does
    three jobs.  Positive and finite, it stands for the 2-D, nonempty and
    finite checks of as_matrix (a NaN or inf makes it NaN or inf); any other
    matrix goes through as_matrix, which raises in that order.  Inside
    (2^-898, 2^902) relative_drift's arithmetic is inlined on it, with
    D = M - M* taken unhalved (the ratio ||D||_F^2 / ||M||_F^2 is the one the
    halves give):

    - ||D||_F^2 == 0: M itself is returned, after 4 array operations;
    - otherwise M + M* is halved and the defect checked: 6 operations.

    A returned M differs from the fold only where the fold would move an entry
    by less than 2^-537: a zero's sign, or a skew whose square underflows.
    Outside the range the defect is relative_drift(M, M*), which rescales,
    and the fold is _fold.  On a weave whose 16388
    eigensolves of 7 x 7 operators are all Hermitian bit for bit, the shortcut
    takes about 18% off the call (0.194 -> 0.158 s, the fastest of 40 calls
    each way, interleaved in one process, on 2 cores, numpy 2.4).
    """
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or not 0.0 < (total := np.vdot(mat, mat).real) < math.inf:
        mat = as_matrix(mat)  # raises, unless the total is 0 or overflowed
    require_square(mat, where)
    if 2.0**-898 < total < 2.0**902:
        adjoint = mat.conj().T
        diff = mat - adjoint
        skew = np.vdot(diff, diff).real
        if not skew:
            return mat
        defect = math.sqrt(skew / total)
        folded = mat + adjoint  # every |entry| < 2^451, so the sum cannot overflow
        folded *= 0.5
    else:
        defect = relative_drift(mat, mat.conj().T)
        folded = _fold(mat)  # M + M* may overflow here
    if exceeds(defect, DEFAULT_TOL):
        raise NotHermitianError(f"{where}: relative symmetry defect {defect:.3e} exceeds "
                                f"{DEFAULT_TOL:.0e}")
    return folded


def _no_convergence(err, flag):
    """The error state's handler: eigh_lo raises the invalid flag when LAPACK fails."""
    raise NoConvergenceError("hermitian_eigen: LAPACK eigh failed: Eigenvalues did not converge")


# numpy.linalg.eigh's error state; its buffer size, the one at import, goes unused.
_EIGH_STATE = _make_extobj(call=_no_convergence, invalid="call", over="ignore",
                           divide="ignore", under="ignore")


def hermitian_eigen(matrix) -> SpectralResult:
    """Full spectrum of a Hermitian matrix by LAPACK's divide and conquer.

    The argument is only read, so read-only arrays and views are fine.  Raises
    NoConvergenceError if LAPACK fails to converge and OverflowError if an
    eigenvalue is past the double range.  Only the kernel runs under _EIGH_STATE,
    built at import, set in numpy's context variable and reset even on a raise.
    """
    work = _hermitian_part(matrix, "hermitian_eigen")
    token = _extobj_contextvar.set(_EIGH_STATE)
    try:
        eigenvalues, eigenvectors = eigh_lo(work, signature="D->dD")
    finally:
        _extobj_contextvar.reset(token)
    if eigenvalues[0] == -math.inf or eigenvalues[-1] == math.inf:
        raise OverflowError("hermitian_eigen: an eigenvalue is past the double range")
    return SpectralResult(eigenvalues, eigenvectors)


def jacobi_eigen(matrix, *, max_sweeps: int = JACOBI_SWEEP_CAP) -> SpectralResult:
    """Full spectrum of a Hermitian matrix by cyclic Jacobi rotations.

    The independent reference for :func:`hermitian_eigen`; the package
    itself does not call it.  Converges when the off-diagonal Frobenius
    mass drops below 1e-13 * ||M||_F; raises NoConvergenceError if
    `max_sweeps` full sweeps do not get there.
    """
    work = np.array(_hermitian_part(matrix, "jacobi_eigen"))  # may be the argument itself
    n = work.shape[0]
    vecs = np.eye(n, dtype=complex)
    target = _JACOBI_OFFDIAG_RTOL * frobenius(work)
    sweeps = 0
    while _offdiag_mass(work) > target:
        if sweeps >= max_sweeps:
            raise NoConvergenceError(
                f"jacobi_eigen: off-diagonal mass {_offdiag_mass(work):.3e} "
                f"still above target {target:.3e} after {max_sweeps} sweeps"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                _jacobi_rotate(work, vecs, p, q)
        sweeps += 1
    eigenvalues = np.diag(work).real.copy()
    order = np.argsort(eigenvalues, kind="stable")
    return SpectralResult(eigenvalues[order], vecs[:, order])


def psd_check(matrix, tol: float = DEFAULT_TOL) -> bool:
    """True iff the Hermitian part of `matrix` has no eigenvalue below -tol * max |eigenvalue|."""
    mat = as_matrix(matrix)
    require_square(mat, "psd_check")
    if tol < 0:
        raise ValueError("psd_check: tolerance must be nonnegative")
    low, high = hermitian_eigen(_fold(mat)).eigenvalues[[0, -1]]
    return not exceeds(-low, tol, max(-low, high))


def _scaled_down(matrix, floor: float = 0.0) -> tuple[np.ndarray, float]:
    """M / s and s, for the power of two s with 1 <= max(|re|, |im|, floor) / s < 2.

    The division is exact, so the Gram of M / s cannot overflow, and a norm
    read off it and multiplied by s is the one the unscaled Gram would give.
    """
    mat = as_matrix(matrix)
    scale = _binade(max(float(np.abs(mat.view(np.float64)).max()), floor))
    mat /= scale
    return mat, scale


def operator_norm(matrix) -> float:
    """Largest singular value, via the smaller of the two Gram matrices."""
    mat, scale = _scaled_down(matrix)
    rows, cols = mat.shape
    gram = mat @ mat.conj().T if rows <= cols else mat.conj().T @ mat
    top = float(hermitian_eigen(gram).eigenvalues[-1])
    return scale * math.sqrt(max(top, 0.0))


def sigma_min(matrix) -> float:
    """sqrt of the smallest eigenvalue of M* M, clamped at zero.

    M* M is rank deficient for a wide matrix, so this reports 0 there;
    for square input it is the smallest singular value.
    """
    mat, scale = _scaled_down(matrix)
    gram = mat.conj().T @ mat
    bottom = float(hermitian_eigen(gram).eigenvalues[0])
    return scale * math.sqrt(max(bottom, 0.0))


def hermitian_inverse(matrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Spectral inverse of a Hermitian matrix with lambda_min > tol * max |lambda|."""
    result = hermitian_eigen(matrix)
    smallest, largest = result.eigenvalues[[0, -1]]
    if not exceeds(smallest, tol, max(-smallest, largest)):
        raise SingularMatrixError(f"hermitian_inverse: smallest eigenvalue {smallest:.3e} is "
                                  f"not above {tol:.3e} times the largest |eigenvalue|")
    vecs = result.eigenvectors
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        inv = (vecs / result.eigenvalues) @ vecs.conj().T
    if not np.isfinite(inv).all():
        raise OverflowError(f"hermitian_inverse: 1 / {smallest:.3e} overflows a double")
    return _fold(inv)


def psd_sqrt(matrix) -> np.ndarray:
    """Positive semidefinite square root via spectral calculus.

    Eigenvalues down to -DEFAULT_TOL * max |eigenvalue| are treated as
    roundoff and clamped to 0; anything below raises NotPSDError.
    """
    result = hermitian_eigen(matrix)
    smallest, largest = result.eigenvalues[[0, -1]]
    if exceeds(-smallest, DEFAULT_TOL, max(-smallest, largest)):
        raise NotPSDError(f"psd_sqrt: smallest eigenvalue {smallest:.3e} below "
                          f"-{DEFAULT_TOL:.0e} times the largest |eigenvalue|")
    clipped = np.clip(result.eigenvalues, 0.0, None)
    vecs = result.eigenvectors
    return _fold((vecs * np.sqrt(clipped)) @ vecs.conj().T)
