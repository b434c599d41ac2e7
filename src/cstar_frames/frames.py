"""Frame systems: synthesis/analysis machinery, optimal bounds, duals.

A finite family F = {f_k} is stored as its synthesis matrix X, the
vertical stack of the rep(f_k).  The frame operator matrix S = X* X is
Hermitian PSD, and the two optimal constants squeezing
sum_k <f, f_k><f_k, f> between multiples of <f, f> are exactly its
extreme eigenvalues (see the positivity argument in
:mod:`cstar_frames.module_space`).  A finite family is always a Bessel
system; it is a frame precisely when the smallest eigenvalue clears the
tolerance times the largest one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import LengthMismatchError, NotAFrameError, ShapeMismatchError
from .linalg import DEFAULT_TOL, as_matrix, hermitian_eigen, hermitian_inverse, operator_norm, psd_sqrt
from .module_space import (
    ModuleOperator,
    ModuleShape,
    ModuleVector,
    require_same_shape,
)


#: Largest frame built from user input (construct, weave --sweep, a frame
#: file), in complex entries of its synthesis matrix or frame operator,
#: whichever is larger.  A frame file takes about 100 bytes of JSON per entry,
#: so this caps a written file near 26 MB: four times the largest frame the
#: benchmark builds (1064 x 64).  It also keeps n*d <= 512.
MAX_FRAME_ENTRIES = 1 << 18


def _oversized(vectors: int, d: int, n: int) -> str | None:
    """Why a frame of this size is refused before anything is allocated, or None."""
    entries = max(vectors, n) * d * n * d
    if entries <= MAX_FRAME_ENTRIES:
        return None
    return (f"a frame of {vectors} vectors with n = {n}, d = {d} has "
            f"{entries} entries, above the limit {MAX_FRAME_ENTRIES}")


class FrameSystem:
    """Finite ordered family of module vectors, held as one synthesis matrix.

    Built from a nonempty sequence of vectors of one shape, or, given
    `shape`, from the (N*d) x (n*d) synthesis matrix itself, whose row
    block k is rep(f_k).  The matrix is copied into the read-only
    :attr:`synthesis` and the frame operator X* X is built once; finite
    entries whose X* X overflows, or underflows to a zero diagonal entry on
    a nonzero column, raise OverflowError.
    Duplicate and zero vectors are allowed; the empty family is not.
    Instances are immutable, so they can be shared freely across threads.
    """

    def __init__(self, vectors: Sequence[ModuleVector] | np.ndarray, shape: ModuleShape | None = None):
        if shape is None:
            vectors = tuple(vectors)
            if not vectors:
                raise ValueError("a frame system needs at least one vector")
            shape = vectors[0].shape
            for position, vec in enumerate(vectors[1:], start=2):
                if vec.shape != shape:
                    raise ShapeMismatchError(
                        f"vector {position} has shape {vec.shape}, expected {shape}"
                    )
            vectors = np.vstack([vec.rep for vec in vectors])
        matrix = as_matrix(vectors)
        if matrix.shape[0] % shape.d or matrix.shape[1] != shape.dim:
            raise ShapeMismatchError(
                f"synthesis matrix must have a multiple of {shape.d} rows and "
                f"{shape.dim} columns for shape {shape}, got {matrix.shape}"
            )
        matrix.setflags(write=False)
        self._synthesis = matrix
        self._shape = shape
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            frame_op = matrix.conj().T @ matrix
        if not np.isfinite(frame_op).all():
            raise OverflowError("the frame operator X* X overflows a double")
        # Every |x|^2 of a nonzero column underflowed: S reads 0 in a direction X spans.
        zero = frame_op.diagonal().real == 0
        if zero.any() and matrix[:, zero].any():
            column = int(np.flatnonzero(zero & matrix.any(axis=0))[0]) + 1
            raise OverflowError(f"the frame operator X* X underflows a double: diagonal "
                                f"entry {column} is 0 on a nonzero column of X")
        self._frame_op = ModuleOperator(shape, frame_op)

    @property
    def shape(self) -> ModuleShape:
        return self._shape

    @property
    def synthesis(self) -> np.ndarray:
        """The read-only (N*d) x (n*d) synthesis matrix."""
        return self._synthesis

    @property
    def vectors(self) -> tuple[ModuleVector, ...]:
        """The vectors, built on each access from the row blocks of `synthesis`."""
        return tuple(ModuleVector(self._shape, rows) for rows in np.vsplit(self._synthesis, len(self)))

    @property
    def frame_op(self) -> ModuleOperator:
        return self._frame_op

    def __len__(self) -> int:
        return self._synthesis.shape[0] // self._shape.d

    def __iter__(self) -> Iterator[ModuleVector]:
        return iter(self.vectors)


@dataclass(frozen=True)
class BoundsReport:
    """Optimal frame constants and the resulting classification."""

    lower: float
    upper: float
    tight: bool
    is_frame: bool
    is_bessel: bool


def frame_operator(system: FrameSystem) -> ModuleOperator:
    """The cached operator with matrix X* X = sum_k rep(f_k)* rep(f_k)."""
    return system.frame_op


def analysis(system: FrameSystem, f: ModuleVector) -> list[np.ndarray]:
    """Coefficient list {<f, f_k>}_k, one d x d algebra element per vector."""
    require_same_shape(system, f)
    d = system.shape.d
    row = f.rep @ system.synthesis.conj().T  # [<f, f_1> | ... | <f, f_N>]
    return list(row.reshape(d, len(system), d).swapaxes(0, 1))


def synthesis(system: FrameSystem, coefficients: Sequence) -> ModuleVector:
    """sum_k a_k . f_k for algebra coefficients a_k (left action)."""
    coeffs = list(coefficients)
    if len(coeffs) != len(system):
        raise LengthMismatchError(
            f"expected {len(system)} coefficients, got {len(coeffs)}"
        )
    d = system.shape.d
    blocks = np.array(coeffs, dtype=complex)
    if blocks.shape[1:] != (d, d):
        raise ShapeMismatchError(
            f"coefficients must be {d}x{d} algebra elements, got {blocks.shape[1:]}"
        )
    row = as_matrix(blocks.swapaxes(0, 1).reshape(d, -1))  # [a_1 | ... | a_N]
    return ModuleVector(system.shape, row @ system.synthesis)


def synthesis_matrix(system: FrameSystem) -> np.ndarray:
    """Vertical stack of the vector representations, shape (N*d) x (n*d).

    Its Gram against itself is the frame operator matrix, and its largest
    singular value is the synthesis operator norm.
    """
    return system.synthesis


def optimal_bounds(system: FrameSystem, tol: float = DEFAULT_TOL) -> BoundsReport:
    """Best constants in the two-sided frame inequality.

    lower = max(lambda_min(S), 0) and upper = lambda_max(S); the family
    is a frame iff lower > tol * upper, and tight iff upper - lower <= tol * upper.
    """
    eigenvalues = hermitian_eigen(system.frame_op.mat).eigenvalues
    lower = max(float(eigenvalues[0]), 0.0)
    upper = max(float(eigenvalues[-1]), 0.0)
    return BoundsReport(
        lower=lower,
        upper=upper,
        tight=(upper - lower) <= tol * upper,
        is_frame=lower > tol * upper,
        is_bessel=True,
    )


def perturbation_distance(first: FrameSystem, second: FrameSystem) -> float:
    """Synthesis-operator distance ||T_F - T_G||.

    Computed as the largest singular value of the difference of the two
    synthesis matrices (evaluated on the smaller Gram matrix).
    """
    require_same_shape(first, second)
    if len(first) != len(second):
        raise LengthMismatchError(
            f"families have different lengths: {len(first)} vs {len(second)}"
        )
    return operator_norm(first.synthesis - second.synthesis)


def dual_frame(system: FrameSystem, tol: float = DEFAULT_TOL) -> FrameSystem:
    """Canonical dual {S^-1 f_k}; requires the optimal lower bound to exceed tol * upper.

    The dual's frame operator is S^-1, so its optimal bounds are the
    reciprocals of the original ones in swapped order, and sum_k <f, dual_k> f_k
    reconstructs f.  A dual past the double range raises OverflowError, naming
    the smallest eigenvalue of S.
    """
    bounds = optimal_bounds(system, tol)
    if not bounds.is_frame:
        raise NotAFrameError(
            f"optimal lower bound {bounds.lower:.3e} is not above {tol:.3e} * upper bound"
        )
    try:
        inverse = hermitian_inverse(system.frame_op.mat, tol)
        return FrameSystem(system.synthesis @ inverse, shape=system.shape)
    except OverflowError as exc:
        raise OverflowError(f"the dual frame is past the double range: the smallest "
                            f"eigenvalue of the frame operator is {bounds.lower:.3e}") from exc


def frame_from_operator(matrix, shape: ModuleShape) -> FrameSystem:
    """A frame of n vectors whose frame operator equals the given PSD matrix.

    The PSD square root R is itself a synthesis matrix: its n row blocks
    of d rows are the vectors, and its Gram R* R recovers the input.
    Handy for realizing prescribed frame operators in tests and
    demonstrations.
    """
    mat = as_matrix(matrix)
    dim = shape.dim
    if mat.shape != (dim, dim):
        raise ShapeMismatchError(
            f"operator matrix must be {dim}x{dim} for shape {shape}, got {mat.shape}"
        )
    return FrameSystem(psd_sqrt(mat), shape=shape)
