"""The finite Hilbert module A^n over the matrix algebra A = M_d(C).

A vector f = (f_1, ..., f_n) with d x d algebra blocks f_i is stored as
its row-block matrix rep(f) = [f_1 | ... | f_n] of shape d x (n*d).  In
this picture:

* the algebra-valued pairing <f, g> = sum_i f_i g_i* is
  rep(f) @ rep(g)*, left-linear in the first slot under the left action
  a.f = (a f_1, ..., a f_n);
* maps commuting with the left action are exactly RIGHT multiplications
  by an (n*d) x (n*d) matrix, rep(T f) = rep(f) @ mat(T);
* the adjoint of such a map is the plain conjugate transpose, since
  <T f, g> = rep(f) mat rep(g)* must equal <f, T* g> for all f, g.

Positivity of an operator, meaning <T f, f> is a positive algebra
element for every f, is equivalent to PSD-ness of its matrix: rank-one
rows of rep(f) give necessity, a factorization mat = R R* sufficiency.
That equivalence is what lets the rest of the package answer
module-level questions with ordinary Hermitian eigenvalue computations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .linalg import (DEFAULT_TOL, _fold, as_matrix, exceeds, hermitian_eigen, operator_norm,
                     psd_check, relative_drift)

#: Seed used by sampling probes when the caller does not supply one.
DEFAULT_SEED = 1729


@dataclass(frozen=True)
class ModuleShape:
    """Algebra dimension d (A = M_d(C)) and module rank n (H = A^n)."""

    d: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.d, int) and self.d >= 1):
            raise ValueError(f"algebra dimension d must be an integer >= 1, got {self.d}")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"module rank n must be an integer >= 1, got {self.n}")

    @property
    def dim(self) -> int:
        """Total representation dimension n*d."""
        return self.n * self.d


def _freeze(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class ModuleVector:
    """Element of A^n held as its d x (n*d) row-block representation."""

    shape: ModuleShape
    rep: np.ndarray

    def __post_init__(self):
        rep = as_matrix(self.rep)
        expected = (self.shape.d, self.shape.dim)
        if rep.shape != expected:
            raise ShapeMismatchError(
                f"vector representation must be {expected[0]}x{expected[1]} for "
                f"shape {self.shape}, got {rep.shape[0]}x{rep.shape[1]}"
            )
        object.__setattr__(self, "rep", _freeze(rep))

    def block(self, index: int) -> np.ndarray:
        """The d x d algebra block at 1-based position `index`."""
        d = self.shape.d
        if not 1 <= index <= self.shape.n:
            raise IndexError(f"block index {index} outside 1..{self.shape.n}")
        return self.rep[:, (index - 1) * d : index * d].copy()

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        require_same_shape(self, other)
        return ModuleVector(self.shape, self.rep + other.rep)

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        require_same_shape(self, other)
        return ModuleVector(self.shape, self.rep - other.rep)

    def __rmul__(self, scalar) -> "ModuleVector":
        return ModuleVector(self.shape, complex(scalar) * self.rep)

    def __neg__(self) -> "ModuleVector":
        return ModuleVector(self.shape, -self.rep)


@dataclass(frozen=True, eq=False)
class ModuleOperator:
    """Adjointable map on A^n, acting by right multiplication on rep."""

    shape: ModuleShape
    mat: np.ndarray

    def __post_init__(self):
        mat = as_matrix(self.mat)
        dim = self.shape.dim
        if mat.shape != (dim, dim):
            raise ShapeMismatchError(
                f"operator matrix must be {dim}x{dim} for shape {self.shape}, "
                f"got {mat.shape[0]}x{mat.shape[1]}"
            )
        object.__setattr__(self, "mat", _freeze(mat))


def require_same_shape(a, b) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"module shapes disagree: {a.shape} vs {b.shape}")


def zero_vector(shape: ModuleShape) -> ModuleVector:
    return ModuleVector(shape, np.zeros((shape.d, shape.dim), dtype=complex))


def identity_operator(shape: ModuleShape, scale: complex = 1.0) -> ModuleOperator:
    return ModuleOperator(shape, complex(scale) * np.eye(shape.dim, dtype=complex))


def inner_product(f: ModuleVector, g: ModuleVector) -> np.ndarray:
    """Algebra-valued pairing <f, g> = rep(f) @ rep(g)*, a d x d matrix."""
    require_same_shape(f, g)
    return f.rep @ g.rep.conj().T


def module_norm(f: ModuleVector) -> float:
    """||f|| = ||<f, f>||^(1/2), which equals the largest singular value of rep(f)."""
    return operator_norm(f.rep)


def standard_basis(shape: ModuleShape) -> list[ModuleVector]:
    """Orthonormal basis e_1..e_n: identity algebra block in slot i, zero elsewhere."""
    return [ModuleVector(shape, rows) for rows in np.vsplit(np.eye(shape.dim), shape.n)]


def left_mul(a, f: ModuleVector) -> ModuleVector:
    """Left action of an algebra element: a.f = (a f_1, ..., a f_n)."""
    amat = as_matrix(a)
    if amat.shape != (f.shape.d, f.shape.d):
        raise ShapeMismatchError(
            f"algebra element must be {f.shape.d}x{f.shape.d}, got {amat.shape}"
        )
    return ModuleVector(f.shape, amat @ f.rep)


def apply_operator(T: ModuleOperator, f: ModuleVector) -> ModuleVector:
    """T f, computed as rep(f) @ mat(T); commutes with the left action exactly."""
    require_same_shape(T, f)
    return ModuleVector(f.shape, f.rep @ T.mat)


def adjoint(T: ModuleOperator) -> ModuleOperator:
    """The adjoint operator; its matrix is the conjugate transpose."""
    return ModuleOperator(T.shape, T.mat.conj().T)


def operator_positive(T: ModuleOperator, tol: float = DEFAULT_TOL) -> bool:
    """Whether <T f, f> is a positive algebra element for every f.

    Decided as PSD-ness of mat(T).  A matrix that is not self-adjoint
    within the kernel's Hermitian tolerance cannot be positive, so that
    case answers False instead of raising.
    """
    return not exceeds(relative_drift(T.mat, T.mat.conj().T), DEFAULT_TOL) and psd_check(T.mat, tol)


def random_vector(shape: ModuleShape, rng: np.random.Generator) -> ModuleVector:
    """Vector with entries uniform on the complex square [-1, 1] x [-1, 1]i."""
    size = (shape.d, shape.dim)
    rep = rng.uniform(-1.0, 1.0, size) + 1j * rng.uniform(-1.0, 1.0, size)
    return ModuleVector(shape, rep)


def random_operator(shape: ModuleShape, rng: np.random.Generator) -> ModuleOperator:
    """Operator with entries uniform on the complex square [-1, 1] x [-1, 1]i."""
    dim = shape.dim
    mat = rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
    return ModuleOperator(shape, mat)


def cauchy_schwarz_probe(
    T: ModuleOperator, sample_count: int, seed: int = DEFAULT_SEED
) -> float:
    """Worst sampled violation of <Tx, Tx> <= ||T||^2 <x, x>.

    Returns the maximum over random samples x of
    lambda_max(<Tx, Tx> - ||T||^2 <x, x>); values at or below roundoff
    confirm the adjointable-operator inequality on the sample set.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    bound = operator_norm(T.mat) ** 2
    worst = -np.inf
    for _ in range(sample_count):
        x = random_vector(T.shape, rng)
        tx = apply_operator(T, x)
        gap = inner_product(tx, tx) - bound * inner_product(x, x)
        # gap cancels to far below the size of its terms, and their rounding
        # is asymmetric; fold it before hermitian_eigen checks symmetry.
        top = float(hermitian_eigen(_fold(gap), vectors=False).eigenvalues[-1])
        worst = max(worst, top)
    return worst
