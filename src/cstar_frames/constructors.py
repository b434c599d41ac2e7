"""Concrete compact-tight frames from closed-form eigenvalue profiles.

A scalar profile is a strictly decreasing sequence l_1 > l_2 > ... with
a declared limit xi; scaling an orthonormal basis by sqrt(l_k) yields a
frame whose operator is xi*I plus a "compact part" K carrying the
eigenvalues l_k - xi.  Finite truncations cannot distinguish compact
from merely bounded perturbations, so compactness lives in the profile
metadata: the certificate records the profile and its declared limit
next to K's eigenvalue at each basis direction (every K built here is
diagonal in the standard basis), and uniqueness of the representation
S = K + xi*I is decided at that profile level (two valid certificates
for the same operator must agree on the shift, because their difference
would be a nonzero constant multiple of the identity, whose eigenvalue
sequence cannot tend to 0).

Four profile kinds are built in, all with known closed forms for the
supremum, prefix minimum, and limit, so every constructed frame has
exact expected bounds to test against:

    constant    l_k = xi
    gaussian    l_k = xi + c * exp(-(k-1)^2 / 2)
    geometric   l_k = xi + c * r^k,        0 < r < 1
    power       l_k = xi + c * k^(-p),     p > 0

Indexing starts at k = 1 and the amplitude is taken at the first index
for the gaussian and power kinds, so a gaussian profile with xi = c = 1
yields the reference bounds (1, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import LengthMismatchError, NotSameOperatorError
from .frames import FrameSystem, frame_operator
from .linalg import DEFAULT_TOL, ROUNDING_RTOL, exceeds, relative_drift
from .module_space import ModuleOperator, ModuleShape

PROFILE_KINDS = ("constant", "gaussian", "geometric", "power")


@dataclass(frozen=True)
class ScalarProfile:
    """Closed-form decreasing sequence k -> l_k with declared limit xi."""

    kind: str
    xi: float
    c: float = 0.0
    r: float | None = None
    p: float | None = None

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}; expected one of {PROFILE_KINDS}")
        if not math.isfinite(self.xi):
            raise ValueError("profile limit xi must be finite")
        if not (math.isfinite(self.c) and self.c >= 0):
            raise ValueError("amplitude c must be finite and >= 0")
        if self.kind == "constant" and self.c != 0:
            raise ValueError("constant profiles take no amplitude; set c = 0")
        if self.kind == "geometric":
            if self.r is None or not (0 < self.r < 1):
                raise ValueError("geometric profiles need a ratio r in (0, 1)")
        elif self.r is not None:
            raise ValueError(f"ratio r only applies to geometric profiles, not {self.kind!r}")
        if self.kind == "power":
            if self.p is None or not (self.p > 0):
                raise ValueError("power profiles need an exponent p > 0")
            if self.p == math.inf:
                raise ValueError("exponent p must be finite")
        elif self.p is not None:
            raise ValueError(f"exponent p only applies to power profiles, not {self.kind!r}")
        if not math.isfinite(self.sup):
            raise ValueError(f"profile supremum l_1 = {self.sup} is past the double range "
                             f"(xi = {self.xi!r}, c = {self.c!r})")

    def eval(self, k: int) -> float:
        """l_k for a 1-based index k."""
        if k < 1:
            raise ValueError(f"profile index must be >= 1, got {k}")
        if self.kind == "constant":
            return self.xi
        if self.kind == "gaussian":
            return self.xi + self.c * math.exp(-((k - 1) ** 2) / 2.0)
        if self.kind == "geometric":
            return self.xi + self.c * self.r**k
        return self.xi + self.c * k ** (-self.p)

    def values(self, count: int) -> np.ndarray:
        """l_1 .. l_count as a float array."""
        return np.array([self.eval(k) for k in range(1, count + 1)])

    @property
    def limit(self) -> float:
        """The declared limit of l_k as k grows."""
        return self.xi

    @property
    def sup(self) -> float:
        """sup over all k, attained at k = 1 for the decreasing kinds."""
        if self.kind == "constant" or self.c == 0:
            return self.xi
        return self.eval(1)

    def prefix_min(self, count: int) -> float:
        """min over k = 1..count, attained at the last index."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if self.kind == "constant" or self.c == 0:
            return self.xi
        return self.eval(count)


def eigenprofile_operator(alphas: Sequence[float], shape: ModuleShape) -> ModuleOperator:
    """Operator diagonal in the standard basis with prescribed direction eigenvalues.

    Each basis direction contributes its alpha with multiplicity d in the
    representation, so the matrix spectrum is the multiset of alphas
    repeated d times.
    """
    values = [float(a) for a in alphas]
    if len(values) != shape.n:
        raise LengthMismatchError(
            f"expected {shape.n} eigenvalues for shape {shape}, got {len(values)}"
        )
    mat = np.kron(np.diag(values), np.eye(shape.d)).astype(complex)
    return ModuleOperator(shape, mat)


def _basis_frame(shape: ModuleShape, directions, scales) -> FrameSystem:
    """The frame {scales[k] e_(directions[k])} of scaled basis vectors, 0-based directions."""
    rows = np.eye(shape.n)[directions] * np.asarray(scales, dtype=float)[:, None]
    return FrameSystem(np.kron(rows, np.eye(shape.d)), shape=shape)


@dataclass(frozen=True, eq=False)
class CompactTightCert:
    """Certificate that a frame operator equals K + xi * I with K compact.

    K is diagonal in the standard basis, so it is held as `alphas`, its
    eigenvalue at each basis direction (a read-only float array of length
    n); each carries multiplicity d in the representation.  `permutation`
    lists (1-based) which basis direction carries the k-th profile value.
    Omitted alphas are derived from the profile: l_k - xi at direction
    permutation[k], 0 elsewhere; given alphas must agree with a given
    profile within DEFAULT_TOL (relative).  `profile` may be None for
    parts whose eigenvalue sequence has no closed form (finite-rank
    repetitions, duals); the declared limit of the scaled-basis sequence
    then defaults to xi, consistent with an eigenvalue sequence that is
    eventually zero.
    """

    shape: ModuleShape
    xi: float
    alphas: np.ndarray | None = None
    profile: ScalarProfile | None = None
    permutation: tuple[int, ...] = ()

    def __post_init__(self):
        n = self.shape.n
        perm = tuple(int(i) for i in self.permutation)
        if len(set(perm)) != len(perm):
            raise ValueError("permutation entries must be distinct")
        if perm and not all(1 <= i <= n for i in perm):
            raise ValueError(f"permutation entries must lie in 1..{n}")
        object.__setattr__(self, "permutation", perm)
        if self.profile is not None:
            derived = np.zeros(n)
            with np.errstate(over="ignore"):  # checked just below
                derived[np.array(perm, dtype=int) - 1] = self.profile.values(len(perm)) - self.xi
            if not np.isfinite(derived).all():
                raise ValueError(f"l_k - xi is past the double range at xi = {self.xi!r}")
        elif self.alphas is None:
            raise ValueError("needs 'alphas' when no profile is given")
        alphas = derived if self.alphas is None else np.array(self.alphas, dtype=float)
        if alphas.shape != (n,) or not np.isfinite(alphas).all():
            raise ValueError(f"alphas must be {n} finite numbers")
        with np.errstate(over="ignore"):  # checked just below
            spectrum = alphas + self.xi
        if not np.isfinite(spectrum).all():
            raise ValueError(f"alphas + xi is past the double range at xi = {self.xi!r}")
        if self.profile is not None:
            drift = relative_drift(derived, alphas, self.xi)  # xi: l_k - xi may cancel
            if exceeds(drift, DEFAULT_TOL):
                raise ValueError(f"compact part eigenvalues disagree with the profile by "
                                 f"{drift:.3e} (relative)")
        alphas.flags.writeable = False
        object.__setattr__(self, "alphas", alphas)

    @property
    def declared_limit(self) -> float:
        """Declared limit of the scaled-basis sequence l_k."""
        return self.profile.limit if self.profile is not None else self.xi

    def operator_matrix(self) -> np.ndarray:
        """The certified frame operator K + xi * I."""
        return eigenprofile_operator(self.alphas + self.xi, self.shape).mat

    def drift(self, system: FrameSystem) -> float:
        """How far K + xi * I misses the frame operator S of `system`, relative to S."""
        return relative_drift(frame_operator(system).mat, self.operator_matrix())

    def dual(self, tol: float = DEFAULT_TOL) -> CompactTightCert | None:
        """Certificate of S^-1 = T + xi^-1 I, in the scalar form of dual_decomposition.

        Per direction T = -xi^-1 * alpha * (alpha + xi)^-1, zero kept as +0.0.
        None when xi = 0, when S is singular by hermitian_inverse's rule
        (min(alpha + xi) <= tol * max|alpha + xi|), or when the result is
        not finite.
        """
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            spectrum = self.alphas + self.xi
            if self.xi == 0 or not exceeds(spectrum.min(), tol, np.abs(spectrum).max()):
                return None
            inverse_xi = 1.0 / self.xi
            alphas = -inverse_xi * (self.alphas * (1.0 / spectrum)) + 0.0
        if not (math.isfinite(inverse_xi) and np.isfinite(alphas).all()):
            return None
        return CompactTightCert(self.shape, inverse_xi, alphas, permutation=self.permutation)


def profile_frame(
    profile: ScalarProfile, shape: ModuleShape, count: int | None = None
) -> tuple[FrameSystem, CompactTightCert]:
    """Frame {sqrt(l_k) e_k} for k = 1..count, with its certificate.

    Requires a positive limit xi and, for non-constant kinds, a positive
    amplitude.  With count = n the frame operator is exactly
    K + xi*I for K = sum_k (l_k - xi) <., e_k> e_k and the optimal
    bounds are (min_k l_k, max_k l_k); smaller truncations leave the
    remaining basis directions uncovered, so they only frame the
    spanned submodule and the certificate describes that truncation.
    """
    if count is None:
        count = shape.n
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > shape.n:
        raise ValueError(
            f"truncation {count} exceeds the module rank {shape.n}"
        )
    if profile.xi <= 0:
        raise ValueError("profile limit xi must be positive")
    if profile.kind != "constant" and profile.c <= 0:
        raise ValueError("non-constant profiles need a positive amplitude")
    system = _basis_frame(shape, np.arange(count), np.sqrt(profile.values(count)))
    cert = CompactTightCert(shape, profile.xi, profile=profile,
                            permutation=tuple(range(1, count + 1)))
    if count == shape.n:
        drift = cert.drift(system)
        if exceeds(drift, ROUNDING_RTOL):
            raise AssertionError(f"constructed frame operator misses its certificate by "
                                 f"{drift:.3e} (relative)")
    return system, cert


def repetition_frame(
    shape: ModuleShape, multiplicities: Mapping[int, int]
) -> tuple[FrameSystem, CompactTightCert]:
    """Orthonormal basis with designated directions repeated, plus certificate.

    `multiplicities` maps 1-based basis indices to total counts >= 1.
    The frame lists every basis vector once and appends the extra
    copies, so the frame operator is exactly I + K with K of rank
    (number of repeated directions) * d and integer spectrum.
    """
    theta = {}
    for index, count in multiplicities.items():
        idx = int(index)
        cnt = int(count)
        if not 1 <= idx <= shape.n:
            raise ValueError(f"basis index {idx} outside 1..{shape.n}")
        if cnt < 1:
            raise ValueError(f"multiplicity for index {idx} must be >= 1, got {cnt}")
        theta[idx] = cnt
    directions = list(range(shape.n))
    for idx in sorted(theta):
        directions += [idx - 1] * (theta[idx] - 1)
    cert = CompactTightCert(
        shape,
        1.0,
        [theta.get(j, 1) - 1 for j in range(1, shape.n + 1)],
        permutation=tuple(sorted(j for j, cnt in theta.items() if cnt > 1)),
    )
    return _basis_frame(shape, directions, np.ones(len(directions))), cert


@dataclass(frozen=True)
class UniquenessVerdict:
    """Outcome of comparing two certificates for one operator."""

    equal: bool
    reason: str


def representation_unique(
    first: CompactTightCert, second: CompactTightCert
) -> UniquenessVerdict:
    """Decide whether two certificates for the same operator coincide.

    Both must describe the same operator matrix (precondition).  The
    decision is made at profile level: a valid compact part has an
    eigenvalue sequence with limit 0, i.e. declared limit equal to the
    shift.  If either certificate breaks that, or the shifts differ, the
    representations are distinct, because the difference of the two
    compact parts would be the constant (xi_1 - xi_2) * I.  Comparisons
    are relative, within DEFAULT_TOL.
    """
    op1 = first.operator_matrix()
    op2 = second.operator_matrix()
    drift = relative_drift(op1, op2)
    if exceeds(drift, DEFAULT_TOL):
        raise NotSameOperatorError(f"certificates describe different operators; "
                                   f"relative drift {drift:.3e}")
    for culprit, cert in (("first", first), ("second", second)):
        tail = cert.declared_limit - cert.xi
        if exceeds(abs(tail), DEFAULT_TOL, max(abs(cert.declared_limit), abs(cert.xi))):
            return UniquenessVerdict(False, (
                f"{culprit} certificate declares a part whose eigenvalue sequence "
                f"tends to {tail:g}, not 0, so it is not a compact perturbation of "
                f"its shift"))
    if exceeds(abs(first.xi - second.xi), DEFAULT_TOL, max(abs(first.xi), abs(second.xi))):
        return UniquenessVerdict(False, (
            f"shifts {first.xi:g} and {second.xi:g} differ; the parts would "
            f"differ by the constant {first.xi - second.xi:g} * I, whose "
            f"eigenvalue sequence cannot tend to 0"))
    part_drift = relative_drift(first.alphas, second.alphas)
    if exceeds(part_drift, DEFAULT_TOL):
        return UniquenessVerdict(
            False, f"equal shifts but compact parts differ by {part_drift:.3e} (relative)")
    return UniquenessVerdict(equal=True, reason="same shift and same compact part")
