"""Exhaustive weaving analysis and the adversarial interleaved pair.

Weaving asks whether every way of mixing several same-length families
(vector j taken from exactly one family) stays a frame with common
bounds.  At desk scale the quantifier over partitions is answered by
literal exhaustion: all m^N assignments, capped, are streamed in
lexicographic order through one loop that keeps the first strict
minimum of the smallest eigenvalue and the maximum of the largest.

`adversarial_scenario` builds the classic obstruction: two frames, each
an orthonormal basis on half the index set with a decaying scaled-basis
tail on the other half.  Mixing the two tails lets the basis parts
cancel, leaving exactly the sum of the two compact parts, whose smallest
eigenvalue decays with the scenario size.  At finite size this yields a
quantitative vanishing envelope rather than the infinite-dimensional
contradiction itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LengthMismatchError, ShapeMismatchError, TooManyPartitionsError
from .constructors import ScalarProfile, _basis_frame, eigenprofile_operator
from .frames import FrameSystem
from .linalg import DEFAULT_TOL, hermitian_eigen
from .module_space import ModuleOperator, ModuleShape

#: Hard default cap on exhaustive enumeration (2^20 assignments).
DEFAULT_PARTITION_CAP = 1 << 20


@dataclass(frozen=True)
class Partition:
    """Assignment of each index position to a 1-based family number."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        values = tuple(int(a) for a in self.assignment)
        if not values:
            raise ValueError("a partition needs at least one position")
        if any(a < 1 for a in values):
            raise ValueError("family numbers are 1-based")
        object.__setattr__(self, "assignment", values)


@dataclass(frozen=True, eq=False)
class WeavingReport:
    """Universal constants over all partitions, with the worst offender."""

    universal_lower: float
    universal_upper: float
    worst_partition: Partition
    is_woven: bool
    partitions_checked: int


def _check_families(families: Sequence[FrameSystem]) -> tuple[ModuleShape, int]:
    if not families:
        raise ValueError("at least one family is required")
    shape = families[0].shape
    count = len(families[0])
    for pos, fam in enumerate(families[1:], start=2):
        if fam.shape != shape:
            raise ShapeMismatchError(
                f"family {pos} has shape {fam.shape}, expected {shape}"
            )
        if len(fam) != count:
            raise LengthMismatchError(
                f"family {pos} has {len(fam)} vectors, expected {count}"
            )
    return shape, count


def _row_blocks(families: Sequence[FrameSystem]) -> np.ndarray:
    """Synthesis matrices as an (m, N, d, n*d) array: family, vector, row, column."""
    shape = families[0].shape
    return np.stack([fam.synthesis for fam in families]).reshape(
        len(families), -1, shape.d, shape.dim
    )


def weaving_operator(
    families: Sequence[FrameSystem], partition: Partition
) -> ModuleOperator:
    """Frame operator of the mixed family selected by `partition`."""
    shape, count = _check_families(families)
    if len(partition.assignment) != count:
        raise LengthMismatchError(
            f"partition covers {len(partition.assignment)} positions, expected {count}"
        )
    m = len(families)
    chosen = np.array(partition.assignment) - 1
    beyond = np.flatnonzero(chosen >= m)
    if beyond.size:
        j = beyond[0]
        raise ValueError(f"position {j + 1} assigned to family {chosen[j] + 1} > {m}")
    mixed = _row_blocks(families)[chosen, np.arange(count)].reshape(-1, shape.dim)
    return ModuleOperator(shape, mixed.conj().T @ mixed)


def universal_bounds(
    families: Sequence[FrameSystem],
    tol: float = DEFAULT_TOL,
    max_partitions: int = DEFAULT_PARTITION_CAP,
    workers: int | None = None,
) -> WeavingReport:
    """Exhaust all partitions and report the universal frame constants.

    universal_lower is the minimum over partitions of the smallest
    weaving eigenvalue (its argmin, lexicographically smallest on ties,
    is the worst partition); universal_upper the maximum of the largest;
    the families are woven iff universal_lower > tol * universal_upper.
    Partitions stream one at a time through the calling thread; `workers`
    is accepted and ignored, so the report is the same for any value.
    """
    _, count = _check_families(families)
    m = len(families)
    total = m**count
    if total > max_partitions:
        raise TooManyPartitionsError(
            f"{m}^{count} = {total} partitions exceed the cap {max_partitions}"
        )
    rows = _row_blocks(families)
    # rep(f)* rep(f) for every vector of every family; a weaving operator
    # sums one of them per position.
    contribs = rows.conj().swapaxes(-1, -2) @ rows
    positions = np.arange(count)
    low, worst, high = np.inf, None, -np.inf
    # Family numbers counted from 0, in lexicographic order, so the first
    # strict minimum is the lexicographically smallest argmin.
    for assignment in itertools.product(range(m), repeat=count):
        gram = contribs[assignment, positions].sum(axis=0)
        eigenvalues = hermitian_eigen(gram).eigenvalues
        if eigenvalues[0] < low:
            low, worst = float(eigenvalues[0]), assignment
        high = max(high, float(eigenvalues[-1]))

    return WeavingReport(
        universal_lower=low,
        universal_upper=high,
        worst_partition=Partition(tuple(a + 1 for a in worst)),
        is_woven=low > tol * high,
        partitions_checked=total,
    )


@dataclass(frozen=True, eq=False)
class AdversarialScenario:
    """Interleaved pair of compact-tight frames with its degenerate partition.

    Each family is a frame on its own (operator I + compact part), but
    the partition mixing the two decaying tails has weaving operator
    exactly compact_a + compact_b.
    """

    frame_a: FrameSystem
    frame_b: FrameSystem
    sigma: tuple[int, ...]
    adversarial: Partition
    compact_a: ModuleOperator
    compact_b: ModuleOperator


def adversarial_scenario(
    count: int,
    profile_a: ScalarProfile,
    profile_b: ScalarProfile,
    d: int = 1,
) -> AdversarialScenario:
    """Build the two interleaved families on an even index set of size `count`.

    The module rank is count/2.  Family A carries an orthonormal basis
    on the odd positions (sigma) and the decaying tail
    sqrt(profile_a(k)) e_(k/2) on the even ones; family B mirrors this
    with its basis on the even positions.  Both profiles must decay to
    limit 0 with positive amplitude.  The adversarial partition takes
    the tails of both families: A on the even positions, B on the odd
    ones, so the two basis halves drop out.
    """
    if count < 2 or count % 2 != 0:
        raise ValueError(f"scenario size must be an even count >= 2, got {count}")
    for label, profile in (("first", profile_a), ("second", profile_b)):
        if profile.limit != 0:
            raise ValueError(f"{label} profile must have limit 0, got {profile.limit}")
        if profile.kind == "constant" or profile.c <= 0:
            raise ValueError(f"{label} profile needs a positive decaying amplitude")
    half = count // 2
    shape = ModuleShape(d=d, n=half)
    directions = np.arange(count) // 2
    odd = np.arange(1, count + 1) % 2 == 1
    scales_a = np.where(odd, 1.0, np.sqrt(profile_a.values(count)))
    scales_b = np.where(odd, np.sqrt(profile_b.values(count)), 1.0)

    compact_a = eigenprofile_operator(
        [profile_a.eval(2 * i) for i in range(1, half + 1)], shape
    )
    compact_b = eigenprofile_operator(
        [profile_b.eval(2 * i - 1) for i in range(1, half + 1)], shape
    )
    sigma = tuple(range(1, count, 2))
    assignment = tuple(2 if k % 2 == 1 else 1 for k in range(1, count + 1))
    return AdversarialScenario(
        frame_a=_basis_frame(shape, directions, scales_a),
        frame_b=_basis_frame(shape, directions, scales_b),
        sigma=sigma,
        adversarial=Partition(assignment),
        compact_a=compact_a,
        compact_b=compact_b,
    )
