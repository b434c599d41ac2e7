"""Exhaustive weaving analysis and the adversarial interleaved pair.

Weaving asks whether every way of mixing several same-length families
(vector j taken from exactly one family) stays a frame with common
bounds.  At desk scale the quantifier over partitions is answered by
literal exhaustion: all m^N assignments, capped, in lexicographic order,
keeping the first strict minimum of the smallest eigenvalue and the
maximum of the largest.  The weaving operators come in blocks of at most
LEAF_BLOCK_BYTES, each summed left to right over the positions, whatever
its size: the leading positions of its partitions, then the trailing
ones appended a level at a time.  Each spectrum is one hermitian_eigen
call.  The operators are formed from the families divided by one power of
two, which is exact and keeps every one of them inside the double range;
the constants are multiplied back at the end.

`adversarial_scenario` builds the classic obstruction: two frames, each
an orthonormal basis on half the index set with a decaying scaled-basis
tail on the other half.  Mixing the two tails lets the basis parts
cancel, leaving exactly the sum of the two compact parts, whose smallest
eigenvalue decays with the scenario size.  At finite size this yields a
quantitative vanishing envelope rather than the infinite-dimensional
contradiction itself.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LengthMismatchError, ShapeMismatchError, TooManyPartitionsError
from .constructors import CompactTightCert, ScalarProfile, _basis_frame
from .frames import FrameSystem
from .linalg import DEFAULT_TOL, _binade, exceeds, hermitian_eigen
from .module_space import ModuleOperator, ModuleShape

#: Hard default cap on exhaustive enumeration (2^20 assignments).
DEFAULT_PARTITION_CAP = 1 << 20

#: universal_bounds builds the weaving operators in blocks of at most this
#: many bytes (256 KiB) of operators, or one operator where a single one is
#: larger.  Larger blocks were no faster on the benchmark's 6 x 6 and 7 x 7
#: operators and raised the peak memory of a weave.
LEAF_BLOCK_BYTES = 1 << 18


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
    is_woven: bool
    partitions_checked: int
    worst_partition: Partition


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
    return FrameSystem(mixed, shape=shape).frame_op


def _partition_at(place: int, m: int, count: int) -> Partition:
    """The partition at `place` in lexicographic order: its base-m digits, 1-based."""
    return Partition(tuple(place // m**k % m + 1 for k in reversed(range(count))))


def _leaf_depth(m: int, count: int, leaf_bytes: int) -> int:
    """The most trailing positions whose m^depth leaves fit in LEAF_BLOCK_BYTES."""
    depth = 0
    while depth < count and leaf_bytes * m ** (depth + 1) <= LEAF_BLOCK_BYTES:
        depth += 1
    return depth


def _append(block: np.ndarray, options: np.ndarray) -> np.ndarray:
    """Each Gram of `block` plus each of `options`, lexicographically."""
    return (block[:, None] + options[None]).reshape(-1, *options.shape[1:])


def _leaf_blocks(contribs: np.ndarray, depth: int):
    """The weaving operators of all m^N partitions in lexicographic order, m^depth at a time.

    Each block sums its head's choice at each of the leading N - depth
    positions, then appends the trailing positions one level at a time, so
    every Gram, 1 x 1 ones included, is summed left to right over the
    positions: for D > 1, the order in which ndarray.sum(axis=0) sums an
    (N, D, D) stack.
    """
    m, count = contribs.shape[:2]
    lead = count - depth
    trailing = [contribs[:, k] for k in range(lead, count)]
    for head in itertools.product(range(m), repeat=lead):
        chosen = [contribs[family, k][None] for k, family in enumerate(head)]
        yield functools.reduce(_append, chosen + trailing)


def universal_bounds(
    families: Sequence[FrameSystem],
    tol: float = DEFAULT_TOL,
    max_partitions: int = DEFAULT_PARTITION_CAP,
) -> WeavingReport:
    """Exhaust all partitions and report the universal frame constants.

    universal_lower is the minimum over partitions of the smallest
    weaving eigenvalue (its argmin, lexicographically smallest on ties,
    is the worst partition); universal_upper the maximum of the largest;
    the families are woven iff universal_lower > tol * universal_upper.
    The weaving operators are built in lexicographic blocks of at most
    LEAF_BLOCK_BYTES, each spectrum by its own hermitian_eigen call, so
    repeated calls give the same report.  They are built from the families
    divided by the power of two s that puts their largest real or imaginary
    part in [1, 2) (linalg._binade): the division is exact, every entry of
    a weaving operator is then below 8 N d, and a diagonal entry that
    underflows to 0 is below 2^-1055 times the upper bound, so the verdict,
    decided before the constants are multiplied back by s twice, is the
    exact one and does not change when a pair is rescaled.  An upper bound
    past the double range after that raises OverflowError.
    """
    _, count = _check_families(families)
    m = len(families)
    total = m**count
    if total > max_partitions:
        raise TooManyPartitionsError(
            f"{m}^{count} = {total} partitions exceed the cap {max_partitions}"
        )
    rows = _row_blocks(families)
    scale = _binade(float(np.abs(rows.view(np.float64)).max()))
    rows /= scale
    # rep(f)* rep(f) for every vector of every family; a weaving operator
    # sums one of them per position.
    contribs = rows.conj().swapaxes(-1, -2) @ rows
    low, worst, high = np.inf, None, -np.inf
    start = 0
    for block in _leaf_blocks(contribs, _leaf_depth(m, count, contribs[0, 0].nbytes)):
        spectra = np.array([hermitian_eigen(gram).eigenvalues for gram in block])
        # argmin keeps the first of equal minima: blocks and their Grams come
        # in lexicographic order, so this is the lexicographically smallest argmin.
        first = int(np.argmin(spectra[:, 0]))
        if spectra[first, 0] < low:
            low, worst = float(spectra[first, 0]), start + first
        high = max(high, float(spectra[:, -1].max()))
        start += len(block)
    upper = high * scale * scale
    if math.isinf(upper):
        raise OverflowError("the universal upper bound is past the double range")

    return WeavingReport(
        universal_lower=low * scale * scale,
        universal_upper=upper,
        is_woven=exceeds(low, tol, high),
        partitions_checked=total,
        worst_partition=_partition_at(worst, m, count),
    )


@dataclass(frozen=True, eq=False)
class AdversarialScenario:
    """Interleaved pair of compact-tight frames with its degenerate partition.

    Each family is a frame on its own, with operator I + K certified by
    cert_a or cert_b, but the partition mixing the two decaying tails has
    weaving operator exactly K_a + K_b.
    """

    frame_a: FrameSystem
    frame_b: FrameSystem
    sigma: tuple[int, ...]
    adversarial: Partition
    cert_a: CompactTightCert
    cert_b: CompactTightCert


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

    sigma = tuple(range(1, count, 2))
    assignment = tuple(2 if k % 2 == 1 else 1 for k in range(1, count + 1))
    return AdversarialScenario(
        frame_a=_basis_frame(shape, directions, scales_a),
        frame_b=_basis_frame(shape, directions, scales_b),
        sigma=sigma,
        adversarial=Partition(assignment),
        cert_a=CompactTightCert(shape, 1.0, profile_a.values(count)[1::2]),
        cert_b=CompactTightCert(shape, 1.0, profile_b.values(count)[::2]),
    )
