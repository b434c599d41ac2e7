"""Exhaustive weaving analysis and the adversarial interleaved pair.

Weaving asks whether every way of mixing several same-length families
(vector j taken from exactly one family) stays a frame with common
bounds.  At desk scale the quantifier over partitions is answered by
literal exhaustion: all m^N assignments, capped, in lexicographic order,
keeping the first strict minimum of the smallest eigenvalue and the
maximum of the largest.  The weaving operators come in blocks of at most
LEAF_BLOCK_BYTES, each summed in the order ndarray.sum sums one gathered
stack, so to the bit: running prefix sums over the leading positions,
with the trailing ones appended a level at a time (1 x 1 operators, which
numpy sums pairwise, are gathered and summed alike).  Each spectrum is one
hermitian_eigen call.

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
from .constructors import CompactTightCert, ScalarProfile, _basis_frame
from .frames import FrameSystem
from .linalg import DEFAULT_TOL, exceeds, hermitian_eigen
from .module_space import ModuleOperator, ModuleShape

#: Hard default cap on exhaustive enumeration (2^20 assignments).
DEFAULT_PARTITION_CAP = 1 << 20

#: universal_bounds builds the weaving operators in blocks of at most this
#: many bytes (256 KiB) of operators, or one operator where a single one is
#: larger; 1 x 1 operators count the (N, 1, 1) stack gathered for each, and
#: their (m^L, N) index arrays come on top.  Larger blocks were no faster on
#: the benchmark's 6 x 6 and 7 x 7 operators and raised the peak memory of a
#: weave.
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


def _append(block: np.ndarray | None, options: np.ndarray) -> np.ndarray:
    """Each Gram of `block` plus each of `options`, lexicographically; None is one zero Gram."""
    if block is None:
        return options
    return (block[:, None] + options[None]).reshape(-1, *options.shape[1:])


def _leaf_blocks(contribs: np.ndarray, depth: int):
    """The weaving operators of all m^N partitions in lexicographic order, m^depth at a time.

    The leading N - depth positions are walked with running prefix sums, and
    each block appends the trailing positions one level at a time, so every
    Gram is summed left to right, as ndarray.sum(axis=0) sums an (N, D, D)
    stack with D > 1.
    """
    m, count = contribs.shape[:2]
    lead = count - depth
    prefix = [None] * (lead + 1)  # prefix[k]: the (1, D, D) sum over the first k positions
    for head in itertools.product(range(m), repeat=lead):
        # From the head before, the positions from the last nonzero family on changed.
        changed = max((k for k, family in enumerate(head) if family), default=0)
        for k in range(changed, lead):
            prefix[k + 1] = _append(prefix[k], contribs[head[k], k][None])
        block = prefix[lead]
        for k in range(lead, count):
            block = _append(block, contribs[:, k])
        yield block


def _gathered_blocks(contribs: np.ndarray, depth: int):
    """The same operators as _leaf_blocks for D = 1, summed as ndarray.sum sums them.

    numpy sums a contiguous axis pairwise, not left to right, and an (N, 1, 1)
    stack is one; so each block gathers its m^depth stacks and sums them alike.
    This would give the same bits for D > 1 too, but gathers N contributions
    per operator where _leaf_blocks adds about two, which made a weave of two
    N = 14 families of 7 x 7 operators about 8% slower.
    """
    m, count = contribs.shape[:2]
    places, positions = m ** np.arange(count - 1, -1, -1), np.arange(count)
    leaves = m**depth
    for start in range(0, m**count, leaves):
        assignments = np.arange(start, start + leaves)[:, None] // places % m
        yield contribs[assignments, positions].sum(axis=1)


def _underflow(rows: np.ndarray, contribs: np.ndarray) -> str | None:
    """Why some weaving operator is 0 on its diagonal where its vectors are not, or None.

    A diagonal entry of a weaving operator sums one entry >= 0 per position,
    so it is 0 at column k exactly when every position's chosen contribution
    is.  Some partition reads 0 on a nonzero column k of its vectors exactly
    when every position has a family whose contribution is 0 at (k, k), and
    some position has one whose vector is nonzero in column k besides.  The
    partition named takes that family at the first such position, and the
    first family with a 0 at every other.
    """
    zero = contribs.diagonal(axis1=-2, axis2=-1).real == 0  # (m, N, D)
    hidden = zero & rows.any(axis=-2)
    columns = zero.any(axis=0).all(axis=0) & hidden.any(axis=(0, 1))
    if columns.any():
        k = int(np.argmax(columns))
        assignment = np.argmax(zero[:, :, k], axis=0)
        position = int(np.argmax(hidden[:, :, k].any(axis=0)))
        assignment[position] = np.argmax(hidden[:, position, k])
        return (f"the weaving operator of partition {(assignment + 1).tolist()} underflows a "
                f"double: diagonal entry {k + 1} is 0 on a nonzero column of its vectors")
    return None


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
    The weaving operators are built in lexicographic blocks of at most
    LEAF_BLOCK_BYTES, each spectrum by its own hermitian_eigen call, on the
    calling thread; `workers` is accepted and ignored, so the report is the
    same for any value.  Each block is checked finite before its
    eigensolves: a weaving operator past the double range raises
    OverflowError naming the lexicographically first such partition, though
    every family's own frame operator may be finite.  Failing that, a
    weaving operator whose diagonal underflows to 0 on a nonzero column of
    its vectors raises OverflowError too (see _underflow, decided once before
    the blocks), so that rescaling a pair never turns its verdict to "not
    woven"; before the blocks are built, unless one of them could overflow.
    """
    _, count = _check_families(families)
    m = len(families)
    total = m**count
    if total > max_partitions:
        raise TooManyPartitionsError(
            f"{m}^{count} = {total} partitions exceed the cap {max_partitions}"
        )
    rows = _row_blocks(families)
    low, worst, high = np.inf, None, -np.inf
    start = 0
    # The blocks are summed lazily in this loop; one past the double range is
    # refused below, so numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        # rep(f)* rep(f) for every vector of every family; a weaving operator
        # sums one of them per position.
        contribs = rows.conj().swapaxes(-1, -2) @ rows
        underflow = _underflow(rows, contribs)
        # Every block sum is at most the sum over positions of the largest
        # contribution there, entry by entry; below 2^1023 none can overflow,
        # so the refusal needs no block.
        if underflow is not None and np.abs(contribs).max(axis=0).sum(axis=0).max() < 2.0**1023:
            raise OverflowError(underflow)
        if contribs.shape[-1] > 1:
            blocks = _leaf_blocks(contribs, _leaf_depth(m, count, contribs[0, 0].nbytes))
        else:
            blocks = _gathered_blocks(contribs, _leaf_depth(m, count, contribs[0].nbytes))
        for block in blocks:
            if not np.isfinite(block).all():
                place = start + int(np.argmin(np.isfinite(block).all(axis=(1, 2))))
                raise OverflowError(
                    f"the weaving operator of partition "
                    f"{list(_partition_at(place, m, count).assignment)} overflows a double"
                )
            spectra = np.array([hermitian_eigen(gram).eigenvalues for gram in block])
            # argmin keeps the first of equal minima: blocks and their Grams come
            # in lexicographic order, so this is the lexicographically smallest argmin.
            first = int(np.argmin(spectra[:, 0]))
            if spectra[first, 0] < low:
                low, worst = float(spectra[first, 0]), start + first
            high = max(high, float(spectra[:, -1].max()))
            start += len(block)
    if underflow is not None:
        raise OverflowError(underflow)

    return WeavingReport(
        universal_lower=low,
        universal_upper=high,
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
