"""Partition exhaustion, universal bounds, and the adversarial pair."""

import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cstar_frames.constructors import ScalarProfile, eigenprofile_operator
from cstar_frames.errors import LengthMismatchError, ShapeMismatchError, TooManyPartitionsError
from cstar_frames.frame_io import save_frame
from cstar_frames.frames import FrameSystem, optimal_bounds
from cstar_frames.linalg import ROUNDING_RTOL, _fold, exceeds, hermitian_eigen
from cstar_frames.module_space import ModuleShape, standard_basis
from cstar_frames import weaving
from cstar_frames.cli import main
from cstar_frames.constructors import _basis_frame
from cstar_frames.weaving import (
    Partition,
    adversarial_scenario,
    universal_bounds,
    weaving_operator,
)


def onb_system(n, scale=1.0, d=1):
    basis = standard_basis(ModuleShape(d, n))
    return FrameSystem([scale * e for e in basis])


GAUSS0 = ScalarProfile("gaussian", xi=0.0, c=1.0)


# ------------------------------------------------------------ mixing operator

def test_weaving_same_family_identity():
    fam = onb_system(3)
    part = Partition((1, 2, 1))
    np.testing.assert_allclose(
        weaving_operator([fam, fam], part).mat, np.eye(3), atol=1e-14
    )


def test_weaving_all_to_scaled_family():
    F = onb_system(3)
    G = onb_system(3, scale=math.sqrt(2.0))
    part = Partition((2, 2, 2))
    np.testing.assert_allclose(
        weaving_operator([F, G], part).mat, 2.0 * np.eye(3), atol=1e-12
    )


def test_weaving_blockwise_assembly():
    F = onb_system(3)
    G = onb_system(3, scale=math.sqrt(2.0))
    part = Partition((2, 1, 1))
    np.testing.assert_allclose(
        weaving_operator([F, G], part).mat, np.diag([2.0, 1.0, 1.0]), atol=1e-12
    )


def test_weaving_validates_lengths():
    F = onb_system(3)
    basis = standard_basis(ModuleShape(1, 3))
    longer = FrameSystem(list(basis) + [basis[0]])
    with pytest.raises(LengthMismatchError):
        weaving_operator([F, F], Partition((1, 2)))
    with pytest.raises(LengthMismatchError):
        weaving_operator([F, longer], Partition((1, 2, 1)))
    with pytest.raises(ShapeMismatchError):
        weaving_operator([F, onb_system(3, d=2)], Partition((1, 2, 1)))


def test_weaving_rejects_out_of_range_family():
    F = onb_system(2)
    with pytest.raises(ValueError):
        weaving_operator([F, F], Partition((1, 3)))


def test_universal_bounds_need_a_family():
    with pytest.raises(ValueError, match="^at least one family is required$"):
        universal_bounds([])


# ----------------------------------------------------------- universal bounds

def test_universal_bounds_identical_onbs():
    fam = onb_system(3)
    report = universal_bounds([fam, fam])
    assert report.universal_lower == pytest.approx(1.0, abs=1e-12)
    assert report.universal_upper == pytest.approx(1.0, abs=1e-12)
    assert report.is_woven
    assert report.partitions_checked == 8
    assert report.worst_partition.assignment == (1, 1, 1)


def test_universal_bounds_scaled_pair():
    report = universal_bounds([onb_system(3), onb_system(3, scale=math.sqrt(2.0))])
    assert report.universal_lower == pytest.approx(1.0, abs=1e-10)
    assert report.universal_upper == pytest.approx(2.0, abs=1e-10)
    assert report.is_woven
    assert report.partitions_checked == 8


def test_universal_bounds_cover_every_partition():
    F = onb_system(3)
    G = onb_system(3, scale=math.sqrt(2.0))
    report = universal_bounds([F, G])
    for assignment in itertools.product((1, 2), repeat=3):
        w = hermitian_eigen(weaving_operator([F, G], Partition(assignment)).mat).eigenvalues
        assert report.universal_lower <= w[0] + 1e-12
        assert w[-1] <= report.universal_upper + 1e-12


def test_universal_bounds_find_adversarial_partition():
    scenario = adversarial_scenario(6, GAUSS0, GAUSS0)
    report = universal_bounds([scenario.frame_a, scenario.frame_b])
    mixed = weaving_operator(
        [scenario.frame_a, scenario.frame_b], scenario.adversarial
    )
    degenerate = hermitian_eigen(mixed.mat).eigenvalues[0]
    assert report.universal_lower <= degenerate + 1e-12
    assert report.partitions_checked == 64


def test_universal_bounds_permutation_stable(rng):
    scenario = adversarial_scenario(6, GAUSS0, GAUSS0)
    families = [scenario.frame_a, scenario.frame_b]
    base = universal_bounds(families)
    order = rng.permutation(6)
    relabeled = [
        FrameSystem([fam.vectors[i] for i in order]) for fam in families
    ]
    shuffled = universal_bounds(relabeled)
    assert abs(shuffled.universal_lower - base.universal_lower) <= 1e-12
    assert abs(shuffled.universal_upper - base.universal_upper) <= 1e-12


# m families of N scaled basis vectors w * e_i with small integer weights:
# every weaving operator is diagonal with integer entries, so the arithmetic
# is exact and equal minima (ties) are frequent.
@st.composite
def scaled_basis_families(draw):
    m = draw(st.sampled_from([2, 3]))
    count = draw(st.integers(1, 6))
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3))
    vectors = st.tuples(st.integers(0, n - 1), st.integers(0, 3))
    return d, n, draw(st.lists(st.lists(vectors, min_size=count, max_size=count),
                               min_size=m, max_size=m))


def brute_force_bounds(n, families):
    """First lexicographic argmin of the smallest Gram diagonal, max of the largest."""
    low, worst, high = None, None, None
    for assignment in itertools.product(range(len(families)), repeat=len(families[0])):
        diagonal = [0] * n
        for position, family in enumerate(assignment):
            direction, weight = families[family][position]
            diagonal[direction] += weight**2
        diagonal.sort()
        if low is None or diagonal[0] < low:
            low, worst = diagonal[0], assignment
        high = diagonal[-1] if high is None else max(high, diagonal[-1])
    return low, tuple(a + 1 for a in worst), high


@settings(deadline=None)
@given(scaled_basis_families())
def test_universal_bounds_match_brute_force(case):
    d, n, families = case
    basis = standard_basis(ModuleShape(d, n))
    systems = [FrameSystem([weight * basis[direction] for direction, weight in family])
               for family in families]
    report = universal_bounds(systems)
    low, worst, high = brute_force_bounds(n, families)
    assert report.universal_lower == low
    assert report.universal_upper == high
    assert report.worst_partition.assignment == worst
    assert report.is_woven == (low > 0)
    assert report.partitions_checked == len(families) ** len(families[0])


@st.composite
def dense_families(draw):
    """Two or three random complex families of 1-5 vectors in A^n (d, n <= 2)."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 2))
    count = draw(st.integers(1, 5))
    m = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (count * d, n * d)
    return [FrameSystem(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                        shape=ModuleShape(d, n)) for _ in range(m)]


@settings(deadline=None, max_examples=60)
@given(dense_families())
def test_universal_bounds_enclose_each_family(families):
    # Taking every vector from one family is one of the partitions.
    report = universal_bounds(families)
    rounding = 1e-12 * report.universal_upper
    for family in families:
        bounds = optimal_bounds(family)
        assert report.universal_lower <= bounds.lower + rounding
        assert report.universal_upper >= bounds.upper - rounding


def reference_bounds(families):
    """One partition at a time: itertools.product, a left-to-right sum, and one eigensolve each.

    The eigensolve is the values-only one universal_bounds makes.  For D > 1
    the sum is also checked to be, bit for bit, the one ndarray.sum gives on
    the gathered stack.  The worst partition is the first whose smallest
    eigenvalue is within ROUNDING_RTOL times the upper bound of the least.
    """
    shape, count, m = families[0].shape, len(families[0]), len(families)
    rows = np.stack([fam.synthesis for fam in families]).reshape(m, count, shape.d, shape.dim)
    contribs = _fold(rows.conj().swapaxes(-1, -2) @ rows)
    positions = np.arange(count)
    minima, high = {}, -np.inf
    for assignment in itertools.product(range(m), repeat=count):
        stack = contribs[assignment, positions]
        gram = functools.reduce(np.add, stack)
        if shape.dim > 1:
            assert gram.tobytes() == stack.sum(axis=0).tobytes()
        eigenvalues = hermitian_eigen(gram, vectors=False).eigenvalues
        minima[assignment] = float(eigenvalues[0])
        high = max(high, float(eigenvalues[-1]))
    low = min(minima.values())
    worst = next(assignment for assignment, value in minima.items()
                 if not exceeds(value - low, ROUNDING_RTOL, high))
    return low, high, tuple(a + 1 for a in worst)


@st.composite
def weaving_families(draw):
    """Two or three dense or scaled-basis families of 1-8 vectors in A^n (d, n <= 2).

    Dense vectors get magnitudes over six decades, so the order of the sums
    shows in the last bits; scaled-basis weights come from three values, so
    equal minima are frequent.
    """
    m = draw(st.sampled_from([2, 3]))
    count = draw(st.integers(1, 8))
    d, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    shape = ModuleShape(d, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rows = (count * d, n * d)
        scales = np.repeat(10.0 ** rng.uniform(-3, 3, count), d)[:, None]
        return [FrameSystem(scales * (rng.standard_normal(rows) + 1j * rng.standard_normal(rows)),
                            shape=shape) for _ in range(m)]
    return [_basis_frame(shape, rng.integers(0, n, count), rng.choice([0.5, 1.0, 3.0**0.5], count))
            for _ in range(m)]


def certified_sandwich(families):
    """Bounds on every weave of `families` from the frames alone, by np.linalg.svd.

    For a partition s, X_s - X_f takes its rows from the X_g - X_f, g != f, on
    disjoint row sets, so ||X_s - X_f|| <= delta_f = sqrt(sum_(g != f) ||X_g - X_f||^2).
    Weyl's inequality for singular values, and S_s <= sum_f S_f, then give
    lower >= max_f (sigma_min(X_f) - delta_f)_+^2 and
    upper <= min(lambda_max(sum_f S_f), min_f (sigma_max(X_f) + delta_f)^2).
    sigma_min is the smallest of the n d singular values, 0 where X_f is wide.
    """
    synth = [family.synthesis for family in families]

    def norm(x):
        return float(np.linalg.svd(x, compute_uv=False)[0])

    lower, upper = 0.0, norm(np.vstack(synth)) ** 2  # lambda_max(sum_f X_f* X_f)
    for f, x in enumerate(synth):
        delta = math.sqrt(sum(norm(y - x) ** 2 for g, y in enumerate(synth) if g != f))
        sigmas = np.linalg.svd(x, compute_uv=False)
        bottom = float(sigmas[-1]) if x.shape[0] >= x.shape[1] else 0.0
        lower = max(lower, max(bottom - delta, 0.0) ** 2)
        upper = min(upper, (float(sigmas[0]) + delta) ** 2)
    return lower, upper


#: The sandwich's slack, in units of D eps times the universal upper bound: the
#: eigensolves and the SVDs each err by a small multiple of D eps times it.
SANDWICH_SLACK = 16


@settings(deadline=None, max_examples=100)
@given(weaving_families(), st.sampled_from([1.0, 1e-1, 1e-3]))
def test_every_weave_lies_inside_its_certified_sandwich(families, spread):
    # The enumeration against a route that shares none of its code.  Each
    # family but the first is drawn towards the first by `spread`, so that the
    # certified lower bound is not 0 in every example.
    first, shape = families[0].synthesis, families[0].shape
    families = [families[0]] + [FrameSystem(first + spread * (family.synthesis - first),
                                            shape=shape) for family in families[1:]]
    report = universal_bounds(families)
    lower, upper = certified_sandwich(families)
    slack = SANDWICH_SLACK * shape.dim * np.finfo(float).eps * report.universal_upper
    assert report.universal_lower >= lower - slack
    assert report.universal_upper <= upper + slack


def block_budgets(families):
    """LEAF_BLOCK_BYTES for one operator a block, then m, m^2, ... up to all of them in one."""
    m, count, dim = len(families), len(families[0]), families[0].shape.dim
    return [1] + [16 * dim * dim * m**depth for depth in range(count + 1)]


def _dense_pair(d, n, count, seed):
    rng = np.random.default_rng(seed)
    rows = (count * d, n * d)
    return [FrameSystem(rng.standard_normal(rows) + 1j * rng.standard_normal(rows),
                        shape=ModuleShape(d, n)) for _ in range(2)]


# A dense d = 2, n = 3 pair: a change in the last bits of any of its weaving
# operators moves a bound, so every run sees it, not only the runs that draw one.
@example(_dense_pair(2, 3, 4, 1))
@settings(deadline=None, max_examples=40)
@given(weaving_families())
def test_universal_bounds_bit_identical_to_one_partition_at_a_time(families):
    expected = reference_bounds(families)
    saved = weaving.LEAF_BLOCK_BYTES
    try:
        for budget in block_budgets(families):
            weaving.LEAF_BLOCK_BYTES = budget
            report = universal_bounds(families)
            got = (report.universal_lower, report.universal_upper,
                   report.worst_partition.assignment)
            assert got == expected, budget
    finally:
        weaving.LEAF_BLOCK_BYTES = saved


@settings(deadline=None, max_examples=40)
@given(weaving_families())
def test_universal_bounds_same_at_every_block_size(families):
    # The extremes are recorded in lexicographic order and decided once, so the
    # block size cannot move a bound, the verdict or the worst partition.
    saved = weaving.LEAF_BLOCK_BYTES
    reports = []
    try:
        for budget in block_budgets(families):
            weaving.LEAF_BLOCK_BYTES = budget
            report = universal_bounds(families)
            reports.append((report.universal_lower, report.universal_upper, report.is_woven,
                            report.worst_partition.assignment))
    finally:
        weaving.LEAF_BLOCK_BYTES = saved
    assert reports == reports[:1] * len(reports)


def _phase_twin(seed):
    """A dense family of 8 vectors in A^3 (d = 1) and the same with each vector times a unit phase."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    phases = np.exp(2j * np.pi * rng.uniform(size=(8, 1)))
    shape = ModuleShape(1, 3)
    return [FrameSystem(rows, shape=shape), FrameSystem(phases * rows, shape=shape)]


@example(_phase_twin(0))  # rounding alone made another partition the strict minimum
@settings(deadline=None, max_examples=40)
@given(st.builds(_phase_twin, st.integers(0, 2**32 - 1)))
def test_phase_twins_worst_partition_is_all_ones(families):
    # Every partition has the same weaving operator in exact arithmetic, so all
    # 256 are tied and the first of them is the worst.
    assert universal_bounds(families).worst_partition.assignment == (1,) * 8


def kernel_calls(families):
    """Each matrix universal_bounds hands hermitian_eigen, in order, with its eigenvalues."""
    calls = []

    def spy(matrix, **kwargs):
        result = hermitian_eigen(matrix, **kwargs)
        calls.append((matrix, result.eigenvalues))
        return result

    saved = weaving.hermitian_eigen
    weaving.hermitian_eigen = spy
    try:
        universal_bounds(families)
    finally:
        weaving.hermitian_eigen = saved
    return calls


@settings(deadline=None, max_examples=40)
@given(weaving_families(), st.integers(0, 2**32 - 1))
def test_worst_partition_under_a_unitary_is_tied(families, seed):
    # X -> XU changes every weaving operator to U* S U, whose spectrum is the
    # same up to rounding, so the worst partition of (XU, YU) is tied, by the
    # rule, in the enumeration of (X, Y).
    shape, m = families[0].shape, len(families)
    rng = np.random.default_rng(seed)
    unitary, _ = np.linalg.qr(rng.standard_normal((shape.dim, shape.dim))
                              + 1j * rng.standard_normal((shape.dim, shape.dim)))
    rotated = [FrameSystem(fam.synthesis @ unitary, shape=shape) for fam in families]
    worst = universal_bounds(rotated).worst_partition.assignment
    place = functools.reduce(lambda place, family: place * m + family - 1, worst, 0)
    spectra = [eigenvalues for _, eigenvalues in kernel_calls(families)]
    minima = [eigenvalues[0] for eigenvalues in spectra]
    high = max(eigenvalues[-1] for eigenvalues in spectra)
    assert not exceeds(minima[place] - min(minima), ROUNDING_RTOL, high)


@example(_dense_pair(2, 3, 4, 1))  # numpy's rows* rows of this pair is not Hermitian bit for bit
@settings(deadline=None, max_examples=40)
@given(weaving_families())
def test_weaving_operators_reach_the_kernel_hermitian_bit_for_bit(families):
    # The contributions are folded once, so hermitian_eigen finds each of the
    # m^N operators equal to its adjoint and has nothing left to fold.
    handed = [matrix for matrix, _ in kernel_calls(families)]
    assert len(handed) == len(families) ** len(families[0])
    for gram in handed:
        adjoint = gram.conj().T
        # conj flips the sign of a zero imaginary part, so zeros are compared by value.
        nonzero = gram.imag != 0
        assert gram.real.tobytes() == adjoint.real.tobytes()
        assert gram.imag[nonzero].tobytes() == adjoint.imag[nonzero].tobytes()
        assert not adjoint.imag[~nonzero].any()


@pytest.mark.parametrize("seed", range(12))
def test_scalar_weaving_sums_left_to_right(seed):
    # Scalar families show the order of the sums in the last bits: each 1 x 1
    # weaving operator is summed left to right over the positions, as for
    # D > 1, not pairwise as numpy sums a contiguous (N, 1, 1) stack.
    rng = np.random.default_rng(seed)
    m, count = (2, 8) if seed % 2 else (3, 6)
    scales = 10.0 ** rng.uniform(-3, 3, (count, 1))
    families = [FrameSystem(scales * (rng.standard_normal((count, 1))
                                      + 1j * rng.standard_normal((count, 1))),
                            shape=ModuleShape(1, 1)) for _ in range(m)]
    expected = reference_bounds(families)
    saved = weaving.LEAF_BLOCK_BYTES
    try:
        for budget in (1, saved):
            weaving.LEAF_BLOCK_BYTES = budget
            report = universal_bounds(families)
            assert (report.universal_lower, report.universal_upper,
                    report.worst_partition.assignment) == expected
    finally:
        weaving.LEAF_BLOCK_BYTES = saved


@pytest.mark.parametrize("d", [1, 2])
def test_one_family_of_many_vectors(d):
    # One family has one partition however long it is: 70 positions, more
    # than an ndarray has dimensions.
    rng = np.random.default_rng(d)
    family = FrameSystem(rng.standard_normal((70 * d, 2 * d)), shape=ModuleShape(d, 2))
    report = universal_bounds([family])
    assert (report.universal_lower, report.universal_upper,
            report.worst_partition.assignment) == reference_bounds([family])
    assert report.partitions_checked == 1


def test_universal_bounds_cap():
    fam = onb_system(3)
    with pytest.raises(TooManyPartitionsError):
        universal_bounds([fam, fam], max_partitions=7)


# ------------------------------------------------------- adversarial scenario

def test_scenario_operator_identity():
    for size in (4, 8, 12):
        scenario = adversarial_scenario(size, GAUSS0, GAUSS0)
        mixed = weaving_operator(
            [scenario.frame_a, scenario.frame_b], scenario.adversarial
        )
        target = eigenprofile_operator(scenario.cert_a.alphas + scenario.cert_b.alphas,
                                       scenario.cert_a.shape).mat
        assert np.linalg.norm(mixed.mat - target) <= 1e-12


def test_scenario_families_are_frames():
    for size in (4, 8, 12):
        scenario = adversarial_scenario(size, GAUSS0, GAUSS0)
        assert optimal_bounds(scenario.frame_a).lower >= 1.0 - 1e-9
        assert optimal_bounds(scenario.frame_b).lower >= 1.0 - 1e-9


def test_scenario_each_family_is_shifted_identity():
    scenario = adversarial_scenario(6, GAUSS0, GAUSS0)
    sa = scenario.frame_a.frame_op.mat
    sb = scenario.frame_b.frame_op.mat
    np.testing.assert_allclose(sa, scenario.cert_a.operator_matrix(), atol=1e-12)
    np.testing.assert_allclose(sb, scenario.cert_b.operator_matrix(), atol=1e-12)


def test_scenario_decay_with_envelope():
    minima = []
    for size in (4, 8, 12):
        scenario = adversarial_scenario(size, GAUSS0, GAUSS0)
        mixed = weaving_operator(
            [scenario.frame_a, scenario.frame_b], scenario.adversarial
        )
        smallest = hermitian_eigen(mixed.mat).eigenvalues[0]
        envelope = 2.0 * (GAUSS0.eval(size - 1) + GAUSS0.eval(size - 1))
        assert smallest <= envelope
        minima.append(smallest)
    assert minima[0] > minima[1] > minima[2] > 0


def test_scenario_sigma_and_partition_layout():
    scenario = adversarial_scenario(8, GAUSS0, GAUSS0)
    assert scenario.sigma == (1, 3, 5, 7)
    assert scenario.adversarial.assignment == (2, 1, 2, 1, 2, 1, 2, 1)
    assert scenario.frame_a.shape == ModuleShape(1, 4)


def test_scenario_matrix_algebra_case():
    scenario = adversarial_scenario(6, GAUSS0, GAUSS0, d=2)
    assert scenario.frame_a.shape == ModuleShape(2, 3)
    mixed = weaving_operator(
        [scenario.frame_a, scenario.frame_b], scenario.adversarial
    )
    target = eigenprofile_operator(scenario.cert_a.alphas + scenario.cert_b.alphas,
                                   scenario.cert_a.shape).mat
    assert np.linalg.norm(mixed.mat - target) <= 1e-12


def test_scenario_validation():
    with pytest.raises(ValueError):
        adversarial_scenario(5, GAUSS0, GAUSS0)
    with pytest.raises(ValueError):
        adversarial_scenario(4, ScalarProfile("gaussian", xi=0.5, c=1.0), GAUSS0)
    with pytest.raises(ValueError):
        adversarial_scenario(4, ScalarProfile("constant", xi=0.0), GAUSS0)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((0, 1))


# -------------------------------------------------- past the double range

def first_overflowing(families):
    """The lexicographically first partition whose weaving_operator overflows, or None."""
    for assignment in itertools.product(range(1, len(families) + 1), repeat=len(families[0])):
        try:
            weaving_operator(families, Partition(assignment))
        except OverflowError:
            return assignment
    return None


def overflowing_families(seed):
    """Two or three scaled-basis families, each a finite frame, with some partition past range.

    A weight 1e154 contributes 1e308, so a direction overflows exactly when a
    partition takes two of them there, and no sum is near the edge.
    """
    rng = np.random.default_rng(seed)
    m, count = (2, 6) if seed % 2 else (3, 4)
    d, n = [(1, 1), (1, 2), (2, 1), (2, 2)][seed % 4]
    shape = ModuleShape(d, n)
    while True:
        try:
            families = [_basis_frame(shape, rng.integers(0, n, count),
                                     rng.choice([0.5, 1.0, 1e154], count)) for _ in range(m)]
        except OverflowError:  # one family alone is past the double range
            continue
        if first_overflowing(families) is not None:
            return families


OVERFLOW_MESSAGE = "the universal upper bound is past the double range"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(8))
def test_universal_bounds_names_first_overflowing_partition(seed):
    # Some weaving operator is past the double range though every family's own
    # frame operator is finite: at every block size, the upper bound is refused.
    families = overflowing_families(seed)
    saved = weaving.LEAF_BLOCK_BYTES
    try:
        for budget in block_budgets(families):
            weaving.LEAF_BLOCK_BYTES = budget
            with pytest.raises(OverflowError) as raised:
                universal_bounds(families)
            assert str(raised.value) == OVERFLOW_MESSAGE, budget
    finally:
        weaving.LEAF_BLOCK_BYTES = saved


@pytest.mark.filterwarnings("error")
def test_weaving_operator_past_double_range():
    shape = ModuleShape(1, 1)
    a = FrameSystem(np.array([[1.2e154 + 0j], [1e-300]]), shape=shape)
    b = FrameSystem(np.array([[1e-300 + 0j], [1.2e154]]), shape=shape)
    assert np.isfinite(weaving_operator([a, b], Partition((1, 1))).mat).all()
    with pytest.raises(OverflowError):
        weaving_operator([a, b], Partition((1, 2)))


@pytest.mark.filterwarnings("error")
def test_weave_names_partition_with_eigenvalue_past_double_range(capsys, tmp_path, monkeypatch):
    # Every weaving operator is finite, but those taking (1e154, 1e154) from
    # family 2 at position 1 have the eigenvalue 2e308: weave exits 4 with one
    # line at every block size.
    paths = []
    for role, first in (("a", 1.0), ("b", 1e154)):
        vectors = [[[[[x, 0.0]]], [[[x, 0.0]]]] for x in (first, 1.0)]
        paths.append(tmp_path / f"{role}.json")
        paths[-1].write_text(json.dumps({"schema": "cstar-frames/1", "algebra": {"d": 1},
                                         "module": {"n": 2}, "vectors": vectors}))
    for budget in (64, 128, 256):  # one 2 x 2 operator (64 bytes) a block, two, or all four
        monkeypatch.setattr(weaving, "LEAF_BLOCK_BYTES", budget)
        code = main(["weave", *map(str, paths)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == f"error: {OVERFLOW_MESSAGE}\n"


def underflow_after_enumeration():
    """Partition [1, 2] takes (7e153, 1e-170) and (7e153, 0): its second diagonal entry
    (1e-170)^2 reads 0, and its first is 9.8e307, so its smallest eigenvalue, about
    5e-341, is far below 1e-9 times the upper bound: the pair is not woven."""
    shape = ModuleShape(1, 2)
    return [FrameSystem(np.array(rows, dtype=complex), shape=shape)
            for rows in ([[7e153, 1e-170], [0.0, 1.0]], [[0.0, 1.0], [7e153, 0.0]])]


@pytest.mark.filterwarnings("error")
def test_weave_reads_an_underflowing_partition_as_not_woven(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, family in zip(paths, underflow_after_enumeration()):
        save_frame(path, family)
    code = main(["weave", *map(str, paths), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    report = json.loads(captured.out)
    del report["timing"]
    # Partition [1, 1]'s smallest eigenvalue, 1, is 1e-308 times the upper bound:
    # tied with the minimum 0, within ROUNDING_RTOL, and first, so it is the worst.
    assert report == {"isWoven": False, "partitionsChecked": 4, "universalLower": 0.0,
                      "universalUpper": 9.8e307, "worstPartition": [1, 1]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("first, second, upper", [(0.0, 0.0, 0.0), (0.0, 1.0, 2.0),
                                                  (1.0, 0.0, 2.0)])
def test_all_zero_families_weave_to_zero(first, second, upper):
    # The largest part is 0, so the pair is divided by _binade's floor, 2^-1022.
    shape = ModuleShape(1, 1)
    families = [FrameSystem(np.full((2, 1), x + 0j), shape=shape) for x in (first, second)]
    report = universal_bounds(families)
    assert (report.universal_lower, report.universal_upper, report.is_woven) == (0.0, upper, False)


@st.composite
def woven_scalar_pairs(draw):
    """Two d = n = 1 families of 1-4 real vectors of magnitude 1 to 256: every partition weaves."""
    count = draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(1.0, 256.0), min_size=2 * count, max_size=2 * count))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=2 * count, max_size=2 * count))
    return np.array(values).reshape(2, count, 1) * np.array(signs).reshape(2, count, 1)


# A vector of magnitude x * 2^k contributes x^2 * 2^(2k), which reads 0 for some
# x in [1, 256] and not for others when k is about -546 to -530.
@example(np.array([[[1.0], [1.0], [91.0], [1.0]]] * 2), -544)  # every operator is 5e-324
@settings(deadline=None, max_examples=300)
@given(woven_scalar_pairs(), st.one_of(st.integers(-546, -530), st.integers(-600, 600)))
def test_rescaled_woven_pair_weaves_or_is_refused(pair, k):
    # Whenever the pair scaled by 2^k is a pair of frames, its constants are 4^k
    # times the unscaled ones, rounded once, or the upper one is refused past the range.
    shape = ModuleShape(1, 1)
    base = universal_bounds([FrameSystem(f + 0j, shape=shape) for f in pair])
    assert base.is_woven
    try:
        families = [FrameSystem(np.ldexp(f, k) + 0j, shape=shape) for f in pair]
    except OverflowError:  # X* X of a family is past the double range or underflows
        return
    with np.errstate(over="ignore"):
        lower, upper = np.ldexp([base.universal_lower, base.universal_upper], 2 * k)
    if np.isinf(upper):
        with pytest.raises(OverflowError, match=f"^{OVERFLOW_MESSAGE}$"):
            universal_bounds(families)
        return
    report = universal_bounds(families)
    assert (report.universal_lower, report.universal_upper) == (lower, upper)
    assert report.worst_partition == base.worst_partition and report.is_woven
