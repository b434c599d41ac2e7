"""Partition exhaustion, universal bounds, and the adversarial pair."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstar_frames.constructors import ScalarProfile
from cstar_frames.errors import LengthMismatchError, ShapeMismatchError, TooManyPartitionsError
from cstar_frames.frames import FrameSystem, optimal_bounds
from cstar_frames.linalg import hermitian_eigen
from cstar_frames.module_space import ModuleShape, standard_basis
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


def test_universal_bounds_worker_determinism():
    F = onb_system(3)
    G = onb_system(3, scale=math.sqrt(2.0))
    reports = [universal_bounds([F, G], workers=w) for w in (1, 2, 8)]
    for report in reports[1:]:
        assert report.universal_lower == reports[0].universal_lower
        assert report.universal_upper == reports[0].universal_upper
        assert report.worst_partition.assignment == reports[0].worst_partition.assignment


def test_universal_bounds_worker_determinism_asymmetric():
    scenario = adversarial_scenario(8, GAUSS0, ScalarProfile("geometric", xi=0.0, c=1.0, r=0.5))
    families = [scenario.frame_a, scenario.frame_b]
    reports = [universal_bounds(families, workers=w) for w in (1, 3, 8)]
    for report in reports[1:]:
        assert report.universal_lower == reports[0].universal_lower
        assert report.universal_upper == reports[0].universal_upper
        assert report.worst_partition.assignment == reports[0].worst_partition.assignment


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
        target = scenario.compact_a.mat + scenario.compact_b.mat
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
    np.testing.assert_allclose(sa, np.eye(3) + scenario.compact_a.mat, atol=1e-12)
    np.testing.assert_allclose(sb, np.eye(3) + scenario.compact_b.mat, atol=1e-12)


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
    target = scenario.compact_a.mat + scenario.compact_b.mat
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
