"""Frame systems: operators, bounds, perturbation distance, duals."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cstar_frames.errors import LengthMismatchError, NotAFrameError, ShapeMismatchError
from cstar_frames.frames import (
    FrameSystem,
    analysis,
    dual_frame,
    frame_from_operator,
    frame_operator,
    optimal_bounds,
    perturbation_distance,
    synthesis,
    synthesis_matrix,
)
from cstar_frames.linalg import (
    DEFAULT_TOL,
    hermitian_eigen,
    operator_norm,
    psd_check,
    relative_drift,
)
from cstar_frames.module_space import (
    ModuleShape,
    ModuleVector,
    apply_operator,
    inner_product,
    left_mul,
    random_vector,
    standard_basis,
    zero_vector,
)

from conftest import random_complex, random_psd


def scalar_system(*rows):
    shape = ModuleShape(1, len(rows[0]))
    return FrameSystem([ModuleVector(shape, [list(row)]) for row in rows])


def random_system(rng, shape, count):
    return FrameSystem([random_vector(shape, rng) for _ in range(count)])


# ------------------------------------------------------------ frame operator

def test_frame_operator_onb_is_identity():
    shape = ModuleShape(2, 3)
    system = FrameSystem(standard_basis(shape))
    np.testing.assert_allclose(frame_operator(system).mat, np.eye(6), atol=1e-14)


def test_frame_operator_duplicate_direction():
    system = scalar_system([1.0, 0.0], [1.0, 0.0], [0.0, 1.0])
    np.testing.assert_allclose(frame_operator(system).mat, np.diag([2.0, 1.0]))


def test_frame_operator_single_repetition_formula():
    # One extra copy of e_1 adds the rank-one term <., e_1> e_1 once.
    shape = ModuleShape(1, 3)
    basis = standard_basis(shape)
    system = FrameSystem(list(basis) + [basis[0]])
    expected = np.eye(3) + np.diag([1.0, 0.0, 0.0])
    np.testing.assert_allclose(frame_operator(system).mat, expected)


def test_frame_operator_matches_reconstruction_sum(rng):
    shape = ModuleShape(2, 2)
    system = random_system(rng, shape, 5)
    S = frame_operator(system)
    for _ in range(5):
        f = random_vector(shape, rng)
        total = zero_vector(shape)
        for vec in system:
            total = total + left_mul(inner_product(f, vec), vec)
        np.testing.assert_allclose(apply_operator(S, f).rep, total.rep, atol=1e-10)


def test_frame_operator_hermitian_psd(rng):
    system = random_system(rng, ModuleShape(2, 3), 4)
    mat = frame_operator(system).mat
    assert relative_drift(mat, mat.conj().T) <= 1e-12
    assert psd_check(mat, 1e-9)


def test_empty_system_rejected():
    with pytest.raises(ValueError):
        FrameSystem([])


def test_mixed_shapes_rejected():
    f = ModuleVector(ModuleShape(1, 2), [[1.0, 0.0]])
    g = ModuleVector(ModuleShape(1, 3), [[1.0, 0.0, 0.0]])
    with pytest.raises(ShapeMismatchError):
        FrameSystem([f, g])


def test_array_constructor_matches_vectors(rng):
    shape = ModuleShape(2, 3)
    vectors = [random_vector(shape, rng) for _ in range(4)]
    from_vectors = FrameSystem(vectors)
    from_matrix = FrameSystem(np.vstack([vec.rep for vec in vectors]), shape=shape)
    assert len(from_vectors) == len(from_matrix) == 4
    assert np.array_equal(from_vectors.synthesis, from_matrix.synthesis)
    assert np.array_equal(from_vectors.frame_op.mat, from_matrix.frame_op.mat)
    for vec, a, b in zip(vectors, from_vectors, from_matrix.vectors):
        assert a.shape == b.shape == shape
        assert np.array_equal(a.rep, vec.rep) and np.array_equal(b.rep, vec.rep)


def test_synthesis_matrix_is_read_only(rng):
    system = random_system(rng, ModuleShape(1, 2), 3)
    with pytest.raises(ValueError):
        system.synthesis[0, 0] = 1.0


@pytest.mark.parametrize("matrix,error", [
    (np.zeros((3, 4)), ShapeMismatchError),   # 3 rows are not whole blocks of d = 2
    (np.zeros((4, 6)), ShapeMismatchError),   # n*d = 4 columns expected
    (np.zeros((0, 4)), ValueError),           # no vectors
    ([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0]], ValueError),   # ragged rows
    ([[math.nan, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]], ValueError),
    ([[1e200, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]], OverflowError),   # X* X overflows
])
def test_array_constructor_rejects_bad_matrix(matrix, error):
    with pytest.raises(error):
        FrameSystem(matrix, shape=ModuleShape(2, 2))


# ------------------------------------------------------ analysis / synthesis

def test_analysis_of_basis_returns_blocks(rng):
    shape = ModuleShape(2, 3)
    system = FrameSystem(standard_basis(shape))
    f = random_vector(shape, rng)
    coeffs = analysis(system, f)
    for i, block in enumerate(coeffs, start=1):
        np.testing.assert_allclose(block, f.block(i))
    rebuilt = synthesis(system, coeffs)
    np.testing.assert_allclose(rebuilt.rep, f.rep, atol=1e-12)


def test_synthesis_zero_coefficients():
    shape = ModuleShape(2, 2)
    system = FrameSystem(standard_basis(shape))
    out = synthesis(system, [np.zeros((2, 2))] * 2)
    np.testing.assert_allclose(out.rep, np.zeros((2, 4)))


def test_synthesis_analysis_factors_frame_operator(rng):
    shape = ModuleShape(2, 2)
    system = random_system(rng, shape, 6)
    S = frame_operator(system)
    for _ in range(5):
        f = random_vector(shape, rng)
        lhs = synthesis(system, analysis(system, f))
        rhs = apply_operator(S, f)
        np.testing.assert_allclose(lhs.rep, rhs.rep, atol=1e-10)


def test_synthesis_length_mismatch():
    system = scalar_system([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(LengthMismatchError):
        synthesis(system, [np.zeros((1, 1))])


# ------------------------------------------------------------ optimal bounds

def test_bounds_onb_tight():
    shape = ModuleShape(2, 3)
    report = optimal_bounds(FrameSystem(standard_basis(shape)))
    assert report.lower == pytest.approx(1.0, abs=1e-12)
    assert report.upper == pytest.approx(1.0, abs=1e-12)
    assert report.tight and report.is_frame and report.is_bessel


def test_bounds_duplicate_direction():
    report = optimal_bounds(scalar_system([1.0, 0.0], [1.0, 0.0], [0.0, 1.0]))
    assert report.lower == pytest.approx(1.0, abs=1e-12)
    assert report.upper == pytest.approx(2.0, abs=1e-12)
    assert not report.tight


def test_bounds_sandwich_sampled(rng):
    # Direct check of the two-sided inequality against the spectral bounds.
    shape = ModuleShape(2, 2)
    system = random_system(rng, shape, 5)
    report = optimal_bounds(system)
    for _ in range(200):
        f = random_vector(shape, rng)
        total = np.zeros((2, 2), dtype=complex)
        for vec in system:
            block = inner_product(f, vec)
            total += block @ block.conj().T
        gram = inner_product(f, f)
        low_gap = total - report.lower * gram
        high_gap = report.upper * gram - total
        assert hermitian_eigen((low_gap + low_gap.conj().T) / 2).eigenvalues[0] >= -1e-8
        assert hermitian_eigen((high_gap + high_gap.conj().T) / 2).eigenvalues[0] >= -1e-8


def test_bounds_zero_vector_allowed():
    shape = ModuleShape(1, 2)
    report = optimal_bounds(FrameSystem([zero_vector(shape)]))
    assert report.lower == 0.0
    assert not report.is_frame
    assert report.is_bessel


def test_bounds_deficient_family():
    report = optimal_bounds(scalar_system([1.0, 0.0]))
    assert report.lower == 0.0
    assert report.upper == pytest.approx(1.0)
    assert not report.is_frame


# ----------------------------------------------------- perturbation distance

def test_distance_zero_for_equal():
    system = scalar_system([1.0, 0.0], [0.0, 1.0])
    assert perturbation_distance(system, system) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("eps", [0.01, 0.25])
def test_distance_rank_one_scaling(eps):
    base = scalar_system([1.0, 0.0], [0.0, 1.0])
    bumped = scalar_system([1.0 + eps, 0.0], [0.0, 1.0])
    assert perturbation_distance(base, bumped) == pytest.approx(eps, abs=1e-12)


def test_distance_to_doubled_family(rng):
    shape = ModuleShape(2, 2)
    system = FrameSystem([random_vector(shape, rng) for _ in range(4)])
    doubled = FrameSystem([2.0 * vec for vec in system])
    expected = operator_norm(synthesis_matrix(system))
    assert perturbation_distance(system, doubled) == pytest.approx(expected, abs=1e-10)


def test_distance_requires_same_length():
    a = scalar_system([1.0, 0.0], [0.0, 1.0])
    b = scalar_system([1.0, 0.0], [0.0, 1.0], [0.0, 1.0])
    with pytest.raises(LengthMismatchError):
        perturbation_distance(a, b)


def test_distance_requires_same_shape():
    a = scalar_system([1.0, 0.0], [0.0, 1.0])
    shape = ModuleShape(2, 1)
    b = FrameSystem(standard_basis(shape) * 2)
    with pytest.raises(ShapeMismatchError):
        perturbation_distance(a, b)


# -------------------------------------------------------------------- duals

def test_dual_of_onb_is_itself():
    shape = ModuleShape(2, 2)
    system = FrameSystem(standard_basis(shape))
    dual = dual_frame(system)
    for vec, dvec in zip(system, dual):
        np.testing.assert_allclose(dvec.rep, vec.rep, atol=1e-12)


def test_dual_rescales_stretched_basis():
    system = scalar_system([math.sqrt(2.0), 0.0], [0.0, 1.0])
    dual = dual_frame(system)
    np.testing.assert_allclose(dual.vectors[0].rep, [[1.0 / math.sqrt(2.0), 0.0]], atol=1e-12)
    np.testing.assert_allclose(dual.vectors[1].rep, [[0.0, 1.0]], atol=1e-12)


def test_dual_reconstruction(rng):
    shape = ModuleShape(2, 2)
    system = random_system(rng, shape, 5)
    dual = dual_frame(system)
    for _ in range(10):
        f = random_vector(shape, rng)
        total = zero_vector(shape)
        for vec, dvec in zip(system, dual):
            total = total + left_mul(inner_product(f, dvec), vec)
        np.testing.assert_allclose(total.rep, f.rep, atol=1e-9)


def test_dual_frame_operator_is_inverse(rng):
    shape = ModuleShape(1, 3)
    system = random_system(rng, shape, 5)
    S = frame_operator(system).mat
    dual_S = frame_operator(dual_frame(system)).mat
    np.testing.assert_allclose(dual_S @ S, np.eye(3), atol=1e-9)


def test_dual_bounds_reciprocal(rng):
    shape = ModuleShape(1, 3)
    system = random_system(rng, shape, 5)
    original = optimal_bounds(system)
    dual = optimal_bounds(dual_frame(system))
    assert dual.lower == pytest.approx(1.0 / original.upper, rel=1e-9)
    assert dual.upper == pytest.approx(1.0 / original.lower, rel=1e-9)


def test_dual_of_dual_round_trips(rng):
    shape = ModuleShape(2, 2)
    system = random_system(rng, shape, 5)
    again = dual_frame(dual_frame(system))
    for vec, back in zip(system, again):
        np.testing.assert_allclose(back.rep, vec.rep, atol=1e-9)


@st.composite
def dense_frames(draw):
    """Random complex frames of 1-6 vectors in A^n (d, n <= 2), scaled by 2^-30..2^30."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 2))
    count = draw(st.integers(n, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 2.0 ** draw(st.integers(-30, 30))
    return FrameSystem(scale * random_complex(rng, count * d, n * d), shape=ModuleShape(d, n))


@settings(deadline=None, max_examples=200)
@given(dense_frames())
def test_dual_of_dual_is_the_frame(system):
    bounds = optimal_bounds(system)
    assume(bounds.is_frame and bounds.upper <= 1e6 * bounds.lower)
    again = dual_frame(dual_frame(system))
    # Each dual multiplies by an inverse, which costs up to its condition number.
    condition = bounds.upper / bounds.lower
    assert relative_drift(system.synthesis, again.synthesis) <= 1e-13 * condition


@settings(deadline=None, max_examples=200)
@given(dense_frames(), st.integers(0, 2**32 - 1))
def test_dual_reconstructs_from_analysis(system, seed):
    bounds = optimal_bounds(system)
    assume(bounds.is_frame and bounds.upper <= 1e6 * bounds.lower)
    rng = np.random.default_rng(seed)
    f = ModuleVector(system.shape, random_complex(rng, system.shape.d, system.shape.dim))
    back = synthesis(dual_frame(system), analysis(system, f))
    condition = bounds.upper / bounds.lower
    assert relative_drift(f.rep, back.rep) <= 1e-13 * condition


def random_unitary(rng, size):
    """QR of a complex Gaussian matrix, with the phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(random_complex(rng, size, size))
    diagonal = r.diagonal()
    return q * (diagonal / np.abs(diagonal))


@settings(deadline=None, max_examples=200)
@given(dense_frames(), st.integers(0, 2**32 - 1))
def test_bounds_invariant_under_unitary_maps(system, seed):
    unitary = random_unitary(np.random.default_rng(seed), system.shape.dim)
    # X U has the frame operator U* S U, which has the spectrum of S.
    mapped = FrameSystem(system.synthesis @ unitary, shape=system.shape)
    bounds, again = optimal_bounds(system), optimal_bounds(mapped)
    assert abs(again.lower - bounds.lower) <= DEFAULT_TOL * bounds.upper
    assert abs(again.upper - bounds.upper) <= DEFAULT_TOL * bounds.upper


def test_dual_requires_frame():
    with pytest.raises(NotAFrameError):
        dual_frame(scalar_system([1.0, 0.0]))


# -------------------------------------------------------- frame_from_operator

def test_frame_from_operator_recovers_target(rng):
    shape = ModuleShape(2, 3)
    target = random_psd(rng, 6) + 0.1 * np.eye(6)
    system = frame_from_operator(target, shape)
    np.testing.assert_allclose(frame_operator(system).mat, target, atol=1e-9)
