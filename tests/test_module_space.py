"""Module arithmetic: inner-product axioms, operator action, positivity."""

import numpy as np
import pytest

from cstar_frames.errors import ShapeMismatchError
from cstar_frames.linalg import hermitian_eigen, operator_norm
from cstar_frames.module_space import (
    ModuleOperator,
    ModuleShape,
    ModuleVector,
    adjoint,
    apply_operator,
    cauchy_schwarz_probe,
    identity_operator,
    inner_product,
    left_mul,
    module_norm,
    operator_positive,
    random_operator,
    random_vector,
    standard_basis,
    zero_vector,
)

from conftest import random_complex, random_hermitian, random_psd

SHAPES = [ModuleShape(1, 2), ModuleShape(2, 1), ModuleShape(2, 3), ModuleShape(3, 2)]


# ------------------------------------------------------------- inner product

def test_inner_product_unit_vector():
    shape = ModuleShape(1, 2)
    f = ModuleVector(shape, [[1.0, 0.0]])
    np.testing.assert_allclose(inner_product(f, f), [[1.0]])


def test_inner_product_orthogonal():
    shape = ModuleShape(1, 2)
    f = ModuleVector(shape, [[1.0, 0.0]])
    g = ModuleVector(shape, [[0.0, 1.0]])
    np.testing.assert_allclose(inner_product(f, g), [[0.0]])


def test_inner_product_algebra_identity():
    shape = ModuleShape(2, 1)
    f = ModuleVector(shape, np.eye(2))
    np.testing.assert_allclose(inner_product(f, f), np.eye(2))


def test_inner_product_shape_mismatch():
    f = ModuleVector(ModuleShape(1, 2), [[1.0, 0.0]])
    g = ModuleVector(ModuleShape(1, 3), [[1.0, 0.0, 0.0]])
    with pytest.raises(ShapeMismatchError):
        inner_product(f, g)


@pytest.mark.parametrize("shape", SHAPES)
def test_pairing_axioms_sampled(rng, shape):
    for _ in range(10):
        f = random_vector(shape, rng)
        g = random_vector(shape, rng)
        h = random_vector(shape, rng)
        a = random_complex(rng, shape.d, shape.d)
        # positivity of <f, f>
        gram = inner_product(f, f)
        assert hermitian_eigen(gram).eigenvalues[0] >= -1e-12
        # conjugate symmetry
        np.testing.assert_allclose(
            inner_product(f, g), inner_product(g, f).conj().T, atol=1e-12
        )
        # left-linearity in the first slot
        lhs = inner_product(left_mul(a, f) + g, h)
        rhs = a @ inner_product(f, h) + inner_product(g, h)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_definiteness():
    shape = ModuleShape(2, 2)
    z = zero_vector(shape)
    np.testing.assert_allclose(inner_product(z, z), np.zeros((2, 2)))
    assert module_norm(z) == 0.0


# ------------------------------------------------------------------- norms

def test_norm_basis_vector():
    shape = ModuleShape(2, 3)
    for e in standard_basis(shape):
        assert module_norm(e) == pytest.approx(1.0, abs=1e-12)


def test_norm_euclidean_case():
    f = ModuleVector(ModuleShape(1, 2), [[3.0, 4.0]])
    assert module_norm(f) == pytest.approx(5.0, abs=1e-12)


def test_norm_matches_gram(rng):
    shape = ModuleShape(2, 3)
    f = random_vector(shape, rng)
    assert module_norm(f) == pytest.approx(
        np.sqrt(operator_norm(inner_product(f, f))), abs=1e-12
    )


# ------------------------------------------------------------ standard basis

def test_basis_scalar_case():
    basis = standard_basis(ModuleShape(1, 3))
    np.testing.assert_allclose(
        np.vstack([e.rep for e in basis]), np.eye(3)
    )


def test_basis_orthonormal_blocks():
    shape = ModuleShape(2, 2)
    basis = standard_basis(shape)
    for i, ei in enumerate(basis):
        for j, ej in enumerate(basis):
            expected = np.eye(2) if i == j else np.zeros((2, 2))
            np.testing.assert_allclose(inner_product(ei, ej), expected)


@pytest.mark.parametrize("shape", SHAPES)
def test_basis_reconstruction(rng, shape):
    basis = standard_basis(shape)
    f = random_vector(shape, rng)
    total = zero_vector(shape)
    for e in basis:
        total = total + left_mul(inner_product(f, e), e)
    np.testing.assert_allclose(total.rep, f.rep, atol=1e-12)


# ---------------------------------------------------------------- operators

def test_apply_identity(rng):
    shape = ModuleShape(2, 2)
    f = random_vector(shape, rng)
    np.testing.assert_allclose(apply_operator(identity_operator(shape), f).rep, f.rep)


def test_apply_scalar_multiple(rng):
    shape = ModuleShape(2, 2)
    f = random_vector(shape, rng)
    out = apply_operator(identity_operator(shape, 2.5), f)
    np.testing.assert_allclose(out.rep, 2.5 * f.rep)


def test_apply_shift_matrix():
    shape = ModuleShape(1, 2)
    T = ModuleOperator(shape, [[0.0, 1.0], [0.0, 0.0]])
    f = ModuleVector(shape, [[1.0, 0.0]])
    np.testing.assert_allclose(apply_operator(T, f).rep, [[0.0, 1.0]])


def test_apply_commutes_with_left_action(rng):
    shape = ModuleShape(2, 3)
    T = random_operator(shape, rng)
    f = random_vector(shape, rng)
    a = random_complex(rng, 2, 2)
    lhs = apply_operator(T, left_mul(a, f))
    rhs = left_mul(a, apply_operator(T, f))
    np.testing.assert_allclose(lhs.rep, rhs.rep, atol=1e-12)


def test_adjoint_hermitian_fixed_point(rng):
    shape = ModuleShape(1, 3)
    h = random_hermitian(rng, 3)
    T = ModuleOperator(shape, h)
    np.testing.assert_allclose(adjoint(T).mat, T.mat)


def test_adjoint_conjugate_transpose():
    shape = ModuleShape(1, 2)
    T = ModuleOperator(shape, [[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(adjoint(T).mat, [[0.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("shape", SHAPES)
def test_adjoint_pairing_identity(rng, shape):
    T = random_operator(shape, rng)
    for _ in range(5):
        f = random_vector(shape, rng)
        g = random_vector(shape, rng)
        lhs = inner_product(apply_operator(T, f), g)
        rhs = inner_product(f, apply_operator(adjoint(T), g))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_adjoint_compose_positive(rng):
    shape = ModuleShape(2, 2)
    T = random_operator(shape, rng)
    for _ in range(5):
        f = random_vector(shape, rng)
        tf = apply_operator(adjoint(T), apply_operator(T, f))
        gram = inner_product(tf, f)
        assert hermitian_eigen((gram + gram.conj().T) / 2).eigenvalues[0] >= -1e-10


# ---------------------------------------------------------------- positivity

def test_positive_scaled_identity():
    shape = ModuleShape(1, 3)
    assert operator_positive(identity_operator(shape, 0.7))


def test_positive_rejects_indefinite_diagonal():
    shape = ModuleShape(1, 2)
    assert not operator_positive(ModuleOperator(shape, np.diag([1.0, -0.5])))


def test_positive_gram(rng):
    shape = ModuleShape(2, 2)
    assert operator_positive(ModuleOperator(shape, random_psd(rng, 4)))


def test_positive_rejects_non_selfadjoint():
    shape = ModuleShape(1, 2)
    assert not operator_positive(ModuleOperator(shape, [[1.0, 1.0], [0.0, 1.0]]))


def test_positivity_equivalence_sampled(rng):
    # Matrix-level PSD verdict must agree with the quadratic-form reading
    # lambda_max(-<Tf, f>) <= tol over many random f, in both directions.
    shape = ModuleShape(2, 2)
    for _ in range(6):
        h = random_hermitian(rng, 4)
        T = ModuleOperator(shape, h)
        verdict = operator_positive(T, 1e-9)
        worst = -np.inf
        for _ in range(200):
            f = random_vector(shape, rng)
            gram = inner_product(apply_operator(T, f), f)
            herm = (gram + gram.conj().T) / 2
            worst = max(worst, float(hermitian_eigen(-herm).eigenvalues[-1]))
        assert verdict == (worst <= 1e-9)


# -------------------------------------------------------------------- probe

def test_probe_identity():
    shape = ModuleShape(1, 3)
    assert cauchy_schwarz_probe(identity_operator(shape), 20) <= 1e-12


def test_probe_scaled_identity():
    shape = ModuleShape(1, 3)
    assert cauchy_schwarz_probe(identity_operator(shape, 2.0), 20) <= 1e-12


def test_probe_random_operators(rng):
    for shape in SHAPES:
        for _ in range(5):
            T = random_operator(shape, rng)
            assert cauchy_schwarz_probe(T, 20, seed=int(rng.integers(1 << 31))) <= 1e-9


def test_probe_large_unitary(rng):
    # <Tx, Tx> and ||T||^2 <x, x> cancel to rounding noise far below their size.
    shape = ModuleShape(2, 4)
    unitary, _ = np.linalg.qr(random_complex(rng, shape.dim, shape.dim))
    T = ModuleOperator(shape, 1e5 * unitary)
    assert cauchy_schwarz_probe(T, 20) <= 1e-12 * operator_norm(T.mat) ** 2


def test_probe_rejects_bad_sample_count():
    with pytest.raises(ValueError):
        cauchy_schwarz_probe(identity_operator(ModuleShape(1, 2)), 0)


def test_probe_reproducible():
    shape = ModuleShape(2, 2)
    T = ModuleOperator(shape, np.diag([1.0, 2.0, 3.0, 4.0]))
    assert cauchy_schwarz_probe(T, 10) == cauchy_schwarz_probe(T, 10)


# ---------------------------------------------------------- shape refusals

@pytest.mark.parametrize("make,error,message", [
    (lambda: ModuleShape(0, 2), ValueError, "algebra dimension d must be an integer >= 1, got 0"),
    (lambda: ModuleShape(1.0, 2), ValueError,
     "algebra dimension d must be an integer >= 1, got 1.0"),
    (lambda: ModuleShape(2, 0), ValueError, "module rank n must be an integer >= 1, got 0"),
    (lambda: ModuleVector(ModuleShape(2, 2), np.zeros((1, 4))), ShapeMismatchError,
     "vector representation must be 2x4 for shape ModuleShape(d=2, n=2), got 1x4"),
    (lambda: ModuleOperator(ModuleShape(1, 2), np.eye(3)), ShapeMismatchError,
     "operator matrix must be 2x2 for shape ModuleShape(d=1, n=2), got 3x3"),
    (lambda: left_mul(np.eye(3), zero_vector(ModuleShape(2, 2))), ShapeMismatchError,
     "algebra element must be 2x2, got (3, 3)"),
    (lambda: zero_vector(ModuleShape(2, 2)).block(3), IndexError, "block index 3 outside 1..2"),
    (lambda: zero_vector(ModuleShape(2, 2)).block(0), IndexError, "block index 0 outside 1..2"),
])
def test_wrong_shapes_refused(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_negation_flips_every_entry():
    f = ModuleVector(ModuleShape(2, 2), np.arange(8.0).reshape(2, 4) + 1j)
    np.testing.assert_array_equal((-f).rep, -f.rep)
    assert (-f).shape == f.shape
