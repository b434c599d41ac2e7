"""Kernel tests, checked against closed-form and factorization-free oracles."""

import copy
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstar_frames import linalg
from cstar_frames.errors import (
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    SingularMatrixError,
)
from cstar_frames.frames import FrameSystem
from cstar_frames.linalg import (
    DEFAULT_TOL,
    _hermitian_part,
    as_matrix,
    hermitian_eigen,
    hermitian_inverse,
    jacobi_eigen,
    operator_norm,
    psd_check,
    psd_sqrt,
    relative_drift,
    require_square,
    sigma_min,
)
from cstar_frames.module_space import ModuleShape

from conftest import random_complex, random_hermitian, random_psd


# ---------------------------------------------------------------- oracles

def char_roots_2x2(h):
    """Eigenvalues of a 2x2 Hermitian matrix from its characteristic polynomial."""
    a = h[0, 0].real
    c = h[1, 1].real
    b = h[0, 1]
    trace = a + c
    det = a * c - abs(b) ** 2
    disc = math.sqrt(max(trace * trace - 4.0 * det, 0.0))
    return np.array([(trace - disc) / 2.0, (trace + disc) / 2.0])


def _det3(h):
    return (
        h[0, 0] * (h[1, 1] * h[2, 2] - h[1, 2] * h[2, 1])
        - h[0, 1] * (h[1, 0] * h[2, 2] - h[1, 2] * h[2, 0])
        + h[0, 2] * (h[1, 0] * h[2, 1] - h[1, 1] * h[2, 0])
    )


def char_roots_3x3(h):
    """Eigenvalues of a 3x3 Hermitian matrix via its characteristic polynomial."""
    c2 = np.trace(h).real
    minors = 0.0
    for i in range(3):
        rows = [k for k in range(3) if k != i]
        sub = h[np.ix_(rows, rows)]
        minors += (sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]).real
    c0 = _det3(h).real
    roots = np.roots([1.0, -c2, minors, -c0])
    assert np.max(np.abs(roots.imag)) < 1e-8
    return np.sort(roots.real)


# ------------------------------------------------ hermitian_eigen, jacobi_eigen

# The LAPACK kernel and its independent Jacobi reference must both pass
# every closed-form check below.
KERNELS = (hermitian_eigen, jacobi_eigen)


def test_eigen_identity():
    for kernel in KERNELS:
        w, _ = kernel(np.eye(3))
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0], atol=1e-14, err_msg=kernel.__name__)


def test_eigen_symmetric_2x2():
    for kernel in KERNELS:
        w, _ = kernel([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-12, err_msg=kernel.__name__)


def test_eigen_pauli_y():
    for kernel in KERNELS:
        w, _ = kernel([[0.0, -1j], [1j, 0.0]])
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12, err_msg=kernel.__name__)


@pytest.mark.parametrize("n,oracle", [(2, char_roots_2x2), (3, char_roots_3x3)])
def test_eigen_matches_characteristic_polynomial(rng, n, oracle):
    for _ in range(25):
        h = random_hermitian(rng, n)
        for kernel in KERNELS:
            w, _ = kernel(h)
            np.testing.assert_allclose(w, oracle(h), atol=1e-10, err_msg=kernel.__name__)


def test_eigen_trace_and_determinant(rng):
    for n in (2, 4, 7, 12):
        h = random_hermitian(rng, n)
        det = np.linalg.det(h).real  # LU-based, independent of both eigen paths
        for kernel in KERNELS:
            w, _ = kernel(h)
            assert abs(w.sum() - np.trace(h).real) < 1e-9, kernel.__name__
            assert abs(np.prod(w) - det) < 1e-7 * max(1.0, abs(det)), kernel.__name__


def test_eigen_residual_and_unitarity(rng):
    for n in (2, 5, 9):
        h = random_hermitian(rng, n)
        scale = max(1.0, np.linalg.norm(h))
        for kernel in KERNELS:
            w, v = kernel(h)
            assert np.linalg.norm(h @ v - v * w) <= 1e-10 * scale, kernel.__name__
            assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10, kernel.__name__


def test_eigen_agrees_with_lapack(rng):
    for n in (4, 8, 12):
        h = random_hermitian(rng, n)
        for kernel in KERNELS:
            w, _ = kernel(h)
            np.testing.assert_allclose(
                w, np.linalg.eigvalsh(h), atol=1e-11, err_msg=kernel.__name__
            )


def test_eigen_sorted_ascending(rng):
    h = random_hermitian(rng, 9)
    for kernel in KERNELS:
        w, _ = kernel(h)
        assert np.all(np.diff(w) >= 0), kernel.__name__


def test_eigen_rejects_non_square():
    for kernel in KERNELS:
        with pytest.raises(NotSquareError):
            kernel(np.ones((2, 3)))


def test_eigen_rejects_non_hermitian():
    for kernel in KERNELS:
        with pytest.raises(NotHermitianError):
            kernel([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("scale", [2.0**-600, 2.0**-40, 1.0, 2.0**600])
def test_eigen_rejects_non_hermitian_at_any_scale(scale):
    # ||M||_F^2 underflows at 2^-600 and overflows at 2^600; the defect is
    # judged relative to ||M||_F all the same.
    for kernel in KERNELS:
        with pytest.raises(NotHermitianError):
            kernel(scale * np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_relative_drift():
    assert relative_drift(np.eye(2), np.eye(2)) == 0.0
    assert relative_drift(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
    assert relative_drift(0.0, 1e-300) == math.inf
    assert relative_drift(2.0, 3.0) == 0.5
    # The operands widen the scale: |1 - 1.5| over max(|1|, |4|).
    assert relative_drift(1.0, 1.5, 4.0) == 0.125
    for k in (-1000, -600, 0, 600, 1000):
        a = 2.0**k * np.array([[3.0, 0.0], [0.0, 4.0]])
        assert relative_drift(a, 0.0 * a) == 1.0
        assert relative_drift(a, a.T.copy()) == 0.0
        assert relative_drift(a, 1.5 * a) == 0.5


def test_eigen_rejects_non_finite():
    for kernel in KERNELS:
        for bad in (math.nan, math.inf, complex(0.0, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                kernel([[1.0, 0.0], [0.0, bad]])


def test_eigen_sweep_cap():
    with pytest.raises(NoConvergenceError):
        jacobi_eigen([[2.0, 1.0], [1.0, 2.0]], max_sweeps=0)


def test_eigen_lapack_failure_is_no_convergence(monkeypatch):
    # The kernel reports a failure by raising the invalid flag, as LAPACK's does;
    # hermitian_eigen's error state turns the flag into the error.
    def fail(work, signature):
        np.sqrt(np.float64(-1.0))
        return np.linalg.eigh(work)

    monkeypatch.setattr(linalg, "eigh_lo", fail)
    with pytest.raises(NoConvergenceError, match="LAPACK") as caught:
        hermitian_eigen(np.eye(2))
    assert str(caught.value) == "hermitian_eigen: LAPACK eigh failed: Eigenvalues did not converge"


def _caller_handler(err, flag):
    raise AssertionError("the caller's error handler was called")


@pytest.mark.parametrize("outcome", ["returns", "no convergence", "overflow"])
def test_hermitian_eigen_leaves_the_callers_error_state(monkeypatch, outcome):
    # hermitian_eigen's own error state is entered and left around the kernel
    # alone; the caller's, whatever it is, is the one in force after any outcome.
    matrix = np.full((2, 2), 1e308) if outcome == "overflow" else np.eye(2)
    if outcome == "no convergence":
        def fail(work, signature):
            np.sqrt(np.float64(-1.0))
            return np.linalg.eigh(work)

        monkeypatch.setattr(linalg, "eigh_lo", fail)
    raised = {"returns": None, "no convergence": NoConvergenceError, "overflow": OverflowError}
    for state in ({"all": "raise"}, {"all": "ignore"}, {"all": "call", "call": _caller_handler},
                  {"divide": "warn", "over": "print", "under": "log", "invalid": "raise"}):
        with np.errstate(**state):
            before = (np.geterr(), np.geterrcall())
            try:
                hermitian_eigen(matrix)
            except (NoConvergenceError, OverflowError) as exc:
                assert type(exc) is raised[outcome]
            else:
                assert raised[outcome] is None
            assert (np.geterr(), np.geterrcall()) == before


@pytest.mark.parametrize("state", [{"all": "raise"}, {"all": "call", "call": _caller_handler}])
def test_kernel_runs_under_numpy_eighs_error_state(monkeypatch, state):
    # The state built at import is the one numpy.linalg.eigh enters around the
    # same kernel, every flag and the handler, whatever the caller's state is.
    with np.errstate(call=linalg._no_convergence, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        expected = (np.geterr(), np.geterrcall())
    seen = []

    def record(work, signature):
        seen.append((np.geterr(), np.geterrcall()))
        return np.linalg.eigh(work)

    monkeypatch.setattr(linalg, "eigh_lo", record)
    with np.errstate(**state):
        assert (np.geterr(), np.geterrcall()) != expected
        hermitian_eigen(np.eye(2))
    assert seen == [expected]


@pytest.mark.parametrize("exponent", [-460, 0, 460])
def test_hermitian_eigen_bits_do_not_depend_on_the_callers_error_state(rng, exponent):
    # 2^exponent takes ||M||_F^2 past both ends of the range _hermitian_part inlines.
    for size in range(1, 9):
        mat = math.ldexp(1.0, exponent) * random_hermitian(rng, size)
        spectra = []
        for state in ({"all": "raise"}, {"all": "ignore"}):
            with np.errstate(**state):
                spectra.append([part.tobytes() for part in hermitian_eigen(mat)])
        assert spectra[0] == spectra[1]


def test_hermitian_eigen_on_two_threads_gives_the_serial_bits(rng):
    mats = [random_hermitian(rng, size) for size in rng.integers(1, 9, 200)]
    serial = [[part.tobytes() for part in hermitian_eigen(mat)] for mat in mats]

    def solve(mat):
        return [part.tobytes() for part in hermitian_eigen(mat)], np.geterr()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(solve, mats, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert [bits for bits, _ in threaded] == serial
    assert all(state == np.geterr() for _, state in threaded)


def test_jacobi_skips_a_zero_pivot():
    # Entry (1, 2) is exactly zero beside nonzero off-diagonal entries, and stays
    # zero through the sweep, so its rotation meets a zero pivot.
    mat = [[1.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, 3.0]]
    jacobi, vecs = jacobi_eigen(mat)
    lapack, _ = hermitian_eigen(mat)
    assert np.max(np.abs(lapack - jacobi)) <= 1e-11 * np.linalg.norm(mat)
    np.testing.assert_allclose(jacobi, [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)],
                               atol=1e-12)
    assert np.linalg.norm(np.array(mat) @ vecs - vecs * jacobi) <= 1e-10


def test_eigen_zero_matrix():
    for kernel in KERNELS:
        w, v = kernel(np.zeros((4, 4)))
        np.testing.assert_allclose(w, np.zeros(4), err_msg=kernel.__name__)
        np.testing.assert_allclose(v, np.eye(4), err_msg=kernel.__name__)


@st.composite
def hermitian_matrices(draw):
    """Random, diagonal or degenerate Hermitian matrices of size 1-16, rescaled."""
    n = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(("random", "diagonal", "degenerate")))
    scale = 10.0 ** draw(st.integers(-6, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        mat = random_hermitian(rng, n)
    elif kind == "diagonal":
        mat = np.diag(rng.uniform(-1.0, 1.0, n)).astype(complex)
    else:
        # A few eigenvalue levels, each repeated, in a random unitary basis.
        levels = draw(st.lists(st.sampled_from((-1.0, 0.0, 0.5, 2.0)), min_size=n, max_size=n))
        unitary, _ = np.linalg.qr(random_complex(rng, n, n))
        mat = (unitary * np.array(levels)) @ unitary.conj().T
        mat = (mat + mat.conj().T) / 2.0
    return scale * mat


@settings(deadline=None)
@given(hermitian_matrices())
def test_lapack_agrees_with_jacobi_reference(mat):
    tolerance = 1e-11 * np.linalg.norm(mat)
    lapack, _ = hermitian_eigen(mat)
    jacobi, _ = jacobi_eigen(mat)
    assert np.max(np.abs(lapack - jacobi)) <= tolerance


# ------------------------------------------------------------ _hermitian_part

def checked_fold(matrix, where):
    """The validation one check at a time: the reference for _hermitian_part."""
    mat = as_matrix(matrix)
    require_square(mat, where)
    half = mat * 0.5
    adjoint = half.conj().T
    defect = relative_drift(half, adjoint)
    if defect > DEFAULT_TOL:
        raise NotHermitianError(f"{where}: relative symmetry defect {defect:.3e} exceeds "
                                f"{DEFAULT_TOL:.0e}")
    if np.abs(mat).max() < 2.0**1022:  # the sum cannot overflow: halved after it
        return (mat + mat.conj().T) * 0.5
    return half + adjoint


def outcome(fold, matrix):
    """The fold's shape and bits, or the type and message of what it raised."""
    try:
        folded = fold(matrix, "where")
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)
    return folded.shape, folded.view(np.int64).tobytes()


@settings(deadline=None)
@given(st.integers(1, 9), st.integers(-30, 30), st.sampled_from((0.0, 1e-12, 1e-9, 1e-6)),
       st.integers(0, 2**32 - 1))
def test_hermitian_part_matches_the_checks_one_at_a_time(size, exponent, skew, seed):
    rng = np.random.default_rng(seed)
    mat = 2.0**exponent * (random_hermitian(rng, size) + skew * random_complex(rng, size, size))
    result = outcome(_hermitian_part, mat)
    assert result == outcome(checked_fold, mat)
    half = mat * 0.5
    defect = relative_drift(half, half.conj().T)
    if defect <= DEFAULT_TOL:
        folded = half + half.conj().T
        assert result == (folded.shape, folded.view(np.int64).tobytes())
    else:
        assert result == (NotHermitianError, f"where: relative symmetry defect {defect:.3e} "
                                              f"exceeds {DEFAULT_TOL:.0e}")


def _with(entry, value):
    mat = np.eye(3, dtype=complex)
    mat[entry] = value
    return mat


def _scaled_identity(size, scale):
    return float.fromhex(scale) * np.eye(size)


@pytest.mark.parametrize("matrix", [
    pytest.param(1e200 * np.array([[2.0, 1j], [-1j, 3.0]]), id="huge"),
    pytest.param(1e200 * np.array([[1.0, 1.0], [0.0, 1.0]]), id="huge-skew"),
    pytest.param(np.full((3, 3), 1.7e308), id="near-max"),
    pytest.param(1e-200 * np.array([[2.0, 1j], [-1j, 3.0]]), id="tiny"),
    pytest.param(1e-200 * np.array([[1.0, 1.0], [0.0, 1.0]]), id="tiny-skew"),
    pytest.param(np.array([[5e-324, 0.0], [0.0, 5e-324]]), id="subnormal"),
    pytest.param(np.zeros((3, 3)), id="zero"),
    pytest.param(_with((1, 1), math.nan), id="nan-real"),
    pytest.param(_with((0, 2), complex(0.0, math.nan)), id="nan-imag"),
    pytest.param(_with((2, 0), math.inf), id="inf-real"),
    pytest.param(_with((1, 2), complex(0.0, -math.inf)), id="inf-imag"),
    pytest.param(np.array([[1.0, 2.0, math.nan], [2.0, 1.0, 0.0]]), id="non-square-nan"),
    pytest.param(np.ones((2, 3)), id="non-square"),
    pytest.param(np.ones(3), id="1-D"),
    pytest.param(np.ones((2, 2, 2)), id="3-D"),
    pytest.param(np.zeros((0, 3)), id="empty"),
    pytest.param(np.zeros((0, 0)), id="empty-square"),
    pytest.param(5.0, id="scalar"),
    # ||M||_F^2 one double below, at and one double above the ends of the
    # inlined range (2^-898, 2^902); the ends themselves take relative_drift.
    pytest.param(_scaled_identity(3, "0x1.279a74590331cp-450"), id="norm-below-2^-898"),
    pytest.param(_scaled_identity(4, "0x1p-450"), id="norm-at-2^-898"),
    pytest.param(_scaled_identity(3, "0x1.279a74590331dp-450"), id="norm-above-2^-898"),
    pytest.param(_scaled_identity(3, "0x1.279a74590331cp+450"), id="norm-below-2^902"),
    pytest.param(_scaled_identity(4, "0x1p+450"), id="norm-at-2^902"),
    pytest.param(_scaled_identity(3, "0x1.279a74590331dp+450"), id="norm-above-2^902"),
])
def test_hermitian_part_edge_cases_match_the_checks(matrix):
    # No NaN or inf reaches arithmetic (inf * (0.5 + 0j) would warn) before it is refused.
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert outcome(_hermitian_part, matrix) == outcome(checked_fold, matrix)


@pytest.mark.parametrize("exponent", [-500, 0, 500])
def test_hermitian_part_decides_the_threshold_as_the_checks(exponent):
    # Bisect the skew to two neighbouring doubles whose defects straddle
    # DEFAULT_TOL.  It sits in an entry where the Hermitian base is zero, so
    # each step of it moves the defect by about one rounding, and a defect
    # computed any less exactly would decide one of the two differently.
    rng = np.random.default_rng(7)
    base = 2.0**exponent * random_hermitian(rng, 4)
    base[0, 1] = base[1, 0] = 0.0
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 2.0**exponent * (0.6 + 0.8j)
    low, high = 0.0, 1e-6
    while (middle := (low + high) / 2) not in (low, high):
        if outcome(checked_fold, base + middle * skew)[0] is NotHermitianError:
            high = middle
        else:
            low = middle
    below, above = base + low * skew, base + high * skew
    assert relative_drift(below / 2, below.conj().T / 2) <= DEFAULT_TOL
    assert outcome(checked_fold, above)[0] is NotHermitianError
    assert outcome(_hermitian_part, below) == outcome(checked_fold, below)
    assert outcome(_hermitian_part, above) == outcome(checked_fold, above)


@settings(deadline=None)
@given(st.integers(1, 8),
       st.one_of(st.integers(-460, -440), st.integers(-30, 30), st.integers(440, 460)),
       st.integers(0, 2**32 - 1))
def test_hermitian_part_keeps_exactly_hermitian_input_as_the_checks_fold_it(size, exponent, seed):
    # A + A* is Hermitian bit for bit, and 2^exponent takes ||M||_F^2 past both
    # ends of the inlined range (2^-898, 2^902), where the halved path takes over.
    rng = np.random.default_rng(seed)
    raw = random_complex(rng, size, size)
    mat = math.ldexp(1.0, exponent) * (raw + raw.conj().T)
    assert outcome(_hermitian_part, mat) == outcome(checked_fold, mat)
    if 2.0**-898 < np.vdot(mat, mat).real < 2.0**902:
        assert _hermitian_part(mat, "where") is mat


def test_eigensolvers_leave_an_exactly_hermitian_argument_alone():
    # _hermitian_part hands such a matrix back as it is, so a kernel that wrote
    # into its work array would write into the caller's.
    raw = random_complex(np.random.default_rng(15), 5, 5)
    mat = raw + raw.conj().T
    before = mat.copy()
    assert mat.flags.writeable
    for kernel in KERNELS:
        kernel(mat)
        assert mat.tobytes() == before.tobytes(), kernel.__name__
    mat.setflags(write=False)
    for got, want in zip(hermitian_eigen(mat), hermitian_eigen(before)):
        assert got.tobytes() == want.tobytes()


def _opposite_signed_zeros():
    mat = random_hermitian(np.random.default_rng(16), 4)
    mat[0, 1], mat[1, 0] = -0.0, 0.0  # the fold makes both +0.0
    return mat


def _underflowing_skew():
    mat = random_hermitian(np.random.default_rng(17), 4)
    mat[0, 1], mat[1, 0] = 2.0**-600, 0.0  # the skew's square is below 5e-324
    return mat


@pytest.mark.parametrize("make", [_opposite_signed_zeros, _underflowing_skew])
def test_unfolded_edge_cases_keep_the_eigenvalues_of_the_fold(make):
    # ||M - M*||_F^2 is 0, so M goes to LAPACK unchanged, though folding it
    # would move an entry (by less than 2^-537); the spectrum does not move.
    mat = make()
    assert _hermitian_part(mat, "where") is mat
    assert outcome(checked_fold, mat) != outcome(_hermitian_part, mat)
    folded = np.linalg.eigh(checked_fold(mat, "where")).eigenvalues
    assert hermitian_eigen(mat).eigenvalues.tobytes() == folded.tobytes()


def _laid_out(mat, layout):
    """`mat` as it is, as a read-only view into a stack, in Fortran order, or as its real part."""
    if layout == "stack view":
        stack = np.stack([mat + 1.0, mat, mat - 1.0])
        stack.setflags(write=False)
        return stack[1]
    if layout == "fortran":
        return np.asfortranarray(mat)
    return mat.real.copy() if layout == "real" else mat


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 8), st.sampled_from(("hermitian", "near-hermitian", "real diagonal")),
       st.one_of(st.integers(-470, -440), st.integers(-30, 30), st.integers(440, 470)),
       st.sampled_from(("as is", "stack view", "fortran", "real")), st.integers(0, 2**32 - 1))
def test_hermitian_eigen_is_numpy_eigh_of_the_hermitian_part_bit_for_bit(size, kind, exponent,
                                                                           layout, seed):
    # hermitian_eigen calls the kernel that np.linalg.eigh dispatches to, with
    # none of its checks; on the same Hermitian part both give the same bits.
    # 2^exponent takes ||M||_F^2 past both ends of (2^-898, 2^902).
    rng = np.random.default_rng(seed)
    if kind == "real diagonal":
        mat = np.diag(rng.uniform(-1.0, 1.0, size)).astype(complex)
    else:
        mat = random_hermitian(rng, size)
    if kind == "near-hermitian":  # a relative skew of at most 1e-12
        noise = random_complex(rng, size, size)
        mat += 2e-13 * np.linalg.norm(mat) / np.linalg.norm(noise) * noise
    mat = _laid_out(math.ldexp(1.0, exponent) * mat, layout)
    got = hermitian_eigen(mat)
    want = np.linalg.eigh(_hermitian_part(mat, "where"))
    for ours, numpys in zip(got, want):
        assert (ours.dtype, ours.shape, ours.tobytes()) == (numpys.dtype, numpys.shape,
                                                            numpys.tobytes())


def _frame_operator_matrix():
    rng = np.random.default_rng(11)
    system = FrameSystem(random_complex(rng, 12, 6), shape=ModuleShape(2, 3))
    return system.frame_op.mat


def _view_into_a_block():
    rng = np.random.default_rng(12)
    block = np.stack([random_hermitian(rng, 5) for _ in range(3)])
    block.setflags(write=False)
    return block[1]


def _real_array():
    mat = random_hermitian(np.random.default_rng(13), 4).real.copy()
    mat.setflags(write=False)
    return mat


def _nested_list():
    return random_hermitian(np.random.default_rng(14), 3).tolist()


@pytest.mark.parametrize("make", [_frame_operator_matrix, _view_into_a_block, _real_array,
                                  _nested_list])
def test_hermitian_eigen_never_writes_into_its_argument(make):
    # Each array argument is read-only (the frame operator's by FrameSystem,
    # the others by setflags), so a write raises; the list is compared whole.
    argument = make()
    before = copy.deepcopy(argument)
    result = hermitian_eigen(argument)
    fresh = hermitian_eigen(np.array(argument, dtype=complex))
    if isinstance(argument, list):
        assert argument == before
    else:
        assert not argument.flags.writeable
        assert argument.tobytes() == before.tobytes()
    for got, want in zip(result, fresh):
        assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------- psd_check

def test_psd_check_identity():
    assert psd_check(np.eye(2), 1e-9)


def test_psd_check_indefinite():
    assert not psd_check([[1.0, 2.0], [2.0, 1.0]], 1e-9)  # smallest eigenvalue -1


def test_psd_check_zero_tol_zero_matrix():
    assert psd_check(np.zeros((3, 3)), 0.0)


def test_psd_check_negative_tol_rejected():
    with pytest.raises(ValueError):
        psd_check(np.eye(2), -1.0)


# -------------------------------------------------------------- operator_norm

def test_operator_norm_identity():
    assert operator_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_hermitian_max_abs_eigenvalue():
    assert operator_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-12)


def test_operator_norm_nilpotent():
    assert operator_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0, abs=1e-12)


def test_operator_norm_adjoint_invariant(rng):
    for _ in range(10):
        m = random_complex(rng, 4, 6)
        assert abs(operator_norm(m) - operator_norm(m.conj().T)) < 1e-10


# ------------------------------------------------------------------ sigma_min

def test_sigma_min_identity():
    assert sigma_min(np.eye(3)) == pytest.approx(1.0, abs=1e-12)


def test_sigma_min_singular():
    assert sigma_min(np.diag([2.0, 0.0])) == pytest.approx(0.0, abs=1e-12)


def test_sigma_min_shear():
    expected = math.sqrt((3.0 - math.sqrt(5.0)) / 2.0)
    assert sigma_min([[1.0, 1.0], [0.0, 1.0]]) == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------------ scale invariance

def test_norms_do_not_overflow():
    # M* M of these entries overflows a double; the norms themselves do not.
    assert operator_norm([[1e200]]) == 1e200
    assert sigma_min([[1e200]]) == 1e200
    assert operator_norm(np.diag([3e160, -5e160])) == pytest.approx(5e160, rel=1e-15)
    assert sigma_min(np.diag([3e160, -5e160])) == pytest.approx(3e160, rel=1e-15)
    assert operator_norm(np.zeros((2, 3))) == 0.0
    assert sigma_min(np.zeros((3, 2))) == 0.0


def test_norms_match_unscaled_gram(rng):
    # Dividing by a power of two is exact, so where M* M does not overflow the
    # norms are the ones read off the unscaled Gram, bit for bit.
    for rows, cols in ((3, 3), (4, 6), (6, 4), (5, 5)):
        m = 37.0 * random_complex(rng, rows, cols)
        small = m @ m.conj().T if rows <= cols else m.conj().T @ m
        top = hermitian_eigen(small).eigenvalues[-1]
        bottom = hermitian_eigen(m.conj().T @ m).eigenvalues[0]
        assert operator_norm(m) == math.sqrt(top)
        assert sigma_min(m) == math.sqrt(max(bottom, 0.0))


_entry_parts = st.one_of(
    st.just(0.0),
    st.builds(lambda size, negative: -size if negative else size,
              st.floats(1e-50, 1e50), st.booleans()),
)


@st.composite
def binary_scalable_matrices(draw):
    """Complex matrices of size up to 6x6 whose parts are 0 or of magnitude 1e-50..1e50.

    Scaling these by 2^k, |k| <= 500, makes no entry subnormal or infinite.
    """
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    parts = draw(st.lists(_entry_parts, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(parts).view(complex).reshape(rows, cols)


@settings(deadline=None, max_examples=200)
@given(binary_scalable_matrices(), st.integers(-500, 500))
def test_norms_scale_exactly_by_powers_of_two(mat, k):
    factor = math.ldexp(1.0, k)
    assert operator_norm(factor * mat) == factor * operator_norm(mat)
    assert sigma_min(factor * mat) == factor * sigma_min(mat)


# ----------------------------------------------------------- hermitian_inverse

def test_inverse_diagonal():
    np.testing.assert_allclose(
        hermitian_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-12
    )


def test_inverse_identity():
    np.testing.assert_allclose(hermitian_inverse(np.eye(3)), np.eye(3), atol=1e-12)


def test_inverse_closed_form_2x2():
    expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
    np.testing.assert_allclose(
        hermitian_inverse([[2.0, 1.0], [1.0, 2.0]]), expected, atol=1e-12
    )


def test_inverse_residual(rng):
    m = random_psd(rng, 6) + 0.5 * np.eye(6)
    inv = hermitian_inverse(m)
    assert np.linalg.norm(m @ inv - np.eye(6)) <= 1e-9


def test_inverse_singular_rejected():
    with pytest.raises(SingularMatrixError):
        hermitian_inverse(np.diag([1.0, 0.0]))


@pytest.mark.filterwarnings("error")
def test_inverse_past_double_range_rejected():
    with pytest.raises(OverflowError, match=r"^hermitian_inverse: 1 / 1\.000e-310 overflows a double$"):
        hermitian_inverse(np.diag([1e-310, 1.0e-309]))


@pytest.mark.filterwarnings("error")
def test_spectrum_past_double_range_rejected():
    # Every entry is finite, but the eigenvalue 2e308 (or -2e308) is not.
    message = r"^hermitian_eigen: an eigenvalue is past the double range$"
    for sign in (1.0, -1.0):
        with pytest.raises(OverflowError, match=message):
            hermitian_eigen(np.full((2, 2), sign * 1e308))
    for call in (psd_check, hermitian_inverse):
        for tol in (0.0, DEFAULT_TOL):
            with pytest.raises(OverflowError, match=message):
                call(np.full((2, 2), 1e308), tol)


# ------------------------------------------------------------------- psd_sqrt

def test_sqrt_diagonal():
    np.testing.assert_allclose(
        psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
    )


def test_sqrt_zero():
    np.testing.assert_allclose(psd_sqrt(np.zeros((2, 2))), np.zeros((2, 2)))


def test_sqrt_closed_form_2x2():
    # Spectral calculus on eigenvalues (1, 3) of [[2, 1], [1, 2]].
    s3 = math.sqrt(3.0)
    expected = np.array([[1.0 + s3, s3 - 1.0], [s3 - 1.0, 1.0 + s3]]) / 2.0
    np.testing.assert_allclose(
        psd_sqrt([[2.0, 1.0], [1.0, 2.0]]), expected, atol=1e-12
    )


def test_sqrt_squares_back(rng):
    for n in (3, 6):
        m = random_psd(rng, n)
        root = psd_sqrt(m)
        scale = max(1.0, np.linalg.norm(m))
        assert np.linalg.norm(root @ root - m) <= 1e-9 * scale
        assert psd_check(root, 1e-9)


def test_sqrt_rejects_indefinite():
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -1.0]))
