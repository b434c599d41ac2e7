"""Shift decompositions, the PSD witness reduction, and the bound formulas."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cstar_frames.decomposition import (
    ShiftDecomposition,
    alignment_agreement_probe,
    alignment_predicates,
    bessel_bound,
    decomposition_diagnostics,
    deviation_certificate,
    dual_decomposition,
    frame_lower_bound,
    perturbed_frame_bounds,
    shift_decompose,
)
from cstar_frames.errors import (
    InconsistentDecompositionError,
    NotHermitianError,
    SingularMatrixError,
)
from cstar_frames.frames import (
    FrameSystem,
    frame_from_operator,
    optimal_bounds,
    perturbation_distance,
)
from cstar_frames.linalg import DEFAULT_TOL, ROUNDING_RTOL, hermitian_eigen, psd_check, relative_drift
from cstar_frames.constructors import ScalarProfile, eigenprofile_operator, profile_frame
from cstar_frames.module_space import (
    ModuleOperator,
    ModuleShape,
    ModuleVector,
    apply_operator,
    identity_operator,
    module_norm,
    standard_basis,
)

from conftest import random_complex, random_psd


def scalar_system(*rows):
    shape = ModuleShape(1, len(rows[0]))
    return FrameSystem([ModuleVector(shape, [list(row)]) for row in rows])


def diag_operator(*values):
    shape = ModuleShape(1, len(values))
    return ModuleOperator(shape, np.diag([complex(v) for v in values]))


def unitary_conjugate(rng, eigenvalues):
    """Hermitian matrix with prescribed spectrum and a random eigenbasis."""
    n = len(eigenvalues)
    raw = random_complex(rng, n, n)
    q, _ = np.linalg.qr(raw)
    return (q * np.array(eigenvalues)) @ q.conj().T


@st.composite
def scaled_frames(draw, smallest=(1.0, 1e-1, 1e-2, 1e-4)):
    """A frame X = 2^k U diag(s) V* in A^n, |k| <= 200, U and V random with orthonormal columns.

    s_1 is one of `smallest` and the other singular values lie in [1, 2], so
    lambda_min / lambda_max of S = X* X is at least about 2.5e-9.
    """
    d, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    count = n + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = count * d, n * d
    left, _ = np.linalg.qr(random_complex(rng, rows, cols))
    right, _ = np.linalg.qr(random_complex(rng, cols, cols))
    singular = rng.uniform(1.0, 2.0, cols)
    singular[0] = draw(st.sampled_from(smallest))
    scale = math.ldexp(1.0, draw(st.integers(-200, 200)))
    return FrameSystem(scale * (left * singular) @ right.conj().T, shape=ModuleShape(d, n))


# ------------------------------------------------------------ shift_decompose

def test_decompose_onb_unit_shift():
    system = FrameSystem(standard_basis(ModuleShape(1, 3)))
    dec = shift_decompose(system, 1.0)
    np.testing.assert_allclose(dec.remainder.mat, np.zeros((3, 3)), atol=1e-14)


def test_decompose_duplicate_direction():
    system = scalar_system([1.0, 0.0], [1.0, 0.0], [0.0, 1.0])
    dec = shift_decompose(system, 1.0)
    np.testing.assert_allclose(dec.remainder.mat, np.diag([1.0, 0.0]), atol=1e-14)
    assert psd_check(dec.remainder.mat)


def test_decompose_shift_above_lower_bound_not_positive():
    system = scalar_system([1.0, 0.0], [1.0, 0.0], [0.0, 1.0])
    dec = shift_decompose(system, 1.5)
    np.testing.assert_allclose(dec.remainder.mat, np.diag([0.5, -0.5]), atol=1e-14)
    assert not psd_check(dec.remainder.mat)


def test_decompose_reassembles_exactly(rng):
    shape = ModuleShape(2, 2)
    system = frame_from_operator(random_psd(rng, 4) + 0.2 * np.eye(4), shape)
    for xi in (-0.5, 0.0, 0.7, 2.0):
        dec = shift_decompose(system, xi)
        rebuilt = dec.remainder.mat + xi * np.eye(4)
        assert np.linalg.norm(rebuilt - dec.source.mat) <= 1e-12


def test_from_parts_validates_self_adjointness():
    shape = ModuleShape(1, 2)
    crooked = ModuleOperator(shape, [[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InconsistentDecompositionError):
        ShiftDecomposition.from_parts(crooked, 1.0)


def test_large_shift_still_catches_a_wrong_remainder():
    # The drift allowance scales with ||S - xi*I||, so at xi = 1e6 it admits
    # rounding (about 1e-10) but not a remainder that is off by 1e-3.
    shape = ModuleShape(1, 2)
    source = identity_operator(shape, 2.0)
    xi = 1e6
    exact = ModuleOperator(shape, source.mat - xi * np.eye(2))
    assert ShiftDecomposition(xi=xi, remainder=exact, source=source).xi == xi
    wrong = ModuleOperator(shape, exact.mat + 1e-3 * np.eye(2))
    with pytest.raises(InconsistentDecompositionError):
        ShiftDecomposition(xi=xi, remainder=wrong, source=source)


# ---------------------------------------------------------------- diagnostics

def test_diagnostics_realized_psd_remainder(rng):
    # Frame realized from a prescribed operator T + xi*I with T PSD.
    shape = ModuleShape(1, 4)
    t_mat = random_psd(rng, 4)
    system = frame_from_operator(t_mat + 0.5 * np.eye(4), shape)
    diag = decomposition_diagnostics(system, 0.5)
    assert diag.frame_from_positivity.applicable
    assert diag.all_hold
    assert optimal_bounds(system).lower >= 0.5 - 1e-9


def test_diagnostics_onb_all_parts():
    system = FrameSystem(standard_basis(ModuleShape(1, 3)))
    diag = decomposition_diagnostics(system, 1.0)
    assert diag.all_hold
    assert diag.frame_from_positivity.applicable
    assert diag.positivity_from_lower_bound.applicable


def test_diagnostics_boundary_shift():
    # Shift exactly at the optimal lower bound: remainder PSD with zero floor.
    system = scalar_system([1.0, 0.0], [1.0, 0.0], [0.0, 1.0])
    diag = decomposition_diagnostics(system, 1.0)
    assert diag.positivity_from_lower_bound.applicable
    assert diag.positivity_from_lower_bound.holds
    assert abs(diag.positivity_from_lower_bound.slack) <= 1e-9


def test_diagnostics_inapplicable_parts_vacuous():
    system = scalar_system([1.0, 0.0], [1.0, 0.0], [0.0, 1.0])
    diag = decomposition_diagnostics(system, 1.5)
    assert not diag.frame_from_positivity.applicable
    assert not diag.positivity_from_lower_bound.applicable
    assert diag.all_hold


def test_positive_remainder_lifts_spectrum(rng):
    # Quantified form: lambda_min(T + xi*I) >= xi for PSD T.
    for _ in range(100):
        n = int(rng.integers(2, 7))
        t_mat = random_psd(rng, n)
        xi = float(rng.uniform(0.0, 2.0)) or 0.1
        w = hermitian_eigen(t_mat + xi * np.eye(n)).eigenvalues
        assert w[0] >= xi - 1e-9


def test_shift_below_lower_bound_stays_psd(rng):
    for _ in range(100):
        shape = ModuleShape(1, int(rng.integers(2, 5)))
        mat = random_psd(rng, shape.n) + 0.05 * np.eye(shape.n)
        system = frame_from_operator(mat, shape)
        lower = optimal_bounds(system).lower
        xi = float(rng.uniform(lower - 1.0, lower))
        dec = shift_decompose(system, xi)
        assert psd_check(dec.remainder.mat, 1e-9)


@settings(deadline=None, max_examples=200)
@given(scaled_frames(), st.one_of(st.floats(-1.0, 2.0), st.sampled_from((0.0, 1.0))))
def test_diagnostics_implications_hold_on_every_frame(system, shift):
    # xi = shift * A, A the optimal lower bound: shift 1 is the boundary of part 3.
    lower = optimal_bounds(system).lower
    xi = shift * lower
    diag = decomposition_diagnostics(system, xi)
    assert diag.all_hold
    # The hypotheses and conclusions again, on numpy's spectra of S and T = S - xi*I.
    spectrum = np.linalg.eigvalsh(system.frame_op.mat)
    remainder = np.linalg.eigvalsh(system.frame_op.mat - xi * np.eye(system.shape.dim))
    allowance = DEFAULT_TOL * max(spectrum[-1], abs(xi))
    # 1. T positive and xi > 0: a frame with bounds xi <= A and B <= ||T|| + |xi|.
    part = diag.frame_from_positivity
    if xi > 0 and remainder[0] > allowance:
        assert part.applicable
    if part.applicable:
        assert xi > 0 and remainder[0] >= -allowance
        assert spectrum[0] >= xi - allowance
        assert spectrum[-1] <= np.abs(remainder).max() + abs(xi) + allowance
    # 2. T is self-adjoint and bounded, always.
    part = diag.self_adjointness
    assert part.applicable and part.holds and part.slack <= ROUNDING_RTOL
    # 3. xi <= A: T is positive.
    part = diag.positivity_from_lower_bound
    assert part.applicable == (xi <= lower)
    if part.applicable:
        assert remainder[0] >= -allowance
        assert part.slack >= -allowance


# ---------------------------------------------------------- deviation witness

def test_deviation_identity_zero_eta():
    cert = deviation_certificate(identity_operator(ModuleShape(1, 2)), 1.0, 0.0)
    assert cert.holds
    assert abs(cert.slack) <= 1e-12


def test_deviation_scalar_failure():
    # |2 - 1| <= sqrt(1/2) * |1| is false, and the witness sees it.
    cert = deviation_certificate(identity_operator(ModuleShape(1, 2)), 2.0, 1.0)
    assert not cert.holds
    assert cert.slack == pytest.approx(-0.5, abs=1e-12)


def test_deviation_diagonal_holds():
    cert = deviation_certificate(diag_operator(1.0, 2.0), 1.5, 1.0)
    assert cert.holds
    assert cert.slack == pytest.approx(0.25, abs=1e-12)


def test_deviation_rejects_negative_eta():
    with pytest.raises(ValueError):
        deviation_certificate(identity_operator(ModuleShape(1, 2)), 1.0, -0.1)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7])
@pytest.mark.parametrize("eta", [0.0, 0.5, 1.0, 2.0])
def test_deviation_matches_scalar_inequality(alpha, eta):
    # For diagonal T the witness verdict must agree with the per-eigenvalue
    # test |alpha - t| <= eta/sqrt(1+eta^2) * |t|.
    c = eta / math.sqrt(1.0 + eta * eta)
    for t1 in (-1.0, 0.3, 1.0, 1.9):
        for t2 in (0.5, 1.2, 3.0):
            cert = deviation_certificate(diag_operator(t1, t2), alpha, eta)
            scalar = all(abs(alpha - t) <= c * abs(t) + 1e-12 for t in (t1, t2))
            assert cert.holds == scalar


def test_deviation_unitary_invariant(rng):
    # The witness is basis independent, so a conjugated spectrum-feasible
    # operator must pass: eigenvalues inside [alpha/(1+c), alpha/(1-c)].
    alpha, eta = 1.0, 0.75
    c = eta / math.sqrt(1.0 + eta * eta)
    lo, hi = alpha / (1.0 + c), alpha / (1.0 - c)
    for _ in range(10):
        values = rng.uniform(lo + 1e-6, hi - 1e-6, size=4)
        mat = unitary_conjugate(rng, values)
        cert = deviation_certificate(ModuleOperator(ModuleShape(1, 4), mat), alpha, eta)
        assert cert.holds


@settings(deadline=None, max_examples=200)
@given(scaled_frames(), st.floats(-1.0, 1.0), st.sampled_from((0.0, 0.5, 1.0, 3.0, 1e2, 1e4)),
       st.one_of(st.floats(-0.5, 1.5), st.sampled_from((0.0, 1.0))), st.integers(0, 2**32 - 1))
def test_deviation_certificate_decides_the_inequality_for_every_f(system, shift, eta, place,
                                                                   seed):
    # T = S - xi*I of a random frame, xi below the optimal lower bound, so T > 0.  The
    # inequality holds on T's eigenvectors for alpha in [t_max (1 - c), t_min (1 + c)]
    # (empty when t_max / t_min is large); alpha is at `place` across that window.
    spectrum = np.linalg.eigvalsh(system.frame_op.mat)
    xi = shift * spectrum[0]
    T = shift_decompose(system, xi).remainder
    csq = eta * eta / (1.0 + eta * eta)
    c = math.sqrt(csq)
    low, high = (spectrum[-1] - xi) * (1.0 - c), (spectrum[0] - xi) * (1.0 + c)
    alpha = low + place * (high - low)
    cert = deviation_certificate(T, alpha, eta)
    size = max(np.linalg.norm(T.mat), abs(alpha)) ** 2

    def excess(rep):
        """||alpha f - T f||^2 - c^2 ||T f||^2 for the vector f with this representation."""
        f = ModuleVector(T.shape, rep)
        image = apply_operator(T, f)
        return module_norm(alpha * f - image) ** 2 - csq * module_norm(image) ** 2

    # The witness again, and the single-row vectors of its eigenvectors x: row 1 of rep(f)
    # is x*, so the excess of f is -x* W x.
    shifted = alpha * np.eye(T.shape.dim) - T.mat
    witness = csq * (T.mat @ T.mat.conj().T) - shifted @ shifted.conj().T
    _, vectors = np.linalg.eigh((witness + witness.conj().T) / 2.0)
    single_rows = []
    for vector in vectors.T:
        rep = np.zeros((T.shape.d, T.shape.dim), dtype=complex)
        rep[0] = vector.conj()
        single_rows.append(rep)
    if cert.holds:
        # Sufficiency: X W X* >= lambda_min(W) X X*, so no f with ||f|| = 1 exceeds
        # -lambda_min(W) <= DEFAULT_TOL * size, beyond rounding.
        rng = np.random.default_rng(seed)
        reps = [random_complex(rng, T.shape.d, T.shape.dim) for _ in range(4)]
        for rep in single_rows + [rep / np.linalg.norm(rep, 2) for rep in reps]:
            assert excess(rep) <= 2.0 * DEFAULT_TOL * size
    else:
        # Necessity, made constructive: the slack is below -DEFAULT_TOL * size, a
        # million times rounding, and the lowest eigenvector's vector exceeds by it.
        assert cert.slack < -DEFAULT_TOL * size
        assert excess(single_rows[0]) >= -0.5 * cert.slack


# ------------------------------------------------------- alignment predicates

def test_alignment_equal_vectors():
    shape = ModuleShape(1, 2)
    f = ModuleVector(shape, [[1.0, 2.0]])
    for eta in (0.0, 0.5, 3.0):
        lhs, rhs = alignment_predicates(f, f, 1.0, eta)
        assert lhs and rhs


def test_alignment_orthogonal_vectors():
    shape = ModuleShape(1, 2)
    f = ModuleVector(shape, [[1.0, 0.0]])
    g = ModuleVector(shape, [[0.0, 1.0]])
    lhs, _ = alignment_predicates(f, g, 1.0, 0.0)
    assert not lhs


def test_alignment_probe_reports_rate():
    report = alignment_agreement_probe(
        ModuleShape(1, 2), alphas=[0.5, 1.0], etas=[0.0, 1.0], sample_count=25
    )
    assert report.samples == 100
    assert 0.0 <= report.rate <= 1.0
    # Deterministic under the fixed default seed.
    again = alignment_agreement_probe(
        ModuleShape(1, 2), alphas=[0.5, 1.0], etas=[0.0, 1.0], sample_count=25
    )
    assert report.agreements == again.agreements


# ------------------------------------------------------------- bound formulas

def test_bessel_bound_onb():
    dec = ShiftDecomposition.from_parts(
        ModuleOperator(ModuleShape(1, 2), np.zeros((2, 2))), 1.0
    )
    assert bessel_bound(dec) == pytest.approx(1.0)


def test_bessel_bound_attained():
    dec = ShiftDecomposition.from_parts(diag_operator(1.0, 0.0), 1.0)
    assert bessel_bound(dec) == pytest.approx(2.0)
    assert hermitian_eigen(dec.source.mat).eigenvalues[-1] == pytest.approx(2.0)


def test_bessel_bound_dominates_spectrum(rng):
    for _ in range(25):
        n = int(rng.integers(2, 6))
        t_mat = (lambda m: (m + m.conj().T) / 2)(random_complex(rng, n, n))
        xi = float(rng.uniform(-1.5, 1.5))
        dec = ShiftDecomposition.from_parts(ModuleOperator(ModuleShape(1, n), t_mat), xi)
        top = hermitian_eigen(dec.source.mat).eigenvalues[-1]
        assert top <= bessel_bound(dec) + 1e-9


def test_lower_bound_identity_remainder():
    dec = ShiftDecomposition.from_parts(identity_operator(ModuleShape(1, 2)), 0.0)
    est = frame_lower_bound(dec, 0.0)
    assert est.value == pytest.approx(1.0)
    assert not est.formula_only


def test_lower_bound_diagonal_case():
    dec = ShiftDecomposition.from_parts(diag_operator(2.0, 3.0), 0.5)
    est = frame_lower_bound(dec, 0.0)
    assert est.value == pytest.approx(1.5)
    assert hermitian_eigen(dec.source.mat).eigenvalues[0] >= est.value


def test_lower_bound_eta_discount():
    dec = ShiftDecomposition.from_parts(identity_operator(ModuleShape(1, 2)), 0.0)
    est = frame_lower_bound(dec, 1.0)
    assert est.value == pytest.approx(1.0 / math.sqrt(2.0))


def test_lower_bound_flags_indefinite_remainder():
    dec = ShiftDecomposition.from_parts(diag_operator(1.0, -2.0), 0.0)
    est = frame_lower_bound(dec, 0.0)
    assert est.formula_only
    assert est.rho == pytest.approx(1.0)


def test_lower_bound_accepts_user_rho():
    dec = ShiftDecomposition.from_parts(diag_operator(2.0, 3.0), 0.0)
    est = frame_lower_bound(dec, 0.0, rho=1.5)
    assert est.value == pytest.approx(1.5)
    with pytest.raises(ValueError):
        frame_lower_bound(dec, 0.0, rho=2.5)


def test_ordering_when_certificate_holds(rng):
    # Whenever the deviation inequality holds and L > 0:
    # L <= optimal lower <= optimal upper <= ||T|| + |xi|.
    alpha, eta = 2.0, 0.6
    c = eta / math.sqrt(1.0 + eta * eta)
    lo, hi = alpha / (1.0 + c), alpha / (1.0 - c)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        values = rng.uniform(lo + 1e-6, hi - 1e-6, size=n)
        t_mat = unitary_conjugate(rng, values)
        xi = float(rng.uniform(0.0, 0.5))
        shape = ModuleShape(1, n)
        system = frame_from_operator(t_mat + xi * np.eye(n), shape)
        dec = shift_decompose(system, xi)
        cert = deviation_certificate(dec.remainder, alpha, eta)
        assert cert.holds
        est = frame_lower_bound(dec, eta)
        if est.value <= 0:
            continue
        bounds = optimal_bounds(system)
        cap = bessel_bound(dec)
        assert est.value <= bounds.lower + 1e-9
        assert bounds.lower <= bounds.upper <= cap + 1e-9


# ------------------------------------------------------ perturbation sandwich

def test_perturbed_bounds_onb_epsilon():
    dec = ShiftDecomposition.from_parts(identity_operator(ModuleShape(1, 4)), 0.0)
    for eps in (0.01, 0.1, 0.3):
        low, high = perturbed_frame_bounds(dec, 0.0, eps)
        assert low == pytest.approx((1.0 - eps) ** 2, abs=1e-12)
        assert high == pytest.approx((1.0 + eps) ** 2, abs=1e-12)


def test_perturbed_bounds_degenerate_mu():
    dec = ShiftDecomposition.from_parts(diag_operator(2.0, 3.0), 0.5)
    low, high = perturbed_frame_bounds(dec, 0.0, 0.0)
    assert low == pytest.approx(frame_lower_bound(dec, 0.0).value)
    assert high == pytest.approx(bessel_bound(dec))


def test_perturbed_bounds_not_applicable():
    dec = ShiftDecomposition.from_parts(identity_operator(ModuleShape(1, 2)), 0.0)
    assert perturbed_frame_bounds(dec, 0.0, 1.0) is None
    assert perturbed_frame_bounds(dec, 0.0, 5.0) is None


def test_perturbed_bounds_rejects_negative_mu():
    dec = ShiftDecomposition.from_parts(identity_operator(ModuleShape(1, 2)), 0.0)
    with pytest.raises(ValueError):
        perturbed_frame_bounds(dec, 0.0, -0.1)


def test_perturbed_bounds_cover_actual(rng):
    base = FrameSystem(standard_basis(ModuleShape(1, 4)))
    dec = shift_decompose(base, 0.0)
    for eps in (0.01, 0.1, 0.3):
        vectors = list(standard_basis(ModuleShape(1, 4)))
        vectors[0] = (1.0 + eps) * vectors[0]
        bumped = FrameSystem(vectors)
        low, high = perturbed_frame_bounds(dec, 0.0, eps)
        actual = optimal_bounds(bumped)
        assert low - 1e-9 <= actual.lower
        assert actual.upper <= high + 1e-9


@st.composite
def perturbed_frames(draw):
    """(F, G, xi, eta): G is within synthesis distance about t * sqrt(L) of F, t < 1.

    F = U diag(s) V* is rescaled by 2^k, and its smallest singular value is
    either of the size of the rest or makes lambda_min / lambda_max as small
    as 2.5e-9, just above the frame threshold DEFAULT_TOL.  G moves F along a random
    direction, or along the singular pair that shrinks the smallest or grows
    the largest singular value: there the sandwich is attained.  L is the
    decomposition's lower-bound estimate for the shift xi and the slack eta.
    """
    d, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    count = n + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = count * d, n * d
    left, _ = np.linalg.qr(random_complex(rng, rows, cols))
    right, _ = np.linalg.qr(random_complex(rng, cols, cols))
    singular = rng.uniform(1.0, 2.0, cols)
    singular[0] = draw(st.sampled_from((1.0, 1e-1, 1e-2, 1e-3, 1e-4)))
    scale = math.ldexp(1.0, draw(st.integers(-200, 200)))
    synth = scale * (left * singular) @ right.conj().T
    base = FrameSystem(synth, shape=ModuleShape(d, n))
    lower = optimal_bounds(base).lower
    xi = draw(st.floats(-2.0, 0.25)) * lower
    eta = draw(st.sampled_from((0.0, 0.5, 1.0)))
    estimate = frame_lower_bound(shift_decompose(base, xi), eta).value
    fraction = draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                              st.sampled_from((0.5, 1.0 - 1e-6, 1.0 - 1e-12))))
    kind = draw(st.sampled_from(("random", "shrink", "grow")))
    if kind == "random":
        direction = random_complex(rng, rows, cols)
        direction /= np.linalg.norm(direction, 2)
    else:
        pick = 0 if kind == "shrink" else int(np.argmax(singular))
        sign = -1.0 if kind == "shrink" else 1.0
        direction = sign * np.outer(left[:, pick], right[:, pick].conj())
    moved = synth + fraction * math.sqrt(max(estimate, 0.0)) * direction
    return base, FrameSystem(moved, shape=base.shape), xi, eta


def _near_threshold_frame_against_itself():
    """F = Q diag(1e-4, 1, 1.4) Q^T, lambda_min / lambda_max = 5e-9, with G = F, xi = eta = 0."""
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    base = FrameSystem((q * np.array([1e-4, 1.0, 1.4])) @ q.T, shape=ModuleShape(1, 3))
    return base, base, 0.0, 0.0


# The explicit example sits at lambda_min / lambda_max = 5e-9: read off eigh(T* T),
# which squares S = X* X once more, sigma_min(T) would put the estimate L above
# the optimal lower bound itself (1.28e-8 against 1.00e-8, mu = 0).
@settings(deadline=None, max_examples=300)
@given(perturbed_frames())
@example(_near_threshold_frame_against_itself())
def test_perturbed_bounds_sandwich_every_nearby_family(frames):
    # Paley-Wiener-type perturbation (Christensen, An Introduction to Frames and
    # Riesz Bases, the chapter on perturbation): ||X_G - X_F|| <= mu < sqrt(L)
    # keeps G's optimal bounds in ((sqrt(L) - mu)^2, (mu + sqrt(||T|| + |xi|))^2),
    # judged with the allowance DEFAULT_TOL * high that `perturb` uses.
    base, other, xi, eta = frames
    mu = perturbation_distance(base, other)
    predicted = perturbed_frame_bounds(shift_decompose(base, xi), eta, mu)
    if predicted is None:
        return
    low, high = predicted
    actual = optimal_bounds(other)
    allowance = DEFAULT_TOL * high
    assert low - allowance <= actual.lower
    assert actual.upper <= high + allowance


# --------------------------------------------------------- dual decomposition

def test_dual_decomposition_zero_compact_part():
    shape = ModuleShape(1, 3)
    compact = ModuleOperator(shape, np.zeros((3, 3)))
    source = identity_operator(shape, 2.0)
    out = dual_decomposition(2.0, compact, source)
    np.testing.assert_allclose(out.mat, np.zeros((3, 3)), atol=1e-12)


def test_dual_decomposition_diagonal_example():
    shape = ModuleShape(1, 2)
    compact = diag_operator(1.0, 0.0)
    source = ModuleOperator(shape, np.diag([2.0, 1.0]))
    out = dual_decomposition(1.0, compact, source)
    np.testing.assert_allclose(out.mat, np.diag([-0.5, 0.0]), atol=1e-12)
    np.testing.assert_allclose(out.mat + np.eye(2), np.diag([0.5, 1.0]), atol=1e-12)


def test_dual_decomposition_profile_frame():
    profile = ScalarProfile("gaussian", xi=1.0, c=1.0)
    system, cert = profile_frame(profile, ModuleShape(1, 8))
    source = ModuleOperator(system.shape, cert.operator_matrix())
    compact = eigenprofile_operator(cert.alphas, cert.shape)
    out = dual_decomposition(cert.xi, compact, source)
    identity = (out.mat + np.eye(8) / cert.xi) @ source.mat
    assert np.linalg.norm(identity - np.eye(8)) <= 1e-9
    assert np.linalg.norm(out.mat @ source.mat + compact.mat / cert.xi) <= 1e-9


def test_dual_decomposition_rejects_zero_xi():
    shape = ModuleShape(1, 2)
    with pytest.raises(ValueError):
        dual_decomposition(0.0, identity_operator(shape, 0.0), identity_operator(shape))


def test_dual_decomposition_rejects_singular_source():
    shape = ModuleShape(1, 2)
    compact = diag_operator(0.0, -1.0)
    source = ModuleOperator(shape, np.diag([1.0, 0.0]))
    with pytest.raises(SingularMatrixError):
        dual_decomposition(1.0, compact, source)


def test_dual_decomposition_rejects_inconsistent_parts():
    shape = ModuleShape(1, 2)
    compact = diag_operator(1.0, 1.0)
    source = identity_operator(shape, 1.0)
    with pytest.raises(InconsistentDecompositionError):
        dual_decomposition(1.0, compact, source)


@settings(deadline=None, max_examples=200)
@given(scaled_frames(smallest=(1.0, 1e-1)), st.floats(0.01, 2.0), st.booleans())
def test_dual_decomposition_inverts_every_frame_operator(system, shift, negative):
    # lambda_max / lambda_min of S is at most 400 here: the inverse's own rounding,
    # about eps times that ratio, stays below ROUNDING_RTOL.
    xi = (-shift if negative else shift) * optimal_bounds(system).lower
    dec = shift_decompose(system, xi)
    out = dual_decomposition(xi, dec.remainder, dec.source)
    source = dec.source.mat
    identity = np.eye(system.shape.dim)
    # (T + xi^-1 I) S = T S + S / xi, judged at the size of the two terms that cancel to I.
    product = (out.mat + identity / xi) @ source
    assert relative_drift(identity, product, out.mat @ source, source / xi) <= ROUNDING_RTOL


def test_drift_checks_hold_past_overflow():
    # ||S||_F^2 overflows a double at 1e200, but a part that is off by a
    # factor of 2 must still be caught, and an exact one still pass.
    shape = ModuleShape(1, 2)
    source = identity_operator(shape, 1e200)
    assert ShiftDecomposition(xi=0.0, remainder=source, source=source).xi == 0.0
    with pytest.raises(InconsistentDecompositionError):
        ShiftDecomposition(xi=0.0, remainder=identity_operator(shape, 2e200), source=source)
    with pytest.raises(InconsistentDecompositionError):
        dual_decomposition(1e200, identity_operator(shape, 1e200), source)
    crooked = ModuleOperator(shape, [[1e200, 1e200], [0.0, 1e200]])
    with pytest.raises(InconsistentDecompositionError):
        ShiftDecomposition.from_parts(crooked, 0.0)


@pytest.mark.filterwarnings("error")
def test_eta_past_double_range_takes_the_limit():
    # eta^2 overflows at 1e155, where eta^2 / (1 + eta^2) has long been 1.0.
    for alpha in (0.5, 1.0, 2.0):
        huge = deviation_certificate(diag_operator(1.0, 2.0), alpha, 1e155)
        limit = deviation_certificate(diag_operator(1.0, 2.0), alpha, 1e150)
        assert (huge.holds, huge.slack) == (limit.holds, limit.slack)
        assert math.isfinite(huge.slack)
    shape = ModuleShape(1, 2)
    f = ModuleVector(shape, [[1.0, 2.0]])
    g = ModuleVector(shape, [[1.5, 1.0]])
    for alpha in (0.0, 1.0, 1.5):
        assert alignment_predicates(f, g, alpha, 1e155) == alignment_predicates(f, g, alpha, 1e150)
    assert alignment_predicates(f, f, 0.0, 1e155) == (True, True)
    zero = ModuleVector(shape, [[0.0, 0.0]])
    assert alignment_predicates(zero, g, 1.0, 1e155) == alignment_predicates(zero, g, 1.0, 1e150)
    # sqrt(1 + eta^2) is eta itself there: the lower bound is rho / eta, not 0.
    dec = ShiftDecomposition.from_parts(identity_operator(ModuleShape(1, 2)), 0.0)
    assert frame_lower_bound(dec, 1e155).value == 1e-155


# ------------------------------------------------- refusals and T's one route

def _onb_decomposition():
    return ShiftDecomposition.from_parts(identity_operator(ModuleShape(1, 2)), 0.0)


@pytest.mark.parametrize("call,message", [
    (lambda: frame_lower_bound(_onb_decomposition(), -0.5), "eta must be nonnegative"),
    (lambda: frame_lower_bound(_onb_decomposition(), 0.5, rho=-1.0), "rho must be nonnegative"),
    (lambda: alignment_predicates(ModuleVector(ModuleShape(1, 2), [[1.0, 0.0]]),
                                  ModuleVector(ModuleShape(1, 2), [[0.0, 1.0]]), 1.0, -0.5),
     "eta must be nonnegative"),
    (lambda: alignment_agreement_probe(ModuleShape(1, 2), [1.0], [0.5], sample_count=0),
     "sample_count must be >= 1"),
])
def test_decomposition_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_deviation_certificate_refuses_a_non_self_adjoint_operator():
    # The eigenvalue form of the witness holds for self-adjoint T only.
    crooked = ModuleOperator(ModuleShape(1, 2), [[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotHermitianError, match="^deviation_certificate: relative symmetry"):
        deviation_certificate(crooked, 1.0, 0.5)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4), st.floats(-3.0, 3.0), st.sampled_from((0.0, 0.5, 1.0, 3.0)),
       st.integers(0, 2**32 - 1))
def test_deviation_slack_is_the_witness_products_least_eigenvalue(dim, alpha, eta, seed):
    # c^2 M M* - (alpha I - M)(alpha I - M)* formed as products, for a self-adjoint M.
    rng = np.random.default_rng(seed)
    mat = unitary_conjugate(rng, rng.uniform(-2.0, 2.0, size=dim))
    mat = (mat + mat.conj().T) / 2
    csq = eta * eta / (1.0 + eta * eta)
    shifted = alpha * np.eye(dim) - mat
    witness = csq * (mat @ mat.conj().T) - shifted @ shifted.conj().T
    expected = np.linalg.eigvalsh((witness + witness.conj().T) / 2)[0]
    cert = deviation_certificate(ModuleOperator(ModuleShape(1, dim), mat), alpha, eta)
    assert abs(cert.slack - expected) <= 1e-12 * max(np.linalg.norm(mat), abs(alpha), 1.0) ** 2


def test_dual_decomposition_refuses_through_shift_decomposition():
    shape = ModuleShape(1, 2)
    with pytest.raises(InconsistentDecompositionError,
                       match=r"^remainder \+ xi\*I misses the source operator by"):
        dual_decomposition(1.0, diag_operator(1.0, 1.0), identity_operator(shape, 1.0))
    crooked = ModuleOperator(shape, [[0.0, 1.0], [0.0, 0.0]])
    source = ModuleOperator(shape, crooked.mat + np.eye(2))
    with pytest.raises(InconsistentDecompositionError, match="^remainder must be self-adjoint"):
        dual_decomposition(1.0, crooked, source)


@pytest.mark.filterwarnings("error")
def test_shift_past_double_range_overflows():
    # S = 1e308, so S - xi*I is 2e308 at xi = -1e308 and finite at xi = 1e308.
    system = FrameSystem(np.array([[1e154 + 0j]]), shape=ModuleShape(1, 1))
    with pytest.raises(OverflowError, match=r"^S - xi\*I is past the double range at xi = -1e\+308$"):
        shift_decompose(system, -1e308)
    assert np.isfinite(shift_decompose(system, 1e308).remainder.mat).all()
