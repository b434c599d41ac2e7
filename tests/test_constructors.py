"""Profile frames, eigenvalue-profile operators, repetitions, uniqueness."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstar_frames.constructors import (
    CompactTightCert,
    ScalarProfile,
    eigenprofile_operator,
    profile_frame,
    repetition_frame,
    representation_unique,
)
from cstar_frames.decomposition import dual_decomposition
from cstar_frames.errors import LengthMismatchError, NotSameOperatorError, SingularMatrixError
from cstar_frames.frames import frame_operator, optimal_bounds
from cstar_frames.linalg import ROUNDING_RTOL, hermitian_eigen, relative_drift
from cstar_frames.module_space import ModuleOperator, ModuleShape


# ------------------------------------------------------------------ profiles

def test_profile_values_gaussian():
    profile = ScalarProfile("gaussian", xi=1.0, c=1.0)
    assert profile.eval(1) == pytest.approx(2.0)
    assert profile.eval(2) == pytest.approx(1.0 + math.exp(-0.5))
    assert profile.sup == pytest.approx(2.0)
    assert profile.limit == 1.0


def test_profile_values_geometric():
    profile = ScalarProfile("geometric", xi=2.0, c=1.0, r=0.5)
    np.testing.assert_allclose(profile.values(4), [2.5, 2.25, 2.125, 2.0625])
    assert profile.prefix_min(4) == pytest.approx(2.0 + 1.0 / 16.0)
    assert profile.sup == pytest.approx(2.5)


def test_profile_values_power():
    profile = ScalarProfile("power", xi=0.5, c=2.0, p=2.0)
    assert profile.eval(1) == pytest.approx(2.5)
    assert profile.eval(2) == pytest.approx(1.0)
    assert profile.limit == 0.5


def test_profile_constant():
    profile = ScalarProfile("constant", xi=1.5)
    assert profile.eval(1) == profile.eval(100) == 1.5
    assert profile.sup == profile.prefix_min(10) == 1.5


@pytest.mark.parametrize(
    "profile",
    [
        ScalarProfile("gaussian", xi=1.0, c=1.0),
        ScalarProfile("geometric", xi=0.0, c=2.0, r=0.9),
        ScalarProfile("power", xi=0.2, c=1.0, p=0.5),
    ],
)
def test_profile_monotone_decay(profile):
    # Strict decrease holds until the excess over the limit underflows in
    # doubles (gaussian does so near k = 40); past that the sequence sits
    # exactly at its limit.
    excess = np.array([profile.eval(int(k)) - profile.limit for k in range(1, 10_001)])
    assert np.all(excess >= 0)
    assert np.all(np.diff(excess) <= 0)
    live = excess > 1e-300
    assert live[0]
    assert np.all(np.diff(excess[live]) < 0)
    assert excess[-1] < excess[0]


def test_profile_validation():
    with pytest.raises(ValueError):
        ScalarProfile("exp", xi=1.0)
    with pytest.raises(ValueError):
        ScalarProfile("gaussian", xi=1.0, c=-1.0)
    with pytest.raises(ValueError):
        ScalarProfile("geometric", xi=1.0, c=1.0, r=1.5)
    with pytest.raises(ValueError):
        ScalarProfile("geometric", xi=1.0, c=1.0)
    with pytest.raises(ValueError):
        ScalarProfile("power", xi=1.0, c=1.0)
    with pytest.raises(ValueError):
        ScalarProfile("constant", xi=1.0, c=1.0)
    with pytest.raises(ValueError):
        ScalarProfile("gaussian", xi=1.0, c=1.0, p=2.0)
    with pytest.raises(ValueError):
        ScalarProfile("gaussian", xi=1.0, c=1.0).eval(0)


@pytest.mark.parametrize("make,message", [
    (lambda: ScalarProfile("gaussian", xi=math.inf, c=1.0), "profile limit xi must be finite"),
    (lambda: ScalarProfile("gaussian", xi=math.nan, c=1.0), "profile limit xi must be finite"),
    (lambda: ScalarProfile("power", xi=1.0, c=1.0, p=2.0, r=0.5),
     "ratio r only applies to geometric profiles, not 'power'"),
    (lambda: ScalarProfile("gaussian", xi=1.0, c=1.0).prefix_min(0), "count must be >= 1"),
    (lambda: profile_frame(ScalarProfile("gaussian", xi=1.0, c=1.0), ModuleShape(1, 3), count=0),
     "count must be >= 1"),
])
def test_profile_refusals_name_their_cause(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


# ------------------------------------------------------------- profile frame

def test_profile_frame_reference_bounds():
    system, cert = profile_frame(ScalarProfile("gaussian", xi=1.0, c=1.0), ModuleShape(1, 8))
    report = optimal_bounds(system)
    profile = cert.profile
    assert report.upper == pytest.approx(2.0, abs=1e-12)
    assert report.lower == pytest.approx(profile.prefix_min(8), abs=1e-12)
    # The construction's asymptotic bounds are valid but not optimal here.
    assert profile.limit <= report.lower
    assert report.upper <= profile.sup + 1e-12


def test_profile_frame_constant_is_onb():
    system, cert = profile_frame(ScalarProfile("constant", xi=1.0), ModuleShape(2, 3))
    report = optimal_bounds(system)
    assert report.tight
    assert report.lower == pytest.approx(1.0)
    np.testing.assert_allclose(eigenprofile_operator(cert.alphas, cert.shape).mat, np.zeros((6, 6)))


def test_profile_frame_geometric_bounds():
    profile = ScalarProfile("geometric", xi=2.0, c=1.0, r=0.5)
    system, _ = profile_frame(profile, ModuleShape(1, 4))
    report = optimal_bounds(system)
    assert report.lower == pytest.approx(2.0 + 1.0 / 16.0, abs=1e-12)
    assert report.upper == pytest.approx(2.5, abs=1e-12)


def test_profile_frame_spectrum_matches_prefix_extremes():
    for profile in (
        ScalarProfile("gaussian", xi=0.5, c=2.0),
        ScalarProfile("power", xi=1.0, c=1.0, p=1.5),
    ):
        for d in (1, 2):
            shape = ModuleShape(d, 5)
            system, _ = profile_frame(profile, shape)
            w = hermitian_eigen(frame_operator(system).mat).eigenvalues
            assert w[0] == pytest.approx(profile.prefix_min(5), abs=1e-10)
            assert w[-1] == pytest.approx(profile.sup, abs=1e-10)


def test_profile_frame_certificate_consistency():
    profile = ScalarProfile("gaussian", xi=1.0, c=1.0)
    shape = ModuleShape(2, 4)
    system, cert = profile_frame(profile, shape)
    drift = np.linalg.norm(frame_operator(system).mat - cert.operator_matrix())
    assert drift <= 1e-10 * max(1.0, np.linalg.norm(cert.operator_matrix()))
    alphas = cert.alphas
    np.testing.assert_allclose(
        alphas, [profile.eval(k) - 1.0 for k in range(1, 5)], atol=1e-12
    )


def test_profile_frame_truncation():
    profile = ScalarProfile("gaussian", xi=1.0, c=1.0)
    system, cert = profile_frame(profile, ModuleShape(1, 5), count=3)
    assert len(system) == 3
    report = optimal_bounds(system)
    assert report.lower == 0.0  # two basis directions uncovered
    assert not report.is_frame
    np.testing.assert_allclose(
        cert.alphas[3:], np.zeros(2), atol=1e-12
    )


def test_profile_frame_validation():
    profile = ScalarProfile("gaussian", xi=1.0, c=1.0)
    with pytest.raises(ValueError):
        profile_frame(profile, ModuleShape(1, 3), count=4)
    with pytest.raises(ValueError):
        profile_frame(ScalarProfile("gaussian", xi=-1.0, c=1.0), ModuleShape(1, 3))
    with pytest.raises(ValueError):
        profile_frame(ScalarProfile("gaussian", xi=1.0, c=0.0), ModuleShape(1, 3))


# ----------------------------------------------------- eigenprofile operator

def test_eigenprofile_zero():
    op = eigenprofile_operator([0.0, 0.0], ModuleShape(1, 2))
    np.testing.assert_allclose(op.mat, np.zeros((2, 2)))


def test_eigenprofile_diagonal():
    op = eigenprofile_operator([1.0, 2.0], ModuleShape(1, 2))
    np.testing.assert_allclose(op.mat, np.diag([1.0, 2.0]))


def test_eigenprofile_multiplicity():
    op = eigenprofile_operator([1.0, 2.0], ModuleShape(3, 2))
    w = hermitian_eigen(op.mat).eigenvalues
    np.testing.assert_allclose(w, [1.0] * 3 + [2.0] * 3)


def test_eigenprofile_shift_floor():
    # Smallest eigenvalue of T + xi*I equals min(alpha) + xi when positive.
    op = eigenprofile_operator([-0.5, 3.0], ModuleShape(1, 2))
    w = hermitian_eigen(op.mat + 1.0 * np.eye(2)).eigenvalues
    assert w[0] == pytest.approx(0.5, abs=1e-12)


def test_eigenprofile_shift_floor_random(rng):
    for _ in range(50):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 3))
        alphas = rng.uniform(-0.5, 3.0, size=n)
        xi = float(rng.uniform(-alphas.min() + 0.01, -alphas.min() + 2.0))
        assert alphas.min() + xi > 0
        op = eigenprofile_operator(alphas, ModuleShape(d, n))
        w = hermitian_eigen(op.mat + xi * np.eye(n * d)).eigenvalues
        assert abs(w[0] - (alphas.min() + xi)) <= 1e-10


def test_eigenprofile_length_mismatch():
    with pytest.raises(LengthMismatchError):
        eigenprofile_operator([1.0], ModuleShape(1, 2))


# ----------------------------------------------------------------- repetition

def test_repetition_trivial_is_onb():
    system, cert = repetition_frame(ModuleShape(1, 3), {1: 1})
    assert len(system) == 3
    np.testing.assert_allclose(frame_operator(system).mat, np.eye(3))
    np.testing.assert_allclose(eigenprofile_operator(cert.alphas, cert.shape).mat, np.zeros((3, 3)))
    assert cert.permutation == ()


def test_repetition_single_double():
    system, _ = repetition_frame(ModuleShape(1, 2), {1: 2})
    np.testing.assert_allclose(frame_operator(system).mat, np.diag([2.0, 1.0]))
    report = optimal_bounds(system)
    assert (report.lower, report.upper) == (1.0, 2.0)


def test_repetition_integer_spectrum():
    system, cert = repetition_frame(ModuleShape(1, 3), {1: 3, 3: 2})
    w = hermitian_eigen(frame_operator(system).mat).eigenvalues
    np.testing.assert_allclose(np.sort(w), [1.0, 2.0, 3.0], atol=1e-12)
    kw = hermitian_eigen(eigenprofile_operator(cert.alphas, cert.shape).mat).eigenvalues
    assert int(np.sum(kw > 1e-9)) == 2
    assert cert.permutation == (1, 3)


@pytest.mark.parametrize("d", [1, 2])
def test_repetition_rank_scales_with_algebra(d):
    _, cert = repetition_frame(ModuleShape(d, 5), {1: 3, 4: 2})
    kw = hermitian_eigen(eigenprofile_operator(cert.alphas, cert.shape).mat).eigenvalues
    assert int(np.sum(kw > 1e-9)) == 2 * d


def test_repetition_exact_operator():
    shape = ModuleShape(2, 3)
    system, cert = repetition_frame(shape, {2: 4})
    expected = np.eye(6) + np.kron(np.diag([0.0, 3.0, 0.0]), np.eye(2))
    np.testing.assert_allclose(frame_operator(system).mat, expected, atol=0)
    np.testing.assert_allclose(cert.operator_matrix(), expected, atol=0)


def test_repetition_validation():
    with pytest.raises(ValueError):
        repetition_frame(ModuleShape(1, 3), {4: 2})
    with pytest.raises(ValueError):
        repetition_frame(ModuleShape(1, 3), {1: 0})


# ----------------------------------------------------------------- uniqueness

def make_reference_cert():
    _, cert = profile_frame(ScalarProfile("gaussian", xi=1.0, c=1.0), ModuleShape(1, 6))
    return cert


def test_uniqueness_same_certificate():
    cert = make_reference_cert()
    verdict = representation_unique(cert, cert)
    assert verdict.equal


def test_uniqueness_rejects_shifted_redeclaration():
    # Same finite operator, re-declared with shift 0.9: the carried profile
    # then tends to 1, not to the new shift, so the part is not compact.
    cert = make_reference_cert()
    shifted = CompactTightCert(
        cert.shape,
        0.9,
        cert.alphas + 0.1,
        profile=cert.profile,
        permutation=cert.permutation,
    )
    verdict = representation_unique(cert, shifted)
    assert not verdict.equal
    assert "compact" in verdict.reason


def test_uniqueness_independent_constructions_agree():
    profile = ScalarProfile("gaussian", xi=1.0, c=1.0)
    _, cert_a = profile_frame(profile, ModuleShape(1, 6))
    manual = CompactTightCert(
        ModuleShape(1, 6),
        1.0,
        [profile.eval(k) - 1.0 for k in range(1, 7)],
        profile=profile,
        permutation=tuple(range(1, 7)),
    )
    verdict = representation_unique(cert_a, manual)
    assert verdict.equal


def test_uniqueness_requires_same_operator():
    cert = make_reference_cert()
    other = CompactTightCert(
        cert.shape,
        2.0,
        cert.alphas,
        profile=ScalarProfile("gaussian", xi=2.0, c=1.0),
        permutation=cert.permutation,
    )
    with pytest.raises(NotSameOperatorError):
        representation_unique(cert, other)


def test_uniqueness_distinct_shifts_of_one_operator():
    # diag(2, 1) as (1, 0) + 1 and as (1.5, 0.5) + 0.5: both parts are eventually
    # zero, so the two representations differ by the constant 0.5 * I.
    shape = ModuleShape(1, 2)
    verdict = representation_unique(CompactTightCert(shape, 1.0, [1.0, 0.0]),
                                    CompactTightCert(shape, 0.5, [1.5, 0.5]))
    assert not verdict.equal
    assert verdict.reason.startswith("shifts 1 and 0.5 differ")


def test_uniqueness_compact_parts_differ_below_the_operator_tolerance():
    # At xi = 1e6 the two operators agree within DEFAULT_TOL of their size,
    # but the compact parts themselves differ by 1e-4 of theirs.
    shape = ModuleShape(1, 2)
    verdict = representation_unique(CompactTightCert(shape, 1e6, [1.0, 0.0]),
                                    CompactTightCert(shape, 1e6, [1.0, 1e-4]))
    assert not verdict.equal
    assert verdict.reason == "equal shifts but compact parts differ by 1.000e-04 (relative)"


@pytest.mark.parametrize("kwargs,message", [
    (dict(alphas=[0.0, 0.0, 0.0], permutation=(1, 1)), "permutation entries must be distinct"),
    (dict(), "needs 'alphas' when no profile is given"),
    (dict(alphas=[0.0, 0.0]), "alphas must be 3 finite numbers"),
    (dict(alphas=[0.0, 0.0, math.nan]), "alphas must be 3 finite numbers"),
])
def test_certificate_refusals_name_their_cause(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CompactTightCert(ModuleShape(2, 3), 1.0, **kwargs)


@pytest.mark.filterwarnings("error")
def test_certificate_past_double_range_refused():
    # alphas and xi are finite; the frame operator alphas + xi they certify is not.
    with pytest.raises(ValueError, match=r"^alphas \+ xi is past the double range at xi = 1e\+308$"):
        CompactTightCert(ModuleShape(1, 2), 1e308, [1e308, 0.0])


@pytest.mark.filterwarnings("error")
def test_certificate_profile_values_past_double_range_refused():
    # l_1 is about 1.7e308 and xi -1.7e308, so the derived alpha l_1 - xi is not finite.
    profile = ScalarProfile("gaussian", xi=1.7e308, c=1e300)
    with pytest.raises(ValueError, match=r"^l_k - xi is past the double range at xi = -1\.7e\+308$"):
        CompactTightCert(ModuleShape(1, 1), -1.7e308, profile=profile, permutation=(1,))


def test_certificate_rejects_profile_mismatch():
    profile = ScalarProfile("gaussian", xi=1.0, c=1.0)
    with pytest.raises(ValueError):
        CompactTightCert(
            ModuleShape(1, 2),
            1.0,
            [5.0, 5.0],
            profile=profile,
            permutation=(1, 2),
        )


def test_certificate_alphas_are_read_only():
    cert = CompactTightCert(ModuleShape(2, 3), 1.0, [0.5, 0.0, 2.0])
    with pytest.raises(ValueError):
        cert.alphas[0] = 1.0
    np.testing.assert_array_equal(cert.operator_matrix(),
                                  np.kron(np.diag([1.5, 1.0, 3.0]), np.eye(2)))


# ------------------------------------------------------------ dual certificate

@settings(deadline=None, max_examples=300)
@given(st.integers(1, 6), st.integers(1, 3), st.data())
def test_dual_certificate_matches_dual_decomposition(n, d, data):
    # The spectrum of S is drawn in [-1, 10], so S is singular in some draws.
    xi = data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(st.floats(1e-3, 10.0))
    spectrum = data.draw(st.lists(st.floats(-1.0, 10.0), min_size=n, max_size=n))
    alphas = np.array(spectrum) - xi
    shape = ModuleShape(d, n)
    cert = CompactTightCert(shape, xi, alphas, permutation=tuple(range(1, n + 1)))
    dual = cert.dual()
    source = ModuleOperator(shape, cert.operator_matrix())
    try:
        reference = dual_decomposition(xi, eigenprofile_operator(alphas, shape), source)
    except SingularMatrixError:
        assert dual is None
        return
    assert dual is not None
    assert dual.xi == 1.0 / xi and dual.permutation == cert.permutation
    blocks = eigenprofile_operator(dual.alphas, shape).mat
    assert relative_drift(reference.mat, blocks) <= ROUNDING_RTOL
    # Going back divides by xi^-1 + beta = 1 / (alpha + xi), which cancels
    # when alpha + xi is large against xi: that growth bounds the error.
    back = dual.dual()
    growth = max(1.0, float(np.abs(alphas + xi).max()) / abs(xi))
    assert back is not None and back.xi == 1.0 / dual.xi
    assert relative_drift(cert.alphas, back.alphas, xi) <= ROUNDING_RTOL * growth


def test_dual_certificate_none_and_signed_zero():
    shape = ModuleShape(2, 2)
    assert CompactTightCert(shape, 0.0, [1.0, 2.0]).dual() is None
    assert CompactTightCert(shape, 1.0, [0.0, -1.0]).dual() is None  # S singular
    assert CompactTightCert(shape, 1e-320, [0.5, 0.0]).dual() is None  # 1/xi overflows
    dual = CompactTightCert(shape, 2.0, [0.0, 2.0]).dual()
    assert dual.xi == 0.5
    assert [a.hex() for a in dual.alphas.tolist()] == [(0.0).hex(), (-0.25).hex()]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("profile", [
    dict(kind="gaussian", xi=1e308, c=1e308),
    dict(kind="power", xi=1e308, c=1e308, p=2.0),
    dict(kind="geometric", xi=1.7e308, c=1e308, r=0.9),
])
def test_profile_supremum_past_double_range(profile):
    with pytest.raises(ValueError, match="profile supremum l_1 = inf is past the double range"):
        ScalarProfile(**profile)


def test_profile_supremum_at_the_edge_of_the_double_range():
    profile = ScalarProfile("geometric", xi=0.0, c=1e308, r=0.99)
    assert profile.sup == 1e308 * 0.99
