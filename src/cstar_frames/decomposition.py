"""Writing a frame operator as S = T + xi * I and what that buys.

The split isolates a real shift xi from a self-adjoint remainder
T = S - xi*I.  Three elementary consequences are checked numerically
(`decomposition_diagnostics`): a positive remainder with positive shift
certifies a frame with lower bound xi; the remainder is always bounded
and self-adjoint; and a shift at or below the optimal lower bound forces
the remainder positive.

The quantified inequality ||alpha f - T f|| <= eta/sqrt(1+eta^2) ||T f||
(over ALL f) compiles to a single matrix PSD test: with
c = eta/sqrt(1+eta^2) and M = mat(T), it holds exactly when

    c^2 M M* - (alpha I - M)(alpha I - M)*  is PSD.

Necessity comes from vectors whose representation has a single nonzero
row; sufficiency from the congruence X W X* of the PSD witness W.  No
sampling over f is involved.  T is self-adjoint, so W = c^2 M^2 - (alpha I - M)^2:
the inequality is |alpha - t| <= c|t| for each eigenvalue t of T.

From the split one also gets explicit frame-bound formulas: an upper
bound ||T|| + |xi|, a lower bound sigma_min(T)/sqrt(1+eta^2) - |xi|, and
a sandwich for any family within synthesis distance mu of the original.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentDecompositionError
from .frames import FrameSystem, frame_operator, optimal_bounds
from .linalg import (
    DEFAULT_TOL,
    ROUNDING_RTOL,
    _fold,
    _scaled_down,
    exceeds,
    frobenius,
    hermitian_eigen,
    hermitian_inverse,
    operator_norm,
    relative_drift,
)
from .module_space import (
    DEFAULT_SEED,
    ModuleOperator,
    ModuleVector,
    inner_product,
    module_norm,
    random_vector,
    require_same_shape,
)

@dataclass(frozen=True, eq=False)
class ShiftDecomposition:
    """S = remainder + xi * I, with the source operator kept alongside."""

    xi: float
    remainder: ModuleOperator
    source: ModuleOperator

    def __post_init__(self):
        dim = self.source.shape.dim
        recombined = self.remainder.mat + self.xi * np.eye(dim)
        # Judged at the size of S and xi, however much S and xi*I cancel in T.
        drift = relative_drift(self.source.mat, recombined, self.xi)
        if exceeds(drift, ROUNDING_RTOL):
            raise InconsistentDecompositionError(f"remainder + xi*I misses the source operator "
                                                 f"by {drift:.3e} (relative)")
        defect = relative_drift(self.remainder.mat, self.remainder.mat.conj().T, self.source.mat)
        if exceeds(defect, ROUNDING_RTOL):
            raise InconsistentDecompositionError(f"remainder must be self-adjoint; "
                                                 f"relative defect {defect:.3e}")

    @classmethod
    def from_parts(cls, remainder: ModuleOperator, xi: float) -> "ShiftDecomposition":
        """Build the decomposition of S := remainder + xi*I."""
        dim = remainder.shape.dim
        source = ModuleOperator(remainder.shape, remainder.mat + xi * np.eye(dim))
        return cls(xi=float(xi), remainder=remainder, source=source)


def _spectrum(mat) -> np.ndarray:
    """T's ascending eigenvalues, folded first: T's asymmetry from rounding S may dwarf T."""
    return hermitian_eigen(_fold(mat), vectors=False).eigenvalues


def _remainder_positive(dec: ShiftDecomposition, tol: float) -> tuple[bool, float]:
    """Whether lambda_min(T) >= -tol * max(||T||, |xi|) (S's and xi's size), and lambda_min(T)."""
    smallest, largest = _spectrum(dec.remainder.mat)[[0, -1]].tolist()
    return not exceeds(-smallest, tol, max(-smallest, largest, abs(dec.xi))), smallest


def shift_decompose(system: FrameSystem, xi: float) -> ShiftDecomposition:
    """Split the frame operator of `system` as (S - xi*I) + xi*I."""
    source = frame_operator(system)
    with np.errstate(over="ignore"):  # checked just below
        mat = source.mat - xi * np.eye(source.shape.dim)
    if not np.isfinite(mat).all():
        raise OverflowError(f"S - xi*I is past the double range at xi = {xi!r}")
    return ShiftDecomposition(xi=float(xi), remainder=ModuleOperator(source.shape, mat),
                              source=source)


@dataclass(frozen=True)
class PartCheck:
    """One implication: whether its hypothesis applied, whether it held, margin."""

    applicable: bool
    holds: bool
    slack: float | None


@dataclass(frozen=True)
class DecompositionDiagnostics:
    """The three shift-decomposition consequences, each checked with slack."""

    frame_from_positivity: PartCheck
    self_adjointness: PartCheck
    positivity_from_lower_bound: PartCheck

    @property
    def all_hold(self) -> bool:
        return (
            self.frame_from_positivity.holds
            and self.self_adjointness.holds
            and self.positivity_from_lower_bound.holds
        )


def decomposition_diagnostics(
    system: FrameSystem, xi: float, tol: float = DEFAULT_TOL
) -> DecompositionDiagnostics:
    """Check the three consequences of S = T + xi*I on a concrete frame.

    1. If T is positive and xi > 0: the optimal lower bound must reach
       xi and the optimal upper bound must stay below ||T|| + |xi|,
       within tol * max(upper bound, |xi|).
    2. T is self-adjoint with finite norm (always, by construction).
    3. If the optimal lower bound A satisfies xi <= A: T must be PSD.

    T counts as PSD down to -tol * max(||T||, |xi|).  Inapplicable
    hypotheses yield vacuously-true parts with slack None.
    """
    dec = shift_decompose(system, xi)
    bounds = optimal_bounds(system, tol)

    positive, _ = _remainder_positive(dec, tol)
    upper_cap = bessel_bound(dec)
    if positive and xi > 0:
        lower_margin = bounds.lower - xi
        upper_margin = upper_cap - bounds.upper
        size = max(bounds.upper, abs(xi))
        part1 = PartCheck(
            applicable=True,
            holds=not exceeds(-lower_margin, tol, size) and not exceeds(-upper_margin, tol, size),
            slack=min(lower_margin, upper_margin),
        )
    else:
        part1 = PartCheck(applicable=False, holds=True, slack=None)

    tmat = dec.remainder.mat
    defect = relative_drift(tmat, tmat.conj().T, dec.source.mat)
    part2 = PartCheck(
        applicable=True,
        holds=not exceeds(defect, ROUNDING_RTOL) and math.isfinite(np.abs(_spectrum(tmat)).max()),
        slack=defect,
    )

    if bounds.lower >= xi:
        holds, smallest = _remainder_positive(dec, tol)
        part3 = PartCheck(applicable=True, holds=holds, slack=smallest)
    else:
        part3 = PartCheck(applicable=False, holds=True, slack=None)

    return DecompositionDiagnostics(
        frame_from_positivity=part1,
        self_adjointness=part2,
        positivity_from_lower_bound=part3,
    )


@dataclass(frozen=True)
class DeviationCertificate:
    """Outcome of the all-f relative deviation test at fixed (alpha, eta).

    `slack` is the smallest eigenvalue of the PSD witness c^2 M^2 - (alpha I - M)^2,
    the least c^2 t^2 - (alpha - t)^2 over T's eigenvalues t; the inequality holds iff the
    slack is at least -DEFAULT_TOL * max(||M||_F, |alpha|) * max(||M||_F, |alpha|, |xi|)
    (-inf: past the double range).
    """

    alpha: float
    eta: float
    holds: bool
    slack: float


def _eta_fraction(eta: float) -> float:
    """eta^2 / (1 + eta^2), or its limit 1 where eta^2 overflows (inf / inf would be NaN)."""
    square = eta * eta
    return square / (1.0 + square) if square < math.inf else 1.0


def _eta_stretch(eta: float) -> float:
    """sqrt(1 + eta^2), or eta where eta^2 overflows (long after 1 + eta^2 rounds to eta^2)."""
    square = eta * eta
    return math.sqrt(1.0 + square) if square < math.inf else eta


def deviation_certificate(
    dec: ShiftDecomposition, alpha: float, eta: float
) -> DeviationCertificate:
    """Decide ||alpha f - T f|| <= c ||T f|| for all f, c = eta/sqrt(1+eta^2): |alpha - t| <= c|t|
    at each eigenvalue t of T = S - xi*I.  T may be rounding noise of S, which ShiftDecomposition
    accepts as self-adjoint at S's size: an error of DEFAULT_TOL * max(||T||_F, |xi|) in t moves
    the slack by about that times max(|t|, |alpha|), so the verdict's size is
    max(||T||_F, |alpha|) * max(||T||_F, |alpha|, |xi|)."""
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    # The witness squares T: take it on T/s, alpha/s and xi/s, s a power of two, and
    # scale its smallest eigenvalue back by s^2 (exact, unless that overflows).
    mat, scale = _scaled_down(dec.remainder.mat, max(abs(alpha), abs(dec.xi)))
    level = alpha / scale
    t = _spectrum(mat)
    reach, miss = math.sqrt(_eta_fraction(eta)) * np.abs(t), np.abs(level - t)
    least = float(((reach - miss) * (reach + miss)).min())  # factored: no squares cancel
    reference = max(frobenius(mat), abs(level))  # alpha - t may cancel: not its size
    size = reference * max(reference, abs(dec.xi) / scale)
    return DeviationCertificate(
        alpha=float(alpha),
        eta=float(eta),
        holds=not exceeds(-least, DEFAULT_TOL, size),
        slack=least * scale * scale,
    )


def alignment_predicates(
    f: ModuleVector, g: ModuleVector, alpha: float, eta: float
) -> tuple[bool, bool]:
    """Evaluate the two pointwise inequalities tying correlation to proximity.

    Left:  ||f|| ||g|| <= sqrt(1+eta^2) ||<f, g>||.
    Right: ||alpha f - g|| <= sqrt(eta^2/(1+eta^2)) ||g||.

    Comparisons carry a ROUNDING_RTOL relative margin so boundary cases
    (f = g with eta = 0, say) are not decided by a single rounding.  Both
    verdicts are returned as-is; no equivalence between them is assumed,
    the pair exists for empirical probing.
    """
    require_same_shape(f, g)
    if eta < 0:
        raise ValueError("eta must be nonnegative")

    pairs = (
        (module_norm(f) * module_norm(g), _eta_stretch(eta) * operator_norm(inner_product(f, g))),
        (module_norm(alpha * f - g), math.sqrt(_eta_fraction(eta)) * module_norm(g)),
    )
    lhs, rhs = (not exceeds(a - b, ROUNDING_RTOL, max(abs(a), abs(b))) for a, b in pairs)
    return lhs, rhs


@dataclass(frozen=True)
class AgreementReport:
    """Empirical agreement rate between the two alignment predicates."""

    samples: int
    agreements: int

    @property
    def rate(self) -> float:
        return self.agreements / self.samples


def alignment_agreement_probe(
    shape,
    alphas,
    etas,
    sample_count: int,
    seed: int = DEFAULT_SEED,
) -> AgreementReport:
    """Sample random vector pairs over an (alpha, eta) grid and count agreement.

    Purely observational: reports how often the two predicates coincide,
    with no claim that they must.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    samples = 0
    agreements = 0
    for _ in range(sample_count):
        f = random_vector(shape, rng)
        g = random_vector(shape, rng)
        for alpha in alphas:
            for eta in etas:
                lhs, rhs = alignment_predicates(f, g, alpha, eta)
                samples += 1
                agreements += int(lhs == rhs)
    return AgreementReport(samples=samples, agreements=agreements)


def bessel_bound(dec: ShiftDecomposition) -> float:
    """Upper frame bound ||T|| + |xi| implied by the decomposition."""
    return float(np.abs(_spectrum(dec.remainder.mat)).max()) + abs(dec.xi)


@dataclass(frozen=True)
class LowerBoundEstimate:
    """Lower frame bound rho/sqrt(1+eta^2) - |xi| from the decomposition.

    `formula_only` flags remainders with negative spectrum, where
    sigma_min no longer witnesses boundedness from below and the value
    is reported without that reading.
    """

    value: float
    rho: float
    formula_only: bool


def frame_lower_bound(
    dec: ShiftDecomposition, eta: float, rho: float | None = None
) -> LowerBoundEstimate:
    """Evaluate the decomposition's lower-bound formula.

    rho defaults to sigma_min(mat(T)), the sharpest admissible constant;
    a user-supplied rho must not exceed it beyond rounding (relative to ||T||_F).
    T is self-adjoint, so sigma_min(T) is the smallest |eigenvalue| of T
    itself: the eigenvalues of T* T, the square of S - xi*I, would lose the
    small ones near the frame threshold.
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    # _remainder_positive solves T again: the benchmark pins the eigensolves per command.
    sharpest = float(np.abs(_spectrum(dec.remainder.mat)).min())
    if rho is None:
        rho = sharpest
    elif rho < 0:
        raise ValueError("rho must be nonnegative")
    elif rho > sharpest and exceeds(relative_drift(sharpest, rho, dec.remainder.mat), ROUNDING_RTOL):
        raise ValueError(f"rho={rho} exceeds the sharpest admissible value {sharpest}")
    value = rho / _eta_stretch(eta) - abs(dec.xi)
    formula_only = not _remainder_positive(dec, DEFAULT_TOL)[0]
    return LowerBoundEstimate(value=value, rho=float(rho), formula_only=formula_only)


def perturbed_frame_bounds(
    dec: ShiftDecomposition,
    eta: float,
    mu: float,
    rho: float | None = None,
) -> tuple[float, float] | None:
    """Predicted bounds for any family within synthesis distance mu.

    With L the lower-bound estimate: applicable only when mu < sqrt(L),
    in which case the prediction is ((sqrt(L) - mu)^2,
    (mu + sqrt(||T|| + |xi|))^2).  Returns None when not applicable.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    lower = frame_lower_bound(dec, eta, rho).value
    if lower <= 0:
        return None
    root = math.sqrt(lower)
    if mu >= root:
        return None
    high = (mu + math.sqrt(bessel_bound(dec))) ** 2
    return ((root - mu) ** 2, high)


def dual_decomposition(
    xi: float,
    compact: ModuleOperator,
    source: ModuleOperator,
    tol: float = DEFAULT_TOL,
) -> ModuleOperator:
    """Compact part of the inverse: T with S^-1 = T + xi^-1 I.

    Requires S = compact + xi*I with xi nonzero and S invertible; then
    T := -xi^-1 * compact @ S^-1 satisfies (T + xi^-1 I) S = I and
    T S = -xi^-1 compact.  A source with lambda_min <= tol * lambda_max
    raises SingularMatrixError (from hermitian_inverse).
    """
    if xi == 0:
        raise ValueError("xi must be nonzero")
    require_same_shape(compact, source)
    ShiftDecomposition(xi, compact, source)  # raises unless source = compact + xi*I
    inverse = hermitian_inverse(source.mat, tol)
    mat = -(1.0 / xi) * (compact.mat @ inverse)
    return ModuleOperator(source.shape, mat)
