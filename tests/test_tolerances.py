"""The tolerance policy: no verdict depends on scale, and no threshold hides in a literal."""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cstar_frames.decomposition import (
    decomposition_diagnostics,
    deviation_certificate,
    frame_lower_bound,
    shift_decompose,
)
from cstar_frames.frames import FrameSystem, optimal_bounds
from cstar_frames.linalg import psd_check
from cstar_frames.module_space import ModuleShape
from cstar_frames.weaving import universal_bounds

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cstar_frames"

#: The two policy constants and the Jacobi reference's convergence target.
EXEMPT = {"DEFAULT_TOL", "ROUNDING_RTOL", "_JACOBI_OFFDIAG_RTOL"}


@st.composite
def scaling_cases(draw):
    """Two small integer families, a shift, (alpha, eta), and a power of two 2^k.

    Integer entries give exact zero vectors, tight and deficient frames, and
    shifts at an eigenvalue leave T singular up to rounding, so verdicts sit
    right at their thresholds.
    """
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 2))
    count = draw(st.integers(1, 4))
    parts = st.lists(st.integers(-3, 3), min_size=2 * count * d * n * d,
                     max_size=2 * count * d * n * d)

    def family():
        re_im = np.array(draw(parts), dtype=float).reshape(2, count * d, n * d)
        return re_im[0] + 1j * re_im[1]

    first, second = family(), family()
    shift = draw(st.sampled_from(("zero", "lower", "upper", "other")))
    # Multiples of 1/64, so that 4^k times them is exact for every k drawn.
    other, alpha = (draw(st.integers(-256, 1280)) / 64.0 for _ in range(2))
    eta = draw(st.sampled_from((0.0, 0.5, 1.0, 3.0)))
    k = draw(st.integers(-100, 100))
    return ModuleShape(d, n), first, second, shift, other, alpha, eta, k


@settings(deadline=None, max_examples=300)
@given(scaling_cases())
def test_verdicts_do_not_depend_on_scale(case):
    shape, first, second, shift, other, alpha, eta, k = case
    c = 2.0**k
    q = c * c  # 4^k: the frame operator scales by |c|^2
    base = FrameSystem(first, shape=shape)
    scaled = FrameSystem(c * first, shape=shape)

    bounds, scaled_bounds = optimal_bounds(base), optimal_bounds(scaled)
    assert (scaled_bounds.lower, scaled_bounds.upper) == (q * bounds.lower, q * bounds.upper)
    assert (scaled_bounds.is_frame, scaled_bounds.tight) == (bounds.is_frame, bounds.tight)

    xi = {"zero": 0.0, "lower": bounds.lower, "upper": bounds.upper, "other": other}[shift]
    dec, scaled_dec = shift_decompose(base, xi), shift_decompose(scaled, q * xi)
    assert psd_check(scaled_dec.remainder.mat) == psd_check(dec.remainder.mat)
    assert (frame_lower_bound(scaled_dec, eta).formula_only
            == frame_lower_bound(dec, eta).formula_only)
    deviation = deviation_certificate(dec, alpha, eta)
    scaled_deviation = deviation_certificate(scaled_dec, q * alpha, eta)
    assert scaled_deviation.holds == deviation.holds
    assert scaled_deviation.slack == q * q * deviation.slack

    diagnostics = decomposition_diagnostics(base, xi)
    scaled_diagnostics = decomposition_diagnostics(scaled, q * xi)
    for name in ("frame_from_positivity", "self_adjointness", "positivity_from_lower_bound"):
        part, scaled_part = getattr(diagnostics, name), getattr(scaled_diagnostics, name)
        assert (scaled_part.applicable, scaled_part.holds) == (part.applicable, part.holds)

    woven = universal_bounds([base, FrameSystem(second, shape=shape)])
    scaled_woven = universal_bounds([scaled, FrameSystem(c * second, shape=shape)])
    assert scaled_woven.is_woven == woven.is_woven
    assert scaled_woven.universal_lower == q * woven.universal_lower
    assert scaled_woven.universal_upper == q * woven.universal_upper


def _stray_literals(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    exempt = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in EXEMPT for t in node.targets)
    }
    return [
        f"{path.name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        and 0.0 < node.value < 1e-6 and id(node) not in exempt
    ]


def test_no_tolerance_literals_outside_the_policy():
    # A threshold belongs in DEFAULT_TOL or ROUNDING_RTOL (linalg), times a scale.
    files = sorted(SOURCE.glob("*.py"))
    assert files
    assert [hit for path in files for hit in _stray_literals(path)] == []


def test_stray_literal_is_caught(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("DEFAULT_TOL = 1e-9\nok = x > DEFAULT_TOL * y\nbad = x > 1e-12\n")
    assert _stray_literals(module) == ["module.py:3: 1e-12"]


#: The names a tolerance is read from.
TOLERANCES = {"tol", "DEFAULT_TOL", "ROUNDING_RTOL"}


def _names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _stray_verdicts(path: Path) -> list[str]:
    """Comparisons naming a tolerance, or a name bound to arithmetic on one, outside
    linalg.exceeds; a tolerance compared with a literal (an argument check) is allowed."""
    tree = ast.parse(path.read_text())
    rule = {
        id(node) for function in ast.walk(tree)
        if path.name == "linalg.py" and isinstance(function, ast.FunctionDef)
        and function.name == "exceeds" for node in ast.walk(function)
    }
    scaled = TOLERANCES | {
        target.id for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp)
        and _names(node.value) & TOLERANCES
        for target in node.targets if isinstance(target, ast.Name)
    }
    hits = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and id(node) not in rule and _names(node) & scaled
        and not all(isinstance(x, ast.Constant) or isinstance(x, ast.Name) and x.id in TOLERANCES
                    for x in (node.left, *node.comparators))
    ]
    return [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for node in sorted(hits, key=lambda node: (node.lineno, node.col_offset))]


def test_every_verdict_goes_through_exceeds():
    # One threshold rule: value > tol * size, in linalg.exceeds, or its negation.
    files = sorted(SOURCE.glob("*.py"))
    assert files
    assert [hit for path in files for hit in _stray_verdicts(path)] == []


def test_stray_verdict_is_caught(tmp_path):
    rule = "def exceeds(value, tol, size=1.0):\n    return value > tol * size\n"
    (tmp_path / "linalg.py").write_text(rule + "bad = x > tol * y\n")
    (tmp_path / "module.py").write_text(
        rule + "ok = tol < 0\nallowance = DEFAULT_TOL * y\nbad = x - allowance <= z\n"
        "worse = drift <= ROUNDING_RTOL\nfine = exceeds(drift, ROUNDING_RTOL)\n")
    assert _stray_verdicts(tmp_path / "linalg.py") == ["linalg.py:3: x > tol * y"]
    assert _stray_verdicts(tmp_path / "module.py") == [
        "module.py:2: value > tol * size",
        "module.py:5: x - allowance <= z",
        "module.py:6: drift <= ROUNDING_RTOL",
    ]


def test_scaled_identity_is_still_a_frame():
    # The orthonormal basis of A^4 scaled by 2^-20: bounds 2^-40 ~ 9e-13,
    # below an absolute 1e-9 but a frame at any scale.
    bounds = optimal_bounds(FrameSystem(2.0**-20 * np.eye(4), shape=ModuleShape(1, 4)))
    assert bounds.lower == bounds.upper == 2.0**-40
    assert bounds.is_frame and bounds.tight
