"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one pass line per
criterion; any assertion failure keeps the corresponding line silent and
fails the run.
"""

import json
import math
import time

import numpy as np

from cstar_frames.cli import main as cli_main
from cstar_frames.constructors import (
    ScalarProfile,
    eigenprofile_operator,
    profile_frame,
    repetition_frame,
)
from cstar_frames.decomposition import (
    ShiftDecomposition,
    bessel_bound,
    deviation_certificate,
    dual_decomposition,
    frame_lower_bound,
    shift_decompose,
)
from cstar_frames.frames import (
    FrameSystem,
    dual_frame,
    frame_operator,
    optimal_bounds,
)
from cstar_frames.linalg import hermitian_eigen, psd_check
from cstar_frames.module_space import (
    ModuleOperator,
    ModuleShape,
    cauchy_schwarz_probe,
    identity_operator,
    inner_product,
    left_mul,
    random_operator,
    random_vector,
    standard_basis,
    zero_vector,
)
from cstar_frames.weaving import adversarial_scenario, universal_bounds, weaving_operator

from conftest import random_complex
from test_linalg import char_roots_2x2, char_roots_3x3


def passed(line: str) -> None:
    print(f"[PASS] {line}")


def test_criterion_01_reference_profile_frame_bounds():
    started = time.perf_counter()
    system, _ = profile_frame(ScalarProfile("gaussian", xi=1.0, c=1.0), ModuleShape(1, 8))
    report = optimal_bounds(system)
    elapsed = time.perf_counter() - started
    assert abs(report.lower - (1.0 + math.exp(-32.0))) <= 1e-9
    assert abs(report.upper - 2.0) <= 1e-9
    assert elapsed < 1.0
    passed(
        f"criterion 1: gaussian profile frame (d=1, n=N=8) has bounds "
        f"({report.lower:.17g}, {report.upper:.17g}) within 1e-9 of (1+e^-32, 2) "
        f"in {elapsed * 1000:.1f} ms"
    )


def test_criterion_02_positive_remainder_lifts_floor():
    rng = np.random.default_rng(2)
    for _ in range(200):
        dim = int(rng.integers(1, 13))
        g = random_complex(rng, dim, dim)
        t_mat = g.conj().T @ g
        xi = float(rng.uniform(0.0, 2.0)) or 2.0
        w = hermitian_eigen(t_mat + xi * np.eye(dim)).eigenvalues
        assert w[0] >= xi - 1e-9
    passed("criterion 2: 200 seeded PSD remainders, lambda_min(T + xi*I) >= xi - 1e-9")


def test_criterion_03_shift_below_lower_bound_is_psd():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(2, 5) if d == 1 else rng.integers(2, 4))
        shape = ModuleShape(d, n)
        count = n + int(rng.integers(0, 3))
        system = FrameSystem([random_vector(shape, rng) for _ in range(count)])
        lower = optimal_bounds(system).lower
        xi = float(rng.uniform(lower - 1.0, lower))
        dec = shift_decompose(system, xi)
        assert psd_check(dec.remainder.mat, 1e-9)
    passed("criterion 3: 100 seeded frames, S - xi*I is PSD whenever xi <= optimal lower bound")


def test_criterion_04_bound_ordering_at_zero_eta():
    rng = np.random.default_rng(4)
    # The inequality chain is checked both where the zero-eta deviation
    # certificate genuinely holds (scalar remainders) and for general PSD
    # remainders, where the formulas must still order the spectrum.
    for _ in range(100):
        dim = int(rng.integers(1, 13))
        alpha = float(rng.uniform(0.1, 3.0))
        xi = float(rng.uniform(-1.0, 1.0))
        shape = ModuleShape(1, dim)
        remainder = identity_operator(shape, alpha)
        cert = deviation_certificate(ShiftDecomposition.from_parts(remainder, 0.0), alpha, 0.0)
        assert cert.holds
        dec = ShiftDecomposition.from_parts(remainder, xi)
        lower_est = frame_lower_bound(dec, 0.0).value
        w = hermitian_eigen(dec.source.mat).eigenvalues
        assert lower_est <= w[0] + 1e-9
        assert w[-1] <= bessel_bound(dec) + 1e-9
    for _ in range(100):
        dim = int(rng.integers(1, 13))
        g = random_complex(rng, dim, dim)
        t_mat = g.conj().T @ g
        xi = float(rng.uniform(-1.0, 1.0))
        shape = ModuleShape(1, dim)
        dec = ShiftDecomposition.from_parts(ModuleOperator(shape, t_mat), xi)
        lower_est = frame_lower_bound(dec, 0.0).value
        w = hermitian_eigen(dec.source.mat).eigenvalues
        assert lower_est <= w[0] + 1e-9
        assert w[-1] <= bessel_bound(dec) + 1e-9
    passed(
        "criterion 4: 100 certified + 100 general PSD instances keep "
        "sigma_min(T)-|xi| <= lambda_min(S) and lambda_max(S) <= ||T||+|xi|"
    )


def test_criterion_05_perturbation_sandwich():
    from cstar_frames.decomposition import perturbed_frame_bounds
    from cstar_frames.frames import perturbation_distance

    basis = standard_basis(ModuleShape(1, 4))
    base = FrameSystem(basis)
    dec = shift_decompose(base, 0.0)
    for eps in (0.01, 0.1, 0.3):
        bumped = FrameSystem([(1.0 + eps) * basis[0]] + list(basis[1:]))
        mu = perturbation_distance(base, bumped)
        assert abs(mu - eps) <= 1e-12
        low, high = perturbed_frame_bounds(dec, 0.0, mu)
        actual = optimal_bounds(bumped)
        assert low - 1e-9 <= actual.lower
        assert actual.upper <= high + 1e-9
        assert abs(low - (1.0 - eps) ** 2) <= 1e-9
        assert abs(high - (1.0 + eps) ** 2) <= 1e-9
    passed(
        "criterion 5: scaled-vector perturbations of the rank-4 basis stay inside "
        "the predicted ((1-eps)^2, (1+eps)^2) sandwich for eps in {0.01, 0.1, 0.3}"
    )


def test_criterion_06_profile_operator_floor_equality():
    rng = np.random.default_rng(6)
    for _ in range(50):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(2, 7))
        alphas = rng.uniform(-0.5, 3.0, size=n)
        xi = float(-alphas.min() + rng.uniform(0.01, 2.0))
        assert alphas.min() + xi > 0
        op = eigenprofile_operator(alphas, ModuleShape(d, n))
        w = hermitian_eigen(op.mat + xi * np.eye(n * d)).eigenvalues
        assert abs(w[0] - (alphas.min() + xi)) <= 1e-10
    passed(
        "criterion 6: 50 seeded eigenvalue profiles give "
        "lambda_min(T + xi*I) = min(alpha) + xi within 1e-10"
    )


def test_criterion_07_repetition_spectrum_and_rank():
    for d in (1, 2):
        system, cert = repetition_frame(ModuleShape(d, 5), {1: 3, 4: 2})
        w = hermitian_eigen(frame_operator(system).mat).eigenvalues
        expected = np.sort(np.repeat([3.0, 2.0, 1.0, 1.0, 1.0], d))
        np.testing.assert_allclose(np.sort(w), expected, atol=1e-12)
        kw = hermitian_eigen(eigenprofile_operator(cert.alphas, cert.shape).mat).eigenvalues
        assert int(np.sum(kw > 1e-9)) == 2 * d
    passed(
        "criterion 7: repetition frame (n=5, counts {1:3, 4:2}) has spectrum "
        "{3, 2, 1, 1, 1} within 1e-12 and compact-part rank 2d"
    )


def test_criterion_08_dual_identities_and_reconstruction():
    rng = np.random.default_rng(8)
    cases = [
        profile_frame(ScalarProfile("gaussian", xi=1.0, c=1.0), ModuleShape(1, 8)),
        repetition_frame(ModuleShape(1, 5), {1: 3, 4: 2}),
    ]
    for system, cert in cases:
        dim = system.shape.dim
        source = ModuleOperator(system.shape, cert.operator_matrix())
        compact = eigenprofile_operator(cert.alphas, cert.shape)
        remainder = dual_decomposition(cert.xi, compact, source)
        inv_identity = (remainder.mat + np.eye(dim) / cert.xi) @ source.mat
        assert np.linalg.norm(inv_identity - np.eye(dim)) <= 1e-9
        assert np.linalg.norm(
            remainder.mat @ source.mat + compact.mat / cert.xi
        ) <= 1e-9
        dual = dual_frame(system)
        for _ in range(50):
            f = random_vector(system.shape, rng)
            total = zero_vector(system.shape)
            for vec, dvec in zip(system, dual):
                total = total + left_mul(inner_product(f, dvec), vec)
            assert np.linalg.norm(total.rep - f.rep) <= 1e-9
    passed(
        "criterion 8: dual decompositions satisfy (T + xi^-1 I) S = I and "
        "T S = -xi^-1 K within 1e-9; canonical duals reconstruct 50 random vectors"
    )


def test_criterion_09_adversarial_pair_desk_scale():
    profile = ScalarProfile("gaussian", xi=0.0, c=1.0)
    minima = []
    for size in (4, 8, 12):
        scenario = adversarial_scenario(size, profile, profile)
        mixed = weaving_operator(
            [scenario.frame_a, scenario.frame_b], scenario.adversarial
        )
        target = eigenprofile_operator(scenario.cert_a.alphas + scenario.cert_b.alphas,
                                       scenario.cert_a.shape).mat
        assert np.linalg.norm(mixed.mat - target) <= 1e-12
        smallest = float(hermitian_eigen(mixed.mat).eigenvalues[0])
        envelope = 2.0 * (profile.eval(size - 1) + profile.eval(size - 1))
        assert smallest <= envelope
        minima.append(smallest)
        assert optimal_bounds(scenario.frame_a).lower >= 1.0 - 1e-9
        assert optimal_bounds(scenario.frame_b).lower >= 1.0 - 1e-9
    assert minima[0] > minima[1] > minima[2]
    passed(
        "criterion 9: adversarial weaving equals K1 + K2 within 1e-12, its floor "
        "decays under the vanishing envelope at sizes 4, 8, 12, and each family "
        "alone stays a frame with floor >= 1"
    )


def test_criterion_10_kernel_oracle_and_module_inequality():
    rng = np.random.default_rng(10)
    for _ in range(20):
        raw = random_complex(rng, 2, 2)
        h = (raw + raw.conj().T) / 2
        w = hermitian_eigen(h).eigenvalues
        np.testing.assert_allclose(w, char_roots_2x2(h), atol=1e-10)
    for _ in range(10):
        raw = random_complex(rng, 3, 3)
        h = (raw + raw.conj().T) / 2
        w = hermitian_eigen(h).eigenvalues
        np.testing.assert_allclose(w, char_roots_3x3(h), atol=1e-10)
    shapes = [ModuleShape(1, 2), ModuleShape(1, 4), ModuleShape(2, 2), ModuleShape(2, 3)]
    worst = -np.inf
    for i in range(100):
        shape = shapes[i % len(shapes)]
        op = random_operator(shape, rng)
        worst = max(worst, cauchy_schwarz_probe(op, 5, seed=1000 + i))
    assert worst <= 1e-9
    passed(
        "criterion 10: eigensolver matches characteristic-polynomial roots on "
        f"30 fixed matrices to 1e-10; worst sampled module inequality violation "
        f"{worst:.2e} <= 1e-9 over 100 operators"
    )


def test_criterion_11_weaving_exhaustion_determinism():
    basis = standard_basis(ModuleShape(1, 3))
    first = FrameSystem(basis)
    second = FrameSystem([math.sqrt(2.0) * e for e in basis])
    reports = [universal_bounds([first, second], workers=w) for w in (1, 2, 8)]
    for report in reports:
        assert abs(report.universal_lower - 1.0) <= 1e-10
        assert abs(report.universal_upper - 2.0) <= 1e-10
        assert report.partitions_checked == 8
        assert report.universal_lower == reports[0].universal_lower
        assert report.universal_upper == reports[0].universal_upper
        assert report.worst_partition.assignment == reports[0].worst_partition.assignment
    passed(
        "criterion 11: basis vs sqrt(2)-basis exhaustion gives universal bounds "
        "(1, 2) within 1e-10 over 8 partitions, identically for 1, 2, 8 workers"
    )


def _run_cli_json(capsys, *argv):
    code = cli_main([*argv, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_criterion_12_cli_round_trip_bit_identical(capsys, tmp_path):
    def decimal17(x: float) -> str:
        return format(x, ".17g")

    # Profile constructor at the reference parameters.
    system, _ = profile_frame(ScalarProfile("gaussian", xi=1.0, c=1.0), ModuleShape(1, 8))
    memory = optimal_bounds(system)
    _run_cli_json(capsys, "construct", "t4", "--kind", "gaussian", "--xi", "1",
                  "--c", "1", "--n", "8", "--out", str(tmp_path / "t4.json"))
    report = _run_cli_json(capsys, "analyze", str(tmp_path / "t4.json"))
    assert decimal17(report["bounds"]["lower"]) == decimal17(memory.lower)
    assert decimal17(report["bounds"]["upper"]) == decimal17(memory.upper)

    # Repetition constructor.
    system, _ = repetition_frame(ModuleShape(1, 5), {1: 3, 4: 2})
    memory = optimal_bounds(system)
    _run_cli_json(capsys, "construct", "repetition", "--n", "5",
                  "--repeat", "1:3,4:2", "--out", str(tmp_path / "rep.json"))
    report = _run_cli_json(capsys, "analyze", str(tmp_path / "rep.json"))
    assert decimal17(report["bounds"]["lower"]) == decimal17(memory.lower)
    assert decimal17(report["bounds"]["upper"]) == decimal17(memory.upper)

    # Adversarial pair constructor.
    profile = ScalarProfile("gaussian", xi=0.0, c=1.0)
    scenario = adversarial_scenario(8, profile, profile)
    memory_a = optimal_bounds(scenario.frame_a)
    memory_b = optimal_bounds(scenario.frame_b)
    built = _run_cli_json(capsys, "construct", "t49", "--n", "8",
                          "--profile1", "gaussian:1", "--profile2", "gaussian:1",
                          "--out", str(tmp_path / "sc"))
    report_a = _run_cli_json(capsys, "analyze", built["files"]["a"])
    report_b = _run_cli_json(capsys, "analyze", built["files"]["b"])
    assert decimal17(report_a["bounds"]["lower"]) == decimal17(memory_a.lower)
    assert decimal17(report_a["bounds"]["upper"]) == decimal17(memory_a.upper)
    assert decimal17(report_b["bounds"]["lower"]) == decimal17(memory_b.lower)
    assert decimal17(report_b["bounds"]["upper"]) == decimal17(memory_b.upper)
    passed(
        "criterion 12: construct -> serialize -> parse -> analyze reproduces "
        "in-memory bounds bit-identically (17 significant digits) for all three "
        "constructors"
    )
