"""Splitting a frame operator as S = T + xi*I and using the pieces.

The split turns frame questions into spectral statements about the
remainder T: positivity of T with xi > 0 certifies a frame, the formulas
||T|| + |xi| and sigma_min(T)/sqrt(1+eta^2) - |xi| bracket the optimal
bounds, and any family within synthesis distance mu inherits a
quantitative sandwich.
"""

import numpy as np

from cstar_frames import (
    FrameSystem,
    ModuleShape,
    bessel_bound,
    decomposition_diagnostics,
    deviation_certificate,
    frame_lower_bound,
    optimal_bounds,
    perturbation_distance,
    perturbed_frame_bounds,
    shift_decompose,
    standard_basis,
)

shape = ModuleShape(d=1, n=4)
basis = standard_basis(shape)
system = FrameSystem([basis[0], basis[0], basis[1], basis[2], basis[3]])
bounds = optimal_bounds(system)
print(f"frame bounds: ({bounds.lower:g}, {bounds.upper:g})")

for xi in (0.5, 1.0, 1.5):
    dec = shift_decompose(system, xi)
    diag = decomposition_diagnostics(system, xi)
    floor = np.linalg.eigvalsh(dec.remainder.mat)[0]
    print(f"\nxi = {xi}: remainder floor {floor:+.3f}")
    print(f"  positive remainder certifies the frame?  "
          f"applicable={diag.frame_from_positivity.applicable}, "
          f"holds={diag.frame_from_positivity.holds}")
    print(f"  xi below the optimal lower bound forces positivity?  "
          f"applicable={diag.positivity_from_lower_bound.applicable}, "
          f"holds={diag.positivity_from_lower_bound.holds}")
    print(f"  upper-bound formula ||T|| + |xi| = {bessel_bound(dec):g} "
          f">= optimal upper {bounds.upper:g}")

print("\n== deviation certificate: is T inside a relative cone around alpha? ==")
dec = shift_decompose(system, 0.0)
for alpha, eta in ((1.5, 1.0), (1.5, 0.5), (2.0, 0.2)):
    cert = deviation_certificate(dec, alpha, eta)
    print(f"alpha={alpha}, eta={eta}: holds={cert.holds} (witness floor {cert.slack:+.3f})")

est = frame_lower_bound(dec, eta=1.0)
print(f"\nlower-bound formula at eta=1: {est.value:.6f} "
      f"(sharpest rho = {est.rho:g}, actual floor {bounds.lower:g})")

print("\n== perturbation sandwich around the plain basis ==")
base = FrameSystem(basis)
base_dec = shift_decompose(base, 0.0)
for eps in (0.05, 0.2, 0.8):
    bumped = FrameSystem([(1 + eps) * basis[0]] + list(basis[1:]))
    mu = perturbation_distance(base, bumped)
    predicted = perturbed_frame_bounds(base_dec, 0.0, mu)
    actual = optimal_bounds(bumped)
    if predicted is None:
        print(f"eps={eps}: mu={mu:g} too large, prediction not applicable")
    else:
        low, high = predicted
        print(f"eps={eps}: predicted [{low:.4f}, {high:.4f}], "
              f"actual [{actual.lower:.4f}, {actual.upper:.4f}]")
