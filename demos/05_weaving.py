"""Weaving analysis: exhaustive universal bounds and the adversarial pair.

Two families are woven when every mixed selection (vector j from one
family or the other) remains a frame with common bounds.  At small sizes
the definition can be checked by brute force.  The second half builds
the classic obstruction pair, whose degenerate mixture has a smallest
eigenvalue that collapses as the size grows.
"""

import math

import numpy as np

from cstar_frames import (
    FrameSystem,
    ModuleShape,
    ScalarProfile,
    adversarial_scenario,
    hermitian_eigen,
    optimal_bounds,
    standard_basis,
    universal_bounds,
    weaving_operator,
)

print("== exhaustive check: basis vs sqrt(2)-scaled basis ==")
basis = standard_basis(ModuleShape(1, 3))
first = FrameSystem(basis)
second = FrameSystem([math.sqrt(2.0) * e for e in basis])
report = universal_bounds([first, second])
print(f"{report.partitions_checked} partitions enumerated")
print(f"universal bounds: ({report.universal_lower:g}, {report.universal_upper:g}), "
      f"woven={report.is_woven}")
print(f"worst partition (family per position): {report.worst_partition.assignment}")

print("\n== the adversarial interleaved pair ==")
profile = ScalarProfile("gaussian", xi=0.0, c=1.0)
print("each family is an orthonormal basis on half the positions plus a")
print("decaying tail on the other half; alone, both are solid frames:")
scenario = adversarial_scenario(8, profile, profile)
for label, fam in (("A", scenario.frame_a), ("B", scenario.frame_b)):
    b = optimal_bounds(fam)
    print(f"  family {label}: bounds ({b.lower:.6f}, {b.upper:.6f})")

mixed = weaving_operator([scenario.frame_a, scenario.frame_b], scenario.adversarial)
target = np.diag(scenario.cert_a.alphas + scenario.cert_b.alphas)
print(f"\nmixing the two tails cancels both basis halves:")
print(f"  weaving operator equals the sum of the two compact parts "
      f"up to {np.linalg.norm(mixed.mat - target):.2e}")

print("\ndecay of the degenerate weaving floor with the scenario size:")
print(f"{'size':>6} {'floor':>14} {'vanishing envelope':>20}")
for size in (4, 6, 8, 10, 12):
    sc = adversarial_scenario(size, profile, profile)
    op = weaving_operator([sc.frame_a, sc.frame_b], sc.adversarial)
    floor = hermitian_eigen(op.mat).eigenvalues[0]
    envelope = 2.0 * (profile.eval(size - 1) + profile.eval(size - 1))
    print(f"{size:>6} {floor:>14.3e} {envelope:>20.3e}")
print("\nno positive universal lower bound survives the growth of the index")
print("set, so the two families cannot be woven at scale; the finite sizes")
print("above render that collapse quantitatively.")
