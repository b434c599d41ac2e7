"""Compact-tight constructions: profile frames, repetitions, duals.

Scaling an orthonormal basis by the square roots of a decreasing
sequence l_k -> xi produces a frame whose operator is xi*I plus a
decaying diagonal part.  The certificate records the profile; the
representation is unique at profile level; and the canonical dual is
again of the same form with shift 1/xi.
"""

import numpy as np

from cstar_frames import (
    CompactTightCert,
    ModuleOperator,
    ModuleShape,
    ScalarProfile,
    dual_decomposition,
    eigenprofile_operator,
    frame_operator,
    optimal_bounds,
    profile_frame,
    repetition_frame,
    representation_unique,
)

print("== reference construction: l_k = 1 + exp(-(k-1)^2 / 2), 8 vectors ==")
profile = ScalarProfile("gaussian", xi=1.0, c=1.0)
system, cert = profile_frame(profile, ModuleShape(1, 8))
bounds = optimal_bounds(system)
print(f"profile values: {np.round(profile.values(8), 6)}")
print(f"optimal bounds: ({bounds.lower:.12f}, {bounds.upper:.12f})")
print(f"asymptotic claim (xi, sup l_k) = ({profile.limit:g}, {profile.sup:g}) "
      f"is valid but not optimal at finite truncation")
print(f"certificate: shift {cert.xi}, compact-part eigenvalues "
      f"{np.round(cert.alphas, 6)}")

print("\n== a finite-rank variant: repeat basis directions ==")
rep_system, rep_cert = repetition_frame(ModuleShape(1, 5), {1: 3, 4: 2})
w = np.linalg.eigvalsh(frame_operator(rep_system).mat)
print(f"{len(rep_system)} vectors, frame operator spectrum {np.round(w, 12)}")
print(f"compact part is rank {int(np.sum(np.abs(rep_cert.alphas) > 0))} "
      f"with integer weights {rep_cert.alphas}")

print("\n== uniqueness of the representation S = K + xi*I ==")
verdict = representation_unique(cert, cert)
print(f"same certificate twice: equal={verdict.equal}")
shifted = CompactTightCert(
    cert.shape, 0.9, cert.alphas + 0.1, profile=cert.profile, permutation=cert.permutation
)
verdict = representation_unique(cert, shifted)
print(f"same operator re-declared with shift 0.9: equal={verdict.equal}")
print(f"  reason: {verdict.reason}")

print("\n== the canonical dual keeps the structure, with shift 1/xi ==")
dual_cert = cert.dual()
inverse_check = dual_cert.operator_matrix() @ cert.operator_matrix()
print(f"(T + xi^-1 I) S = I up to {np.linalg.norm(inverse_check - np.eye(8)):.2e}")
print(f"dual certificate: shift {dual_cert.xi}, compact-part eigenvalues "
      f"{np.round(dual_cert.alphas, 6)}")
print("(each equals 1/l_k - 1/xi, a sequence that again tends to 0)")
source = ModuleOperator(system.shape, cert.operator_matrix())
dense = dual_decomposition(cert.xi, eigenprofile_operator(cert.alphas, cert.shape), source)
print(f"dense form -xi^-1 K S^-1 agrees up to "
      f"{np.linalg.norm(dense.mat - np.diag(dual_cert.alphas)):.2e}")
