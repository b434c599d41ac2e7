"""Frames and Bessel systems in finite Hilbert C*-modules.

The module is H = A^n over the matrix algebra A = M_d(C), with vectors
held in a row-block matrix representation.  On top of a LAPACK Hermitian
eigensolver (with a self-contained Jacobi iteration kept as its test
reference) the package computes optimal frame bounds, shift
decompositions S = T + xi*I with their diagnostic inequalities,
compact-tight frame constructions with certificates, canonical duals,
and exhaustive weaving analysis.
"""

from .constructors import (
    CompactTightCert,
    ScalarProfile,
    UniquenessVerdict,
    eigenprofile_operator,
    profile_frame,
    repetition_frame,
    representation_unique,
)
from .decomposition import (
    AgreementReport,
    DecompositionDiagnostics,
    DeviationCertificate,
    LowerBoundEstimate,
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
from .errors import (
    FrameFileError,
    InconsistentDecompositionError,
    LengthMismatchError,
    NoConvergenceError,
    NotAFrameError,
    NotHermitianError,
    NotPSDError,
    NotSameOperatorError,
    NotSquareError,
    ShapeMismatchError,
    SingularMatrixError,
    TooManyPartitionsError,
)
from .frame_io import (
    LoadedFrame,
    frame_to_payload,
    load_frame,
    payload_to_frame,
    save_frame,
)
from .frames import (
    BoundsReport,
    FrameSystem,
    analysis,
    dual_frame,
    frame_from_operator,
    frame_operator,
    optimal_bounds,
    perturbation_distance,
    synthesis,
    synthesis_matrix,
)
from .linalg import (
    DEFAULT_TOL,
    SpectralResult,
    hermitian_eigen,
    hermitian_inverse,
    operator_norm,
    psd_check,
    psd_sqrt,
    sigma_min,
)
from .module_space import (
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
from .weaving import (
    AdversarialScenario,
    Partition,
    WeavingReport,
    adversarial_scenario,
    universal_bounds,
    weaving_operator,
)

__version__ = "0.1.0"
