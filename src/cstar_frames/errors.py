"""Exception types shared across the package."""


class NotSquareError(ValueError):
    """A square matrix was required."""


class NotHermitianError(ValueError):
    """Input exceeded the Hermitian symmetry tolerance."""


class NoConvergenceError(RuntimeError):
    """An eigensolver failed: LAPACK reported no convergence, or the Jacobi
    reference hit its sweep cap."""


class NotPSDError(ValueError):
    """A positive semidefinite matrix was required."""


class SingularMatrixError(ValueError):
    """Smallest eigenvalue at or below the invertibility tolerance."""


class ShapeMismatchError(ValueError):
    """Module shapes (d, n) of the operands disagree."""


class LengthMismatchError(ValueError):
    """Sequence lengths of the operands disagree."""


class NotAFrameError(ValueError):
    """Optimal lower bound at or below the tolerance; no frame inverse exists."""


class InconsistentDecompositionError(ValueError):
    """The claimed operator pieces do not add up to the source operator."""


class NotSameOperatorError(ValueError):
    """Two certificates claim to describe different operators."""


class TooManyPartitionsError(ValueError):
    """Exhaustive partition enumeration would exceed the configured cap."""


class FrameFileError(ValueError):
    """A frame file failed to parse or violated its schema."""
