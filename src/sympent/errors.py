"""Exception types shared across the toolkit."""


class SympentError(Exception):
    """Base class for every error this package raises but ``logbase.log_fn``'s ValueError."""


class DimensionError(SympentError):
    """Matrix or vector has an impossible shape (zero modes, odd size, mismatch)."""


class MalformedInputError(SympentError):
    """Input is structurally broken: NaN, infinite or asymmetric matrix, bad file, bad tag."""


class InvalidStateError(SympentError):
    """Finite symmetric matrix that is not positive definite, or an unphysical state."""


class InvalidPartitionError(SympentError):
    """Mode selection is empty, out of range, duplicated, overlapping, or incomplete."""


class UnphysicalEigenvalueError(SympentError):
    """Symplectic eigenvalue below the vacuum floor of 1/2."""


class ParameterError(SympentError):
    """Model or distribution parameter outside its validity domain."""


class NumericalFailureError(SympentError):
    """A numerical routine did not reach the requested accuracy."""


class TruncationError(SympentError):
    """Truncated number-basis representation leaves too much tail mass."""

    def __init__(self, message: str, required_n_max: int | None = None):
        super().__init__(message)
        self.required_n_max = required_n_max
