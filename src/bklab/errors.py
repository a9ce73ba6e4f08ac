"""Exception types shared across the package.

Every type derives from ``LabError``, which the command line turns into a
message and exit status 2.  ``PreconditionError`` says that what was asked
for does not exist for the inputs given, such as the counterexample law of a
moderate G.
"""


class LabError(Exception):
    """Base class for all package-specific failures."""


class DomainError(LabError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class PreconditionError(LabError):
    """A documented precondition of an operation does not hold."""


class ConditionViolationError(PreconditionError):
    """The tail-integrability condition G(t)/t^(p+1) integrable on (1, inf) fails.

    ``smallest_admissible_p`` carries the first larger exponent that would
    restore the condition, when one exists below the scan cap.
    """

    def __init__(self, message, smallest_admissible_p=None):
        super().__init__(message)
        self.smallest_admissible_p = smallest_admissible_p


class PrecisionError(LabError):
    """A requested tolerance cannot be met with the given inputs."""


class UnsupportedOperationError(LabError):
    """The requested (kind, mode) combination has no implementation."""


class ConfigurationError(LabError):
    """An experiment or test configuration is invalid."""


class DataError(LabError, ValueError):
    """Input data is malformed (non-finite path entries, unknown symbols)."""
