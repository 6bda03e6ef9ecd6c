"""Exception hierarchy shared by all relaxdiff modules.

The CLI maps these onto process exit codes (see cli.EXIT_*); library users
catch them directly.
"""


class RelaxdiffError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(RelaxdiffError, ValueError):
    """Array shapes are incompatible with the requested operation."""


class ParameterError(RelaxdiffError, ValueError):
    """A parameter violates its documented constraint."""


class RangeError(RelaxdiffError, ValueError):
    """Input values lie outside the declared interval."""


class SymmetryError(RelaxdiffError, ValueError):
    """A tensor that must be symmetric is not, beyond tolerance."""


class SolverError(RelaxdiffError, RuntimeError):
    """An iterative linear solve failed to reach its tolerance.

    Carries the final relative residual in ``residual``.
    """

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class InvariantViolation(RelaxdiffError, RuntimeError):
    """A run-time invariant of the integration was violated.

    ``diagnostic`` holds a dict describing the offending cell.
    """

    def __init__(self, message: str, diagnostic: dict | None = None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}


class FitError(RelaxdiffError, ValueError):
    """A regression/fit could not be performed on the given trace."""


class ImageIOError(RelaxdiffError, OSError):
    """Base class for failures to read or write an image or trace file."""


class MissingFileError(ImageIOError):
    """The input image file does not exist."""


class MalformedHeaderError(ImageIOError):
    """The PNM header could not be parsed or is unsupported."""


class TruncatedPayloadError(ImageIOError):
    """The PNM payload is shorter than the header promises."""
