"""Exception taxonomy for opframe.

All exceptions derive from :class:`OpframeError` so callers can catch the
whole family at once.  Names mirror the failure they signal; none of them
carry extra state beyond the message.
"""


class OpframeError(Exception):
    """Base class for all opframe errors."""


class InvalidDimension(OpframeError):
    """Raised when vector/matrix dimensions do not match a model."""


class DomainViolation(OpframeError):
    """Raised when a vector lies outside a declared operator domain."""


class EmptySpan(OpframeError):
    """Raised when orthonormalization receives numerically zero input."""


class NotAFrame(OpframeError):
    """Raised when a frame-only operation meets a non-invertible frame operator."""


class InvalidIndex(OpframeError):
    """Raised for out-of-range partial-sum or label indices."""


class DegenerateOperator(OpframeError):
    """Raised when a bound is requested against a (numerically) zero operator."""


class RangeNotIncluded(OpframeError):
    """Raised when a required range inclusion R(K) in R(D) fails."""


class FactorizationFailed(OpframeError):
    """Raised when the minimum-norm factorization does not reproduce the operator."""


class NotSurjective(OpframeError):
    """Raised when a surjective operator is required and sigma_min / sigma_max ~ 0."""


class NotBiorthogonal(OpframeError):
    """Raised when a multiplier is requested from a non-biorthogonal pair."""


class GridTooCoarse(OpframeError):
    """Raised when a differential operator is requested on too few grid points."""


class GridMismatch(OpframeError):
    """Raised when shift/modulation parameters are incommensurate with the grid."""


class WindowOverflow(OpframeError):
    """Raised when a wavelet scale pushes support outside the window."""


class InvalidProbe(OpframeError):
    """Raised for unknown trajectory probe names."""


class InvalidScenario(OpframeError):
    """Raised when a scenario file fails schema validation."""
