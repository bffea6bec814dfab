"""Exception hierarchy for the hydrostat package."""


class HydrostatError(Exception):
    """Base class for all package errors."""


class InvalidGrid(HydrostatError):
    """Grid sizes are odd, too small, or otherwise unusable."""


class ShapeError(HydrostatError):
    """Array shape or grid mismatch between operands."""


class InvalidParameter(HydrostatError):
    """A scalar argument is outside its admissible range."""


class CompatibilityError(HydrostatError):
    """A field violates a structural constraint (divergence, vertical mean).

    Carries the measured defect so callers can report how far off the
    input was.
    """

    def __init__(self, message: str, defect: float = float("nan")):
        super().__init__(message)
        self.defect = defect


class OrderingError(HydrostatError):
    """Time samples handed to an accumulator went backwards."""


class InsufficientData(HydrostatError):
    """Not enough samples to finalize a norm or fit a rate."""


class BlowupDetected(HydrostatError):
    """The integrator produced NaN/Inf or the solution norm exploded."""

    def __init__(self, time: float, reason: str = "non-finite state"):
        super().__init__(f"blowup at t={time:.6g}: {reason}")
        self.time = time
        self.reason = reason


class FormatError(HydrostatError):
    """A snapshot file or a sweep CSV is malformed; ``offset`` is the failing
    byte position of a snapshot."""

    def __init__(self, message: str, offset: int = -1):
        super().__init__(message)
        self.offset = offset


class ScheduleInfeasible(HydrostatError):
    """No admissible continuation step above the minimum sample spacing."""


class ConfigError(HydrostatError):
    """Configuration file or sweep setup is invalid."""
