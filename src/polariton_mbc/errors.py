"""Typed exceptions shared across the package."""

__all__ = [
    "PolaritonError",
    "StopBandError",
    "ResonanceScanError",
    "BranchError",
    "StepSizeError",
    "ConfigError",
    "ToleranceError",
]


class PolaritonError(Exception):
    """Base class for domain errors raised by this package."""


class StopBandError(PolaritonError):
    """A propagating-wave quantity was requested inside the stop band."""


class ResonanceScanError(PolaritonError):
    """A window's mode indices pass 2^53, where consecutive modes are no
    longer distinct doubles."""


class BranchError(PolaritonError):
    """The requested dispersion branch has no solution for this query."""


class StepSizeError(PolaritonError):
    """A finite-difference step is unusable for the wave being resolved."""


class ConfigError(PolaritonError):
    """Malformed configuration file, key, or value."""


class ToleranceError(PolaritonError):
    """A numerical self-check exceeded its configured tolerance; outputs
    holds what the failing run still writes, to show the failure."""

    def __init__(self, message: str, outputs=()):
        super().__init__(message)
        self.outputs = outputs
