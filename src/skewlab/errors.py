"""Exception types shared across the package."""

import math


class SkewlabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SkewlabError):
    """Invalid construction parameters or experiment configuration."""


class BracketUndefinedError(SkewlabError):
    """Bracket requested for sequences that are too far apart."""


class NonConvergenceError(SkewlabError):
    """A truncated limit failed to meet tolerance within the iteration cap.

    Carries the diagnostics collected so far in ``diagnostics``.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class CertificateViolationError(SkewlabError):
    """A declared regularity bound was violated by a sampled witness."""


def check_counts(**counts):
    """Raise ConfigurationError naming the first count that is not >= 1."""
    for name, v in counts.items():
        if not v >= 1:
            raise ConfigurationError("%s must be >= 1, got %r" % (name, v))


def check_positive(**values):
    """Raise ConfigurationError naming the first value that is not > 0 (nan fails)."""
    for name, v in values.items():
        if not v > 0:
            raise ConfigurationError("%s must be > 0, got %r" % (name, v))


def check_finite(**values):
    """Raise ConfigurationError naming the first value that is not finite."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise ConfigurationError("%s must be finite, got %r" % (name, v))
