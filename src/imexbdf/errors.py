"""Exception types shared across the package, and the one step-size
check that every layer taking a tau uses."""

import math


class ImexBdfError(Exception):
    """Base class for all package errors."""


class DomainError(ImexBdfError, ValueError):
    """An argument lies outside the supported range (e.g. step number k)."""


class CoercivityError(ImexBdfError, ValueError):
    """An operator or coefficient field fails the positivity requirement."""


class ComputationError(ImexBdfError, RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""


class StepError(ImexBdfError, RuntimeError):
    """A time step could not be completed (solver failure, bad history)."""


class ConfigError(ImexBdfError, ValueError):
    """A run configuration is malformed or inconsistent."""


class FitError(ImexBdfError, ValueError):
    """Not enough usable data points for a least-squares order fit."""


class ReportError(ImexBdfError, ValueError):
    """A report cannot be serialized (e.g. it is empty)."""


class UnsupportedOperationError(ImexBdfError, TypeError):
    """The requested operation is not available for this backend."""


def _check_tau(tau) -> None:
    if not 0.0 < tau < math.inf:  # NaN fails too
        raise DomainError(f"step size must be positive and finite, got {tau}")
