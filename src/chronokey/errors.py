"""Exception and warning types shared across the package, and the boolean check."""

from __future__ import annotations

import dataclasses


class ChronokeyError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ChronokeyError, ValueError):
    """A scalar argument or configuration value is out of its valid domain."""


def refuse_boolean_floats(instance) -> None:
    """Raise :class:`ParameterError` when a ``float`` field of a dataclass
    holds a ``bool``, which subclasses ``int`` and passes numeric checks."""
    for field in dataclasses.fields(instance):
        if field.type == "float" and isinstance(getattr(instance, field.name), bool):
            raise ParameterError(f"{field.name} must be a number, not a boolean")


class GridCoverageError(ChronokeyError, ValueError):
    """A sampling grid is too small to contain the state placed on it."""


class DecompositionError(ChronokeyError, RuntimeError):
    """A numerical factorization failed to converge."""


class ConfigError(ChronokeyError, ValueError):
    """A run-configuration document is malformed or contains unknown keys."""


class CoverageWarning(UserWarning):
    """Probability mass outside the measured window exceeds the reporting threshold."""


class ResolutionWarning(UserWarning):
    """Bins are coarse enough that the paper's bound ``log2(2*pi / (delta_omega *
    delta_t))`` parts from the exact ``-log2(sigma_max**2)`` of the overlap kernel."""


class PureNoiseWarning(UserWarning):
    """The detection model is dominated by dark counts; signal statistics are vacuous."""
