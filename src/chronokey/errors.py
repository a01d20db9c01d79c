"""Exception and warning types shared across the package, and the number checks."""

from __future__ import annotations

import dataclasses
import math

import numpy as np


class ChronokeyError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ChronokeyError, ValueError):
    """A scalar argument or configuration value is out of its valid domain."""


def is_boolean(value) -> bool:
    """True for a ``bool`` or a ``numpy.bool_``, which pass numeric checks but are not numbers."""
    return isinstance(value, (bool, np.bool_))


def is_int(value) -> bool:
    """True for a Python integer; ``bool`` subclasses ``int`` but is refused."""
    return isinstance(value, int) and not isinstance(value, bool)


def finite_positive(*values) -> bool:
    """True when every value is a finite positive number, not a boolean."""
    return all(not is_boolean(x) and math.isfinite(x) and x > 0.0 for x in values)


def check_alphabet(m, name: str = "alphabet size") -> None:
    """Raise :class:`ParameterError`, naming ``m`` by ``name``, unless the
    alphabet size ``m`` is a Python integer ``>= 2``, not a boolean, that a
    float can hold."""
    if not is_int(m) or m < 2:
        raise ParameterError(f"{name} must be an integer >= 2, got {m!r}")
    try:
        float(m)
    except OverflowError:
        raise ParameterError(f"{name} 2**{math.log2(m):g} exceeds the float range") from None


def refuse_boolean_floats(instance) -> None:
    """Raise :class:`ParameterError` when a ``float`` field of a dataclass holds a boolean."""
    for field in dataclasses.fields(instance):
        if field.type == "float" and is_boolean(getattr(instance, field.name)):
            raise ParameterError(f"{field.name} must be a number, not a boolean")


class GridCoverageError(ChronokeyError, ValueError):
    """A sampling grid is too small to contain the state placed on it."""


class ConfigError(ChronokeyError, ValueError):
    """A run-configuration document is malformed or contains unknown keys."""


class CoverageWarning(UserWarning):
    """Probability mass outside the measured window exceeds the reporting threshold."""


class ResolutionWarning(UserWarning):
    """Bins are coarse enough that the paper's bound ``log2(2*pi / (delta_omega *
    delta_t))`` parts from the exact ``-log2(sigma_max**2)`` of the overlap kernel."""


class PureNoiseWarning(UserWarning):
    """The detection model is dominated by dark counts; signal statistics are vacuous."""
