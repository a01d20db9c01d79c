"""Hardware requirements implied by a binning design.

The design fixes dimensionless ratios; real hardware fixes a spectrometer
resolution, a phase-modulator ceiling, and a fiber dispersion coefficient.
This module converts between them.  Because the literature splits on whether
the quadratic-phase bookkeeping is done against ordinary frequency (cycles)
or angular frequency (radians), every derived quantity is reported in both
conventions side by side; the total dispersive phase and fiber length differ
by ``(2*pi)**2`` between them, while the modulator frequency in hertz and
the required depth do not differ at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

from .detection import BinningScheme
from .errors import ParameterError, refuse_boolean_floats

SPEED_OF_LIGHT = 299_792_458.0

_RESOLUTION_KINDS = ("wavelength", "frequency")
_CONVENTIONS = ("ordinary", "angular")


def _converted(kind: str, width: float, center: float, convert) -> float:
    """``convert(width, center)``, refused unless inputs and result are finite and positive."""
    try:
        ok = all(math.isfinite(x) and x > 0.0 for x in (width, center))
        result = convert(width, center) if ok else math.nan
    except (OverflowError, ZeroDivisionError):  # center**2 overflows, or underflows to 0
        result = math.nan
    if not (math.isfinite(result) and result > 0.0):
        raise ParameterError(f"{kind} width, center and result must be finite and positive")
    return result


def wavelength_to_frequency(delta_lambda: float, center_wavelength: float) -> float:
    """Spectral width in hertz of a wavelength width around a center."""
    return _converted(
        "wavelength", delta_lambda, center_wavelength, lambda w, c: SPEED_OF_LIGHT * w / c**2
    )


def frequency_to_wavelength(delta_nu: float, center_wavelength: float) -> float:
    """Inverse of :func:`wavelength_to_frequency` at the same center."""
    return _converted(
        "frequency", delta_nu, center_wavelength, lambda f, c: f * c**2 / SPEED_OF_LIGHT
    )


@dataclass(frozen=True)
class HardwareSpec:
    """Available hardware and the phase convention chosen for bookkeeping.

    ``spectrometer_resolution`` is in meters when ``resolution_kind`` is
    ``"wavelength"`` and in hertz when it is ``"frequency"``.  ``fiber_gvd``
    is the magnitude of the dispersion coefficient in seconds squared per
    meter.  ``angular_convention`` must be set explicitly; both conventions
    are always reported regardless.
    """

    center_wavelength: float
    spectrometer_resolution: float
    resolution_kind: str
    modulator_max_frequency: float
    modulator_max_depth: float
    fiber_gvd: float
    angular_convention: str

    def __post_init__(self) -> None:
        refuse_boolean_floats(self)
        for name in (
            "center_wavelength",
            "spectrometer_resolution",
            "modulator_max_frequency",
            "modulator_max_depth",
            "fiber_gvd",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ParameterError(f"{name} must be finite and positive")
        if self.resolution_kind not in _RESOLUTION_KINDS:
            raise ParameterError(f"unknown resolution kind {self.resolution_kind!r}")
        if self.angular_convention not in _CONVENTIONS:
            raise ParameterError(f"unknown phase convention {self.angular_convention!r}")

    def resolution_hz(self) -> float:
        if self.resolution_kind == "frequency":
            return self.spectrometer_resolution
        return wavelength_to_frequency(self.spectrometer_resolution, self.center_wavelength)


@dataclass(frozen=True)
class ConventionFigures:
    """Derived lens quantities under one phase convention."""

    convention: str
    focusing_rate: float
    total_gvd: float
    fiber_length: float
    aperture: float

    def __post_init__(self) -> None:
        for name in ("focusing_rate", "total_gvd", "fiber_length", "aperture"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ParameterError(f"{self.convention} {name} {value!r} is not finite and positive")


@dataclass(frozen=True)
class FeasibilityReport:
    """Hardware verdict for a binning design.

    ``required_frequency_hz`` and ``required_depth`` are
    convention-independent; the per-convention figures differ by powers of
    ``2*pi``.
    """

    bin_frequency_hz: float
    required_frequency_hz: float
    required_depth: float
    frequency_ok: bool
    depth_ok: bool
    ordinary: ConventionFigures
    angular: ConventionFigures
    selected_convention: str

    @property
    def feasible(self) -> bool:
        return self.frequency_ok and self.depth_ok

    @property
    def selected(self) -> ConventionFigures:
        if self.selected_convention == "ordinary":
            return self.ordinary
        return self.angular


def _figures(convention: str, binning: BinningScheme, unit: float, gvd_per_meter: float) -> ConventionFigures:
    rate = binning.beta_plus * binning.beta_minus * binning.m * unit**2
    total_gvd = 1.0 / rate
    return ConventionFigures(
        convention=convention,
        focusing_rate=rate,
        total_gvd=total_gvd,
        fiber_length=total_gvd / gvd_per_meter,
        aperture=1.0 / (binning.beta_minus * unit),
    )


def check_feasibility(binning: BinningScheme, hardware: HardwareSpec) -> FeasibilityReport:
    """Translate the design ratios into hardware numbers and compare.

    The spectrometer resolution sets the bin width; the modulator must run
    at ``beta_minus`` times that bin width (in hertz, identically under both
    conventions) with a depth of ``(beta_plus / beta_minus) * m`` radians,
    and the fiber must supply the reciprocal of the focusing rate as total
    quadratic spectral phase.
    """
    # Squares of extreme (finite) inputs leave the float range: ``**``
    # raises on overflow and an underflow to zero divides by zero.
    try:
        delta_nu = hardware.resolution_hz()
        if not (math.isfinite(delta_nu) and delta_nu > 0.0):
            raise ParameterError(f"bin frequency {delta_nu!r} Hz is not finite and positive")
        ordinary = _figures("ordinary", binning, delta_nu, hardware.fiber_gvd)
        angular = _figures("angular", binning, 2.0 * math.pi * delta_nu, hardware.fiber_gvd)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ParameterError(f"hardware figures leave the floating-point range: {exc}") from exc
    required_frequency = binning.beta_minus * delta_nu
    required_depth = (binning.beta_plus / binning.beta_minus) * binning.m
    return FeasibilityReport(
        bin_frequency_hz=delta_nu,
        required_frequency_hz=required_frequency,
        required_depth=required_depth,
        frequency_ok=required_frequency <= hardware.modulator_max_frequency,
        depth_ok=required_depth <= hardware.modulator_max_depth,
        ordinary=ordinary,
        angular=angular,
        selected_convention=hardware.angular_convention,
    )
