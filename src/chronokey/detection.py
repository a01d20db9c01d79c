"""Binned spectral and temporal measurements of the two-photon state.

Each party resolves its photon into ``m`` contiguous frequency bins of width
``delta_omega``, or into ``m`` arrival-time bins after a time lens that maps
arrival time onto output frequency.  A lens with focusing rate ``phi_ddot``
(quadratic temporal phase, realized to lowest order by a sinusoidal phase
modulator of depth ``mod_depth`` and frequency ``mod_frequency``) followed by
a spectrometer measures time with resolution ``delta_omega / phi_ddot``, so
the two bases share one bin count and one resolution product.

Bin indices are 0-based everywhere in this package; bin ``b`` of a scheme
with ``m`` bins is centered on ``(b - (m - 1)/2) * width``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chronocyclic import (
    FrequencyGrid,
    JointSpectralAmplitude,
    TimeGrid,
    _check_record,
    _refuse_bad_widths,
    make_gaussian_jsa,
    transform_1d,
)
from .errors import CoverageWarning, ParameterError, refuse_boolean_floats

FREQUENCY_BASIS = "frequency"
TIME_BASIS = "time"

# Fraction of probability mass outside the binned window above which a
# CoverageWarning is emitted by the binning routines.
COVERAGE_WARN_THRESHOLD = 0.01
# In-window share of a binned record's unit mass below which it is roundoff.
_MIN_WINDOW_MASS = 1e-12
# Time bins are integrated by 16-node Gauss-Legendre panels (Golub-Welsch
# nodes on [-1, 1]) at most _PANEL_SPAN_WIDTH / span wide for a spectral grid
# of half-span span: on its band-limited temporal intensity panels of 24, 32
# and 40 / span leave errors of 1e-16, 3e-13 and 4e-10.
_NODES_PER_PANEL = 16
_PANEL_SPAN_WIDTH = 24.0
_k = np.arange(1.0, _NODES_PER_PANEL)
_PANEL_NODES, _vectors = np.linalg.eigh(np.diag(_k / np.sqrt(4.0 * _k * _k - 1.0), -1))
_PANEL_WEIGHTS = 2.0 * _vectors[0] ** 2
# The closed-form binning of a Gaussian source integrates each sender bin on
# panels at most _PANEL_SIGMAS conditional standard deviations wide: over
# designs with beta_minus from 0.01 to 0.98, panels of 6 / 8 / 12 deviations
# leave errors up to 5e-16 / 3e-14 / 9e-12.  erfc is below the smallest normal
# double beyond 26.55 (and flushed to 0 there), so a receiver edge
# _ERFC_REACH * sqrt(2) deviations from every conditional mean adds an exact 0.
_PANEL_SIGMAS = 6.0
_ERFC_REACH = 27.0
# Values per block of the closed-form binning: temporaries stay in cache.
_BLOCK_VALUES = 1 << 16
_MATH_ERFC = np.frompyfunc(math.erfc, 1, 1)
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class BinningScheme:
    """Partition of a spectral window into ``m`` equal bins.

    ``beta_plus`` and ``beta_minus`` record the design ratios of the matched
    source: the wide amplitude width is ``beta_plus`` times the full window
    ``m * delta_omega`` and the narrow width is ``beta_minus`` times one bin.
    """

    m: int
    delta_omega: float = 1.0
    beta_plus: float = 0.75
    beta_minus: float = 0.2
    center: float = 0.0

    def __post_init__(self) -> None:
        refuse_boolean_floats(self)
        if not isinstance(self.m, int) or self.m < 2:
            raise ParameterError(f"bin count must be an integer >= 2, got {self.m!r}")
        if not (math.isfinite(self.delta_omega) and self.delta_omega > 0.0):
            raise ParameterError("bin width must be finite and positive")
        if not math.isfinite(self.center):
            raise ParameterError("window center must be finite")
        if not 0.0 < self.beta_minus < self.beta_plus <= 1.0:
            raise ParameterError(
                "design ratios must satisfy 0 < beta_minus < beta_plus <= 1, "
                f"got beta_plus={self.beta_plus!r} beta_minus={self.beta_minus!r}"
            )

    @property
    def span(self) -> float:
        """Full width of the binned window."""
        return self.m * self.delta_omega

    @property
    def bin_centers(self) -> np.ndarray:
        b = np.arange(self.m)
        return self.center + (b - (self.m - 1) / 2.0) * self.delta_omega

    @property
    def bin_edges(self) -> np.ndarray:
        e = np.arange(self.m + 1)
        return self.center + (e - self.m / 2.0) * self.delta_omega

    def matched_widths(self) -> tuple[float, float]:
        """Source widths this scheme was designed for: wide then narrow."""
        return self.beta_plus * self.span, self.beta_minus * self.delta_omega


@dataclass(frozen=True)
class TimeLens:
    """Quadratic-phase time lens: a sinusoidal phase modulator, whose depth
    and frequency fix the whole lens.

    ``focusing_rate`` is the curvature of the temporal phase (the rate at
    which arrival time is chirped onto frequency), ``gvd`` the quadratic
    spectral phase applied before the modulator, its inverse by the imaging
    condition (Kolner, IEEE J. Quantum Electron. 30, 1951 (1994)), and
    ``aperture`` the half-period scale ``1/mod_frequency`` inside which the
    sinusoidal phase tracks the ideal parabola.
    """

    mod_frequency: float
    mod_depth: float

    def __post_init__(self) -> None:
        refuse_boolean_floats(self)
        for name in ("mod_frequency", "mod_depth"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ParameterError(f"{name} must be finite and positive")
        try:
            rate = self.focusing_rate
        except OverflowError:
            rate = math.inf
        if not (0.0 < rate < math.inf and 1.0 / rate < math.inf):
            raise ParameterError(f"focusing rate {rate!r} must be finite, positive and invertible")

    @property
    def focusing_rate(self) -> float:
        return self.mod_depth * self.mod_frequency**2

    @property
    def gvd(self) -> float:
        return 1.0 / self.focusing_rate

    @property
    def aperture(self) -> float:
        return 1.0 / self.mod_frequency


def design_binning(
    m: int,
    beta_plus: float = 0.75,
    beta_minus: float = 0.2,
    delta_omega: float = 1.0,
    grid: FrequencyGrid | None = None,
):
    """Binning scheme plus the source matched to it.

    The returned amplitude has wide width ``beta_plus * m * delta_omega`` and
    narrow width ``beta_minus * delta_omega``, which makes the binned
    time-basis statistics mirror the frequency-basis ones exactly.
    """
    scheme = BinningScheme(m=m, delta_omega=delta_omega, beta_plus=beta_plus, beta_minus=beta_minus)
    wide, narrow = scheme.matched_widths()
    return scheme, make_gaussian_jsa(wide, narrow, grid=grid)


def design_time_lens(binning: BinningScheme) -> TimeLens:
    """Lens whose resolution product saturates the design of ``binning``.

    The modulator frequency matches the narrow source width, the depth is
    ``(beta_plus / beta_minus) * m``; the lens derives the dispersion that
    meets the imaging condition from them.
    """
    return TimeLens(
        mod_frequency=binning.beta_minus * binning.delta_omega,
        mod_depth=(binning.beta_plus / binning.beta_minus) * binning.m,
    )


def time_resolution(binning: BinningScheme, lens: TimeLens) -> float:
    """Arrival-time bin width implied by reading time through the lens."""
    return binning.delta_omega / lens.focusing_rate


def resolution_product(binning: BinningScheme, lens: TimeLens) -> float:
    """Product of the frequency and time bin widths.

    For a lens built by :func:`design_time_lens` this equals
    ``1 / (beta_plus * beta_minus * m)`` identically.
    """
    return binning.delta_omega * time_resolution(binning, lens)


def bin_overlap_weights(points: np.ndarray, spacing: float, edges: np.ndarray) -> np.ndarray:
    """Fraction of each midpoint sampling cell covered by each bin.

    Returns a ``(len(edges) - 1, len(points))`` matrix whose columns sum to 1
    for cells fully inside the binned window, so binned masses are exact cell
    sums with boundary cells split in proportion to their overlap.
    """
    lo = points - spacing / 2.0
    hi = points + spacing / 2.0
    left = np.maximum(edges[:-1, None], lo[None, :])
    right = np.minimum(edges[1:, None], hi[None, :])
    return np.clip((right - left) / spacing, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Joint probabilities of the two parties' bin outcomes in one basis.

    ``probabilities[b, a]`` is the chance the receiver lands in bin ``b``
    while the sender lands in bin ``a``, renormalized over the measured
    window; ``out_of_window`` is the fraction of intensity that fell outside
    it and was discarded by that renormalization.
    """

    basis: str
    probabilities: np.ndarray
    out_of_window: float = 0.0

    def __post_init__(self) -> None:
        if self.basis not in (FREQUENCY_BASIS, TIME_BASIS):
            raise ParameterError(f"unknown basis {self.basis!r}")
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ParameterError("probabilities must be a square matrix")
        total = float(p.sum())
        # A finite sum has finite terms, so only a non-finite one needs the scan.
        if not math.isfinite(total) and not np.isfinite(p).all():
            raise ParameterError("probabilities must be finite")
        if not float(p.min()) >= -1e-12:
            raise ParameterError("probabilities must be non-negative")
        if not abs(total - 1.0) <= 1e-9:
            raise ParameterError(f"probabilities sum to {total!r}, expected 1")
        if not 0.0 <= self.out_of_window <= 1.0:
            raise ParameterError("out_of_window must lie in [0, 1]")
        object.__setattr__(self, "probabilities", np.clip(p, 0.0, None))
        self.probabilities.setflags(write=False)

    @property
    def m(self) -> int:
        return self.probabilities.shape[0]


def _renormalize(raw: np.ndarray, basis: str) -> tuple[np.ndarray, float]:
    """In-window probabilities of binned masses, renormalized in place, and
    the discarded fraction.

    Warns when the discarded fraction exceeds ``COVERAGE_WARN_THRESHOLD``;
    called directly from the public binning functions, so the warning points
    at their caller.
    """
    in_mass = float(raw.sum())
    if not (_MIN_WINDOW_MASS <= in_mass < math.inf):
        raise ParameterError(f"no finite intensity above roundoff inside the {basis}-basis window")
    out_mass = max(0.0, 1.0 - in_mass)
    if out_mass > COVERAGE_WARN_THRESHOLD:
        warnings.warn(
            f"{out_mass:.1%} of the intensity lies outside the {basis}-basis window "
            "and is discarded by postselection",
            CoverageWarning,
            stacklevel=3,
        )
    raw /= in_mass
    return raw, out_mass


def _erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function, elementwise: libm's ``math.erfc`` with
    results below the smallest normal double flushed to an exact 0.

    2 at ``-inf`` and NaN only at NaN.
    """
    out = np.asarray(_MATH_ERFC(np.asarray(x, dtype=float)), dtype=float)
    out[out < _TINY] = 0.0
    return out


def _gaussian_bin_masses(m: int, low: float, var_sum: float, var_diff: float) -> np.ndarray:
    """Raw masses ``[receiver, sender]`` of a centred bivariate normal over
    ``m`` unit bins from ``low`` on both axes; ``var_sum`` and ``var_diff``
    are its variances along ``(x + y)/sqrt(2)`` and ``(x - y)/sqrt(2)``.

    Each cell is a Gauss-Legendre integral, over the sender's bin, of the
    sender's marginal density times the receiver's conditional normal mass
    in its bin (an erfc difference).  Only the receiver bins within
    ``_ERFC_REACH * sqrt(2)`` conditional deviations of some conditional
    mean are evaluated; the rest are the exact 0 a dense evaluation gives.
    """
    var = 0.5 * (var_sum + var_diff)
    rho = 0.5 * (var_sum - var_diff) / var
    sigma = math.sqrt(var_sum * var_diff / var)
    if not (0.0 < sigma < math.inf and var < math.inf):
        raise ParameterError("source widths are out of range for these bins")
    per_bin = math.ceil(1.0 / (_PANEL_SIGMAS * sigma))
    half = 0.5 / per_bin
    edges = low + np.arange(m + 1.0)
    means = rho * edges
    reach = _ERFC_REACH * math.sqrt(2.0) * sigma
    first = np.searchsorted(edges, np.minimum(means[:-1], means[1:]) - reach, "right") - 1
    last = np.searchsorted(edges, np.maximum(means[:-1], means[1:]) + reach, "left")
    first = np.maximum(first, 0)
    band = int(np.clip(np.minimum(last, m) - first, 1, m).max())
    start = np.minimum(first, m - band)
    steps = np.arange(band + 1)
    scale = 1.0 / (math.sqrt(2.0) * sigma)
    weights = _PANEL_WEIGHTS * (0.5 * half / math.sqrt(2.0 * math.pi * var))
    cells = np.zeros((m, band))
    n_panels = m * per_bin
    chunk = max(1, _BLOCK_VALUES // ((band + 1) * _NODES_PER_PANEL))
    for p0 in range(0, n_panels, chunk):
        panels = np.arange(p0, min(n_panels, p0 + chunk))
        sender = panels // per_bin
        x = low + (2.0 * panels[:, None] + 1.0 + _PANEL_NODES) * half
        density = weights * np.exp(-0.5 / var * x * x)
        receiver_edges = edges[start[sender][:, None] + steps] * scale
        z = receiver_edges[:, :, None] - (rho * scale) * x[:, None, :]
        signed = np.copysign(_erfc(np.abs(z)), z)
        mass = signed[:, :-1] - signed[:, 1:]
        negative = np.signbit(z)
        mass[negative[:, :-1] & ~negative[:, 1:]] += 2.0  # the bin holding the mean
        local = (sender - sender[0])[:, None] * band + steps[:-1]
        summed = np.bincount(local.ravel(), (mass @ density[:, :, None]).ravel())
        cells[sender[0] : sender[-1] + 1] += summed.reshape(-1, band)
    raw = np.zeros((m, m))
    raw[start[:, None] + steps[:-1], np.arange(m)[:, None]] = cells
    return raw


def _on_every_axis(matrix: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply ``matrix`` to axis 0 of ``values`` and, for a 2-D record, to axis 1."""
    out = matrix @ values
    return out @ matrix.T if values.ndim == 2 else out


def _bin_masses(
    amplitudes: np.ndarray,
    grid: FrequencyGrid,
    binning: BinningScheme,
    lens: TimeLens | None,
    basis: str,
) -> np.ndarray:
    """Raw bin masses of a single-photon (1-D) or joint (2-D, receiver on
    axis 0) spectral amplitude, binned on every axis as described in
    :func:`joint_outcome_distribution`.

    In the time basis the kernel evaluates the temporal amplitude at the
    Gauss-Legendre nodes of each panel of each time bin, each row scaled by
    the square root of its quadrature weight, so the squared magnitudes
    summed over a bin's nodes (on every axis) are its mass.
    """
    amplitudes = np.asarray(amplitudes)
    ndim = amplitudes.ndim
    if basis == FREQUENCY_BASIS:
        weights = bin_overlap_weights(grid.points, grid.spacing, binning.bin_edges)
        raw = _on_every_axis(weights, np.abs(amplitudes) ** 2 * grid.spacing**ndim)
        return raw[::-1, :] if ndim == 2 else raw
    elif basis == TIME_BASIS:
        dt_bin = time_resolution(binning, lens)
        per_bin = math.ceil(dt_bin * grid.span / _PANEL_SPAN_WIDTH)
        n_panels = binning.m * per_bin
        half = 0.5 * dt_bin / per_bin
        t = (2.0 * (np.arange(n_panels)[:, None] - (n_panels - 1) / 2.0) + _PANEL_NODES) * half
        row_scale = np.tile(np.sqrt(_PANEL_WEIGHTS * half), n_panels)
        kernel = np.exp(-1j * np.outer(t, grid.points)) * (
            row_scale[:, None] * (grid.spacing / math.sqrt(2.0 * math.pi))
        )
        if ndim == 2 and np.isrealobj(amplitudes):
            # One real GEMM against the kernel's interleaved (re, im) columns.
            rows = (amplitudes @ kernel.T.copy().view(np.float64)).view(np.complex128)
            at_nodes = np.abs(kernel @ rows) ** 2
        else:
            at_nodes = np.abs(_on_every_axis(kernel, amplitudes)) ** 2
        nodes_axes = tuple(range(1, 2 * ndim, 2))
        return at_nodes.reshape((binning.m, per_bin * _NODES_PER_PANEL) * ndim).sum(axis=nodes_axes)
    else:
        raise ParameterError(f"unknown basis {basis!r}")


def joint_outcome_distribution(
    jsa: JointSpectralAmplitude,
    binning: BinningScheme,
    lens: TimeLens,
    basis: str = FREQUENCY_BASIS,
) -> OutcomeDistribution:
    """Bin the two-photon intensity in the chosen basis.

    In the frequency basis the sampled spectral intensity is integrated over
    the bin rectangles.  In the time basis the temporal amplitude is
    evaluated directly at Gauss-Legendre nodes in every time bin (so the
    time resolution is not tied to the spectral grid) and integrated over
    time-bin rectangles of width ``delta_omega / focusing_rate`` by that
    quadrature, on panels narrow enough for it to converge to roundoff.

    In the frequency basis the receiver's bin labels are reversed, which
    turns the anti-correlation of the source into agreement on identical
    labels, matching the time basis where correlation is direct.  A
    :class:`CoverageWarning` is emitted when more than 1% of the intensity
    falls outside the window; the returned distribution is renormalized over
    the window either way.
    """
    raw = _bin_masses(jsa.amplitudes, jsa.grid, binning, lens, basis)
    probabilities, out_mass = _renormalize(raw, basis)
    return OutcomeDistribution(basis=basis, probabilities=probabilities, out_of_window=out_mass)


def gaussian_outcome_distribution(
    binning: BinningScheme,
    lens: TimeLens,
    delta_plus: float,
    delta_minus: float,
    basis: str = FREQUENCY_BASIS,
) -> OutcomeDistribution:
    """Binned statistics of the Gaussian source of :func:`make_gaussian_jsa`,
    in closed form and without a grid record.

    The source's two-photon intensity is a bivariate normal in both bases.
    In frequency its variances along the sum and the difference of the two
    detunings are ``delta_minus**2 / 2`` and ``delta_plus**2 / 2``; in time
    they are ``1 / (2 * delta_minus**2)`` and ``1 / (2 * delta_plus**2)``.
    Every bin probability is a rectangle mass of that normal, integrated to
    roundoff.  Labels, the window (``binning.center`` places the frequency
    bins; time bins are centred on zero), the renormalization, the
    ``out_of_window`` mass and the :class:`CoverageWarning` are those of
    :func:`joint_outcome_distribution` on a record centred at zero, without
    its grid's sampling error.
    """
    _refuse_bad_widths(delta_plus, delta_minus)
    if basis == FREQUENCY_BASIS:
        width = binning.delta_omega
        low = float(binning.bin_edges[0])
    elif basis == TIME_BASIS:
        width = time_resolution(binning, lens)
        low = -0.5 * binning.m * width
    else:
        raise ParameterError(f"unknown basis {basis!r}")
    try:
        if basis == FREQUENCY_BASIS:
            var_sum, var_diff = 0.5 * delta_minus**2, 0.5 * delta_plus**2
        else:
            var_sum, var_diff = 0.5 / delta_minus**2, 0.5 / delta_plus**2
        var_sum, var_diff = var_sum / width**2, var_diff / width**2
    except (OverflowError, ZeroDivisionError):
        var_sum = var_diff = math.inf
    if not (0.0 < var_sum < math.inf and 0.0 < var_diff < math.inf):
        raise ParameterError("source widths are out of range for these bins")
    raw = _gaussian_bin_masses(binning.m, low / width, var_sum, var_diff)
    if basis == FREQUENCY_BASIS:
        raw = raw[::-1, :]
    probabilities, out_mass = _renormalize(raw, basis)
    return OutcomeDistribution(basis=basis, probabilities=probabilities, out_of_window=out_mass)


def binned_spectrum(
    state: np.ndarray, grid: FrequencyGrid, binning: BinningScheme
) -> tuple[np.ndarray, float]:
    """Bin a normalized single-photon spectral amplitude.

    Returns the renormalized in-window probabilities and the discarded
    fraction, warning as in :func:`joint_outcome_distribution`.
    """
    _check_record(np.asarray(state), grid, 1, "single-photon state")
    raw = _bin_masses(state, grid, binning, None, FREQUENCY_BASIS)
    return _renormalize(raw, FREQUENCY_BASIS)


def binned_arrival_times(
    state: np.ndarray,
    grid: FrequencyGrid,
    binning: BinningScheme,
    lens: TimeLens,
) -> tuple[np.ndarray, float]:
    """Bin the arrival-time intensity of a single-photon spectral amplitude.

    The temporal wavefunction is evaluated at the same Gauss-Legendre nodes
    as in the joint routine and integrated over time bins of width
    ``delta_omega / focusing_rate``.
    """
    _check_record(np.asarray(state), grid, 1, "single-photon state")
    raw = _bin_masses(state, grid, binning, lens, TIME_BASIS)
    return _renormalize(raw, TIME_BASIS)


def simulate_time_lens(
    field: np.ndarray,
    time_grid: TimeGrid,
    lens: TimeLens,
    mode: str = "sinusoidal",
) -> tuple[FrequencyGrid, np.ndarray]:
    """Propagate a temporal field through dispersion plus phase modulation.

    The field picks up the spectral phase ``exp(-i * gvd * w**2 / 2)``, then
    the temporal phase of the modulator, and the returned array is its
    spectrum on the dual frequency grid.  Under the imaging condition the
    output spectral intensity at ``w`` reproduces the input temporal
    intensity at ``w / focusing_rate``.

    ``mode`` selects the modulator model: ``"ideal-quadratic"`` applies the
    exact parabolic phase ``-focusing_rate * t**2 / 2`` while
    ``"sinusoidal"`` applies ``mod_depth * (cos(mod_frequency * t) - 1)``,
    which matches the parabola only within the aperture.
    """
    if mode not in ("ideal-quadratic", "sinusoidal"):
        raise ParameterError(f"unknown lens mode {mode!r}")
    if time_grid.center != 0.0:
        raise ParameterError("time lens simulation requires a grid centered at zero")
    freq_grid, spectrum = transform_1d(np.asarray(field, np.complex128), time_grid, sign=+1)
    spectrum = spectrum * np.exp(-0.5j * lens.gvd * freq_grid.points**2)
    _, field_mid = transform_1d(spectrum, freq_grid, sign=-1)
    t = time_grid.points
    if mode == "ideal-quadratic":
        phase = -0.5 * lens.focusing_rate * t**2
    else:
        phase = lens.mod_depth * (np.cos(lens.mod_frequency * t) - 1.0)
    field_mid = field_mid * np.exp(1j * phase)
    out_grid, out = transform_1d(field_mid, time_grid, sign=+1)
    return out_grid, out


def overlap_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized squared overlap of two sampled wavefunctions."""
    a = np.asarray(a, dtype=np.complex128).ravel()
    b = np.asarray(b, dtype=np.complex128).ravel()
    na = float(np.vdot(a, a).real)
    nb = float(np.vdot(b, b).real)
    if na == 0.0 or nb == 0.0:
        raise ParameterError("cannot compute fidelity with a zero field")
    return abs(np.vdot(a, b)) ** 2 / (na * nb)


def temporal_kernel(
    binning: BinningScheme,
    lens: TimeLens,
    index: int,
    times: np.ndarray,
) -> np.ndarray:
    """Temporal response of one spectrometer bin read through the lens.

    Detecting the lens output in frequency bin ``index`` acts on the input
    temporal amplitude as projection onto this kernel: a carrier at the bin's
    mapped arrival frequency under a ``sin(y)/y`` envelope whose first zero
    sits at ``2 * pi * focusing_rate / delta_omega``.
    """
    if not 0 <= index < binning.m:
        raise ParameterError(f"bin index {index} outside range(0, {binning.m})")
    x = np.asarray(times, dtype=float)
    rate = lens.focusing_rate
    center = float(binning.bin_centers[index])
    arg = x * binning.delta_omega / (2.0 * rate)
    envelope = np.sinc(arg / math.pi)
    prefactor = binning.delta_omega / math.sqrt(2.0 * math.pi * rate)
    return prefactor * envelope * np.exp(-1j * center * x / rate)
