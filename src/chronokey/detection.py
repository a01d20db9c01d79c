"""Binned spectral and temporal measurements of the two-photon state.

Each party resolves its photon into ``m`` contiguous frequency bins of width
``delta_omega``, or into ``m`` arrival-time bins after a time lens that maps
arrival time onto output frequency.  A lens with focusing rate ``phi_ddot``
(quadratic temporal phase, realized to lowest order by a sinusoidal phase
modulator of depth ``mod_depth`` and frequency ``mod_frequency``) followed by
a spectrometer measures time with resolution ``delta_omega / phi_ddot``, so
the two bases share one bin count and one resolution product.

Bin indices are 0-based everywhere in this package; bin ``b`` of a scheme
with ``m`` bins is centered on ``(b - (m - 1)/2) * width``: around zero.
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
    _Block,
    _refuse_bad_widths,
    make_gaussian_jsa,
    transform_1d,
)
from .errors import CoverageWarning, ParameterError, check_alphabet, finite_positive
from .errors import is_boolean, refuse_boolean_floats

FREQUENCY_BASIS = "frequency"
TIME_BASIS = "time"

# Fraction of probability mass outside the binned window above which a
# CoverageWarning is emitted by the binning routines.
COVERAGE_WARN_THRESHOLD = 0.01
# In-window share of a binned record's unit mass below which it is roundoff.
_MIN_WINDOW_MASS = 1e-12
# Roundoff below zero that a probability may carry before it is refused.
_NEGATIVE_ATOL = 1e-12
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
# Most panels the closed-form binning evaluates, refused above before any runs: 2**18
# take 1.6-1.8 s per basis at m = 4 on one Xeon core; tests, session and benchmark use <= 3951.
_MAX_PANELS = 1 << 18
# Values per block of the closed-form binning: temporaries stay in cache.
_BLOCK_VALUES = 1 << 16
_MATH_ERFC = np.frompyfunc(math.erfc, 1, 1)
_TINY = np.finfo(float).tiny
# Grid points per exact phase of the time kernel (see _phases).
_PHASE_STRIDE = 32


def check_basis(basis) -> None:
    """Raise :class:`ParameterError` unless ``basis`` names the frequency or the time basis."""
    if basis not in (FREQUENCY_BASIS, TIME_BASIS):
        raise ParameterError(f"unknown basis {basis!r}")


def checked_joint(probabilities) -> tuple[np.ndarray, float]:
    """A joint probability matrix as floats, and its sum, refused unless it is
    a matrix whose entries are finite and none below ``-_NEGATIVE_ATOL``."""
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 2:
        raise ParameterError("joint probabilities must be a matrix")
    total = float(p.sum())
    # A finite sum has finite terms, so only a non-finite one needs the scan.
    if not math.isfinite(total) and not np.isfinite(p).all():
        raise ParameterError("joint probabilities must be finite")
    if p.size and not float(p.min()) >= -_NEGATIVE_ATOL:
        raise ParameterError("joint probabilities must be non-negative")
    return p, total


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

    def __post_init__(self) -> None:
        refuse_boolean_floats(self)
        check_alphabet(self.m)
        if not finite_positive(self.delta_omega):
            raise ParameterError("bin width must be finite and positive")
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
    def bin_edges(self) -> np.ndarray:
        e = np.arange(self.m + 1)
        return (e - self.m / 2.0) * self.delta_omega

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
            if not finite_positive(getattr(self, name)):
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


def _dense(m: int, cells: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The read-only m x m matrix holding ``values`` at the flat indices
    ``cells`` (``receiver * m + sender``), zero elsewhere."""
    dense = np.zeros(m * m, values.dtype)
    dense[cells] = values
    dense.setflags(write=False)
    return dense.reshape(m, m)


@dataclass(frozen=True, eq=False, init=False)
class OutcomeDistribution:
    """Joint probabilities of the two parties' bin outcomes in one basis.

    ``probabilities[b, a]`` is the chance the receiver lands in bin ``b``
    while the sender lands in bin ``a``, renormalized over the measured
    window; ``out_of_window`` is the fraction of intensity that fell outside
    it and was discarded by that renormalization.

    It is held as its positive entries, as a ``RoundLedger`` holds its
    counts: their sorted int64 flat indices ``receiver * m + sender`` in
    ``cells`` and their values in ``values``, both read-only.
    """

    basis: str
    m: int
    cells: np.ndarray
    values: np.ndarray
    out_of_window: float = 0.0

    def __init__(self, basis: str, probabilities, out_of_window: float = 0.0) -> None:
        check_basis(basis)
        if is_boolean(out_of_window):
            raise ParameterError("out_of_window must be a number, not a boolean")
        p, total = checked_joint(probabilities)
        if p.shape[0] != p.shape[1]:
            raise ParameterError("probabilities must be a square matrix")
        if not abs(total - 1.0) <= 1e-9:
            raise ParameterError(f"probabilities sum to {total!r}, expected 1")
        if not 0.0 <= out_of_window <= 1.0:
            raise ParameterError("out_of_window must lie in [0, 1]")
        positive = p > 0.0
        self._hold(basis, p.shape[0], np.flatnonzero(positive), p[positive], out_of_window)

    @classmethod
    def _from_cells(cls, basis: str, m: int, cells: np.ndarray, values: np.ndarray):
        """The distribution of ``values`` at the sorted flat indices
        ``cells``, taken unchecked: positive, and summing to 1."""
        distribution = cls.__new__(cls)
        distribution._hold(basis, m, cells, values, 0.0)
        return distribution

    def _hold(self, basis, m, cells, values, out_of_window) -> None:
        cells.setflags(write=False)
        values.setflags(write=False)
        vars(self).update(basis=basis, m=m, cells=cells, values=values, out_of_window=out_of_window)

    @property
    def probabilities(self) -> np.ndarray:
        """The dense matrix, built read-only from the cells on each read;
        nothing in the package reads it."""
        return _dense(self.m, self.cells, self.values)


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


def _phases(points: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """``exp(-1j * outer(points, rates))`` for uniformly spaced ``points``:
    the phase at every :data:`_PHASE_STRIDE`-th point times that of the
    offsets ``points[b] - points[0]``, one complex product per entry in place
    of a complex ``exp`` (within 2e-15 of it for ``|rate * point| <= 10``)."""
    stride = min(_PHASE_STRIDE, points.size)
    coarse = np.exp(-1j * np.outer(points[::stride], rates))
    fine = np.exp(-1j * np.outer(points[:stride] - points[0], rates))
    return (coarse[:, None, :] * fine[None, :, :]).reshape(points.size, rates.size)


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
    per_bin = 1.0 / (_PANEL_SIGMAS * sigma)
    if not per_bin <= _MAX_PANELS // m:  # that is, unless m * ceil(per_bin) <= _MAX_PANELS
        raise ParameterError(
            f"closed-form binning needs about {m * per_bin:.3g} panels ({m} bins, conditional "
            f"deviation {sigma:.3g} bins), above the cap of {_MAX_PANELS:,} panels"
        )
    per_bin = math.ceil(per_bin)
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


def _bin_masses(
    amplitudes: np.ndarray | tuple[_Block, ...],
    grid: FrequencyGrid,
    binning: BinningScheme,
    lens: TimeLens | None,
    basis: str,
) -> np.ndarray:
    """Raw bin masses of a single-photon spectral amplitude (a 1-D array) or
    of a joint one given as its row blocks ``(rows, cols, values)``
    (receiver on axis 0, zero outside the blocks), binned on every axis as
    described in :func:`joint_outcome_distribution`; any ``basis`` other
    than the frequency basis is the time basis.

    In the time basis the kernel evaluates the temporal amplitude at the
    Gauss-Legendre nodes of each panel of each time bin, each row scaled by
    the square root of its quadrature weight, so the squared magnitudes
    summed over a bin's nodes (on every axis) are its mass.  The kernel at
    node ``c_p + s_q`` (panel centre plus node offset) is the product of
    ``exp(-i*c_p*w)`` and ``exp(-i*s_q*w)`` (:func:`_phases`); a single-photon
    state takes each panel's phase and one GEMM with the ``n x 16`` node
    offsets, so it makes no kernel.

    A joint record is read over its blocks only: each block ``A[r, c]``
    adds ``W[:, r] @ |A[r, c]|**2 @ W[:, c].T`` to the frequency-basis
    masses, and in the time basis ``K[r].T @ (A[r, c] @ K[c])`` to the
    amplitudes at the node pairs (one real GEMM against the kernel's
    interleaved (re, im) columns for a real block), so no ``n x N`` product
    is held.
    """
    ndim = 1 if isinstance(amplitudes, np.ndarray) else 2
    if basis == FREQUENCY_BASIS:
        weights = bin_overlap_weights(grid.points, grid.spacing, binning.bin_edges)
        if ndim == 1:
            return weights @ (np.abs(amplitudes) ** 2 * grid.spacing)
        raw = np.zeros((binning.m, binning.m))
        for rows, cols, values in amplitudes:
            intensity = np.abs(values) ** 2 * grid.spacing**2
            raw += weights[:, rows] @ intensity @ weights[:, cols].T
        return raw[::-1, :]
    dt_bin = time_resolution(binning, lens)
    per_bin = math.ceil(dt_bin * grid.span / _PANEL_SPAN_WIDTH)
    n_panels = binning.m * per_bin
    half = 0.5 * dt_bin / per_bin
    w = grid.points
    centres = (2.0 * half) * (np.arange(n_panels) - (n_panels - 1) / 2.0)
    offsets = _phases(w, half * _PANEL_NODES) * (
        np.sqrt(_PANEL_WEIGHTS * half) * (grid.spacing / math.sqrt(2.0 * math.pi))
    )
    if ndim == 1:
        at_nodes = np.abs((_phases(w, centres) * amplitudes[:, None]).T @ offsets) ** 2
    else:
        # kernel_t[k, p * 16 + q] is the kernel at node (p, q) and grid point k.
        kernel_t = (_phases(w, centres)[:, :, None] * offsets[:, None, :]).reshape(w.size, -1)
        at_nodes = np.zeros((kernel_t.shape[1],) * 2, np.complex128)
        for rows, cols, values in amplitudes:
            if np.isrealobj(values):
                block = (values @ kernel_t[cols].view(np.float64)).view(np.complex128)
            else:
                block = values @ kernel_t[cols]
            at_nodes += kernel_t[rows].T @ block
        at_nodes = np.abs(at_nodes) ** 2
    nodes_axes = tuple(range(1, 2 * ndim, 2))
    return at_nodes.reshape((binning.m, per_bin * _NODES_PER_PANEL) * ndim).sum(axis=nodes_axes)


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
    check_basis(basis)
    raw = _bin_masses(jsa._blocks, jsa.grid, binning, lens, basis)
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
    roundoff.  Labels, the window, the renormalization, the
    ``out_of_window`` mass and the :class:`CoverageWarning` are those of
    :func:`joint_outcome_distribution`, without its grid's sampling error.
    """
    _refuse_bad_widths(delta_plus, delta_minus)
    check_basis(basis)
    width = binning.delta_omega if basis == FREQUENCY_BASIS else time_resolution(binning, lens)
    low = -0.5 * binning.m * width
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
    state = np.asarray(state)
    _check_record(state, grid, 1, "single-photon state")
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
    state = np.asarray(state)
    _check_record(state, grid, 1, "single-photon state")
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
    freq_grid, spectrum = transform_1d(np.asarray(field, np.complex128), time_grid, sign=+1)
    spectrum = spectrum * np.exp(-0.5j * lens.gvd * freq_grid.points**2)
    _, field_mid = transform_1d(spectrum, freq_grid, sign=-1)
    t = time_grid.points
    if mode == "ideal-quadratic":
        phase = -0.5 * lens.focusing_rate * t**2
    else:
        phase = lens.mod_depth * (np.cos(lens.mod_frequency * t) - 1.0)
    return transform_1d(field_mid * np.exp(1j * phase), time_grid, sign=+1)


def overlap_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized squared overlap of two sampled wavefunctions."""
    a = np.asarray(a, dtype=np.complex128).ravel()
    b = np.asarray(b, dtype=np.complex128).ravel()
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ParameterError("fields must be finite")
    na = float(np.vdot(a, a).real)
    nb = float(np.vdot(b, b).real)
    if na == 0.0 or nb == 0.0:
        raise ParameterError("cannot compute fidelity with a zero field")
    return abs(np.vdot(a, b)) ** 2 / (na * nb)

