"""Two-photon spectral and temporal amplitudes on uniform midpoint grids.

The source model is a Gaussian two-photon amplitude that is narrow along the
sum-frequency direction (strong anti-correlation of the photon detunings) and
wide along the difference direction.  Everything downstream consumes either
the sampled amplitude matrix or the analytic widths stored alongside it, so
this module is the single place where grids, normalization, and the
frequency/time transform convention are fixed.

Transform convention: the time-domain amplitude is obtained with the
``exp(-i*w*t)`` kernel and prefactor ``1/sqrt(2*pi)`` per axis, and the
inverse direction uses ``exp(+i*w*t)``.  Discrete sums approximate the
integrals with the grid spacing as the quadrature weight, which keeps the
discrete L2 mass exactly conserved (Parseval) on dual grids.

The Gaussian record stores an exact 0 wherever its value would be subnormal
(below ``numpy.finfo(float).tiny``); every other entry keeps the bits of the
whole-matrix formula.  Most of a large record is the Gaussian's underflowed
tail, and on x86 every subnormal operand or result of ``exp``, a GEMM, an FFT
or an SVD takes a microcode assist.  With the subnormal cells zeroed, the
time-basis binning's GEMM of the m = 8 source (2048 points, 37,652 subnormal
cells) takes 57 ms instead of 136 ms, and of the m = 16 source (4096 points)
185 ms instead of 360 ms, on a 2-vCPU Xeon with numpy 2.4; the binned
distributions, Schmidt number and temporal amplitudes come out bit for bit
the same.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, GridCoverageError, ParameterError, refuse_boolean_floats

# Tolerance on the discrete L2 mass of an amplitude record.
NORMALIZATION_ATOL = 1e-9
# Tolerance on the sum of squared singular values of a normalized amplitude.
SINGULAR_SUMSQ_ATOL = 1e-6
# Sampling requirements for the default grid of make_gaussian_jsa.
_SPAN_WIDTHS = 4.0
_SAMPLES_PER_WIDTH = 8
_MIN_POINTS = 64
# Smallest normal double.  exp(x) is normal from x = log(tiny) ~ -708.40 up;
# the Gaussian is evaluated from a hair below that, so rounding in exp cannot
# drop a normal value, and the record stores 0 wherever it would be subnormal.
_TINY = float(np.finfo(np.float64).tiny)
_EXP_FLOOR = math.log(_TINY) - 2.0**-10
# Cells per block of the Gaussian's exponent (two float64 work arrays of
# 256 kB each, which stay in a core's L2 cache).
_BLOCK_CELLS = 1 << 15


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class _UniformGrid:
    """Shared behaviour of the frequency and time axes.

    Points sit at cell midpoints: ``center - span + (j + 1/2) * spacing`` for
    ``j = 0 .. n_points - 1``, so the grid covers ``[center - span,
    center + span]`` with no sample on either boundary.
    """

    n_points: int
    span: float
    center: float = 0.0

    def __post_init__(self) -> None:
        refuse_boolean_floats(self)
        if not isinstance(self.n_points, int) or not _is_power_of_two(self.n_points) or self.n_points < 2:
            raise ParameterError(f"n_points must be a power of two >= 2, got {self.n_points!r}")
        if not (math.isfinite(self.spacing) and self.span > 0.0):
            raise ParameterError(
                f"span must be positive with a finite spacing 2 * span / n_points, got {self.span!r}"
            )
        if not math.isfinite(self.center):
            raise ParameterError(f"center must be finite, got {self.center!r}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.span / self.n_points

    @property
    def points(self) -> np.ndarray:
        j = np.arange(self.n_points)
        return self.center + (j - (self.n_points - 1) / 2.0) * self.spacing


@dataclass(frozen=True)
class FrequencyGrid(_UniformGrid):
    """Uniform grid of angular-frequency detunings around ``center``."""

    def dual(self) -> "TimeGrid":
        """Time grid on which the FFT of samples from this grid lives."""
        return TimeGrid(self.n_points, span=math.pi / self.spacing)


@dataclass(frozen=True)
class TimeGrid(_UniformGrid):
    """Uniform grid of arrival times around ``center``."""

    def dual(self) -> FrequencyGrid:
        return FrequencyGrid(self.n_points, span=math.pi / self.spacing)


def _check_record(amplitudes: np.ndarray, grid: _UniformGrid, ndim: int, label: str) -> None:
    """Refuse a record not sampled on ``grid`` along all ``ndim`` axes, or not of unit L2 mass."""
    n = grid.n_points
    if amplitudes.shape != (n,) * ndim:
        raise ParameterError(f"{label} shape {amplitudes.shape} does not match grid size {n}")
    mass = float(np.vdot(amplitudes, amplitudes).real) * grid.spacing**ndim
    if not (math.isfinite(mass) and abs(mass - 1.0) <= NORMALIZATION_ATOL):
        raise ParameterError(f"{label} is not L2-normalized: discrete mass {mass!r}")


@dataclass(frozen=True, eq=False)
class JointSpectralAmplitude:
    """Sampled two-photon amplitude over a square frequency grid.

    ``amplitudes[i, j]`` is the value at ``(grid.points[i], grid.points[j])``;
    axis 0 is the receiver-side photon and axis 1 the sender-side photon.
    The matrix is treated as read-only and carries unit discrete L2 mass.
    ``kind`` is ``"parametric-gaussian"`` when the analytic widths
    ``delta_plus`` (difference direction, wide) and ``delta_minus`` (sum
    direction, narrow) are meaningful, ``"sampled"`` otherwise.
    """

    kind: str
    grid: FrequencyGrid
    amplitudes: np.ndarray
    delta_plus: float | None = None
    delta_minus: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("parametric-gaussian", "sampled"):
            raise ParameterError(f"unknown amplitude kind {self.kind!r}")
        if self.kind == "parametric-gaussian":
            if self.delta_plus is None or self.delta_minus is None:
                raise ParameterError("parametric-gaussian amplitudes need both widths")
        _check_record(self.amplitudes, self.grid, 2, "joint spectral amplitude")
        self.amplitudes.setflags(write=False)


@dataclass(frozen=True, eq=False)
class JointTemporalAmplitude:
    """Sampled two-photon amplitude over a square time grid, produced by
    :func:`to_temporal`."""

    grid: TimeGrid
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_record(self.amplitudes, self.grid, 2, "joint temporal amplitude")
        self.amplitudes.setflags(write=False)


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Mode count and singular spectrum of a joint amplitude.

    ``singular_values`` are non-negative and sorted descending with unit sum
    of squares (up to :data:`SINGULAR_SUMSQ_ATOL`); ``schmidt_number`` is the
    inverse participation ratio of their squares and equals 1 only for a
    product state.  Both are checked on construction.
    """

    singular_values: np.ndarray
    schmidt_number: float

    def __post_init__(self) -> None:
        lam = self.singular_values
        if lam.ndim != 1 or lam.size == 0:
            raise ParameterError("singular_values must be a non-empty 1-d array")
        if not np.all(np.isfinite(lam)):
            raise ParameterError("singular_values must be finite")
        if not (np.all(lam >= -1e-15) and np.all(np.diff(lam) <= 1e-12)):
            raise ParameterError("singular_values must be non-negative and sorted descending")
        total = float(np.sum(lam**2))
        if not abs(total - 1.0) <= SINGULAR_SUMSQ_ATOL:
            raise ParameterError(f"squared singular values sum to {total!r}, expected 1")
        if not (math.isfinite(self.schmidt_number) and self.schmidt_number >= 1.0 - 1e-12):
            raise ParameterError("schmidt_number must be finite and at least 1")
        lam.setflags(write=False)


class _DeferredSchmidtDecomposition(SchmidtDecomposition):
    """Decomposition of ``jsa`` whose spectrum is computed, checked and kept on first read."""

    def __init__(self, jsa: JointSpectralAmplitude, schmidt_number: float) -> None:
        object.__setattr__(self, "_jsa", jsa)
        object.__setattr__(self, "schmidt_number", schmidt_number)

    @functools.cached_property
    def singular_values(self) -> np.ndarray:
        try:
            lam = np.linalg.svd(self._jsa.amplitudes, compute_uv=False) * self._jsa.grid.spacing
        except np.linalg.LinAlgError as exc:
            raise DecompositionError(f"singular value decomposition failed: {exc}") from exc
        return SchmidtDecomposition(lam, self.schmidt_number).singular_values


def _refuse_bad_widths(delta_plus: float, delta_minus: float) -> None:
    if not all(math.isfinite(x) and x > 0.0 for x in (delta_plus, delta_minus)):
        raise ParameterError("widths must be positive and finite")


def default_grid(delta_plus: float, delta_minus: float) -> FrequencyGrid:
    """Grid sized to hold a Gaussian amplitude with the given widths.

    The half-span is four times the larger width and the spacing resolves the
    smaller width with at least eight samples, rounded up to a power of two
    with a floor of 64 points.
    """
    _refuse_bad_widths(delta_plus, delta_minus)
    wide = max(delta_plus, delta_minus)
    narrow = min(delta_plus, delta_minus)
    span = _SPAN_WIDTHS * wide
    needed = 2.0 * span * _SAMPLES_PER_WIDTH / narrow
    if not needed < math.inf:
        raise ParameterError(f"widths {delta_plus!r} and {delta_minus!r} need an unbounded grid")
    n = max(_MIN_POINTS, 1 << math.ceil(math.log2(needed)))
    return FrequencyGrid(n_points=n, span=span)


def _fill_exponentials(
    amps: np.ndarray, w: np.ndarray, delta_plus: float, delta_minus: float, floor: float
) -> list[tuple[slice, slice]]:
    """Write ``exp`` of the Gaussian exponent into ``amps`` wherever the
    exponent is at least ``floor``; return the blocks it was evaluated on.

    The exponent of cell ``(i, j)`` is ``((w_i - w_j)/sqrt(2))**2 /
    (-2*delta_plus**2) + ((w_i + w_j)/sqrt(2))**2 / (-2*delta_minus**2)``,
    taken with these operations in this order, so its bits do not depend on
    the blocking.  It is evaluated in row blocks of about
    :data:`_BLOCK_CELLS` cells, each over the columns where both terms, which
    are non-positive, can still reach ``floor``: ``|w_i + w_j| <= 2 *
    delta_minus * sqrt(-floor)`` and the same with ``w_i - w_j`` and
    ``delta_plus``, each widened by one grid step against rounding.  ``w``
    ascends.
    """
    step = float(w[1] - w[0])
    reach_sum = 2.0 * delta_minus * math.sqrt(-floor) + step
    reach_diff = 2.0 * delta_plus * math.sqrt(-floor) + step
    rows = max(1, _BLOCK_CELLS // min(w.size, int(2.0 * reach_sum / step) + 1))
    blocks = []
    for start in range(0, w.size, rows):
        wi = w[start : start + rows, None]
        first, last = float(wi[0, 0]), float(wi[-1, 0])
        low = max(-reach_sum - last, first - reach_diff)
        high = min(reach_sum - first, last + reach_diff)
        cols = slice(int(np.searchsorted(w, low, "left")), int(np.searchsorted(w, high, "right")))
        if cols.start >= cols.stop:
            continue
        x, y = wi - w[cols], wi + w[cols]
        for values, width in ((x, delta_plus), (y, delta_minus)):
            values /= math.sqrt(2.0)
            values **= 2
            values /= -2.0 * width**2
        x += y
        block = (slice(start, start + rows), cols)
        np.exp(x, out=amps[block], where=x >= floor)
        blocks.append(block)
    return blocks


def make_gaussian_jsa(
    delta_plus: float,
    delta_minus: float,
    grid: FrequencyGrid | None = None,
) -> JointSpectralAmplitude:
    """Sample the real (float64) Gaussian two-photon amplitude and normalize it.

    Parameters
    ----------
    delta_plus:
        Width along the difference of the two detunings (the wide, marginal
        direction).
    delta_minus:
        Width along the sum of the two detunings (the narrow, correlation
        direction).  ``delta_plus > delta_minus`` gives frequency
        anti-correlation; the degenerate and swapped orderings are allowed.
    grid:
        Optional explicit grid.  It must span at least four times the larger
        width on each side of its center and resolve the smaller width with
        at least two samples.

    ``exp`` is evaluated only where its result is a normal double, and an
    entry that normalization takes below ``numpy.finfo(float).tiny`` is set
    to 0, so the record holds no subnormal number.  The norm is the square
    root of ``np.sum(np.square(amps))`` over the whole matrix times the
    spacing, as before, so every other entry has the bits of the
    whole-matrix formula.

    Raises
    ------
    GridCoverageError
        If the supplied grid is too small or too coarse for the widths.
    """
    _refuse_bad_widths(delta_plus, delta_minus)
    wide = max(delta_plus, delta_minus)
    narrow = min(delta_plus, delta_minus)
    if grid is None:
        grid = default_grid(delta_plus, delta_minus)
    else:
        if grid.span < _SPAN_WIDTHS * wide * (1.0 - 1e-12):
            raise GridCoverageError(
                f"grid half-span {grid.span} is below {_SPAN_WIDTHS} times the larger width {wide}"
            )
        if grid.spacing > narrow / 2.0:
            raise GridCoverageError(
                f"grid spacing {grid.spacing} does not resolve the smaller width {narrow}"
            )
    w = grid.points - grid.center
    amps = np.zeros((w.size, w.size))
    blocks = _fill_exponentials(amps, w, delta_plus, delta_minus, _EXP_FLOOR)
    norm = math.sqrt(float(np.sum(np.square(amps)))) * grid.spacing
    scale = 1.0 / norm
    if scale > 1.0:
        # Entries whose exponential is subnormal can scale up to normal ones.
        blocks = _fill_exponentials(amps, w, delta_plus, delta_minus, _EXP_FLOOR - math.log(scale))
    for block in blocks:
        values = amps[block]
        values *= scale
        values[values < _TINY] = 0.0
    return JointSpectralAmplitude(
        kind="parametric-gaussian",
        grid=grid,
        amplitudes=amps,
        delta_plus=float(delta_plus),
        delta_minus=float(delta_minus),
    )


def analytic_schmidt_number(delta_plus: float, delta_minus: float) -> float:
    """Closed-form mode count of the Gaussian amplitude: ``(r + 1/r) / 2``
    with ``r`` the ratio of the two widths."""
    _refuse_bad_widths(delta_plus, delta_minus)
    r = delta_plus / delta_minus
    if not (math.isfinite(r) and r > 0.0 and math.isfinite(1.0 / r)):
        raise ParameterError(f"width ratio {r!r} is out of range")
    return 0.5 * (r + 1.0 / r)


def schmidt_decompose(jsa: JointSpectralAmplitude) -> SchmidtDecomposition:
    """Schmidt number of the sampled amplitude, and its spectrum on demand.

    The Schmidt number is the inverse purity ``||M||_F**4 / ||M M^H||_F**2``
    of either reduced state (Law, Walmsley & Eberly, PRL 84, 5304 (2000)).
    The singular values of ``M`` times the grid spacing, whose squares sum to
    the unit discrete L2 mass, come from one SVD on first access.
    """
    amplitudes = jsa.amplitudes
    gram = amplitudes @ amplitudes.conj().T
    mass = float(np.vdot(amplitudes, amplitudes).real)
    return _DeferredSchmidtDecomposition(jsa, mass**2 / float(np.vdot(gram, gram).real))


def _dual_transform(
    values: np.ndarray, grid_in: FrequencyGrid | TimeGrid, sign: int, axes: tuple[int, ...]
) -> tuple[TimeGrid | FrequencyGrid, np.ndarray]:
    """Exact uniform-grid Fourier sum along ``axes`` via a phase-decorated FFT.

    Computes ``sum_j f_j exp(sign*i*x_j*y_k) * h / sqrt(2*pi)`` on each axis,
    from the midpoint grid ``grid_in`` to its dual, whose spacings satisfy
    the dual relation ``g*h = 2*pi/n``.
    """
    n = grid_in.n_points
    work = np.array(values, dtype=np.complex128)  # one copy, phased in place before and after the FFT
    if any(work.shape[axis] != n for axis in axes):
        raise ParameterError("transform grids must match the axis length")
    if sign not in (-1, +1):
        raise ParameterError("sign must be +1 or -1")
    grid_out = grid_in.dual()
    points_out = grid_out.points
    spacing_out = float(points_out[1] - points_out[0])
    x0 = float(grid_in.points[0])
    y0 = float(points_out[0])
    j = np.arange(n)
    pre = np.exp(sign * 1j * y0 * grid_in.spacing * j)
    post = np.exp(sign * 1j * (x0 * y0 + x0 * spacing_out * j)) * (
        grid_in.spacing / math.sqrt(2.0 * math.pi)
    )
    # A length-n vector shaped (n, 1, ..., 1) broadcasts along its axis.
    shapes = [(n,) + (1,) * (work.ndim - 1 - axis % work.ndim) for axis in axes]
    for shape in shapes:
        work *= pre.reshape(shape)
    fft = np.fft.fftn if sign == -1 else functools.partial(np.fft.ifftn, norm="forward")
    work = fft(work, axes=axes)
    for shape in shapes:
        work *= post.reshape(shape)
    return grid_out, work


def transform_1d(
    values: np.ndarray,
    grid_in: FrequencyGrid | TimeGrid,
    sign: int = -1,
) -> tuple[TimeGrid | FrequencyGrid, np.ndarray]:
    """Transform samples on a grid to its dual grid.

    ``sign=-1`` is the frequency-to-time direction of this package's
    convention and ``sign=+1`` the time-to-frequency direction; either sign
    is accepted on either grid kind so round trips are expressible.
    """
    return _dual_transform(values, grid_in, sign, axes=(-1,))


def to_temporal(jsa: JointSpectralAmplitude) -> JointTemporalAmplitude:
    """Two-dimensional transform of the spectral amplitude to arrival times.

    Both axes use the ``exp(-i*w*t)`` kernel, so a frequency anti-correlated
    Gaussian becomes time correlated.  A parametric record's temporal
    intensity has the widths ``1/delta_minus`` along the correlated diagonal
    and ``1/delta_plus`` across it.
    """
    tg, amplitudes = _dual_transform(jsa.amplitudes, jsa.grid, sign=-1, axes=(0, 1))
    return JointTemporalAmplitude(grid=tg, amplitudes=amplitudes)


def from_temporal(jta: JointTemporalAmplitude) -> JointSpectralAmplitude:
    """Inverse of :func:`to_temporal`; returns a sampled spectral record."""
    fg, amplitudes = _dual_transform(jta.amplitudes, jta.grid, sign=+1, axes=(0, 1))
    return JointSpectralAmplitude(kind="sampled", grid=fg, amplitudes=amplitudes)


def _diagonal_widths(amplitudes: np.ndarray, points: np.ndarray, spacing: float) -> tuple[float, float]:
    """Intensity widths along the +45 and -45 degree axes.

    Returns ``sqrt(2)`` times the standard deviation of the intensity along
    ``(u + v)/sqrt(2)`` and ``(u - v)/sqrt(2)``; for a Gaussian intensity
    ``exp(-x**2 / W**2)`` that estimator recovers ``W`` exactly.
    """
    intensity = np.abs(amplitudes) ** 2 * spacing * spacing
    total = float(intensity.sum())
    row_mass = intensity.sum(axis=1)
    col_mass = intensity.sum(axis=0)
    mu_r = float(row_mass @ points) / total
    mu_c = float(col_mass @ points) / total
    var_r = float(row_mass @ (points - mu_r) ** 2) / total
    var_c = float(col_mass @ (points - mu_c) ** 2) / total
    cross = float((points - mu_r) @ intensity @ (points - mu_c)) / total
    var_sum = 0.5 * (var_r + var_c + 2.0 * cross)
    var_diff = 0.5 * (var_r + var_c - 2.0 * cross)
    return math.sqrt(2.0 * var_sum), math.sqrt(2.0 * var_diff)


def fitted_spectral_widths(jsa: JointSpectralAmplitude) -> tuple[float, float]:
    """Moment-fitted intensity widths of a spectral amplitude.

    Returns ``(width_difference, width_sum)``: the width across the
    anti-diagonal (matching ``delta_plus``) and along the sum direction
    (matching ``delta_minus``).
    """
    w_sum, w_diff = _diagonal_widths(jsa.amplitudes, jsa.grid.points, jsa.grid.spacing)
    return w_diff, w_sum


def fitted_temporal_widths(jta: JointTemporalAmplitude) -> tuple[float, float]:
    """Moment-fitted intensity widths of a temporal amplitude.

    Returns ``(width_correlated, width_anticorrelated)``: the width along the
    diagonal (matching ``1/delta_minus``) and across it (matching
    ``1/delta_plus``).
    """
    w_sum, w_diff = _diagonal_widths(jta.amplitudes, jta.grid.points, jta.grid.spacing)
    return w_sum, w_diff
