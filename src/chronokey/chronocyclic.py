"""Two-photon spectral and temporal amplitudes on uniform midpoint grids.

The source model is a Gaussian two-photon amplitude that is narrow along the
sum-frequency direction (strong anti-correlation of the photon detunings) and
wide along the difference direction.  Everything downstream consumes the
sampled amplitude matrix, so this module is the single place where grids,
normalization, and the frequency/time transform convention are fixed.

Transform convention: the time-domain amplitude is obtained with the
``exp(-i*w*t)`` kernel and prefactor ``1/sqrt(2*pi)`` per axis, and the
inverse direction uses ``exp(+i*w*t)``.  Discrete sums approximate the
integrals with the grid spacing as the quadrature weight, which keeps the
discrete L2 mass exactly conserved (Parseval) on dual grids.

The Gaussian source is one factor of the detuning difference times one of
the sum; on a uniform grid that is a Toeplitz matrix times a Hankel matrix
of two 1-D tables, so ``exp`` is taken on ``2n - 1`` entries per factor and
each cell is one product (:func:`make_gaussian_jsa`).  Its entries are
within 4 ulp of the record's largest entry of the exact Gaussian: at most
3.9 ulp over 2,400 random widths and grids, against exponent, ``exp`` and
norm in 80-bit long double.  The record stores an exact 0 wherever its value
would be subnormal (below ``numpy.finfo(float).tiny``).  On x86 every
subnormal operand or result of ``exp`` or an FFT takes a microcode assist;
the binned distributions, Schmidt number and temporal amplitudes
come out bit for bit as from the tables' product with its subnormals kept.

Most of a large record is the Gaussian's underflowed tail (61 % of the
m = 8 matched source's 2048 x 2048 record, 79 % of the m = 16 source's
4096 x 4096), so a spectral record holds only its band: blocks of
:data:`_BAND_ROWS` rows, each with the columns from its first to its last
entry of magnitude at least ``tiny`` (:func:`_row_bands`).  The m = 8
source's record takes 14 MiB instead of 32.  Binning, the Schmidt number
and the transform to times read the blocks, so none of them makes an
n x n temporary.

The n x n arrays that remain are ``to_temporal``'s output and the dense
view ``JointSpectralAmplitude.amplitudes``, which nothing in the package
reads.  The transforms write their first phase pass into the output
(``to_temporal`` scatters its phased blocks into a zeroed one) and apply
the other phases and each axis's FFT in place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridCoverageError, ParameterError, finite_positive, refuse_boolean_floats

# Tolerance on the discrete L2 mass of an amplitude record.
NORMALIZATION_ATOL = 1e-9
# Sampling requirements for the default grid of make_gaussian_jsa.
_SPAN_WIDTHS = 4.0
_SAMPLES_PER_WIDTH = 8
_MIN_POINTS = 64
# Smallest normal double: the Gaussian record stores 0 wherever it would be
# subnormal.
_TINY = float(np.finfo(np.float64).tiny)
# Largest grid sampled: an n x n float64 array (a record's dense view, or
# half of its temporal amplitude) takes 2 GiB at this size.
_MAX_POINTS = 1 << 14
# Rows per block of a banded record: 128 timed faster than 64 or 256 for
# time binning and the Schmidt number at 2048 and 4096 points.
_BAND_ROWS = 128

# One row block of a joint record: its rows, its band's columns and the
# entries there.  Every entry outside a record's blocks is 0.
_Block = tuple[slice, slice, np.ndarray]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _refuse_oversized(n_points: int) -> None:
    """Refuse a grid whose ``n x n`` float64 arrays would exceed 2 GiB: a
    record's dense view and the real and imaginary halves of its transform."""
    if n_points > _MAX_POINTS:
        raise ParameterError(
            f"grid of {n_points} points exceeds {_MAX_POINTS}: an n*n float64 array "
            f"(the record's dense view, or half of its temporal amplitude) would take "
            f"{8 * n_points**2:,} bytes, above the {8 * _MAX_POINTS**2:,} it takes at {_MAX_POINTS}"
        )


def _band(small: np.ndarray) -> slice | None:
    """Columns of a block of rows from its first to its last with an entry
    of magnitude at least ``numpy.finfo(float).tiny``, given the block's
    mask of entries below it; None if it has none."""
    cols = np.flatnonzero(~small.all(axis=0))
    return slice(int(cols[0]), int(cols[-1]) + 1) if cols.size else None


def _row_bands(amplitudes: np.ndarray) -> list[_Block]:
    """Blocks of :data:`_BAND_ROWS` rows of a 2-D record, each with its band
    (:func:`_band`) and a view of the record there.

    The blocks are scanned one at a time, so no whole-record mask is made,
    and a block with no entry in its band is left out.  Subnormal entries
    count as zeros: a product over the blocks is the whole record's to
    roundoff.
    """
    blocks = []
    for start in range(0, amplitudes.shape[0], _BAND_ROWS):
        rows = slice(start, start + _BAND_ROWS)
        cols = _band(np.abs(amplitudes[rows]) < _TINY)
        if cols is not None:
            blocks.append((rows, cols, amplitudes[rows, cols]))
    return blocks


@dataclass(frozen=True)
class _UniformGrid:
    """Shared behaviour of the frequency and time axes.

    Points sit at cell midpoints: ``-span + (j + 1/2) * spacing`` for
    ``j = 0 .. n_points - 1``, so the grid covers ``[-span, span]`` with no
    sample on either boundary, and its points are mirror images about zero.
    """

    n_points: int
    span: float

    def __post_init__(self) -> None:
        refuse_boolean_floats(self)
        if not isinstance(self.n_points, int) or not _is_power_of_two(self.n_points) or self.n_points < 2:
            raise ParameterError(f"n_points must be a power of two >= 2, got {self.n_points!r}")
        if not (math.isfinite(self.spacing) and self.span > 0.0):
            raise ParameterError(
                f"span must be positive with a finite spacing 2 * span / n_points, got {self.span!r}"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.span / self.n_points

    @property
    def points(self) -> np.ndarray:
        j = np.arange(self.n_points)
        return (j - (self.n_points - 1) / 2.0) * self.spacing


@dataclass(frozen=True)
class FrequencyGrid(_UniformGrid):
    """Uniform grid of angular-frequency detunings around zero."""

    def dual(self) -> "TimeGrid":
        """Time grid on which the FFT of samples from this grid lives."""
        return TimeGrid(self.n_points, span=math.pi / self.spacing)


@dataclass(frozen=True)
class TimeGrid(_UniformGrid):
    """Uniform grid of arrival times around zero."""

    def dual(self) -> FrequencyGrid:
        return FrequencyGrid(self.n_points, span=math.pi / self.spacing)


def _check_mass(mass: float, label: str) -> None:
    if not (math.isfinite(mass) and abs(mass - 1.0) <= NORMALIZATION_ATOL):
        raise ParameterError(f"{label} is not L2-normalized: discrete mass {mass!r}")


def _check_record(amplitudes: np.ndarray, grid: _UniformGrid, ndim: int, label: str) -> None:
    """Refuse a record not sampled on ``grid`` along all ``ndim`` axes, or not of unit L2 mass."""
    n = grid.n_points
    if amplitudes.shape != (n,) * ndim:
        raise ParameterError(f"{label} shape {amplitudes.shape} does not match grid size {n}")
    _check_mass(float(np.vdot(amplitudes, amplitudes).real) * grid.spacing**ndim, label)


@dataclass(frozen=True, eq=False, init=False)
class JointSpectralAmplitude:
    """Sampled two-photon amplitude over a square frequency grid.

    ``amplitudes[i, j]`` is the value at ``(grid.points[i], grid.points[j])``;
    axis 0 is the receiver-side photon and axis 1 the sender-side photon.
    The record carries unit discrete L2 mass and is held as its band only:
    the read-only blocks of :func:`_row_bands`.  One made from an n x n
    array holds views into that array, which it sets read-only; a Gaussian
    record from :func:`make_gaussian_jsa` holds blocks of its own.
    """

    grid: FrequencyGrid
    _blocks: tuple[_Block, ...] = field(repr=False)

    def __init__(self, grid: FrequencyGrid, amplitudes: np.ndarray) -> None:
        # The whole array is checked: a NaN outside the band is in no block.
        _check_record(amplitudes, grid, 2, "joint spectral amplitude")
        amplitudes.setflags(write=False)  # and so every view of it
        vars(self).update(grid=grid, _blocks=tuple(_row_bands(amplitudes)))

    @classmethod
    def _from_blocks(cls, grid: FrequencyGrid, blocks: tuple, sumsq: float) -> "JointSpectralAmplitude":
        """A record held as real ``blocks`` whose squares sum to ``sumsq``,
        refused unless of unit mass."""
        _check_mass(sumsq * grid.spacing**2, "joint spectral amplitude")
        for _, _, values in blocks:
            values.setflags(write=False)
        record = cls.__new__(cls)
        vars(record).update(grid=grid, _blocks=blocks)
        return record

    @property
    def amplitudes(self) -> np.ndarray:
        """A new read-only n x n record built from the blocks, zero elsewhere.

        Nothing in the package reads it: tests take it as the dense oracle,
        and the benchmark's tracer (``perfbench/spans.py``) reports its
        ``nbytes``.  For a record made from an array, a second n x n array
        beside the one its blocks view; it reads 0 where that array is
        subnormal outside the bands."""
        n = self.grid.n_points
        dense = np.zeros((n, n), self._blocks[0][2].dtype)
        for rows, cols, values in self._blocks:
            dense[rows, cols] = values
        dense.setflags(write=False)
        return dense


@dataclass(frozen=True, eq=False)
class JointTemporalAmplitude:
    """Sampled two-photon amplitude over a square time grid, produced by
    :func:`to_temporal`."""

    grid: TimeGrid
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_record(self.amplitudes, self.grid, 2, "joint temporal amplitude")
        self.amplitudes.setflags(write=False)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Mode count of a joint amplitude.

    ``schmidt_number`` is the inverse participation ratio of the squared
    Schmidt coefficients, the inverse purity of either reduced state, and
    equals 1 only for a product state.  It is checked finite and at least 1
    on construction.
    """

    schmidt_number: float

    def __post_init__(self) -> None:
        refuse_boolean_floats(self)
        if not (math.isfinite(self.schmidt_number) and self.schmidt_number >= 1.0 - 1e-12):
            raise ParameterError("schmidt_number must be finite and at least 1")


def _refuse_bad_widths(delta_plus: float, delta_minus: float) -> None:
    if not finite_positive(delta_plus, delta_minus):
        raise ParameterError("widths must be positive and finite numbers")


def default_grid(delta_plus: float, delta_minus: float) -> FrequencyGrid:
    """Grid sized to hold a Gaussian amplitude with the given widths.

    The half-span is four times the larger width and the spacing resolves the
    smaller width with at least eight samples, rounded up to a power of two
    with a floor of 64 points.  Widths that need more than 2**14 points are
    refused.
    """
    _refuse_bad_widths(delta_plus, delta_minus)
    wide = max(delta_plus, delta_minus)
    narrow = min(delta_plus, delta_minus)
    span = _SPAN_WIDTHS * wide
    needed = 2.0 * span * _SAMPLES_PER_WIDTH / narrow
    if not needed < math.inf:
        raise ParameterError(f"widths {delta_plus!r} and {delta_minus!r} need an unbounded grid")
    n = max(_MIN_POINTS, 1 << math.ceil(math.log2(needed)))
    _refuse_oversized(n)
    return FrequencyGrid(n_points=n, span=span)


def _gaussian_table(n_points: int, spacing: float, width: float) -> np.ndarray:
    """``exp(-(k*spacing)**2 / (4*width**2))`` for ``|k| < n_points``: one
    factor of the Gaussian at every difference, or sum, of two grid
    points, by the whole-matrix formula's operations
    (``(x/sqrt(2))**2 / (-2*width**2)``) and symmetric bit for bit."""
    x = (np.arange(2 * n_points - 1) - (n_points - 1)) * spacing
    x /= math.sqrt(2.0)
    x **= 2
    x /= -2.0 * width**2
    return np.exp(x, out=x)


def _sum_of_squares(f: np.ndarray, g: np.ndarray) -> float:
    """``sum((f[i - j + n - 1] * g[i + j])**2)`` over ``i, j < n`` in O(n):
    the squared norm of the record of two symmetric factor tables.

    Sum index ``t`` meets the difference indices of one parity from
    ``r = |t - n + 1|`` to ``2n - 2 - r``, whose ``p = f**2`` add up to that
    parity's total less twice those below ``r``; where ``g`` is not
    negligible those are ``p``'s far tail, so nothing cancels.  The totals
    and the sum over ``t`` are exactly rounded (``math.fsum``), the latter
    without its terms below 2**-106 of the largest (together under 2**-91
    of it), whose octaves would each cost ``fsum`` a partial sum.
    """
    n = (f.size + 1) // 2
    p = f * f
    # below[k] = p[k - 2] + p[k - 4] + ..., down to p[0] or p[1]
    below = np.zeros_like(p)
    below[2::2] = np.cumsum(p[:-2:2])
    below[3::2] = np.cumsum(p[1:-2:2])
    r = np.abs(np.arange(p.size) - (n - 1))
    totals = np.array([math.fsum(p[0::2].tolist()), math.fsum(p[1::2].tolist())])
    terms = g * g * (totals[r % 2] - 2.0 * below[r])
    return math.fsum(terms[terms >= 2.0**-106 * terms.max()].tolist())


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
        width on each side of zero and resolve the smaller width with
        at least two samples, with at most 2**14 points.

    The Gaussian is ``f(w_i - w_j) * g(w_i + w_j)``; on the grid the
    difference and sum of points ``i`` and ``j`` are ``(i - j) * h``
    and ``(i + j - n + 1) * h``, so ``exp`` is taken once per entry of two
    tables of ``2n - 1`` (:func:`_gaussian_table`), which also give the norm
    (:func:`_sum_of_squares`).  The scale goes into ``f``, and each block of
    :data:`_BAND_ROWS` rows is one multiply of two strided views of the
    tables over the columns they reach (row ``i`` of either factor is a
    slice of its table).  Entries below ``numpy.finfo(float).tiny`` are set
    to 0, so the record holds no subnormal number, and of each block only
    its band is kept: the record takes the band's bytes and no n x n array
    is made.

    Raises
    ------
    GridCoverageError
        If the supplied grid is too small or too coarse for the widths.
    ParameterError
        If the grid has more than 2**14 points; nothing is allocated first.
    """
    _refuse_bad_widths(delta_plus, delta_minus)
    wide = max(delta_plus, delta_minus)
    narrow = min(delta_plus, delta_minus)
    if grid is None:
        grid = default_grid(delta_plus, delta_minus)
    else:
        _refuse_oversized(grid.n_points)
        if grid.span < _SPAN_WIDTHS * wide * (1.0 - 1e-12):
            raise GridCoverageError(
                f"grid half-span {grid.span} is below {_SPAN_WIDTHS} times the larger width {wide}"
            )
        if grid.spacing > narrow / 2.0:
            raise GridCoverageError(
                f"grid spacing {grid.spacing} does not resolve the smaller width {narrow}"
            )
    n = grid.n_points
    f = _gaussian_table(n, grid.spacing, delta_plus)
    g = _gaussian_table(n, grid.spacing, delta_minus)
    scale = 1.0 / (math.sqrt(_sum_of_squares(f, g)) * grid.spacing)
    f *= scale
    # Every cell is at most its f entry (g <= 1) and at most scale times its
    # g entry (f <= scale), so these entries make only cells below tiny.
    f[f < _TINY] = 0.0
    g[g * scale < _TINY] = 0.0
    differences = np.flatnonzero(f) - (n - 1)
    sums = np.flatnonzero(g)
    # Cell (i, j) is f[i - j + n - 1] * g[i + j], and f is symmetric.
    f_rows = np.lib.stride_tricks.sliding_window_view(f, n)[::-1]
    g_rows = np.lib.stride_tricks.sliding_window_view(g, n)
    blocks = []
    sumsq = 0.0
    for start in range(0, n, _BAND_ROWS):
        stop = min(n, start + _BAND_ROWS)
        low = max(0, start - differences[-1], sums[0] - (stop - 1))
        high = min(n, stop - differences[0], sums[-1] - start + 1)
        if low >= high:
            continue
        rows = slice(start, stop)
        values = f_rows[rows, low:high] * g_rows[rows, low:high]
        small = values < _TINY
        np.copyto(values, 0.0, where=small)
        cols = _band(small)
        if cols is not None:
            band = slice(low + cols.start, low + cols.stop)
            kept = np.ascontiguousarray(values[:, cols])
            blocks.append((rows, band, kept))
            # Summed while the block is in cache; the check of unit mass
            # then reads no block again.
            sumsq += float(np.einsum("ij,ij->", kept, kept))
    return JointSpectralAmplitude._from_blocks(grid, tuple(blocks), sumsq)


def analytic_schmidt_number(delta_plus: float, delta_minus: float) -> float:
    """Closed-form mode count of the Gaussian amplitude: ``(r + 1/r) / 2``
    with ``r`` the ratio of the two widths."""
    _refuse_bad_widths(delta_plus, delta_minus)
    r = delta_plus / delta_minus
    if not (math.isfinite(r) and r > 0.0 and math.isfinite(1.0 / r)):
        raise ParameterError(f"width ratio {r!r} is out of range")
    return 0.5 * (r + 1.0 / r)


def schmidt_decompose(jsa: JointSpectralAmplitude) -> SchmidtDecomposition:
    """Schmidt number of the sampled amplitude.

    The Schmidt number is the inverse purity ``||M||_F**4 / ||M M^H||_F**2``
    of either reduced state (Law, Walmsley & Eberly, PRL 84, 5304 (2000)).
    The Gram matrix ``M M^H`` is never formed: its squared norm is summed
    over the pairs of the record's row blocks whose bands overlap, each
    block ``M[I, c] M[J, c]^H`` over the shared columns ``c``, the pairs off
    the diagonal counted twice, and ``||M||_F**2`` is the sum of the
    diagonal blocks' traces, so no SVD is taken and no n x n array is made.
    """
    blocks = jsa._blocks
    mass = gram_sumsq = 0.0
    for i, (rows_i, cols_i, values_i) in enumerate(blocks):
        for rows_j, cols_j, values_j in blocks[i:]:
            low, high = max(cols_i.start, cols_j.start), min(cols_i.stop, cols_j.stop)
            if low < high:
                left = values_i[:, low - cols_i.start : high - cols_i.start]
                right = values_j[:, low - cols_j.start : high - cols_j.start]
                block = left @ right.conj().T
                if rows_i == rows_j:
                    mass += float(np.trace(block).real)
                weight = 1.0 if rows_i == rows_j else 2.0
                # Not np.vdot: a threaded BLAS can take milliseconds to
                # start each level-1 call, and this makes one per pair.
                gram_sumsq += weight * float(np.einsum("ij,ij->", block, block.conj()).real)
    return SchmidtDecomposition(mass**2 / gram_sumsq)


def _dual_transform(
    values: np.ndarray | tuple[_Block, ...],
    grid_in: FrequencyGrid | TimeGrid,
    sign: int,
) -> tuple[TimeGrid | FrequencyGrid, np.ndarray]:
    """Exact uniform-grid Fourier sum via a phase-decorated FFT.

    Computes ``sum_j f_j exp(sign*i*x_j*y_k) * h / sqrt(2*pi)`` on each
    transformed axis, from the midpoint grid ``grid_in`` to its dual, whose
    spacings satisfy the dual relation ``g*h = 2*pi/n``.  ``values`` is an
    array of finite samples, transformed along its last axis, or the row
    blocks of a joint spectral record, transformed along both axes.
    """
    n = grid_in.n_points
    banded = not isinstance(values, np.ndarray)
    if not banded and values.shape[-1:] != (n,):
        raise ParameterError("transform grids must match the axis length")
    if isinstance(sign, bool) or not isinstance(sign, (int, np.integer)) or sign not in (-1, +1):
        raise ParameterError(f"sign must be the integer +1 or -1, got {sign!r}")
    if not banded and not np.isfinite(values).all():
        raise ParameterError("samples to transform must be finite")
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
    # The output is the only array of the input's size: the first phase pass
    # writes it (a real x times a phase has the bits of (x + 0j) times it;
    # blocks are phased along their rows into a zeroed output), and every
    # later pass and each axis's FFT works in place.
    if banded:
        work = np.zeros((n, n), np.complex128)
        for rows, cols, block in values:
            np.multiply(block, pre[rows, None], out=work[rows, cols])
        work *= pre
        axes = (0, 1)
    else:
        work = np.multiply(values, pre, dtype=np.complex128)
        axes = (-1,)
    fft = np.fft.fftn if sign == -1 else functools.partial(np.fft.ifftn, norm="forward")
    fft(work, axes=axes, out=work)
    if banded:
        work *= post[:, None]
    work *= post
    return grid_out, work


def transform_1d(
    values: np.ndarray,
    grid_in: FrequencyGrid | TimeGrid,
    sign: int = -1,
) -> tuple[TimeGrid | FrequencyGrid, np.ndarray]:
    """Transform samples on a grid to its dual grid, along the last axis.

    ``sign=-1`` is the frequency-to-time direction of this package's
    convention and ``sign=+1`` the time-to-frequency direction; either sign
    is accepted on either grid kind so round trips are expressible.

    Raises
    ------
    ParameterError
        If the last axis does not match the grid, ``sign`` is not the
        integer +1 or -1 (a boolean is refused), or a sample is not finite;
        each is refused before the output is allocated.
    """
    return _dual_transform(np.asarray(values), grid_in, sign)


def to_temporal(jsa: JointSpectralAmplitude) -> JointTemporalAmplitude:
    """Two-dimensional transform of the spectral amplitude to arrival times.

    Both axes use the ``exp(-i*w*t)`` kernel, so a frequency anti-correlated
    Gaussian becomes time correlated: the temporal intensity of
    ``make_gaussian_jsa(delta_plus, delta_minus)`` has the widths
    ``1/delta_minus`` along the correlated diagonal and ``1/delta_plus``
    across it.  The record's blocks are phased into the output, which has
    the bits of the dense record's transform.
    """
    tg, amplitudes = _dual_transform(jsa._blocks, jsa.grid, sign=-1)
    return JointTemporalAmplitude(grid=tg, amplitudes=amplitudes)
