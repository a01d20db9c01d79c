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

The Gaussian record stores an exact 0 wherever its value would be subnormal
(below ``numpy.finfo(float).tiny``); every other entry keeps the bits of the
whole-matrix formula.  On x86 every subnormal operand or result of ``exp``,
an FFT or an SVD takes a microcode assist; the binned distributions, Schmidt
number and temporal amplitudes come out bit for bit as from the record with
its subnormals kept.

Most of a large record is the Gaussian's underflowed tail (61 % of the
m = 8 matched source's 2048 x 2048 record, 79 % of the m = 16 source's
4096 x 4096), so a spectral record holds only its band: blocks of
:data:`_BAND_ROWS` rows, each with the columns from its first to its last
entry of magnitude at least ``tiny`` (:func:`_row_bands`).  The m = 8
source's record takes 14 MiB instead of 32.  Binning, the Schmidt number
and the transform to times read the blocks, so none of them makes an
n x n temporary.

The Gaussian is built one block of rows at a time in a dense scratch of
that many rows.  Its norm squares each dense block and adds the block sums
in a binary tree, which is numpy's pairwise sum of the whole squared
record, bit for bit (:func:`_tree_sum`); only each block's band is kept.
The n x n arrays that remain are the transforms' outputs and the dense
view ``JointSpectralAmplitude.amplitudes``, which the SVD reads.  The
transforms write their first phase pass into the output (``to_temporal``
scatters its phased blocks into a zeroed one) and apply the other phases
and each axis's FFT in place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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


def _band(block: np.ndarray) -> slice | None:
    """Columns of a block of rows from its first to its last with an entry
    of magnitude at least ``numpy.finfo(float).tiny``; None if it has none."""
    cols = np.flatnonzero(np.abs(block).max(axis=0) >= _TINY)
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
        cols = _band(amplitudes[rows])
        if cols is not None:
            blocks.append((rows, cols, amplitudes[rows, cols]))
    return blocks


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
    def _from_blocks(cls, grid: FrequencyGrid, blocks: tuple) -> "JointSpectralAmplitude":
        """A record held as real ``blocks``, refused unless of unit mass."""
        mass = sum(float(np.einsum("ij,ij->", values, values)) for _, _, values in blocks)
        _check_mass(mass * grid.spacing**2, "joint spectral amplitude")
        for _, _, values in blocks:
            values.setflags(write=False)
        record = cls.__new__(cls)
        vars(record).update(grid=grid, _blocks=blocks)
        return record

    @property
    def amplitudes(self) -> np.ndarray:
        """A new read-only n x n record built from the blocks, zero elsewhere.

        For a record made from an array, a second n x n array beside the one
        its blocks view; it reads 0 where that array is subnormal outside the
        bands."""
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


def _fill_exponentials(
    out: np.ndarray, wi: np.ndarray, w: np.ndarray, delta_plus: float, delta_minus: float, floor: float
) -> slice | None:
    """Write ``exp`` of the Gaussian exponent at rows ``wi`` and columns
    ``w`` into ``out`` wherever the exponent is at least ``floor``; return
    the columns it was evaluated on, None if none.

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
    first_col, stop_col = w.size, 0
    for start in range(0, wi.size, rows):
        wr = wi[start : start + rows, None]
        first, last = float(wr[0, 0]), float(wr[-1, 0])
        low = max(-reach_sum - last, first - reach_diff)
        high = min(reach_sum - first, last + reach_diff)
        cols = slice(int(np.searchsorted(w, low, "left")), int(np.searchsorted(w, high, "right")))
        if cols.start >= cols.stop:
            continue
        x, y = wr - w[cols], wr + w[cols]
        for values, width in ((x, delta_plus), (y, delta_minus)):
            values /= math.sqrt(2.0)
            values **= 2
            values /= -2.0 * width**2
        x += y
        np.exp(x, out=out[start : start + rows, cols], where=x >= floor)
        first_col, stop_col = min(first_col, cols.start), max(stop_col, cols.stop)
    return slice(first_col, stop_col) if first_col < stop_col else None


def _tree_sum(sums: list[float]) -> float:
    """Add the sums of squares of a record's consecutive
    :data:`_BAND_ROWS`-row blocks in a binary tree.

    For a C-ordered square record with a power-of-two side this is
    ``np.sum(np.square(record))`` bit for bit: numpy sums a contiguous array
    pairwise, halving it down to blocks of at most 128 elements, so each
    block of rows is a subtree of that sum.
    """
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return sums[0]


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
        at least two samples, with at most 2**14 points.

    ``exp`` is evaluated only where its result is a normal double, and an
    entry that normalization takes below ``numpy.finfo(float).tiny`` is set
    to 0, so the record holds no subnormal number.  The norm is the square
    root of ``np.sum(np.square(amps))`` over the whole matrix times the
    spacing, so every other entry has the bits of the whole-matrix formula.
    The matrix is evaluated :data:`_BAND_ROWS` rows at a time into one
    dense scratch, whose squares are summed in numpy's pairwise tree
    (:func:`_tree_sum`); of each block only its band is kept, so the record
    takes the band's bytes and no n x n array is made.

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
    w = grid.points - grid.center
    height = min(_BAND_ROWS, w.size)
    scratch, squares = np.empty((2, height, w.size))
    starts = range(0, w.size, height)

    def evaluate(start: int, floor: float) -> tuple[int, np.ndarray] | None:
        """Leave rows ``start ...`` of the unnormalized Gaussian in the
        scratch; return the index of the first column they were evaluated
        on and a copy of those columns, or None."""
        scratch.fill(0.0)
        wi = w[start : start + height]
        cols = _fill_exponentials(scratch, wi, w, delta_plus, delta_minus, floor)
        return None if cols is None else (cols.start, scratch[:, cols].copy())

    held, sums = [], []
    for start in starts:
        held.append(evaluate(start, _EXP_FLOOR))
        sums.append(float(np.sum(np.square(scratch, out=squares))))
    scale = 1.0 / (math.sqrt(_tree_sum(sums)) * grid.spacing)
    blocks = []
    for k, start in enumerate(starts):
        # Each first-pass copy is dropped as its block is finished, so at
        # most one block is held twice.
        block, held[k] = held[k], None
        if scale > 1.0:
            # Entries whose exponential is subnormal can scale up to normal ones.
            block = evaluate(start, _EXP_FLOOR - math.log(scale))
        if block is None:
            continue
        first, values = block
        values *= scale
        values[values < _TINY] = 0.0
        cols = _band(values)
        if cols is not None:
            rows, band = slice(start, start + height), slice(first + cols.start, first + cols.stop)
            blocks.append((rows, band, np.ascontiguousarray(values[:, cols])))
    return JointSpectralAmplitude._from_blocks(grid, tuple(blocks))


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
    The Gram matrix ``M M^H`` is never formed: its squared norm is summed
    over the pairs of the record's row blocks whose bands overlap, each
    block ``M[I, c] M[J, c]^H`` over the shared columns ``c``, the pairs off
    the diagonal counted twice, and ``||M||_F**2`` is the sum of the
    diagonal blocks' traces.  The singular values of ``M`` times the grid
    spacing, whose squares sum to the unit discrete L2 mass, come from one
    SVD of the dense view on first access.
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
    return _DeferredSchmidtDecomposition(jsa, mass**2 / gram_sumsq)


def _dual_transform(
    values: np.ndarray | tuple[_Block, ...],
    grid_in: FrequencyGrid | TimeGrid,
    sign: int,
    axes: tuple[int, ...],
) -> tuple[TimeGrid | FrequencyGrid, np.ndarray]:
    """Exact uniform-grid Fourier sum along ``axes`` via a phase-decorated FFT.

    Computes ``sum_j f_j exp(sign*i*x_j*y_k) * h / sqrt(2*pi)`` on each axis,
    from the midpoint grid ``grid_in`` to its dual, whose spacings satisfy
    the dual relation ``g*h = 2*pi/n``.  ``values`` is an array, or the row
    blocks of a joint spectral record, transformed along ``axes = (0, 1)``.
    """
    n = grid_in.n_points
    banded = not isinstance(values, np.ndarray)
    if not banded and any(values.shape[axis] != n for axis in axes):
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
    ndim = 2 if banded else values.ndim
    shapes = [(n,) + (1,) * (ndim - 1 - axis % ndim) for axis in axes]
    # The output is the only array of the input's size: the first phase pass
    # writes it (a real x times a phase has the bits of (x + 0j) times it;
    # blocks are phased into a zeroed output), and every later pass and each
    # axis's FFT works in place.
    if banded:
        work = np.zeros((n, n), np.complex128)
        for rows, cols, block in values:
            np.multiply(block, pre[rows, None], out=work[rows, cols])
    else:
        work = np.multiply(values, pre.reshape(shapes[0]), dtype=np.complex128)
    for shape in shapes[1:]:
        work *= pre.reshape(shape)
    fft = np.fft.fftn if sign == -1 else functools.partial(np.fft.ifftn, norm="forward")
    fft(work, axes=axes, out=work)
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
    return _dual_transform(np.asarray(values), grid_in, sign, axes=(-1,))


def to_temporal(jsa: JointSpectralAmplitude) -> JointTemporalAmplitude:
    """Two-dimensional transform of the spectral amplitude to arrival times.

    Both axes use the ``exp(-i*w*t)`` kernel, so a frequency anti-correlated
    Gaussian becomes time correlated: the temporal intensity of
    ``make_gaussian_jsa(delta_plus, delta_minus)`` has the widths
    ``1/delta_minus`` along the correlated diagonal and ``1/delta_plus``
    across it.  The record's blocks are phased into the output, which has
    the bits of the dense record's transform.
    """
    tg, amplitudes = _dual_transform(jsa._blocks, jsa.grid, sign=-1, axes=(0, 1))
    return JointTemporalAmplitude(grid=tg, amplitudes=amplitudes)


def from_temporal(jta: JointTemporalAmplitude) -> JointSpectralAmplitude:
    """Inverse of :func:`to_temporal`; the record holds views of the
    transform's output, so it makes no second n x n array."""
    fg, amplitudes = _dual_transform(jta.amplitudes, jta.grid, sign=+1, axes=(0, 1))
    return JointSpectralAmplitude(fg, amplitudes)

