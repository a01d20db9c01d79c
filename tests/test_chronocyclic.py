"""Grids, the two-photon source model, Fourier transforms, and Schmidt analysis."""

import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chronokey as ck


def _normalize(values, spacing):
    return values / math.sqrt(float((np.abs(values) ** 2).sum() * spacing))


TINY = np.finfo(np.float64).tiny


def _reference_gaussian_amplitudes(delta_plus, delta_minus, grid):
    """The Gaussian record as the dense product of its two factor tables,
    subnormal and underflowed products included: f of the differences
    ``(i - j) * h`` and g of the centred sums ``(i + j - n + 1) * h``, with
    the tables' squared norm and the scale taken into f first."""
    n, h = grid.n_points, grid.spacing
    f, g = (
        np.exp(((((np.arange(2 * n - 1) - (n - 1)) * h) / math.sqrt(2.0)) ** 2) / (-2.0 * width**2))
        for width in (delta_plus, delta_minus)
    )
    f = f * (1.0 / (math.sqrt(ck.chronocyclic._sum_of_squares(f, g)) * h))
    i = np.arange(n)
    return f[np.subtract.outer(i, i) + n - 1] * g[np.add.outer(i, i)]


def _whole_matrix_gaussian(delta_plus, delta_minus, grid):
    """The Gaussian record as one whole-matrix formula: ``exp`` of the full
    exponent at the grid's points, normalized by the pairwise sum of its
    squares."""
    w = grid.points
    amps, wp = np.subtract.outer(w, w), np.add.outer(w, w)
    for values, width in ((amps, delta_plus), (wp, delta_minus)):
        values /= math.sqrt(2.0)
        values **= 2
        values /= -2.0 * width**2
    amps += wp
    np.exp(amps, out=amps)
    norm = math.sqrt(float(np.sum(np.square(amps, out=wp)))) * grid.spacing
    amps *= 1.0 / norm
    return amps


def _singular_values(jsa):
    """Singular values of the dense view times the grid spacing: the
    Schmidt coefficients, whose squares sum to the unit discrete L2 mass."""
    return np.linalg.svd(jsa.amplitudes, compute_uv=False) * jsa.grid.spacing


def _svd_mode_count(jsa):
    weights = _singular_values(jsa) ** 2
    weights = weights / weights.sum()
    return 1.0 / float((weights**2).sum())


class TestGrids:
    def test_midpoint_points_and_spacing(self):
        g = ck.FrequencyGrid(8, span=4.0)
        assert g.spacing == pytest.approx(1.0)
        assert np.allclose(g.points, np.arange(8) - 3.5)
        assert abs(g.points.sum()) < 1e-12

    @pytest.mark.parametrize("n", [2, 8, 64, 1024, 2**14])
    @pytest.mark.parametrize("kind", [ck.FrequencyGrid, ck.TimeGrid])
    def test_points_are_mirror_images_about_zero(self, kind, n):
        for span in (4.0, 0.1, 3.7, 1e5 / 3.0):
            points = kind(n, span=span).points
            assert np.array_equal(points, -points[::-1])
            assert (points[n // 2 :] > 0.0).all()

    @pytest.mark.parametrize("kind", [ck.FrequencyGrid, ck.TimeGrid])
    def test_has_no_center(self, kind):
        with pytest.raises(TypeError):
            kind(64, span=4.0, center=0.0)

    @pytest.mark.parametrize("n", [0, 1, 3, 24, 100])
    def test_rejects_non_power_of_two_sizes(self, n):
        with pytest.raises(ck.ParameterError):
            ck.FrequencyGrid(n, span=4.0)

    @pytest.mark.parametrize("span", [0.0, -1.0, math.inf, math.nan, 1e308])
    def test_rejects_non_positive_span(self, span):
        with pytest.raises(ck.ParameterError):
            ck.TimeGrid(64, span=span)

    @pytest.mark.parametrize("span", [True, np.True_])
    def test_rejects_boolean_floats(self, span):
        with pytest.raises(ck.ParameterError, match="boolean"):
            ck.FrequencyGrid(64, span=span)

    def test_dual_grid_satisfies_exchange_relation(self):
        g = ck.FrequencyGrid(256, span=10.0)
        d = g.dual()
        # spacing product must equal 2*pi/n for the unitary transform pair
        assert d.spacing * g.spacing * 256 == pytest.approx(2.0 * math.pi, rel=1e-15)
        dd = d.dual()
        assert dd.span == pytest.approx(g.span, rel=1e-12)
        assert np.allclose(dd.points, g.points)


class TestTransform:
    @settings(max_examples=30, deadline=None)
    @given(
        log2_n=st.integers(3, 7),
        span=st.floats(0.5, 50.0),
        seed=st.integers(0, 2**32 - 1),
        is_complex=st.booleans(),
    )
    def test_round_trips_hold_for_real_and_complex_records(self, log2_n, span, seed, is_complex):
        n = 1 << log2_n
        grid = ck.FrequencyGrid(n, span=span)
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, n))
        if is_complex:
            values = values + 1j * rng.normal(size=(n, n))
        values = values / math.sqrt(float(np.vdot(values, values).real)) / grid.spacing
        jsa = ck.JointSpectralAmplitude(grid, values)
        # the transform's phase arguments grow like n radians, so does roundoff
        tolerance = 1e-12 * n * float(np.abs(values).max())
        jta = ck.to_temporal(jsa)
        back = _reference_dual_transform(jta.amplitudes, jta.grid, +1, (0, 1))
        assert np.allclose(jta.grid.dual().points, grid.points)
        assert np.abs(back - values).max() <= tolerance
        for row in values[:2]:
            for sign in (-1, +1):
                dual, forward = ck.transform_1d(row, grid, sign=sign)
                _, restored = ck.transform_1d(forward, dual, sign=-sign)
                assert np.abs(restored - row).max() <= tolerance

    def test_round_trip_restores_input(self):
        rng = np.random.default_rng(7)
        g = ck.FrequencyGrid(128, span=6.0)
        values = rng.normal(size=128) + 1j * rng.normal(size=128)
        tg, forward = ck.transform_1d(values, g, sign=-1)
        g2, back = ck.transform_1d(forward, tg, sign=+1)
        assert np.allclose(g2.points, g.points)
        assert np.abs(back - values).max() < 1e-9

    def test_transform_preserves_total_mass(self):
        rng = np.random.default_rng(11)
        g = ck.FrequencyGrid(256, span=8.0)
        values = _normalize(rng.normal(size=256) + 1j * rng.normal(size=256), g.spacing)
        tg, out = ck.transform_1d(values, g, sign=-1)
        mass = float((np.abs(out) ** 2).sum() * tg.spacing)
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_maps_to_reciprocal_width(self):
        sigma = 2.0
        g = ck.FrequencyGrid(512, span=16.0)
        values = _normalize(np.exp(-g.points**2 / (2 * sigma**2)) + 0j, g.spacing)
        tg, out = ck.transform_1d(values, g, sign=-1)
        intensity = np.abs(out) ** 2 * tg.spacing
        std = math.sqrt(float((intensity * tg.points**2).sum()))
        assert std == pytest.approx(1.0 / (sigma * math.sqrt(2.0)), rel=1e-6)

    @pytest.mark.parametrize("n", [16, 64])
    def test_transforms_equal_the_direct_fourier_sum(self, n):
        """Each axis carries ``sum_j f_j exp(sign*i*x_j*y_k) * h / sqrt(2*pi)``;
        neither grid has a point at zero, so every phase term counts."""
        grid = ck.FrequencyGrid(n, span=3.0)
        dual = grid.dual()
        # Phase arguments reach about n radians, so roundoff grows like n:
        # 1.3e-12 of the largest output here for the 64-point record.
        rtol = 1e-13 * n

        def kernel(sign):
            phase = sign * 1j * np.outer(grid.points, dual.points)
            return np.exp(phase) * grid.spacing / math.sqrt(2.0 * math.pi)

        rng = np.random.default_rng(n)
        row = rng.normal(size=n) + 1j * rng.normal(size=n)
        for sign in (-1, +1):
            out_grid, out = ck.transform_1d(row, grid, sign=sign)
            expected = row @ kernel(sign)
            assert np.allclose(out_grid.points, dual.points)
            assert np.abs(out - expected).max() <= rtol * np.abs(expected).max()
        values = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        values /= math.sqrt(float(np.vdot(values, values).real)) * grid.spacing
        jta = ck.to_temporal(ck.JointSpectralAmplitude(grid, values))
        expected = kernel(-1).T @ values @ kernel(-1)
        assert np.abs(jta.amplitudes - expected).max() <= rtol * np.abs(expected).max()

    def test_rejects_invalid_sign(self):
        g = ck.FrequencyGrid(64, span=4.0)
        with pytest.raises(ck.ParameterError):
            ck.transform_1d(np.zeros(64, dtype=complex), g, sign=2)


class TestSource:
    def test_gaussian_amplitude_is_real(self):
        jsa = ck.make_gaussian_jsa(delta_plus=6.0, delta_minus=1.0)
        assert jsa.amplitudes.dtype == np.float64

    def test_amplitude_is_normalized_on_grid(self):
        jsa = ck.make_gaussian_jsa(delta_plus=6.0, delta_minus=1.0)
        mass = float((np.abs(jsa.amplitudes) ** 2).sum() * jsa.grid.spacing**2)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_default_grid_covers_and_resolves(self):
        for wide, narrow in [(12.0, 0.2), (6.0, 1.0), (1.0, 1.0)]:
            g = ck.default_grid(wide, narrow)
            assert g.n_points & (g.n_points - 1) == 0
            assert g.span >= 4.0 * max(wide, narrow) * (1 - 1e-12)
            assert g.spacing <= min(wide, narrow) / 8.0 * (1 + 1e-12)

    @pytest.mark.parametrize(
        "widths",
        [(1.0, 0.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, math.inf), (1e308, 1.0), (1.0, 1e-308)],
    )
    def test_default_grid_refuses_widths_it_cannot_hold(self, widths):
        with pytest.raises(ck.ParameterError):
            ck.default_grid(*widths)

    def test_largest_default_grid_is_allowed(self):
        # the m = 64 matched design needs 15,360 points and gets 2**14
        assert ck.default_grid(0.75 * 64, 0.2).n_points == 2**14

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ck.make_gaussian_jsa(1e6, 1e-3),
            lambda: ck.make_gaussian_jsa(1.0, 1.0, grid=ck.FrequencyGrid(2**15, span=8.0)),
            lambda: ck.make_gaussian_jsa(1e150, 1e-150),
            lambda: ck.design_binning(128),
            lambda: ck.design_binning(8, grid=ck.FrequencyGrid(2**15, span=24.0)),
        ],
        ids=["default", "explicit", "astronomical", "design-default", "design-explicit"],
    )
    def test_refuses_records_above_two_gib_before_allocating(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(ck.ParameterError, match=r"bytes, above the 2,147,483,648"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_rejects_grid_with_too_small_span(self):
        grid = ck.FrequencyGrid(1024, span=20.0)
        with pytest.raises(ck.GridCoverageError):
            ck.make_gaussian_jsa(delta_plus=12.0, delta_minus=0.2, grid=grid)

    def test_rejects_grid_too_coarse_for_correlation_width(self):
        grid = ck.FrequencyGrid(64, span=48.0)
        with pytest.raises(ck.GridCoverageError):
            ck.make_gaussian_jsa(delta_plus=12.0, delta_minus=0.2, grid=grid)

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.inf, math.nan])
    def test_rejects_non_positive_widths(self, bad):
        with pytest.raises(ck.ParameterError):
            ck.make_gaussian_jsa(delta_plus=bad, delta_minus=1.0)

    def test_amplitudes_are_read_only(self):
        jsa = ck.make_gaussian_jsa(delta_plus=6.0, delta_minus=1.0)
        with pytest.raises(ValueError):
            jsa.amplitudes[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_amplitudes(self, bad):
        grid = ck.FrequencyGrid(64, span=8.0)
        with pytest.raises(ck.ParameterError):
            ck.JointSpectralAmplitude(grid, np.full((64, 64), bad, dtype=complex))


# Gaussian sources for the property tests: narrow width, width ratio, which
# width is the narrow one, and a layout that is None for the default grid or
# (span over 4 widths, extra doublings of the point count).
_SOURCES = dict(
    narrow=st.floats(0.05, 1.0),
    ratio=st.floats(1.0, 8.0),
    swapped=st.booleans(),
    layout=st.none() | st.tuples(st.floats(1.0, 1.5), st.integers(0, 2)),
)
# widths whose product is below 1/pi normalize by a factor above 1, so an
# entry whose unnormalized value is subnormal can end up normal (144 do here)
_LIFTED_SOURCE = dict(narrow=0.1, ratio=10.0, swapped=False, layout=(1.0, 2))


def _source(narrow, ratio, swapped, layout):
    """Widths and grid of one :data:`_SOURCES` case, built."""
    wide = narrow * ratio
    delta_plus, delta_minus = (narrow, wide) if swapped else (wide, narrow)
    grid = None
    if layout is not None:
        widths, doublings = layout
        span = 4.0 * wide * widths
        # The fewest points whose spacing resolves the narrow width, as
        # make_gaussian_jsa tests it (log2 of the ratio can round down).
        n_points = 1
        while 2.0 * span / n_points > narrow / 2.0:
            n_points *= 2
        grid = ck.FrequencyGrid(n_points << doublings, span=span)
    return delta_plus, delta_minus, ck.make_gaussian_jsa(delta_plus, delta_minus, grid=grid)


class TestSubnormalFreeSource:
    """The Gaussian record is the dense product of its factor tables, bit
    for bit, with every entry that would be subnormal stored as an exact 0,
    and within 4 ulp of its largest entry of the whole-matrix formula."""

    @settings(max_examples=25, deadline=None)
    @given(**_SOURCES)
    @example(**_LIFTED_SOURCE)
    def test_record_is_the_reference_with_subnormals_zeroed(self, narrow, ratio, swapped, layout):
        delta_plus, delta_minus, jsa = _source(narrow, ratio, swapped, layout)
        reference = _reference_gaussian_amplitudes(delta_plus, delta_minus, jsa.grid)
        amps = jsa.amplitudes
        assert not np.any((amps != 0.0) & (np.abs(amps) < TINY))
        assert np.array_equal(amps, np.where(reference >= TINY, reference, 0.0))

    @settings(max_examples=25, deadline=None)
    @given(**_SOURCES)
    @example(**_LIFTED_SOURCE)
    def test_entries_are_the_whole_matrix_formula_to_4_ulp(self, narrow, ratio, swapped, layout):
        # Per entry the whole-matrix formula is the less exact of the two in
        # the tail: rounding its summed exponent x costs |x| / 2 ulp.
        delta_plus, delta_minus, jsa = _source(narrow, ratio, swapped, layout)
        whole = _whole_matrix_gaussian(delta_plus, delta_minus, jsa.grid)
        amps = jsa.amplitudes
        assert not np.any((amps != 0.0) & (np.abs(amps) < TINY))
        error = np.abs(amps - np.where(whole >= TINY, whole, 0.0)).max()
        assert error <= 4.0 * np.spacing(whole.max())

    @pytest.mark.parametrize("m,n_points", [(4, 256), (8, 1024), (16, 1024)])
    def test_downstream_results_are_bitwise_unchanged(self, m, n_points):
        scheme, jsa = ck.design_binning(m, grid=ck.FrequencyGrid(n_points, span=3.0 * m))
        lens = ck.design_time_lens(scheme)
        reference = ck.JointSpectralAmplitude(
            jsa.grid, _reference_gaussian_amplitudes(*scheme.matched_widths(), jsa.grid)
        )
        assert np.any((reference.amplitudes > 0.0) & (reference.amplitudes < TINY))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ck.CoverageWarning)
            for basis in ("frequency", "time"):
                ours = ck.joint_outcome_distribution(jsa, scheme, lens, basis)
                theirs = ck.joint_outcome_distribution(reference, scheme, lens, basis)
                assert np.array_equal(ours.probabilities, theirs.probabilities)
                assert ours.out_of_window == theirs.out_of_window
        assert ck.schmidt_decompose(jsa).schmidt_number == ck.schmidt_decompose(reference).schmidt_number
        assert np.array_equal(ck.to_temporal(jsa).amplitudes, ck.to_temporal(reference).amplitudes)


class TestSchmidt:
    # closed form (r + 1/r)/2 for a Gaussian amplitude with width ratio r
    @pytest.mark.parametrize(
        "wide,narrow,expected",
        [
            (1.0, 1.0, 1.0),
            (5.2, 1.0, 2.6961538461538462),
            (12.0, 0.2, 30.008333333333333),
        ],
    )
    def test_analytic_mode_count(self, wide, narrow, expected):
        assert ck.analytic_schmidt_number(wide, narrow) == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize(
        "wide,narrow",
        [(0.0, 1.0), (math.inf, 1.0), (1.0, math.nan), (1e-300, 1e300), (1e-160, 1e150)],
        ids=["zero", "inf", "nan", "ratio-underflows", "inverse-overflows"],
    )
    def test_analytic_mode_count_rejects_bad_widths(self, wide, narrow):
        with pytest.raises(ck.ParameterError):
            ck.analytic_schmidt_number(wide, narrow)

    def test_numeric_matches_analytic_within_a_percent(self):
        jsa = ck.make_gaussian_jsa(delta_plus=5.2, delta_minus=1.0)
        dec = ck.schmidt_decompose(jsa)
        assert dec.schmidt_number == pytest.approx(2.6961538461538462, rel=1e-2)

    def test_separable_source_has_single_mode(self):
        jsa = ck.make_gaussian_jsa(delta_plus=1.0, delta_minus=1.0)
        dec = ck.schmidt_decompose(jsa)
        assert dec.schmidt_number == pytest.approx(1.0, abs=1e-10)
        assert _singular_values(jsa)[0] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "schmidt_number", [float("nan"), float("inf")], ids=["nan-number", "inf-number"]
    )
    def test_rejects_non_finite_decompositions(self, schmidt_number):
        with pytest.raises(ck.ParameterError):
            ck.SchmidtDecomposition(schmidt_number)

    def test_mode_count_needs_no_singular_value_decomposition(self, monkeypatch):
        jsa = ck.make_gaussian_jsa(delta_plus=5.2, delta_minus=1.0)

        def refuse(*args, **kwargs):
            raise np.linalg.LinAlgError("refused")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        dec = ck.schmidt_decompose(jsa)
        assert dec.schmidt_number == pytest.approx(2.6961538461538462, rel=1e-2)
        assert [field.name for field in dataclasses.fields(dec)] == ["schmidt_number"]

    # criterion 02's cases; (12, 0.2) on a 1024-point grid of its default
    # span, where one SVD takes a fraction of a second instead of 16 s
    @pytest.mark.parametrize(
        "wide,narrow,grid",
        [(1.0, 1.0, None), (5.2, 1.0, None), (12.0, 0.2, (1024, 48.0))],
    )
    def test_purity_mode_count_equals_spectrum_mode_count(self, wide, narrow, grid):
        grid = None if grid is None else ck.FrequencyGrid(grid[0], span=grid[1])
        jsa = ck.make_gaussian_jsa(wide, narrow, grid=grid)
        dec = ck.schmidt_decompose(jsa)
        assert dec.schmidt_number == pytest.approx(_svd_mode_count(jsa), rel=1e-12)

    @pytest.mark.parametrize("chirp", [0.05, 0.5])
    def test_purity_mode_count_of_a_complex_amplitude(self, chirp):
        # a joint phase changes the mode count; with M^T in place of M^H the
        # purity would read 2.79 and 7.51 here instead of 2.71 and 3.75
        jsa = ck.make_gaussian_jsa(delta_plus=5.2, delta_minus=1.0)
        w = jsa.grid.points
        phased = jsa.amplitudes * np.exp(1j * chirp * np.outer(w, w))
        chirped = ck.JointSpectralAmplitude(jsa.grid, phased)
        dec = ck.schmidt_decompose(chirped)
        assert dec.schmidt_number == pytest.approx(_svd_mode_count(chirped), rel=1e-12)
        assert dec.schmidt_number > ck.analytic_schmidt_number(5.2, 1.0) + 1e-3

    def test_decomposition_is_frozen(self):
        dec = ck.schmidt_decompose(ck.make_gaussian_jsa(delta_plus=5.2, delta_minus=1.0))
        assert isinstance(dec, ck.SchmidtDecomposition)
        with pytest.raises(dataclasses.FrozenInstanceError):
            dec.schmidt_number = dec.schmidt_number

    def test_mode_count_is_symmetric_under_width_exchange(self):
        a = ck.schmidt_decompose(ck.make_gaussian_jsa(delta_plus=5.2, delta_minus=1.0))
        b = ck.schmidt_decompose(ck.make_gaussian_jsa(delta_plus=1.0, delta_minus=5.2))
        assert a.schmidt_number == pytest.approx(b.schmidt_number, rel=1e-9)


@pytest.fixture(scope="module")
def pair():
    jsa = ck.make_gaussian_jsa(delta_plus=5.2, delta_minus=1.0)
    return jsa, ck.to_temporal(jsa)


class TestTemporal:
    def test_transform_preserves_mass(self, pair):
        _, jta = pair
        mass = float((np.abs(jta.amplitudes) ** 2).sum() * jta.grid.spacing**2)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_round_trip_through_time_domain(self, pair):
        jsa, jta = pair
        back = _reference_dual_transform(jta.amplitudes, jta.grid, +1, (0, 1))
        assert np.abs(back - jsa.amplitudes).max() < 1e-9

    def test_correlation_sign_flips_between_domains(self, pair):
        # anti-correlated frequencies arrive at correlated times
        jsa, jta = pair
        wf = jsa.grid.points
        wi = np.abs(jsa.amplitudes) ** 2
        cov_f = float((wi * np.outer(wf, wf)).sum()) / float(wi.sum())
        tf = jta.grid.points
        ti = np.abs(jta.amplitudes) ** 2
        cov_t = float((ti * np.outer(tf, tf)).sum()) / float(ti.sum())
        assert cov_f < 0.0
        assert cov_t > 0.0


def _reference_dual_transform(values, grid_in, sign, axes):
    """The transform taken out of place: a complex copy, the input phases,
    ``fftn``/``ifftn`` returning a new array, then the output phases."""
    n = grid_in.n_points
    grid_out = grid_in.dual()
    x0, y0 = float(grid_in.points[0]), float(grid_out.points[0])
    spacing_out = float(grid_out.points[1] - grid_out.points[0])
    j = np.arange(n)
    pre = np.exp(sign * 1j * y0 * grid_in.spacing * j)
    post = np.exp(sign * 1j * (x0 * y0 + x0 * spacing_out * j)) * (
        grid_in.spacing / math.sqrt(2.0 * math.pi)
    )
    work = np.array(values, dtype=np.complex128)
    shapes = [(n,) + (1,) * (work.ndim - 1 - axis % work.ndim) for axis in axes]
    for shape in shapes:
        work *= pre.reshape(shape)
    if sign == -1:
        work = np.fft.fftn(work, axes=axes)
    else:
        work = np.fft.ifftn(work, axes=axes, norm="forward")
    for shape in shapes:
        work *= post.reshape(shape)
    return work


def _traced_peak(build):
    """What ``build()`` returns, and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInPlaceTransform:
    """The transform allocates only its output, with the out-of-place
    formulation's bits."""

    @settings(max_examples=40, deadline=None)
    @given(
        log2_n=st.integers(1, 10),
        two_d=st.booleans(),
        is_complex=st.booleans(),
        sign=st.sampled_from([-1, +1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(log2_n=10, two_d=True, is_complex=False, sign=-1, seed=0)
    @example(log2_n=10, two_d=True, is_complex=True, sign=+1, seed=1)
    def test_bits_equal_the_out_of_place_transform(self, log2_n, two_d, is_complex, sign, seed):
        # A 2-D record is transformed only by to_temporal, whose sign is -1.
        n = 1 << log2_n
        grid = ck.FrequencyGrid(n, span=5.0)
        rng = np.random.default_rng(seed)
        shape = (n, n) if two_d else (n,)
        values = rng.normal(size=shape)
        if is_complex:
            values = values + 1j * rng.normal(size=shape)
        if two_d:
            values /= math.sqrt(float(np.vdot(values, values).real)) * grid.spacing
            jta = ck.to_temporal(ck.JointSpectralAmplitude(grid, values))
            grid_out, out, sign, axes = jta.grid, jta.amplitudes, -1, (0, 1)
        else:
            grid_out, out = ck.transform_1d(values, grid, sign)
            axes = (-1,)
        assert np.array_equal(grid_out.points, grid.dual().points)
        assert np.array_equal(out, _reference_dual_transform(values, grid, sign, axes))

    @pytest.mark.parametrize(
        "sign,columns,sample",
        [
            (2, 64, 0.0),
            (-1, 32, 0.0),
            (-1, 64, math.nan),
            (-1, 64, math.inf),
            (True, 64, 0.0),
            (1.0, 64, 0.0),
        ],
        ids=["sign", "length", "nan", "inf", "boolean-sign", "float-sign"],
    )
    def test_refuses_before_allocating(self, sign, columns, sample):
        grid = ck.FrequencyGrid(64, span=4.0)
        values = np.zeros((64, columns))
        values[3, 5] = sample
        tracemalloc.start()
        try:
            with pytest.raises(ck.ParameterError):
                ck.transform_1d(values, grid, sign)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes / 4

    def test_two_dimensional_transforms_make_only_their_output(self):
        grid = ck.FrequencyGrid(1024, span=24.0)
        jsa = ck.make_gaussian_jsa(6.0, 0.2, grid=grid)
        jta, peak = _traced_peak(lambda: ck.to_temporal(jsa))
        assert peak <= 1.1 * jta.amplitudes.nbytes  # 3.0 out of place
        back = _reference_dual_transform(jta.amplitudes, jta.grid, +1, (0, 1))
        assert np.abs(back - jsa.amplitudes).max() < 1e-9


class TestTableNorm:
    """The Gaussian's norm comes from its two factor tables, to the
    whole-record sum's roundoff, and the build holds no whole-record
    temporary."""

    @pytest.mark.parametrize("widths", [(1.0, 0.25), (0.25, 1.0), (1.0, 1.0)])
    @pytest.mark.parametrize("n_points", [64, 128, 256])
    def test_table_norm_is_the_whole_record_sum_to_2_ulp(self, n_points, widths):
        grid = ck.FrequencyGrid(n_points, span=4.0)
        f, g = (ck.chronocyclic._gaussian_table(n_points, grid.spacing, width) for width in widths)
        i = np.arange(n_points)
        record = f[np.subtract.outer(i, i) + n_points - 1] * g[np.add.outer(i, i)]
        exact = math.fsum(np.square(record).ravel().tolist())
        assert abs(ck.chronocyclic._sum_of_squares(f, g) - exact) <= 2.0 * np.spacing(exact)

    @pytest.mark.parametrize("n_points", [64, 128, 256, 2048])
    def test_one_or_many_blocks_give_the_reference(self, n_points):
        # 64 and 128 points are one block; 256 and 2048 are two and sixteen
        jsa = ck.make_gaussian_jsa(1.0, 0.25, grid=ck.FrequencyGrid(n_points, span=4.0))
        reference = _reference_gaussian_amplitudes(1.0, 0.25, jsa.grid)
        assert np.array_equal(jsa.amplitudes, np.where(reference >= TINY, reference, 0.0))

    def test_build_makes_only_the_record(self):
        grid = ck.FrequencyGrid(1024, span=24.0)
        jsa, peak = _traced_peak(lambda: ck.make_gaussian_jsa(6.0, 0.2, grid=grid))
        # 1.18 here: the record and one block's columns, twice while its
        # band is copied out (1.67 with a dense 128-row scratch)
        record_bytes = sum(values.nbytes for _, _, values in jsa._blocks)
        assert peak <= 1.2 * record_bytes


class TestBandRecord:
    """A Gaussian record holds only its band, and every product of it has
    the bits of the same record made from its dense view."""

    @pytest.mark.parametrize("n_points", [None, 1024], ids=["default", "1024"])
    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_products_equal_those_of_the_dense_record(self, m, n_points):
        scheme = ck.BinningScheme(m=m)
        lens = ck.design_time_lens(scheme)
        wide, narrow = scheme.matched_widths()
        default = ck.default_grid(wide, narrow)
        grid = ck.FrequencyGrid(n_points or default.n_points, span=default.span)
        jsa = ck.make_gaussian_jsa(wide, narrow, grid=grid)
        dense = ck.JointSpectralAmplitude(grid, jsa.amplitudes)
        assert len(jsa._blocks) == len(dense._blocks)
        for (rows, cols, values), (dense_rows, dense_cols, dense_values) in zip(jsa._blocks, dense._blocks):
            assert (rows, cols) == (dense_rows, dense_cols)
            assert values.tobytes() == dense_values.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ck.CoverageWarning)
            for basis in ("frequency", "time"):
                ours = ck.joint_outcome_distribution(jsa, scheme, lens, basis)
                theirs = ck.joint_outcome_distribution(dense, scheme, lens, basis)
                assert ours.probabilities.tobytes() == theirs.probabilities.tobytes()
                assert ours.out_of_window == theirs.out_of_window
        assert ck.schmidt_decompose(jsa).schmidt_number == pytest.approx(
            ck.schmidt_decompose(dense).schmidt_number, rel=1e-13, abs=0.0
        )
        if m == 16 and n_points is None:
            # to_temporal reads a record only by an elementwise multiply of
            # its blocks into a zeroed output, so the equal block bytes above
            # give equal outputs; the two 4096**2 transforms are left out.
            return
        # One n x n complex output at a time.
        ours = hashlib.sha256(ck.to_temporal(jsa).amplitudes).digest()
        assert hashlib.sha256(ck.to_temporal(dense).amplitudes).digest() == ours

    def test_temporal_amplitude_is_the_dense_transform(self):
        scheme, jsa = ck.design_binning(8, grid=ck.FrequencyGrid(1024, span=24.0))
        expected = _reference_dual_transform(jsa.amplitudes, jsa.grid, -1, (0, 1))
        assert ck.to_temporal(jsa).amplitudes.tobytes() == expected.tobytes()

    def test_build_takes_a_third_of_the_dense_record(self):
        # the m = 16 matched source on its default 4096-point grid, whose
        # band is 24 % of the 128 MiB dense record
        jsa, peak = _traced_peak(lambda: ck.make_gaussian_jsa(12.0, 0.2))
        dense_bytes = 8 * jsa.grid.n_points**2
        assert jsa.grid.n_points == 4096
        assert peak <= 0.35 * dense_bytes
        assert sum(values.nbytes for _, _, values in jsa._blocks) <= 0.25 * dense_bytes

    def test_dense_view_is_built_on_read_and_read_only(self):
        jsa = ck.make_gaussian_jsa(6.0, 1.0)
        one, other = jsa.amplitudes, jsa.amplitudes
        assert one is not other and np.array_equal(one, other)
        assert not one.flags.writeable
        assert all(not values.flags.writeable for _, _, values in jsa._blocks)
        # A record made from an array holds views of it, which it makes
        # read-only, and builds its dense view anew on each read too.
        record = np.array(one)
        sampled = ck.JointSpectralAmplitude(jsa.grid, record)
        assert not record.flags.writeable
        assert all(np.shares_memory(values, record) for _, _, values in sampled._blocks)
        assert all(not values.flags.writeable for _, _, values in sampled._blocks)
        dense = sampled.amplitudes
        assert dense is not sampled.amplitudes and not np.shares_memory(dense, record)
        assert np.array_equal(dense, record) and not dense.flags.writeable
        assert [field.name for field in dataclasses.fields(sampled)] == ["grid", "_blocks"]
