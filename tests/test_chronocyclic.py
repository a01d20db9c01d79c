"""Grids, the two-photon source model, Fourier transforms, and Schmidt analysis."""

import dataclasses
import math
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
    """The Gaussian record built as one whole-matrix formula: ``exp`` of the
    full exponent, subnormal and underflowing tail included, normalized."""
    w = grid.points - grid.center
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


def _svd_mode_count(decomposition):
    weights = decomposition.singular_values**2
    weights = weights / weights.sum()
    return 1.0 / float((weights**2).sum())


class TestGrids:
    def test_midpoint_points_and_spacing(self):
        g = ck.FrequencyGrid(8, span=4.0)
        assert g.spacing == pytest.approx(1.0)
        assert np.allclose(g.points, np.arange(8) - 3.5)
        assert abs(g.points.sum()) < 1e-12

    def test_center_offsets_points(self):
        g = ck.FrequencyGrid(8, span=4.0, center=2.5)
        assert np.allclose(g.points, np.arange(8) - 3.5 + 2.5)

    @pytest.mark.parametrize("n", [0, 1, 3, 24, 100])
    def test_rejects_non_power_of_two_sizes(self, n):
        with pytest.raises(ck.ParameterError):
            ck.FrequencyGrid(n, span=4.0)

    @pytest.mark.parametrize("span", [0.0, -1.0, math.inf, math.nan, 1e308])
    def test_rejects_non_positive_span(self, span):
        with pytest.raises(ck.ParameterError):
            ck.TimeGrid(64, span=span)

    @pytest.mark.parametrize("field", ["span", "center"])
    def test_rejects_boolean_floats(self, field):
        with pytest.raises(ck.ParameterError, match="boolean"):
            ck.FrequencyGrid(64, **{"span": 4.0, field: True})

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
        jsa = ck.JointSpectralAmplitude("sampled", grid, values)
        # the transform's phase arguments grow like n radians, so does roundoff
        tolerance = 1e-12 * n * float(np.abs(values).max())
        back = ck.from_temporal(ck.to_temporal(jsa))
        assert np.allclose(back.grid.points, grid.points)
        assert np.abs(back.amplitudes - values).max() <= tolerance
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
        an off-center grid makes every phase term count."""
        grid = ck.FrequencyGrid(n, span=3.0, center=0.7)
        dual = grid.dual()

        def kernel(sign):
            phase = sign * 1j * np.outer(grid.points, dual.points)
            return np.exp(phase) * grid.spacing / math.sqrt(2.0 * math.pi)

        rng = np.random.default_rng(n)
        row = rng.normal(size=n) + 1j * rng.normal(size=n)
        for sign in (-1, +1):
            out_grid, out = ck.transform_1d(row, grid, sign=sign)
            expected = row @ kernel(sign)
            assert np.allclose(out_grid.points, dual.points)
            assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()
        values = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        values /= math.sqrt(float(np.vdot(values, values).real)) * grid.spacing
        jta = ck.to_temporal(ck.JointSpectralAmplitude("sampled", grid, values))
        expected = kernel(-1).T @ values @ kernel(-1)
        assert np.abs(jta.amplitudes - expected).max() <= 1e-12 * np.abs(expected).max()

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

    def test_parametric_record_keeps_design_widths(self):
        jsa = ck.make_gaussian_jsa(delta_plus=6.0, delta_minus=1.0)
        assert jsa.kind == "parametric-gaussian"
        assert jsa.delta_plus == 6.0
        assert jsa.delta_minus == 1.0

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
            ck.JointSpectralAmplitude("sampled", grid, np.full((64, 64), bad, dtype=complex))


class TestSubnormalFreeSource:
    """The Gaussian record is the whole-matrix formula's, bit for bit, with
    every entry that would be subnormal stored as an exact 0."""

    @settings(max_examples=25, deadline=None)
    @given(
        narrow=st.floats(0.05, 1.0),
        ratio=st.floats(1.0, 8.0),
        swapped=st.booleans(),
        # None: the default grid; else (span over 4 widths, extra doublings
        # of the point count, grid center)
        layout=st.none() | st.tuples(st.floats(1.0, 1.5), st.integers(0, 2), st.floats(-50.0, 50.0)),
    )
    # widths whose product is below 1/pi normalize by a factor above 1, so an
    # entry whose exponential is subnormal can end up normal (144 do here)
    @example(narrow=0.1, ratio=10.0, swapped=False, layout=(1.0, 2, 0.0))
    def test_record_is_the_reference_with_subnormals_zeroed(self, narrow, ratio, swapped, layout):
        wide = narrow * ratio
        delta_plus, delta_minus = (narrow, wide) if swapped else (wide, narrow)
        grid = None
        if layout is not None:
            widths, doublings, center = layout
            span = 4.0 * wide * widths
            # The fewest points whose spacing resolves the narrow width, as
            # make_gaussian_jsa tests it (log2 of the ratio can round down).
            n_points = 1
            while 2.0 * span / n_points > narrow / 2.0:
                n_points *= 2
            grid = ck.FrequencyGrid(n_points << doublings, span=span, center=center)
        jsa = ck.make_gaussian_jsa(delta_plus, delta_minus, grid=grid)
        reference = _reference_gaussian_amplitudes(delta_plus, delta_minus, jsa.grid)
        amps = jsa.amplitudes
        assert not np.any((amps != 0.0) & (np.abs(amps) < TINY))
        assert np.array_equal(amps, np.where(reference >= TINY, reference, 0.0))

    @pytest.mark.parametrize("m,n_points", [(4, 256), (8, 1024), (16, 1024)])
    def test_downstream_results_are_bitwise_unchanged(self, m, n_points):
        scheme, jsa = ck.design_binning(m, grid=ck.FrequencyGrid(n_points, span=3.0 * m))
        lens = ck.design_time_lens(scheme)
        reference = ck.JointSpectralAmplitude(
            "parametric-gaussian",
            jsa.grid,
            _reference_gaussian_amplitudes(jsa.delta_plus, jsa.delta_minus, jsa.grid),
            jsa.delta_plus,
            jsa.delta_minus,
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
        sumsq = float((dec.singular_values**2).sum())
        assert sumsq == pytest.approx(1.0, abs=1e-6)
        assert np.all(np.diff(dec.singular_values) <= 1e-15)

    def test_separable_source_has_single_mode(self):
        jsa = ck.make_gaussian_jsa(delta_plus=1.0, delta_minus=1.0)
        dec = ck.schmidt_decompose(jsa)
        assert dec.schmidt_number == pytest.approx(1.0, abs=1e-10)
        assert dec.singular_values[0] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "singular_values,schmidt_number",
        [
            ([float("nan")], 1.0),
            ([1.0, float("nan")], 1.0),
            ([1.0], float("nan")),
            ([1.0], float("inf")),
        ],
        ids=["nan-value", "nan-tail", "nan-number", "inf-number"],
    )
    def test_rejects_non_finite_decompositions(self, singular_values, schmidt_number):
        with pytest.raises(ck.ParameterError):
            ck.SchmidtDecomposition(np.array(singular_values), schmidt_number)

    def test_mode_count_needs_no_singular_value_decomposition(self, monkeypatch):
        jsa = ck.make_gaussian_jsa(delta_plus=5.2, delta_minus=1.0)

        def refuse(*args, **kwargs):
            raise np.linalg.LinAlgError("refused")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        dec = ck.schmidt_decompose(jsa)
        assert dec.schmidt_number == pytest.approx(2.6961538461538462, rel=1e-2)
        with pytest.raises(ck.DecompositionError):
            dec.singular_values

    # criterion 02's cases; (12, 0.2) on a 1024-point grid of its default
    # span, where one SVD takes a fraction of a second instead of 16 s
    @pytest.mark.parametrize(
        "wide,narrow,grid",
        [(1.0, 1.0, None), (5.2, 1.0, None), (12.0, 0.2, (1024, 48.0))],
    )
    def test_purity_mode_count_equals_spectrum_mode_count(self, wide, narrow, grid):
        grid = None if grid is None else ck.FrequencyGrid(grid[0], span=grid[1])
        dec = ck.schmidt_decompose(ck.make_gaussian_jsa(wide, narrow, grid=grid))
        assert dec.schmidt_number == pytest.approx(_svd_mode_count(dec), rel=1e-12)

    @pytest.mark.parametrize("chirp", [0.05, 0.5])
    def test_purity_mode_count_of_a_complex_amplitude(self, chirp):
        # a joint phase changes the mode count; with M^T in place of M^H the
        # purity would read 2.79 and 7.51 here instead of 2.71 and 3.75
        jsa = ck.make_gaussian_jsa(delta_plus=5.2, delta_minus=1.0)
        w = jsa.grid.points
        phased = jsa.amplitudes * np.exp(1j * chirp * np.outer(w, w))
        dec = ck.schmidt_decompose(ck.JointSpectralAmplitude("sampled", jsa.grid, phased))
        assert dec.schmidt_number == pytest.approx(_svd_mode_count(dec), rel=1e-12)
        assert dec.schmidt_number > ck.analytic_schmidt_number(5.2, 1.0) + 1e-3

    def test_spectrum_is_computed_once_and_read_only(self):
        dec = ck.schmidt_decompose(ck.make_gaussian_jsa(delta_plus=5.2, delta_minus=1.0))
        assert isinstance(dec, ck.SchmidtDecomposition)
        assert dec.singular_values is dec.singular_values
        with pytest.raises(ValueError):
            dec.singular_values[0] = 0.0
        for field in ("singular_values", "schmidt_number"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(dec, field, getattr(dec, field))

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
        back = ck.from_temporal(jta)
        assert back.kind == "sampled"
        assert np.abs(back.amplitudes - jsa.amplitudes).max() < 1e-9

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

    def test_fitted_widths_recover_design(self, designed16):
        _, source, _ = designed16
        wide, narrow = ck.fitted_spectral_widths(source)
        assert wide == pytest.approx(12.0, rel=1e-3)
        assert narrow == pytest.approx(0.2, rel=1e-3)
        jta = ck.to_temporal(source)
        long_axis, short_axis = ck.fitted_temporal_widths(jta)
        assert long_axis == pytest.approx(1.0 / 0.2, rel=1e-3)
        assert short_axis == pytest.approx(1.0 / 12.0, rel=1e-3)
