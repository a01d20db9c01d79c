"""Binning schemes, the time lens, and binned outcome distributions."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chronokey as ck
from chronokey.detection import _erfc

# frozen: 30-digit quadrature of the binned bivariate-normal intensity for the
# designed 16-bin measurement (exact rectangle integrals, then renormalized
# over the accepted window)
ORACLE16_MARGINAL_BITS = 3.951901
ORACLE16_CONDITIONAL_BITS = 0.768230
ORACLE16_OFF_DIAGONAL = 0.154873
ORACLE16_OUT_OF_WINDOW = 0.18684552968550272

# frozen: 30-digit quadrature of the sinc-like bin response for the designed
# 16-bin lens, receiver bin 8, at selected argument values
KERNEL16_AT = {
    0.0: 0.25751613468212639 + 0.0j,
    0.3: 0.25684604347110794 - 0.016073812612854943j,
    1.7: 0.23651575927356663 - 0.087453492984894364j,
    5.0: 0.10772454394708411 - 0.18422372577628384j,
}
KERNEL16_FIRST_ZERO = 15.079644737231008


def _normalize(values, spacing):
    return values / math.sqrt(float((np.abs(values) ** 2).sum() * spacing))


def _entropy_bits(probabilities):
    p = probabilities[probabilities > 1e-300]
    return float(-(p * np.log2(p)).sum())


class TestBinningScheme:
    def test_centers_and_edges_tile_the_window(self):
        scheme = ck.BinningScheme(m=4, delta_omega=2.0)
        assert np.allclose(scheme.bin_centers, [-3.0, -1.0, 1.0, 3.0])
        assert np.allclose(scheme.bin_edges, [-4.0, -2.0, 0.0, 2.0, 4.0])

    def test_matched_widths_follow_design_ratios(self):
        scheme = ck.BinningScheme(m=16, delta_omega=1.0)
        wide, narrow = scheme.matched_widths()
        assert wide == pytest.approx(0.75 * 16 * 1.0)
        assert narrow == pytest.approx(0.2 * 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=1, delta_omega=1.0),
            dict(m=16, delta_omega=0.0),
            dict(m=16, delta_omega=1.0, beta_plus=0.0),
            dict(m=16, delta_omega=1.0, beta_minus=-0.1),
            dict(m=16, delta_omega=1.0, beta_plus=0.2, beta_minus=0.75),
            dict(m=16, delta_omega=float("inf")),
            dict(m=16, delta_omega=1.0, center=float("nan")),
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ck.ParameterError):
            ck.BinningScheme(**kwargs)

    def test_design_returns_matched_source(self):
        scheme, source = ck.design_binning(8, delta_omega=0.5)
        assert scheme.m == 8
        assert source.delta_plus == pytest.approx(0.75 * 8 * 0.5)
        assert source.delta_minus == pytest.approx(0.2 * 0.5)


class TestTimeLens:
    def test_designed_lens_parameters(self, designed16):
        _, _, lens = designed16
        assert lens.mod_frequency == pytest.approx(0.2, rel=1e-15)
        assert lens.mod_depth == pytest.approx(60.0, rel=1e-15)
        assert lens.focusing_rate == pytest.approx(2.4, rel=1e-12)
        assert lens.gvd == pytest.approx(1.0 / 2.4, rel=1e-12)
        assert lens.aperture == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(mod_frequency=math.inf, mod_depth=1.0),
            # mod_frequency**2 overflows; it underflows to 0; the rate is
            # subnormal and its inverse overflows.
            dict(mod_frequency=1e200, mod_depth=60.0),
            dict(mod_frequency=1e-200, mod_depth=60.0),
            dict(mod_frequency=1e-160, mod_depth=1e-2),
        ],
    )
    def test_rejects_non_finite_parameters(self, fields):
        with pytest.raises(ck.ParameterError, match="finite"):
            ck.TimeLens(**fields)

    def test_time_resolution_is_set_by_focusing_rate(self, designed16):
        scheme, _, lens = designed16
        assert ck.time_resolution(scheme, lens) == pytest.approx(1.0 / 2.4, rel=1e-12)

    @pytest.mark.parametrize("m", [4, 16, 256])
    @pytest.mark.parametrize("delta_omega", [0.5, 1.0, 2.0])
    def test_resolution_product_depends_only_on_design(self, m, delta_omega):
        scheme = ck.BinningScheme(m=m, delta_omega=delta_omega)
        lens = ck.design_time_lens(scheme)
        product = ck.resolution_product(scheme, lens)
        assert product == pytest.approx(1.0 / (0.75 * 0.2 * m), rel=1e-12)


class TestOutcomeDistribution:
    def test_validates_probabilities(self):
        p = np.full((4, 4), 1 / 16.0)
        dist = ck.OutcomeDistribution("frequency", p, 0.1)
        assert dist.basis == "frequency"
        with pytest.raises(ck.ParameterError):
            ck.OutcomeDistribution("frequency", p * 2.0, 0.0)
        with pytest.raises(ck.ParameterError):
            ck.OutcomeDistribution("frequency", p, 1.5)
        with pytest.raises(ck.ParameterError):
            ck.OutcomeDistribution("weird", p, 0.0)
        with pytest.raises(ck.ParameterError):
            ck.OutcomeDistribution("frequency", np.full((4, 3), 1 / 12.0), 0.0)
        q = p.copy()
        q[3, 3] += q[0, 0] + 1e-6
        q[0, 0] = -1e-6
        with pytest.raises(ck.ParameterError):
            ck.OutcomeDistribution("frequency", q, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_probabilities(self, bad):
        with pytest.raises(ck.ParameterError, match="finite"):
            ck.OutcomeDistribution("frequency", np.full((4, 4), bad), 0.0)


class TestFrequencyBinning:
    def test_weights_partition_interior_cells(self):
        scheme = ck.BinningScheme(m=4, delta_omega=1.0)
        grid = ck.FrequencyGrid(64, span=7.3)
        weights = ck.bin_overlap_weights(grid.points, grid.spacing, scheme.bin_edges)
        assert weights.shape == (4, 64)
        assert np.all(weights >= 0.0) and np.all(weights <= 1.0)
        sums = weights.sum(axis=0)
        inside = (grid.points - grid.spacing / 2 >= -2.0) & (
            grid.points + grid.spacing / 2 <= 2.0
        )
        outside = (grid.points + grid.spacing / 2 <= -2.0) | (
            grid.points - grid.spacing / 2 >= 2.0
        )
        assert np.allclose(sums[inside], 1.0, atol=1e-12)
        assert np.allclose(sums[outside], 0.0, atol=1e-12)

    def test_coverage_warning_fires_for_matched_source(self, designed16):
        scheme, source, lens = designed16
        with pytest.warns(ck.CoverageWarning):
            ck.joint_outcome_distribution(source, scheme, lens, basis="frequency")

    def test_raw_outcomes_sit_on_the_anti_diagonal(self, designed16, outcomes16):
        # the source is anti-correlated in frequency; the distribution mirrors
        # the receiver's labels so agreement lands on identical labels
        scheme, source, _ = designed16
        freq, _ = outcomes16
        grid = source.grid
        weights = ck.bin_overlap_weights(grid.points, grid.spacing, scheme.bin_edges)
        raw = weights @ (np.abs(source.amplitudes) ** 2 * grid.spacing**2) @ weights.T
        for sender in range(scheme.m):
            assert int(np.argmax(raw[:, sender])) == scheme.m - 1 - sender
        mirrored = raw[::-1, :] / raw.sum()
        np.testing.assert_allclose(freq.probabilities, mirrored, rtol=1e-12, atol=1e-15)

    def test_relabeled_outcomes_sit_on_the_diagonal(self, outcomes16):
        freq, _ = outcomes16
        for sender in range(16):
            assert int(np.argmax(freq.probabilities[:, sender])) == sender

    def test_distribution_is_symmetric_between_parties(self, outcomes16):
        freq, _ = outcomes16
        assert np.abs(freq.probabilities - freq.probabilities.T).max() < 1e-12

    def test_matched_source_against_frozen_oracle(self, outcomes16):
        freq, _ = outcomes16
        assert freq.out_of_window == pytest.approx(ORACLE16_OUT_OF_WINDOW, abs=1e-4)
        marginal = freq.probabilities.sum(axis=1)
        assert _entropy_bits(marginal) == pytest.approx(ORACLE16_MARGINAL_BITS, abs=1e-4)
        off_diagonal = 1.0 - float(np.trace(freq.probabilities))
        assert off_diagonal == pytest.approx(ORACLE16_OFF_DIAGONAL, abs=5e-4)
        conditional = _entropy_bits(freq.probabilities.ravel()) - _entropy_bits(
            freq.probabilities.sum(axis=0)
        )
        assert conditional == pytest.approx(ORACLE16_CONDITIONAL_BITS, abs=1.5e-3)

    def test_narrowband_state_lands_in_one_bin(self, designed16):
        scheme, source, _ = designed16
        grid = source.grid
        state = np.exp(-((grid.points - 3.5) ** 2) / (2 * (1.0 / 6.0) ** 2)) + 0j
        state = _normalize(state, grid.spacing)
        probs, out = ck.binned_spectrum(state, grid, scheme)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert probs[11] > 0.999
        assert out < 1e-6


class TestTimeBinning:
    def test_time_basis_matches_frequency_basis_for_matched_source(self, outcomes16):
        # the designed measurement is self-dual: binned arrival times follow
        # the same joint distribution as binned frequencies
        freq, time = outcomes16
        assert time.basis == "time"
        assert np.abs(freq.probabilities - time.probabilities).max() < 2e-4
        assert time.out_of_window == pytest.approx(ORACLE16_OUT_OF_WINDOW, abs=1e-4)

    def test_time_basis_against_frozen_oracle(self, outcomes16):
        _, time = outcomes16
        marginal = time.probabilities.sum(axis=1)
        assert _entropy_bits(marginal) == pytest.approx(ORACLE16_MARGINAL_BITS, abs=2e-4)
        conditional = _entropy_bits(time.probabilities.ravel()) - _entropy_bits(
            time.probabilities.sum(axis=0)
        )
        assert conditional == pytest.approx(ORACLE16_CONDITIONAL_BITS, abs=1.5e-3)

    @pytest.mark.parametrize("m,n_points", [(4, 256), (8, 1024)])
    def test_real_record_bins_as_its_complex_copy(self, m, n_points):
        # a real joint record takes one real GEMM against the kernel's
        # interleaved (re, im) columns; a complex one the general product
        scheme, source = ck.design_binning(m, grid=ck.FrequencyGrid(n_points, span=3.0 * m))
        lens = ck.design_time_lens(scheme)
        as_complex = ck.JointSpectralAmplitude("sampled", source.grid, source.amplitudes + 0j)
        grid = source.grid
        state = _normalize(np.exp(-((grid.points - 0.3) ** 2) / (2 * 1.5**2)), grid.spacing)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ck.CoverageWarning)
            real = ck.joint_outcome_distribution(source, scheme, lens, basis="time")
            general = ck.joint_outcome_distribution(as_complex, scheme, lens, basis="time")
            single_real = ck.binned_arrival_times(state, grid, scheme, lens)
            single_complex = ck.binned_arrival_times(state + 0j, grid, scheme, lens)
        assert np.abs(real.probabilities - general.probabilities).max() < 1e-13
        assert real.out_of_window == pytest.approx(general.out_of_window, abs=1e-13)
        assert np.abs(single_real[0] - single_complex[0]).max() < 1e-13
        assert single_real[1] == pytest.approx(single_complex[1], abs=1e-13)

    def test_rejects_unknown_basis(self, designed16):
        scheme, source, lens = designed16
        with pytest.raises(ck.ParameterError):
            ck.joint_outcome_distribution(source, scheme, lens, basis="polarization")

    # A spectral Gaussian of width sigma has the arrival-time intensity
    # sigma/sqrt(pi) * exp(-sigma**2 * (t - tau)**2), where the phase
    # exp(i*w*tau) sets the delay tau, so each time bin's mass is half an
    # erf difference.  On a grid that resolves and covers the Gaussian the
    # sampled transform is exact to roundoff, and so must the binning be.
    # The short pulse sits in long bins: with beta_minus = 0.05 a bin is 6.7
    # wide and the sigma = 2 pulse about 0.35, and sixteen nodes per bin miss
    # a pulse at a bin centre by 5e-3 of its mass.
    DESIGNS = {
        "long-pulse": (ck.BinningScheme(m=4), 0.5, ck.FrequencyGrid(256, span=8.0)),
        "short-pulse": (
            ck.BinningScheme(m=4, beta_minus=0.05),
            2.0,
            ck.FrequencyGrid(256, span=16.0),
        ),
    }

    @staticmethod
    def _erf_masses(scheme, lens, sigma, tau):
        dt = ck.time_resolution(scheme, lens)
        edges = (np.arange(scheme.m + 1) - scheme.m / 2.0) * dt - tau
        return np.diff([0.5 * math.erf(sigma * e) for e in edges])

    @pytest.mark.parametrize("design", DESIGNS)
    def test_separable_source_against_closed_form(self, design):
        scheme, sigma, grid = self.DESIGNS[design]
        lens = ck.design_time_lens(scheme)
        source = ck.make_gaussian_jsa(sigma, sigma, grid=grid)
        q = self._erf_masses(scheme, lens, sigma, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ck.CoverageWarning)
            dist = ck.joint_outcome_distribution(source, scheme, lens, basis="time")
        expected = np.outer(q, q) / q.sum() ** 2
        np.testing.assert_allclose(dist.probabilities, expected, rtol=1e-12, atol=1e-15)
        assert dist.out_of_window == pytest.approx(1.0 - q.sum() ** 2, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize(
        "shift,tau", [(0.0, 0.0), (1.3, 0.0), (0.0, 0.4), (-0.7, -1.1), (0.0, -3.3)]
    )
    def test_single_photon_gaussian_against_closed_form(self, design, shift, tau):
        scheme, sigma, grid = self.DESIGNS[design]
        lens = ck.design_time_lens(scheme)
        w = grid.points
        state = np.exp(-((w - shift) ** 2) / (2 * sigma**2) + 1j * w * tau)
        state = _normalize(state, grid.spacing)
        q = self._erf_masses(scheme, lens, sigma, tau)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ck.CoverageWarning)
            probabilities, out = ck.binned_arrival_times(state, grid, scheme, lens)
        np.testing.assert_allclose(probabilities, q / q.sum(), rtol=1e-12, atol=1e-15)
        assert out == pytest.approx(1.0 - q.sum(), rel=1e-12, abs=1e-15)

    def test_lens_route_agrees_with_direct_time_binning(self, designed16):
        # binning arrival times after an ideal lens is the same measurement as
        # binning the rescaled output spectrum
        scheme, source, lens = designed16
        grid = source.grid
        state = np.exp(-grid.points**2 / (2 * 3.0**2) + 0.35j * grid.points**2)
        state = _normalize(state, grid.spacing)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ck.CoverageWarning)
            direct, out_direct = ck.binned_arrival_times(state, grid, scheme, lens)
            time_grid, field = ck.transform_1d(state, grid, sign=-1)
            out_grid, lensed = ck.simulate_time_lens(
                field, time_grid, lens, mode="ideal-quadratic"
            )
            routed, out_routed = ck.binned_spectrum(lensed, out_grid, scheme)
        assert np.abs(direct - routed).max() < 1e-3
        assert out_direct == pytest.approx(out_routed, abs=1e-3)


class TestCoverageWarningAttribution:
    """Each binning entry point reports its caller, not the package, as the
    source of the coverage warning."""

    @staticmethod
    def _assert_warns_here(call):
        with pytest.warns(ck.CoverageWarning) as record:
            call()
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("basis", ["frequency", "time"])
    def test_joint_outcome_distribution(self, designed16, basis):
        scheme, source, lens = designed16
        self._assert_warns_here(
            lambda: ck.joint_outcome_distribution(source, scheme, lens, basis=basis)
        )

    @pytest.mark.parametrize("basis", ["frequency", "time"])
    def test_gaussian_outcome_distribution(self, designed16, basis):
        scheme, _, lens = designed16
        wide, narrow = scheme.matched_widths()
        self._assert_warns_here(
            lambda: ck.gaussian_outcome_distribution(scheme, lens, wide, narrow, basis)
        )

    def test_binned_spectrum(self, designed16):
        scheme, source, _ = designed16
        grid = source.grid
        state = _normalize(np.exp(-grid.points**2 / (2 * 8.0**2)) + 0j, grid.spacing)
        self._assert_warns_here(lambda: ck.binned_spectrum(state, grid, scheme))

    def test_binned_arrival_times(self, designed16):
        scheme, source, lens = designed16
        grid = source.grid
        state = _normalize(np.exp(-grid.points**2 / (2 * 0.05**2)) + 0j, grid.spacing)
        self._assert_warns_here(lambda: ck.binned_arrival_times(state, grid, scheme, lens))


def _far(scheme):
    """``scheme``'s frequency window moved a million bins off the record's grid."""
    return dataclasses.replace(scheme, center=1e6)


def _with_nan(values):
    values = values.copy()
    values.flat[values.size // 2] = np.nan
    return values


def _state(grid):
    return _normalize(np.exp(-grid.points**2 / 2.0) + 0j, grid.spacing)


# Each case: a call on (scheme, source, lens), and the basis its error names, or
# None where a validator ahead of the binning refuses the input.
REFUSED_WINDOWS = {
    "binned_spectrum-far": (
        lambda s, src, lens: ck.binned_spectrum(_state(src.grid), src.grid, _far(s)),
        "frequency",
    ),
    "binned_spectrum-nan": (
        lambda s, src, lens: ck.binned_spectrum(_with_nan(_state(src.grid)), src.grid, s),
        None,
    ),
    "binned_arrival_times-empty": (
        lambda s, src, lens: ck.binned_arrival_times(
            np.zeros(src.grid.points.size, complex), src.grid, s, lens
        ),
        None,
    ),
    # Time bins sit on zero and the temporal amplitude is a Fourier sum whose
    # roundoff reaches every node: a state delayed 40 time units past the
    # window (half-width 3.3) leaves about 5e-34 of its mass inside.
    "binned_arrival_times-delayed": (
        lambda s, src, lens: ck.binned_arrival_times(
            _state(src.grid) * np.exp(40j * src.grid.points), src.grid, s, lens
        ),
        "time",
    ),
    "binned_arrival_times-nan": (
        lambda s, src, lens: ck.binned_arrival_times(
            _with_nan(_state(src.grid)), src.grid, s, lens
        ),
        None,
    ),
    "joint_outcome_distribution-far": (
        lambda s, src, lens: ck.joint_outcome_distribution(src, _far(s), lens, "frequency"),
        "frequency",
    ),
    "joint_outcome_distribution-nan": (
        lambda s, src, lens: ck.joint_outcome_distribution(
            ck.JointSpectralAmplitude("sampled", src.grid, _with_nan(src.amplitudes)),
            s,
            lens,
            "frequency",
        ),
        None,
    ),
    "gaussian_outcome_distribution-far": (
        lambda s, src, lens: ck.gaussian_outcome_distribution(
            _far(s), lens, *s.matched_widths(), "frequency"
        ),
        "frequency",
    ),
    "gaussian_outcome_distribution-nan": (
        lambda s, src, lens: ck.gaussian_outcome_distribution(
            s, lens, math.nan, s.matched_widths()[1], "frequency"
        ),
        None,
    ),
}


class TestEmptyOrNonFiniteWindow:
    """Each binning entry point refuses a window that holds no finite
    intensity above roundoff before it warns or divides."""

    @pytest.mark.parametrize("case", sorted(REFUSED_WINDOWS))
    def test_refused_without_runtime_warning(self, designed16, case):
        call, basis = REFUSED_WINDOWS[case]
        match = f"{basis}-basis window" if basis else None
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ck.ParameterError, match=match):
                call(*designed16)


class TestSinglePhotonRecord:
    """The single-photon binning functions check their state as the joint
    records check theirs: sampled on the grid, with unit discrete L2 mass."""

    @staticmethod
    def _call(name, state, grid, scheme):
        if name == "binned_spectrum":
            return ck.binned_spectrum(state, grid, scheme)
        return ck.binned_arrival_times(state, grid, scheme, ck.design_time_lens(scheme))

    @pytest.mark.parametrize("name", ["binned_spectrum", "binned_arrival_times"])
    @pytest.mark.parametrize("fault", ["one-sample-short", "scaled-by-10"])
    def test_refuses_a_state_that_is_not_a_record(self, name, fault):
        scheme, source = ck.design_binning(8)
        grid = source.grid
        state = _normalize(np.exp(-grid.points**2 / (2 * 3.0**2)) + 0j, grid.spacing)
        state = state[:-1] if fault == "one-sample-short" else 10.0 * state
        with pytest.raises(ck.ParameterError, match="single-photon state"):
            self._call(name, state, grid, scheme)


def _closed_form(scheme, basis, lens=None):
    lens = lens or ck.design_time_lens(scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ck.CoverageWarning)
        return ck.gaussian_outcome_distribution(scheme, lens, *scheme.matched_widths(), basis)


def _grid_route(scheme, source, basis, lens=None):
    lens = lens or ck.design_time_lens(scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ck.CoverageWarning)
        return ck.joint_outcome_distribution(source, scheme, lens, basis)


class TestErfc:
    def test_matches_math_erfc(self):
        x = np.concatenate([np.linspace(-6.0, 27.0, 110_001), np.linspace(26.4, 26.7, 10_001)])
        got = _erfc(x)
        expected = np.array([math.erfc(v) for v in x])
        normal = expected >= np.finfo(float).tiny
        assert (got[normal] == expected[normal]).all()
        assert (~normal).sum() > 1000
        assert (got[~normal] == 0.0).all()

    def test_infinities_and_nan(self):
        got = _erfc(np.array([np.inf, -np.inf, 1e300, -1e300, np.nan, 0.0, -0.0]))
        assert got[:4].tolist() == [0.0, 2.0, 0.0, 2.0]
        assert np.isnan(got[4])
        assert got[5:].tolist() == [1.0, 1.0]


class TestGaussianClosedForm:
    """``gaussian_outcome_distribution`` against the grid route, its frozen
    quadrature oracle, and its own self-duality."""

    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_time_basis_equals_the_grid_route(self, m, request):
        if m == 16:
            grid = request.getfixturevalue("outcomes16")[1]
        else:
            grid = _grid_route(*ck.design_binning(m), "time")
        closed = _closed_form(ck.BinningScheme(m), "time")
        assert np.abs(closed.probabilities - grid.probabilities).max() <= 1e-9
        assert closed.out_of_window == pytest.approx(grid.out_of_window, abs=1e-9)

    def test_frequency_grid_route_converges_at_second_order(self):
        # The grid route integrates sampled intensity by the midpoint rule:
        # its distance from the closed form falls 4x per doubling of the grid
        # (m = 8: 1.7e-4, 4.1e-5, 1.0e-5 at 1024, 2048, 4096 points).
        scheme = ck.BinningScheme(8)
        closed = _closed_form(scheme, "frequency")
        span = ck.default_grid(*scheme.matched_widths()).span
        errors = []
        for n_points in (1024, 2048, 4096):
            _, source = ck.design_binning(8, grid=ck.FrequencyGrid(n_points, span=span))
            grid = _grid_route(scheme, source, "frequency")
            errors.append(np.abs(closed.probabilities - grid.probabilities).max())
        assert errors[-1] < 2e-5
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 < coarse / fine < 4.5

    def test_designed16_against_the_frozen_oracle(self):
        scheme = ck.BinningScheme(16)
        for basis in ("frequency", "time"):
            closed = _closed_form(scheme, basis)
            p = closed.probabilities
            assert closed.out_of_window == pytest.approx(ORACLE16_OUT_OF_WINDOW, abs=1e-14)
            assert _entropy_bits(p.sum(axis=1)) == pytest.approx(ORACLE16_MARGINAL_BITS, abs=1e-6)
            conditional = _entropy_bits(p.ravel()) - _entropy_bits(p.sum(axis=0))
            assert conditional == pytest.approx(ORACLE16_CONDITIONAL_BITS, abs=1e-6)
            assert 1.0 - np.trace(p) == pytest.approx(ORACLE16_OFF_DIAGONAL, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(2, 1024),
        beta_plus=st.floats(0.05, 1.0),
        ratio=st.floats(0.02, 0.95),
    )
    @example(m=1024, beta_plus=0.75, ratio=0.2 / 0.75)
    @example(m=2, beta_plus=1.0, ratio=0.95)
    def test_matched_designs_are_self_dual(self, m, beta_plus, ratio):
        scheme = ck.BinningScheme(m, beta_plus=beta_plus, beta_minus=max(ratio * beta_plus, 0.02))
        freq = _closed_form(scheme, "frequency")
        time = _closed_form(scheme, "time")
        assert np.abs(freq.probabilities - time.probabilities).max() <= 1e-12
        assert freq.out_of_window == pytest.approx(time.out_of_window, abs=1e-12)

    def test_narrow_source_against_a_fine_quadrature(self):
        # sigma = 0.02 bins needs 9 panels per bin; the reference takes 200
        # panels of 20 nodes per bin and scalar math.erfc.
        scheme = ck.BinningScheme(3, beta_plus=0.9, beta_minus=0.02)
        wide, narrow = scheme.matched_widths()
        var_sum, var_diff = narrow**2 / 2, wide**2 / 2
        var = (var_sum + var_diff) / 2
        rho, sigma = (var_sum - var_diff) / 2 / var, math.sqrt(var_sum * var_diff / var)
        nodes, weights = np.polynomial.legendre.leggauss(20)
        erfc = np.vectorize(math.erfc)
        edges = scheme.bin_edges
        raw = np.zeros((3, 3))
        for a in range(3):
            x = (edges[a] + (np.arange(200)[:, None] + 0.5 + nodes / 2) / 200).ravel()
            density = np.exp(-x * x / (2 * var)) / math.sqrt(2 * math.pi * var)
            w = np.tile(weights / 400, 200) * density
            for b in range(3):
                z = [(edges[b + k] - rho * x) / (sigma * math.sqrt(2)) for k in (0, 1)]
                raw[b, a] = w @ (0.5 * (erfc(z[0]) - erfc(z[1])))
        closed = _closed_form(scheme, "frequency")
        assert np.abs(closed.probabilities - raw[::-1] / raw.sum()).max() < 1e-13
        assert closed.out_of_window == pytest.approx(1.0 - raw.sum(), abs=1e-13)

    def test_cells_beyond_the_band_are_exact_zeros(self):
        # The default design's conditional deviation is 0.2 bins, so cells
        # more than 8 bins off the diagonal hold less than erfc(27) < 1e-308.
        p = _closed_form(ck.BinningScheme(64), "frequency").probabilities
        offset = np.abs(np.subtract.outer(np.arange(64), np.arange(64)))
        assert (p[offset > 9] == 0.0).all()
        assert (p[offset <= 4] > 0.0).all()

    def test_frequency_window_follows_the_center(self):
        # The source sits at zero; moving the bins moves the window over it,
        # exactly as on the grid.  Time bins stay centred on zero.
        scheme = ck.BinningScheme(4, center=0.7)
        _, source = ck.design_binning(4)
        lens = ck.design_time_lens(scheme)
        closed = _closed_form(scheme, "frequency")
        grid = _grid_route(scheme, source, "frequency")
        assert np.abs(closed.probabilities - grid.probabilities).max() < 1e-4
        assert closed.out_of_window == pytest.approx(grid.out_of_window, abs=1e-4)
        assert closed.out_of_window > _closed_form(ck.BinningScheme(4), "frequency").out_of_window
        centred = _closed_form(ck.BinningScheme(4), "time").probabilities
        assert np.array_equal(_closed_form(scheme, "time", lens).probabilities, centred)

    @pytest.mark.parametrize(
        "widths,basis",
        [((0.0, 0.2), "frequency"), ((6.0, math.nan), "time"), ((math.inf, 0.2), "time"),
         ((1e200, 0.2), "time"), ((6.0, 0.2), "spectral")],
    )
    def test_refuses_bad_widths_and_bases(self, widths, basis):
        scheme = ck.BinningScheme(8)
        with pytest.raises(ck.ParameterError):
            ck.gaussian_outcome_distribution(scheme, ck.design_time_lens(scheme), *widths, basis)


@pytest.fixture(scope="module")
def pulse(designed16):
    _, _, lens = designed16
    width = lens.aperture / 4.0
    grid = ck.TimeGrid(4096, span=40.0)
    field = np.exp(-grid.points**2 / (2 * width**2)) + 0j
    field = _normalize(field, grid.spacing)
    return grid, field, width


class TestTimeLensSimulation:
    def test_ideal_lens_rescales_the_envelope(self, designed16, pulse):
        _, _, lens = designed16
        grid, field, width = pulse
        out_grid, output = ck.simulate_time_lens(field, grid, lens, mode="ideal-quadratic")
        intensity = np.abs(output) ** 2 * out_grid.spacing
        std = math.sqrt(float((intensity * out_grid.points**2).sum()))
        # output spectral envelope is the input envelope scaled by the
        # focusing rate, so its width parameter is rate * width
        assert std * math.sqrt(2.0) == pytest.approx(
            lens.focusing_rate * width, rel=1e-3
        )
        reference = np.exp(-out_grid.points**2 / (2 * (lens.focusing_rate * width) ** 2))
        reference = _normalize(reference + 0j, out_grid.spacing)
        assert ck.overlap_fidelity(np.abs(output), reference) > 0.9999

    def test_sinusoidal_lens_approaches_ideal_within_aperture(self, designed16, pulse):
        _, _, lens = designed16
        grid, field, _ = pulse
        _, ideal = ck.simulate_time_lens(field, grid, lens, mode="ideal-quadratic")
        _, real = ck.simulate_time_lens(field, grid, lens, mode="sinusoidal")
        assert ck.overlap_fidelity(real, ideal) > 0.999

    def test_fidelity_degrades_as_pulse_outgrows_aperture(self, designed16):
        _, _, lens = designed16
        grid = ck.TimeGrid(4096, span=40.0)
        fidelities = []
        for factor in (1.0, 2.0, 3.0):
            width = factor * lens.aperture / 4.0
            field = _normalize(
                np.exp(-grid.points**2 / (2 * width**2)) + 0j, grid.spacing
            )
            _, ideal = ck.simulate_time_lens(field, grid, lens, mode="ideal-quadratic")
            _, real = ck.simulate_time_lens(field, grid, lens, mode="sinusoidal")
            fidelities.append(ck.overlap_fidelity(real, ideal))
        assert fidelities[0] > fidelities[1] > fidelities[2]
        assert fidelities[2] < 0.9

    def test_rejects_unknown_mode_and_off_center_grid(self, designed16):
        _, _, lens = designed16
        grid = ck.TimeGrid(64, span=10.0)
        field = np.zeros(64, dtype=complex)
        with pytest.raises(ck.ParameterError):
            ck.simulate_time_lens(field, grid, lens, mode="cubic")
        shifted = ck.TimeGrid(64, span=10.0, center=1.0)
        with pytest.raises(ck.ParameterError):
            ck.simulate_time_lens(field, shifted, lens)

    def test_overlap_fidelity_bounds(self):
        a = np.array([1.0, 0.0], dtype=complex)
        b = np.array([0.0, 1.0], dtype=complex)
        assert ck.overlap_fidelity(a, a) == pytest.approx(1.0)
        assert ck.overlap_fidelity(a, b) == pytest.approx(0.0)
        with pytest.raises(ck.ParameterError):
            ck.overlap_fidelity(a, np.zeros(2, dtype=complex))


class TestTemporalKernel:
    def test_matches_frozen_quadrature(self, designed16):
        scheme, _, lens = designed16
        times = np.array(sorted(KERNEL16_AT))
        values = ck.temporal_kernel(scheme, lens, 8, times)
        for t, v in zip(times, values):
            assert v == pytest.approx(KERNEL16_AT[t], abs=1e-12)

    def test_first_zero_of_the_envelope(self, designed16):
        scheme, _, lens = designed16
        value = ck.temporal_kernel(
            scheme, lens, 8, np.array([KERNEL16_FIRST_ZERO])
        )[0]
        assert abs(value) < 1e-12

    def test_mirror_bins_are_conjugate(self, designed16):
        scheme, _, lens = designed16
        times = np.linspace(-4.0, 4.0, 17)
        k7 = ck.temporal_kernel(scheme, lens, 7, times)
        k8 = ck.temporal_kernel(scheme, lens, 8, times)
        assert np.abs(k7 - np.conj(k8)).max() < 1e-12

    def test_rejects_out_of_range_bin(self, designed16):
        scheme, _, lens = designed16
        with pytest.raises(ck.ParameterError):
            ck.temporal_kernel(scheme, lens, 16, np.array([0.0]))
