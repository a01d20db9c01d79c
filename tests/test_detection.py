"""Binning schemes, the time lens, and binned outcome distributions."""

import math
import warnings

import numpy as np
import pytest

import chronokey as ck

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
        assert lens.fraunhofer_deviation <= 1e-12

    def test_rejects_inconsistent_focusing_rate(self):
        with pytest.raises(ck.ParameterError):
            ck.TimeLens(focusing_rate=2.0, mod_frequency=0.2, mod_depth=60.0, gvd=0.5)

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

    def test_raw_outcomes_sit_on_the_anti_diagonal(self, designed16):
        scheme, source, lens = designed16
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ck.CoverageWarning)
            raw = ck.joint_outcome_distribution(
                source, scheme, lens, basis="frequency", relabel_receiver=False
            )
        for sender in range(scheme.m):
            assert int(np.argmax(raw.probabilities[:, sender])) == scheme.m - 1 - sender

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

    def test_rejects_unknown_basis(self, designed16):
        scheme, source, lens = designed16
        with pytest.raises(ck.ParameterError):
            ck.joint_outcome_distribution(source, scheme, lens, basis="polarization")

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
