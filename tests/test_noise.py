"""Dark-count and loss channel model and its symbol-error closed forms."""

import math
import warnings

import numpy as np
import pytest

import chronokey as ck

# frozen: 30-digit evaluations of the symbol-error closed form at the default
# channel (pair 0.1, detectors 0.25, darks 1e-6, one attenuation length)
ERROR_P_16 = 2.9635571374747156e-4
ERROR_P_256 = 5.0787917140532208e-3
ERROR_P_2048 = 0.042956379045273433
# frozen: same channel, error probability reconstructed from the exact
# accepted-coincidence bracket forms at m=2048
EXACT_P_2048 = 0.04332668035209867


def _channel(m, **overrides):
    kwargs = dict(
        m=m,
        pair_probability=0.1,
        detector_efficiency=0.25,
        dark_probability=1e-6,
        length=1.0,
        attenuation_length=1.0,
    )
    kwargs.update(overrides)
    return ck.ChannelModel(**kwargs)


class TestChannelModel:
    def test_transmission_combines_detector_and_fiber(self):
        model = _channel(16)
        assert ck.transmission(model) == pytest.approx(0.25 * math.exp(-1.0), rel=1e-12)
        lossless = _channel(16, length=0.0)
        assert ck.transmission(lossless) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(m=1),
            dict(pair_probability=1.5),
            dict(pair_probability=-0.1),
            dict(detector_efficiency=2.0),
            dict(dark_probability=-1e-9),
            dict(length=-1.0),
            dict(attenuation_length=0.0),
            dict(length=float("nan")),
        ],
    )
    def test_rejects_invalid_parameters(self, overrides):
        kwargs = dict(
            m=16,
            pair_probability=0.1,
            detector_efficiency=0.25,
            dark_probability=1e-6,
            length=1.0,
            attenuation_length=1.0,
        )
        kwargs.update(overrides)
        with pytest.raises(ck.ParameterError):
            ck.ChannelModel(**kwargs)


class TestErrorProbability:
    def test_dark_free_channel_is_error_free(self):
        assert ck.error_probability(_channel(16, dark_probability=0.0)) == 0.0

    @pytest.mark.parametrize(
        "m,expected",
        [(16, ERROR_P_16), (256, ERROR_P_256), (2048, ERROR_P_2048)],
    )
    def test_frozen_values_at_default_channel(self, m, expected):
        assert ck.error_probability(_channel(m)) == pytest.approx(expected, rel=1e-12)

    def test_pure_noise_channel_saturates_and_warns(self):
        model = _channel(8, pair_probability=0.0, dark_probability=1e-3)
        with pytest.warns(ck.PureNoiseWarning):
            p = ck.error_probability(model)
        assert p == pytest.approx(7.0 / 8.0, rel=1e-12)

    @pytest.mark.parametrize(
        "overrides,expected",
        [
            (dict(pair_probability=0.0, dark_probability=1e-3), True),
            (dict(detector_efficiency=0.0, dark_probability=1e-3), True),
            (dict(pair_probability=0.0, dark_probability=0.0), False),
            (dict(), False),
        ],
        ids=["no-pairs", "no-transmission", "dark-free", "defaults"],
    )
    def test_pure_noise_needs_dark_counts_without_signal(self, overrides, expected):
        assert ck.pure_noise(_channel(8, **overrides)) is expected

    def test_error_stays_below_uniform_limit(self):
        for m in (4, 64, 2048):
            for d in (1e-6, 1e-4, 1e-2, 0.4):
                p = ck.error_probability(_channel(m, dark_probability=d))
                assert 0.0 <= p < (m - 1) / m

    def test_error_grows_with_darks_and_alphabet(self):
        darks = [1e-7, 1e-6, 1e-5, 1e-4, 1e-3]
        values = [ck.error_probability(_channel(64, dark_probability=d)) for d in darks]
        assert all(a < b for a, b in zip(values, values[1:]))
        sizes = [4, 16, 64, 256]
        by_m = [ck.error_probability(_channel(m)) for m in sizes]
        assert all(a < b for a, b in zip(by_m, by_m[1:]))


class TestCoincidenceBrackets:
    def test_dark_free_channel_has_only_correct_coincidences(self):
        model = _channel(16, dark_probability=0.0, length=0.0)
        p_correct, p_incorrect = ck.pcorrect_pincorrect(model)
        assert p_correct == pytest.approx(0.1 * 0.25**2, rel=1e-12)
        assert p_incorrect == 0.0

    def test_source_free_channel_errors_uniformly(self):
        model = _channel(8, pair_probability=0.0, dark_probability=1e-3)
        p_correct, p_incorrect = ck.pcorrect_pincorrect(model)
        ratio = p_incorrect / (p_correct + p_incorrect)
        assert ratio == pytest.approx(7.0 / 8.0, rel=1e-12)

    @pytest.mark.parametrize(
        "m,eps,eta_d,length,dark",
        [
            (16, 0.1, 0.25, 1.0, 1e-6),
            (2048, 0.1, 0.25, 1.0, 1e-6),
            (8, 0.2, 0.6, 0.5, 5e-3),
            (64, 0.05, 0.9, 2.0, 1e-4),
        ],
    )
    def test_reconstruction_matches_exact_closed_form(self, m, eps, eta_d, length, dark):
        model = _channel(
            m,
            pair_probability=eps,
            detector_efficiency=eta_d,
            length=length,
            dark_probability=dark,
        )
        eta = ck.transmission(model)
        kappa = 2 * dark * (1 - eta) / eta + m * dark**2 * (
            (1 - eta) ** 2 / eta**2 + (1 - eps) / (eps * eta**2)
        )
        expected = kappa * (m - 1) / (kappa * m + 1)
        assert ck.reconstructed_error_probability(model) == pytest.approx(
            expected, rel=1e-12
        )

    def test_frozen_exact_value_at_largest_alphabet(self):
        assert ck.reconstructed_error_probability(_channel(2048)) == pytest.approx(
            EXACT_P_2048, rel=1e-12
        )

    @pytest.mark.parametrize(
        "m,eps,eta_d,length,dark",
        [
            (16, 0.1, 0.25, 1.0, 1e-3),
            (256, 0.3, 0.5, 0.2, 1e-2),
        ],
    )
    def test_printed_and_exact_forms_differ_by_known_term(
        self, m, eps, eta_d, length, dark
    ):
        # solving p = kappa*(m-1)/(kappa*m+1) for kappa on both routes, the
        # two collision strengths differ by exactly m*d^2*(1-2*eta)/eta^2
        model = _channel(
            m,
            pair_probability=eps,
            detector_efficiency=eta_d,
            length=length,
            dark_probability=dark,
        )
        eta = ck.transmission(model)

        def strength(p):
            return p / ((m - 1) - p * m)

        gap = strength(ck.reconstructed_error_probability(model)) - strength(
            ck.error_probability(model)
        )
        assert gap == pytest.approx(m * dark**2 * (1 - 2 * eta) / eta**2, rel=1e-9)

    def test_reconstruction_requires_accepted_rounds(self):
        model = _channel(16, pair_probability=0.0, dark_probability=0.0)
        with pytest.raises(ck.ParameterError):
            ck.reconstructed_error_probability(model)


class TestErrorModelDistribution:
    @pytest.mark.parametrize("m,p_err", [(4, 0.0), (4, 0.3), (16, 0.05), (16, 15 / 16)])
    def test_off_diagonal_mass_and_marginals(self, m, p_err):
        joint = ck.error_model_distribution(m, p_err)
        assert joint.shape == (m, m)
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert (1.0 - np.trace(joint)) == pytest.approx(p_err, abs=1e-12)
        assert np.allclose(joint.sum(axis=0), 1.0 / m, atol=1e-15)
        assert np.allclose(joint.sum(axis=1), 1.0 / m, atol=1e-15)

    def test_saturated_error_rate_is_uniform(self):
        joint = ck.error_model_distribution(4, 3.0 / 4.0)
        assert np.allclose(joint, 1.0 / 16.0, atol=1e-15)

    def test_conditional_entropy_closed_form(self):
        for m, p_err in [(4, 0.1), (16, 0.02), (256, 0.2)]:
            joint = ck.error_model_distribution(m, p_err)
            expected = p_err * math.log2(m - 1) + ck.binary_entropy(p_err)
            assert ck.conditional_entropy(joint) == pytest.approx(expected, abs=1e-9)

    def test_rejects_error_rates_beyond_uniform(self):
        with pytest.raises(ck.ParameterError):
            ck.error_model_distribution(4, 0.8)
        with pytest.raises(ck.ParameterError):
            ck.error_model_distribution(4, -0.01)


class TestClosedFormKeyRateCurve:
    def test_rate_peaks_then_crosses_zero_with_growing_alphabet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ck.PureNoiseWarning)
            rates = {
                bits: ck.simplified_key_rate(
                    2**bits, ck.error_probability(_channel(2**bits))
                )
                for bits in range(1, 17)
            }
        best = max(rates, key=rates.get)
        assert best == 11
        assert rates[11] == pytest.approx(9.4582, abs=1e-3)
        for bits in range(12, 16):
            assert rates[bits + 1] < rates[bits]
        assert rates[14] > 0.0 > rates[15]
