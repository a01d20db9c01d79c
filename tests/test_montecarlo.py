"""Round-by-round channel simulation against the closed-form expectations."""

import math
import warnings

import numpy as np
import pytest

import chronokey as ck


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


def _noiseless(m):
    return ck.ChannelModel(
        m=m,
        pair_probability=1.0,
        detector_efficiency=1.0,
        dark_probability=0.0,
        length=0.0,
        attenuation_length=1.0,
    )


def _ledgers_equal(a, b):
    plain = (
        "m rounds no_click multi_click_discarded basis_mismatch sifted "
        "correct incorrect"
    ).split()
    return all(getattr(a, name) == getattr(b, name) for name in plain) and (
        np.array_equal(a.joint_counts_frequency, b.joint_counts_frequency)
        and np.array_equal(a.joint_counts_time, b.joint_counts_time)
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rounds=0, seed=1),
            dict(rounds=10, seed=1, basis_probability=1.5),
            dict(rounds=10, seed=1, multi_click_policy="keep"),
            dict(rounds=10, seed=1, correlation_model="magic"),
            dict(rounds=10, seed=1, shard_size=0),
            dict(rounds=True, seed=1),
            dict(rounds=10, seed=False),
            dict(rounds=10, seed=1, shard_size=True),
        ],
    )
    def test_rejects_invalid_settings(self, kwargs):
        with pytest.raises(ck.ParameterError):
            ck.SimulationConfig(**kwargs)


class TestDeterminism:
    def test_same_seed_reproduces_the_ledger(self):
        config = ck.SimulationConfig(rounds=200_000, seed=91, shard_size=50_000)
        model = _channel(16, dark_probability=1e-3)
        first = ck.simulate_rounds(config, model)
        second = ck.simulate_rounds(config, model)
        assert _ledgers_equal(first, second)

    def test_thread_count_does_not_change_results(self):
        config = ck.SimulationConfig(rounds=300_000, seed=5, shard_size=50_000)
        model = _channel(16, dark_probability=1e-3)
        serial = ck.simulate_rounds(config, model, threads=1)
        parallel = ck.simulate_rounds(config, model, threads=4)
        assert _ledgers_equal(serial, parallel)

    def test_different_seeds_differ(self):
        model = _channel(16, dark_probability=1e-3)
        a = ck.simulate_rounds(ck.SimulationConfig(rounds=100_000, seed=1), model)
        b = ck.simulate_rounds(ck.SimulationConfig(rounds=100_000, seed=2), model)
        assert not _ledgers_equal(a, b)


@pytest.fixture(scope="module")
def noisy_run():
    config = ck.SimulationConfig(rounds=300_000, seed=17, shard_size=100_000)
    return ck.simulate_rounds(config, _channel(8, dark_probability=5e-3)), config


class TestLedgerAccounting:
    def test_round_classes_are_exhaustive(self, noisy_run):
        ledger, config = noisy_run
        accepted = ledger.basis_mismatch + ledger.sifted
        assert ledger.no_click + ledger.multi_click_discarded + accepted == config.rounds
        assert ledger.correct + ledger.incorrect == ledger.sifted
        assert ledger.coincidences == accepted

    def test_joint_counts_match_the_totals(self, noisy_run):
        ledger, _ = noisy_run
        total = (
            ledger.joint_counts_frequency.sum() + ledger.joint_counts_time.sum()
        )
        assert total == ledger.sifted
        diagonal = (
            np.trace(ledger.joint_counts_frequency)
            + np.trace(ledger.joint_counts_time)
        )
        assert diagonal == ledger.correct

    def test_merge_is_consistent_with_field_sums(self, noisy_run):
        ledger, _ = noisy_run
        empty = ck.RoundLedger.empty(8)
        again = empty.merged(ledger)
        assert _ledgers_equal(again, ledger)
        double = ledger.merged(ledger)
        assert double.rounds == 2 * ledger.rounds
        assert double.sifted == 2 * ledger.sifted
        with pytest.raises(ck.ParameterError):
            ledger.merged(ck.RoundLedger.empty(4))


class TestAgainstClosedForms:
    def test_noiseless_channel_is_perfectly_correlated(self):
        config = ck.SimulationConfig(rounds=5_000, seed=3)
        ledger = ck.simulate_rounds(config, _noiseless(16))
        assert ledger.no_click == 0
        assert ledger.multi_click_discarded == 0
        assert ledger.incorrect == 0
        assert ledger.sifted + ledger.basis_mismatch == config.rounds
        assert np.all(np.diag(np.diag(ledger.joint_counts_frequency))
                      == ledger.joint_counts_frequency)

    def test_source_free_channel_errors_uniformly(self):
        config = ck.SimulationConfig(rounds=200_000, seed=23)
        model = _channel(4, pair_probability=0.0, dark_probability=0.3)
        ledger = ck.simulate_rounds(config, model)
        p_hat = ledger.incorrect / ledger.sifted
        sigma = math.sqrt(0.75 * 0.25 / ledger.sifted)
        assert abs(p_hat - 0.75) < 4 * sigma

    def test_acceptance_and_error_rates_match_the_brackets(self):
        model = _channel(
            8, pair_probability=0.2, detector_efficiency=0.6,
            length=0.5, dark_probability=5e-3,
        )
        config = ck.SimulationConfig(rounds=400_000, seed=29, shard_size=100_000)
        ledger = ck.simulate_rounds(config, model)
        p_correct, p_incorrect = ck.pcorrect_pincorrect(model)
        accept = p_correct + p_incorrect
        observed = ledger.coincidences / config.rounds
        assert abs(observed - accept) < 4 * math.sqrt(accept / config.rounds)
        p_model = p_incorrect / accept
        p_hat = ledger.incorrect / ledger.sifted
        sigma = math.sqrt(p_model * (1 - p_model) / ledger.sifted)
        assert abs(p_hat - p_model) < 4 * sigma

    def test_random_assignment_keeps_multi_click_rounds(self):
        model = _channel(8, dark_probability=5e-2)
        discard = ck.simulate_rounds(
            ck.SimulationConfig(rounds=100_000, seed=31), model
        )
        retain = ck.simulate_rounds(
            ck.SimulationConfig(
                rounds=100_000, seed=31, multi_click_policy="random-assign"
            ),
            model,
        )
        assert discard.multi_click_discarded > 0
        assert retain.multi_click_discarded == 0
        assert retain.coincidences > discard.coincidences


@pytest.fixture(scope="module")
def sampled4():
    scheme, source = ck.design_binning(4)
    lens = ck.design_time_lens(scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ck.CoverageWarning)
        freq = ck.joint_outcome_distribution(source, scheme, lens, basis="frequency")
        time = ck.joint_outcome_distribution(source, scheme, lens, basis="time")
    return scheme, lens, freq, time


class TestSampledSource:
    def test_sampled_statistics_follow_the_source(self, sampled4):
        _, _, freq, time = sampled4
        config = ck.SimulationConfig(
            rounds=150_000, seed=37, correlation_model="sampled-jsa",
            basis_probability=0.7,
        )
        ledger = ck.simulate_rounds(
            config, _noiseless(4), frequency_distribution=freq,
            time_distribution=time,
        )
        dist, stderr = ck.empirical_distribution(ledger, "frequency")
        assert np.abs(dist.probabilities - freq.probabilities).max() < 5 * stderr.max() + 1e-3
        n_freq = ledger.joint_counts_frequency.sum()
        n_time = ledger.joint_counts_time.sum()
        assert n_freq > 2.0 * n_time  # basis probability 0.7 favors frequency
        t_dist, _ = ck.empirical_distribution(ledger, "time")
        assert np.abs(t_dist.probabilities - time.probabilities).max() < 2e-2

    def test_sampled_model_requires_distributions(self):
        config = ck.SimulationConfig(rounds=10, seed=1, correlation_model="sampled-jsa")
        with pytest.raises(ck.ParameterError):
            ck.simulate_rounds(config, _noiseless(4))


class TestEstimators:
    def test_empirical_distribution_requires_sifted_rounds(self):
        config = ck.SimulationConfig(rounds=50, seed=3, basis_probability=1.0)
        ledger = ck.simulate_rounds(config, _noiseless(4))
        with pytest.raises(ck.ParameterError):
            ck.empirical_distribution(ledger, "time")
        dist, stderr = ck.empirical_distribution(ledger, "frequency")
        n = ledger.joint_counts_frequency.sum()
        assert np.allclose(
            stderr, np.sqrt(dist.probabilities * (1 - dist.probabilities) / n)
        )

    def test_empirical_error_probability_matches_counts(self):
        config = ck.SimulationConfig(rounds=100_000, seed=41)
        ledger = ck.simulate_rounds(config, _channel(8, dark_probability=1e-2))
        assert ck.empirical_error_probability(ledger) == pytest.approx(
            ledger.incorrect / ledger.sifted
        )
        silent = ck.simulate_rounds(
            ck.SimulationConfig(rounds=10, seed=1),
            _channel(8, pair_probability=0.0, dark_probability=0.0),
        )
        with pytest.raises(ck.ParameterError):
            ck.empirical_error_probability(silent)

    def test_estimated_key_rate_for_a_clean_channel(self, designed16):
        scheme, _, lens = designed16
        config = ck.SimulationConfig(rounds=600_000, seed=43)
        ledger = ck.simulate_rounds(config, _noiseless(16))
        result = ck.estimate_key_rate(ledger, scheme, lens)
        bound = ck.entropic_bound(scheme.delta_omega, ck.time_resolution(scheme, lens))
        assert result.secret_key == pytest.approx(bound, abs=1e-9)
        assert not result.clamped
