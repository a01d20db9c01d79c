"""Round-by-round channel simulation against the closed-form expectations."""

import hashlib
import math
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chronokey as ck
from chronokey.montecarlo import (
    _guide_table,
    _in_order,
    _joint_cdf,
    _pattern_probabilities,
    _sample_cells,
    _shard_rng,
    _simulate_shard,
    _skip_doubles,
    _zero_truncated_dark_counts,
)


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
    return a.m == b.m and a.rounds == b.rounds and np.array_equal(a.tally, b.tally)


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

    @pytest.mark.parametrize("threads", [True, 2.5, 0])
    def test_threads_must_be_a_positive_integer(self, threads):
        config = ck.SimulationConfig(rounds=30, seed=1, shard_size=10)
        with pytest.raises(ck.ParameterError, match="threads"):
            ck.simulate_rounds(config, _channel(4), threads=threads)

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

    def test_shard_ledger_properties_obey_the_class_identities(self):
        config = ck.SimulationConfig(rounds=100_000, seed=23)
        tally = _simulate_shard(0, 100_000, config, _channel(8, dark_probability=5e-3), None, None)
        ledger = ck.RoundLedger(8, 100_000, tally)
        assert ledger.multi_click_discarded > 0 and ledger.incorrect > 0
        assert ledger.no_click + ledger.multi_click_discarded + ledger.coincidences == ledger.rounds
        assert ledger.correct == (
            np.trace(ledger.joint_counts_frequency) + np.trace(ledger.joint_counts_time)
        )
        assert ledger.joint_counts_frequency.nbytes == ledger.joint_counts_time.nbytes == 8 * 64
        assert not ledger.tally.flags.writeable

    def test_shard_tallies_add_into_one_total(self):
        # At the peak only the running total and one shard's tally are alive.
        config = ck.SimulationConfig(rounds=400_000, seed=29, shard_size=50_000)
        tracemalloc.start()
        try:
            ledger = ck.simulate_rounds(config, _channel(512), threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * ledger.tally.nbytes

    @pytest.mark.parametrize(
        "m,rounds,tally",
        [
            (3, 100, np.array([1] * 9 + [-1] + [0] * 10, dtype=np.int64)),
            (3, 100, np.zeros(19, dtype=np.int64)),
            (3, 100, np.zeros(20, dtype=np.int32)),
            (3, 100, np.zeros(20)),
            (3, 100, [0] * 20),
            (3, 5, np.array([3] * 2 + [0] * 18, dtype=np.int64)),
            (-3, 0, np.zeros(20, dtype=np.int64)),
            (True, 0, np.zeros(4, dtype=np.int64)),
            (2, 2.5, np.zeros(10, dtype=np.int64)),
            (1, 0, np.zeros(3, dtype=np.int64)),
            (3.0, 0, np.zeros(20, dtype=np.int64)),
            ("3", 0, np.zeros(20, dtype=np.int64)),
            (3, -1, np.zeros(20, dtype=np.int64)),
            (3, True, np.zeros(20, dtype=np.int64)),
            (3, None, np.zeros(20, dtype=np.int64)),
        ],
        ids=[
            "negative", "short", "int32", "float", "list", "past-rounds",
            "negative-m", "boolean-m", "fractional-rounds", "one-symbol-m",
            "float-m", "string-m", "negative-rounds", "boolean-rounds", "no-rounds",
        ],
    )
    def test_ledger_refuses_an_unrepresentable_tally(self, m, rounds, tally):
        with pytest.raises(ck.ParameterError, match="tally"):
            ck.RoundLedger(m=m, rounds=rounds, tally=tally)


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
        dist = ck.empirical_distribution(ledger, "frequency")
        n_freq = ledger.joint_counts_frequency.sum()
        stderr = np.sqrt(dist.probabilities * (1 - dist.probabilities) / n_freq)
        assert np.abs(dist.probabilities - freq.probabilities).max() < 5 * stderr.max() + 1e-3
        n_time = ledger.joint_counts_time.sum()
        assert n_freq > 2.0 * n_time  # basis probability 0.7 favors frequency
        t_dist = ck.empirical_distribution(ledger, "time")
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
        ck.empirical_distribution(ledger, "frequency")

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


class TestEventDrivenSampler:
    @pytest.mark.parametrize("m,d", [(4, 0.3), (16, 1e-6), (1024, 1e-2), (2**16, 1e-9)])
    def test_zero_truncated_dark_counts_follow_the_conditioned_binomial(self, m, d):
        draws = 200_000
        counts = _zero_truncated_dark_counts(_shard_rng(53, 0), m, d, draws)
        assert counts.min() >= 1 and counts.max() <= m
        observed = np.bincount(counts)
        at_least_one = 1.0 - (1.0 - d) ** m
        for k in range(1, observed.size):
            log_pmf = (
                math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
                + k * math.log(d) + (m - k) * math.log1p(-d)
            )
            p = math.exp(log_pmf) / at_least_one
            sigma = math.sqrt(draws * p * (1.0 - p))
            assert abs(observed[k] - draws * p) <= 5.0 * sigma, (k, observed[k], draws * p)

    @staticmethod
    def _class_probabilities(m, d, eps, eta, q, policy):
        """No-click, discarded, mismatched and sifted chances, enumerated over
        the photon pattern, both sides' dark counts and the collision."""

        def clicks(photon):
            # Distribution of one side's click count over 0..m+1.
            out = np.zeros(m + 2)
            for k in range(m + 1):
                pk = math.comb(m, k) * d**k * (1.0 - d) ** (m - k)
                if photon:
                    out[k] += pk * k / m  # a dark count lands on the photon's detector
                    out[k + 1] += pk * (1.0 - k / m)
                else:
                    out[k] += pk
            return out

        patterns = {
            (True, True): eps * eta * eta,
            (True, False): eps * eta * (1.0 - eta),
            (False, True): eps * (1.0 - eta) * eta,
            (False, False): 1.0 - eps + eps * (1.0 - eta) ** 2,
        }
        no_click = discarded = coincident = 0.0
        for (photon_a, photon_b), weight in patterns.items():
            a, b = clicks(photon_a), clicks(photon_b)
            both_click = (1.0 - a[0]) * (1.0 - b[0])
            no_click += weight * (1.0 - both_click)
            if policy == "discard":
                coincident += weight * a[1] * b[1]
                discarded += weight * (both_click - a[1] * b[1])
            else:
                coincident += weight * both_click
        matched = q * q + (1.0 - q) ** 2
        return {
            "no_click": no_click,
            "multi_click_discarded": discarded,
            "basis_mismatch": coincident * (1.0 - matched),
            "sifted": coincident * matched,
        }

    @pytest.mark.parametrize("policy", ["discard", "random-assign"])
    def test_round_classes_match_an_enumeration(self, policy):
        model = ck.ChannelModel(
            m=4, pair_probability=0.5, detector_efficiency=0.6, dark_probability=0.2
        )
        config = ck.SimulationConfig(
            rounds=200_000, seed=59, shard_size=50_000, multi_click_policy=policy
        )
        ledger = ck.simulate_rounds(config, model)
        expected = self._class_probabilities(4, 0.2, 0.5, 0.6, 0.5, policy)
        assert sum(expected.values()) == pytest.approx(1.0, abs=1e-12)
        n = config.rounds
        for name, p in expected.items():
            observed = getattr(ledger, name)
            assert abs(observed - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p)), name

    @pytest.mark.parametrize(
        "m,size", [(8193, "1,074,004,000"), (2**16, "68,719,476,752")]
    )
    def test_large_alphabet_is_refused_before_allocating(self, m, size):
        model = _channel(m)
        start = time.perf_counter()
        message = rf"exceeds 8192: .* take {size} bytes, above the 1,073,741,840 it takes at 8192"
        with pytest.raises(ck.ParameterError, match=message):
            ck.simulate_rounds(ck.SimulationConfig(rounds=10, seed=1), model)
        assert time.perf_counter() - start < 1.0


def _primed_philox(prefix_words, spare_half):
    """A shard generator after ``prefix_words`` doubles, preceded by one
    power-of-two integer when ``spare_half`` (which leaves a 32-bit half
    buffered): every buffer position, with and without a spare half."""
    rng = _shard_rng(59, 7)
    if spare_half:
        rng.integers(0, 2, 1, dtype=np.int32)
    rng.random(prefix_words)
    return rng


def _state_key(state):
    return {
        key: _state_key(value) if isinstance(value, dict)
        else value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in state.items()
    }


class TestDrawSkip:
    """``_skip_doubles`` must leave the generator exactly where
    ``rng.random(count)`` would, whatever numpy had buffered: this fails if
    numpy changes how Philox buffers words or doubles consume them."""

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 5, 2_000_001])
    def test_skip_leaves_the_state_of_the_real_draws(self, count):
        for prefix_words in range(5):
            for spare_half in (False, True):
                skipped = _primed_philox(prefix_words, spare_half)
                drawn = _primed_philox(prefix_words, spare_half)
                _skip_doubles(skipped, count)
                drawn.random(count)
                state = _state_key(skipped.bit_generator.state)
                assert state == _state_key(drawn.bit_generator.state)
                # The next 16 draws, halves then whole words, agree too.
                later = [
                    np.concatenate([rng.integers(0, 2**31, 8, dtype=np.int32), rng.random(8)])
                    for rng in (skipped, drawn)
                ]
                assert np.array_equal(*later)


class TestProperties:
    @settings(max_examples=10, deadline=None)
    @given(window=st.integers(1, 4), items=st.integers(0, 40))
    def test_in_order_yields_in_order_with_few_results_pending(self, window, items):
        lock = threading.Lock()
        started = []

        def work(item):
            with lock:
                started.append(item)
            return item

        results = []
        with ThreadPoolExecutor(max_workers=window) as pool:
            for result in _in_order(pool, work, range(items), window):
                time.sleep(0.002)  # a consumer slower than the workers
                with lock:
                    assert len(started) - len(results) <= window + 1
                results.append(result)
        assert results == list(range(items))

    @settings(max_examples=25, deadline=None)
    @given(
        rounds=st.integers(1, 60_000),
        shard_size=st.integers(500, 20_000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_thread_count_never_changes_the_ledger(self, rounds, shard_size, seed):
        config = ck.SimulationConfig(rounds=rounds, seed=seed, shard_size=shard_size)
        model = _channel(8, dark_probability=5e-3)
        serial = ck.simulate_rounds(config, model, threads=1)
        for threads in (2, 3):
            assert _ledgers_equal(serial, ck.simulate_rounds(config, model, threads=threads))


def _banded(basis, m, weights):
    """Hand-built joint distribution: integer weight ``weights[k]`` on the
    cells ``k`` bins off the diagonal, zero beyond, normalized exactly."""
    counts = np.zeros((m, m))
    for k, weight in enumerate(weights):
        counts += weight * np.eye(m, k=k)
        if k:
            counts += weight * np.eye(m, k=-k)
    return ck.OutcomeDistribution(basis=basis, probabilities=counts / counts.sum())


def _banded_pair(m):
    return dict(
        frequency_distribution=_banded("frequency", m, (20.0, 3.0)),
        time_distribution=_banded("time", m, (12.0, 4.0, 1.0)),
    )


def _digest(counts):
    return hashlib.sha256(np.ascontiguousarray(counts, dtype="<i8").tobytes()).hexdigest()[:16]


# frozen: ledgers of the current draw order, first produced by the
# mask-and-two-bincount bookkeeping; fields are rounds, no_click,
# multi_click_discarded, basis_mismatch, sifted, correct, incorrect, then
# SHA-256 prefixes of the little-endian int64 frequency and time joint
# count matrices.
FINGERPRINTS = {
    "default-m16": (
        3_000_000, 2_997_471, 1, 1_292, 1_236, 1_236, 0,
        "7b8e9e8245c40a80", "ada31eb18254c524",
    ),
    "m4-dark-random-assign": (
        200_000, 83_755, 0, 58_297, 57_948, 14_505, 43_443,
        "37d6ce80dce83054", "1008f85362a7a8d6",
    ),
    "m8-sampled-noisy-random-assign": (
        230_000, 151_476, 0, 37_731, 40_793, 23_293, 17_500,
        "f49ec1aa178cdf8c", "7c9b1bf1988ab4f8",
    ),
    "m256-noiseless-ideal": (
        400_000, 0, 0, 199_846, 200_154, 200_154, 0,
        "15952707f8e9f107", "494afce0f7ab8921",
    ),
    "m8-noiseless-sampled": (
        400_000, 0, 0, 199_782, 200_218, 137_835, 62_383,
        "f6d2689183fbc0a1", "72182acf971aba6f",
    ),
    "m7-dark-discard": (
        200_000, 31_345, 156_474, 6_064, 6_117, 854, 5_263,
        "b664bd386225eab6", "f507c279707b1800",
    ),
    "m8-sampled-lossy-discard": (
        250_000, 180_485, 30_190, 19_696, 19_629, 6_641, 12_988,
        "092aa95be3a7756a", "404198dbf359efcb",
    ),
    "m5-noiseless-sampled-random-assign": (
        200_000, 0, 0, 83_656, 116_344, 75_081, 41_263,
        "a5470ba4106ed73a", "be580be9cde786f9",
    ),
    "m6-frequency-only": (
        200_000, 182_045, 4_737, 0, 13_218, 2_615, 10_603,
        "539b7595262ebc22", "2d5565fb483d8ea4",
    ),
    "m7-noiseless-random-assign": (
        300_000, 0, 0, 144_153, 155_847, 155_847, 0,
        "60a0ca1d39ac33ed", "169fda65223655d5",
    ),
}


def _fingerprint_case(name):
    if name == "default-m16":
        return ck.SimulationConfig(rounds=3_000_000, seed=101), _channel(16), {}
    if name == "m4-dark-random-assign":
        config = ck.SimulationConfig(
            rounds=200_000, seed=102, shard_size=50_000, multi_click_policy="random-assign"
        )
        return config, _channel(4, dark_probability=0.3), {}
    if name == "m8-sampled-noisy-random-assign":
        config = ck.SimulationConfig(
            rounds=230_000, seed=103, shard_size=70_000, basis_probability=0.6,
            multi_click_policy="random-assign", correlation_model="sampled-jsa",
        )
        model = _channel(
            8, pair_probability=0.6, detector_efficiency=0.7, dark_probability=0.02, length=0.0
        )
        return config, model, _banded_pair(8)
    if name == "m256-noiseless-ideal":
        return ck.SimulationConfig(rounds=400_000, seed=104, shard_size=150_000), _noiseless(256), {}
    if name == "m7-dark-discard":
        config = ck.SimulationConfig(rounds=200_000, seed=106, shard_size=60_000)
        return config, _channel(7, dark_probability=0.3), {}
    if name == "m8-sampled-lossy-discard":
        config = ck.SimulationConfig(
            rounds=250_000, seed=107, shard_size=80_000, correlation_model="sampled-jsa"
        )
        model = _channel(
            8, pair_probability=0.5, detector_efficiency=0.5, dark_probability=0.05, length=0.0
        )
        return config, model, _banded_pair(8)
    if name == "m5-noiseless-sampled-random-assign":
        config = ck.SimulationConfig(
            rounds=200_000, seed=108, shard_size=90_000, basis_probability=0.3,
            multi_click_policy="random-assign", correlation_model="sampled-jsa",
        )
        return config, _noiseless(5), _banded_pair(5)
    if name == "m6-frequency-only":
        config = ck.SimulationConfig(
            rounds=200_000, seed=109, shard_size=70_000, basis_probability=1.0
        )
        return config, _channel(6, pair_probability=0.5, dark_probability=0.05), {}
    if name == "m7-noiseless-random-assign":
        # Bounds 7 and 6 are not powers of two, so a click or alternative
        # position may take several 32-bit halves; a noiseless shard draws
        # neither.
        config = ck.SimulationConfig(
            rounds=300_000, seed=110, shard_size=110_000, basis_probability=0.4,
            multi_click_policy="random-assign",
        )
        return config, _noiseless(7), {}
    config = ck.SimulationConfig(
        rounds=400_000, seed=105, shard_size=200_000, correlation_model="sampled-jsa"
    )
    return config, _noiseless(8), _banded_pair(8)


class TestLedgerFingerprints:
    """Every ledger field and joint count, pinned: a change to the draws or
    their order moves these, a change to the bookkeeping after them must
    not.  The pins hold for numpy's Philox stream and its binomial,
    multinomial and bounded-integer samplers as of numpy 2."""

    @pytest.mark.parametrize("name", sorted(FINGERPRINTS))
    def test_ledger_matches_the_pinned_fingerprint(self, name):
        config, model, distributions = _fingerprint_case(name)
        ledger = ck.simulate_rounds(config, model, threads=2, **distributions)
        observed = (
            ledger.rounds, ledger.no_click, ledger.multi_click_discarded,
            ledger.basis_mismatch, ledger.sifted, ledger.correct, ledger.incorrect,
            _digest(ledger.joint_counts_frequency), _digest(ledger.joint_counts_time),
        )
        assert observed == FINGERPRINTS[name]


def _dense_shard_oracle(shard_index, n, config, channel, guides, cdfs):
    """Reference shard: the same draws in the same order, with every live
    round resolved and coded densely, in place, and the dark counts drawn
    even at ``d == 0``.  ``_simulate_shard`` must reproduce its tally."""
    rng = _shard_rng(config.seed, shard_index)
    m = channel.m
    d = channel.dark_probability
    random_assign = config.multi_click_policy == "random-assign"
    pattern = rng.multinomial(n, _pattern_probabilities(channel))[:4]
    both, a_only, b_only, neither = (int(count) for count in pattern)
    live = both + a_only + b_only + neither

    def dark_counts(blocks):
        w = rng.binomial(m, d, blocks[0] + blocks[2])
        z = _zero_truncated_dark_counts(rng, m, d, blocks[1] + blocks[3])
        return np.concatenate([w[: blocks[0]], z[: blocks[1]], w[blocks[0] :], z[blocks[1] :]])

    basis_a = rng.random(live) < config.basis_probability
    basis_b = rng.random(live) < config.basis_probability
    clicks_a = dark_counts((both + a_only, b_only + neither, 0, 0))
    clicks_b = dark_counts((both, a_only, b_only, neither))
    collide_a = rng.random(live)
    collide_b = rng.random(live)
    pair_u = rng.random(live)
    registered_a = rng.integers(0, m, live).astype(np.int32)
    registered_b = rng.integers(0, m, live).astype(np.int32)
    assign_a = assign_b = alt_a = alt_b = None
    if random_assign:
        assign_a = rng.random(live)
        assign_b = rng.random(live)
        alt_a = rng.integers(0, m - 1, live).astype(np.int32)
        alt_b = rng.integers(0, m - 1, live).astype(np.int32)

    both_time = ~(basis_a | basis_b)
    if guides is None:
        symbol_a = symbol_b = np.minimum((pair_u * m).astype(np.int32), m - 1)
    else:
        symbol_b, symbol_a = np.divmod(_sample_cells(guides, cdfs, pair_u, both_time), m)

    def resolve(photon, symbol, dark_count, collide_u, dark_index, assign_u, alt_index):
        for s in photon:
            dark_count[s] += collide_u[s] * m >= dark_count[s]
            if assign_u is None:
                dark_index[s] = symbol[s]
            else:
                alt = alt_index[s] + (alt_index[s] >= symbol[s])
                dark_index[s] = np.where(assign_u[s] * dark_count[s] < 1.0, symbol[s], alt)

    photon_a = [slice(0, both + a_only)]
    photon_b = [slice(0, both), slice(both + a_only, live - neither)]
    resolve(photon_a, symbol_a, clicks_a, collide_a, registered_a, assign_a, alt_a)
    resolve(photon_b, symbol_b, clicks_b, collide_b, registered_b, assign_b, alt_b)

    cells = m * m
    code = registered_b * m + registered_a
    code += both_time * np.int32(cells)
    np.putmask(code, basis_a != basis_b, 2 * cells)
    if not random_assign:
        np.putmask(code, (clicks_a > 1) | (clicks_b > 1), 2 * cells + 1)
    return ck.RoundLedger(m, n, np.bincount(code, minlength=2 * cells + 2))


class TestSparseBookkeeping:
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.sampled_from([2, 3, 7, 8, 33, 256]),
        d=st.sampled_from([0.0, 1e-6, 1e-3, 0.05, 0.3, 0.7]),
        policy=st.sampled_from(["discard", "random-assign"]),
        model=st.sampled_from(["ideal-delta", "sampled-jsa"]),
        basis_probability=st.floats(0.0, 1.0),
        pair_probability=st.sampled_from([0.3, 1.0]),
        detector_efficiency=st.sampled_from([0.4, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shard_tally_equals_the_dense_oracle(
        self, m, d, policy, model, basis_probability, pair_probability,
        detector_efficiency, seed,
    ):
        channel = ck.ChannelModel(
            m=m, pair_probability=pair_probability,
            detector_efficiency=detector_efficiency, dark_probability=d,
        )
        config = ck.SimulationConfig(
            rounds=20_000, seed=seed, basis_probability=basis_probability,
            multi_click_policy=policy, correlation_model=model,
        )
        guides = cdfs = None
        if model == "sampled-jsa":
            pair = _banded_pair(m)
            cdfs = (
                _joint_cdf(pair["frequency_distribution"]),
                _joint_cdf(pair["time_distribution"]),
            )
            guides = np.stack([_guide_table(cdf) for cdf in cdfs])
        shard = (3, config.rounds, config, channel, guides, cdfs)
        assert np.array_equal(_simulate_shard(*shard), _dense_shard_oracle(*shard).tally)

    @pytest.mark.parametrize("model", ["ideal-delta", "sampled-jsa"])
    @pytest.mark.parametrize("policy", ["discard", "random-assign"])
    @pytest.mark.parametrize("m", [2, 3, 4, 7, 8, 9, 256, 257])
    def test_noiseless_shard_needs_none_of_the_trailing_draws(self, m, policy, model):
        # The oracle still draws the click positions (bound m) and, under
        # random-assign, the alternative positions (bound m - 1) after the
        # pair cells; the shard stops at the pair cells.  Powers of two and
        # their neighbours take different numbers of 32-bit halves per draw.
        channel = ck.ChannelModel(
            m=m, pair_probability=0.3, detector_efficiency=0.4, dark_probability=0.0
        )
        config = ck.SimulationConfig(
            rounds=20_000, seed=m, multi_click_policy=policy, correlation_model=model
        )
        guides = cdfs = None
        if model == "sampled-jsa":
            pair = _banded_pair(m)
            cdfs = tuple(
                _joint_cdf(pair[key]) for key in ("frequency_distribution", "time_distribution")
            )
            guides = np.stack([_guide_table(cdf) for cdf in cdfs])
        shard = (5, config.rounds, config, channel, guides, cdfs)
        ledger = ck.RoundLedger(m, config.rounds, _simulate_shard(*shard))
        assert ledger.sifted > 0 and ledger.no_click > 0
        assert _ledgers_equal(ledger, _dense_shard_oracle(*shard))


def _adversarial_cdfs():
    """CDFs as the sampler builds them (non-decreasing, last value exactly 1)
    with zero-mass cells, values on and next to bucket edges, tiny cells,
    and enough cells to reach the largest table."""
    rng = np.random.default_rng(61)
    edges = np.sort(rng.choice(np.arange(1, 4096), 40, replace=False)) / 4096
    near = np.sort(np.concatenate([np.nextafter(edges[::2], 0.0), np.nextafter(edges[1::2], 1.0)]))
    many = rng.random(2**13) * (rng.random(2**13) < 0.3)
    return {
        "zero-mass": np.cumsum([0.0, 0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0, 0.0]),
        "on-edges": np.append(np.repeat(edges, 2), 1.0),
        "next-to-edges": np.append(near, 1.0),
        "tiny-cells": np.array([1e-300, 2e-300, 1e-17, 0.5, 0.5 + 1e-16, 1.0 - 1e-16, 1.0]),
        "many-cells": np.cumsum(many) / many.sum(),
    }


class TestGuideTable:
    @staticmethod
    def _probes(cdf, buckets):
        edges = np.arange(buckets) / buckets
        values = np.concatenate([cdf, [0.0, 1.0]])
        u = np.concatenate([
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
            values, np.nextafter(values, 0.0), np.nextafter(values, 1.0),
            np.random.default_rng(67).random(20_000),
        ])
        return u[(u >= 0.0) & (u < 1.0)]

    @pytest.mark.parametrize("name", sorted(_adversarial_cdfs()))
    def test_lookup_equals_binary_search(self, name):
        cdf = _adversarial_cdfs()[name]
        guide = _guide_table(cdf)
        assert guide.size & (guide.size - 1) == 0
        u = self._probes(cdf, guide.size)
        basis = np.zeros(u.size, dtype=bool)
        cells = _sample_cells(np.stack([guide, guide]), (cdf, cdf), u, basis)
        assert np.array_equal(cells, np.searchsorted(cdf, u, side="right"))

    def test_each_round_reads_the_table_of_its_basis(self):
        skewed = np.random.default_rng(73).random(2**13) ** 8
        pair = (_adversarial_cdfs()["many-cells"], np.cumsum(skewed) / skewed.sum())
        guides = np.stack([_guide_table(cdf) for cdf in pair])
        u = np.concatenate([self._probes(cdf, guides.shape[1]) for cdf in pair])
        basis = np.random.default_rng(71).random(u.size) < 0.5
        cells = _sample_cells(guides, pair, u, basis)
        expected = np.where(
            basis,
            np.searchsorted(pair[1], u, side="right"),
            np.searchsorted(pair[0], u, side="right"),
        )
        assert np.array_equal(cells, expected)
