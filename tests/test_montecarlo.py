"""Round-by-round channel simulation against the closed-form expectations."""

import dataclasses
import functools
import hashlib
import math
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import Future
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chronokey as ck
from chronokey import montecarlo
from chronokey.montecarlo import (
    _add_codes,
    _CodeTable,
    _integer_cdfs,
    _jsa_code_table,
    _pattern_probabilities,
    _positioned_copy,
    _shard_rng,
    _simulate_shard,
    _skip_words,
    _uniforms,
    _word_limit,
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


def _cpus(count):
    """Patch the worker cap's count of usable CPUs."""
    return mock.patch.object(montecarlo, "_usable_cpus", return_value=count)


def _ledgers_equal(a, b):
    return (
        a.m == b.m and a.rounds == b.rounds
        and np.array_equal(a.cells, b.cells) and np.array_equal(a.counts, b.counts)
    )


def _int64(*values):
    return np.array(values, dtype=np.int64)


def _ledger_of_tally(m, rounds, tally):
    """The ledger whose dense tally (laid out as in the module docstring of
    ``montecarlo``) is ``tally``."""
    cells = np.flatnonzero(tally)
    return ck.RoundLedger(m, rounds, cells, tally[cells])


def _shard_tally(shard_index, n, config, channel, codes):
    """One shard's dense tally, its codes counted as dense runs count them."""
    m = channel.m
    tally = np.zeros(2 * m * m + 2, np.int64)
    _simulate_shard(shard_index, n, config, channel, codes, functools.partial(_add_codes, tally))
    return tally


def _counting(dense):
    """Force the dense (``True``) or the sparse counting mode."""
    return mock.patch.object(montecarlo, "_TALLY_PER_LIVE_ROUND", math.inf if dense else 0.0)


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

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("case", ["ideal-delta", "sampled-jsa", "random-assign"])
    def test_thread_count_does_not_change_dense_results(self, case, threads):
        # Noiseless shards of 40k-60k live rounds each exceed one block, so
        # these runs go to the pool, whatever the host's core count.
        config, model, distributions = _dense_case(case)
        serial = ck.simulate_rounds(config, model, threads=1, **distributions)
        with _cpus(threads):
            parallel = ck.simulate_rounds(config, model, threads=threads, **distributions)
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


def _dense_case(name):
    """A noiseless multi-shard run whose every round is live."""
    if name == "ideal-delta":
        return ck.SimulationConfig(rounds=200_000, seed=8, shard_size=50_000), _noiseless(16), {}
    if name == "sampled-jsa":
        config = ck.SimulationConfig(
            rounds=170_000, seed=9, shard_size=60_000, correlation_model="sampled-jsa"
        )
        return config, _noiseless(8), _banded_pair(8)
    config = ck.SimulationConfig(
        rounds=130_000, seed=10, shard_size=40_000, multi_click_policy="random-assign"
    )
    return config, _noiseless(7), {}


class _InlinePool:
    """Stands in for ``ThreadPoolExecutor``: runs each task as it is
    submitted, on the calling thread, and records the ``max_workers`` it
    was asked for in ``made``."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def _inline_pools(made):
    return mock.patch.object(montecarlo, "ThreadPoolExecutor", functools.partial(_InlinePool, made))


class TestWhereShardsRun:
    """Shards whose expected live rounds fit in one block run on the calling
    thread; larger ones go to a pool of at most one worker per usable CPU
    and per shard."""

    def test_sub_block_shards_never_start_a_pool(self):
        # About 830 live rounds in each 1e6-round shard of the default channel.
        config = ck.SimulationConfig(rounds=3_000_000, seed=4)
        serial = ck.simulate_rounds(config, _channel(16), threads=1)
        refuse = mock.patch.object(montecarlo, "ThreadPoolExecutor", side_effect=AssertionError)
        with refuse, _cpus(2):
            threaded = ck.simulate_rounds(config, _channel(16), threads=2)
        assert _ledgers_equal(serial, threaded)

    def test_usable_cpus_are_the_affinity_set(self):
        with mock.patch.object(montecarlo.os, "sched_getaffinity", return_value={3}, create=True):
            assert montecarlo._usable_cpus() == 1
        missing = mock.patch.object(
            montecarlo.os, "sched_getaffinity", side_effect=AttributeError, create=True
        )
        with missing, mock.patch.object(montecarlo.os, "cpu_count", return_value=None):
            assert montecarlo._usable_cpus() == 1

    def test_dense_shards_go_to_the_pool(self):
        config, model, distributions = _dense_case("ideal-delta")
        made = []
        with _inline_pools(made), _cpus(2):
            ck.simulate_rounds(config, model, threads=2, **distributions)
        assert made == [2]

    def test_pool_never_asks_for_more_workers_than_cores(self):
        # Never starts a thread: the pool runs each shard inline.  This
        # process's usable CPUs first, then counts patched in; the run has
        # three shards, so eight cores still ask for three workers.
        config, model, distributions = _dense_case("sampled-jsa")
        shards = -(-config.rounds // config.shard_size)
        assert shards == 3
        serial = ck.simulate_rounds(config, model, threads=1, **distributions)
        for cpus in (montecarlo._usable_cpus(), 1, 2, 3, 8):
            made = []
            with _inline_pools(made), _cpus(cpus):
                ledger = ck.simulate_rounds(config, model, threads=10**6, **distributions)
            workers = min(cpus, shards)
            assert made == ([] if workers == 1 else [workers])
            assert _ledgers_equal(serial, ledger)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_dense_and_sparse_counting_give_one_ledger(self, threads):
        # Three shards of about 44,000 live rounds each, two blocks apiece,
        # with dark counts, so every kind of code is counted; a pool counts
        # them at two threads.
        config = ck.SimulationConfig(rounds=300_000, seed=43, shard_size=100_000)
        model = _channel(
            16, pair_probability=1.0, detector_efficiency=0.6, length=0.0, dark_probability=1e-2
        )
        ledgers = []
        for dense in (True, False):
            with _counting(dense), _cpus(threads):
                ledgers.append(ck.simulate_rounds(config, model, threads=threads))
        assert ledgers[0].multi_click_discarded > 0 and ledgers[0].incorrect > 0
        assert ledgers[0].basis_mismatch > 0
        assert _ledgers_equal(*ledgers)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sub_block_run_counts_into_one_tally(self, threads):
        # Four 1e6-round shards at m = 512 (a 4,194,320-byte dense tally),
        # about 3,300 live rounds: their distinct codes and counts, and the
        # code table if this test builds it, not a tally.
        config = ck.SimulationConfig(rounds=4_000_000, seed=31)
        ck.simulate_rounds(ck.SimulationConfig(rounds=1, seed=0), _channel(2))  # imports np.random
        run = functools.partial(ck.simulate_rounds, config, _channel(512), threads=threads)
        ledger, peak = _traced_peak(run)
        assert ledger.sifted > 0
        assert peak <= 2**20

    @pytest.mark.parametrize("dense,bound", [(True, 3 * 4_194_320), (False, 4 * 2**20)])
    def test_pooled_run_keeps_one_tally_per_worker(self, dense, bound):
        # Four noiseless 60,000-round shards at m = 512 on two workers.
        # Dense: the two workers' 4,194,320-byte tallies, no third total and
        # no tally per shard.  Sparse (this run's own mode): each block's
        # distinct codes, and the blocks' words and codes.
        config = ck.SimulationConfig(rounds=240_000, seed=37, shard_size=60_000)
        ck.simulate_rounds(ck.SimulationConfig(rounds=1, seed=0), _channel(2))  # imports np.random
        run = functools.partial(ck.simulate_rounds, config, _noiseless(512), threads=2)
        with _cpus(2), _counting(dense):
            ledger, peak = _traced_peak(run)
        assert ledger.sifted > 0
        assert peak <= bound

    def test_default_channel_run_at_m1024_holds_its_cells_only(self):
        # Ten shards of about 830 live rounds each: a dense tally would take
        # 16 MB.  The code table (393 kB, built once per m) is built first.
        channel = ck.RunConfig.from_dict({"protocol": {"m": 1024}}).channel_model()
        ck.simulate_rounds(ck.SimulationConfig(rounds=1, seed=0), channel)
        config = ck.SimulationConfig(rounds=10_000_000, seed=7)
        ledger, peak = _traced_peak(functools.partial(ck.simulate_rounds, config, channel))
        assert ledger.sifted > 0
        assert peak < 10**6

    def test_workers_take_every_shard_once(self):
        # 400 shards, more workers than cores, threads switched every
        # microsecond: a shard lost or taken twice changes the ledger.
        config = ck.SimulationConfig(rounds=40_000, seed=41, shard_size=100)
        serial = ck.simulate_rounds(config, _noiseless(4), threads=1)
        ledgers = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = mock.patch.object(montecarlo, "_BLOCK_ROUNDS", 64)
            with pooled, _cpus(8):
                threaded = functools.partial(ck.simulate_rounds, config, _noiseless(4), threads=8)
                run = threading.Thread(target=lambda: ledgers.append(threaded()), daemon=True)
                run.start()
                run.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not run.is_alive()
        assert _ledgers_equal(serial, ledgers[0])

    def test_a_failing_shard_stops_every_worker(self):
        # Shard 0 fails at once; the other worker must stop after the shard
        # it holds, not count the 1,999 others (2 s of sleeps).
        counted = []

        def stub(shard_index, n, config, channel, codes, count):
            if shard_index == 0:
                raise MemoryError("shard 0")
            time.sleep(1e-3)
            counted.append(shard_index)

        config = ck.SimulationConfig(rounds=2_000, seed=1, shard_size=1)
        pooled = mock.patch.object(montecarlo, "_BLOCK_ROUNDS", 0)
        with mock.patch.object(montecarlo, "_simulate_shard", stub), pooled:
            with _cpus(2):
                with pytest.raises(MemoryError, match="shard 0"):
                    ck.simulate_rounds(config, _noiseless(2), threads=2)
        assert len(counted) < 1_000


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
        channel = _channel(8, dark_probability=5e-3)
        tally = _shard_tally(0, 100_000, config, channel, _CodeTable(8))
        ledger = _ledger_of_tally(8, 100_000, tally)
        assert ledger.multi_click_discarded > 0 and ledger.incorrect > 0
        assert ledger.no_click + ledger.multi_click_discarded + ledger.coincidences == ledger.rounds
        assert ledger.correct == (
            np.trace(ledger.joint_counts_frequency) + np.trace(ledger.joint_counts_time)
        )
        assert ledger.joint_counts_frequency.nbytes == ledger.joint_counts_time.nbytes == 8 * 64
        assert not ledger.cells.flags.writeable and not ledger.counts.flags.writeable
        joint = (ledger.joint_counts_frequency, ledger.joint_counts_time)
        assert np.array_equal(np.concatenate([counts.ravel() for counts in joint]), tally[:-2])

    def test_shard_tallies_add_into_one_total(self):
        # Eight 50,000-round shards at m = 512 (a 4,194,320-byte dense
        # tally) hold about 340 live rounds in all: their codes, not a tally.
        config = ck.SimulationConfig(rounds=400_000, seed=29, shard_size=50_000)
        tracemalloc.start()
        try:
            ledger = ck.simulate_rounds(config, _channel(512), threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ledger.rounds == config.rounds
        assert peak <= 2**20

    @pytest.mark.parametrize(
        "m,rounds,cells,counts",
        [
            (3, 100, _int64(0, 1), _int64(1, -1)),
            (3, 100, _int64(0, 1), _int64(1, 0)),
            (3, 100, _int64(0, 1), _int64(1)),
            (3, 100, np.array([0], np.int32), _int64(1)),
            (3, 100, _int64(0), np.array([1], np.int32)),
            (3, 100, np.zeros(1), _int64(1)),
            (3, 100, [0], [1]),
            (3, 100, np.array([True]), _int64(1)),
            (3, 100, _int64(0), np.array([True])),
            (3, 100, _int64(0, 1).reshape(1, 2), _int64(1, 1).reshape(1, 2)),
            (3, 100, _int64(1, 0), _int64(1, 1)),
            (3, 100, _int64(1, 1), _int64(1, 1)),
            (3, 100, _int64(-1), _int64(1)),
            (3, 100, _int64(20), _int64(1)),
            (3, 5, _int64(0, 1), _int64(3, 3)),
            (2, 5, _int64(0, 1, 2, 3), np.full(4, 2**62, np.int64)),
            (2, 2**64, _int64(0, 1, 2, 3), np.full(4, 2**62, np.int64)),
            (-3, 0, _int64(), _int64()),
            (True, 0, _int64(), _int64()),
            (2, 2.5, _int64(), _int64()),
            (1, 0, _int64(), _int64()),
            (3.0, 0, _int64(), _int64()),
            ("3", 0, _int64(), _int64()),
            (3, -1, _int64(), _int64()),
            (3, True, _int64(), _int64()),
            (3, None, _int64(), _int64()),
        ],
        ids=[
            "negative", "zero", "short", "int32", "int32-counts", "float", "list",
            "boolean-cells", "boolean-counts", "matrix", "unsorted", "repeated",
            "below-range", "past-range", "past-rounds", "wrapping-sum", "past-int64-rounds",
            "negative-m", "boolean-m", "fractional-rounds", "one-symbol-m",
            "float-m", "string-m", "negative-rounds", "boolean-rounds", "no-rounds",
        ],
    )
    def test_ledger_refuses_an_unrepresentable_tally(self, m, rounds, cells, counts):
        with pytest.raises(ck.ParameterError, match="tally"):
            ck.RoundLedger(m=m, rounds=rounds, cells=cells, counts=counts)

    def test_ledger_reads_every_class_off_its_cells(self):
        # m = 3: codes 0-8 frequency, 9-17 time (diagonals 0, 4, 8 and 9,
        # 13, 17), 18 mismatch, 19 discarded.
        ledger = ck.RoundLedger(3, 100, _int64(0, 5, 13, 16, 18, 19), _int64(4, 1, 2, 3, 5, 6))
        classes = (ledger.no_click, ledger.multi_click_discarded, ledger.basis_mismatch,
                   ledger.sifted, ledger.correct, ledger.incorrect, ledger.coincidences)
        assert classes == (79, 6, 5, 10, 6, 4, 15)
        assert ledger.joint_counts_frequency[1, 2] == 1 and ledger.joint_counts_time[2, 1] == 3
        empty = ck.RoundLedger(3, 7, _int64(), _int64())
        assert (empty.no_click, empty.sifted, empty.coincidences) == (7, 0, 0)
        assert not empty.joint_counts_frequency.any()
        with pytest.raises(ck.ParameterError, match="unknown basis"):
            ledger.basis_cells("polarization")


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
        for bases, m, message in [
            (("time", "frequency"), 4, "frequency and time bases"),
            (("frequency", "time"), 8, "alphabet does not match"),
        ]:
            uniform = np.full((m, m), 1.0 / (m * m))
            distributions = [ck.OutcomeDistribution(basis, uniform) for basis in bases]
            with pytest.raises(ck.ParameterError, match=message):
                ck.simulate_rounds(config, _noiseless(4), *distributions)


def _example_ledger(m, frequency_rows, time_rows, seed=0):
    """A ledger whose frequency and time bases have one receiver row per
    entry of ``frequency_rows`` and ``time_rows``, with that many cells
    (at most m) and random counts, plus a few unsifted rounds."""
    rng = np.random.default_rng(seed)
    tally = np.zeros(2 * m * m + 2, np.int64)
    for offset, widths in ((0, frequency_rows), (m * m, time_rows)):
        rows = rng.choice(m, size=min(len(widths), m), replace=False)
        for row, width in zip(rows, widths):
            cols = rng.choice(m, size=min(width, m), replace=False)
            scale = rng.choice([2, 10**3, 2**40])
            tally[offset + row * m + cols] = rng.integers(1, scale, cols.size)
    tally[-2:] = rng.integers(0, 10, 2)
    return _ledger_of_tally(m, int(tally.sum()) + 5, tally)


@st.composite
def _random_ledgers(draw):
    """Ledgers of random cells at m from 2 to 300, whose receiver rows hold
    one, two, three or more cells in both bases."""
    m = draw(st.integers(2, 300))
    widths = st.lists(st.sampled_from([1, 2, 3, 4, 7, m]), min_size=1, max_size=6)
    return _example_ledger(m, draw(widths), draw(widths), draw(st.integers(0, 2**32 - 1)))


def _bits(bound):
    """A key-rate bound's fields, floats by their bits."""
    return [float(x).hex() if isinstance(x, float) else x for x in dataclasses.astuple(bound)]


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

    @settings(max_examples=60, deadline=None)
    @given(ledger=_random_ledgers(), efficiency=st.sampled_from([1.0, 0.87]))
    @example(ledger=_example_ledger(2, [1, 2], [2]), efficiency=1.0)
    @example(ledger=_example_ledger(300, [1, 2, 3, 300], [300, 1]), efficiency=1.0)
    def test_estimated_key_rate_is_the_dense_chains_bit_for_bit(self, ledger, efficiency):
        scheme = ck.BinningScheme(m=ledger.m, delta_omega=1.0)
        lens = ck.design_time_lens(scheme)
        # The reference goes through the public constructor's dense matrices.
        frequency, time = ledger.joint_counts_frequency, ledger.joint_counts_time
        dense = ck.distribution_key_rate(
            ck.OutcomeDistribution("frequency", frequency / frequency.sum()),
            ck.OutcomeDistribution("time", time / time.sum()),
            scheme, lens, reconciliation_efficiency=efficiency,
        )
        estimate = ck.estimate_key_rate(ledger, scheme, lens, efficiency)
        assert _bits(estimate) == _bits(dense)

    def test_estimate_refuses_an_empty_basis(self):
        scheme = ck.BinningScheme(m=4, delta_omega=1.0)
        lens = ck.design_time_lens(scheme)
        frequency_only = _example_ledger(4, [1, 3], [])
        with pytest.raises(ck.ParameterError, match="no sifted rounds in the time basis"):
            ck.estimate_key_rate(frequency_only, scheme, lens)
        with pytest.raises(ck.ParameterError, match="no sifted rounds in the time basis"):
            ck.empirical_distribution(frequency_only, "time")

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
    """``_skip_words`` must leave the generator exactly where
    ``rng.random(count)`` would, whatever numpy had buffered: this fails if
    numpy changes how Philox buffers words or doubles consume them."""

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 5, 2_000_001])
    def test_skip_leaves_the_state_of_the_real_draws(self, count):
        for prefix_words in range(5):
            for spare_half in (False, True):
                skipped = _primed_philox(prefix_words, spare_half)
                drawn = _primed_philox(prefix_words, spare_half)
                _skip_words(skipped.bit_generator, count)
                drawn.random(count)
                state = _state_key(skipped.bit_generator.state)
                assert state == _state_key(drawn.bit_generator.state)
                # The next 16 draws, halves then whole words, agree too.
                later = [
                    np.concatenate([rng.integers(0, 2**31, 8, dtype=np.int32), rng.random(8)])
                    for rng in (skipped, drawn)
                ]
                assert np.array_equal(*later)


class TestWords:
    """The shard reads 64-bit Philox words where the model draws uniforms:
    what it makes of them must be what ``Generator.random`` gives."""

    def test_words_give_the_generator_doubles_bit_for_bit(self):
        for prefix_words in range(5):
            for spare_half in (False, True):
                words_rng = _primed_philox(prefix_words, spare_half)
                doubles_rng = _primed_philox(prefix_words, spare_half)
                words = words_rng.bit_generator.random_raw(1001)
                doubles = doubles_rng.random(1001)
                assert np.array_equal(_uniforms(words).view(np.uint64), doubles.view(np.uint64))
                state = _state_key(words_rng.bit_generator.state)
                assert state == _state_key(doubles_rng.bit_generator.state)

    @pytest.mark.parametrize(
        "p",
        [
            0.0, 2.0**-53, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0),
            np.nextafter(1.0, 0.0), 1.0, float(np.random.default_rng(83).random()),
        ],
        ids=["zero", "2**-53", "below-half", "half", "above-half", "below-one", "one", "random"],
    )
    def test_word_limit_equals_the_double_compare(self, p):
        p = float(p)
        limit = _word_limit(p)
        edges = [w for w in (limit - 1, limit, limit + 2047, limit + 2048) if 0 <= w < 2**64]
        words = np.concatenate([
            np.array(edges, dtype=np.uint64), np.random.Philox(89).random_raw(10_000),
        ])
        assert np.array_equal(np.less(words, limit), _uniforms(words) < p)


class TestProperties:
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


def _cdf(distribution):
    cdf = np.cumsum(distribution.probabilities.ravel())
    return cdf / cdf[-1]


def _model_tables(model, m):
    """The shard's code table for ``model`` at alphabet ``m``, built from
    the distributions' cells as ``simulate_rounds`` builds it, and the
    oracle's dense (frequency, time) CDFs over all m*m cells, None for
    ``ideal-delta``."""
    if model == "ideal-delta":
        return _CodeTable(m), None
    pair = _banded_pair(m)
    distributions = (pair["frequency_distribution"], pair["time_distribution"])
    return _jsa_code_table(*distributions), tuple(map(_cdf, distributions))


def _dense_shard_oracle(shard_index, n, config, channel, cdfs):
    """Reference shard: the same draws in the same order, as doubles, with
    every live round resolved and coded densely, in place, and the dark
    counts drawn even at ``d == 0``.  A pair's cell is
    ``searchsorted(cdf, u, "right")`` on its basis's CDF (``cdfs``, or
    ``min(floor(u*m), m-1)`` on the diagonal when None).
    ``_simulate_shard`` must reproduce its tally."""
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
    if cdfs is None:
        symbol_a = symbol_b = np.minimum((pair_u * m).astype(np.int32), m - 1)
    else:
        cells = np.where(
            both_time,
            np.searchsorted(cdfs[1], pair_u, side="right"),
            np.searchsorted(cdfs[0], pair_u, side="right"),
        )
        symbol_b, symbol_a = np.divmod(cells, m)

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
    return _ledger_of_tally(m, n, np.bincount(code, minlength=2 * cells + 2))


# Rare dark counts on a lossless channel, whose 20,000 rounds are all live.
# At m = 3 no dark count touches any round, so the shard passes over the
# collision runs and makes no draw after the pair's.  At m = 256 about 15
# rounds are touched, so in blocks of 64 most blocks hold none and are not
# resolved, while every positioned copy still moves past their words.
_RARE_DARK_COUNTS = dict(
    d=1e-6, basis_probability=0.5, pair_probability=1.0, detector_efficiency=1.0, seed=0
)


def _each_policy_and_model(**case):
    """``@example``s of ``case`` under both policies and both models."""
    def decorate(test):
        for policy in ("discard", "random-assign"):
            for model in ("ideal-delta", "sampled-jsa"):
                test = example(policy=policy, model=model, **case)(test)
        return test
    return decorate


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
    @_each_policy_and_model(m=3, **_RARE_DARK_COUNTS)
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
        codes, cdfs = _model_tables(model, m)
        shard = (3, config.rounds, config, channel)
        ledger = _ledger_of_tally(m, config.rounds, _shard_tally(*shard, codes))
        assert _ledgers_equal(ledger, _dense_shard_oracle(*shard, cdfs))

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
        codes, cdfs = _model_tables(model, m)
        shard = (5, config.rounds, config, channel)
        ledger = _ledger_of_tally(m, config.rounds, _shard_tally(*shard, codes))
        assert ledger.sifted > 0 and ledger.no_click > 0
        assert _ledgers_equal(ledger, _dense_shard_oracle(*shard, cdfs))


def _adversarial_cdfs():
    """CDFs as the sampler builds them (non-decreasing, last value exactly 1)
    with zero-mass cells, values on and next to bucket edges, tiny cells,
    and enough cells to reach the largest table."""
    rng = np.random.default_rng(61)
    edges = np.sort(rng.choice(np.arange(1, 4096), 40, replace=False)) / 4096
    near = np.sort(np.concatenate([np.nextafter(edges[::2], 0.0), np.nextafter(edges[1::2], 1.0)]))
    many = rng.random(2**14) * (rng.random(2**14) < 0.3)
    return {
        "zero-mass": np.cumsum([0.0, 0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0, 0.0]),
        "on-edges": np.append(np.repeat(edges, 2), 1.0),
        "next-to-edges": np.append(near, 1.0),
        "tiny-cells": np.array([1e-300, 2e-300, 1e-17, 0.5, 0.5 + 1e-16, 1.0 - 1e-16, 1.0]),
        "many-cells": np.cumsum(many) / many.sum(),
    }


def _pair_words(n, bits):
    """Pair words whose 53-bit integers are ``n``, with random low bits."""
    return (n.astype(np.uint64) << np.uint64(11)) | (bits.random_raw(n.size) >> np.uint64(53))


def _basis_words(frequency, size, bits):
    """Random words that choose the frequency basis if ``frequency``, else
    the time basis, at probability 1/2 (``_word_limit(0.5)`` is ``2**63``)."""
    words = bits.random_raw(size) >> np.uint64(1)
    return words if frequency else words | np.uint64(2**63)


def _lookup(codes, limit, words_a, words_b, words_pair):
    out, index = np.empty((2, words_pair.size), dtype=np.intp)
    return codes.lookup(limit, words_a, words_b, words_pair, out, index)


class TestGuideTable:
    """The fused table against the plain rule: a round's parties choose the
    frequency basis when their uniform is below the basis probability, and
    a matched round's cell is ``searchsorted(cdf, u, "right")`` on its
    basis's CDF (``min(floor(u*m), m-1)`` on the diagonal for
    ``ideal-delta``)."""

    @staticmethod
    def _probes(values, bits):
        """The 53-bit integers next to every value and every bucket edge."""
        edges = np.arange(2**bits) << (53 - bits)
        near = np.floor(np.concatenate([values, [0.0, 1.0]]) * 2.0**53).astype(np.int64)
        n = np.concatenate([
            edges, edges - 1, (near[:, None] + np.arange(-3, 4)).ravel(),
            np.random.default_rng(67).integers(0, 2**53, 20_000),
        ])
        return n[(n >= 0) & (n < 2**53)]

    @staticmethod
    def _all_pairs(codes, n, expected_frequency, expected_time):
        """Look up every pair word under all four basis pairs."""
        bits = np.random.Philox(71)
        cells = codes.m * codes.m
        for frequency_a in (False, True):
            for frequency_b in (False, True):
                words_a = _basis_words(frequency_a, n.size, bits)
                words_b = _basis_words(frequency_b, n.size, bits)
                got = _lookup(codes, _word_limit(0.5), words_a, words_b, _pair_words(n, bits))
                if frequency_a != frequency_b:
                    assert np.all(got == 2 * cells)
                else:
                    assert np.array_equal(got, expected_frequency if frequency_a else expected_time)

    @pytest.mark.parametrize("name", sorted(_adversarial_cdfs()))
    def test_lookup_equals_binary_search(self, name):
        # The CDF serves as each basis in turn, beside a skewed one of
        # another length; each is normalised as the sampler's are, and its
        # entries are the CDF at sorted random cells of an alphabet whose
        # m*m cells hold the longer one.
        skewed = np.random.default_rng(73).random(2**13) ** 8
        adversarial = [_adversarial_cdfs()[name], np.cumsum(skewed) / skewed.sum()]
        rng = np.random.default_rng(79)
        for pair in (adversarial, adversarial[::-1]):
            pair = [cdf / cdf[-1] for cdf in pair]
            m = math.isqrt(max(cdf.size for cdf in pair) - 1) + 1
            cells = [np.sort(rng.choice(m * m, cdf.size, replace=False)) for cdf in pair]
            codes = _CodeTable(m, _integer_cdfs(*pair), np.concatenate([cells[0], cells[1] + m * m]))
            assert codes.table.size == 3 * 2**codes.bits
            n = self._probes(np.concatenate(pair), codes.bits)
            u = n * 2.0**-53
            expected = [at[np.searchsorted(cdf, u, side="right")] for at, cdf in zip(cells, pair)]
            self._all_pairs(codes, n, expected[0], m * m + expected[1])

    def test_integer_cdfs_are_the_scaled_ceilings(self):
        # Frequency and time CDFs of different lengths, either one longer.
        rng = np.random.default_rng(89)
        cdfs = [np.cumsum(w) / w.sum() for w in (rng.random(2**17 + 5), rng.random(3001))]
        for frequency, time in (cdfs, cdfs[::-1]):
            got = _integer_cdfs(frequency, time)
            cut = frequency.size
            assert got.dtype == np.int64 and got.size == cut + time.size
            assert np.array_equal(got[:cut], np.ceil(frequency * 2.0**53).astype(np.int64))
            assert np.array_equal(got[cut:], np.ceil(time * 2.0**53).astype(np.int64) + 2**53)

    @pytest.mark.parametrize("m", [3, 7, 257])
    def test_ideal_delta_table_equals_the_product_rule(self, m):
        # floor(u*m) steps at j/m, inside buckets for these m.  The table
        # is built once per m and shared, so it is read-only.
        codes = montecarlo._ideal_code_table(m)
        assert montecarlo._ideal_code_table(m) is codes and not codes.table.flags.writeable
        assert np.any(codes.table < 0)
        n = self._probes(np.arange(1, m) / m, codes.bits)
        symbol = np.minimum((n * 2.0**-53 * m).astype(np.intp), m - 1)
        self._all_pairs(codes, n, symbol * (m + 1), m * m + symbol * (m + 1))

    def test_each_round_reads_the_table_of_its_basis(self):
        # Words against the doubles Generator.random makes of the same
        # streams, at a basis probability whose limit is no power of two.
        m, p, size = 8, 0.3, 200_000
        codes, (frequency, time) = _model_tables("sampled-jsa", m)
        words = [np.random.Philox(seed).random_raw(size) for seed in (1, 2, 3)]
        u_a, u_b, u = (np.random.Generator(np.random.Philox(seed)).random(size) for seed in (1, 2, 3))
        expected = np.where(
            (u_a < p) != (u_b < p),
            2 * m * m,
            np.where(
                u_a < p,
                np.searchsorted(frequency, u, side="right"),
                m * m + np.searchsorted(time, u, side="right"),
            ),
        )
        assert np.array_equal(_lookup(codes, _word_limit(p), *words), expected)
        assert np.any(codes.table < 0)


def _traced_peak(run):
    """What ``run()`` returns, and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedShard:
    """A shard walks its live rounds in blocks drawn by positioned copies of
    its generator; the tally must not depend on where the blocks fall."""

    @settings(max_examples=20, deadline=None)
    @given(
        block=st.sampled_from([7, 64, 1000, 4096]),
        m=st.sampled_from([2, 3, 7, 8, 33, 256]),
        d=st.sampled_from([0.0, 1e-6, 1e-3, 0.05, 0.3, 0.7]),
        policy=st.sampled_from(["discard", "random-assign"]),
        model=st.sampled_from(["ideal-delta", "sampled-jsa"]),
        basis_probability=st.floats(0.0, 1.0),
        pair_probability=st.sampled_from([0.3, 1.0]),
        detector_efficiency=st.sampled_from([0.4, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @_each_policy_and_model(block=64, m=256, **_RARE_DARK_COUNTS)
    def test_any_block_size_reproduces_the_dense_oracle(self, block, **case):
        # 20,000-round shards span 5 to about 2,900 blocks, so special
        # rounds fall on block edges and in partial last blocks.
        oracle_test = TestSparseBookkeeping.test_shard_tally_equals_the_dense_oracle
        with mock.patch.object(montecarlo, "_BLOCK_ROUNDS", block):
            oracle_test.hypothesis.inner_test(self, **case)

    @pytest.mark.parametrize("ahead", [*range(10), 2_000_001])
    def test_positioned_copy_draws_the_stream_block_by_block(self, ahead):
        blocks = (1, 7, 4, 1000, 3, 5)
        for prefix_words in range(5):
            for spare_half in (False, True):
                rng = _primed_philox(prefix_words, spare_half)
                before = _state_key(rng.bit_generator.state)
                copy = _positioned_copy(rng.bit_generator)
                assert _state_key(rng.bit_generator.state) == before
                _skip_words(copy, ahead)
                drawn = np.concatenate([copy.random_raw(size) for size in blocks])
                expected = rng.bit_generator.random_raw(ahead + sum(blocks))[ahead:]
                assert np.array_equal(drawn, expected)

    def test_noiseless_dense_shard_holds_blocks_not_rounds(self):
        # Whole-round arrays of a million live rounds take 8 MB each.
        codes, _ = _model_tables("sampled-jsa", 8)
        config = ck.SimulationConfig(rounds=10**6, seed=3, correlation_model="sampled-jsa")
        shard = (0, config.rounds, config, _noiseless(8), codes)
        tally, peak = _traced_peak(lambda: _shard_tally(*shard))
        assert tally.sum() == config.rounds
        assert peak < 4 * 2**20


class TestRoundLimits:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rounds=2**63, seed=1),
            dict(rounds=2**70, seed=1),
            dict(rounds=10, seed=1, shard_size=2**63),
        ],
    )
    def test_refuses_counts_numpy_cannot_draw(self, kwargs):
        with pytest.raises(ck.ParameterError, match=r"up to 2\*\*63 - 1"):
            ck.SimulationConfig(**kwargs)

    def test_largest_counts_are_accepted(self):
        ck.SimulationConfig(rounds=2**63 - 1, seed=1, shard_size=2**63 - 1)

    def test_shards_are_made_as_they_run(self):
        # 5e4 shards listed up front trace about 4.5 MB.
        one_round = np.zeros(1, dtype=np.intp)  # code 0: the frequency basis's cell (0, 0)

        def stub(shard_index, n, config, channel, codes, count):
            count(one_round)

        config = ck.SimulationConfig(rounds=50_000, seed=1, shard_size=1)
        with mock.patch.object(montecarlo, "_simulate_shard", stub):
            ledger, peak = _traced_peak(lambda: ck.simulate_rounds(config, _noiseless(2)))
        assert ledger.joint_counts_frequency[0, 0] == config.rounds
        assert peak < 2**20
