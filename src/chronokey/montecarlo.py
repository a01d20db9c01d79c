"""Round-by-round simulation of the binned coincidence protocol.

Each round: both parties pick a basis, the source emits a pair (or not),
each photon independently survives to fire the detector of its symbol, and
every one of the ``2 m`` detectors may fire darkly.  A side registers a
usable symbol when exactly one of its detectors fired; a dark count on the
detector the photon already fired is absorbed into that click.  Rounds where
both sides register a symbol are coincidences; matching bases make them
sifted, and sifted rounds are scored correct when the symbols agree.

Determinism: rounds are processed in fixed-size shards, each driven by its
own counter-based generator keyed on ``(seed, shard_index)``.  Every shard
draws the same sequence of arrays whatever the outcomes, and shard results
are merged in index order, so the ledger depends only on ``seed``,
``rounds``, and ``shard_size``, never on the thread count.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .detection import FREQUENCY_BASIS, TIME_BASIS, BinningScheme, OutcomeDistribution, TimeLens
from .errors import ParameterError
from .noise import ChannelModel, transmission
from .security import KeyRateBound, distribution_key_rate

_POLICIES = ("discard", "random-assign")
_MODELS = ("ideal-delta", "sampled-jsa")


def _is_int(value) -> bool:
    """True for a Python integer; ``bool`` subclasses ``int`` but is refused."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the round simulation.

    ``basis_probability`` is each party's chance of choosing the frequency
    basis.  ``multi_click_policy`` says what to do when a side sees several
    clicks: drop the round or keep a uniformly chosen click.
    ``correlation_model`` draws the pair's symbols either perfectly equal
    (``"ideal-delta"``) or from sampled joint distributions
    (``"sampled-jsa"``).
    """

    rounds: int
    seed: int
    basis_probability: float = 0.5
    multi_click_policy: str = "discard"
    correlation_model: str = "ideal-delta"
    shard_size: int = 1_000_000

    def __post_init__(self) -> None:
        if not _is_int(self.rounds) or self.rounds < 1:
            raise ParameterError("rounds must be a positive integer")
        if not _is_int(self.seed) or self.seed < 0:
            raise ParameterError("seed must be a non-negative integer")
        if not 0.0 <= self.basis_probability <= 1.0:
            raise ParameterError("basis probability must lie in [0, 1]")
        if self.multi_click_policy not in _POLICIES:
            raise ParameterError(f"unknown multi-click policy {self.multi_click_policy!r}")
        if self.correlation_model not in _MODELS:
            raise ParameterError(f"unknown correlation model {self.correlation_model!r}")
        if not _is_int(self.shard_size) or self.shard_size < 1:
            raise ParameterError("shard size must be a positive integer")


@dataclass(frozen=True, eq=False)
class RoundLedger:
    """Outcome counts of a batch of rounds.

    Every round lands in exactly one of ``no_click``,
    ``multi_click_discarded``, ``basis_mismatch``, or ``sifted``, and sifted
    rounds split into ``correct`` plus ``incorrect``.  The joint count
    matrices (rows receiver, columns sender) cover the sifted rounds of each
    basis.  Ledgers merge associatively, so sharded and threaded runs
    reassemble into the same totals.
    """

    m: int
    rounds: int
    no_click: int
    multi_click_discarded: int
    basis_mismatch: int
    sifted: int
    correct: int
    incorrect: int
    joint_counts_frequency: np.ndarray
    joint_counts_time: np.ndarray

    def __post_init__(self) -> None:
        parts = self.no_click + self.multi_click_discarded + self.basis_mismatch + self.sifted
        if parts != self.rounds:
            raise ParameterError("round classes do not add up to the round total")
        if self.correct + self.incorrect != self.sifted:
            raise ParameterError("correct plus incorrect must equal sifted")
        for name in ("joint_counts_frequency", "joint_counts_time"):
            counts = getattr(self, name)
            if counts.shape != (self.m, self.m) or counts.min() < 0:
                raise ParameterError(f"{name} must be a non-negative {self.m}x{self.m} matrix")
            counts.setflags(write=False)
        if int(self.joint_counts_frequency.sum() + self.joint_counts_time.sum()) != self.sifted:
            raise ParameterError("joint counts must cover exactly the sifted rounds")

    @property
    def coincidences(self) -> int:
        return self.basis_mismatch + self.sifted

    @classmethod
    def empty(cls, m: int) -> "RoundLedger":
        zero = np.zeros((m, m), dtype=np.int64)
        return cls(
            m=m,
            rounds=0,
            no_click=0,
            multi_click_discarded=0,
            basis_mismatch=0,
            sifted=0,
            correct=0,
            incorrect=0,
            joint_counts_frequency=zero,
            joint_counts_time=zero.copy(),
        )

    def merged(self, other: "RoundLedger") -> "RoundLedger":
        if other.m != self.m:
            raise ParameterError("cannot merge ledgers with different alphabet sizes")
        return RoundLedger(
            m=self.m,
            rounds=self.rounds + other.rounds,
            no_click=self.no_click + other.no_click,
            multi_click_discarded=self.multi_click_discarded + other.multi_click_discarded,
            basis_mismatch=self.basis_mismatch + other.basis_mismatch,
            sifted=self.sifted + other.sifted,
            correct=self.correct + other.correct,
            incorrect=self.incorrect + other.incorrect,
            joint_counts_frequency=self.joint_counts_frequency + other.joint_counts_frequency,
            joint_counts_time=self.joint_counts_time + other.joint_counts_time,
        )


def _shard_rng(seed: int, shard_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(shard_index,)))
    )


def _joint_cdf(distribution: OutcomeDistribution) -> np.ndarray:
    cdf = np.cumsum(distribution.probabilities.ravel())
    return cdf / cdf[-1]


def _resolve_side(
    photon_clicked: np.ndarray,
    symbol: np.ndarray,
    dark_count: np.ndarray,
    collide_u: np.ndarray,
    dark_index: np.ndarray,
    assign_u: np.ndarray,
    alt_index: np.ndarray,
    m: int,
    policy: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Click count and registered symbol for one party.

    A dark count lands on the photon's own detector with chance ``k/m`` and
    is then indistinguishable from it.  Single-click rounds register the
    photon's symbol or the lone dark position (uniform).  Under the
    random-assign policy a multi-click side keeps one click uniformly: the
    photon's with chance ``1/clicks``, else one of the other ``m - 1``
    positions uniformly.
    """
    collision = photon_clicked & (collide_u * m < dark_count)
    clicks = np.where(photon_clicked, 1 + dark_count - collision, dark_count)
    registered = np.where(photon_clicked, symbol, dark_index)
    if policy == "random-assign":
        multi = clicks > 1
        keep_photon = assign_u * clicks < 1.0
        alt = alt_index + (alt_index >= symbol)
        registered = np.where(
            multi & photon_clicked, np.where(keep_photon, symbol, alt), registered
        )
        registered = np.where(multi & ~photon_clicked, dark_index, registered)
    return clicks, registered


def _simulate_shard(
    shard_index: int,
    n: int,
    config: SimulationConfig,
    channel: ChannelModel,
    cdf_frequency: np.ndarray | None,
    cdf_time: np.ndarray | None,
) -> RoundLedger:
    rng = _shard_rng(config.seed, shard_index)
    m = channel.m
    eta = transmission(channel)
    d = channel.dark_probability

    # Fixed draw order; every array is drawn whatever the outcomes are.
    basis_a = rng.random(n) < config.basis_probability
    basis_b = rng.random(n) < config.basis_probability
    emitted = rng.random(n) < channel.pair_probability
    arrives_a = rng.random(n) < eta
    arrives_b = rng.random(n) < eta
    dark_count_a = rng.binomial(m, d, n)
    dark_count_b = rng.binomial(m, d, n)
    collide_a = rng.random(n)
    collide_b = rng.random(n)
    pair_u = rng.random(n)
    dark_index_a = rng.integers(0, m, n)
    dark_index_b = rng.integers(0, m, n)
    assign_a = rng.random(n)
    assign_b = rng.random(n)
    alt_index_a = rng.integers(0, m - 1, n)
    alt_index_b = rng.integers(0, m - 1, n)

    if config.correlation_model == "ideal-delta":
        shared = np.minimum((pair_u * m).astype(np.int64), m - 1)
        symbol_a = shared
        symbol_b = shared
    else:
        flat_f = np.searchsorted(cdf_frequency, pair_u, side="right")
        flat_t = np.searchsorted(cdf_time, pair_u, side="right")
        both_time = ~basis_a & ~basis_b
        flat = np.where(both_time, flat_t, flat_f).astype(np.int64)
        symbol_b = flat // m
        symbol_a = flat % m

    photon_a = emitted & arrives_a
    photon_b = emitted & arrives_b
    clicks_a, registered_a = _resolve_side(
        photon_a, symbol_a, dark_count_a, collide_a, dark_index_a,
        assign_a, alt_index_a, m, config.multi_click_policy,
    )
    clicks_b, registered_b = _resolve_side(
        photon_b, symbol_b, dark_count_b, collide_b, dark_index_b,
        assign_b, alt_index_b, m, config.multi_click_policy,
    )

    no_click = (clicks_a == 0) | (clicks_b == 0)
    if config.multi_click_policy == "discard":
        multi = ~no_click & ((clicks_a > 1) | (clicks_b > 1))
    else:
        multi = np.zeros(n, dtype=bool)
    coincident = ~no_click & ~multi
    matched = basis_a == basis_b
    sifted = coincident & matched
    agree = registered_a == registered_b

    freq_rounds = sifted & basis_a
    time_rounds = sifted & ~basis_a
    flat_freq = registered_b[freq_rounds] * m + registered_a[freq_rounds]
    flat_time = registered_b[time_rounds] * m + registered_a[time_rounds]
    return RoundLedger(
        m=m,
        rounds=n,
        no_click=int(no_click.sum()),
        multi_click_discarded=int(multi.sum()),
        basis_mismatch=int((coincident & ~matched).sum()),
        sifted=int(sifted.sum()),
        correct=int((sifted & agree).sum()),
        incorrect=int((sifted & ~agree).sum()),
        joint_counts_frequency=np.bincount(flat_freq, minlength=m * m).reshape(m, m),
        joint_counts_time=np.bincount(flat_time, minlength=m * m).reshape(m, m),
    )


def simulate_rounds(
    config: SimulationConfig,
    channel: ChannelModel,
    frequency_distribution: OutcomeDistribution | None = None,
    time_distribution: OutcomeDistribution | None = None,
    threads: int = 1,
) -> RoundLedger:
    """Run the full round count and return the merged ledger.

    The ``sampled-jsa`` correlation model requires joint outcome
    distributions for both bases with the channel's alphabet size; the
    ``ideal-delta`` model ignores them.
    """
    if threads < 1:
        raise ParameterError("threads must be a positive integer")
    cdf_f = cdf_t = None
    if config.correlation_model == "sampled-jsa":
        if frequency_distribution is None or time_distribution is None:
            raise ParameterError(
                "sampled-jsa simulation needs both basis distributions"
            )
        if frequency_distribution.basis != FREQUENCY_BASIS or time_distribution.basis != TIME_BASIS:
            raise ParameterError("distributions must come from the frequency and time bases")
        if frequency_distribution.m != channel.m or time_distribution.m != channel.m:
            raise ParameterError("distribution alphabet does not match the channel")
        cdf_f = _joint_cdf(frequency_distribution)
        cdf_t = _joint_cdf(time_distribution)

    shards = []
    remaining = config.rounds
    index = 0
    while remaining > 0:
        size = min(config.shard_size, remaining)
        shards.append((index, size))
        remaining -= size
        index += 1

    def run(shard: tuple[int, int]) -> RoundLedger:
        return _simulate_shard(shard[0], shard[1], config, channel, cdf_f, cdf_t)

    if threads == 1 or len(shards) == 1:
        results = [run(s) for s in shards]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, shards))
    return functools.reduce(RoundLedger.merged, results, RoundLedger.empty(channel.m))


def empirical_distribution(
    ledger: RoundLedger, basis: str
) -> tuple[OutcomeDistribution, np.ndarray]:
    """Relative frequencies of one basis's sifted joint counts.

    Returns the distribution and the elementwise binomial standard error
    ``sqrt(p*(1-p)/n)``.  Raises when that basis saw no sifted rounds.
    """
    if basis == FREQUENCY_BASIS:
        counts = ledger.joint_counts_frequency
    elif basis == TIME_BASIS:
        counts = ledger.joint_counts_time
    else:
        raise ParameterError(f"unknown basis {basis!r}")
    n = int(counts.sum())
    if n == 0:
        raise ParameterError(f"no sifted rounds in the {basis} basis")
    probabilities = counts / n
    stderr = np.sqrt(probabilities * (1.0 - probabilities) / n)
    return OutcomeDistribution(basis=basis, probabilities=probabilities), stderr


def empirical_error_probability(ledger: RoundLedger) -> float:
    """Fraction of sifted rounds with disagreeing symbols."""
    if ledger.sifted == 0:
        raise ParameterError("no sifted rounds, error rate undefined")
    return ledger.incorrect / ledger.sifted


def estimate_key_rate(
    ledger: RoundLedger,
    binning: BinningScheme,
    lens: TimeLens,
    reconciliation_efficiency: float = 1.0,
) -> KeyRateBound:
    """Key-rate bound computed from the simulated joint counts."""
    freq_dist, _ = empirical_distribution(ledger, FREQUENCY_BASIS)
    time_dist, _ = empirical_distribution(ledger, TIME_BASIS)
    return distribution_key_rate(
        freq_dist, time_dist, binning, lens, reconciliation_efficiency=reconciliation_efficiency
    )
