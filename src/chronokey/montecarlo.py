"""Round-by-round simulation of the binned coincidence protocol.

Each round: both parties pick a basis, the source emits a pair (or not),
each photon independently survives to fire the detector of its symbol, and
every one of the ``2 m`` detectors may fire darkly.  A side registers a
usable symbol when exactly one of its detectors fired; a dark count on the
detector the photon already fired is absorbed into that click.  Rounds where
both sides register a symbol are coincidences; matching bases make them
sifted, and sifted rounds are scored correct when the symbols agree.

Sampling is event-driven and exact in distribution.  A round is live when
both sides click at least once.  Rounds are i.i.d., so each shard first
draws one multinomial count of live rounds per photon pattern (both photons,
either one alone, none) and of dead rounds.  Only live rounds get per-round
draws: bases, symbols, dark counts (conditioned on at least one where the
side has no photon), collisions, and click positions.  Dead rounds get
neither draws nor a tally code.  At a lossy channel with rare dark counts the cost
thus scales with the coincidences, not with the rounds.

After the draws, a side's photon rounds are slices of the pattern blocks.
Each live round gets one tally code, and one ``bincount`` of the codes is
the shard's ledger.  The tally is the ledger's only storage: an int64
vector of length ``2*m*m + 2`` with the sifted frequency-basis cell
``receiver * m + sender`` first, the sifted time-basis cells ``m*m`` further
on, then the basis mismatches at ``2*m*m`` and the discarded multi-click
rounds at ``2*m*m + 1``.  The ledger's ``no_click`` count, the dead rounds,
is its round total minus the tally's sum.
``sampled-jsa`` reads each pair's joint cell from a Chen & Asau (1974) guide
table of its basis's CDF; only rounds in buckets that a CDF value splits
fall back to a binary search.

Determinism: rounds are processed in fixed-size shards, each driven by its
own counter-based generator keyed on ``(seed, shard_index)``.  A shard's
draws depend only on that generator, and shard results are merged in index
order, so the ledger depends only on ``seed``, ``rounds``, and
``shard_size``, never on the thread count.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .detection import FREQUENCY_BASIS, TIME_BASIS, BinningScheme, OutcomeDistribution, TimeLens
from .errors import ParameterError, refuse_boolean_floats
from .noise import ChannelModel, transmission
from .security import KeyRateBound, distribution_key_rate

_POLICIES = ("discard", "random-assign")
_MODELS = ("ideal-delta", "sampled-jsa")
# Largest alphabet simulated: a ledger's 2*m*m + 2 int64 tally takes 1 GiB
# at this size.
_MAX_ALPHABET = 8192


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
        refuse_boolean_floats(self)
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
    """Outcome counts of a batch of rounds, held in one tally (laid out as in
    the module docstring).

    Every round lands in exactly one of ``no_click``,
    ``multi_click_discarded``, ``basis_mismatch``, or ``sifted``, and sifted
    rounds split into ``correct`` plus ``incorrect``; all of them are read
    off the tally.  The joint count matrices (rows receiver, columns sender)
    are views of its sifted cells.  Ledgers merge associatively, so sharded
    and threaded runs reassemble into the same totals.
    """

    m: int
    rounds: int
    tally: np.ndarray

    def __post_init__(self) -> None:
        size = 2 * self.m * self.m + 2
        tally = self.tally
        if not isinstance(tally, np.ndarray) or tally.dtype != np.int64 or tally.shape != (size,):
            raise ParameterError(f"tally must be an int64 vector of length 2*m*m + 2 = {size}")
        if tally.min() < 0:
            raise ParameterError("tally counts must be non-negative")
        if int(tally.sum()) > self.rounds:
            raise ParameterError("tally counts more rounds than the round total")
        tally.setflags(write=False)

    @property
    def joint_counts_frequency(self) -> np.ndarray:
        return self.tally[: self.m * self.m].reshape(self.m, self.m)

    @property
    def joint_counts_time(self) -> np.ndarray:
        return self.tally[self.m * self.m : -2].reshape(self.m, self.m)

    @property
    def basis_mismatch(self) -> int:
        return int(self.tally[-2])

    @property
    def multi_click_discarded(self) -> int:
        return int(self.tally[-1])

    @property
    def sifted(self) -> int:
        return int(self.tally[:-2].sum())

    @property
    def correct(self) -> int:
        return int(np.trace(self.joint_counts_frequency) + np.trace(self.joint_counts_time))

    @property
    def incorrect(self) -> int:
        return self.sifted - self.correct

    @property
    def no_click(self) -> int:
        return self.rounds - int(self.tally.sum())

    @property
    def coincidences(self) -> int:
        return self.basis_mismatch + self.sifted

    @classmethod
    def empty(cls, m: int) -> "RoundLedger":
        return cls(m, 0, np.zeros(2 * m * m + 2, dtype=np.int64))

    def merged(self, other: "RoundLedger") -> "RoundLedger":
        if other.m != self.m:
            raise ParameterError("cannot merge ledgers with different alphabet sizes")
        return RoundLedger(self.m, self.rounds + other.rounds, self.tally + other.tally)


def _shard_rng(seed: int, shard_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(shard_index,)))
    )


def _joint_cdf(distribution: OutcomeDistribution) -> np.ndarray:
    cdf = np.cumsum(distribution.probabilities.ravel())
    return cdf / cdf[-1]


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Chen & Asau (1974) guide table of a CDF over ``K = 2**k`` buckets of
    ``[0, 1)``, about 64 per cell (at least 2**12, at most 2**18).

    Entry ``b`` is the ``searchsorted(cdf, u, "right")`` that every ``u`` in
    ``[b/K, (b+1)/K)`` shares, or -1 where a CDF value splits the bucket.
    """
    buckets = 2 ** min(18, max(12, math.ceil(math.log2(64 * cdf.size))))
    edges = np.arange(buckets + 1) / buckets
    lo = np.searchsorted(cdf, edges[:-1], side="right")
    hi = np.searchsorted(cdf, edges[1:], side="left")
    return np.where(lo == hi, lo, -1).astype(np.int32)


def _sample_cells(guides: np.ndarray, cdfs, u: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``searchsorted(cdfs[basis], u, "right")`` per round, read from row
    ``basis`` (0 or 1) of the stacked guide tables; ``K`` is a power of two,
    so ``floor(u*K)`` is exact.  Only rounds in split buckets search."""
    buckets = guides.shape[1]
    index = (u * buckets).astype(np.int32) + basis * np.int32(buckets)
    cells = guides.ravel()[index]
    split = np.flatnonzero(cells < 0)
    for row, cdf in enumerate(cdfs):
        rounds = split[basis[split] == row]
        cells[rounds] = np.searchsorted(cdf, u[rounds], side="right")
    return cells


def _dark_click_probability(m: int, d: float) -> float:
    """Chance ``1 - (1-d)**m`` that at least one of ``m`` detectors fires
    darkly, accurate down to ``m*d`` far below machine epsilon."""
    return -math.expm1(m * math.log1p(-d))


def _pattern_probabilities(channel: ChannelModel) -> list[float]:
    """Per-round chances of the four live photon patterns (both photons,
    sender's only, receiver's only, none) and of a dead round.

    A round is live when both sides register at least one click: a side
    with a photon always does, a side without one needs a dark count.
    """
    eps = channel.pair_probability
    eta = transmission(channel)
    r = _dark_click_probability(channel.m, channel.dark_probability)
    one_photon = eps * eta * (1.0 - eta) * r
    no_photon = (1.0 - eps + eps * (1.0 - eta) ** 2) * r * r
    live = [eps * eta * eta, one_photon, one_photon, no_photon]
    return live + [max(0.0, 1.0 - sum(live))]


def _zero_truncated_dark_counts(
    rng: np.random.Generator, m: int, d: float, size: int
) -> np.ndarray:
    """Draws of ``Binomial(m, d)`` conditioned on at least one dark count.

    The first firing detector ``J`` follows the geometric law truncated to
    ``0..m-1``, drawn by inverting its CDF ``(1 - (1-d)**(J+1)) / r``; the
    ``m - 1 - J`` detectors after it fire independently.
    """
    r = _dark_click_probability(m, d)
    first = np.ceil(np.log1p(-rng.random(size) * r) / math.log1p(-d)) - 1.0
    first = np.clip(first, 0, m - 1).astype(np.int64)
    return 1 + rng.binomial(m - 1 - first, d)


def _dark_counts(
    rng: np.random.Generator, blocks: tuple[int, int, int, int], m: int, d: float
) -> np.ndarray:
    """Dark counts of one side over the live rounds, whose blocks of sizes
    ``blocks`` alternate between the photon having clicked (unconditioned
    draws) and not (at least one), photon first."""
    w = rng.binomial(m, d, blocks[0] + blocks[2])
    z = _zero_truncated_dark_counts(rng, m, d, blocks[1] + blocks[3])
    return np.concatenate([w[: blocks[0]], z[: blocks[1]], w[blocks[0] :], z[blocks[1] :]])


def _resolve_side(
    photon: list[slice],
    symbol: np.ndarray,
    dark_count: np.ndarray,
    collide_u: np.ndarray,
    dark_index: np.ndarray,
    assign_u: np.ndarray | None,
    alt_index: np.ndarray | None,
    m: int,
) -> None:
    """Click count and registered symbol for one party, written over
    ``dark_count`` and ``dark_index``; ``photon`` holds the slices of live
    rounds where its photon clicked.

    A dark count lands on the photon's own detector with chance ``k/m`` and
    is then indistinguishable from it.  Single-click rounds register the
    photon's symbol or the lone dark position (uniform).  Under the
    random-assign policy (``assign_u`` given) a multi-click side keeps one
    click uniformly: the photon's with chance ``1/clicks``, else one of the
    other ``m - 1`` positions uniformly; without a photon, the dark position.
    """
    for s in photon:
        dark_count[s] += collide_u[s] * m >= dark_count[s]
        if assign_u is None:
            dark_index[s] = symbol[s]
        else:
            alt = alt_index[s] + (alt_index[s] >= symbol[s])
            dark_index[s] = np.where(assign_u[s] * dark_count[s] < 1.0, symbol[s], alt)


def _simulate_shard(
    shard_index: int,
    n: int,
    config: SimulationConfig,
    channel: ChannelModel,
    guides: np.ndarray | None,
    cdfs: tuple[np.ndarray, np.ndarray] | None,
) -> RoundLedger:
    rng = _shard_rng(config.seed, shard_index)
    m = channel.m
    d = channel.dark_probability
    random_assign = config.multi_click_policy == "random-assign"

    # Live rounds per photon pattern, in contiguous blocks: both, sender's
    # only, receiver's only, none.  Dead rounds need no further draws.
    pattern = rng.multinomial(n, _pattern_probabilities(channel))[:4]
    both, a_only, b_only, neither = (int(count) for count in pattern)
    live = both + a_only + b_only + neither

    # Fixed draw order over the live rounds.  The dark counts and dark
    # positions become click counts and registered symbols in place.
    basis_a = rng.random(live) < config.basis_probability
    basis_b = rng.random(live) < config.basis_probability
    clicks_a = _dark_counts(rng, (both + a_only, b_only + neither, 0, 0), m, d)
    clicks_b = _dark_counts(rng, (both, a_only, b_only, neither), m, d)
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
    del pair_u
    photon_a = [slice(0, both + a_only)]
    photon_b = [slice(0, both), slice(both + a_only, live - neither)]
    _resolve_side(photon_a, symbol_a, clicks_a, collide_a, registered_a, assign_a, alt_a, m)
    _resolve_side(photon_b, symbol_b, clicks_b, collide_b, registered_b, assign_b, alt_b, m)
    del collide_a, collide_b, assign_a, assign_b, alt_a, alt_b, symbol_a, symbol_b

    # One tally code per live round (see the module docstring).
    cells = m * m
    code = registered_b * m + registered_a
    del registered_a, registered_b
    code += both_time * np.int32(cells)
    np.putmask(code, basis_a != basis_b, 2 * cells)
    if not random_assign:
        np.putmask(code, (clicks_a > 1) | (clicks_b > 1), 2 * cells + 1)
    return RoundLedger(m, n, np.bincount(code, minlength=2 * cells + 2))


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
    if not _is_int(threads) or threads < 1:
        raise ParameterError("threads must be a positive integer")
    m = channel.m
    if m > _MAX_ALPHABET:
        raise ParameterError(
            f"alphabet size {m} exceeds {_MAX_ALPHABET}: the ledger's 2*m*m + 2 int64 "
            f"tally would take {16 * m * m / 2**30:.0f} GiB, above the 1 GiB limit"
        )
    guides = cdfs = None
    if config.correlation_model == "sampled-jsa":
        if frequency_distribution is None or time_distribution is None:
            raise ParameterError(
                "sampled-jsa simulation needs both basis distributions"
            )
        if frequency_distribution.basis != FREQUENCY_BASIS or time_distribution.basis != TIME_BASIS:
            raise ParameterError("distributions must come from the frequency and time bases")
        if frequency_distribution.m != channel.m or time_distribution.m != channel.m:
            raise ParameterError("distribution alphabet does not match the channel")
        cdfs = (_joint_cdf(frequency_distribution), _joint_cdf(time_distribution))
        guides = np.stack([_guide_table(cdf) for cdf in cdfs])

    starts = range(0, config.rounds, config.shard_size)
    shards = [(i, min(config.shard_size, config.rounds - start)) for i, start in enumerate(starts)]

    def run(shard: tuple[int, int]) -> RoundLedger:
        return _simulate_shard(shard[0], shard[1], config, channel, guides, cdfs)

    if threads == 1 or len(shards) == 1:
        results = [run(s) for s in shards]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, shards))
    return functools.reduce(RoundLedger.merged, results, RoundLedger.empty(m))


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
