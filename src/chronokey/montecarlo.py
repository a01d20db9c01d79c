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

After the draws, each live round gets one tally code, and one ``bincount``
of the codes is the shard's tally.  A round that no dark count touched
clicks once per side and registers the pair's symbols, so its code is the
pair's joint cell plus its basis offset.  Only the rounds with a dark count
on either side (every side without a photon has one) go through the
collision, random-assign and multi-click arithmetic, on their indices alone.
Past the draws, the bookkeeping thus scales with the rounds a dark count
touched, and at ``d == 0`` there are none.  The tally is the ledger's only
storage: an int64 vector of length ``2*m*m + 2`` with the sifted
frequency-basis cell ``receiver * m + sender`` first, the sifted time-basis
cells ``m*m`` further on, then the basis mismatches at ``2*m*m`` and the
discarded multi-click rounds at ``2*m*m + 1``.  The ledger's ``no_click``
count, the dead rounds, is its round total minus the tally's sum.
``sampled-jsa`` reads each pair's joint cell from a Chen & Asau (1974) guide
table of its basis's CDF; only rounds in buckets that a CDF value splits
fall back to a binary search.

Draws that no round reads are not made.  The collision uniforms and click
positions, and under random-assign the assignment uniforms and alternative
positions, are read only at the rounds a dark count touched, and at
``d == 0`` there are none.  The two collision-uniform arrays come before
the pair's draw, so a noiseless shard moves its Philox generator past them
to the state drawing them leaves (``Philox.advance``, Salmon et al., SC'11).
The draws after the pair's are the shard's last, so it does not make them.
Every ledger is thus the one that drawing everything gives.

Determinism: rounds are processed in fixed-size shards, each driven by its
own counter-based generator keyed on ``(seed, shard_index)``.  A shard's
draws depend only on that generator, and shard tallies are added in index
order, so the ledger depends only on ``seed``, ``rounds``, and
``shard_size``, never on the thread count.
"""

from __future__ import annotations

import collections
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
    are views of its sifted cells.
    """

    m: int
    rounds: int
    tally: np.ndarray

    def __post_init__(self) -> None:
        if not _is_int(self.m) or self.m < 2:
            raise ParameterError(f"tally alphabet size must be an integer >= 2, got {self.m!r}")
        if not _is_int(self.rounds) or self.rounds < 0:
            raise ParameterError(f"tally round total must be an integer >= 0, got {self.rounds!r}")
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
    draws) and not (at least one), photon first.  Called only for
    ``d > 0``: at ``d == 0`` numpy's ``binomial`` returns zeros without
    drawing, and no side lacks its photon, so the counts take no draws."""
    w = rng.binomial(m, d, blocks[0] + blocks[2])
    z = _zero_truncated_dark_counts(rng, m, d, blocks[1] + blocks[3])
    if z.size == 0:  # every photon clicked; copying w would touch every page
        return w
    return np.concatenate([w[: blocks[0]], z[: blocks[1]], w[blocks[0] :], z[blocks[1] :]])


def _resolve_side(
    photon: np.ndarray,
    symbol: np.ndarray,
    dark_count: np.ndarray,
    collide_u: np.ndarray,
    dark_index: np.ndarray,
    assign_u: np.ndarray | None,
    alt_index: np.ndarray | None,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Click counts and registered symbols of one party over the rounds a
    dark count touched; ``photon`` marks those where its photon clicked.

    A dark count lands on the photon's own detector with chance ``k/m`` and
    is then indistinguishable from it.  Single-click rounds register the
    photon's symbol or the lone dark position (uniform).  Under the
    random-assign policy (``assign_u`` given) a multi-click side keeps one
    click uniformly: the photon's with chance ``1/clicks``, else one of the
    other ``m - 1`` positions uniformly; without a photon, the dark position.
    """
    clicks = dark_count + (photon & (collide_u * m >= dark_count))
    registered = np.where(photon, symbol, dark_index)
    if assign_u is not None:
        alt = alt_index + (alt_index >= symbol)
        np.putmask(registered, photon & (assign_u * clicks >= 1.0), alt)
    return clicks, registered


def _skip_doubles(rng: np.random.Generator, count: int) -> None:
    """Move ``rng`` past ``rng.random(count)`` without drawing: a double
    takes one 64-bit Philox word, whole 4-word blocks are jumped with
    ``Philox.advance`` and the words either side come from the buffered
    block.  State, buffer and spare 32-bit half end as the draw leaves them.
    """
    bits = rng.bit_generator
    state = bits.state
    position = state["buffer_pos"] + count
    if position > 4:
        blocks, rest = divmod(position - 5, 4)
        bits.advance(blocks)  # also drops the buffered block and the spare half
        bits.random_raw(rest + 1)
        state = {**bits.state, "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}
    else:
        state["buffer_pos"] = position
    bits.state = state


def _simulate_shard(
    shard_index: int,
    n: int,
    config: SimulationConfig,
    channel: ChannelModel,
    guides: np.ndarray | None,
    cdfs: tuple[np.ndarray, np.ndarray] | None,
) -> np.ndarray:
    """The int64 tally of ``n`` rounds (laid out as in the module docstring)."""
    rng = _shard_rng(config.seed, shard_index)
    m = channel.m
    d = channel.dark_probability
    random_assign = config.multi_click_policy == "random-assign"

    # Live rounds per photon pattern, in contiguous blocks: both, sender's
    # only, receiver's only, none.  Dead rounds need no further draws.
    pattern = rng.multinomial(n, _pattern_probabilities(channel))[:4]
    both, a_only, b_only, neither = (int(count) for count in pattern)
    live = both + a_only + b_only + neither

    # Fixed draw order over the live rounds.  Rounds no dark count touched
    # click once per side and register the pair's symbols, so every draw
    # after the dark counts is kept only at the ``special`` rounds.
    basis_a = rng.random(live) < config.basis_probability
    basis_b = rng.random(live) < config.basis_probability
    if d > 0.0:
        clicks_a = _dark_counts(rng, (both + a_only, b_only + neither, 0, 0), m, d)
        clicks_b = _dark_counts(rng, (both, a_only, b_only, neither), m, d)
        special = np.flatnonzero(clicks_a | clicks_b)
        clicks_a, clicks_b = clicks_a[special], clicks_b[special]
        collide_a = rng.random(live)[special]
        collide_b = rng.random(live)[special]
    else:  # every live round has both photons and no dark count
        _skip_doubles(rng, 2 * live)
    both_time = ~(basis_a | basis_b)
    pair_u = rng.random(live)
    # The pair's joint cell ``receiver * m + sender``.
    if guides is None:
        code = np.minimum((pair_u * m).astype(np.int32), m - 1) * np.int32(m + 1)
    else:
        code = _sample_cells(guides, cdfs, pair_u, both_time)
    del pair_u

    # The click positions and assignment draws are the shard's last, so a
    # shard without dark counts does not make them.
    cells = m * m
    discarded = np.empty(0, dtype=np.intp)
    if d > 0.0:
        registered_a = rng.integers(0, m, live, dtype=np.int32)[special]
        registered_b = rng.integers(0, m, live, dtype=np.int32)[special]
        assign_a = assign_b = alt_a = alt_b = None
        if random_assign:
            assign_a = rng.random(live)[special]
            assign_b = rng.random(live)[special]
            alt_a = rng.integers(0, m - 1, live, dtype=np.int32)[special]
            alt_b = rng.integers(0, m - 1, live, dtype=np.int32)[special]
        photon_a = special < both + a_only
        photon_b = (special < both) | ((special >= both + a_only) & (special < live - neither))
        symbol_b, symbol_a = np.divmod(code[special], m)
        clicks_a, registered_a = _resolve_side(
            photon_a, symbol_a, clicks_a, collide_a, registered_a, assign_a, alt_a, m
        )
        clicks_b, registered_b = _resolve_side(
            photon_b, symbol_b, clicks_b, collide_b, registered_b, assign_b, alt_b, m
        )
        code[special] = registered_b * m + registered_a
        if not random_assign:
            discarded = special[(clicks_a > 1) | (clicks_b > 1)]

    # One tally code per live round (see the module docstring).
    # Branch-free arithmetic: masked writes at random positions cost several
    # times more than a multiply over the whole block.
    code += both_time * np.int32(cells)
    mismatch = basis_a != basis_b
    code *= ~mismatch
    code += mismatch * np.int32(2 * cells)
    code[discarded] = 2 * cells + 1
    return np.bincount(code, minlength=2 * cells + 2)


def _in_order(pool: ThreadPoolExecutor, fn, items, window: int):
    """``pool.map(fn, items)`` with at most ``window + 1`` calls submitted
    and not yet yielded, so that a slow consumer holds O(window) results,
    not all of them."""
    pending: collections.deque = collections.deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) > window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def simulate_rounds(
    config: SimulationConfig,
    channel: ChannelModel,
    frequency_distribution: OutcomeDistribution | None = None,
    time_distribution: OutcomeDistribution | None = None,
    threads: int = 1,
) -> RoundLedger:
    """Run the full round count and return one ledger of all shard tallies.

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
            f"tally would take {8 * (2 * m * m + 2):,} bytes, above the "
            f"{8 * (2 * _MAX_ALPHABET**2 + 2):,} it takes at {_MAX_ALPHABET}"
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

    def run(shard: tuple[int, int]) -> np.ndarray:
        return _simulate_shard(shard[0], shard[1], config, channel, guides, cdfs)

    # Shard tallies are added into one total in index order as they arrive,
    # so at most O(threads) shard tallies are alive at once.
    total = np.zeros(2 * m * m + 2, dtype=np.int64)
    if threads == 1 or len(shards) == 1:
        for shard in shards:
            total += run(shard)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for tally in _in_order(pool, run, shards, threads):
                total += tally
                del tally  # not kept alive while the next shard is awaited
    return RoundLedger(m, config.rounds, total)


def empirical_distribution(ledger: RoundLedger, basis: str) -> OutcomeDistribution:
    """Relative frequencies of one basis's sifted joint counts.

    Raises when that basis saw no sifted rounds.
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
    return OutcomeDistribution(basis=basis, probabilities=counts / n)


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
    freq_dist = empirical_distribution(ledger, FREQUENCY_BASIS)
    time_dist = empirical_distribution(ledger, TIME_BASIS)
    return distribution_key_rate(
        freq_dist, time_dist, binning, lens, reconciliation_efficiency=reconciliation_efficiency
    )
