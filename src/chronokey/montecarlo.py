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

Each live round gets one tally code, and the shard's tally counts the codes
block by block (see below).  A round that no dark count touched
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

A shard walks its live rounds in blocks of ``_BLOCK_ROUNDS``, so that a
block's draws, flags and tally codes stay in cache instead of streaming
through memory once per numpy pass.  Each fixed-length run of uniforms (the
two bases, the two collision arrays, the pair's, and under random-assign
the two assignment arrays) is drawn block by block into one reused buffer,
by a copy of the shard's Philox generator positioned at the run's start.
Philox is counter-based (Salmon et al., SC'11), so the shard's own
generator passes over each run without drawing it (``_skip_doubles``) and
draws, in the order it always has, only what varies in length: the
multinomial, the dark counts and the bounded integers.  The draws, and so
the ledger, are bit for bit those of drawing each run whole.
A shard whose live rounds fit in one block draws each run whole and makes
no copy.  ``special`` is sorted, so each block resolves its own slice of it.

Determinism: rounds are processed in fixed-size shards, each driven by its
own counter-based generator keyed on ``(seed, shard_index)``.  A shard's
draws depend only on that generator, and integer counts add exactly, so the
ledger depends only on ``seed``, ``rounds``, and ``shard_size``, never on
the thread count or on which thread counts a shard.  A run whose shards
expect at most one block of live rounds each (the default channel's 1e6-round
shards hold about 830), or that has one shard, counts every shard on the
calling thread, straight into the ledger's one tally, whatever the thread
count.  Otherwise a pool of at most one worker per core (and per shard)
takes the shards one at a time as each worker comes free; each worker counts
into its own tally, and the tallies are added once the pool has joined.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
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
# Largest round count and shard size: numpy's multinomial counts in int64.
_MAX_ROUNDS = 2**63 - 1
# Live rounds per block of a shard: a block's draws and tally codes stay in
# cache (see the module docstring).
_BLOCK_ROUNDS = 2**15


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
        if not _is_int(self.rounds) or not 1 <= self.rounds <= _MAX_ROUNDS:
            raise ParameterError("rounds must be a positive integer up to 2**63 - 1")
        if not _is_int(self.seed) or self.seed < 0:
            raise ParameterError("seed must be a non-negative integer")
        if not 0.0 <= self.basis_probability <= 1.0:
            raise ParameterError("basis probability must lie in [0, 1]")
        if self.multi_click_policy not in _POLICIES:
            raise ParameterError(f"unknown multi-click policy {self.multi_click_policy!r}")
        if self.correlation_model not in _MODELS:
            raise ParameterError(f"unknown correlation model {self.correlation_model!r}")
        if not _is_int(self.shard_size) or not 1 <= self.shard_size <= _MAX_ROUNDS:
            raise ParameterError("shard size must be a positive integer up to 2**63 - 1")


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

    # Sums over the whole tally, taken once: the tally is read-only.
    @functools.cached_property
    def sifted(self) -> int:
        return int(self.tally[:-2].sum())

    @functools.cached_property
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


def _sample_cells(
    guides: np.ndarray, cdfs, u: np.ndarray, basis: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``searchsorted(cdfs[basis], u, "right")`` per round, read from row
    ``basis`` (0 or 1) of the stacked guide tables into ``out`` (int32, or
    a new array); ``K`` is a power of two, so ``floor(u*K)`` is exact.  Only
    rounds in split buckets search."""
    buckets = guides.shape[1]
    index = np.empty(u.size, dtype=np.intp)
    np.multiply(u, buckets, out=index, casting="unsafe")  # several times faster than astype
    index += basis * buckets
    cells = guides.ravel().take(index, out=out)
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
    m: int,
    assign_u: np.ndarray | None = None,
    alt_index: np.ndarray | None = None,
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


def _positioned_copy(rng: np.random.Generator) -> np.random.Generator:
    """A generator on a copy of ``rng``'s Philox state: it draws what
    ``rng`` would draw next."""
    bits = np.random.Philox(0)  # the state set next replaces this seed's
    bits.state = rng.bit_generator.state
    return np.random.Generator(bits)


def _add_codes(tally: np.ndarray, code: np.ndarray) -> None:
    """Count a block's tally codes into ``tally``.  ``bincount`` costs the
    tally's length, so a tally longer than the block is counted in place."""
    if tally.size <= code.size:
        tally += np.bincount(code, minlength=tally.size)
    else:
        np.add.at(tally, code, 1)


def _simulate_shard(
    shard_index: int,
    n: int,
    config: SimulationConfig,
    channel: ChannelModel,
    guides: np.ndarray | None,
    cdfs: tuple[np.ndarray, np.ndarray] | None,
    tally: np.ndarray,
) -> np.ndarray:
    """Count ``n`` rounds into the int64 ``tally`` (laid out as in the
    module docstring) and return it."""
    rng = _shard_rng(config.seed, shard_index)
    m = channel.m
    d = channel.dark_probability
    random_assign = config.multi_click_policy == "random-assign"

    # Live rounds per photon pattern, in contiguous blocks: both, sender's
    # only, receiver's only, none.  Dead rounds need no further draws.
    pattern = rng.multinomial(n, _pattern_probabilities(channel))[:4]
    both, a_only, b_only, neither = (int(count) for count in pattern)
    live = both + a_only + b_only + neither
    block = min(live, _BLOCK_ROUNDS)
    streams = []

    def segment() -> np.ndarray:
        """A block buffer of ``rng``'s next ``live`` doubles.  One block
        holds them all, drawn now; otherwise a copy of ``rng`` positioned at
        their start draws them block by block, and ``rng`` skips them."""
        buffer = np.empty(block)
        if live == block:
            rng.random(out=buffer)
        else:
            streams.append((_positioned_copy(rng), buffer))
            _skip_doubles(rng, live)
        return buffer

    # Fixed draw order over the live rounds.  Rounds no dark count touched
    # click once per side and register the pair's symbols, so every draw
    # after the dark counts is kept only at the ``special`` rounds.
    uniform_a = segment()
    uniform_b = segment()
    if d > 0.0:
        clicks_a = _dark_counts(rng, (both + a_only, b_only + neither, 0, 0), m, d)
        clicks_b = _dark_counts(rng, (both, a_only, b_only, neither), m, d)
        special = np.flatnonzero(clicks_a | clicks_b)
        clicks_a, clicks_b = clicks_a[special], clicks_b[special]
        collide_a = segment()
        collide_b = segment()
    else:  # every live round has both photons and no dark count
        _skip_doubles(rng, 2 * live)
    pair_u = segment()

    # The click positions and assignment draws are the shard's last, so a
    # shard without dark counts does not make them.
    if d > 0.0:
        registered_a = rng.integers(0, m, live, dtype=np.int32)[special]
        registered_b = rng.integers(0, m, live, dtype=np.int32)[special]
        if random_assign:
            assign_a = segment()
            assign_b = segment()
            alt_a = rng.integers(0, m - 1, live, dtype=np.int32)[special]
            alt_b = rng.integers(0, m - 1, live, dtype=np.int32)[special]

    cells = m * m
    codes = np.empty(block, dtype=np.int32)
    flags = np.empty((4, block), dtype=bool)
    discarded = np.empty(0, dtype=np.intp)
    for start in range(0, live, _BLOCK_ROUNDS):
        size = min(_BLOCK_ROUNDS, live - start)
        for stream, buffer in streams:
            stream.random(out=buffer[:size])
        basis_a, basis_b, both_time, mismatch = flags[:, :size]
        np.less(uniform_a[:size], config.basis_probability, out=basis_a)
        np.less(uniform_b[:size], config.basis_probability, out=basis_b)
        np.logical_not(np.logical_or(basis_a, basis_b, out=both_time), out=both_time)
        # The pair's joint cell ``receiver * m + sender``.
        code = codes[:size]
        if guides is None:
            np.multiply(pair_u[:size], m, out=code, casting="unsafe")
            np.minimum(code, m - 1, out=code)
            code *= np.int32(m + 1)
        else:
            _sample_cells(guides, cdfs, pair_u[:size], both_time, out=code)

        if d > 0.0:  # the block's slice of the sorted ``special`` rounds
            lo, hi = np.searchsorted(special, (start, start + size))
            rounds = special[lo:hi]
            at = rounds - start
            photon_a = rounds < both + a_only
            photon_b = (rounds < both) | ((rounds >= both + a_only) & (rounds < live - neither))
            symbol_b, symbol_a = np.divmod(code[at], m)
            choice_a = choice_b = ()
            if random_assign:
                choice_a = (assign_a[at], alt_a[lo:hi])
                choice_b = (assign_b[at], alt_b[lo:hi])
            clicks_at_a, cell_a = _resolve_side(
                photon_a, symbol_a, clicks_a[lo:hi], collide_a[at], registered_a[lo:hi], m,
                *choice_a,
            )
            clicks_at_b, cell_b = _resolve_side(
                photon_b, symbol_b, clicks_b[lo:hi], collide_b[at], registered_b[lo:hi], m,
                *choice_b,
            )
            code[at] = cell_b * m + cell_a
            if not random_assign:
                discarded = at[(clicks_at_a > 1) | (clicks_at_b > 1)]

        # One tally code per live round (see the module docstring).
        # Branch-free arithmetic: masked writes at random positions cost
        # several times more than a multiply over the whole block.
        code += both_time * np.int32(cells)
        np.not_equal(basis_a, basis_b, out=mismatch)
        code *= ~mismatch
        code += mismatch * np.int32(2 * cells)
        code[discarded] = 2 * cells + 1
        _add_codes(tally, code)
    return tally


def simulate_rounds(
    config: SimulationConfig,
    channel: ChannelModel,
    frequency_distribution: OutcomeDistribution | None = None,
    time_distribution: OutcomeDistribution | None = None,
    threads: int = 1,
) -> RoundLedger:
    """Run the full round count and return the ledger of all its shards.

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
    # Lazy: a round count of 2**63 - 1 makes too many shards to list.
    shards = ((i, min(config.shard_size, config.rounds - start)) for i, start in enumerate(starts))

    take = threading.Lock()

    def count() -> np.ndarray:
        """Count shards into a new tally, taking the next one not yet taken
        until none is left."""
        tally = np.zeros(2 * m * m + 2, dtype=np.int64)
        while True:
            with take:
                shard = next(shards, None)
            if shard is None:
                return tally
            _simulate_shard(*shard, config, channel, guides, cdfs, tally)

    # A run of one shard, or of shards whose expected live rounds fit in one
    # block (too little work to hand to a thread), counts every shard on
    # this thread, into the ledger's one tally.  Otherwise each pool worker
    # counts the shards it takes into its own tally, and the tallies are
    # added once the pool has joined: at most one tally per worker is alive.
    live = config.shard_size * (1.0 - _pattern_probabilities(channel)[-1])
    workers = min(threads, os.cpu_count() or 1, len(starts)) if live > _BLOCK_ROUNDS else 1
    if workers == 1:
        return RoundLedger(m, config.rounds, count())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(count) for _ in range(workers)]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            with take:
                shards.close()  # a failed or interrupted run takes no further shard
    total = futures[0].result()
    for future in futures[1:]:
        total += future.result()
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
