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
block by block (see below).  The tally is the ledger's only storage: an
int64 vector of length ``2*m*m + 2`` with the sifted frequency-basis cell
``receiver * m + sender`` first, the sifted time-basis cells ``m*m``
further on, then the basis mismatches at ``2*m*m`` and the discarded
multi-click rounds at ``2*m*m + 1``.  The ledger's ``no_click`` count, the
dead rounds, is its round total minus the tally's sum.

The shard reads its uniforms as raw 64-bit Philox words ``w``; the double
``Generator.random`` makes of a word is ``(w >> 11) * 2**-53``, so nothing
read changes.  A party chooses the frequency basis when that double is
below ``p``, which is the integer compare ``w < ceil(p * 2**53) << 11``.
A round that no dark count touched clicks once per side and registers the
pair's symbols, so its code follows from its three words alone: one table
(``_CodeTable``), indexed by how many parties chose the frequency basis and
by the pair word's top bits, gives it.  The table's matched-basis rows are
Chen & Asau (1974) guide tables of the basis's CDF (``sampled-jsa``) or of
the diagonal ``min(floor(u*m), m-1)`` (``ideal-delta``); only rounds whose
bucket a cell boundary splits are resolved exactly from their pair word.
Only the rounds with a dark count on either side (every side without a
photon has one) go through the collision, random-assign and multi-click
arithmetic, on their indices alone, and their table code gives their bases
and pair cell.  Past the draws, the bookkeeping thus costs one lookup and
one count per round, plus work that scales with the rounds a dark count
touched, and at ``d == 0`` there are none.

Draws that no round reads are not made.  The collision words and click
positions, and under random-assign the assignment words and alternative
positions, are read only at the rounds a dark count touched.  At ``d ==
0`` there are none, and at the default channel most shards have none.
The two collision runs come before the pair's, so a shard without such
rounds moves its Philox generator past them to the state drawing them
leaves (``Philox.advance``, Salmon et al., SC'11).  The draws after the
pair's are the shard's last, so it does not make them, and a draw of no
dark counts draws nothing.  A block of live rounds that none of those
rounds falls in is not resolved, though every positioned copy (below)
still moves past the block's words.  Every ledger is thus the one that
drawing everything gives.  Words become
doubles only where a double is compared: at the rounds a dark count
touched, for their collision and assignment draws.

A shard walks its live rounds in blocks of ``_BLOCK_ROUNDS``, so that a
block's words and tally codes stay in cache instead of streaming through
memory once per numpy pass.  Each fixed-length run of words (the two bases,
the two collision runs, the pair's, and under random-assign the two
assignment runs) is drawn block by block (``Philox.random_raw``) by a copy
of the shard's Philox generator positioned at the run's start.  Philox is
counter-based (Salmon et al., SC'11), so the shard's own generator passes
over each run without drawing it (``_skip_words``) and draws, in the order
it always has, only what varies in length: the multinomial, the dark
counts and the bounded integers.  The draws, and so the ledger, are bit
for bit those of drawing each run whole.  A shard whose live rounds fit in
one block draws each run whole and makes no copy.  ``special`` is sorted,
so each block resolves its own slice of it.

Determinism: rounds are processed in fixed-size shards, each driven by its
own counter-based generator keyed on ``(seed, shard_index)``.  A shard's
draws depend only on that generator, and integer counts add exactly, so the
ledger depends only on ``seed``, ``rounds``, and ``shard_size``, never on
the thread count or on which thread counts a shard.  A run whose shards
expect at most one block of live rounds each (the default channel's 1e6-round
shards hold about 830), or that has one shard, counts every shard on the
calling thread, straight into the ledger's one tally, whatever the thread
count.  Otherwise a pool of at most one worker per usable CPU (and per shard)
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
        if self.no_click < 0:
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

    # The tally's one sum, taken by the check in ``__post_init__`` and kept:
    # the tally is read-only.
    @functools.cached_property
    def no_click(self) -> int:
        return self.rounds - int(self.tally.sum())

    @property
    def sifted(self) -> int:
        return self.rounds - self.no_click - self.basis_mismatch - self.multi_click_discarded

    @functools.cached_property
    def correct(self) -> int:
        return int(np.trace(self.joint_counts_frequency) + np.trace(self.joint_counts_time))

    @property
    def incorrect(self) -> int:
        return self.sifted - self.correct

    @property
    def coincidences(self) -> int:
        return self.basis_mismatch + self.sifted


def _shard_rng(seed: int, shard_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(shard_index,)))
    )


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The doubles ``Generator.random`` makes of these 64-bit Philox words:
    ``(w >> 11) * 2**-53``, each exact."""
    return (words >> 11) * 2.0**-53


def _word_limit(p: float) -> int:
    """The integer a word ``w`` lies below exactly when its uniform is below
    ``p``.  ``w >> 11`` is an integer and ``p * 2**53`` is exact, so
    ``(w >> 11) * 2**-53 < p`` holds exactly when ``w >> 11 < ceil(p *
    2**53)``, that is when ``w < ceil(p * 2**53) << 11``.  At ``p = 1`` the
    limit is ``2**64``, above every word: numpy compares words with that
    Python integer exactly."""
    return math.ceil(p * 2.0**53) << 11


def _joint_cdf(distribution: OutcomeDistribution) -> np.ndarray:
    cdf = np.cumsum(distribution.probabilities.ravel())
    return cdf / cdf[-1]


def _integer_cdfs(cdfs, cells: int) -> np.ndarray:
    """``ceil(cdf * 2**53)`` of the frequency and then the time basis's
    joint CDF (``cells`` values each, the last exactly 1), in int64, the
    time basis's ``2**53`` higher.  ``cdfs`` may be a generator, so that
    one CDF is alive at a time.

    Scaling by ``2**53`` is exact, so a CDF value is at most the uniform
    ``n * 2**-53`` exactly when its entry is at most ``n``.  Searching
    ``n + 2**53`` passes every frequency entry, which end at ``2**53``, so
    it returns the time basis's cell plus ``cells``.
    """
    out = np.empty(2 * cells, dtype=np.int64)
    for part, cdf in zip((out[:cells], out[cells:]), cdfs):
        for start in range(0, cells, 2**16):  # no CDF-sized temporary
            part[start : start + 2**16] = np.ceil(cdf[start : start + 2**16] * 2.0**53)
    out[cells:] += 2**53
    return out


class _CodeTable:
    """Tally codes (laid out as in the module docstring) of the rounds no
    dark count touched, read from their 64-bit words.

    ``table`` holds three rows of ``2**bits`` entries, row ``r`` for the
    rounds where ``r`` parties chose the frequency basis.  Row 1 is the
    basis-mismatch code.  Entry ``b`` of rows 0 (time basis) and 2
    (frequency basis) is a Chen & Asau (1974) guide-table bucket: the code
    that every pair word whose top ``bits`` bits are ``b`` shares, or -2
    (time) or -1 (frequency) where the bucket's words do not share one.
    ``matched_codes`` gives those rounds' codes.  There are about 16
    buckets per outcome (cell or symbol), but at least 2**12 and at most
    2**18.

    ``cdf`` is the ``sampled-jsa`` frequency and time CDFs from
    ``_integer_cdfs``, or None for ``ideal-delta``.
    """

    def __init__(self, m: int, cdf: np.ndarray | None = None):
        self.m = m
        self.cdf = cdf
        outcomes = m if cdf is None else m * m
        self.bits = bits = min(18, max(12, math.ceil(math.log2(16 * outcomes))))
        # Every pair word's 53-bit integer ``n = w >> 11`` in bucket ``b``
        # lies between these, and ``matched_codes`` does not decrease in n.
        lowest = np.arange(2**bits, dtype=np.int64) << (53 - bits)
        highest = lowest + (2 ** (53 - bits) - 1)
        matched = []  # the time row, then the frequency row
        for time, split in ((True, -2), (False, -1)):
            first = self.matched_codes(lowest, time)
            matched.append(np.where(first == self.matched_codes(highest, time), first, split))
        mismatch = np.full(2**bits, 2 * m * m, dtype=np.intp)
        self.table = np.concatenate([matched[0], mismatch, matched[1]])
        self.table.setflags(write=False)  # shared by every worker

    def matched_codes(self, n: np.ndarray, time) -> np.ndarray:
        """Codes of rounds whose parties chose the same basis, the time basis
        where ``time``, from their pair words' ``n = w >> 11`` (int64).
        ``ideal-delta`` gives both symbols ``min(floor(u*m), m-1)`` of the
        pair's uniform ``u``, ``sampled-jsa`` the basis CDF's
        ``searchsorted(cdf, u, "right")``."""
        m = self.m
        if self.cdf is None:
            symbol = np.minimum((n * 2.0**-53 * m).astype(np.intp), m - 1)
            return symbol * (m + 1) + time * (m * m)
        return np.searchsorted(self.cdf, n + time * 2**53, side="right")

    def lookup(
        self,
        limit: int,
        words_a: np.ndarray,
        words_b: np.ndarray,
        words_pair: np.ndarray,
        out: np.ndarray,
        index: np.ndarray,
    ) -> np.ndarray:
        """Each round's code as if no dark count touched it, into ``out``
        (intp; ``index`` is intp scratch of its size): a party chooses the
        frequency basis when its word lies below ``limit``
        (``_word_limit``), and the pair word's top bits pick the bucket.
        Only rounds in split buckets read the rest of their pair word."""
        rows = np.less(words_a, limit).view(np.uint8)
        rows += np.less(words_b, limit).view(np.uint8)
        np.right_shift(words_pair, 64 - self.bits, out=index.view(np.uint64))
        index += np.left_shift(rows, self.bits, out=out, dtype=np.intp)
        self.table.take(index, out=out, mode="clip")  # every index is in range
        split = np.flatnonzero(out < 0)
        if split.size:
            n = (words_pair[split] >> 11).astype(np.int64)
            out[split] = self.matched_codes(n, out[split] == -2)
        return out


@functools.lru_cache(maxsize=8)
def _ideal_code_table(m: int) -> _CodeTable:
    """``ideal-delta``'s code table at alphabet ``m``, built once per ``m``:
    it depends on nothing else, and at ``m = 16`` building it costs about
    as much as counting two default-channel shards."""
    return _CodeTable(m)


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
    if blocks[1] + blocks[3] == 0:  # every photon clicked: nothing more to draw,
        return w  # and copying w would touch every page
    z = _zero_truncated_dark_counts(rng, m, d, blocks[1] + blocks[3])
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


def _skip_words(bits: np.random.Philox, count: int) -> None:
    """Move ``bits`` past ``bits.random_raw(count)`` without drawing: whole
    4-word blocks are jumped with ``Philox.advance`` and the words either
    side come from the buffered block.  State, buffer and spare 32-bit half
    end as the draw leaves them."""
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


def _positioned_copy(bits: np.random.Philox) -> np.random.Philox:
    """A copy of the Philox generator ``bits``: it draws what ``bits`` would
    draw next."""
    copy = np.random.Philox(0)  # the state set next replaces this seed's
    copy.state = bits.state
    return copy


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
    codes: _CodeTable,
    tally: np.ndarray,
) -> np.ndarray:
    """Count ``n`` rounds into the int64 ``tally`` (laid out as in the
    module docstring) and return it."""
    rng = _shard_rng(config.seed, shard_index)
    bits = rng.bit_generator
    m = channel.m
    d = channel.dark_probability
    random_assign = config.multi_click_policy == "random-assign"

    # Live rounds per photon pattern, in contiguous blocks: both, sender's
    # only, receiver's only, none.  Dead rounds need no further draws.
    pattern = rng.multinomial(n, _pattern_probabilities(channel))[:4]
    both, a_only, b_only, neither = (int(count) for count in pattern)
    live = both + a_only + b_only + neither
    block = min(live, _BLOCK_ROUNDS)

    def run():
        """A draw of a block's share of ``rng``'s next ``live`` words.  One
        block holds them all, drawn now; otherwise a copy of ``rng``'s
        Philox positioned at their start draws them block by block, and
        ``rng`` skips them."""
        if live == block:
            words = bits.random_raw(live)
            return lambda size: words
        copy = _positioned_copy(bits)
        _skip_words(bits, live)
        return copy.random_raw

    # Fixed draw order over the live rounds.  Rounds no dark count touched
    # click once per side and register the pair's symbols, so every draw
    # after the dark counts is kept only at the ``special`` rounds.  A shard
    # without such rounds (every shard at ``d == 0``) passes over the
    # collision runs and makes none of those draws.
    basis_a = run()
    basis_b = run()
    touched = False
    if d > 0.0:
        clicks_a = _dark_counts(rng, (both + a_only, b_only + neither, 0, 0), m, d)
        clicks_b = _dark_counts(rng, (both, a_only, b_only, neither), m, d)
        special = np.flatnonzero(clicks_a | clicks_b)
        touched = special.size > 0
    if touched:
        clicks_a, clicks_b = clicks_a[special], clicks_b[special]
        runs = [run(), run()]  # the two collision runs
    else:
        _skip_words(bits, 2 * live)
    pair = run()

    # The click positions and assignment draws are the shard's last, so a
    # shard no dark count touched does not make them.
    if touched:
        registered_a = rng.integers(0, m, live, dtype=np.int32)[special]
        registered_b = rng.integers(0, m, live, dtype=np.int32)[special]
        if random_assign:
            runs += [run(), run()]  # the two assignment runs
            alt_a = rng.integers(0, m - 1, live, dtype=np.int32)[special]
            alt_b = rng.integers(0, m - 1, live, dtype=np.int32)[special]

    limit = _word_limit(config.basis_probability)
    cells = m * m
    buffers = np.empty((2, block), dtype=np.intp)
    for start in range(0, live, _BLOCK_ROUNDS):
        size = min(_BLOCK_ROUNDS, live - start)
        code, index = buffers[:, :size]
        codes.lookup(limit, basis_a(size), basis_b(size), pair(size), code, index)
        if touched:  # the block's slice of the sorted ``special`` rounds
            # Every run moves past the block's words, which are read only
            # at those rounds; a block without any is not resolved.
            words = [draw(size) for draw in runs]
            lo, hi = np.searchsorted(special, (start, start + size))
        if touched and lo < hi:
            rounds = special[lo:hi]
            at = rounds - start
            uniforms = [_uniforms(block_words[at]) for block_words in words]
            choice_a = choice_b = ()
            if random_assign:
                choice_a = (uniforms[2], alt_a[lo:hi])
                choice_b = (uniforms[3], alt_b[lo:hi])
            photon_a = rounds < both + a_only
            photon_b = (rounds < both) | ((rounds >= both + a_only) & (rounds < live - neither))
            # A code's quotient by m*m is 0 (both chose the frequency basis),
            # 1 (both the time basis) or 2 (mismatch); where the bases match,
            # its remainder is the pair's joint cell.
            sector, cell = np.divmod(code[at], cells)
            symbol_b, symbol_a = np.divmod(cell, m)
            clicks_at_a, cell_a = _resolve_side(
                photon_a, symbol_a, clicks_a[lo:hi], uniforms[0], registered_a[lo:hi], m,
                *choice_a,
            )
            clicks_at_b, cell_b = _resolve_side(
                photon_b, symbol_b, clicks_b[lo:hi], uniforms[1], registered_b[lo:hi], m,
                *choice_b,
            )
            code[at] = np.where(sector < 2, sector * cells + cell_b * m + cell_a, 2 * cells)
            if not random_assign:
                code[at[(clicks_at_a > 1) | (clicks_at_b > 1)]] = 2 * cells + 1
        _add_codes(tally, code)
    return tally


def _usable_cpus() -> int:
    """CPUs this process may run on: the size of its affinity set (which a
    container's CPU set narrows) where the platform has one, else the
    host's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
    if config.correlation_model == "ideal-delta":
        codes = _ideal_code_table(m)
    else:
        if frequency_distribution is None or time_distribution is None:
            raise ParameterError(
                "sampled-jsa simulation needs both basis distributions"
            )
        if frequency_distribution.basis != FREQUENCY_BASIS or time_distribution.basis != TIME_BASIS:
            raise ParameterError("distributions must come from the frequency and time bases")
        if frequency_distribution.m != channel.m or time_distribution.m != channel.m:
            raise ParameterError("distribution alphabet does not match the channel")
        distributions = (frequency_distribution, time_distribution)
        codes = _CodeTable(m, _integer_cdfs(map(_joint_cdf, distributions), m * m))

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
            _simulate_shard(*shard, config, channel, codes, tally)

    # A run of one shard, or of shards whose expected live rounds fit in one
    # block (too little work to hand to a thread), counts every shard on
    # this thread, into the ledger's one tally.  Otherwise each pool worker
    # counts the shards it takes into its own tally, and the tallies are
    # added once the pool has joined: at most one tally per worker is alive.
    live = config.shard_size * (1.0 - _pattern_probabilities(channel)[-1])
    workers = min(threads, _usable_cpus(), len(starts)) if live > _BLOCK_ROUNDS else 1
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
