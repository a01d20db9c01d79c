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

Each live round gets one tally code: the sifted frequency-basis cell
``receiver * m + sender``, the sifted time-basis cell ``m*m`` further on,
the basis mismatch ``2*m*m`` or the discarded multi-click round ``2*m*m +
1``.  The ledger holds the codes its rounds got, sorted, and their counts,
so that what reads it costs the cells a run touched, not the ``2*m*m + 2``
it could: at the default channel a 2e6-round run at m = 256 touches about
400 of 131,074.  Its ``no_click`` count, the dead rounds, is its round
total minus the counts' sum.  A worker counts the codes block by block
(see below) into a dense int64 tally of length ``2*m*m + 2`` when the
tally is no longer than the live rounds the run expects (a noiseless run,
or a small alphabet), and otherwise keeps each block's distinct codes and
their counts, which it merges once.  Both modes give the same ledger.

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
calling thread, whatever the thread count.  Otherwise a pool of at most one
worker per usable CPU (and per shard) takes the shards one at a time as
each worker comes free; each worker counts its own shards, and the
workers' cells are merged once the pool has joined.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .detection import FREQUENCY_BASIS, TIME_BASIS, BinningScheme, OutcomeDistribution, TimeLens
from .detection import _dense, check_basis
from .errors import ParameterError, check_alphabet, is_int, refuse_boolean_floats
from .noise import ChannelModel, transmission
from .security import KeyRateBound, distribution_key_rate

_POLICIES = ("discard", "random-assign")
_MODELS = ("ideal-delta", "sampled-jsa")
# Largest alphabet simulated: a dense 2*m*m + 2 int64 tally, or the two
# joint count matrices a ledger builds on demand, take 1 GiB at this size.
_MAX_ALPHABET = 8192
# Largest round count and shard size: numpy's multinomial counts in int64.
_MAX_ROUNDS = 2**63 - 1
# Live rounds per block of a shard: a block's draws and tally codes stay in
# cache (see the module docstring).
_BLOCK_ROUNDS = 2**15
# Tally entries per live round the run expects, up to which its workers
# count into dense tallies rather than keep each block's distinct codes.
_TALLY_PER_LIVE_ROUND = 1.0


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
        if not is_int(self.rounds) or not 1 <= self.rounds <= _MAX_ROUNDS:
            raise ParameterError("rounds must be a positive integer up to 2**63 - 1")
        if not is_int(self.seed) or self.seed < 0:
            raise ParameterError("seed must be a non-negative integer")
        if not 0.0 <= self.basis_probability <= 1.0:
            raise ParameterError("basis probability must lie in [0, 1]")
        if self.multi_click_policy not in _POLICIES:
            raise ParameterError(f"unknown multi-click policy {self.multi_click_policy!r}")
        if self.correlation_model not in _MODELS:
            raise ParameterError(f"unknown correlation model {self.correlation_model!r}")
        if not is_int(self.shard_size) or not 1 <= self.shard_size <= _MAX_ROUNDS:
            raise ParameterError("shard size must be a positive integer up to 2**63 - 1")


@dataclass(frozen=True, eq=False)
class RoundLedger:
    """Outcome counts of a batch of rounds: the tally codes (laid out as in
    the module docstring) that at least one round got, sorted, in
    ``cells``, and how many rounds got each in ``counts``, both int64.

    Every round lands in exactly one of ``no_click``,
    ``multi_click_discarded``, ``basis_mismatch``, or ``sifted``, and sifted
    rounds split into ``correct`` plus ``incorrect``; the classes are
    counted once, when the ledger is made.  The joint count matrices (rows
    receiver, columns sender) are dense arrays built on each read.
    """

    m: int
    rounds: int
    cells: np.ndarray
    counts: np.ndarray
    no_click: int = field(init=False)
    multi_click_discarded: int = field(init=False)
    basis_mismatch: int = field(init=False)
    sifted: int = field(init=False)
    correct: int = field(init=False)

    def __post_init__(self) -> None:
        m, rounds, cells, counts = self.m, self.rounds, self.cells, self.counts
        check_alphabet(m, "tally alphabet size")
        if not is_int(rounds) or not 0 <= rounds <= _MAX_ROUNDS:
            raise ParameterError(
                f"tally round total must be an integer in [0, 2**63 - 1], got {rounds!r}"
            )
        size = 2 * m * m + 2
        for array in (cells, counts):
            if not isinstance(array, np.ndarray) or array.dtype != np.int64 or array.ndim != 1:
                raise ParameterError("tally cells and counts must be int64 vectors")
        if cells.shape != counts.shape:
            raise ParameterError("tally cells and counts must have one length")
        increasing = np.all(cells[1:] > cells[:-1])
        if cells.size and not (cells[0] >= 0 and cells[-1] < size and increasing):
            raise ParameterError(f"tally cells must be increasing codes in [0, 2*m*m + 2 = {size})")
        if cells.size and counts.min() < 1:
            raise ParameterError("tally counts must be positive")
        # An int64 sum of positive counts is exact unless it could pass 2**63.
        # Once the total is at most ``rounds``, every partial sum is exact.
        exact = counts.size * int(counts.max(initial=0)) < 2**63
        total = int(counts.sum()) if exact else sum(counts.tolist())
        if total > rounds:
            raise ParameterError("tally counts more rounds than the round total")
        cells.setflags(write=False)
        counts.setflags(write=False)
        # The sifted cells come first; the mismatch and discard codes, each
        # there or not, after them.
        end = int(np.searchsorted(cells, 2 * m * m))
        tail = dict(zip((cells[end:] - 2 * m * m).tolist(), counts[end:].tolist()))
        diagonal = cells[:end] % (m * m) % (m + 1) == 0  # receiver == sender
        classes = {
            "no_click": rounds - total,
            "basis_mismatch": tail.get(0, 0),
            "multi_click_discarded": tail.get(1, 0),
            "sifted": int(counts[:end].sum()),
            "correct": int(counts[:end][diagonal].sum()),
        }
        for name, value in classes.items():
            object.__setattr__(self, name, value)

    def basis_cells(self, basis: str) -> tuple[np.ndarray, np.ndarray]:
        """The sifted cells of one basis, as flat indices ``receiver * m +
        sender`` of its joint count matrix, and their counts."""
        check_basis(basis)
        offset = 0 if basis == FREQUENCY_BASIS else self.m * self.m
        lo, hi = np.searchsorted(self.cells, (offset, offset + self.m * self.m))
        return self.cells[lo:hi] - offset, self.counts[lo:hi]

    @property
    def joint_counts_frequency(self) -> np.ndarray:
        return _dense(self.m, *self.basis_cells(FREQUENCY_BASIS))

    @property
    def joint_counts_time(self) -> np.ndarray:
        return _dense(self.m, *self.basis_cells(TIME_BASIS))

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
    """The CDF of a distribution over its cells, in their order, the last
    value exactly 1.  A zero entry adds an exact 0 to a running sum, so at
    each cell it is the CDF over the whole m x m matrix."""
    cdf = np.cumsum(distribution.values)
    return cdf / cdf[-1]


def _integer_cdfs(frequency: np.ndarray, time: np.ndarray) -> np.ndarray:
    """``ceil(cdf * 2**53)`` of the frequency and then the time basis's
    CDF (each ending at exactly 1), in int64, the time basis's ``2**53``
    higher.

    Scaling by ``2**53`` is exact, so a CDF value is at most the uniform
    ``n * 2**-53`` exactly when its entry is at most ``n``.  Searching
    ``n + 2**53`` passes every frequency entry, which end at ``2**53``, so
    it returns the time basis's index plus ``frequency.size``.
    """
    out = np.concatenate([np.ceil(cdf * 2.0**53).astype(np.int64) for cdf in (frequency, time)])
    out[frequency.size :] += 2**53
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
    ``_integer_cdfs`` and ``codes`` the tally code of each of its entries
    (``_jsa_code_table``), or both None for ``ideal-delta``.
    """

    def __init__(self, m: int, cdf: np.ndarray | None = None, codes: np.ndarray | None = None):
        self.m = m
        self.cdf = cdf
        self.codes = codes
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
        pair's uniform ``u``, ``sampled-jsa`` the code of the basis CDF's
        ``searchsorted(cdf, u, "right")``."""
        m = self.m
        if self.cdf is None:
            symbol = np.minimum((n * 2.0**-53 * m).astype(np.intp), m - 1)
            return symbol * (m + 1) + time * (m * m)
        return self.codes[np.searchsorted(self.cdf, n + time * 2**53, side="right")]

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


def _jsa_code_table(frequency: OutcomeDistribution, time: OutcomeDistribution) -> _CodeTable:
    """``sampled-jsa``'s code table: the CDFs over both distributions'
    cells, each index the code of its cell (the time basis's ``m*m``
    further on)."""
    m = frequency.m
    cdf = _integer_cdfs(_joint_cdf(frequency), _joint_cdf(time))
    return _CodeTable(m, cdf, np.concatenate([frequency.cells, time.cells + m * m]))


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


def _merge(parts: list) -> tuple[np.ndarray, np.ndarray]:
    """The cells and counts of several ``(cells, counts)`` parts, each with
    sorted distinct cells: every cell any part has, sorted, and the sum of
    its counts."""
    if len(parts) == 1:
        return parts[0]
    cells = np.concatenate([np.empty(0, np.int64), *(part[0] for part in parts)])
    counts = np.concatenate([np.empty(0, np.int64), *(part[1] for part in parts)])
    order = np.argsort(cells)
    cells = cells[order]
    first = np.flatnonzero(np.diff(cells, prepend=-1))
    return cells[first], np.add.reduceat(counts[order], first)


def _simulate_shard(
    shard_index: int,
    n: int,
    config: SimulationConfig,
    channel: ChannelModel,
    codes: _CodeTable,
    count,
) -> None:
    """Simulate ``n`` rounds, handing each block's tally codes (laid out as
    in the module docstring, intp) to ``count``, which must not keep the
    array: the next block overwrites it."""
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
        count(code)


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
    if not is_int(threads) or threads < 1:
        raise ParameterError("threads must be a positive integer")
    m = channel.m
    if m > _MAX_ALPHABET:
        raise ParameterError(
            f"alphabet size {m} exceeds {_MAX_ALPHABET}: a dense 2*m*m + 2 int64 "
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
        codes = _jsa_code_table(frequency_distribution, time_distribution)

    starts = range(0, config.rounds, config.shard_size)
    # Lazy: a round count of 2**63 - 1 makes too many shards to list.
    shards = ((i, min(config.shard_size, config.rounds - start)) for i, start in enumerate(starts))

    take = threading.Lock()
    size = 2 * m * m + 2
    # A run's tally codes are counted densely when its tally is no longer
    # than the live rounds the run expects (see the module docstring).
    live = 1.0 - _pattern_probabilities(channel)[-1]
    dense = size <= _TALLY_PER_LIVE_ROUND * live * config.rounds

    def count() -> tuple[np.ndarray, np.ndarray]:
        """The cells and counts of the shards this worker counts, taking the
        next shard not yet taken until none is left."""
        if dense:
            tally = np.zeros(size, dtype=np.int64)
            add = functools.partial(_add_codes, tally)
        else:
            blocks = []

            def add(code):
                blocks.append(np.unique(code, return_counts=True))

        while True:
            with take:
                shard = next(shards, None)
            if shard is None:
                break
            _simulate_shard(*shard, config, channel, codes, add)
        if dense:
            cells = np.flatnonzero(tally)
            return cells, tally[cells]
        return _merge(blocks)

    # A run of one shard, or of shards whose expected live rounds fit in one
    # block (too little work to hand to a thread), counts every shard on
    # this thread.  Otherwise each pool worker counts the shards it takes,
    # and the workers' cells are merged once the pool has joined: at most
    # one tally per worker is alive.
    pooled = config.shard_size * live > _BLOCK_ROUNDS
    workers = min(threads, _usable_cpus(), len(starts)) if pooled else 1
    if workers == 1:
        return RoundLedger(m, config.rounds, *count())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(count) for _ in range(workers)]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            with take:
                shards.close()  # a failed or interrupted run takes no further shard
    return RoundLedger(m, config.rounds, *_merge([future.result() for future in futures]))


def empirical_distribution(ledger: RoundLedger, basis: str) -> OutcomeDistribution:
    """Relative frequencies of one basis's sifted joint counts, at its cells.

    Raises when that basis saw no sifted rounds.
    """
    cells, counts = ledger.basis_cells(basis)
    n = int(counts.sum())
    if n == 0:
        raise ParameterError(f"no sifted rounds in the {basis} basis")
    return OutcomeDistribution._from_cells(basis, ledger.m, cells, counts / n)


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
    """Key-rate bound computed from the simulated joint counts:
    ``distribution_key_rate`` of both bases' ``empirical_distribution``."""
    frequency, time = (empirical_distribution(ledger, b) for b in (FREQUENCY_BASIS, TIME_BASIS))
    return distribution_key_rate(frequency, time, binning, lens, reconciliation_efficiency)
