"""Run-constrained block codes, encoded by unranking and decoded by ranking.

Three block codes live here.  The binary two-mode code alternates the
first bit against the previous block's last bit.  The state-independent
quaternary code gives every source index two codewords with different
first symbols and decodes from the received block alone; it is the
quaternary form of the two-mode code, and the two share one class.  The
state-dependent quaternary code keeps one codebook per encoder state
(the previous block's last symbol) holding only words that do not start
with that symbol; decoding needs the state as well.

Every codebook is a power-of-two set of max-run-m words indexed in
lexicographic order, so no table is stored (Cover's enumerative coding):
encoding finds the index-th codeword and decoding counts the codewords
below the received one, both by one walk down a graph of prefix states
whose edges carry codeword counts.  The graph has O(n * m) nodes, or
O(n**2 * m) for the state-dependent code, whose states also carry the
AT-content so far.  Each codec memoises its walks in a bounded LRU.

A block goes in as its index, a source_bits-bit int, and comes out as
the codeword's ASCII bytes: bases b"GCAT" for the quaternary codes,
digits b"01" for the binary one.  The encoder state is the previous
block's last byte, or None at stream start.  Decoding takes the bytes
the encoder emits: uppercase bases, or digits.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache

from . import counting
from .words import BASES

__all__ = [
    "MAX_BLOCK_BITS",
    "MEMO_SIZE",
    "StateDependentCode",
    "StateIndependentCode",
    "TwoModeRllCode",
    "check_block_size",
    "rate_state_dependent",
    "rate_state_independent",
    "rate_two_mode",
    "state_dependent_table_capacity",
]

# Encoder state at stream start: no previous symbol has been emitted.
STREAM_START = None

# Largest block of source bits: the one-byte pad trailer of the payload
# framing counts at most 255 pad bits.
MAX_BLOCK_BITS = 256

# Entries in each codec's encode and decode memo.  At 2**17 the memo
# holds every (state, index) pair of a 15-bit quaternary code.
MEMO_SIZE = 2**17

# Counting a code's words costs O(n) additions of n-bit ints: a few ms up
# to this length, seconds past it.  Up to it an oversize code is refused
# after counting, with its exact block size; past it, from a lower bound
# on the block size alone.
COUNTED_LENGTH = 4096


def _floor_log2(value: int) -> int:
    if value < 1:
        raise ValueError("value must be positive")
    return value.bit_length() - 1


def check_block_size(k: int) -> int:
    """k, or ValueError when k source bits are not a block the framing supports."""
    if not 1 <= k <= MAX_BLOCK_BITS:
        raise ValueError(
            f"block size {k} outside 1..{MAX_BLOCK_BITS} supported by the one-byte pad trailer"
        )
    return k


def _refuse_uncounted(q: int, m: int, n: int, carried_bits: int = 0) -> None:
    """Refuse a code past COUNTED_LENGTH whose block is too big by a bound from q, m and n.

    Both block codes take at least floor(log2 N_q(m, n)) - 1 source bits.
    For q = 4 every word without two equal neighbours counts, so
    N >= 4 * 3**(n-1), and log2(3) > 1.584; for q = 2 and m >= 2 the
    words with runs of at most two number 2 * F(n+1) >= phi**n, and
    log2(phi) > 0.694.
    """
    if n <= COUNTED_LENGTH:
        return
    if q == 4:
        least_log2 = 2 + 1584 * (n - 1) // 1000
    else:
        least_log2 = 694 * n // 1000 if m >= 2 else 1
    least_bits = least_log2 - 1 + carried_bits
    if least_bits > MAX_BLOCK_BITS:
        raise ValueError(
            f"block size at least {least_bits} outside 1..{MAX_BLOCK_BITS} supported by the"
            " one-byte pad trailer"
        )


class _Enumerator:
    """Lexicographic rank and unrank over the kept words of one block code.

    A node stands for every prefix with the same future: its length, last
    symbol and run, the AT-content so far when a weight window is set,
    and whether boundary words below it are kept.  It holds its children
    in lex order as (starts, symbols, children), where starts[k] counts
    the kept words under the smaller symbols, so unranking takes one
    bisect per symbol and ranking one lookup.  Children without kept
    words are left out, so a word that breaks the run limit, the window
    or the first-symbol rule has no path.

    With `unbalance` = D, the kept words are those with |2w - n| < D plus
    the boundary words (|2w - n| == D) from a given boundary rank on:
    the lexicographically smallest boundary words are the dropped ones.

    Symbol s is written as the byte alphabet[s], so words go out and come
    in as bytes; the graph itself works on symbol values.
    """

    def __init__(self, alphabet: bytes, m: int, n: int, unbalance: int | None = None):
        self.alphabet = alphabet
        self.q, self.m, self.n = len(alphabet), m, n
        self.unbalance = unbalance
        # Per node: (starts, symbol bytes, children) and the number of kept
        # words below it.  Node 0 is the complete kept word.
        self._steps: list[tuple] = [((), b"", ())]
        self._sizes = [1]
        # _levels[p] maps (last, run, weight, above) to the node of a length-p prefix.
        self._levels = [{} for _ in range(n + 1)]
        self._build()
        self.unrank = lru_cache(maxsize=MEMO_SIZE)(self._unrank)
        self.rank = lru_cache(maxsize=MEMO_SIZE)(self._rank)

    def _weight(self, symbol: int) -> int:
        # Only the window needs the weight; without one every prefix has weight 0.
        return symbol // (self.q // 2) if self.unbalance is not None else 0

    def _add(self, children: list[tuple[int, int | None]]) -> int | None:
        children = [(s, c) for s, c in children if c is not None]
        if not children:
            return None
        starts, total = [], 0
        for _, child in children:
            starts.append(total)
            total += self._sizes[child]
        self._steps.append((
            tuple(starts),
            bytes(self.alphabet[s] for s, _ in children),
            tuple(c for _, c in children),
        ))
        self._sizes.append(total)
        return len(self._sizes) - 1

    def _child(self, p: int, last: int, run: int, weight: int, above: bool, s: int):
        """Node reached by appending s to a length-p prefix, or None."""
        if s == last:
            if run == self.m:
                return None
            run += 1
        else:
            run = 1
        return self._levels[p + 1].get((s, run, weight + self._weight(s), above))

    def _build(self) -> None:
        q, m, n, d = self.q, self.m, self.n, self.unbalance
        if d is None:
            flags, low, high = (True,), 0, 0
        else:
            # Nodes with and without boundary words, and the final weights in the window.
            flags, low, high = (False, True), (n - d + 1) // 2, (n + d) // 2
        for w in range(low, high + 1):
            for above in flags:
                # A boundary word (|2w - n| == d) is kept only where boundary words are.
                if above or abs(2 * w - n) < d:
                    for s in range(q):
                        for run in range(1, min(m, n) + 1):  # no longer run fits in n
                            self._levels[n][(s, run, w, above)] = 0
        for p in range(n - 1, 0, -1):
            weights = range(max(0, low - (n - p)), min(p, high) + 1)
            level = self._levels[p]
            for last in range(q):
                for run in range(1, min(m, p) + 1):
                    for w in weights:
                        for above in flags:
                            node = self._add([
                                (s, self._child(p, last, run, w, above, s)) for s in range(q)
                            ])
                            if node is not None:
                                level[(last, run, w, above)] = node

    def root(self, first_symbols: tuple[int, ...], skip: int = 0) -> int:
        """Node of the empty prefix whose codewords start with first_symbols.

        skip drops that many boundary words, the lexicographically
        smallest; it needs a weight window.
        """
        if self.unbalance is None:
            if skip:
                raise ValueError("skipping boundary words needs a weight window")
            node = self._add([(s, self._child(0, None, 0, 0, True, s)) for s in first_symbols])
        else:
            node = self._boundary_chain(first_symbols, skip)
        if node is None:
            raise ValueError("no codewords start with these symbols")
        return node

    def _boundary_chain(self, first_symbols: tuple[int, ...], skip: int) -> int | None:
        """Root with the skip lexicographically smallest boundary words dropped.

        The first kept boundary word x is found by unranking skip over
        boundary counts alone.  Each prefix of x gets its own node: past
        it, smaller symbols lead to nodes without boundary words and
        larger ones to nodes with all of them.
        """

        def kept(p: int, key: tuple) -> int:
            node = self._levels[p].get(key)
            return 0 if node is None else self._sizes[node]

        word: list[int] = []
        prefixes: list[tuple] = [(None, 0, 0)]  # (last, run, weight) of x[:p]
        for p in range(self.n):
            last, run, weight = prefixes[-1]
            for s in first_symbols if p == 0 else range(self.q):
                if s == last and run == self.m:
                    continue
                key = (s, run + 1 if s == last else 1, weight + self._weight(s))
                count = kept(p + 1, key + (True,)) - kept(p + 1, key + (False,))
                if skip < count:
                    break
                skip -= count
            else:
                raise ValueError("skip exceeds the number of boundary words")
            word.append(s)
            prefixes.append(key)
        node = 0  # x itself is kept
        for p in range(self.n - 1, -1, -1):
            last, run, weight = prefixes[p]
            node = self._add([
                (s, node if s == word[p] else self._child(p, last, run, weight, s > word[p], s))
                for s in (first_symbols if p == 0 else range(self.q))
            ])
        return node

    def size(self, root: int) -> int:
        return self._sizes[root]

    def _unrank(self, root: int, index: int) -> bytes:
        if not 0 <= index < self._sizes[root]:
            raise ValueError(f"index {index} out of range")
        steps = self._steps
        word = bytearray(self.n)
        node = root
        for p in range(self.n):
            starts, symbols, children = steps[node]
            k = bisect_right(starts, index) - 1
            index -= starts[k]
            word[p] = symbols[k]
            node = children[k]
        return bytes(word)

    def _rank(self, root: int, word: bytes) -> int | None:
        """Index of word under root, or None when it is not a codeword there."""
        if len(word) != self.n:
            return None
        steps = self._steps
        index = 0
        node = root
        for s in word:
            starts, symbols, children = steps[node]
            k = symbols.find(s)
            if k < 0:
                return None
            index += starts[k]
            node = children[k]
        return index


def rate_two_mode(m: int, n: int) -> float:
    """Composite code rate (n - 1 + floor(log2 N_2(m,n))) / n in bits per symbol.

    Counts both the run-constrained plane's table bits and the n - 1
    free payload bits the companion plane contributes per block.
    """
    return (n - 1 + _floor_log2(counting.rll_count(2, m, n))) / n


def rate_state_independent(m: int, n: int) -> float:
    """Code rate (floor(log2 N_4(m,n)) - 1) / n in bits per symbol."""
    return (_floor_log2(counting.rll_count(4, m, n)) - 1) / n


def state_dependent_table_capacity(m: int, n: int) -> int:
    """Largest per-state table size: three quarters of the constrained count."""
    total = counting.rll_count(4, m, n)
    assert total % 4 == 0, "constrained quaternary count must be a multiple of 4"
    return 3 * (total // 4)


def rate_state_dependent(m: int, n: int) -> float:
    """Code rate floor(log2(3/4 * N_4(m,n))) / n in bits per symbol."""
    return _floor_log2(state_dependent_table_capacity(m, n)) / n


def _check_shape(m: int, n: int) -> None:
    if n < 1:
        raise ValueError("length must be at least 1")
    if m < 1:
        raise ValueError("maximum run must be at least 1")


class _TwoModeCode:
    """Block code with two codewords per index whose first symbols differ.

    Mode 0 holds the words that start in the lower half of the alphabet,
    mode 1 those that start in the upper half, each in lex order and cut
    to 2**source_bits words.  By symmetry each first symbol starts the
    same number of words, so the index-th words of the two modes always
    differ at the first symbol and one of them is safe to append to any
    previous block.  Decoding reads the mode off the first symbol and
    needs no state.

    carried_bits counts source bits that travel uncoded beside each block
    (construction2's high plane); the block size check covers them too.
    """

    alphabet: bytes
    kind: str
    weight_bound = None

    def __init__(self, m: int, n: int, carried_bits: int = 0):
        _check_shape(m, n)
        q = len(self.alphabet)
        _refuse_uncounted(q, m, n, carried_bits)
        total = counting.rll_count(q, m, n)
        if total < 2 * q:
            raise ValueError(f"too few constrained words for a {self.kind} code (m={m}, n={n})")
        self.m = self.max_run = m
        self.n = self.oligo_len = n
        self.source_bits = _floor_log2(total) - 1
        check_block_size(self.source_bits + carried_bits)
        self._keep = 2**self.source_bits
        self._per_symbol = total // q  # words per first symbol
        half = q // 2
        words = _Enumerator(self.alphabet, m, n)
        self._unrank, self._rank = words.unrank, words.rank
        self._roots = tuple(words.root(tuple(range(first, first + half))) for first in (0, half))
        self._root_of_first = {b: self._roots[s // half] for s, b in enumerate(self.alphabet)}

    def encode_block(self, value: int, state: int | None = STREAM_START) -> bytes:
        """The codeword of index value; picks the mode whose word may follow state."""
        if not 0 <= value < self._keep:
            raise ValueError(f"index {value} outside 0..2**{self.source_bits} - 1")
        # First symbol of the index-th mode-0 word; always 0 for the binary
        # code, as 2**source_bits <= N/2 words start with 0.
        mode_0_first = self.alphabet[value // self._per_symbol]
        mode = 1 if state == mode_0_first else 0
        return self._unrank(self._roots[mode], value)

    def decode_block(self, word: bytes, state: int | None = STREAM_START) -> int:
        # state is accepted for interface uniformity and ignored: the mode
        # is visible in the word's first symbol.
        root = self._root_of_first.get(word[0]) if word else None
        index = None if root is None else self._rank(root, word)
        if index is None or index >= self._keep:
            raise ValueError(f"not a codeword of this {self.kind} code")
        return index


class TwoModeRllCode(_TwoModeCode):
    """Binary two-mode code: no run crosses a block boundary.

    Its words are digit strings.  Mode 0 (words starting with 0) follows
    a block ending in 1, and vice versa.
    """

    alphabet, kind = b"01", "two-mode"


class StateIndependentCode(_TwoModeCode):
    """Quaternary two-mode code, decoded without state.

    Index i < N/4 maps to the i-th words starting with G (mode 0) and with
    A (mode 1), and i >= N/4 to the (i - N/4)-th words starting with C and T.
    """

    alphabet, kind = BASES, "state-independent"
    raw_bits = 0


def _pruning_boundary(m: int, n: int, drop: int) -> tuple[int, int]:
    """Unbalance D of the boundary words and how many of them are dropped.

    Dropping drop words of highest |2w - n| removes every word beyond D
    and r words at D.  A state's candidates are three quarters of the
    words at each unbalance: the relabelings G<->C, A<->T and G<->A,
    C<->T keep the unbalance and permute the first symbols.
    """
    by_unbalance: dict[int, int] = {}
    for w, count in enumerate(counting.weight_profile("quaternary", m, n).counts):
        u = abs(2 * w - n)
        by_unbalance[u] = by_unbalance.get(u, 0) + count
    for u in sorted(by_unbalance, reverse=True):
        assert by_unbalance[u] % 4 == 0, "first symbols must split each unbalance evenly"
        here = 3 * by_unbalance[u] // 4
        if drop < here:
            return u, drop
        drop -= here
    raise AssertionError("drop count exceeds the candidates")


class StateDependentCode:
    """Quaternary block code with one codebook per previous-last-symbol state.

    Codebook a holds only words that do not start with symbol a, in lex
    order.  It is pruned to a power of two by dropping the words of
    highest relative unbalance first (ties dropped in lexicographic
    order), per the freedom the construction leaves in discarding excess
    words: every kept word has |2w - n| < max_unbalance, or equals it and
    is not among the lexicographically first boundary words, so the code
    declares weight_bound = max_unbalance / 2.  Decoding needs the
    received block and the previous block's last symbol; the stream
    starts in state G.
    """

    alphabet = BASES
    raw_bits = 0

    def __init__(self, m: int, n: int):
        _check_shape(m, n)
        _refuse_uncounted(4, m, n)  # floor(log2(3/4 * N)) >= floor(log2 N) - 1
        capacity = state_dependent_table_capacity(m, n)
        self.m = self.max_run = m
        self.n = self.oligo_len = n
        self.source_bits = check_block_size(_floor_log2(capacity))  # capacity >= 3
        keep = 2**self.source_bits
        self.max_unbalance, skip = _pruning_boundary(m, n, capacity - keep)
        self.weight_bound = self.max_unbalance / 2
        words = _Enumerator(self.alphabet, m, n, unbalance=self.max_unbalance)
        self._unrank, self._rank = words.unrank, words.rank
        roots = [words.root(tuple(s for s in range(4) if s != state), skip) for state in range(4)]
        assert all(words.size(root) == keep for root in roots)
        self._roots = {STREAM_START: roots[0]} | dict(zip(self.alphabet, roots))

    def encode_block(self, value: int, state: int | None = STREAM_START) -> bytes:
        return self._unrank(self._roots[state], value)

    def decode_block(self, word: bytes, state: int | None = STREAM_START) -> int:
        index = self._rank(self._roots[state], word)
        if index is None:
            raise ValueError("not a codeword of this state-dependent code for this state")
        return index
