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
whose edges carry codeword counts.  A state holds only what the code
constrains: the run when m < n, so the graph has O(n * m) nodes (O(n)
when m >= n), and for the state-dependent code also the AT-content and
whether its dropped boundary words lie below (O(n**2 * m) nodes).  The
first few symbols of a word are one row of a per-root head table and
the last few one entry of a per-node table, so only the symbols between
them, in words longer than 8 bases or 16 digits, are walked one at a
time.  A short word, of at most 8 bases or 16 digits, is one head row
and one end, so a short code stores its kept words instead: on its
first encode, one list of words per distinct encoder head, so a block
is one index into its state's list; and the state-free two-mode codes,
on their first decode, one dict from each kept word to its index's
digits.  The heads share their words: a head row's words are made once.
Both are sized by the code, never by what it has coded, and nothing
else is memoised.

A code's block size is one rule on word counts alone, which builds no
graph and refuses a shape without a code: `two_mode_bits` and
`state_dependent_bits`.  The constructors and `cli`'s efficiency tables
read it.

The codes speak the batch protocol of `constructions`.  A codeword is
ASCII bytes over one of two alphabets: bases b"GCAT" for the quaternary
codes, digits b"01" for the binary one, and the state is the previous
block's last byte.  `BlockCode._blocks` cuts a batch numeral into its
blocks by one check that it is whole blocks of binary digits and one
struct unpack.  The codes read a batch's blocks as ints in one
conversion (`words.digits_to_ints`), run the whole batch in one loop,
picking each block's root from the state, and write the indices back as
one numeral (`words.ints_to_digits`).
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable
from functools import cached_property, partial
from itertools import chain, product
from struct import unpack

from . import counting
from .words import BASES, digits_to_ints, int_to_digits, ints_to_digits, max_run

__all__ = [
    "BlockCode",
    "MAX_BLOCK_BITS",
    "StateDependentCode",
    "StateIndependentCode",
    "TwoModeRllCode",
    "check_block_size",
    "state_dependent_bits",
    "two_mode_bits",
]

# Encoder state at stream start: no previous symbol has been emitted.
STREAM_START = None

# Largest block of source bits: the one-byte pad trailer of the payload
# framing counts at most 255 pad bits.
MAX_BLOCK_BITS = 256

# Counting a code's words costs O(n) additions of n-bit ints: a few ms up
# to this length, seconds past it.  Up to it an oversize code is refused
# after counting, with its exact block size; past it, from a lower bound
# on the block size alone.
COUNTED_LENGTH = 4096


class BlockCode:
    """The single-block protocol of a code that implements the batch one.

    A subclass defines encode_blocks(digits, state) -> list of codewords
    and decode_blocks(words, state) -> the numeral of their indices; a
    block is coded as a batch of one, so there is one coding path.  Here
    a block's index is an int, and one outside 0..2**source_bits - 1 is
    refused.

    A batch numeral is cut by _blocks, by the struct layout of one block:
    its source_bits digits whole, unless a code sets its own _layout.
    """

    raw_bits = 0  # trailing source bits left uncoded; a plane codec sets its own

    @cached_property
    def _layout(self) -> str:
        return f"{self.source_bits}s"

    def _blocks(self, digits: bytes) -> tuple[bytes, ...]:
        """The pieces of a batch numeral's blocks; ValueError unless bytes, k binary digits each."""
        k = self.source_bits
        try:
            stray = digits.translate(None, b"01")
        except (AttributeError, TypeError):  # a str, or anything else without bytes' translate
            stray = True
        if stray or len(digits) % k:
            raise ValueError(f"not a block of {k} binary digits")
        return unpack(self._layout * (len(digits) // k), digits)

    def encode_block(self, value: int, state: int | None = STREAM_START) -> bytes:
        k = self.source_bits
        if not 0 <= value < 1 << k:
            raise ValueError(f"index {value} outside 0..2**{k} - 1")
        return self.encode_blocks(int_to_digits(value, k), state)[0]

    def decode_block(self, word: bytes, state: int | None = STREAM_START) -> int:
        return int(self.decode_blocks([word], state), 2)


def check_block_size(k: int) -> int:
    """k, or ValueError when k source bits are not a block the framing supports."""
    if not 1 <= k <= MAX_BLOCK_BITS:
        raise ValueError(
            f"block size {k} outside 1..{MAX_BLOCK_BITS} supported by the one-byte pad trailer"
        )
    return k


def _refuse_shape(q: int, m: int, n: int, carried_bits: int = 0) -> None:
    """Refuse a length or run below 1, and past COUNTED_LENGTH a block too big by a bound.

    Both block codes take at least floor(log2 N_q(m, n)) - 1 source bits.
    For q = 4 every word without two equal neighbours counts, so
    N >= 4 * 3**(n-1), and log2(3) > 1.584; for q = 2 and m >= 2 the
    words with runs of at most two number 2 * F(n+1) >= phi**n, and
    log2(phi) > 0.694.
    """
    if n < 1:
        raise ValueError("length must be at least 1")
    if m < 1:
        raise ValueError("maximum run must be at least 1")
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

    A node stands for every prefix of its length with the same future.
    Its key holds only what the code constrains: the last symbol and its
    run when m < n, the AT-content so far under a weight window, and,
    when boundary words are dropped, whether those below it are kept; a
    part left free stays constant.  A level holds the keys reached from
    the empty prefix that can still end inside the window.  A node holds
    its children in lex order as (starts, symbols, children), where
    starts[k] counts the kept words under the smaller symbols, so
    unranking takes one bisect per symbol and ranking one lookup.
    Children without kept words are left out, so a word that breaks the
    run limit, the window or the first-symbol rule has no path.

    A word is read in three parts, h the largest length below n with
    q**h <= 256 (4 bases, 8 digits), so a table of h symbols has at most
    256 rows.  A node at most h symbols from the end holds its ends, its
    kept suffixes in order: each child's ends behind its symbol (node
    0's one end is b"").  A node h symbols from the end, at the cut, also
    holds their places in a dict, shared by all cut nodes of equal ends.
    A word's first j = min(h, n - h) symbols are a row of the root's
    head table (see head).  Only the symbols in between, of words longer
    than 2h, are walked one at a time: a word of up to 2h symbols is
    unranked by one bisect in the head table and one read of the ends,
    and ranked by two dict gets.

    Such a word has no middle (_cut == _j), so every word under a root
    is a head row's prefix and one of its node's ends, so the rows list
    them all (`_word_lists`).  `unranker` then reads a batch from
    those lists, a block one index, and `numerals` gives a dict from
    each word to its index's digits.  A code binds both once, on first
    use; their size is set by the code (at most 256 rows of 256 ends a
    root), and the graph memoises nothing, so the memory a code takes
    does not depend on the words it has coded.

    With `unbalance` = D, every root keeps its words with |2w - n| <= D
    but the `skip` lexicographically smallest of its boundary words
    (|2w - n| == D); only a root that drops some needs a boundary chain.

    Symbol s is written as the byte alphabet[s], so words go out and come
    in as bytes; the graph itself works on symbol values.
    """

    _START = (None, 0, 0, True)  # the empty prefix's key: (last, run, weight, above)

    def __init__(
        self, alphabet: bytes, m: int, n: int, unbalance: int | None = None, skip: int = 0
    ):
        if skip and unbalance is None:
            raise ValueError("skipping boundary words needs a weight window")
        self.alphabet = alphabet
        q = len(alphabet)
        self.q, self.m, self.n = q, m, n
        self.unbalance, self._skip = unbalance, skip
        self._runs = m < n
        # What each symbol adds to the weight: its AT-content, under a window.
        self._weights = bytes(s // (q // 2) if unbalance is not None else 0 for s in range(q))
        h = 0
        while q ** (h + 1) <= 256 and h < n - 1:
            h += 1
        self._cut = n - h  # where the ends start
        self._j = min(h, n - h)  # length of the head tables' prefixes
        # Per node: (starts, symbol bytes, children) and the number of kept
        # words below it.  Node 0 is the complete kept word.
        self._steps: list[tuple] = [((), b"", ())]
        self._sizes = [1]
        # Per node from the cut on: its ends, and at the cut their places;
        # each (symbol, child) pair's ends behind the symbol, and each distinct
        # cut ends with their places (kept past the build for _boundary_chain).
        self._ends: dict[int, tuple[bytes, ...]] = {}
        self._end_index: dict[int, dict[bytes, int]] = {}
        self._prefixed, self._shared = {}, {}
        self._keep_ends(0, n, (b"",))
        # _levels[p] maps the key of a length-p prefix, 0 < p <= n, to its node.
        self._levels = [{} for _ in range(n + 1)]
        # The graph holds no reference cycle, so the cyclic collector's
        # passes over the young nodes during the build would free nothing.
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._build()
        finally:
            if collecting:
                gc.enable()

    def _add(self, p: int, children: Iterable[tuple[int, int | None]]) -> int | None:
        """A length-p prefix's node over these (symbol, child) pairs (None: left out), or None."""
        children = [(s, c) for s, c in children if c is not None]
        if not children:
            return None
        sizes, starts, total = self._sizes, [], 0
        for _, child in children:
            starts.append(total)
            total += sizes[child]
        symbols, nodes = zip(*children)
        self._steps.append((tuple(starts), bytes(map(self.alphabet.__getitem__, symbols)), nodes))
        sizes.append(total)
        node = len(sizes) - 1
        if p >= self._cut:
            prefixed, ends = self._prefixed, self._ends
            for s, child in children:
                if (s, child) not in prefixed:
                    prefixed[s, child] = tuple(map(self.alphabet[s : s + 1].__add__, ends[child]))
            self._keep_ends(node, p, tuple(chain.from_iterable(map(prefixed.__getitem__, children))))
        return node

    def _keep_ends(self, node: int, p: int, ends: tuple[bytes, ...]) -> None:
        """Give a length-p prefix's node its ends; at the cut, shared by equal ends, with places."""
        if p == self._cut:
            if (held := self._shared.get(ends)) is None:
                held = self._shared[ends] = ends, dict(zip(ends, range(len(ends))))
            ends, self._end_index[node] = held
        self._ends[node] = ends

    def _step(self, key: tuple, s: int) -> tuple | None:
        """The key of a prefix of this key with s appended, or None when s breaks the run limit."""
        last, run, weight, above = key
        if self._runs:
            run = run + 1 if s == last else 1
            if run > self.m:
                return None
            last = s
        return last, run, weight + self._weights[s], above

    def _build(self) -> None:
        n, q, d, step = self.n, self.q, self.unbalance, self._step
        symbols = range(q)
        low, high = (0, n) if d is None else ((n - d + 1) // 2, (n + d) // 2)
        # Forward from the empty prefix, with boundary words (and without, when
        # some are dropped).  edges[p] holds the keys of length p and their
        # child keys, q a key in symbol order: None past the run limit or where
        # no end inside the window is left.  reached keeps one copy of each key.
        keys = dict.fromkeys([self._START, self._START[:3] + (not self._skip,)])
        edges = []
        for p in range(1, n + 1):
            least, reached = low - (n - p), {}
            children = [reached.setdefault(c, c) if (c := step(key, s)) and least <= c[2] <= high
                        else None for key in keys for s in symbols]
            edges.append((keys, children))
            keys = reached
        # A boundary word (|2w - n| == d) is kept only where boundary words are.
        self._levels[n] = {key: 0 for key in keys if key[3] or abs(2 * key[2] - n) < d}
        # Backward: a node for each key with kept words.
        for p in range(n - 1, 0, -1):
            keys, children = edges[p]
            nodes, level = map(self._levels[p + 1].get, children), self._levels[p]
            for key, row in zip(keys, zip(*[nodes] * q)):  # q children a key
                node = self._add(p, zip(symbols, row))
                if node is not None:
                    level[key] = node

    def root(self, first_symbols: tuple[int, ...]) -> int:
        """Node of the empty prefix whose kept words start with first_symbols."""
        if self._skip:
            node = self._boundary_chain(first_symbols)
        else:
            children = [(s, self._step(self._START, s)) for s in first_symbols]
            node = self._add(0, [(s, self._levels[1].get(c)) for s, c in children])
        if node is None:
            raise ValueError("no codewords start with these symbols")
        return node

    def _boundary_chain(self, first_symbols: tuple[int, ...]) -> int | None:
        """Root with the skip lexicographically smallest boundary words dropped.

        The first kept boundary word x is found by unranking skip over
        boundary counts alone.  Each prefix of x gets its own node: past
        it, smaller symbols lead to nodes without boundary words and
        larger ones to nodes with all of them.
        """
        levels, sizes, skip = self._levels, self._sizes, self._skip

        def kept(p: int, key: tuple, above: bool) -> int:
            node = levels[p].get(key[:3] + (above,))
            return 0 if node is None else sizes[node]

        key, symbols = self._START, first_symbols
        chain = []  # per prefix of x: its (symbol, child key) pairs and x's next symbol
        for p in range(1, self.n + 1):
            children = [(s, c) for s in symbols if (c := self._step(key, s)) is not None]
            for s, key in children:  # key ends as the key of x[:p]
                count = kept(p, key, True) - kept(p, key, False)
                if skip < count:
                    break
                skip -= count
            else:
                raise ValueError("skip exceeds the number of boundary words")
            chain.append((children, s))
            symbols = range(self.q)
        node = 0  # x itself is kept
        for p in range(self.n - 1, -1, -1):
            children, x = chain[p]
            node = self._add(p, [
                (s, node if s == x else levels[p + 1].get(c[:3] + (s > x,))) for s, c in children
            ])
        return node

    def size(self, root: int) -> int:
        return self._sizes[root]

    def head(self, root: int) -> tuple[tuple[int, ...], tuple[bytes, ...], tuple[int, ...]]:
        """The head table of root: its kept prefixes of the head length, in walk order.

        It is (starts, prefixes, nodes): the words under a prefix start
        at its start, and its walk lands on its node.  The starts rise,
        so one bisect finds the prefix of an index.
        """
        rows = [(0, b"", root)]
        for _ in range(self._j):
            rows = [
                (start + below, prefix + bytes((symbol,)), child)
                for start, prefix, node in rows
                for below, symbol, child in zip(*self._steps[node])
            ]
        return tuple(zip(*rows))

    @staticmethod
    def by_prefix(*heads: tuple) -> dict[bytes, tuple[int, int]]:
        """Each prefix of these head tables to its (start, node), for ranking."""
        return {prefix: (start, node) for head in heads for start, prefix, node in zip(*head)}

    def unrank_blocks(self, heads: dict, values: Iterable[int], state) -> list[bytes]:
        """The word of each index under the head table of its state.

        heads maps a state to a head table; the first index takes
        heads[state], and each next one that of the last byte of the
        word before it.  Every index must lie below its root's size.
        """
        steps, ends = self._steps, self._ends
        middle = range(self._cut - self._j)
        words: list[bytes] = []
        append = words.append
        for value in values:
            starts, prefixes, nodes = heads[state]
            k = bisect_right(starts, value) - 1
            index = value - starts[k]
            node = nodes[k]
            word = prefixes[k]
            walked = bytearray()
            for _ in middle:
                below, symbols, children = steps[node]
                k = bisect_right(below, index) - 1
                index -= below[k]
                walked.append(symbols[k])
                node = children[k]
            word += walked
            word += ends[node][index]
            append(word)
            state = word[-1]
        return words

    def _word_lists(self, heads: Iterable[tuple], count: int) -> dict[tuple, list[bytes]]:
        """Each of these head tables to the first count words under its root, in index order.

        For words without a middle: a row's words are its prefix before
        each end of its node, made once for all the heads that hold the
        row, so those heads share the words; rows past count are skipped.
        """
        ends = self._ends
        rows: dict[tuple[bytes, int], list[bytes]] = {}
        lists: dict[tuple, list[bytes]] = {}
        for head in heads:
            starts, prefixes, nodes = head
            listed: list[bytes] = []
            for row in zip(prefixes[: bisect_left(starts, count)], nodes):
                if row not in rows:
                    prefix, node = row
                    rows[row] = [prefix + end for end in ends[node]]
                listed += rows[row]
            lists[head] = listed[:count]  # a copy of its own length, without the growth slack
        return lists

    def unranker(self, heads: dict, count: int) -> Callable[[Iterable[int], object], list[bytes]]:
        """unrank_blocks over heads as a function of (values, state), for indices below count.

        Words without a middle are read from lists instead: each distinct
        head's first count words, a block the item of its index in its
        state's list.
        """
        if self._cut > self._j:
            return partial(self.unrank_blocks, heads)
        made = self._word_lists(set(heads.values()), count)
        lists = {state: made[head] for state, head in heads.items()}

        def unrank_lists(values: Iterable[int], state) -> list[bytes]:
            words: list[bytes] = []
            append = words.append
            for value in values:
                word = lists[state][value]
                append(word)
                state = word[-1]
            return words

        return unrank_lists

    def numerals(self, roots: Iterable[int], k: int) -> dict[bytes, bytes] | None:
        """Each of the first 2**k words under each root to its index's k binary digits.

        None for words with a middle, whose table would grow as q**n.
        Every k-digit numeral, in order, is each high half before each low half.
        """
        if self._cut > self._j:
            return None
        half = k // 2
        high = list(map(bytes, product(b"01", repeat=half)))
        low = list(map(bytes, product(b"01", repeat=k - half)))
        pieces = [first + last for first in high for last in low]
        table: dict[bytes, bytes] = {}
        for listed in self._word_lists([self.head(root) for root in roots], 1 << k).values():
            table.update(zip(listed, pieces))
        return table

    def rank_blocks(self, heads: dict, words: list[bytes], state) -> list[int]:
        """The index of each word by the by_prefix dict of its state, up to the first refused word.

        heads maps a state to a by_prefix dict, threaded as in
        unrank_blocks.  A word that is not kept under its root (of
        another length, a byte outside the alphabet, no path, an item
        that is not bytes) ends the list: it is the word at the list's
        length.
        """
        steps, end_index, j, cut = self._steps, self._end_index, self._j, self._cut
        middle = cut > j
        indices: list[int] = []
        append = indices.append
        try:
            for word in words:
                index, node = heads[state][word[:j]]
                if middle:
                    for s in word[j:cut]:
                        below, symbols, children = steps[node]
                        k = symbols.index(s)
                        index += below[k]
                        node = children[k]
                # Only cut nodes have places, for ends of h bytes, so no other length has one.
                append(index + end_index[node][word[cut:]])
                state = word[-1]
        except (KeyError, TypeError, ValueError):  # TypeError: an unhashable item, a bytearray
            pass
        return indices


def two_mode_bits(q: int, m: int, n: int, carried_bits: int = 0) -> int:
    """Source bits of the two-mode code over q symbols: floor(log2 N_q(m, n)) - 1.

    Each mode holds the N/2 words that start in its half of the alphabet.
    ValueError for a shape without a code: fewer than 2q words, or a
    block that, with carried_bits beside it, the framing does not support.
    """
    _refuse_shape(q, m, n, carried_bits)
    total = counting.rll_count(q, m, n)
    if total < 2 * q:
        kind = "two-mode" if q == 2 else "state-independent"
        raise ValueError(f"too few constrained words for a {kind} code (m={m}, n={n})")
    bits = total.bit_length() - 2
    check_block_size(bits + carried_bits)
    return bits


def state_dependent_bits(m: int, n: int) -> int:
    """Source bits of the state-dependent code: floor(log2(3/4 * N_4(m, n))).

    A state's codebook holds the three quarters of the words that do not
    start with its symbol.  ValueError for a shape without a code.
    """
    _refuse_shape(4, m, n)  # floor(log2(3/4 * N)) >= floor(log2 N) - 1
    total = counting.rll_count(4, m, n)
    assert total % 4 == 0, "constrained quaternary count must be a multiple of 4"
    return check_block_size((3 * (total // 4)).bit_length() - 1)  # 3/4 * N >= 3


_NO_STATE = "state {!r} is neither None nor an uppercase base"


class _TwoModeCode(BlockCode):
    """Block code with two codewords per index whose first symbols differ.

    Mode 0 holds the words that start in the lower half of the alphabet,
    mode 1 those that start in the upper half, each in lex order and cut
    to 2**source_bits words.  By symmetry each first symbol starts the
    same number of words, so the index-th words of the two modes always
    differ at the first symbol and one of them is safe to append to any
    previous block.  Decoding reads the mode off the first symbol and
    needs no state.

    The encoder keeps one root per state: after a block that ends in
    symbol s, the mode-0 root, with the child of s swapped for its
    mode-1 twin of the same size if s is a mode-0 symbol, so the head
    table's starts still rise.  A state that is no symbol (None at stream start)
    selects mode 0.  The decoder ranks a word within its mode: the two
    modes' head-table prefixes differ in the first symbol, so one dict
    holds both.  A short code decodes by one get per word in a dict of
    both modes' kept words (`_Enumerator.numerals`), built on its first
    decode; a word the dict misses is ranked, and ranking says why it is
    refused.

    carried_bits counts source bits that travel uncoded beside each block
    (construction2's high plane); the block size check covers them too.
    """

    alphabet: bytes
    kind: str
    weight_bound = None

    def __init__(self, m: int, n: int, carried_bits: int = 0):
        q = len(self.alphabet)
        self.source_bits = two_mode_bits(q, m, n, carried_bits)
        self.m = self.max_run = m
        self.n = self.oligo_len = n
        self._keep = 2**self.source_bits
        half = q // 2
        words = _Enumerator(self.alphabet, m, n)
        self._words = words
        self._roots = tuple(words.root(tuple(range(first, first + half))) for first in (0, half))
        modes = [words.head(root) for root in self._roots]
        self._encode_heads = {STREAM_START: modes[0]} | {
            b: words.head(words.root(tuple(t + half if t == s else t for t in range(half))))
            if s < half else modes[0]
            for s, b in enumerate(self.alphabet)
        }
        self._decode_heads = dict.fromkeys([STREAM_START, *self.alphabet], words.by_prefix(*modes))

    @cached_property
    def _unrank(self) -> Callable:
        return self._words.unranker(self._encode_heads, self._keep)

    @cached_property
    def _numerals(self) -> dict[bytes, bytes] | None:
        return self._words.numerals(self._roots, self.source_bits)

    def encode_blocks(self, digits: bytes, state: int | None = STREAM_START) -> list[bytes]:
        """The codewords of the indices; each picks the mode whose word may follow the state."""
        values = digits_to_ints(self._blocks(digits), self.source_bits)
        return self._unrank(values, state if state in self._encode_heads else STREAM_START)

    def decode_blocks(self, words: list[bytes], state: int | None = STREAM_START) -> bytes:
        # state is accepted for interface uniformity and ignored: the mode
        # is visible in each word's first symbol.
        numerals = self._numerals
        if numerals is not None:
            try:
                return b"".join(map(numerals.__getitem__, words))
            except (KeyError, TypeError):  # a word it does not hold: ranking says why
                pass
        indices = self._words.rank_blocks(self._decode_heads, words, STREAM_START)
        keep = self._keep
        if len(indices) < len(words) or (indices and max(indices) >= keep):
            message = f"not a codeword of this {self.kind} code"
            past = next((index for index in indices if index >= keep), None)
            if past is not None:
                message += f": its index {past} is past the kept range 0..{keep - 1}"
            raise ValueError(message)
        return ints_to_digits(indices, self.source_bits)


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


def _pruning_boundary(m: int, n: int, keep: int) -> tuple[int, int]:
    """Unbalance D of the boundary words and how many of them are dropped.

    Keeping a state's keep candidates of lowest |2w - n| keeps every word
    below D and all but r words at D.  A state's candidates are three
    quarters of the words at each unbalance: the relabelings G<->C, A<->T
    and G<->A, C<->T keep the unbalance and permute the first symbols.
    The weight row is symmetric, so the walk goes outward from the middle:
    unbalance u holds the words of weights (n - u)/2 and (n + u)/2.
    """
    counts = counting.weight_profile("quaternary", m, n).counts
    kept = 0
    for u in range(n % 2, n + 1, 2):
        words = counts[(n - u) // 2] + (counts[(n + u) // 2] if u else 0)
        assert words % 4 == 0, "first symbols must split each unbalance evenly"
        kept += 3 * words // 4
        if kept >= keep:
            return u, kept - keep
    raise AssertionError("keep count exceeds the candidates")


class StateDependentCode(BlockCode):
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

    def __init__(self, m: int, n: int):
        self.source_bits = state_dependent_bits(m, n)
        self.m = self.max_run = m
        self.n = self.oligo_len = n
        self._keep = keep = 2**self.source_bits
        self.max_unbalance, skip = _pruning_boundary(m, n, keep)
        self.weight_bound = self.max_unbalance / 2
        words = _Enumerator(self.alphabet, m, n, unbalance=self.max_unbalance, skip=skip)
        self._words = words
        roots = [words.root(tuple(s for s in range(4) if s != state)) for state in range(4)]
        assert all(words.size(root) == keep for root in roots)
        self._roots = {STREAM_START: roots[0]} | dict(zip(self.alphabet, roots))
        heads = [words.head(root) for root in roots]
        self._encode_heads = {STREAM_START: heads[0]} | dict(zip(self.alphabet, heads))
        ranks = [words.by_prefix(head) for head in heads]
        self._decode_heads = {STREAM_START: ranks[0]} | dict(zip(self.alphabet, ranks))

    @cached_property
    def _unrank(self) -> Callable:
        return self._words.unranker(self._encode_heads, self._keep)

    def encode_blocks(self, digits: bytes, state: int | None = STREAM_START) -> list[bytes]:
        if state not in self._roots:
            raise ValueError(_NO_STATE.format(state))
        return self._unrank(digits_to_ints(self._blocks(digits), self.source_bits), state)

    def decode_blocks(self, words: list[bytes], state: int | None = STREAM_START) -> bytes:
        if state not in self._roots:
            raise ValueError(_NO_STATE.format(state))
        indices = self._words.rank_blocks(self._decode_heads, words, state)
        if len(indices) < len(words):
            at = len(indices)
            raise ValueError(self._refusal(words[at], words[at - 1][-1] if at else state))
        return ints_to_digits(indices, self.source_bits)

    def _refusal(self, word: bytes, state: int | None) -> str:
        """Why the code refuses word after state: the first symbol, a dropped word, or else."""
        message = "not a codeword of this state-dependent code"
        if not isinstance(word, bytes):
            return message
        first = self.alphabet[0] if state is STREAM_START else state
        if word[:1] == bytes([first]):
            return f"{message}: its first symbol equals the state {chr(first)}"
        if (
            len(word) == self.n
            and not word.strip(self.alphabet)
            and max_run(word) <= self.m
            and abs(2 * (word.count(b"A") + word.count(b"T")) - self.n) == self.max_unbalance
        ):
            return f"{message}: a dropped boundary word (AT/GC unbalance {self.max_unbalance})"
        return f"{message} for this state"
