import gc
import itertools
import math
import random
import struct
import sys
import tracemalloc
from bisect import bisect_right
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dnacodes import blockcodes, counting, oracle, payload
from dnacodes.constructions import make_codec
from dnacodes.words import BASES, max_run


def at_weight(word):
    """AT-content of a symbol tuple: its symbols 2 (A) and 3 (T)."""
    return sum(s > 1 for s in word)


def brute_words(q, m, n):
    return [
        w
        for w in itertools.product(range(q), repeat=n)
        if max(len(list(g)) for _, g in itertools.groupby(w)) <= m
    ]


# Bases and binary digits to symbol values, as the oracle tables hold them.
_SYMBOL_OF_BYTE = bytes.maketrans(b"GCAT01", bytes([0, 1, 2, 3, 0, 1]))


def symbols(word):
    """The symbol tuple of a codeword's bytes."""
    return tuple(word.translate(_SYMBOL_OF_BYTE))


def state_byte(code, symbol):
    """The state after a block that ended in this symbol value (None: stream start)."""
    return None if symbol is None else code.alphabet[symbol]


def unrank_all(words, root, indices):
    """The words of these indices under root, by the enumerator's batch walk."""
    heads = dict.fromkeys([None, *words.alphabet], words.head(root))
    return words.unrank_blocks(heads, list(indices), None)


def rank_all(words, root, listed):
    """The indices of these words under root, by the enumerator's batch walk."""
    heads = dict.fromkeys([None, *words.alphabet], words.by_prefix(words.head(root)))
    return words.rank_blocks(heads, listed, None)


def numeral(code, values):
    """The batch numeral of these indices: each one's source_bits binary digits, in order."""
    return "".join(format(value, f"0{code.source_bits}b") for value in values).encode("ascii")


def codewords(code, state):
    """Every codeword the code emits after state, in index order."""
    return [code.encode_block(i, state) for i in range(2**code.source_bits)]


class TestConstrainedWords:
    @pytest.mark.parametrize("q,m,n", [(2, 2, 6), (4, 1, 4), (4, 3, 5)])
    def test_matches_brute_enumeration(self, q, m, n):
        words = blockcodes._Enumerator(bytes(range(q)), m, n)
        root = words.root(tuple(range(q)))
        listed = unrank_all(words, root, range(words.size(root)))
        assert [tuple(w) for w in listed] == brute_words(q, m, n)
        assert rank_all(words, root, listed) == list(range(len(listed)))

    def test_count_matches_formula(self):
        words = blockcodes._Enumerator(b"GCAT", 3, 5)
        assert words.size(words.root((0, 1, 2, 3))) == counting.rll_count(4, 3, 5)

    @pytest.mark.parametrize(
        "q,n", [(2, 2), (2, 4), (2, 6), (2, 8), (2, 12), (4, 2), (4, 4), (4, 6), (4, 8)]
    )
    def test_exact_balance_roots_match_the_oracle(self, q, n):
        """At even n and unbalance 1 no boundary word exists: the root keeps weight n/2 alone."""
        for m in sorted({1, 2, 3, n - 1, n, n + 5} - {0}):
            words = blockcodes._Enumerator(bytes(range(q)), m, n, unbalance=1)
            root = words.root(tuple(range(q)))
            expected = [
                w for w in oracle.constrained_words(q, m, n)
                if sum(s >= q // 2 for s in w) == n // 2
            ]
            assert words.size(root) == len(expected), (m, n)
            listed = unrank_all(words, root, range(len(expected)))
            assert [tuple(w) for w in listed] == expected, (m, n)
            assert rank_all(words, root, listed) == list(range(len(expected)))

    def test_skipping_needs_a_window(self):
        with pytest.raises(ValueError, match="needs a weight window"):
            blockcodes._Enumerator(b"GCAT", 3, 8, skip=1)

    def test_root_refusals(self):
        with pytest.raises(ValueError) as refused:
            blockcodes._Enumerator(b"GCAT", 3, 5).root(())
        assert str(refused.value) == "no codewords start with these symbols"
        words = blockcodes._Enumerator(b"GCAT", 3, 5, unbalance=1, skip=10**6)
        with pytest.raises(ValueError) as refused:
            words.root((1, 2, 3))
        assert str(refused.value) == "skip exceeds the number of boundary words"

    @pytest.mark.parametrize(
        "q,m,n,unbalance,skip,parts",
        [
            (2, 3, 10, None, 0, ()),
            (2, 10, 10, None, 0, ()),
            (4, 3, 8, 2, 0, ("weight",)),
            (4, 3, 8, 2, 5, ("weight", "above")),
            (4, 8, 8, 2, 5, ("weight", "above")),
            (2, 76, 76, 1, 0, ("weight",)),
        ],
    )
    def test_keys_hold_only_what_the_code_constrains(self, q, m, n, unbalance, skip, parts):
        """The run splits keys only when m < n, the weight only with a window, and the
        above flag only when boundary words are dropped."""
        words = blockcodes._Enumerator(bytes(range(q)), m, n, unbalance, skip)
        keys = [key for level in words._levels[1:] for key in level]
        runs = {key[:2] for key in keys}
        assert (len(runs) > 1) == (m < n)
        assert (len({key[2] for key in keys}) > 1) == ("weight" in parts)
        assert (len({key[3] for key in keys}) > 1) == ("above" in parts)
        if unbalance == 1 and n == 76:  # the exact-balanced binary graph
            assert words.size(words.root((0, 1))) == math.comb(76, 38)


class TestRates:
    """The block-size rules, which count words and build no code."""

    def test_two_mode_example(self):
        # construction2's rate: the binary two-mode bits and n raw bits per n bases
        assert (blockcodes.two_mode_bits(2, 3, 5, carried_bits=5) + 5) / 5 == pytest.approx(8 / 5)

    def test_state_independent_example(self):
        assert blockcodes.two_mode_bits(4, 3, 5) / 5 == pytest.approx(8 / 5)

    def test_state_dependent_example(self):
        # a state's table holds 747 of the 996 words, so 2**9 of them are kept
        assert 3 * counting.rll_count(4, 3, 5) // 4 == 747
        assert blockcodes.state_dependent_bits(3, 5) / 5 == pytest.approx(9 / 5)

    def test_truncation_interpretations_agree(self):
        # per-mode truncation floor(log2(N/2)) equals whole-codebook
        # truncation floor(log2 N) - 1 for every count
        for m in (2, 3, 4):
            for n in range(5, 11):
                total = counting.rll_count(2, m, n)
                assert (total // 2).bit_length() - 1 == total.bit_length() - 2

    def test_formula_rates_equal_built_table_sizes(self):
        """Over every efficiency table's grid, each rule is the floor log2 of the built table.

        A two-mode code's mode holds its root's words; a state-dependent
        state's table, before pruning, the words of three first symbols.
        """
        for n in range(5, 11):
            for m in (2, 3, 4):
                code = blockcodes.TwoModeRllCode(m, n)
                bits = blockcodes.two_mode_bits(2, m, n)
                assert bits + n == make_codec("construction2", m=m, n=n).source_bits
                assert [code._words.size(r).bit_length() - 1 for r in code._roots] == [bits] * 2
            for m in (1, 2, 3, 4):
                si = make_codec("state-independent", m=m, n=n)
                bits = blockcodes.two_mode_bits(4, m, n)
                assert si.source_bits == bits
                assert [si._words.size(r).bit_length() - 1 for r in si._roots] == [bits] * 2
                sd = make_codec("state-dependent", m=m, n=n)
                words = blockcodes._Enumerator(BASES, m, n)
                table = words.size(words.root((1, 2, 3)))  # the words not starting with G
                assert sd.source_bits == blockcodes.state_dependent_bits(m, n)
                assert sd.source_bits == table.bit_length() - 1


def _stream_check(codec, m, blocks=60, seed=7):
    rng = random.Random(seed)
    stream = b""
    state = None
    sources = []
    for _ in range(blocks):
        index = rng.getrandbits(codec.source_bits)
        sources.append(index)
        word = codec.encode_block(index, state)
        stream += word
        state = word[-1]
    assert max_run(stream) <= m
    state = None
    width = len(stream) // blocks
    for i, index in enumerate(sources):
        word = stream[i * width : (i + 1) * width]
        assert codec.decode_block(word, state) == index
        state = word[-1]


class TestTwoModeCode:
    def test_source_bits(self):
        code = blockcodes.TwoModeRllCode(3, 5)
        assert code.source_bits == 3  # floor(log2 26) - 1
        modes = oracle.two_mode_tables(2, 3, 5)
        assert len(modes) == 2
        assert len(modes[0]) == 8

    def test_modes_split_by_first_bit(self):
        code = blockcodes.TwoModeRllCode(2, 6)
        # mode 0 (first bit 0) follows a block ending in 1, and vice versa
        assert all(w[:1] == b"0" for w in codewords(code, ord("1")))
        assert all(w[:1] == b"1" for w in codewords(code, ord("0")))

    def test_exhaustive_round_trip(self):
        code = blockcodes.TwoModeRllCode(2, 6)
        for index in range(2**code.source_bits):
            for state in (None, *b"01"):
                word = code.encode_block(index, state)
                assert len(word) == 6 and not word.strip(b"01")
                assert max_run(word) <= 2
                if state is not None:
                    assert word[0] != state
                assert code.decode_block(word) == index

    def test_stream(self):
        _stream_check(blockcodes.TwoModeRllCode(2, 6), 2)

    def test_too_small(self):
        with pytest.raises(ValueError):
            blockcodes.TwoModeRllCode(1, 2)

    def test_unknown_word(self):
        code = blockcodes.TwoModeRllCode(2, 6)
        with pytest.raises(ValueError):
            code.decode_block(b"000000")


class TestStateIndependentCode:
    def test_representations_differ_in_first_symbol(self):
        code = blockcodes.StateIndependentCode(3, 5)
        for idx in range(2**code.source_bits):
            w0 = code.encode_block(idx)
            w1 = code.encode_block(idx, w0[0])
            assert w0[0] != w1[0]
            assert code.decode_block(w0) == code.decode_block(w1) == idx

    def test_rate_example(self):
        code = blockcodes.StateIndependentCode(3, 5)
        assert code.source_bits == 8
        assert len(oracle.two_mode_tables(4, 3, 5)[0]) == 256

    def test_decoding_ignores_state(self):
        code = blockcodes.StateIndependentCode(2, 4)
        for idx in range(2**code.source_bits):
            for state in (None, *b"GCAT"):
                word = code.encode_block(idx, state)
                assert max_run(word) <= 2
                if state is not None:
                    assert word[0] != state
                # decode sees the word only
                assert code.decode_block(word) == idx
                assert code.decode_block(word, ord("T")) == idx

    def test_stream(self):
        _stream_check(blockcodes.StateIndependentCode(3, 5), 3)

    def test_too_small(self):
        with pytest.raises(ValueError):
            blockcodes.StateIndependentCode(1, 1)


class TestStateDependentCode:
    def test_tables_exclude_state_symbol(self):
        code = blockcodes.StateDependentCode(3, 5)
        for state in b"GCAT":
            assert all(w[0] != state for w in codewords(code, state))

    def test_example_sizes(self):
        code = blockcodes.StateDependentCode(3, 5)
        assert code.source_bits == 9
        modes = oracle.state_dependent_tables(3, 5)
        assert len(modes) == 4
        assert all(len(mode) == 512 for mode in modes)

    def test_pruning_drops_highest_unbalance(self):
        code = blockcodes.StateDependentCode(3, 5)
        kept = [symbols(w) for w in codewords(code, ord("G"))]
        kept_worst = max(abs(2 * at_weight(w) - 5) for w in kept)
        assert kept_worst == code.max_unbalance == 2 * code.weight_bound
        candidates = [w for w in oracle.constrained_words(4, 3, 5) if w[0] != 0]
        dropped = sorted(set(candidates) - set(kept))
        assert dropped
        assert min(abs(2 * at_weight(w) - 5) for w in dropped) >= kept_worst

    def test_exhaustive_all_states(self):
        code = blockcodes.StateDependentCode(3, 5)
        for idx in range(2**code.source_bits):
            for state in (None, *b"GCAT"):
                word = code.encode_block(idx, state)
                assert max_run(word) <= 3
                if state is not None:
                    assert word[0] != state
                assert code.decode_block(word, state) == idx

    def test_decode_needs_true_state(self):
        code = blockcodes.StateDependentCode(3, 5)
        word = code.encode_block(0, ord("A"))
        # the same word can decode differently (or fail) under other states,
        # but with the true previous symbol it always succeeds
        assert code.decode_block(word, ord("A")) == 0

    def test_stream(self):
        _stream_check(blockcodes.StateDependentCode(3, 5), 3)


class TestCodebookInvariants:
    @pytest.mark.parametrize(
        "code,bits",
        [
            (blockcodes.TwoModeRllCode(2, 6), 3),
            (blockcodes.StateIndependentCode(2, 4), 6),
            (blockcodes.StateDependentCode(2, 4), 7),
        ],
    )
    def test_power_of_two_sizes(self, code, bits):
        assert code.source_bits == bits
        for state in (None, 0, 1):
            words = codewords(code, state_byte(code, state))
            assert len(set(words)) == len(words) == 2**bits

    def test_all_words_satisfy_constraint(self):
        code = blockcodes.StateDependentCode(2, 5)
        for state in b"GCAT":
            for word in codewords(code, state):
                assert max_run(word) <= 2

    def test_reverse_maps_are_inverse(self):
        code = blockcodes.TwoModeRllCode(3, 5)
        for mode in oracle.two_mode_tables(2, 3, 5):
            for idx, word in enumerate(mode):
                assert code.decode_block(bytes(b"01"[bit] for bit in word)) == idx


# The block code behind each registry name, and the states that select
# every table of it: the two-mode code inside construction2 keys off the
# last bit, state-independent only on whether the state equals the first
# symbol of the mode-0 word, state-dependent on all four symbols.
CODES = {
    "construction2": (blockcodes.TwoModeRllCode, (0, 1)),
    "state-independent": (blockcodes.StateIndependentCode, (None, 0, 1)),
    "state-dependent": (blockcodes.StateDependentCode, (0, 1, 2, 3)),
}


def _built(kind, m, n):
    try:
        return CODES[kind][0](m, n)
    except ValueError:
        return None


class TestEnumerativeCodes:
    @pytest.mark.parametrize("kind", sorted(CODES))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_strands_match_oracle_tables(self, kind, n):
        for m in range(1, n + 1):
            code = _built(kind, m, n)
            try:
                table = oracle.TABLES[kind](m, n)
            except ValueError:
                assert code is None
                continue
            # construction2's table puts the two-mode word on the low plane
            # and n raw bits on the high plane; all-zero raw bits leave the
            # two-mode word itself.
            raw = n if kind == "construction2" else 0
            k = code.source_bits
            with pytest.raises(IndexError):  # the table has 2**k entries, no more
                table(2**k << raw, None)
            for state in CODES[kind][1]:
                expected = [tuple(table(i << raw, state)) for i in range(2**k)]  # symbol bytes
                emitted = codewords(code, state_byte(code, state))
                assert [symbols(w) for w in emitted] == expected, (kind, m, n, state)

    @pytest.mark.parametrize(
        "code,states",
        [
            (blockcodes.StateDependentCode(3, 9), (0, 1, 2, 3)),
            (blockcodes.StateIndependentCode(3, 10), (None, 0, 1)),
            (blockcodes.TwoModeRllCode(4, 12), (0, 1)),
        ],
        ids=["sd-m3n9", "si-m3n10", "two-mode-m4n12"],
    )
    def test_every_index_of_the_benchmark_routes(self, code, states):
        k = code.source_bits
        sources = list(range(2**k))
        for state in map(partial(state_byte, code), states):
            words = [code.encode_block(index, state) for index in sources]
            assert len(set(words)) == 2**k
            assert all(w[0] != state and max_run(w) <= code.m for w in words)
            assert [code.decode_block(w, state) for w in words] == sources
            if state is None or not isinstance(code, blockcodes.StateIndependentCode):
                # one table per state, indexed in lex order of the symbol values
                assert [symbols(w) for w in words] == sorted(symbols(w) for w in words)

    def test_lifted_length_limit(self):
        for code in (
            blockcodes.TwoModeRllCode(3, 32),
            blockcodes.StateIndependentCode(3, 32),
            blockcodes.StateDependentCode(3, 32),
        ):
            rng = random.Random(3)
            index = rng.getrandbits(code.source_bits)
            state = code.alphabet[0]
            word = code.encode_block(index, state)
            assert len(word) == 32 and word[0] != state and max_run(word) <= 3
            assert code.decode_block(word, state) == index

    def test_decode_rejects_dropped_boundary_word(self):
        m, n = 3, 5
        code = blockcodes.StateDependentCode(m, n)
        kept = set(oracle.state_dependent_tables(m, n)[0])
        dropped_at_boundary = [
            w for w in oracle.constrained_words(4, m, n)
            if w[0] != 0 and w not in kept and abs(2 * at_weight(w) - n) == code.max_unbalance
        ]
        assert dropped_at_boundary
        for word in dropped_at_boundary:
            with pytest.raises(ValueError):
                code.decode_block(bytes(b"GCAT"[s] for s in word), ord("G"))

    def test_decode_rejects_wrong_state(self):
        code = blockcodes.StateDependentCode(3, 5)
        word = code.encode_block(2**code.source_bits - 1, ord("G"))
        with pytest.raises(ValueError):
            code.decode_block(word, word[0])

    @pytest.mark.parametrize("kind", sorted(CODES))
    def test_decode_rejects_long_run(self, kind):
        code = CODES[kind][0](2, 6)
        word = bytes(code.alphabet[s] for s in (1, 1, 1, 0, 1, 0))
        with pytest.raises(ValueError):
            code.decode_block(word, code.alphabet[0])

    def test_decode_rejects_wrong_length(self):
        code = blockcodes.StateDependentCode(3, 5)
        word = code.encode_block(0, ord("C"))
        with pytest.raises(ValueError):
            code.decode_block(word + b"G", ord("C"))
        with pytest.raises(ValueError):
            code.decode_block(word[:-1], ord("C"))


@lru_cache(maxsize=None)
def _code(kind, m, n):
    # Cached across examples: building is the slow part.
    return _built(kind, m, n)


class TestEnumerativeProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(CODES)),
        st.integers(1, 4),
        st.integers(1, 32),
        st.integers(0, 3),
        st.randoms(use_true_random=False),
    )
    def test_rank_unrank_and_constraints(self, kind, m, n, state, rng):
        code = _code(kind, m, n)
        if code is None:
            return
        if kind == "construction2":
            state &= 1
        state = state_byte(code, state)
        index = rng.randrange(2**code.source_bits)
        word = code.encode_block(index, state)
        assert len(word) == n
        assert word[0] != state
        assert max_run(word) <= m
        assert code.decode_block(word, state) == index
        if kind == "state-dependent":
            assert abs(2 * at_weight(symbols(word)) - n) <= code.max_unbalance


def _plain_unrank(words, root, index, length=None):
    """The index-th word under root by one bisect per symbol, without head tables or ends.

    length stops the walk early, after that many symbols (default: all n).
    """
    word = bytearray()
    node = root
    for _ in range(words.n if length is None else length):
        starts, symbols, children = words._steps[node]
        k = bisect_right(starts, index) - 1
        index -= starts[k]
        word.append(symbols[k])
        node = children[k]
    return bytes(word)


def _plain_rank(words, root, word):
    """The index of word under root by one lookup per symbol, or None; no head table or ends."""
    index, node = 0, root
    for s in word:
        starts, symbols, children = words._steps[node]
        k = symbols.find(s)
        if k < 0:
            return None
        index += starts[k]
        node = children[k]
    return index if len(word) == words.n else None


def _plain_words(code, values, state):
    """The code's words of the values by the plain walk, each under the root its state selects.

    A two-mode code takes mode 1 where the index-th mode-0 word would
    start with the state's symbol, and mode 0 after any other state.
    """
    words = []
    for value in values:
        if isinstance(code, blockcodes.StateDependentCode):
            root = code._roots[state]
        else:
            per_symbol = code._words.size(code._roots[0]) // (len(code.alphabet) // 2)
            root = code._roots[state == code.alphabet[value // per_symbol]]
        words.append(_plain_unrank(code._words, root, value))
        state = words[-1][-1]
    return words


class TestTailTables:
    @pytest.mark.parametrize(
        "code,draws",
        [
            (blockcodes.StateDependentCode(3, 9), None),
            (blockcodes.StateIndependentCode(3, 10), None),
            (blockcodes.TwoModeRllCode(4, 12), None),
            (blockcodes.StateDependentCode(3, 64), 3000),
            (blockcodes.TwoModeRllCode(3, 20), 3000),
            (blockcodes.TwoModeRllCode(12, 10), None),
            (blockcodes.StateIndependentCode(9, 8), None),
        ],
        ids=["sd-m3n9", "si-m3n10", "two-mode-m4n12", "sd-m3n64", "two-mode-m3n20",
             "two-mode-m12n10", "si-m9n8"],
    )
    def test_every_index_matches_the_plain_walk(self, code, draws):
        """Every index (or draws random ones, where the walk goes past the head table)."""
        words = code._words
        rng = random.Random(code.n)
        keep = 2**code.source_bits
        values = list(range(keep)) if draws is None else [rng.randrange(keep) for _ in range(draws)]
        roots = set(code._roots.values()) if isinstance(code._roots, dict) else set(code._roots)
        for root in roots:
            listed = [_plain_unrank(words, root, index) for index in values]
            assert unrank_all(words, root, values) == listed
            assert rank_all(words, root, listed) == values
            assert [_plain_rank(words, root, word) for word in listed] == values
        # Each block's state is the last byte of the one before, so one
        # batch meets every state; the batch's own state picks only the first.
        listed = _plain_words(code, values, None)
        assert code.encode_blocks(numeral(code, values), None) == listed
        assert code.decode_blocks(listed, None) == numeral(code, values)
        for state in code.alphabet:
            listed = _plain_words(code, values[:64], state)
            assert code.encode_blocks(numeral(code, values[:64]), state) == listed
            assert code.decode_blocks(listed, state) == numeral(code, values[:64])

    @pytest.mark.parametrize("code", [blockcodes.StateIndependentCode(3, 8),
                                      blockcodes.TwoModeRllCode(3, 10)])
    def test_a_state_that_is_no_symbol_selects_mode_0(self, code):
        values = list(range(0, 2**code.source_bits, 3))
        listed = _plain_words(code, values, None)
        for state in (None, 0, ord("g"), ord("N"), 2, 300):
            assert code.encode_blocks(numeral(code, values), state) == listed
            assert code.decode_blocks(listed, state) == numeral(code, values)

    @pytest.mark.parametrize("alphabet,h", [(b"GCAT", 4), (b"01", 8)])
    def test_tail_length_follows_from_the_alphabet(self, alphabet, h):
        # Without a window, and with one, under which cut nodes of other weights share ends.
        for n, unbalance in itertools.product((1, 2, h - 1, h, h + 1, 2 * h, 3 * h), (None, 2)):
            words = blockcodes._Enumerator(alphabet, 2, n, unbalance)
            # The ends never take the first symbol, so from n = 2 on a head prefix has one.
            assert words._cut == max(1, n - h)
            assert words._j == min(words._cut, n - words._cut)
            starts, prefixes, nodes = words.head(words.root(tuple(range(len(alphabet)))))
            assert len(prefixes) <= 256
            assert list(starts) == sorted(starts)
            assert all(len(prefix) == words._j for prefix in prefixes)
            # Only the nodes at the cut have places; each holds its kept suffixes.
            cut_nodes = set(words._levels[words._cut].values())
            assert set(words._end_index) == cut_nodes
            length, shared = n - words._cut, {}
            for node in cut_nodes:
                ends, places = words._ends[node], words._end_index[node]
                assert len(ends) <= 256
                assert all(len(end) == length for end in ends)
                ranked = list(map(symbols, ends))
                assert all(low < high for low, high in zip(ranked, ranked[1:]))
                walked = [_plain_unrank(words, node, i, length) for i in range(words.size(node))]
                assert list(ends) == walked
                assert places == {end: i for i, end in enumerate(ends)}
                # Cut nodes with equal ends share one tuple and one dict.
                first_ends, first_places = shared.setdefault(ends, (ends, places))
                assert first_ends is ends and first_places is places


class TestBatchMethods:
    def test_state_dependent_refuses_a_state_that_is_no_base(self):
        code = blockcodes.StateDependentCode(3, 8)
        strand = code.encode_block(5, None)
        for state in (ord("g"), ord("N"), 0):
            with pytest.raises(ValueError, match="state"):
                code.decode_block(strand, state)
            with pytest.raises(ValueError, match="state"):
                code.decode_blocks([strand], state)
            with pytest.raises(ValueError, match="state"):
                code.encode_block(5, state)
            with pytest.raises(ValueError, match="state"):
                code.encode_blocks(numeral(code, [5]), state)

    @pytest.mark.parametrize("kind", sorted(CODES))
    def test_a_refused_word_carries_its_position(self, kind):
        code = CODES[kind][0](2, 6)
        words = code.encode_blocks(numeral(code, range(6)), None)
        words[4] = bytes(code.alphabet[s] for s in (1, 1, 1, 0, 1, 0))  # a run of three
        name = getattr(code, "kind", "state-dependent")
        with pytest.raises(ValueError, match=f"^not a codeword of this {name} code") as reason:
            code.decode_blocks(words, None)
        # The codec says why; the stream says where.
        with pytest.raises(payload.BlockError) as refused:
            b"".join(payload.decode_stream(code, [words]))
        assert (str(refused.value), refused.value.position) == (f"block 5: {reason.value}", 4)
        k = code.source_bits
        with pytest.raises(ValueError, match=f"^not a block of {k} binary digits$"):
            code.encode_blocks(numeral(code, [0, 1]) + b"-" * k, None)  # a third block: no index


class TestBuildCollector:
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("fails", [False, True], ids=["built", "raised"])
    def test_collector_paused_during_a_build_and_restored(self, monkeypatch, enabled, fails):
        step = blockcodes._Enumerator._step
        during = []

        def watched(self, key, s):
            during.append(gc.isenabled())
            if fails:
                raise RuntimeError("a build that fails")
            return step(self, key, s)

        monkeypatch.setattr(blockcodes._Enumerator, "_step", watched)
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            if fails:
                with pytest.raises(RuntimeError):
                    blockcodes._Enumerator(b"GCAT", 3, 6)
            else:
                blockcodes._Enumerator(b"GCAT", 3, 6)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()
        assert during and not any(during)


class TestRefusalReasons:
    def test_first_symbol_equals_the_state(self):
        code = blockcodes.StateDependentCode(3, 5)
        word = code.encode_block(2**code.source_bits - 1, ord("G"))
        with pytest.raises(ValueError, match=r"^not a codeword of this state-dependent code: "
                                             rf"its first symbol equals the state {chr(word[0])}$"):
            code.decode_block(word, word[0])

    def test_dropped_boundary_word(self):
        m, n = 3, 5
        code = blockcodes.StateDependentCode(m, n)
        kept = set(oracle.state_dependent_tables(m, n)[0])
        dropped = next(
            w for w in oracle.constrained_words(4, m, n)
            if w[0] != 0 and w not in kept and abs(2 * at_weight(w) - n) == code.max_unbalance
        )
        with pytest.raises(ValueError, match=r"^not a codeword of this state-dependent code: "
                                             r"a dropped boundary word \(AT/GC unbalance 3\)$"):
            code.decode_block(bytes(b"GCAT"[s] for s in dropped), ord("G"))

    @pytest.mark.parametrize("code", [blockcodes.StateIndependentCode(3, 5),
                                      blockcodes.TwoModeRllCode(3, 6)])
    def test_index_past_the_kept_range(self, code):
        keep = 2**code.source_bits
        word = unrank_all(code._words, code._roots[0], [keep])[0]  # the first word the code drops
        with pytest.raises(ValueError, match=rf"^not a codeword of this {code.kind} code: "
                                             rf"its index {keep} is past the kept range "
                                             rf"0\.\.{keep - 1}$"):
            code.decode_block(word)

    def test_other_refusals_keep_their_message(self):
        code = blockcodes.StateDependentCode(3, 5)
        with pytest.raises(ValueError, match=r"^not a codeword of this state-dependent code "
                                             r"for this state$"):
            code.decode_block(b"CAAAA", ord("G"))

    @pytest.mark.parametrize("kind", ["state-dependent", "state-independent"])
    @pytest.mark.parametrize("item", [bytearray, str, list])
    def test_an_item_that_is_not_bytes_is_refused_with_its_block(self, kind, item):
        codec = make_codec(kind, m=3, n=8)
        good = codec.encode_blocks(numeral(codec, range(8)), None)
        bad = item(good[5].decode() if item is str else good[5])
        batch = good[:5] + [bad] + good[6:]
        text = f"not a codeword of this {kind} code"
        with pytest.raises(ValueError, match=f"^{text}$"):
            codec.decode_blocks(batch, None)
        with pytest.raises(payload.BlockError) as streamed:  # block 6 of the second batch
            b"".join(payload.decode_stream(codec, [good[:3], batch]))
        assert (str(streamed.value), streamed.value.position) == (f"block 9: {text}", 8)

    @pytest.mark.parametrize(
        "code",
        [blockcodes.StateDependentCode(3, 9), blockcodes.StateIndependentCode(3, 10),
         blockcodes.TwoModeRllCode(3, 17)],
        ids=["sd-m3n9", "si-m3n10", "two-mode-m3n17"],
    )
    def test_a_kept_word_of_another_length_is_refused_with_its_block(self, code):
        """Every proper prefix of a kept word, and the word with 1 to h + 1 symbols more."""
        words = code._words
        assert words._cut > words._j  # the words have a middle walk
        h = code.n - words._cut
        good = code.encode_blocks(numeral(code, range(8)), None)
        word = good[5]
        # Symbols that alternate, from one that differs from the word's last: no run grows.
        a, b = code.alphabet[:2] if word[-1] != code.alphabet[0] else code.alphabet[1::-1]
        extra = bytes([a, b] * (h + 1))
        text = f"not a codeword of this {getattr(code, 'kind', 'state-dependent')} code"
        if isinstance(code, blockcodes.StateDependentCode):
            text += " for this state"
        others = [word[:i] for i in range(len(word))] + [word + extra[:i] for i in range(1, h + 2)]
        for other in others:
            batch = good[:5] + [other] + good[6:]
            with pytest.raises(ValueError, match=f"^{text}$"):
                code.decode_blocks(batch, None)
            with pytest.raises(payload.BlockError) as streamed:
                b"".join(payload.decode_stream(code, [batch]))
            assert (str(streamed.value), streamed.value.position) == (f"block 6: {text}", 5)


def _short_codes(q, n):
    """The codes over q symbols at length n for m in {1, 2, 3, n}, as many as can be built."""
    classes = (
        (blockcodes.StateIndependentCode, blockcodes.StateDependentCode)
        if q == 4 else (blockcodes.TwoModeRllCode,)
    )
    codes = []
    for m in sorted({1, 2, 3, n}):
        for cls in classes:
            try:
                codes.append(cls(m, n))
            except ValueError:  # too few words for this code
                pass
    return codes


def _checked_indices(code):
    """Every index when 2**k <= 4096; else 0, 2**k - 1 and each head-row start +- 1."""
    keep = 2**code.source_bits
    if keep <= 4096:
        return list(range(keep))
    starts = {s + d for head in code._encode_heads.values() for s in head[0] for d in (-1, 0, 1)}
    return sorted({0, keep - 1} | {s for s in starts if 0 <= s < keep})


def _encode_states(code):
    """None, each symbol, and for the two-mode codes states that are no symbol."""
    others = () if isinstance(code, blockcodes.StateDependentCode) else (0, ord("g"), 300)
    return [None, *code.alphabet, *others]


class TestShortCodeTables:
    """Words of at most 8 bases or 16 digits are read from word lists and a decode table."""

    @pytest.mark.parametrize("q,n", [(4, n) for n in range(1, 9)] + [(2, n) for n in range(1, 17)])
    def test_tables_equal_the_walk(self, q, n):
        for code in _short_codes(q, n):
            words, heads = code._words, code._encode_heads
            assert (words._cut == words._j) == (n > 1)
            values = _checked_indices(code)
            for state in _encode_states(code):
                walked = state if state in heads else None
                expected = words.unrank_blocks(heads, values, walked)
                assert code.encode_blocks(numeral(code, values), state) == expected, (code.m, state)
                singles = [words.unrank_blocks(heads, [v], walked)[0] for v in values]
                assert [code.encode_block(v, state) for v in values] == singles
            if isinstance(code, blockcodes.StateDependentCode):
                assert not hasattr(code, "_numerals")  # ranking needs the state
                continue
            keep, k = 2**code.source_bits, code.source_bits
            accepted = {}
            for word in map(bytes, itertools.product(code.alphabet, repeat=n)):
                ranked = words.rank_blocks(code._decode_heads, [word], None)
                if ranked and ranked[0] < keep:
                    accepted[word] = format(ranked[0], f"0{k}b").encode("ascii")
            assert code._numerals == accepted, code.m
            assert len(accepted) == 2 * keep

    @pytest.mark.parametrize(
        "code",
        [blockcodes.StateDependentCode(3, 9), blockcodes.StateIndependentCode(3, 10),
         blockcodes.TwoModeRllCode(3, 17)],
        ids=["sd-m3n9", "si-m3n10", "two-mode-m3n17"],
    )
    def test_words_with_a_middle_are_walked(self, code):
        words = code._words
        assert words._cut > words._j
        assert code._unrank.func == words.unrank_blocks
        assert getattr(code, "_numerals", None) is None

    @pytest.mark.parametrize(
        "route,damage,error,text",
        [
            ("si-m3n8", "past-kept", ValueError, "not a codeword of this state-independent code:"
             " its index 16384 is past the kept range 0..16383"),
            ("si-m3n8", "long", ValueError, "not a codeword of this state-independent code"),
            ("si-m3n8", "short", ValueError, "not a codeword of this state-independent code"),
            ("si-m3n8", "lower", ValueError, "not a codeword of this state-independent code"),
            ("si-m3n8", "str", ValueError, "not a codeword of this state-independent code"),
            ("si-m3n8", "bytearray", ValueError, "not a codeword of this state-independent code"),
            ("two-mode-m3n10", "past-kept", ValueError, "not a codeword of this two-mode code:"
             " its index 256 is past the kept range 0..255"),
            ("two-mode-m3n10", "long", ValueError, "not a codeword of this two-mode code"),
            ("two-mode-m3n10", "short", ValueError, "not a codeword of this two-mode code"),
            ("two-mode-m3n10", "str", ValueError, "not a codeword of this two-mode code"),
            ("two-mode-m3n10", "bytearray", ValueError, "not a codeword of this two-mode code"),
            ("c2-m3n10", "past-kept", ValueError, "not a codeword of this two-mode code:"
             " its index 256 is past the kept range 0..255"),
        ],
    )
    def test_a_word_the_table_misses_is_refused_as_by_ranking(self, route, damage, error, text):
        """Texts recorded from the ranking path before the decode tables existed."""
        code = {
            "si-m3n8": lambda: blockcodes.StateIndependentCode(3, 8),
            "two-mode-m3n10": lambda: blockcodes.TwoModeRllCode(3, 10),
            "c2-m3n10": lambda: make_codec("construction2", m=3, n=10),
        }[route]()
        rng = random.Random(7)
        good = code.encode_blocks(numeral(code, [rng.getrandbits(code.source_bits)
                                                 for _ in range(8)]), None)
        inner = getattr(code, "_code", code)
        dropped = unrank_all(inner._words, inner._roots[0], [2**inner.source_bits])[0]
        if inner is not code:  # a strand whose low plane is that word
            dropped = dropped.translate(bytes.maketrans(b"01", b"GC"))
        bad = {"past-kept": dropped, "long": good[5] + good[5][:1], "short": good[5][:-1],
               "lower": good[5].lower(), "str": good[5].decode(),
               "bytearray": bytearray(good[5])}[damage]
        batch = good[:5] + [bad] + good[6:]
        with pytest.raises(error) as refused:
            code.decode_blocks(batch, None)
        assert type(refused.value) is error and str(refused.value) == text
        with pytest.raises(error) as streamed:  # the second batch's block 6, block 9 in all
            b"".join(payload.decode_stream(code, [good[:3], batch]))
        if error is ValueError:
            assert (str(streamed.value), streamed.value.position) == (f"block 9: {text}", 8)
        else:
            assert str(streamed.value) == text

    @pytest.mark.parametrize(
        "construction,params",
        [("state-dependent", {"m": 3, "n": 8}), ("state-independent", {"m": 3, "n": 8}),
         ("construction2", {"m": 3, "n": 10}), ("construction2", {"m": 4, "n": 12})],
        ids=["sd-m3n8", "si-m3n8", "c2-m3n10", "c2-m4n12"],
    )
    def test_tables_are_built_on_first_use(self, construction, params):
        def built(codec):
            code = getattr(codec, "_code", codec)
            return {name for name in ("_unrank", "_numerals") if name in vars(code)}

        tracemalloc.start()
        try:
            codec = make_codec(construction, **params)
            held = tracemalloc.get_traced_memory()[0]
            assert built(codec) == set()
            data = random.Random(3).randbytes(512)
            strands = [s for batch in payload.encode_stream(codec, [data]) for s in batch]
            lists = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        assert built(codec) == {"_unrank"}  # an encode builds no decode table
        code = getattr(codec, "_code", codec)
        words = code._keep * code.n  # the bytes of one list's words at least
        assert lists > words - (64 << 10), (lists, words)
        decoder = make_codec(construction, **params)
        assert b"".join(payload.decode_stream(decoder, [strands])) == data
        two_mode = not isinstance(code, blockcodes.StateDependentCode)
        assert built(decoder) == ({"_numerals"} if two_mode else set())  # nor a decode word lists

    @pytest.mark.parametrize(
        "construction,params,bound",
        [("state-dependent", {"m": 3, "n": 8}, 3.0), ("state-independent", {"m": 3, "n": 8}, 1.8),
         ("construction2", {"m": 3, "n": 10}, 0.05)],
        ids=["sd-m3n8", "si-m3n8", "c2-m3n10"],
    )
    def test_word_lists_held_after_the_first_encode(self, construction, params, bound):
        """MB held by a short code's encode tables: its heads share their word objects.

        Measured 2.76, 1.66 and 0.03 MB; lists that did not share the words
        of a head row between heads held 6.14 and 2.30 MB at SD and SI m3n8.
        """
        codec = make_codec(construction, **params)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            codec.encode_blocks(b"0" * codec.source_bits, None)
            held = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        assert held < bound * 2**20, held / 2**20

    @pytest.mark.parametrize(
        "construction,params",
        [("state-dependent", {"m": 3, "n": 8}), ("state-independent", {"m": 3, "n": 8}),
         ("construction2", {"m": 3, "n": 10})],
        ids=["sd-m3n8", "si-m3n8", "c2-m3n10"],
    )
    def test_batches_of_every_size_keep_nothing(self, construction, params):
        """Coding batches of 1 to 2000 blocks holds no more small objects than before.

        Struct's own format cache is bounded and emptied on both sides of
        the count, so only what the codes keep per batch size would show.
        """
        codec = make_codec(construction, **params)
        k = codec.source_bits
        rng = random.Random(2031)
        digits = b"".join(format(rng.getrandbits(k), f"0{k}b").encode() for _ in range(2000))
        for size in (1, 2, 2000):  # the tables, and the first call of each conversion path
            codec.decode_blocks(codec.encode_blocks(digits[: size * k], None), None)
        struct._clearcache()
        gc.collect()
        held = sys.getallocatedblocks()
        for size in range(1, 2001):
            codec.decode_blocks(codec.encode_blocks(digits[: size * k], None), None)
        struct._clearcache()
        gc.collect()
        assert sys.getallocatedblocks() - held < 100
