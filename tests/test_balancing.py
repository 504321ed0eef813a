import math

import pytest
from hypothesis import given
import hypothesis.strategies as st

from dnacodes import balancing, payload
from dnacodes.constructions import make_codec


def weight(digits):
    return digits.count(b"1")


def stream_refusal(codec, words):
    """The BlockError that decode_stream raises on these words as one batch."""
    with pytest.raises(payload.BlockError) as refused:
        b"".join(payload.decode_stream(codec, [words]))
    return refused.value


def exact_split(value, n):
    """(prefix, body) digits of value through the exact balancer of length n."""
    balancer = balancing.KnuthBalancer(n)
    digits = balancer.encode_block(value)
    return digits[: 2 * balancer.p0], digits[2 * balancer.p0 :]


def exact_join(prefix, body):
    return balancing.KnuthBalancer(len(body)).decode_block(prefix + body)


def weak_split(value, n, p0):
    """(prefix, body) digits of value through the weak balancer of length n."""
    digits = balancing.WeakKnuthBalancer(n, p0).encode_block(value)
    return digits[: 2 * p0], digits[2 * p0 :]


def weak_join(prefix, body, p0):
    return balancing.WeakKnuthBalancer(len(body), p0).decode_block(prefix + body)


def every_word(n):
    """Every n-bit word as an int, with its digits."""
    return [(value, format(value, f"0{n}b").encode()) for value in range(2**n)]


def balanced_words(p0):
    """Every weight-p0 word of length 2*p0, as digits, in lex order."""
    return sorted(digits for _, digits in every_word(2 * p0) if weight(digits) == p0)


class TestBalancedPrefixMap:
    @pytest.mark.parametrize(
        "balancer",
        [
            balancing.KnuthBalancer(2),
            balancing.KnuthBalancer(64),
            balancing.WeakKnuthBalancer(64, 3),
            balancing.WeakKnuthBalancer(200, 7),
        ],
        ids=["knuth-2", "knuth-64", "weak-64-3", "weak-200-7"],
    )
    def test_prefixes_are_the_first_balanced_words(self, balancer):
        prefixes, index_of_prefix = balancer._prefixes
        reference = balanced_words(balancer.p0)[: len(balancer._flip_lengths)]
        assert prefixes == tuple(reference)
        assert index_of_prefix == {word: i for i, word in enumerate(reference)}

    @pytest.mark.parametrize(
        "balancer",
        [balancing.KnuthBalancer(4), balancing.WeakKnuthBalancer(64, 3)],
        ids=["knuth-4", "weak-64-3"],
    )
    def test_balanced_prefix_past_the_table_refused(self, balancer):
        # The last balanced word of length 2*p0 is balanced, but no flip mask has it.
        prefix = b"1" * balancer.p0 + b"0" * balancer.p0
        assert prefix not in balancer._prefixes[1]
        body = b"01" * (balancer.source_bits // 2)
        with pytest.raises(ValueError, match="out-of-range flip index"):
            balancer.decode_block(prefix + body)


class TestKnuth:
    def test_all_zeros(self):
        prefix, body = exact_split(0b0000, 4)
        assert body == b"1100"
        assert weight(prefix) == len(prefix) // 2

    def test_already_balanced_picks_smallest_preserving_index(self):
        prefix, body = exact_split(0b0101, 4)
        assert body == b"1001"  # k0 = 2 is the first balance-preserving flip
        assert exact_join(prefix, body) == 0b0101

    def test_exhaustive_round_trip_n8(self):
        for value, _ in every_word(8):
            prefix, body = exact_split(value, 8)
            assert weight(body) == 4
            assert weight(prefix) == len(prefix) // 2
            assert exact_join(prefix, body) == value

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            balancing.KnuthBalancer(3)

    def test_corrupt_prefix_rejected(self):
        prefix, body = exact_split(0b01101000, 8)
        bad = b"1" * len(prefix)
        with pytest.raises(ValueError, match="balanced"):
            exact_join(bad, body)

    @given(st.integers(0, 2**12 - 1))
    def test_random_round_trip_n12(self, value):
        prefix, body = exact_split(value, 12)
        assert weight(body) == 6
        assert exact_join(prefix, body) == value


class TestWeakKnuth:
    def test_all_zero_candidates(self):
        # n=16, p0=2: flip lengths 1, 5, 9, 13; flipping 9 gets closest to 8
        prefix, body = weak_split(0, 16, 2)
        assert weight(body) == 9
        assert abs(weight(body) - 8) <= 2  # ceil(s/2) with s = 4
        assert weak_join(prefix, body, 2) == 0

    def test_exhaustive_bound_n10(self):
        s = math.ceil(10 / 4)
        bound = math.ceil(s / 2)
        for value, _ in every_word(10):
            prefix, body = weak_split(value, 10, 2)
            assert abs(2 * weight(body) - 10) <= 2 * bound
            assert weak_join(prefix, body, 2) == value

    def test_full_grid_reduces_to_exact_balance(self):
        # 2**p0 = n samples every position, so even-length words balance exactly
        for value, _ in every_word(8):
            _, body = weak_split(value, 8, 3)
            assert weight(body) == 4

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            balancing.WeakKnuthBalancer(2, 0)
        with pytest.raises(ValueError):
            balancing.WeakKnuthBalancer(2, 2)
        with pytest.raises(ValueError):
            balancing.WeakKnuthBalancer(2, 1).encode_block(0b100)


class TestBalancerObjects:
    def test_knuth_balancer_geometry(self):
        b = balancing.KnuthBalancer(8)
        assert b.p0 == 3
        assert b.oligo_len == 14
        assert b.weight_bound == 0

    def test_weak_balancer_geometry(self):
        b = balancing.WeakKnuthBalancer(16, 2)
        assert b.oligo_len == 20
        assert b.weight_bound == 2

    @pytest.mark.parametrize(
        "balancer",
        [balancing.KnuthBalancer(8), balancing.WeakKnuthBalancer(10, 2)],
    )
    def test_word_round_trip(self, balancer):
        outputs = set()
        for value, _ in every_word(balancer.source_bits):
            out = balancer.encode_block(value)
            assert len(out) == balancer.oligo_len and not out.strip(b"01")
            gap = abs(2 * weight(out) - balancer.oligo_len)
            assert gap <= 2 * balancer.weight_bound
            assert balancer.decode_block(out) == value
            outputs.add(out)
        assert len(outputs) == 2**balancer.source_bits

    @pytest.mark.parametrize(
        "balancer",
        [balancing.KnuthBalancer(8), balancing.WeakKnuthBalancer(10, 2)],
    )
    def test_word_one_past_the_weight_bound_refused(self, balancer):
        # A valid prefix, and a body whose ones put the word one past the bound.
        prefix = balancer.encode_block(0)[: 2 * balancer.p0]
        ones = balancer.oligo_len // 2 + balancer.weight_bound + 1 - balancer.p0
        body = b"1" * ones + b"0" * (balancer.source_bits - ones)
        with pytest.raises(ValueError, match="weight"):
            balancer.decode_block(prefix + body)
        at_bound = body[1:] + b"0"  # one 1 fewer: on the bound, so it decodes
        assert balancer.decode_block(prefix + at_bound) >= 0

    def test_length_validation(self):
        b = balancing.KnuthBalancer(8)
        with pytest.raises(ValueError, match=r"^index 256 outside 0\.\.2\*\*8 - 1$"):
            b.encode_block(2**8)
        with pytest.raises(ValueError, match=r"^index -1 outside"):
            b.encode_block(-1)
        with pytest.raises(ValueError):
            b.decode_block(b"0" * 13)
        with pytest.raises(ValueError, match="^not a block of 8 binary digits$"):
            b.encode_blocks(b"0" * 8 + b"0110201")

    @pytest.mark.parametrize(
        "balancer",
        [balancing.KnuthBalancer(8), balancing.WeakKnuthBalancer(10, 2)],
    )
    def test_word_that_is_not_binary_digits_refused_at_its_place(self, balancer):
        words = balancer.encode_blocks(b"0" * 4 * balancer.source_bits)
        bad = words[2][:-1] + b"2"
        with pytest.raises(ValueError, match="^not a word of binary digits$"):
            balancer.decode_blocks(words[:2] + [bad, words[3]])
        refused = stream_refusal(balancer, words[:2] + [bad, words[3]])
        assert (str(refused), refused.position) == ("block 3: not a word of binary digits", 2)
        # A word before it refused for another fault is refused first.
        refused = stream_refusal(balancer, [words[0], words[1][:-1], bad])
        n = balancer.oligo_len
        assert (str(refused), refused.position) == (f"block 2: expected {n} bits, got {n - 1}", 1)

    @pytest.mark.parametrize(
        "balancer",
        [balancing.KnuthBalancer(8), balancing.WeakKnuthBalancer(10, 2)],
    )
    # A bytearray's or memoryview's digits pass the batch's digit check, and fail a later step.
    @pytest.mark.parametrize("item", [str, bytearray, memoryview, None, int])
    def test_an_item_that_is_not_bytes_is_refused_with_its_block(self, balancer, item):
        words = balancer.encode_blocks(b"01" * 4 * balancer.source_bits)
        bad = {str: words[5].decode(), bytearray: bytearray(words[5]),
               memoryview: memoryview(words[5]), None: None, int: 5}[item]
        batch = words[:5] + [bad] + words[6:]
        with pytest.raises(ValueError) as refused:
            balancer.decode_blocks(batch)
        assert type(refused.value) is ValueError
        assert str(refused.value) == "not a word of binary digits"
        refused = stream_refusal(balancer, batch)
        assert (str(refused), refused.position) == ("block 6: not a word of binary digits", 5)


def test_digit_words_match_the_bit_by_bit_flip():
    # The integer flips against a flip done one digit at a time.
    prefixes = balanced_words(balancing.KnuthBalancer(8).p0)
    for value, digits in every_word(8):
        prefix, body = exact_split(value, 8)
        k0 = prefixes.index(prefix) + 1
        flipped = bytes(b"10"[d - ord("0")] for d in digits[:k0]) + digits[k0:]
        assert body == flipped


def test_decode_stream_refuses_an_unbalanced_construction1_strand():
    # A valid prefix on the high plane, but 8 of 14 bases A or T: the exact
    # balancer's bound is 7.
    codec = make_codec("construction1", ell=8)
    strands = [s for batch in payload.encode_stream(codec, [b"a few payload bytes"]) for s in batch]
    strands[2] = b"GGAAAGAAAAGGGA"
    with pytest.raises(ValueError, match=r"^block 3: word weight"):
        b"".join(payload.decode_stream(codec, [strands]))
