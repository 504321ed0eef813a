import random

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from dnacodes import words


def split(strand: bytes) -> tuple[bytes, bytes]:
    """The (low, high) planes of an uppercase strand, by the translates codecs use."""
    return strand.translate(words.LOW_DIGIT_OF_BASE), strand.translate(words.HIGH_DIGIT_OF_BASE)


def test_symbol_mapping():
    # G, C, A, T are the symbols 0..3, symbol = low + 2*high.
    assert words.BASES == b"GCAT"
    assert split(b"GCAT") == (b"0101", b"0011")
    assert words.add_planes(b"0101", b"0011") == b"GCAT"
    low, high = split(b"TTAA")
    assert (low, high.count(b"1")) == (b"1100", 4)


def test_phi():
    # The AT indicator phi (1 for A and T, 0 for G and C) is the high plane digit.
    assert bytes(words.HIGH_DIGIT_OF_BASE[b] for b in words.BASES) == b"0011"


def test_text_parse_error_position():
    # Every byte but an uppercase base reads as b"x" in both plane tables,
    # so one translate and one find locate the first byte that is no base.
    for table in (words.LOW_DIGIT_OF_BASE, words.HIGH_DIGIT_OF_BASE):
        assert [v for v in range(256) if table[v] != ord("x")] == sorted(words.BASES)
    assert b"ACXT".translate(words.LOW_DIGIT_OF_BASE).find(b"x") == 2
    assert "GC\u00e9".encode().translate(words.LOW_DIGIT_OF_BASE).find(b"x") == 2


@given(st.text(alphabet="ACGTacgt", max_size=50))
def test_text_round_trip(s):
    # A strand line of either case, folded to uppercase, survives the planes.
    strand = s.encode("ascii").upper()
    assert words.add_planes(*split(strand)) == s.upper().encode("ascii")


@given(st.text(alphabet="GCAT", max_size=40))
def test_plane_round_trip(text):
    strand = text.encode("ascii")
    low, high = split(strand)
    assert len(low) == len(high) == len(strand)
    assert words.add_planes(low, high) == strand
    symbols = strand.translate(bytes.maketrans(b"GCAT", bytes(range(4))))
    assert low == bytes(b"01"[s & 1] for s in symbols)
    assert sum(s > 1 for s in symbols) == high.count(b"1")


def test_conversions_reject_bad_values():
    with pytest.raises(ValueError, match="plane lengths differ: 2 != 3"):
        words.add_planes(b"01", b"011")


@given(st.binary(max_size=60), st.integers(1, 9))
def test_cut_matches_slicing(data, n):
    data = data[: len(data) - len(data) % n]
    assert words.cut(data, n) == [data[i : i + n] for i in range(0, len(data), n)]


@given(st.integers(0, 2**70), st.integers(0, 8))
def test_int_digits_round_trip(value, extra):
    width = value.bit_length() + extra
    digits = words.int_to_digits(value, width)
    assert len(digits) == width and not digits.strip(b"01")
    assert int(digits or b"0", 2) == value


@given(st.integers(1, 256), st.integers(0, 1000), st.sampled_from(["random", "zeros", "ones"]),
       st.randoms(use_true_random=False))
@example(1, 0, "random", random.Random(0))
@example(256, 1, "ones", random.Random(0))
def test_pairwise_join_matches_formatting_each_value(width, count, fill, rng):
    if fill == "random":
        values = [rng.getrandbits(width) for _ in range(count)]
    else:
        values = [0 if fill == "zeros" else 2**width - 1] * count
    expected = "".join(format(value, f"0{width}b") for value in values).encode("ascii")
    assert words.ints_to_digits(values, width) == expected


@pytest.mark.parametrize(
    "seq,expected",
    [((), 0), ((1,), 1), ((0, 0, 0), 3), ((0, 1, 1, 0, 0, 0), 3), ((0, 1, 2, 3), 1)],
)
def test_max_run(seq, expected):
    assert words.max_run(seq) == expected
