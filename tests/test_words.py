import random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from dnacodes import oracle, words


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


@given(st.integers(0, 2**70), st.integers(0, 8))
def test_int_digits_round_trip(value, extra):
    width = value.bit_length() + extra
    digits = words.int_to_digits(value, width)
    assert len(digits) == width and not digits.strip(b"01")
    assert int(digits or b"0", 2) == value


# Widths at and past each struct word's size, where the batch conversions change word or path.
EDGE_WIDTHS = [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128, 255, 256]


def filled(width, count, fill, rng):
    if fill == "random":
        return [rng.getrandbits(width) for _ in range(count)]
    return [0 if fill == "zeros" else 2**width - 1] * count


def check_batch_conversions(width, values):
    pieces = [format(value, f"0{width}b").encode("ascii") for value in values]
    assert words.ints_to_digits(values, width) == b"".join(pieces)
    assert list(words.digits_to_ints(pieces, width)) == [int(piece, 2) for piece in pieces]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(EDGE_WIDTHS), st.integers(1, 256)),
       st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 2000)),
       st.sampled_from(["random", "zeros", "ones"]), st.randoms(use_true_random=False))
@example(1, 0, "random", random.Random(0))
@example(64, 2, "ones", random.Random(0))
@example(65, 2000, "random", random.Random(0))
@example(256, 1, "ones", random.Random(0))
def test_batch_conversions_match_each_value(width, count, fill, rng):
    check_batch_conversions(width, filled(width, count, fill, rng))


def test_batch_conversions_at_every_edge_width_and_batch_size():
    rng = random.Random(2030)
    for width in EDGE_WIDTHS:
        for count in (0, 1, 2, 3, 1999, 2000):
            for fill in ("random", "zeros", "ones"):
                check_batch_conversions(width, filled(width, count, fill, rng))


@pytest.mark.parametrize(
    "seq,expected",
    [((), 0), ((1,), 1), ((0, 0, 0), 3), ((0, 1, 1, 0, 0, 0), 3), ((0, 1, 2, 3), 1)],
)
def test_max_run(seq, expected):
    assert words.max_run(seq) == expected


# Byte strings built from runs, so long runs come often, and the empty one.
_RUNS = st.lists(st.tuples(st.sampled_from(b"GCAT"), st.integers(1, 12)), max_size=12)


@given(st.one_of(
    _RUNS.map(lambda runs: b"".join(bytes([base]) * length for base, length in runs)),
    st.binary(max_size=40),
    st.lists(st.integers(-2, 2), max_size=40).map(tuple),
))
@example(b"")
@example(())
def test_max_run_matches_the_oracle_scan(seq):
    assert words.max_run(seq) == oracle._scan_max_run(seq)
