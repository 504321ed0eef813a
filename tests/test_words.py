import pytest
from hypothesis import given
import hypothesis.strategies as st

from dnacodes import words


def test_symbol_mapping():
    assert words.oligo_to_text((0, 1, 2, 3)) == "GCAT"
    assert words.text_to_oligo("GCAT") == (0, 1, 2, 3)
    assert words.text_to_oligo("TTAA") == (3, 3, 2, 2)
    assert words.at_weight((3, 3, 2, 2)) == 4


def test_text_parse_error_position():
    with pytest.raises(ValueError, match="position 2"):
        words.text_to_oligo("ACXT")


def test_case_insensitive_input_uppercase_output():
    word = words.text_to_oligo("acgt")
    assert words.oligo_to_text(word) == "ACGT"


@given(st.text(alphabet="ACGTacgt", max_size=50))
def test_text_round_trip(s):
    assert words.oligo_to_text(words.text_to_oligo(s)) == s.upper()


@given(st.text(alphabet="GCAT", max_size=40))
def test_plane_round_trip(text):
    strand = text.encode("ascii")
    low, high = words.split_planes(strand)
    assert len(low) == len(high) == len(strand)
    assert words.merge_planes(low, high) == strand
    symbols = words.text_to_oligo(strand)
    assert low == bytes(b"01"[s & 1] for s in symbols)
    assert words.at_weight(symbols) == high.count(b"1")


def test_text_to_oligo_reads_ascii_bytes():
    assert words.text_to_oligo(b"gcAT") == (0, 1, 2, 3)
    with pytest.raises(ValueError, match="invalid nucleotide 'N' at position 1"):
        words.text_to_oligo(b"ANT")
    with pytest.raises(ValueError, match="non-ASCII byte 0xc3 at position 2"):
        words.text_to_oligo("GC\u00e9".encode())
    with pytest.raises(ValueError, match="invalid nucleotide '\u00e9' at position 2"):
        words.text_to_oligo("GC\u00e9")


@pytest.mark.parametrize(
    "call",
    [
        lambda: words.oligo_to_text((0, 4)),
        lambda: words.oligo_to_text((-1,)),
        lambda: words.oligo_to_text(3),
        lambda: words.split_planes(b"GCNT"),
        lambda: words.split_planes(b"GC AT"),
        lambda: words.merge_planes(b"02", b"00"),
        lambda: words.merge_planes(b"0", b"-1"),
        lambda: words.merge_planes(b"01", b"1_"),
        lambda: words.merge_planes(b"01", b"011"),
    ],
)
def test_conversions_reject_bad_values(call):
    with pytest.raises(ValueError):
        call()


@given(st.integers(0, 2**70), st.integers(0, 8))
def test_int_digits_round_trip(value, extra):
    width = value.bit_length() + extra
    digits = words.int_to_digits(value, width)
    assert len(digits) == width and not digits.strip(b"01")
    assert int(digits or b"0", 2) == value


def test_phi():
    assert [words.phi(u) for u in range(4)] == [0, 0, 1, 1]
    with pytest.raises(ValueError):
        words.phi(4)


@pytest.mark.parametrize(
    "seq,expected",
    [((), 0), ((1,), 1), ((0, 0, 0), 3), ((0, 1, 1, 0, 0, 0), 3), ((0, 1, 2, 3), 1)],
)
def test_max_run(seq, expected):
    assert words.max_run(seq) == expected


def test_relative_unbalance():
    assert words.relative_unbalance((2, 3, 0, 1)) == 0.0
    assert words.relative_unbalance((2, 3)) == 0.5
    with pytest.raises(ValueError):
        words.relative_unbalance(())


def test_planes_take_uppercase_bases_only():
    with pytest.raises(ValueError, match="bases"):
        words.split_planes(b"GCaT")
