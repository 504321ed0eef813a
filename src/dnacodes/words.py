"""Byte-level primitives for quaternary strands and binary words.

A strand (oligo) is written in the bases G, C, A, T, which stand for the
symbols 0, 1, 2, 3.  Every strand decomposes into two binary planes,
symbol = low + 2*high, and the high plane marks which symbols are A or T,
so the AT-content of a strand equals the bit weight of its high plane.

Codecs handle a strand as its uppercase ASCII bytes (b"GCAT"), no other
case, and a binary plane as ASCII digits (b"0110"), the form `format(value,
"0nb")` gives and `int(digits, 2)` reads.  Planes merge by integer
addition (`add_planes`, for planes already checked to be digits) and
split by the byte translation tables LOW_DIGIT_OF_BASE and
HIGH_DIGIT_OF_BASE, so neither loops over symbols in Python.

A batch of blocks travels between the framing and the codecs as one
numeral of ASCII digits, its blocks' k digits one after another, so
neither side converts a block on its own.  `digits_to_ints` reads a
batch's k-digit pieces as ints for the codes that compute with indices,
and `ints_to_digits` writes the numeral of a list of block indices.  For
two or more blocks of at most 64 bits both go through fixed-width struct
words (B, H, I or Q): a batch of pieces is padded to words by one join
and read by one `int(..., 2)` and one unpack, and a list of indices is
packed into words by one pack and squeezed into k-bit fields by a few
whole-batch integer operations.  A struct format of such a batch is one
word code with a repeat count, never one code per block.  Wider blocks
are read and written one at a time.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import groupby, repeat
from struct import pack, unpack

BASES = b"GCAT"


def max_run(seq: Sequence[int]) -> int:
    """Length of the longest block of identical consecutive symbols."""
    return max((sum(1 for _ in run) for _, run in groupby(seq)), default=0)


def _digit_table(digit_of_symbol: str) -> bytes:
    """Uppercase base -> the digit its symbol has in one plane; else b"x"."""
    table = bytearray(b"x" * 256)
    for base, digit in zip(BASES, digit_of_symbol.encode("ascii")):
        table[base] = digit
    return bytes(table)


# The low and high plane digit of each base, and, read the other way, the
# planes' digits added as ASCII bytes, low + 2*high = 0x90 + symbol, to bases.
LOW_DIGIT_OF_BASE = _digit_table("0101")
HIGH_DIGIT_OF_BASE = _digit_table("0011")
_BASE_OF_PLANES = bytes(0x90) + BASES + bytes(256 - 0x94)


def int_to_digits(value: int, width: int) -> bytes:
    """The width-digit binary numeral of value (0 <= value < 2**width) as ASCII digits."""
    return bin(value | 1 << width)[3:].encode("ascii")


# The struct code of the unsigned word of each size in bits.
_WORD_CODE = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _word_bits(width: int) -> int:
    """Bits of the smallest struct word that holds width bits (width <= 64)."""
    return max(8, 1 << (width - 1).bit_length())


def digits_to_ints(pieces: Sequence[bytes], width: int) -> Sequence[int]:
    """The value of each width-digit binary piece, as int(piece, 2) reads it.

    Two or more pieces of at most 64 digits are padded in front to the
    digits of a struct word by one join, read as one integer and cut
    into words by one unpack; others are read one at a time.
    """
    count = len(pieces)
    if count == 1:
        return [int(pieces[0], 2)]
    if count == 0 or width > 64:
        return [int(piece, 2) for piece in pieces]
    bits = _word_bits(width)
    pad = b"0" * (bits - width)
    joined = int(pad + pad.join(pieces), 2)
    return unpack(f">{count}{_WORD_CODE[bits]}", joined.to_bytes(count * bits // 8, "big"))


def ints_to_digits(values: Sequence[int], width: int) -> bytes:
    """The numeral of values, each width digits (0 <= value < 2**width), one after another.

    Two or more values of at most 64 bits are packed into struct words
    by one pack, read as one integer, and squeezed a level at a time:
    each level moves the upper field of every pair of neighbouring slots
    down onto the lower one by one mask, one xor, one shift and one or
    over the whole batch, so the slots double and the gaps close.
    Wider values are written one at a time and joined once.
    """
    count = len(values)
    if count == 1:
        return int_to_digits(values[0], width)
    if width > 64:
        return b"".join(map(int_to_digits, values, repeat(width)))
    size = width * count
    slot = _word_bits(width)
    joined = int.from_bytes(pack(f">{count}{_WORD_CODE[slot]}", *values), "big")
    while count > 1 and slot > width:  # fields that fill their words have no gaps
        count = (count + 1) // 2
        half = slot // 8
        low = joined & int.from_bytes((bytes(half) + b"\xff" * half) * count, "big")
        joined = low | (joined ^ low) >> (slot - width)
        slot *= 2
        width *= 2
    return int_to_digits(joined, size)


def add_planes(low: bytes, high: bytes) -> bytes:
    """The strand of planes known to be binary digits; ValueError unless of one length.

    Each plane is read as one base-256 integer, so low + 2*high is one
    integer addition without carries, and a translate turns each byte
    0x90 + symbol into its base.
    """
    if len(low) != len(high):
        raise ValueError(f"plane lengths differ: {len(low)} != {len(high)}")
    merged = int.from_bytes(low, "big") + (int.from_bytes(high, "big") << 1)
    return merged.to_bytes(len(low), "big").translate(_BASE_OF_PLANES)
