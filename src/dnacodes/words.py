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
HIGH_DIGIT_OF_BASE, so neither loops over symbols in Python.  `cut` splits joined strands or planes into equal pieces with
one struct unpack, by the piece format of their width (`piece_format`).

A batch of blocks travels between the framing and the codecs as one
numeral of ASCII digits, its blocks' k digits one after another, so
neither side converts a block on its own; `ints_to_digits` writes the
numeral of a list of block indices for the codes that compute them.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import repeat
from operator import lshift, or_
from struct import unpack

BASES = b"GCAT"


def max_run(seq: Sequence[int]) -> int:
    """Length of the longest block of identical consecutive symbols."""
    best = 0
    cur = 0
    prev = object()
    for s in seq:
        cur = cur + 1 if s == prev else 1
        prev = s
        if cur > best:
            best = cur
    return best


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


@lru_cache(maxsize=None)  # widths are block and strand lengths: a few hundred at most
def piece_format(width: int) -> str:
    """The struct format of one width-byte piece, built once per width.

    `struct.unpack` keeps its compiled formats by format string, so one
    block's format, `piece_format(width) * 1`, is found there at once.
    """
    return f"{width}s"


def cut(data: bytes, n: int) -> list[bytes]:
    """data in n-byte pieces, by one struct unpack; len(data) must be a multiple of n."""
    return list(unpack(piece_format(n) * (len(data) // n), data))


def int_to_digits(value: int, width: int) -> bytes:
    """The width-digit binary numeral of value (0 <= value < 2**width) as ASCII digits."""
    return bin(value | 1 << width)[3:].encode("ascii")


def ints_to_digits(values: list[int], width: int) -> bytes:
    """The numeral of values, each width digits (0 <= value < 2**width), one after another.

    Neighbours are joined pairwise by shift and or, a level at a time,
    so each level is two C-level maps and the last leaves one integer
    for one format; a zero put in front of an odd level keeps the value.
    """
    size = width * len(values)
    while len(values) > 1:
        if len(values) % 2:
            values = [0, *values]
        values = list(map(or_, map(lshift, values[::2], repeat(width)), values[1::2]))
        width *= 2
    return int_to_digits(values[0] if values else 0, size)


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
