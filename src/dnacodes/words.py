"""Symbol-level primitives for quaternary strands and binary words.

A strand (oligo) is written in the bases G, C, A, T, which stand for the
symbols 0, 1, 2, 3.  Every strand decomposes into two binary planes,
symbol = low + 2*high, and the high plane marks which symbols are A or T,
so the AT-content of a strand equals the bit weight of its high plane.

Codecs handle a strand as its uppercase ASCII bytes (b"GCAT"), no other
case, and a binary plane as ASCII digits (b"0110"), the form `format(value,
"0nb")` gives and `int(digits, 2)` reads.  Merging and splitting planes go
through integer addition and byte translation tables, so neither loops
over symbols in Python.  Symbol tuples remain for analysis: `text_to_oligo`
(either case) and `oligo_to_text` convert between the two forms.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

ALPHABET = "GCAT"
BASES = ALPHABET.encode("ascii")

Oligo = tuple[int, ...]

_SYMBOL_BY_BASE = {base: value for value, base in enumerate(ALPHABET)}


def phi(u: int) -> int:
    """AT-membership indicator of a quaternary symbol: 1 for A/T, else 0."""
    if u not in (0, 1, 2, 3):
        raise ValueError(f"not a quaternary symbol: {u!r}")
    return 1 if u > 1 else 0


def at_weight(word: Sequence[int]) -> int:
    """Number of A/T symbols (symbol values 2 and 3) in a quaternary word."""
    return sum(phi(u) for u in word)


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


def relative_unbalance(word: Sequence[int]) -> float:
    """|w/n - 1/2| where w is the AT-content of the quaternary word."""
    n = len(word)
    if n == 0:
        raise ValueError("relative unbalance of the empty word is undefined")
    return abs(at_weight(word) / n - 0.5)


# Byte tables for the conversions below.  Every byte value that is not a
# valid input maps to _BAD (or to b"x" for digits, which int() rejects),
# so one search after a translate validates a whole word.
_BAD = 0xFF
_BASE_OF_SYMBOL = BASES + bytes([_BAD]) * 252
_SYMBOL_OF_BASE = bytes(
    _SYMBOL_BY_BASE.get(chr(v).upper(), _BAD) if v < 128 else _BAD for v in range(256)
)
_SYMBOL_ERROR = "symbol out of range for a quaternary word"


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


def merge_planes(low: bytes, high: bytes) -> bytes:
    """The strand whose (low, high) planes are these ASCII digit strings.

    Each plane is read as one base-256 integer, so low + 2*high is one
    integer addition without carries, and a translate turns each byte
    0x90 + symbol into its base.
    """
    if len(low) != len(high):
        raise ValueError(f"plane lengths differ: {len(low)} != {len(high)}")
    if low.strip(b"01") or high.strip(b"01"):
        raise ValueError("planes must be binary digits")
    merged = int.from_bytes(low, "big") + (int.from_bytes(high, "big") << 1)
    return merged.to_bytes(len(low), "big").translate(_BASE_OF_PLANES)


def split_planes(strand: bytes) -> tuple[bytes, bytes]:
    """The (low, high) planes of an uppercase strand as ASCII digit strings."""
    low = strand.translate(LOW_DIGIT_OF_BASE)
    if low.find(b"x") >= 0:
        raise ValueError("not a strand of the bases G, C, A, T")
    return low, strand.translate(HIGH_DIGIT_OF_BASE)


def text_to_oligo(text: str | bytes) -> Oligo:
    """Parse an ACGT string or ASCII bytes (case-insensitive) into a symbol tuple."""
    raw = text.encode("ascii", "replace") if isinstance(text, str) else text
    symbols = raw.translate(_SYMBOL_OF_BASE)
    pos = symbols.find(_BAD)
    if pos >= 0:
        ch = text[pos]
        if isinstance(ch, int):
            if ch > 0x7F:
                raise ValueError(f"non-ASCII byte 0x{ch:02x} at position {pos}")
            ch = chr(ch)
        raise ValueError(f"invalid nucleotide {ch!r} at position {pos}")
    return tuple(symbols)


def oligo_to_text(word: Iterable[int]) -> str:
    """Render a symbol tuple as an uppercase ACGT string."""
    if isinstance(word, int):  # bytes(n) would be n zero bytes
        raise ValueError(_SYMBOL_ERROR)
    try:
        text = bytes(word).translate(_BASE_OF_SYMBOL)
    except (ValueError, TypeError):
        raise ValueError(_SYMBOL_ERROR) from None
    if _BAD in text:
        raise ValueError(_SYMBOL_ERROR)
    return text.decode("ascii")
