"""Symbol-level primitives for quaternary strands and binary words.

A strand (oligo) is a tuple over {0, 1, 2, 3} with the fixed nucleotide
mapping G=0, C=1, A=2, T=3.  Every strand x decomposes into two binary
planes, x = low + 2*high, and the high plane marks which symbols are A
or T, so the AT-content of x equals the bit weight of its high plane.

Conversions between symbol tuples, planes, text and integers go through
byte translation tables and int parsing, so none loops over symbols in
Python.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

ALPHABET = "GCAT"

Oligo = tuple[int, ...]
Bits = tuple[int, ...]

_SYMBOL_BY_BASE = {base: value for value, base in enumerate(ALPHABET)}


def phi(u: int) -> int:
    """AT-membership indicator of a quaternary symbol: 1 for A/T, else 0."""
    if u not in (0, 1, 2, 3):
        raise ValueError(f"not a quaternary symbol: {u!r}")
    return 1 if u > 1 else 0


def at_weight(word: Sequence[int]) -> int:
    """Number of A/T symbols (symbol values 2 and 3) in a quaternary word."""
    return sum(phi(u) for u in word)


def bit_weight(bits: Sequence[int]) -> int:
    """Number of ones in a binary word."""
    return sum(bits)


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


# Byte tables for the plane and text conversions below.  A symbol or bit
# travels as one byte; every byte value that is not a valid input maps
# to _BAD, so one `in` test after a translate validates a whole word.
_BAD = 0xFF
_LOW_OF_SYMBOL = bytes(v & 1 if v < 4 else _BAD for v in range(256))
_HIGH_OF_SYMBOL = bytes(v >> 1 if v < 4 else _BAD for v in range(256))
_BASE_OF_SYMBOL = ALPHABET.encode("ascii") + bytes([_BAD]) * 252
_SYMBOL_OF_BASE = bytes(
    _SYMBOL_BY_BASE.get(chr(v).upper(), _BAD) if v < 128 else _BAD for v in range(256)
)
_SYMBOL_ERROR = "symbol out of range for a quaternary word"
_PLANE_ERROR = "planes must be binary"
# Bit values (0, 1) to binary digits ("0", "1") and back; any other byte
# becomes "x", which int() rejects.
_DIGIT_OF_BIT = b"01" + b"x" * 254
_BIT_OF_DIGIT = bytes.maketrans(b"01", b"\x00\x01")


def _as_bytes(values: Iterable[int], error: str) -> bytes:
    """The values one per byte; ValueError(error) if any is not a byte value."""
    if isinstance(values, int):  # bytes(n) would be n zero bytes
        raise ValueError(error)
    try:
        return bytes(values)
    except (ValueError, TypeError):
        raise ValueError(error) from None


def bits_to_int(bits: Iterable[int]) -> int:
    """Read a binary word as an unsigned integer, first bit most significant."""
    digits = _as_bytes(bits, "bits must be 0 or 1").translate(_DIGIT_OF_BIT)
    try:
        return int(digits or b"0", 2)
    except ValueError:
        raise ValueError("bits must be 0 or 1") from None


def int_to_bits(value: int, width: int) -> Bits:
    """The width-bit binary word of value, most significant bit first (width >= 1)."""
    return tuple(format(value, f"0{width}b").encode("ascii").translate(_BIT_OF_DIGIT))


def split_planes(word: Sequence[int]) -> tuple[Bits, Bits]:
    """Decompose a quaternary word into (low, high) binary planes."""
    raw = _as_bytes(word, _SYMBOL_ERROR)
    low = raw.translate(_LOW_OF_SYMBOL)
    if _BAD in low:
        raise ValueError(_SYMBOL_ERROR)
    return tuple(low), tuple(raw.translate(_HIGH_OF_SYMBOL))


def merge_planes(low: Sequence[int], high: Sequence[int]) -> Oligo:
    """Rebuild a quaternary word from its (low, high) binary planes.

    Each plane is read as a base-256 integer with one bit per digit, so
    low + 2*high is one integer addition without carries.
    """
    if len(low) != len(high):
        raise ValueError(f"plane lengths differ: {len(low)} != {len(high)}")
    lo, hi = _as_bytes(low, _PLANE_ERROR), _as_bytes(high, _PLANE_ERROR)
    if lo.translate(None, b"\x00\x01") or hi.translate(None, b"\x00\x01"):
        raise ValueError(_PLANE_ERROR)
    merged = int.from_bytes(lo, "big") + (int.from_bytes(hi, "big") << 1)
    return tuple(merged.to_bytes(len(lo), "big"))


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


def oligo_to_text(word: Sequence[int]) -> str:
    """Render a symbol tuple as an uppercase ACGT string."""
    text = _as_bytes(word, _SYMBOL_ERROR).translate(_BASE_OF_SYMBOL)
    if _BAD in text:
        raise ValueError(_SYMBOL_ERROR)
    return text.decode("ascii")
