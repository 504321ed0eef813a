"""Binary balancing codes: exact prefix-flip balancing and its weak variant.

The exact scheme inverts the first k0 bits of an even-length word so the
result has equal ones and zeros; such an index always exists because the
weight after flipping k bits walks in unit steps from w to n - w.  The
weak variant only tries a power-of-two grid of flip positions and takes
the best, trading exact balance for a shorter index.

Either way the chosen index travels inside a fixed balanced prefix: the
index-th weight-p word of length 2p in lexicographic order.  Words go in
as integers, most significant bit first, and the flips are XOR masks;
prefix and body come out as ASCII digit strings (b"0110"), the high
plane that the balance construction merges with its payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .words import int_to_digits

__all__ = [
    "KnuthBalancer",
    "WeakKnuthBalancer",
    "knuth_decode",
    "knuth_encode",
    "rank_balanced",
    "unrank_balanced",
    "weak_knuth_decode",
    "weak_knuth_encode",
]


def unrank_balanced(length: int, weight: int, index: int) -> bytes:
    """The index-th length-`length` word of the given weight, in lex order, as digits."""
    if not 0 <= weight <= length:
        raise ValueError("weight out of range")
    if not 0 <= index < math.comb(length, weight):
        raise ValueError("index out of range")
    digits = bytearray()
    remaining = weight
    for pos in range(length):
        slots = length - pos - 1
        with_zero = math.comb(slots, remaining) if remaining <= slots else 0
        if index < with_zero:
            digits += b"0"
        else:
            index -= with_zero
            digits += b"1"
            remaining -= 1
    return bytes(digits)


def rank_balanced(word: bytes) -> int:
    """Lexicographic rank of a digit word among the words of its length and weight."""
    if word.strip(b"01"):
        raise ValueError("word must be binary digits")
    length = len(word)
    remaining = word.count(b"1")
    index = 0
    for pos, digit in enumerate(word):
        if digit == ord("1"):
            slots = length - pos - 1
            index += math.comb(slots, remaining) if remaining <= slots else 0
            remaining -= 1
    return index


def _prefix_bits(p0: int) -> int:
    """Length of the balanced prefix word that carries a p0-bit index."""
    return 2 * p0


@lru_cache(maxsize=None)
def _prefixes(p0: int, count: int) -> tuple[tuple[bytes, ...], dict[bytes, int]]:
    """The first count balanced prefixes, and each one's index."""
    words = tuple(unrank_balanced(_prefix_bits(p0), p0, i) for i in range(count))
    return words, {word: i for i, word in enumerate(words)}


def _prefix_index(prefix: bytes, p0: int, count: int, what: str) -> int:
    """Index of a prefix word below count, or ValueError saying what is wrong."""
    index = _prefixes(p0, count)[1].get(prefix)
    if index is None:
        if len(prefix) != _prefix_bits(p0):
            raise ValueError(f"prefix must have {_prefix_bits(p0)} bits, got {len(prefix)}")
        if prefix.strip(b"01") or prefix.count(b"1") != p0:
            raise ValueError("prefix is not a balanced word")
        raise ValueError(f"prefix decodes to an out-of-range {what} index")
    return index


def _check_word(value: int, n: int) -> None:
    if value < 0 or value >> n:
        raise ValueError(f"expected a {n}-bit word, got {value}")


def _knuth_p0(n: int) -> int:
    if n < 2 or n % 2:
        raise ValueError("word length must be even and at least 2")
    return max(1, (n - 1).bit_length())


def knuth_encode(value: int, n: int) -> tuple[bytes, bytes]:
    """Balance an even-length n-bit word by flipping its first k0 bits.

    Returns (prefix, body) digits: the body is exactly balanced and the
    prefix is the balanced word encoding k0 - 1.  The smallest balancing
    k0 in 1..n is chosen.
    """
    p0 = _knuth_p0(n)
    _check_word(value, n)
    half = n // 2
    weight = value.bit_count()
    # Flipping k bits leaves weight + k - 2 * (ones among them); each
    # further flip moves it by one, so no k closer than the current gap
    # can balance, and the search jumps by the gap.
    k0 = abs(weight - half) or 1
    while k0 <= n:
        gap = abs(weight + k0 - 2 * (value >> (n - k0)).bit_count() - half)
        if gap == 0:
            break
        k0 += gap
    else:  # unreachable: the weight walk must cross n/2
        raise AssertionError("no balancing index found")
    body = value ^ ((1 << k0) - 1) << (n - k0)
    return _prefixes(p0, n)[0][k0 - 1], int_to_digits(body, n)


def knuth_decode(prefix: bytes, body: bytes) -> int:
    """Invert knuth_encode: the n-bit word from its prefix and body digits."""
    n = len(body)
    k0 = _prefix_index(prefix, _knuth_p0(n), n, "flip") + 1
    return int(body, 2) ^ ((1 << k0) - 1) << (n - k0)


def _balancing_positions(n: int, p0: int) -> list[int]:
    m0 = 2**p0
    step = -(-n // m0)  # ceil(n / m0)
    return [min(1 + i * step, n) for i in range(m0)]


@lru_cache(maxsize=None)
def _flip_masks(n: int, p0: int) -> tuple[int, ...]:
    """XOR masks of the graded flip lengths, first bit most significant."""
    return tuple(((1 << b) - 1) << (n - b) for b in _balancing_positions(n, p0))


def weak_knuth_encode(value: int, n: int, p0: int) -> tuple[bytes, bytes]:
    """Nearly balance an n-bit word by flipping up to one of 2**p0 graded prefixes.

    The flip length is picked from the positions 1 + i*ceil(n/2**p0) and
    minimizes the distance to balance (ties to the smallest index), so
    the body weight stays within ceil(s/2) of n/2 for even n, where
    s = ceil(n / 2**p0).  Returns (prefix, body) digits.
    """
    if p0 < 1:
        raise ValueError("prefix size must be at least 1 bit")
    if 2**p0 > n:
        raise ValueError(f"2**p0 = {2**p0} exceeds the word length {n}")
    _check_word(value, n)
    masks = _flip_masks(n, p0)
    gaps = [abs(2 * (value ^ mask).bit_count() - n) for mask in masks]
    best_i = gaps.index(min(gaps))
    return _prefixes(p0, 2**p0)[0][best_i], int_to_digits(value ^ masks[best_i], n)


def weak_knuth_decode(prefix: bytes, body: bytes, p0: int) -> int:
    """Invert weak_knuth_encode."""
    i = _prefix_index(prefix, p0, 2**p0, "position")
    return int(body, 2) ^ _flip_masks(len(body), p0)[i]


@dataclass(frozen=True)
class KnuthBalancer:
    """Exact balancer: data_bits source bits to an exactly balanced output word."""

    data_bits: int
    p0: int = field(init=False)
    output_bits: int = field(init=False)
    weight_bound: int = field(init=False)  # max |weight - output_bits/2|

    def __post_init__(self):
        if self.data_bits < 2 or self.data_bits % 2:
            raise ValueError("data_bits must be even and at least 2")
        object.__setattr__(self, "p0", _knuth_p0(self.data_bits))
        object.__setattr__(self, "output_bits", self.data_bits + _prefix_bits(self.p0))
        object.__setattr__(self, "weight_bound", 0)

    def encode_word(self, value: int) -> bytes:
        """The data_bits-bit value as output_bits balanced digits."""
        prefix, body = knuth_encode(value, self.data_bits)
        return prefix + body

    def decode_word(self, word: bytes) -> int:
        if len(word) != self.output_bits:
            raise ValueError(f"expected {self.output_bits} bits, got {len(word)}")
        cut = _prefix_bits(self.p0)
        return knuth_decode(word[:cut], word[cut:])


@dataclass(frozen=True)
class WeakKnuthBalancer:
    """Weak balancer: bounded unbalance with a prefix of only 2*p0 bits."""

    data_bits: int
    p0: int
    output_bits: int = field(init=False)
    weight_bound: int = field(init=False)

    def __post_init__(self):
        if self.data_bits < 1:
            raise ValueError("data_bits must be positive")
        if self.p0 < 1 or 2**self.p0 > self.data_bits:
            raise ValueError("need 1 <= p0 with 2**p0 <= data_bits")
        object.__setattr__(self, "output_bits", self.data_bits + _prefix_bits(self.p0))
        step = -(-self.data_bits // 2**self.p0)
        object.__setattr__(self, "weight_bound", (step + 1) // 2)

    def encode_word(self, value: int) -> bytes:
        prefix, body = weak_knuth_encode(value, self.data_bits, self.p0)
        return prefix + body

    def decode_word(self, word: bytes) -> int:
        if len(word) != self.output_bits:
            raise ValueError(f"expected {self.output_bits} bits, got {len(word)}")
        cut = _prefix_bits(self.p0)
        return weak_knuth_decode(word[:cut], word[cut:], self.p0)
