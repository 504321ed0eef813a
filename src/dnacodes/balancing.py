"""Binary balancing codes: exact prefix-flip balancing and its weak variant.

The exact scheme inverts the first k0 bits of an even-length word so the
result has equal ones and zeros; such an index always exists because the
weight after flipping k bits walks in unit steps from w to n - w.  The
weak variant only tries a power-of-two grid of flip positions and takes
the best, trading exact balance for a shorter index.

Either way the chosen index travels inside a fixed balanced prefix: the
index-th weight-p word of length 2p in lexicographic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .words import Bits, bit_weight, bits_to_int, int_to_bits

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


# Bit inversion of a word held one bit per byte.
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def unrank_balanced(length: int, weight: int, index: int) -> Bits:
    """The index-th length-`length` word of the given weight, in lex order."""
    if not 0 <= weight <= length:
        raise ValueError("weight out of range")
    if not 0 <= index < math.comb(length, weight):
        raise ValueError("index out of range")
    bits = []
    remaining = weight
    for pos in range(length):
        slots = length - pos - 1
        with_zero = math.comb(slots, remaining) if remaining <= slots else 0
        if index < with_zero:
            bits.append(0)
        else:
            index -= with_zero
            bits.append(1)
            remaining -= 1
    return tuple(bits)


def rank_balanced(word: Bits) -> int:
    """Lexicographic rank of a word among the words of its length and weight."""
    length = len(word)
    remaining = bit_weight(word)
    index = 0
    for pos, bit in enumerate(word):
        slots = length - pos - 1
        if bit:
            index += math.comb(slots, remaining) if remaining <= slots else 0
            remaining -= 1
    return index


def _flip_prefix(word: Bits, k: int) -> Bits:
    return tuple(bytes(word[:k]).translate(_FLIP)) + tuple(word[k:])


def _prefix_bits(p0: int) -> int:
    """Length of the balanced prefix word that carries a p0-bit index."""
    return 2 * p0


@lru_cache(maxsize=None)
def _index_prefix(p0: int, index: int) -> Bits:
    return unrank_balanced(_prefix_bits(p0), p0, index)


@lru_cache(maxsize=None)
def _prefix_index(prefix: Bits) -> int:
    return rank_balanced(prefix)


def knuth_encode(u: Bits) -> tuple[Bits, Bits]:
    """Balance an even-length word by flipping its first k0 bits.

    Returns (prefix, body): the body is exactly balanced and the prefix
    is the balanced word encoding k0 - 1.  The smallest balancing k0 in
    1..n is chosen.
    """
    n = len(u)
    if n < 2 or n % 2:
        raise ValueError("word length must be even and at least 2")
    half = n // 2
    x = bits_to_int(u)
    weight = x.bit_count()
    # Flipping k bits leaves weight + k - 2 * (ones among them); each
    # further flip moves it by one, so no k closer than the current gap
    # can balance, and the search jumps by the gap.
    k0 = abs(weight - half) or 1
    while k0 <= n:
        gap = abs(weight + k0 - 2 * (x >> (n - k0)).bit_count() - half)
        if gap == 0:
            break
        k0 += gap
    else:  # unreachable: the weight walk must cross n/2
        raise AssertionError("no balancing index found")
    p0 = max(1, (n - 1).bit_length())
    return _index_prefix(p0, k0 - 1), int_to_bits(x ^ ((1 << k0) - 1) << (n - k0), n)


def knuth_decode(prefix: Bits, body: Bits) -> Bits:
    """Invert knuth_encode."""
    n = len(body)
    if n < 2 or n % 2:
        raise ValueError("word length must be even and at least 2")
    p0 = max(1, (n - 1).bit_length())
    if len(prefix) != _prefix_bits(p0):
        raise ValueError(f"prefix must have {_prefix_bits(p0)} bits, got {len(prefix)}")
    if bit_weight(prefix) != p0:
        raise ValueError("prefix is not a balanced word")
    k0 = _prefix_index(tuple(prefix)) + 1
    if k0 > n:
        raise ValueError("prefix decodes to an out-of-range flip index")
    return _flip_prefix(body, k0)


def _balancing_positions(n: int, p0: int) -> list[int]:
    m0 = 2**p0
    step = -(-n // m0)  # ceil(n / m0)
    return [min(1 + i * step, n) for i in range(m0)]


@lru_cache(maxsize=None)
def _flip_masks(n: int, p0: int) -> tuple[int, ...]:
    """XOR masks of the graded flip lengths, first bit most significant."""
    return tuple(((1 << b) - 1) << (n - b) for b in _balancing_positions(n, p0))


def weak_knuth_encode(u: Bits, p0: int) -> tuple[Bits, Bits]:
    """Nearly balance a word by flipping up to one of 2**p0 graded prefixes.

    The flip length is picked from the positions 1 + i*ceil(n/2**p0) and
    minimizes the distance to balance (ties to the smallest index), so
    the body weight stays within ceil(s/2) of n/2 for even n, where
    s = ceil(n / 2**p0).
    """
    n = len(u)
    if p0 < 1:
        raise ValueError("prefix size must be at least 1 bit")
    if 2**p0 > n:
        raise ValueError(f"2**p0 = {2**p0} exceeds the word length {n}")
    x = bits_to_int(u)
    masks = _flip_masks(n, p0)
    gaps = [abs(2 * (x ^ mask).bit_count() - n) for mask in masks]
    best_i = gaps.index(min(gaps))
    return _index_prefix(p0, best_i), int_to_bits(x ^ masks[best_i], n)


def weak_knuth_decode(prefix: Bits, body: Bits, p0: int) -> Bits:
    """Invert weak_knuth_encode."""
    n = len(body)
    if len(prefix) != _prefix_bits(p0):
        raise ValueError(f"prefix must have {_prefix_bits(p0)} bits, got {len(prefix)}")
    if bit_weight(prefix) != p0:
        raise ValueError("prefix is not a balanced word")
    i = _prefix_index(tuple(prefix))
    if i >= 2**p0:
        raise ValueError("prefix decodes to an out-of-range position index")
    return _flip_prefix(body, _balancing_positions(n, p0)[i])


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
        object.__setattr__(self, "p0", max(1, (self.data_bits - 1).bit_length()))
        object.__setattr__(self, "output_bits", self.data_bits + _prefix_bits(self.p0))
        object.__setattr__(self, "weight_bound", 0)

    def encode_word(self, u: Bits) -> Bits:
        if len(u) != self.data_bits:
            raise ValueError(f"expected {self.data_bits} bits, got {len(u)}")
        prefix, body = knuth_encode(tuple(u))
        return prefix + body

    def decode_word(self, word: Bits) -> Bits:
        if len(word) != self.output_bits:
            raise ValueError(f"expected {self.output_bits} bits, got {len(word)}")
        cut = _prefix_bits(self.p0)
        return knuth_decode(tuple(word[:cut]), tuple(word[cut:]))


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

    def encode_word(self, u: Bits) -> Bits:
        if len(u) != self.data_bits:
            raise ValueError(f"expected {self.data_bits} bits, got {len(u)}")
        prefix, body = weak_knuth_encode(tuple(u), self.p0)
        return prefix + body

    def decode_word(self, word: Bits) -> Bits:
        if len(word) != self.output_bits:
            raise ValueError(f"expected {self.output_bits} bits, got {len(word)}")
        cut = _prefix_bits(self.p0)
        return weak_knuth_decode(tuple(word[:cut]), tuple(word[cut:]), self.p0)
