"""Strand constructions that merge binary planes into quaternary blocks.

The balance construction puts a balanced binary word on the high plane,
so the strand's AT-content equals the balanced word's bit weight, and
fills the low plane with raw payload.  The run-length construction puts
a run-constrained binary word on the low plane, which caps the strand's
homopolymer runs, and carries raw payload on the high plane.

Every strand codec, these two and the quaternary block codes, declares
its shape and its promises: `source_bits` (k) and `oligo_len` (n) of a
block, `max_run` and `weight_bound` (the largest |AT-content - n/2|),
each None where the code promises nothing, and `raw_bits`, the number
of trailing source bits that go uncoded onto one plane.  It maps a
block, a source_bits-bit int, to its strand's uppercase ASCII bytes
with `encode_block(value, state)`, and back with `decode_block(strand,
state)`, where state is the previous strand's last byte (None at
stream start) and the strand may be in either case.  `CODECS`
registers each codec under its command-line name.
"""

from __future__ import annotations

import inspect
from fractions import Fraction

from .balancing import KnuthBalancer, WeakKnuthBalancer
from .blockcodes import STREAM_START, StateDependentCode, StateIndependentCode, TwoModeRllCode
from .words import LOW_DIGIT_OF_BASE, int_to_digits, merge_planes, split_planes

__all__ = ["CODECS", "Construction1Codec", "Construction2Codec", "make_codec"]


class Construction1Codec:
    """Balance construction: balancer output on the high plane, payload low.

    A block of data_bits + n source bits becomes one strand of n symbols
    whose AT-content deviation from n/2 is capped by the balancer's
    weight bound.  Blocks are independent; no state crosses boundaries.
    The balancer's top data_bits of the block go high, the low n bits low.
    """

    max_run = None

    def __init__(self, balancer: KnuthBalancer | WeakKnuthBalancer):
        self.balancer = balancer
        self.oligo_len = self.raw_bits = balancer.output_bits
        self.source_bits = balancer.data_bits + self.oligo_len
        self.weight_bound = balancer.weight_bound
        self._raw_mask = (1 << self.oligo_len) - 1

    @property
    def rate(self) -> Fraction:
        """Source bits per emitted symbol, 1 + data_bits/n."""
        return Fraction(self.source_bits, self.oligo_len)

    def encode_block(self, value: int, state: int | None = STREAM_START) -> bytes:
        # The balancer refuses a value with more than source_bits bits, or below 0.
        high = self.balancer.encode_word(value >> self.oligo_len)
        return merge_planes(int_to_digits(value & self._raw_mask, self.oligo_len), high)

    def decode_block(self, word: bytes, state: int | None = STREAM_START) -> int:
        if len(word) != self.oligo_len:
            raise ValueError(f"expected {self.oligo_len} symbols, got {len(word)}")
        low, high = split_planes(word)
        return self.balancer.decode_word(high) << self.oligo_len | int(low, 2)


class Construction2Codec:
    """Run-length construction: two-mode RLL words on the low plane, payload high.

    Any run in the strand is also a run in its low plane, so the strand
    inherits the inner code's max-run guarantee, including across block
    boundaries (the inner mode choice keys off the previous low bit).
    The inner code's index is the top of the block, the n high-plane
    bits are its low end.
    """

    weight_bound = None

    def __init__(self, m: int, n: int):
        self.inner = TwoModeRllCode(m, n, carried_bits=n)
        self.max_run = m
        self.oligo_len = self.raw_bits = n
        self.source_bits = self.inner.source_bits + n
        self._raw_mask = (1 << n) - 1

    @property
    def rate(self) -> Fraction:
        """Source bits per emitted symbol, (n - 1 + floor(log2 N_2(m,n))) / n."""
        return Fraction(self.source_bits, self.oligo_len)

    def encode_block(self, value: int, state: int | None = STREAM_START) -> bytes:
        n = self.oligo_len
        # The inner code refuses a value with more than source_bits bits, or below 0.
        low_state = STREAM_START if state is STREAM_START else LOW_DIGIT_OF_BASE[state]
        low = self.inner.encode_block(value >> n, low_state)
        return merge_planes(low, int_to_digits(value & self._raw_mask, n))

    def decode_block(self, word: bytes, state: int | None = STREAM_START) -> int:
        if len(word) != self.oligo_len:
            raise ValueError(f"expected {self.oligo_len} symbols, got {len(word)}")
        low, high = split_planes(word)
        return self.inner.decode_block(low) << self.oligo_len | int(high, 2)


def _construction1(ell: int, balancer: str = "knuth", p0: int | None = None):
    if balancer == "knuth":
        if p0 is not None:
            raise ValueError("the knuth balancer takes no p0")
        return Construction1Codec(KnuthBalancer(ell))
    if balancer == "weak-knuth":
        if p0 is None:
            raise ValueError("the weak-knuth balancer needs p0")
        return Construction1Codec(WeakKnuthBalancer(ell, p0))
    raise ValueError(f"unknown balancer {balancer!r}")


# Every strand codec by its CLI name.  A builder's keyword parameters are
# the codec's parameters (and the CLI's flags of the same names).
CODECS = {
    "construction1": _construction1,
    "construction2": Construction2Codec,
    "state-independent": StateIndependentCode,
    "state-dependent": StateDependentCode,
}


def make_codec(construction: str, **params):
    """Build the codec registered under this name from its parameters.

    construction1 takes ell (data bits) plus balancer="knuth" or
    balancer="weak-knuth" with p0; construction2, state-independent and
    state-dependent take m and n.  A missing or unused parameter is a
    ValueError, raised before anything is built.
    """
    if construction not in CODECS:
        raise ValueError(f"unknown construction {construction!r}")
    build = CODECS[construction]
    takes = inspect.signature(build).parameters
    unused = sorted(set(params) - set(takes))
    if unused:
        raise ValueError(f"{construction} takes no {', '.join(unused)}")
    missing = [name for name, p in takes.items() if p.default is p.empty and name not in params]
    if missing:
        raise ValueError(f"{construction} needs {' and '.join(missing)}")
    return build(**params)
