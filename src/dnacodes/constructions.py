"""Strand codecs, and the plane construction that builds strands from binary codes.

Every strand codec declares its shape and its promises: `source_bits`
(k) and `oligo_len` (n) of a block, `max_run` and `weight_bound` (the
largest |AT-content - n/2|), each None where the code promises nothing,
and `raw_bits`, the number of trailing source bits that go uncoded onto
one plane.  It maps a block, a source_bits-bit int, to its strand's
uppercase ASCII bytes with `encode_block(value, state)`, and back with
`decode_block(strand, state)`, where state is the previous strand's last
byte (None at stream start).  decode_block takes uppercase bases only and
raises ValueError on a strand that breaks oligo_len, max_run or weight_bound.
`CODECS` registers each codec under its command-line name.

The binary codes speak the same protocol over the digits b"01": the
balancers of `balancing` and the two-mode code of `blockcodes`.  A
`PlaneCodec` puts one of them on one binary plane of the strand and n
raw payload bits on the other.  Both constructions of the paper are
plane codecs: construction1 puts a balancer on the high plane, whose
weight is the strand's AT-content, and construction2 puts the two-mode
run-length code on the low plane, where every run of the strand is
also a run.
"""

from __future__ import annotations

import inspect

from .balancing import KnuthBalancer, WeakKnuthBalancer
from .blockcodes import (
    STREAM_START,
    StateDependentCode,
    StateIndependentCode,
    TwoModeRllCode,
    check_block_size,
)
from .words import HIGH_DIGIT_OF_BASE, LOW_DIGIT_OF_BASE, int_to_digits, merge_planes, split_planes

__all__ = ["CODECS", "PlaneCodec", "make_codec"]


class PlaneCodec:
    """A binary code on one plane of the strand, raw payload on the other.

    The code's oligo_len n is the strand's length, and a block is the
    code's index on top of n raw bits.  A run in the strand is a run in
    each plane, so the strand keeps the code's max_run, across blocks
    too: the code's state is the previous strand's digit on its plane.
    The strand's AT-content is its high plane's weight, so only a code
    on the high plane passes its weight_bound on.
    """

    def __init__(self, code, plane: str):
        if plane not in ("low", "high"):
            raise ValueError(f"plane must be 'low' or 'high', got {plane!r}")
        n = code.oligo_len
        self.source_bits = check_block_size(code.source_bits + n)
        self.oligo_len = self.raw_bits = n
        self.max_run = code.max_run
        self._high = plane == "high"
        self.weight_bound = code.weight_bound if self._high else None
        self._digit_of_base = HIGH_DIGIT_OF_BASE if self._high else LOW_DIGIT_OF_BASE
        self._encode, self._decode = code.encode_block, code.decode_block
        self._raw_mask = (1 << n) - 1

    def encode_block(self, value: int, state: int | None = STREAM_START) -> bytes:
        n = self.oligo_len
        if state is not STREAM_START:
            state = self._digit_of_base[state]
        # The code refuses a value with more than source_bits bits, or below 0.
        coded = self._encode(value >> n, state)
        raw = int_to_digits(value & self._raw_mask, n)
        return merge_planes(raw, coded) if self._high else merge_planes(coded, raw)

    def decode_block(self, strand: bytes, state: int | None = STREAM_START) -> int:
        # The code refuses a plane of another length than its own.
        n = self.oligo_len
        low, high = split_planes(strand)
        if state is not STREAM_START:
            state = self._digit_of_base[state]
        if self._high:
            return self._decode(high, state) << n | int(low, 2)
        return self._decode(low, state) << n | int(high, 2)


def _construction1(ell: int, balancer: str = "knuth", p0: int | None = None):
    if balancer == "knuth":
        if p0 is not None:
            raise ValueError("the knuth balancer takes no p0")
        return PlaneCodec(KnuthBalancer(ell), "high")
    if balancer == "weak-knuth":
        if p0 is None:
            raise ValueError("the weak-knuth balancer needs p0")
        return PlaneCodec(WeakKnuthBalancer(ell, p0), "high")
    raise ValueError(f"unknown balancer {balancer!r}")


def _construction2(m: int, n: int):
    # carried_bits lets the two-mode code refuse an oversize strand block before it counts.
    return PlaneCodec(TwoModeRllCode(m, n, carried_bits=n), "low")


# Every strand codec by its CLI name.  A builder's keyword parameters are
# the codec's parameters (and the CLI's flags of the same names).
CODECS = {
    "construction1": _construction1,
    "construction2": _construction2,
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
