"""Strand codecs, and the plane construction that builds strands from binary codes.

Every strand codec declares its shape and its promises: `source_bits`
(k) and `oligo_len` (n) of a block, `max_run` and `weight_bound` (the
largest |AT-content - n/2|), each None where the code promises nothing,
and `raw_bits`, the number of trailing source bits that go uncoded onto
one plane.  It codes a batch of blocks per call, and the batch's source
blocks travel as one numeral of ASCII digits, source_bits digits a
block: `encode_blocks(digits, state)` maps the numeral to its blocks'
strands as uppercase ASCII bytes, and `decode_blocks(strands, state)`
maps strands back to the numeral, where state is the last byte of the
strand before the batch (None at stream start) and the codec threads it
from block to block.  encode_blocks refuses a numeral that is not whole
blocks of binary digits, and decode_blocks takes uppercase bases only;
either raises a plain ValueError, decode_blocks on a strand that breaks
oligo_len, max_run or weight_bound.  A refusal says why a batch is
refused, never where: `payload.decode_stream` alone names the strand,
by decoding a refused batch's strands one at a time.
`encode_block(value, state)` and `decode_block(strand, state)` code a
batch of one with the block's index as an int (`BlockCode`).  `CODECS`
registers each codec under its command-line name.

The binary codes speak the same protocol over the digits b"01": the
balancers of `balancing` and the two-mode code of `blockcodes`.  A
`PlaneCodec` puts one of them on one binary plane of the strand and n
raw payload digits on the other, and cuts, merges and splits the planes
of a whole batch at once, never a block's digits on their own.  The
code's state is the strand state's digit on its plane, read from a dict
of the four bases, and None for any other state.  Both constructions of
the paper are plane codecs: construction1 puts a balancer on the high
plane, whose weight is the strand's AT-content, and construction2 puts
the two-mode run-length code on the low plane, where every run of the
strand is also a run.
"""

from __future__ import annotations

from operator import add
from struct import unpack

from .balancing import KnuthBalancer, WeakKnuthBalancer
from .blockcodes import (
    STREAM_START,
    BlockCode,
    StateDependentCode,
    StateIndependentCode,
    TwoModeRllCode,
    check_block_size,
)
from .words import BASES, HIGH_DIGIT_OF_BASE, LOW_DIGIT_OF_BASE, add_planes

__all__ = ["CODECS", "PlaneCodec", "make_codec"]


class PlaneCodec(BlockCode):
    """A binary code on one plane of the strand, raw payload on the other.

    The code's oligo_len n is the strand's length, and a block is the
    code's index digits followed by n raw digits.  A run in the strand
    is a run in each plane, so the strand keeps the code's max_run,
    across blocks too: the code's state is the previous strand's digit
    on its plane.  The strand's AT-content is its high plane's weight,
    so only a code on the high plane passes its weight_bound on.

    A batch goes through the code in one call.  The numeral is checked
    once, and one struct unpack, by the block layout built with the
    codec, cuts it into each block's index and raw digits; the joins of
    each kind are the code's numeral and the raw plane.  The planes are
    merged by one integer addition and one translate over the whole
    batch, with no second check of digits already checked, and split by
    two translates after one check of the strands.  Decoding cuts the
    code's numeral and the raw plane, put one after the other, with one
    unpack, joins each block's index digits to its raw piece, and joins
    the blocks once.
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
        digit = HIGH_DIGIT_OF_BASE if self._high else LOW_DIGIT_OF_BASE
        self._state_digit = {base: digit[base] for base in BASES}
        self._code = code
        self._index_piece, self._raw_piece = f"{code.source_bits}s", f"{n}s"
        self._layout = self._index_piece + self._raw_piece  # index, then raw digits
        self._length = {n}

    def encode_blocks(self, digits: bytes, state: int | None = STREAM_START) -> list[bytes]:
        pieces = self._blocks(digits)
        code_state = self._state_digit.get(state)
        coded = b"".join(self._code.encode_blocks(b"".join(pieces[::2]), code_state))
        raw = b"".join(pieces[1::2])
        strands = add_planes(raw, coded) if self._high else add_planes(coded, raw)
        return list(unpack(self._raw_piece * (len(pieces) // 2), strands))  # n bases a strand

    def decode_blocks(self, strands: list[bytes], state: int | None = STREAM_START) -> bytes:
        try:
            joined = b"".join(strands)
        except TypeError:  # an item that is not bytes: refused below, as a byte that is no base
            joined = b"x"
        low = joined.translate(LOW_DIGIT_OF_BASE)  # b"x" for a byte that is no base
        if b"x" in low or not self._length.issuperset(map(len, strands)):
            raise ValueError(f"not a strand of {self.oligo_len} bases G, C, A, T")
        high = joined.translate(HIGH_DIGIT_OF_BASE)
        coded, raw = (high, low) if self._high else (low, high)
        code_state = self._state_digit.get(state)
        count = len(strands)
        numeral = self._code.decode_blocks(list(unpack(self._raw_piece * count, coded)), code_state)
        pieces = unpack(self._index_piece * count + self._raw_piece * count, numeral + raw)
        return b"".join(map(add, pieces[:count], pieces[count:]))


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


def _state_independent(m: int, n: int):
    return StateIndependentCode(m, n)


def _state_dependent(m: int, n: int):
    return StateDependentCode(m, n)


# Every strand codec by its CLI name.  A builder's keyword parameters are
# the codec's parameters (and the CLI's flags of the same names).
CODECS = {
    "construction1": _construction1,
    "construction2": _construction2,
    "state-independent": _state_independent,
    "state-dependent": _state_dependent,
}


def _parameters(build) -> tuple[tuple[str, ...], int]:
    """A builder's parameter names, and how many of them, from the first, have no default."""
    code = build.__code__
    names = code.co_varnames[: code.co_argcount]
    return names, len(names) - len(build.__defaults__ or ())


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
    takes, needed = _parameters(build)
    unused = sorted(set(params) - set(takes))
    if unused:
        raise ValueError(f"{construction} takes no {', '.join(unused)}")
    missing = [name for name in takes[:needed] if name not in params]
    if missing:
        raise ValueError(f"{construction} needs {' and '.join(missing)}")
    return build(**params)
