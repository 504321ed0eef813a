"""Byte-payload framing for block codecs, streamed in fixed chunks.

Bytes travel most-significant-bit first.  The bit stream is closed with
zero padding followed by a one-byte trailer holding the pad length, so
the total divides evenly into codec blocks and the decoder can strip
deterministically: data bits, then pad zeros, then the trailer byte.
The one-byte trailer caps the block size at 256 bits.

Framing works on binary numerals, never bit by bit nor block by block.
A chunk of bytes becomes one integer (`int.from_bytes`) and then one
numeral of ASCII digits; the whole k-digit blocks of the digits held
over and the chunk's go to the codec as that one numeral, and only the
fewer than k digits left over wait for the next chunk.  Decoding runs
the other way: it reads a batch's numeral as one integer and holds back
the last k + 8 bits, which may be pad and trailer, until the stream
ends.  So `encode_stream` and `decode_stream` keep at most about one
chunk in memory, whatever the payload size.

Strands travel in batches, one list per chunk, and a codec codes a
batch per call: `encode_blocks(digits, state)` takes the batch's
numeral, k digits a block, and returns the blocks' strands as ASCII
bytes, `decode_blocks(strands, state)` returns the numeral of the
strands' blocks, and the state is the last byte of the strand before
the batch.

A codec says why it refuses a batch, and only `decode_stream` says
where: it decodes a refused batch a strand at a time to find the first
refused alone, so an error costs one batch decoded strand by strand.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .blockcodes import STREAM_START, check_block_size
from .words import int_to_digits

__all__ = ["BlockError", "CHUNK_BYTES", "decode_stream", "encode_stream"]

# Bytes per chunk: what the CLI reads at a time, and so the size of a
# batch of strands.
CHUNK_BYTES = 1 << 14


class BlockError(ValueError):
    """A block the stream refuses; position is its 0-based place in the stream."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


def _framed(chunks: Iterable[bytes], k: int) -> Iterator[bytes]:
    """The numeral of the chunks' whole k-digit blocks a chunk at a time, then pad and trailer's."""
    held = b""  # fewer than k digits not yet in a block
    for chunk in chunks:
        digits = held + int_to_digits(int.from_bytes(chunk, "big"), 8 * len(chunk))
        whole = len(digits) - len(digits) % k
        if whole:
            yield digits[:whole]
        held = digits[whole:]
    pad = -(len(held) + 8) % k
    yield held + b"0" * pad + int_to_digits(pad, 8)


def encode_stream(codec, chunks: Iterable[bytes]) -> Iterator[list[bytes]]:
    """Encode a byte stream, given in chunks, into batches of strands, threading encoder state.

    The block size is checked on the call; a batch comes out as soon as
    its chunk has arrived, and the last one holds pad and trailer.
    """
    k = check_block_size(codec.source_bits)

    def batches() -> Iterator[list[bytes]]:
        encode = codec.encode_blocks
        state = STREAM_START
        for digits in _framed(chunks, k):
            strands = encode(digits, state)
            yield strands
            state = strands[-1][-1]

    return batches()


def decode_stream(codec, batches: Iterable[list[bytes]]) -> Iterator[bytes]:
    """Invert encode_stream: decoded bytes, a piece per batch of strands.

    A refused batch raises BlockError at its first strand refused alone,
    with that refusal's reason (else at its last, with the batch's), by
    1-based block number and, as position, 0-based place in the stream;
    so do a batch numeral of another length than k digits a strand, at
    the first block it cannot hold whole (or the batch's last), and a bad
    pad trailer, for the last block, once the batches run out.  The block
    size is checked on the call.
    """
    k = check_block_size(codec.source_bits)
    keep = k + 8  # trailing bits that may be pad and trailer

    def pieces() -> Iterator[bytes]:
        decode = codec.decode_blocks
        held, held_bits = 0, 0  # decoded bits not yet emitted
        state = STREAM_START
        count = 0  # blocks decoded
        for strands in batches:
            if not strands:
                continue
            try:
                numeral = decode(strands, state)
            except ValueError as refusal:
                for at, strand in enumerate(strands):  # each alone, after the one before
                    try:
                        decode([strand], state)
                    except ValueError as alone:
                        refusal = alone
                        break
                    state = strand[-1]
                raise BlockError(f"block {count + at + 1}: {refusal}", count + at) from None
            if len(numeral) != k * len(strands):
                bad = count + min(len(numeral) // k, len(strands) - 1)
                raise BlockError(f"block {bad + 1}: the decoded numeral is not {k} digits a"
                                 " block", bad)
            count += len(strands)
            state = strands[-1][-1]
            held = held << len(numeral) | int(numeral, 2)
            held_bits += len(numeral)
            out = (held_bits - keep) // 8
            if out > 0:
                held_bits -= 8 * out
                yield (held >> held_bits).to_bytes(out, "big")
                held &= (1 << held_bits) - 1
        if count == 0:
            raise ValueError("no blocks to decode")
        pad = held & 0xFF
        payload_bits = held_bits - 8 - pad
        if pad >= k or payload_bits < 0 or payload_bits % 8:
            raise BlockError(
                f"block {count}: corrupt pad trailer (pad={pad}, stream={count * k} bits)",
                count - 1,
            )
        if (held >> 8) & ((1 << pad) - 1):
            raise BlockError(f"block {count}: nonzero padding bits", count - 1)
        yield (held >> pad + 8).to_bytes(payload_bits // 8, "big")

    return pieces()
