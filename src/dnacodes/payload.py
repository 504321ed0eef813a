"""Byte-payload framing for block codecs, streamed in fixed chunks.

Bytes travel most-significant-bit first.  The bit stream is closed with
zero padding followed by a one-byte trailer holding the pad length, so
the total divides evenly into codec blocks and the decoder can strip
deterministically: data bits, then pad zeros, then the trailer byte.
The one-byte trailer caps the block size at 256 bits.

Framing works on integers and binary numerals, never bit by bit.  A
chunk of bytes becomes one integer (`int.from_bytes`) and then one
numeral (`format`), which one struct unpack (`words.cut`) cuts into
k-digit blocks, each read back by `int(digits, 2)`; only the fewer than
k bits left over wait for the next chunk.  Decoding runs the other way:
it formats each decoded block as k digits, joins a batch's worth, reads
them as one integer and holds back the last k + 8 bits, which may be
pad and trailer, until the stream ends.  So `encode_stream` and
`decode_stream` keep at most about one chunk in memory, whatever the
payload size.

Strands travel in batches, one list per chunk, and a codec codes a
batch per call: `encode_blocks(values, state)` takes the blocks' k-bit
ints and returns their strands as ASCII bytes, `decode_blocks(strands,
state)` goes back, and the state is the last byte of the strand before
the batch.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import repeat

from .blockcodes import STREAM_START, BlockError, check_block_size
from .words import cut

__all__ = ["CHUNK_BYTES", "decode_stream", "encode_stream"]

# Bytes per chunk: what the CLI reads at a time, and so the size of a
# batch of strands.
CHUNK_BYTES = 1 << 14


def _framed(chunks: Iterable[bytes], k: int) -> Iterator[list[int]]:
    """The k-bit blocks of the chunks, then of pad and trailer, a chunk's worth at a time."""
    held, held_bits = 0, 0  # fewer than k bits not yet in a block
    for chunk in chunks:
        value = held << 8 * len(chunk) | int.from_bytes(chunk, "big")
        size = held_bits + 8 * len(chunk)
        held_bits = size % k
        held = value & ((1 << held_bits) - 1)
        if size >= k:
            yield _blocks(value >> held_bits, size - held_bits, k)
    pad = -(held_bits + 8) % k
    yield _blocks((held << pad + 8) | pad, held_bits + pad + 8, k)


def _blocks(value: int, size: int, k: int) -> list[int]:
    """The k-bit blocks of a size-bit value, most significant first."""
    return list(map(int, cut(format(value, f"0{size}b").encode("ascii"), k), repeat(2)))


def encode_stream(codec, chunks: Iterable[bytes]) -> Iterator[list[bytes]]:
    """Encode a byte stream, given in chunks, into batches of strands, threading encoder state.

    The block size is checked on the call; a batch comes out as soon as
    its chunk has arrived, and the last one holds pad and trailer.
    """
    k = check_block_size(codec.source_bits)

    def batches() -> Iterator[list[bytes]]:
        encode = codec.encode_blocks
        state = STREAM_START
        for values in _framed(chunks, k):
            strands = encode(values, state)
            yield strands
            state = strands[-1][-1]

    return batches()


def decode_stream(codec, batches: Iterable[list[bytes]]) -> Iterator[bytes]:
    """Invert encode_stream: decoded bytes, a piece per batch of strands.

    A strand the codec rejects raises BlockError naming its 1-based block
    number, with its 0-based place in the stream as position; so does a
    bad pad trailer, for the last block, once the batches run out.  The
    block size is checked on the call.
    """
    k = check_block_size(codec.source_bits)
    keep = k + 8  # trailing bits that may be pad and trailer
    digits = f"0{k}b"

    def pieces() -> Iterator[bytes]:
        decode = codec.decode_blocks
        held, held_bits = 0, 0  # decoded bits not yet emitted
        state = STREAM_START
        count = 0  # blocks decoded
        for strands in batches:
            if not strands:
                continue
            try:
                values = decode(strands, state)
            except BlockError as exc:
                raise BlockError(f"block {count + exc.position + 1}: {exc}",
                                 count + exc.position) from None
            numeral = "".join(map(format, values, repeat(digits)))
            if len(numeral) != k * len(values):
                bad = next(i for i, v in enumerate(values) if len(format(v, digits)) != k)
                raise BlockError(f"block {count + bad + 1}: a decoded index is not a {k}-bit"
                                 " value", count + bad)
            count += len(values)
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
