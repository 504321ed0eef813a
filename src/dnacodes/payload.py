"""Byte-payload framing for block codecs, streamed in fixed chunks.

Bytes travel most-significant-bit first.  The bit stream is closed with
zero padding followed by a one-byte trailer holding the pad length, so
the total divides evenly into codec blocks and the decoder can strip
deterministically: data bits, then pad zeros, then the trailer byte.
The one-byte trailer caps the block size at 256 bits.

Framing works on integers, never bit by bit: a chunk of bytes becomes
one integer (`int.from_bytes`), whole k-bit blocks are cut from its top
by shift and mask, and only the fewer than k bits left over wait for
the next chunk.  Decoding runs the other way and holds back the last
k + 8 bits, which may be pad and trailer, until the stream ends.  So
`encode_stream` and `decode_stream` keep at most about one chunk in
memory, whatever the payload size; `encode_bytes` and `decode_bytes`
are the same framer over a payload held whole.  Codecs see the usual
block protocol: `encode_block(bits, state)` and `decode_block(word,
state)` on bit and symbol tuples, with the state threaded from the
previous block's last symbol.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain

from .blockcodes import STREAM_START, check_block_size
from .words import Oligo, bits_to_int, int_to_bits

__all__ = [
    "CHUNK_BYTES",
    "decode_bytes",
    "decode_stream",
    "encode_bytes",
    "encode_stream",
]

# Bytes per chunk: what the CLI reads at a time, and about how much
# decoded data decode_stream gathers before it yields.
CHUNK_BYTES = 1 << 14


def _framed(chunks: Iterable[bytes], k: int) -> Iterator[tuple[int, ...]]:
    """Bit tuples of whole k-bit blocks: the chunks, then pad and trailer."""
    held, held_bits = 0, 0  # fewer than k bits not yet in a block
    for chunk in chunks:
        value = held << 8 * len(chunk) | int.from_bytes(chunk, "big")
        size = held_bits + 8 * len(chunk)
        held_bits = size % k
        held = value & ((1 << held_bits) - 1)
        if size >= k:
            yield int_to_bits(value >> held_bits, size - held_bits)
    pad = -(held_bits + 8) % k
    size = held_bits + pad + 8
    yield int_to_bits((held << pad + 8) | pad, size)


def encode_stream(codec, chunks: Iterable[bytes]) -> Iterator[Oligo]:
    """Encode a byte stream, given in chunks, into blocks, threading encoder state.

    The block size is checked on the call; blocks come out as soon as
    their source bits have arrived.
    """
    k = check_block_size(codec.source_bits)

    def blocks() -> Iterator[Oligo]:
        state = STREAM_START
        for bits in _framed(chunks, k):
            for i in range(0, len(bits), k):
                word = codec.encode_block(bits[i : i + k], state)
                yield word
                state = word[-1]

    return blocks()


def decode_stream(codec, blocks: Iterable[Oligo]) -> Iterator[bytes]:
    """Invert encode_stream: decoded bytes, in pieces of about CHUNK_BYTES.

    A block the codec rejects raises ValueError naming its 1-based
    block number; a bad pad trailer raises once the blocks run out.
    The block size is checked on the call.
    """
    k = check_block_size(codec.source_bits)
    keep = k + 8  # trailing bits that may be pad and trailer
    flush = max(1, 8 * CHUNK_BYTES // k)  # blocks per flush

    def pieces() -> Iterator[bytes]:
        held, held_bits = 0, 0  # decoded bits not yet emitted
        pending: list[tuple[int, ...]] = []
        state = STREAM_START
        count = 0
        for count, word in enumerate(blocks, start=1):
            word = tuple(word)
            try:
                bits = codec.decode_block(word, state)
                if len(bits) != k:
                    raise ValueError(f"decoded {len(bits)} bits, expected {k}")
            except ValueError as exc:
                raise ValueError(f"block {count}: {exc}") from None
            pending.append(bits)
            state = word[-1]
            if len(pending) == flush:
                held = held << k * flush | bits_to_int(chain.from_iterable(pending))
                held_bits += k * flush
                pending.clear()
                out = (held_bits - keep) // 8
                if out > 0:
                    held_bits -= 8 * out
                    yield (held >> held_bits).to_bytes(out, "big")
                    held &= (1 << held_bits) - 1
        if count == 0:
            raise ValueError("no blocks to decode")
        held = held << k * len(pending) | bits_to_int(chain.from_iterable(pending))
        held_bits += k * len(pending)
        pad = held & 0xFF
        data_bits = held_bits - 8 - pad
        if pad >= k or data_bits < 0 or data_bits % 8:
            raise ValueError(
                f"block {count}: corrupt pad trailer (pad={pad}, stream={count * k} bits)"
            )
        if (held >> 8) & ((1 << pad) - 1):
            raise ValueError(f"block {count}: nonzero padding bits")
        yield (held >> pad + 8).to_bytes(data_bits // 8, "big")

    return pieces()


def encode_bytes(codec, data: bytes) -> list[Oligo]:
    """Encode a byte payload into a list of blocks, threading encoder state."""
    return list(encode_stream(codec, (data,)))


def decode_bytes(codec, blocks: Iterable[Oligo]) -> bytes:
    """Invert encode_bytes, validating the pad trailer."""
    return b"".join(decode_stream(codec, blocks))
