"""Streaming framer and CLI encode/decode: chunk edges, identity, damage, memory."""

import contextlib
import functools
import hashlib
import io
import os
import random
import re
import tempfile
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from dnacodes import cli, payload
from dnacodes.blockcodes import STREAM_START
from dnacodes.payload import BlockError
from dnacodes.constructions import make_codec

CHUNK = payload.CHUNK_BYTES

ROUTES = {
    "c1-knuth": ("construction1", "--ell", "64"),
    "c1-weak": ("construction1", "--ell", "64", "--balancer", "weak-knuth", "--p0", "3"),
    "c2": ("construction2", "--m", "3", "--n", "10"),
    "si": ("state-independent", "--m", "3", "--n", "8"),
    "sd": ("state-dependent", "--m", "3", "--n", "8"),
}

CODECS = {
    "c1-knuth": dict(construction="construction1", ell=8),
    "c1-weak": dict(construction="construction1", ell=8, balancer="weak-knuth", p0=3),
    "c2": dict(construction="construction2", m=2, n=6),
    "si": dict(construction="state-independent", m=2, n=6),
    "sd": dict(construction="state-dependent", m=3, n=5),
}


def _codec(name):
    params = dict(CODECS[name])
    return make_codec(params.pop("construction"), **params)


# The per-bit framer the streaming one replaced, kept here as the reference.
def _reference_bytes_to_bits(data):
    bits = []
    for byte in data:
        bits.extend(byte >> (7 - i) & 1 for i in range(8))
    return bits


def _reference_encode(codec, data):
    k = codec.source_bits
    bits = _reference_bytes_to_bits(data)
    pad = (-(len(bits) + 8)) % k
    bits.extend([0] * pad)
    bits.extend(_reference_bytes_to_bits(bytes([pad])))
    blocks = []
    state = STREAM_START
    for i in range(0, len(bits), k):
        index = 0
        for bit in bits[i : i + k]:
            index = 2 * index + bit
        word = codec.encode_block(index, state)
        blocks.append(word)
        state = word[-1]
    return blocks


def _flat(batches):
    return [strand for batch in batches for strand in batch]


def _strands_of(codec, data):
    """The strands of data, encoded as one chunk."""
    return _flat(payload.encode_stream(codec, [data]))


def _bytes_of(codec, strands):
    """The bytes of strands, decoded as one batch."""
    return b"".join(payload.decode_stream(codec, [strands]))


def _codec_of_route(route):
    construction, *rest = ROUTES[route]
    flags = dict(zip(rest[::2], rest[1::2]))
    params = {key.lstrip("-"): value if key == "--balancer" else int(value)
              for key, value in flags.items()}
    return make_codec(construction, **params)


def _split(data, cuts):
    edges = sorted({0, len(data), *(c % (len(data) + 1) for c in cuts)})
    return [data[a:b] for a, b in zip(edges, edges[1:])]


# SHA-256 of each route's strand file for PINNED_PAYLOAD, recorded from the
# codecs as they coded before blocks travelled as numerals, so the pin
# does not move with the codec it checks.
PINNED_PAYLOAD = random.Random(22).randbytes(64 * 1024)
PINNED_ROUTES = {
    **ROUTES,
    "sd-m3n64": ("state-dependent", "--m", "3", "--n", "64"),
    "si-m3n32": ("state-independent", "--m", "3", "--n", "32"),
}
PINNED_DIGESTS = {
    "c1-knuth": "3368cfd60d0c46cd22a12ce59d95a424b5a001fe91b7f5119d4fbf75cba087aa",
    "c1-weak": "35a0fdaf88cdc4f4d669ce7563dcb17e8aacf3e38fdde3e4ee15d103bd8f439a",
    "c2": "5570b2d5f2874eb531108197d1360e0383894b359fb9d7eacc41cf30304d872d",
    "si": "90385823d485c6c49773c5e1ee3bd24f8b87d45fd28d6dfe78f85fd93fdea482",
    "sd": "dfe5520a0d1a084689d3d3f46eca1b2a5ff660283b46f17196a5a38849f5f70c",
    "sd-m3n64": "df8327d57e6e63fe1eb76c1e4112af10cc8a64b546754f577b3093c0028176e1",
    "si-m3n32": "9910895c07835b72dee3e8000e72c64ef1bbe51ce78a0c188d6262ee472cfd48",
}


@pytest.mark.parametrize("route", sorted(PINNED_ROUTES))
def test_strand_files_equal_the_pinned_digests(tmp_path, route):
    src, strands, back = tmp_path / "in.bin", tmp_path / "s.txt", tmp_path / "out.bin"
    src.write_bytes(PINNED_PAYLOAD)
    args = ("--construction", *PINNED_ROUTES[route])
    assert cli.main(["encode", *args, "--in", str(src), "--out", str(strands)]) == 0
    assert hashlib.sha256(strands.read_bytes()).hexdigest() == PINNED_DIGESTS[route]
    assert cli.main(["decode", *args, "--in", str(strands), "--out", str(back)]) == 0
    assert back.read_bytes() == PINNED_PAYLOAD


class TestChunkEdges:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_cli_round_trip_at_chunk_edges(self, tmp_path, route):
        rng = random.Random(route)
        for size in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7):
            data = rng.randbytes(size)
            src, strands, back = tmp_path / "in.bin", tmp_path / "s.txt", tmp_path / "out.bin"
            src.write_bytes(data)
            args = ("--construction", *ROUTES[route])
            assert cli.main(["encode", *args, "--in", str(src), "--out", str(strands)]) == 0
            blocks = _reference_encode(_codec_of_route(route), data)
            assert strands.read_bytes() == b"".join(b + b"\n" for b in blocks)
            assert cli.main(["decode", *args, "--in", str(strands), "--out", str(back)]) == 0
            assert back.read_bytes() == data, size


class TestReferenceIdentity:
    @pytest.mark.parametrize("name", sorted(CODECS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.binary(max_size=300), cuts=st.lists(st.integers(0, 300), max_size=4))
    def test_blocks_match_per_bit_framer(self, name, data, cuts):
        codec = _codec(name)
        expected = _reference_encode(codec, data)
        assert _strands_of(codec, data) == expected
        assert _flat(payload.encode_stream(codec, _split(data, cuts))) == expected
        assert _bytes_of(codec, expected) == data

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_large_random_payload_matches(self, route):
        codec = _codec_of_route(route)
        data = random.Random(11).randbytes(2 * CHUNK + 123)
        expected = _reference_encode(codec, data)
        batches = list(payload.encode_stream(codec, _split(data, [5, CHUNK, 2 * CHUNK])))
        assert _flat(batches) == expected
        assert b"".join(payload.decode_stream(codec, iter(batches))) == data

    def test_decode_pieces_hold_back_the_trailer(self):
        codec = _codec_of_route("c1-knuth")
        data = bytes(range(256)) * (CHUNK // 64)
        batches = payload.encode_stream(codec, _split(data, [CHUNK // 2]))
        pieces = list(payload.decode_stream(codec, batches))
        assert len(pieces) > 1
        assert b"".join(pieces) == data


class TestStreamErrors:
    def test_block_size_checked_on_call(self):
        class Fat:
            source_bits = 300

        with pytest.raises(ValueError, match="block size"):
            payload.encode_stream(Fat(), [])
        with pytest.raises(ValueError, match="block size"):
            payload.decode_stream(Fat(), [])

    def test_rejected_block_is_numbered(self):
        codec = _codec("sd")
        blocks = _strands_of(codec, b"hello world")
        blocks[2] = b"A" * len(blocks[2])  # a run longer than m
        with pytest.raises(ValueError, match=r"^block 3: "):
            _bytes_of(codec, blocks)

    def test_no_blocks(self):
        with pytest.raises(ValueError, match="no blocks"):
            _bytes_of(_codec("sd"), [])

    @pytest.mark.parametrize("keep,block", [(-1, 11), (1, 11), (-20, 9)],
                             ids=["one-short", "one-over", "blocks-short"])
    def test_a_decoded_numeral_of_another_length_names_its_block(self, keep, block):
        codec = _codec("sd")
        strands = _strands_of(codec, b"hello world")
        assert (len(strands), codec.source_bits) == (11, 9)  # -20 digits cut into block 9

        class Miscounts:
            """The codec, but its numeral loses or gains digits at the end."""

            source_bits = codec.source_bits

            def decode_blocks(self, words, state):
                numeral = codec.decode_blocks(words, state)
                return numeral[:keep] if keep < 0 else numeral + b"0" * keep

        k = codec.source_bits
        with pytest.raises(BlockError, match=rf"^block {block}: the decoded numeral is not"
                                             rf" {k} digits a block$") as refused:
            _bytes_of(Miscounts(), strands)
        assert refused.value.position == block - 1

    def test_a_batch_refused_with_no_strand_refused_alone_names_its_last_block(self):
        codec = _codec("sd")
        strands = _strands_of(codec, b"hello world")

        class RefusesPairs:
            """The codec, but it refuses every batch of more than one strand."""

            source_bits = codec.source_bits

            def decode_blocks(self, words, state):
                if len(words) > 1:
                    raise ValueError("a batch of several strands")
                return codec.decode_blocks(words, state)

        with pytest.raises(BlockError, match=rf"^block {len(strands)}: a batch of several strands$"
                           ) as refused:
            _bytes_of(RefusesPairs(), strands)
        assert refused.value.position == len(strands) - 1
        # One strand a batch, every strand decodes.
        assert b"".join(payload.decode_stream(RefusesPairs(), [[s] for s in strands])) == (
            b"hello world")

    def test_nonzero_padding_bits_name_the_last_block(self):
        codec = make_codec("state-dependent", m=3, n=8)
        assert codec.source_bits == 15  # b"Z" takes 8 data bits, 14 pad bits and the trailer
        digits = format(ord("Z"), "08b").encode() + b"0" * 13 + b"1" + format(14, "08b").encode()
        strands = codec.encode_blocks(digits, STREAM_START)
        assert len(strands) == 2
        with pytest.raises(BlockError, match="^block 2: nonzero padding bits$") as refused:
            _bytes_of(codec, strands)
        assert refused.value.position == 1

    def test_truncated_stream_names_the_last_block(self):
        codec = _codec("c1-knuth")
        blocks = _strands_of(codec, b"a longer payload of bytes")
        with pytest.raises(ValueError, match=rf"^block {len(blocks) - 1}: "):
            _bytes_of(codec, blocks[:-1])


def _encode_file(tmp_path, route, data):
    src, strands = tmp_path / "in.bin", tmp_path / "s.txt"
    src.write_bytes(data)
    assert cli.main(["encode", "--construction", *ROUTES[route],
                     "--in", str(src), "--out", str(strands)]) == 0
    return strands


def _decode(capsys, route, strands, out):
    code = cli.main(["decode", "--construction", *ROUTES[route],
                     "--in", str(strands), "--out", str(out)])
    return code, capsys.readouterr().err


class TestDecodeErrors:
    def test_non_codeword_names_line_and_block(self, tmp_path, capsys):
        strands = _encode_file(tmp_path, "sd", b"some payload bytes")
        lines = strands.read_text().splitlines()
        # Prepend a blank line so the file line and the block number differ.
        lines[3] = lines[2]  # a valid word, but for the wrong state or not at all
        strands.write_text("\n" + "\n".join(lines) + "\n")
        code, err = _decode(capsys, "sd", strands, tmp_path / "out.bin")
        assert code == 1
        assert err.startswith("error: line 5: block 4: ")

    def test_lower_case_crlf_and_blank_lines_decode(self, tmp_path, capsys):
        data = random.Random(9).randbytes(CHUNK)
        strands = _encode_file(tmp_path, "sd", data)
        lines = strands.read_text().splitlines()
        lines = [line.lower() if i % 3 else line for i, line in enumerate(lines)]
        lines[10:10] = ["", "  "]
        strands.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        code, err = _decode(capsys, "sd", strands, tmp_path / "out.bin")
        assert (code, err) == (0, "")
        assert (tmp_path / "out.bin").read_bytes() == data

    def test_first_failure_in_file_order_is_reported(self, tmp_path, capsys):
        strands = _encode_file(tmp_path, "sd", b"a payload of a few more blocks")
        lines = strands.read_text().splitlines()
        # A word that starts with the state's symbol is no codeword for that state.
        lines[2] = lines[1][-1] + lines[2][1:]
        assert not re.search(r"(.)\1{3}", lines[2])  # passes the line checks
        assert abs(2 * sum(map(lines[2].count, "AT")) - 8) <= 2
        lines[5] = "ACGTX" + lines[5][5:]  # no base, later in the same chunk
        strands.write_text("\n".join(lines) + "\n")
        code, err = _decode(capsys, "sd", strands, tmp_path / "out.bin")
        assert code == 1
        assert err.startswith("error: line 3: block 3: ")

    def test_non_ascii_byte_is_a_data_error(self, tmp_path, capsys):
        strands = _encode_file(tmp_path, "si", b"payload")
        raw = strands.read_bytes().splitlines(keepends=True)
        raw[1] = raw[1][:3] + b"\xc3\xa9" + raw[1][5:]
        strands.write_bytes(b"".join(raw))
        code, err = _decode(capsys, "si", strands, tmp_path / "out.bin")
        assert code == 1
        assert err == "error: line 2: block 2: non-ASCII byte 0xc3 at position 3\n"

    @pytest.mark.parametrize(
        "route,damage,message",
        [
            ("sd", lambda line: line[:-1], "expected 8 symbols, got 7"),
            ("sd", lambda line: b"n" + line[1:], "invalid nucleotide 'n' at position 0"),
            ("sd", lambda line: b"ggggGGGG", "homopolymer run exceeds 3"),
            ("c1-knuth", lambda line: line[:12] + b"A" * 64,
             "AT/GC unbalance exceeds the code bound"),
        ],
        ids=["length", "lowercase-non-base", "mixed-case-run", "unbalanced"],
    )
    def test_refused_line_names_its_fault(self, tmp_path, capsys, route, damage, message):
        strands = _encode_file(tmp_path, route, b"a payload of a few more blocks")
        lines = strands.read_bytes().splitlines()
        lines[1] = damage(lines[1])
        strands.write_bytes(b"\n".join(lines) + b"\n")
        code, err = _decode(capsys, route, strands, tmp_path / "out.bin")
        assert (code, err) == (1, f"error: line 2: block 2: {message}\n")

    def test_nonzero_padding_bits_name_the_last_line(self, tmp_path, capsys):
        codec = make_codec("state-dependent", m=3, n=8)
        digits = format(ord("Z"), "08b").encode() + b"0" * 13 + b"1" + format(14, "08b").encode()
        strands = tmp_path / "s.txt"
        strands.write_bytes(b"\n".join(codec.encode_blocks(digits, STREAM_START)) + b"\n")
        code, err = _decode(capsys, "sd", strands, tmp_path / "out.bin")
        assert (code, err) == (1, "error: line 2: block 2: nonzero padding bits\n")
        assert not (tmp_path / "out.bin").exists()

    def test_pad_trailer_error_names_the_last_line(self, tmp_path, capsys):
        strands = _encode_file(tmp_path, "c1-knuth", b"payload long enough for blocks")
        lines = strands.read_text().splitlines()
        strands.write_text("\n".join(lines[:-1]) + "\n\n")
        code, err = _decode(capsys, "c1-knuth", strands, tmp_path / "out.bin")
        assert code == 1
        assert err.startswith(f"error: line {len(lines) - 1}: block {len(lines) - 1}: ")
        assert "pad" in err

    @staticmethod
    def _spaced_crlf(strands, lines):
        """Write lines with a blank line before every 97th and CRLF endings; each line's number."""
        text, numbers = [], []
        for i, line in enumerate(lines):
            if i % 97 == 0:
                text.append(" " if i % 2 else "")
            text.append(line)
            numbers.append(len(text))
        strands.write_bytes(("\r\n".join(text) + "\r\n\r\n").encode())
        return numbers

    @pytest.mark.parametrize("damage", ["run", "state"])
    def test_line_past_the_first_chunk_is_named(self, tmp_path, capsys, damage):
        strands = _encode_file(tmp_path, "sd", random.Random(13).randbytes(CHUNK))
        lines = strands.read_text().splitlines()
        block = 3000
        if damage == "run":
            lines[block] = "GGGGGGGG"
            message = f"block {block + 1}: homopolymer run exceeds 3"
        else:  # a codeword, but one that starts with the state's symbol
            codec = _codec_of_route("sd")
            state = ord(lines[block - 1][-1])
            values = range(0, 2**codec.source_bits, 2 ** (codec.source_bits - 3))
            lines[block] = next(
                w for other in b"GCAT" for v in values
                if (w := codec.encode_block(v, other))[0] == state
            ).decode()
            message = (f"block {block + 1}: not a codeword of this state-dependent code: its first"
                       f" symbol equals the state {chr(state)}")
        numbers = self._spaced_crlf(strands, lines)
        assert strands.read_bytes().index(lines[block].encode()) > CHUNK
        code, err = _decode(capsys, "sd", strands, tmp_path / "out.bin")
        assert (code, err) == (1, f"error: line {numbers[block]}: {message}\n")

    def test_pad_trailer_error_past_the_first_chunk_names_the_last_line(self, tmp_path, capsys):
        strands = _encode_file(tmp_path, "sd", random.Random(14).randbytes(CHUNK))
        lines = strands.read_text().splitlines()[:-1]
        numbers = self._spaced_crlf(strands, lines)
        code, err = _decode(capsys, "sd", strands, tmp_path / "out.bin")
        assert code == 1
        assert err.startswith(f"error: line {numbers[-1]}: block {len(lines)}: ")
        assert "pad" in err or "padding" in err

    def test_overlong_line_is_not_read_whole(self, tmp_path, capsys):
        strands = tmp_path / "long.txt"
        strands.write_bytes(b"GCAT" * CHUNK + b"\n")
        tracemalloc.start()
        try:
            code, err = _decode(capsys, "sd", strands, tmp_path / "out.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert err == f"error: line 1: longer than {CHUNK} bytes\n"
        assert peak < 2 * CHUNK + (1 << 20)

    def test_empty_file(self, tmp_path, capsys):
        strands = tmp_path / "empty.txt"
        strands.write_text("")
        code, err = _decode(capsys, "sd", strands, tmp_path / "out.bin")
        assert code == 1
        assert err == "error: line 1: no blocks to decode\n"

    def test_failed_decode_leaves_no_file(self, tmp_path, capsys):
        data = random.Random(5).randbytes(3 * CHUNK)
        strands = _encode_file(tmp_path, "c1-knuth", data)
        lines = strands.read_text().splitlines()
        lines[-2] = "G" * len(lines[-2])  # late damage: earlier pieces are already decoded
        strands.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.bin"
        code, err = _decode(capsys, "c1-knuth", strands, out)
        assert code == 1
        assert err.startswith(f"error: line {len(lines) - 1}: ")
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin", "s.txt"]

    @pytest.mark.parametrize("command", ["encode", "decode"])
    def test_oversize_block_is_a_usage_error(self, tmp_path, capsys, command):
        src = tmp_path / "in"
        src.write_bytes(b"")
        out = tmp_path / "out"
        code = cli.main([command, "--construction", "construction2", "--m", "3", "--n", "140",
                         "--in", str(src), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: block size ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]

    def test_failed_decode_keeps_an_existing_file(self, tmp_path, capsys):
        strands = tmp_path / "bad.txt"
        strands.write_text("ACGTX\n")
        out = tmp_path / "out.bin"
        out.write_bytes(b"previous")
        code, _ = _decode(capsys, "sd", strands, out)
        assert code == 1
        assert out.read_bytes() == b"previous"


@functools.lru_cache(maxsize=None)
def _fuzz_strands(route):
    return tuple(s.decode("ascii") for s in _strands_of(_codec(route), bytes(range(40, 100))))


def _cli_args(route):
    params = dict(CODECS[route])
    args = ["--construction", params.pop("construction")]
    for key, value in params.items():
        args += [f"--{key}", str(value)]
    return args


_damage = st.one_of(
    st.tuples(st.just("substitute"), st.integers(0, 10**6), st.sampled_from("GCATacgtNX- ")),
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("drop"), st.integers(0, 10**6)),
    st.tuples(st.just("swap"), st.integers(0, 10**6), st.integers(0, 10**6)),
    st.tuples(st.just("duplicate"), st.integers(0, 10**6)),
    st.tuples(st.just("lengthen"), st.integers(0, 10**6), st.sampled_from("GCAT")),
    st.tuples(st.just("shorten"), st.integers(0, 10**6)),
    st.tuples(st.just("non-ascii"), st.integers(0, 10**6), st.integers(0x80, 0xFF)),
)


def _apply(text, damage):
    """One damage to a strand file's text (latin-1, so any byte is one character)."""
    kind, at, *extra = damage
    if kind == "truncate":
        return text[: at % (len(text) + 1)]
    if kind == "non-ascii":
        pos = at % (len(text) + 1)
        return text[:pos] + chr(extra[0]) + text[pos:]
    lines = text.split("\n")
    i = at % len(lines)
    if kind == "substitute" and lines[i]:
        j = (at // 7) % len(lines[i])
        lines[i] = lines[i][:j] + extra[0] + lines[i][j + 1 :]
    elif kind == "drop":
        del lines[i]
    elif kind == "swap":
        j = extra[0] % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "lengthen":
        lines[i] += extra[0]
    elif kind == "shorten":
        lines[i] = lines[i][:-1]
    return "\n".join(lines)


class TestDecodeFuzz:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(route=st.sampled_from(sorted(CODECS)), damages=st.lists(_damage, min_size=1, max_size=3))
    def test_damaged_files_exit_cleanly(self, route, damages):
        text = "\n".join(_fuzz_strands(route)) + "\n"
        for damage in damages:
            text = _apply(text, damage)
        with tempfile.TemporaryDirectory() as tmp:
            strands = os.path.join(tmp, "s.txt")
            out = os.path.join(tmp, "out.bin")
            with open(strands, "wb") as fh:
                fh.write(text.encode("latin-1"))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["decode", *_cli_args(route), "--in", strands, "--out", out])
            message = err.getvalue()
            assert code in (0, 1)
            assert "Traceback" not in message
            if code == 1:
                assert re.match(r"error: line [1-9][0-9]*: ", message), message
                assert not os.path.exists(out)
            else:
                assert message == ""
                assert os.path.exists(out)


def _peak_of_round_trip(tmp_path, size, args=("--construction", "construction1", "--ell", "112")):
    src, strands, back = tmp_path / "in.bin", tmp_path / "s.txt", tmp_path / "out.bin"
    src.write_bytes(random.Random(size).randbytes(size))
    tracemalloc.start()
    try:
        assert cli.main(["encode", *args, "--in", str(src), "--out", str(strands)]) == 0
        assert cli.main(["decode", *args, "--in", str(strands), "--out", str(back)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.read_bytes() == src.read_bytes()
    return peak


def test_memory_flat_in_input_size(tmp_path):
    small = _peak_of_round_trip(tmp_path, 1 << 20)
    large = _peak_of_round_trip(tmp_path, 4 << 20)
    assert abs(large - small) < 1 << 20, (small, large)


def test_block_code_memory_flat_in_input_size(tmp_path):
    """A block code keeps nothing per coded word: its peak does not grow with the input."""
    args = ("--construction", "state-dependent", "--m", "3", "--n", "8")
    small = _peak_of_round_trip(tmp_path, 256 << 10, args)
    large = _peak_of_round_trip(tmp_path, 1 << 20, args)
    assert abs(large - small) < 1 << 20, (small, large)


def test_short_code_tables_memory_flat_in_input_size(tmp_path):
    """A short two-mode code's books and decode table are sized by the code, not the input."""
    args = ("--construction", "state-independent", "--m", "3", "--n", "8")
    _peak_of_round_trip(tmp_path, 1 << 10, args)  # the codec modules' first import is no growth
    small = _peak_of_round_trip(tmp_path, 128 << 10, args)
    large = _peak_of_round_trip(tmp_path, 512 << 10, args)
    assert abs(large - small) < 1 << 20, (small, large)
