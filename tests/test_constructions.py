import functools
import hashlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dnacodes import payload
from dnacodes.balancing import KnuthBalancer, WeakKnuthBalancer
from dnacodes.blockcodes import _NO_STATE, TwoModeRllCode
from dnacodes.cli import _line_fault
from dnacodes.constructions import CODECS, PlaneCodec, make_codec
from dnacodes.words import add_planes, max_run


def at_weight(strand):
    return strand.count(b"A") + strand.count(b"T")


def numeral(codec, values):
    """The batch numeral of these block indices: each one's source_bits binary digits."""
    return "".join(format(value, f"0{codec.source_bits}b") for value in values).encode("ascii")


def stream_refusal(codec, strands):
    """The BlockError that decode_stream raises on these strands as one batch."""
    with pytest.raises(payload.BlockError) as refused:
        b"".join(payload.decode_stream(codec, [strands]))
    return refused.value


def alone(codec, strand, state):
    """Why the codec refuses strand alone after state."""
    with pytest.raises(ValueError) as refused:
        codec.decode_blocks([strand], state)
    return str(refused.value)


def round_trip(codec, data):
    """data through encode_stream and decode_stream, in one chunk."""
    return b"".join(payload.decode_stream(codec, payload.encode_stream(codec, [data])))


class TestPlaneMergeFormulas:
    def test_balance_merge_example(self):
        # balanced word 10 on the high plane, payload 11 low -> TC
        assert add_planes(b"11", b"10") == b"TC"

    def test_runlength_merge_example(self):
        # constrained word 0101 low, payload 0011 high -> GCAT
        assert add_planes(b"0101", b"0011") == b"GCAT"


class TestConstruction1:
    def test_geometry_and_rate(self):
        codec = make_codec("construction1", ell=8)
        assert codec.oligo_len == 14
        assert codec.source_bits == 22
        assert Fraction(codec.source_bits, codec.oligo_len) == 1 + Fraction(8, 14)

    def test_weight_equals_balancer_weight(self):
        codec = make_codec("construction1", ell=8)
        rng = random.Random(1)
        for _ in range(100):
            word = codec.encode_block(rng.getrandbits(codec.source_bits))
            assert at_weight(word) == codec.oligo_len // 2  # exactly balanced

    def test_weak_balancer_bound_exhaustive(self):
        codec = make_codec("construction1", ell=8, balancer="weak-knuth", p0=2)
        n = codec.oligo_len
        bound = Fraction(codec.weight_bound, n)
        for data in range(2**8):
            word = codec.encode_block(data << n)
            assert abs(Fraction(at_weight(word), n) - Fraction(1, 2)) <= bound

    @settings(max_examples=200)
    @given(st.integers(0, 2**22 - 1))
    def test_random_round_trip(self, value):
        codec = make_codec("construction1", ell=8)
        word = codec.encode_block(value)
        assert codec.decode_block(word) == value

    def test_random_round_trip_n16(self):
        codec = make_codec("construction1", ell=16)
        rng = random.Random(3)
        for _ in range(1000):
            value = rng.getrandbits(codec.source_bits)
            assert codec.decode_block(codec.encode_block(value)) == value

    def test_length_validation(self):
        codec = make_codec("construction1", ell=8)
        with pytest.raises(ValueError):
            codec.encode_block(2**22)
        with pytest.raises(ValueError):
            codec.encode_block(-1)
        with pytest.raises(ValueError):
            codec.decode_block(b"G" * 13)
        with pytest.raises(ValueError):
            codec.decode_block(b"GCATGCATGCATGN")


class TestConstruction2:
    def test_merge_keeps_run_constraint(self):
        codec = make_codec("construction2", m=2, n=6)
        assert codec.source_bits == TwoModeRllCode(2, 6).source_bits + 6
        rng = random.Random(5)
        state = None
        for _ in range(50):
            value = rng.getrandbits(codec.source_bits)
            word = codec.encode_block(value, state)
            assert max_run(word) <= 2
            assert codec.decode_block(word) == value
            state = word[-1]

    def test_exhaustive_pairs_never_violate(self):
        codec = make_codec("construction2", m=2, n=6)
        sources = range(2**codec.source_bits)
        words_by_state = {
            state: [codec.encode_block(v, state) for v in sources] for state in b"GCAT"
        }
        first_words = [codec.encode_block(v, None) for v in sources]
        for w1 in first_words:
            for w2 in words_by_state[w1[-1]]:
                assert max_run(w1 + w2) <= 2

    def test_rate_accounting(self):
        codec = make_codec("construction2", m=3, n=5)
        # composite rate (n - 1 + floor(log2 N_2)) / n, measured exactly
        assert Fraction(codec.source_bits, codec.oligo_len) == Fraction(8, 5)

    def test_measured_stream_rate(self):
        codec = make_codec("construction2", m=2, n=6)
        blocks = 400
        rng = random.Random(11)
        state = None
        symbols = 0
        for _ in range(blocks):
            word = codec.encode_block(rng.getrandbits(codec.source_bits), state)
            symbols += len(word)
            state = word[-1]
        assert Fraction(blocks * codec.source_bits, symbols) == Fraction(codec.source_bits, 6)


class _Recorder:
    """A one-bit binary code that records the state each batch is handed."""

    source_bits, oligo_len, max_run, weight_bound = 1, 2, None, None

    def __init__(self):
        self.states = []

    def encode_blocks(self, digits, state=None):
        self.states.append(state)
        return [b"01" if digit == ord("1") else b"10" for digit in digits]

    def decode_blocks(self, words, state=None):
        self.states.append(state)
        return b"".join(b"1" if word == b"01" else b"0" for word in words)


class TestPlaneCodec:
    def test_registry_builds_plane_codecs(self):
        assert isinstance(make_codec("construction1", ell=8), PlaneCodec)
        assert isinstance(make_codec("construction1", ell=8, balancer="weak-knuth", p0=2),
                          PlaneCodec)
        assert isinstance(make_codec("construction2", m=2, n=6), PlaneCodec)

    def test_declarations_come_from_the_code(self):
        balancer = WeakKnuthBalancer(8, 2)
        high, low = PlaneCodec(balancer, "high"), PlaneCodec(balancer, "low")
        for codec in (high, low):
            assert (codec.source_bits, codec.oligo_len, codec.raw_bits) == (20, 12, 12)
            assert codec.max_run is None
        assert high.weight_bound == balancer.weight_bound == 1
        assert low.weight_bound is None  # the low plane's weight is not the AT-content
        runs = TwoModeRllCode(2, 6)
        for plane in ("low", "high"):
            codec = PlaneCodec(runs, plane)
            assert (codec.max_run, codec.weight_bound) == (2, None)

    @pytest.mark.parametrize("plane,digits", [("low", b"0101"), ("high", b"0011")])
    def test_code_state_is_the_digit_on_its_plane(self, plane, digits):
        code = _Recorder()
        codec = PlaneCodec(code, plane)
        for state in (None, *b"GCAT"):
            assert codec.decode_block(codec.encode_block(5, state), state) == 5
        expected = (None, *digits)
        assert code.states == [state for state in expected for _ in ("encode", "decode")]

    @pytest.mark.parametrize("plane", ["low", "high"])
    def test_either_plane_round_trips_and_keeps_the_run_limit(self, plane):
        codec = PlaneCodec(TwoModeRllCode(2, 6), plane)
        rng = random.Random(7)
        strands, state = [], None
        for _ in range(200):
            value = rng.getrandbits(codec.source_bits)
            strand = codec.encode_block(value, state)
            assert codec.decode_block(strand, state) == value
            strands.append(strand)
            state = strand[-1]
        assert max_run(b"".join(strands)) <= 2

    @pytest.mark.parametrize("name,params", [("construction1", {"ell": 8}),
                                             ("construction2", {"m": 2, "n": 6})])
    def test_strand_of_another_length_refused(self, name, params):
        codec = make_codec(name, **params)
        strand = codec.encode_block(0)
        for wrong in (strand[:-1], strand + b"G", b""):
            with pytest.raises(ValueError):
                codec.decode_block(wrong)

    @pytest.mark.parametrize("name,params", [("construction1", {"ell": 8}),
                                             ("construction2", {"m": 2, "n": 6}),
                                             ("construction1", {"ell": 8, "balancer": "weak-knuth",
                                                                "p0": 2})])
    def test_malformed_strand_refused_at_its_place(self, name, params):
        codec = make_codec(name, **params)
        n = codec.oligo_len
        strands = codec.encode_blocks(numeral(codec, range(6)))
        malformed = f"not a strand of {n} bases G, C, A, T"
        for at in (0, 3, 5):
            for bad in (strands[at][:-1], strands[at] + b"G", b"N" + strands[at][1:], b""):
                damaged = strands[:at] + [bad] + strands[at + 1:]
                with pytest.raises(ValueError) as refused:
                    codec.decode_blocks(damaged)
                assert str(refused.value) == malformed
                refused = stream_refusal(codec, damaged)
                assert (str(refused), refused.position) == (f"block {at + 1}: {malformed}", at)
        # The stream names the earlier of a strand the code refuses and a malformed one.
        damaged = strands[:1] + [b"G" * n, strands[2], strands[3][:-1]]
        with pytest.raises(ValueError, match=f"^{malformed}$"):
            codec.decode_blocks(damaged)
        refused = stream_refusal(codec, damaged)
        reason = alone(codec, b"G" * n, strands[0][-1])
        assert reason != malformed
        assert (str(refused), refused.position) == (f"block 2: {reason}", 1)
        refused = stream_refusal(codec, strands[:1] + [strands[1][:-1], strands[2], b"G" * n])
        assert (str(refused), refused.position) == (f"block 2: {malformed}", 1)

    def test_unknown_plane(self):
        with pytest.raises(ValueError, match="plane"):
            PlaneCodec(KnuthBalancer(8), "middle")

    def test_huge_balancer_refused_before_any_table(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^block size \d+ outside 1\.\.256 "):
            PlaneCodec(KnuthBalancer(10**12), "high")
        with pytest.raises(ValueError, match=r"^block size \d+ outside 1\.\.256 "):
            PlaneCodec(WeakKnuthBalancer(10**12, 3), "high")
        with pytest.raises(ValueError, match="p0"):
            WeakKnuthBalancer(64, 10**12)
        assert time.perf_counter() - start < 1


class TestMakeCodec:
    def test_names(self):
        assert make_codec("construction2", m=2, n=6).oligo_len == 6
        assert make_codec("state-independent", m=2, n=4).oligo_len == 4
        assert make_codec("state-dependent", m=2, n=4).oligo_len == 4
        codec = make_codec("construction1", ell=8, balancer="weak-knuth", p0=2)
        assert codec.oligo_len == 12
        assert list(CODECS) == [
            "construction1", "construction2", "state-independent", "state-dependent"
        ]

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_codec("construction9")
        with pytest.raises(ValueError):
            make_codec("construction2", m=2, n=6, bogus=1)

    @pytest.mark.parametrize(
        "name,params,message",
        [
            ("construction1", {}, "construction1 needs ell"),
            ("construction2", {"m": 3}, "construction2 needs n"),
            ("state-dependent", {}, "state-dependent needs m and n"),
            ("construction2", {"m": 3, "n": 10, "ell": 8}, "construction2 takes no ell"),
            ("construction1", {"ell": 8, "p0": 2}, "the knuth balancer takes no p0"),
            ("construction1", {"ell": 8, "balancer": "weak-knuth"},
             "the weak-knuth balancer needs p0"),
            ("construction1", {"ell": 8, "balancer": "fair"}, "unknown balancer 'fair'"),
            ("state-independent", {"m": 3, "n": 8, "carried_bits": 5},
             "state-independent takes no carried_bits"),
        ],
    )
    def test_missing_or_unused_parameter(self, name, params, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_codec(name, **params)

    @pytest.mark.parametrize(
        "name,params,declared",
        [
            ("construction1", {"ell": 8}, (22, 14, None, 0, 14)),
            ("construction1", {"ell": 8, "balancer": "weak-knuth", "p0": 2},
             (20, 12, None, 1, 12)),
            ("construction2", {"m": 2, "n": 6}, (9, 6, 2, None, 6)),
            ("state-independent", {"m": 3, "n": 5}, (8, 5, 3, None, 0)),
            ("state-dependent", {"m": 3, "n": 5}, (9, 5, 3, 1.5, 0)),
        ],
    )
    def test_declared_protocol(self, name, params, declared):
        codec = make_codec(name, **params)
        assert (codec.source_bits, codec.oligo_len, codec.max_run, codec.weight_bound,
                codec.raw_bits) == declared

    @pytest.mark.parametrize("name", ["construction2", "state-independent", "state-dependent"])
    def test_oversize_block_rejected_before_the_build(self, name):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^block size \d+ outside 1\.\.256 "):
            make_codec(name, m=3, n=1000)
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize(
        "name,m", [("construction2", 2), ("state-independent", 3), ("state-dependent", 3)]
    )
    def test_long_oversize_block_refused_before_counting(self, name, m):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^block size at least \d+ outside 1\.\.256 "):
            make_codec(name, m=m, n=200_000)
        assert time.perf_counter() - start < 1

    def test_construction2_oversize_names_the_strand_block(self):
        # 878 two-mode bits plus the 1000 raw bits of the high plane
        with pytest.raises(ValueError, match=r"^block size 1878 outside 1\.\.256 "):
            make_codec("construction2", m=3, n=1000)


# Parameters for each registry entry that the block protocol test draws from.
PROTOCOL_CASES = {
    "construction1": ({"ell": 8}, {"ell": 10, "balancer": "weak-knuth", "p0": 2},
                      {"ell": 112}),
    "construction2": ({"m": 2, "n": 6}, {"m": 3, "n": 10}, {"m": 4, "n": 40}),
    "state-independent": ({"m": 1, "n": 4}, {"m": 3, "n": 8}, {"m": 3, "n": 64}),
    "state-dependent": ({"m": 2, "n": 4}, {"m": 3, "n": 8}, {"m": 3, "n": 64}),
}


# Each registry entry at the parameters of the CI round-trip routes and of `dnacodes verify`.
CONTRACT_CASES = [
    ("construction1", {"ell": 64}),
    ("construction1", {"ell": 64, "balancer": "weak-knuth", "p0": 3}),
    ("construction1", {"ell": 10, "balancer": "weak-knuth", "p0": 2}),
    ("construction2", {"m": 3, "n": 10}),
    ("construction2", {"m": 12, "n": 10}),
    ("construction2", {"m": 2, "n": 6}),
    ("state-independent", {"m": 3, "n": 8}),
    ("state-independent", {"m": 3, "n": 32}),
    ("state-independent", {"m": 3, "n": 5}),
    ("state-dependent", {"m": 3, "n": 8}),
    ("state-dependent", {"m": 3, "n": 64}),
    ("state-dependent", {"m": 3, "n": 5}),
]


# The sha256 of each codec's strands at its three PROTOCOL_CASES, 64 blocks
# drawn by random.Random(2031) from stream start and after each base, a
# strand a line: the strands a base state gives, pinned.
BASE_STATE_STRANDS = {
    "construction1": "9a9e62087ce309ce3461f8cac46fbbaae9a2f0d7bdf82cb413dd3341512c4f52",
    "construction2": "e93cb66fafb62d0d05dcdbdbcd393a9e00b90cad2290454f49e9b1efab709666",
    "state-dependent": "4118ef830efadfc2e4b42eaddd4ca72dcb74ebcc3226a6401c95771929ba255f",
    "state-independent": "1bb613727931e69b8759a0a17dcf15e2ac9d32517aa284192e2b9a0599f9062c",
}

# The expected refusal of an item that is not bytes, by codec; n is the strand length.
NOT_BYTES_REFUSAL = {
    "construction1": "not a strand of {n} bases G, C, A, T",
    "construction2": "not a strand of {n} bases G, C, A, T",
    "state-dependent": "not a codeword of this state-dependent code",
    "state-independent": "not a codeword of this state-independent code",
}


@functools.lru_cache(maxsize=None)
def _protocol_codec(name, i):
    return make_codec(name, **PROTOCOL_CASES[name][i])


@st.composite
def _damaged(draw, strand, run_cap):
    """strand with substituted symbols, another length, a forced run, or only A and T."""
    word = bytearray(strand)
    n = len(word)
    kind = draw(st.sampled_from(["substitute", "length", "run", "at"]))
    if kind == "substitute":
        for _ in range(draw(st.integers(1, 3))):
            word[draw(st.integers(0, n - 1))] = draw(st.sampled_from(b"GCATNX"))
    elif kind == "length":
        word = word[:-1] if draw(st.booleans()) else word + draw(st.sampled_from([b"G", b"A"]))
    elif kind == "run":
        length = min(n, (run_cap or n) + 1)
        start = draw(st.integers(0, n - length))
        word[start : start + length] = bytes([draw(st.sampled_from(b"GCAT"))]) * length
    else:
        word = word.translate(bytes.maketrans(b"GC", b"AT"))
    return bytes(word)


class TestBlockProtocol:
    def test_cases_cover_the_registry(self):
        assert set(PROTOCOL_CASES) == set(CODECS)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(sorted(CODECS)), st.integers(0, 2), st.data())
    def test_int_in_strand_bytes_out_and_back(self, name, i, data):
        codec = _protocol_codec(name, i)
        index = data.draw(st.integers(0, 2**codec.source_bits - 1), label="index")
        state = data.draw(st.sampled_from([None, *b"GCAT"]), label="state")
        strand = codec.encode_block(index, state)
        assert type(strand) is bytes and len(strand) == codec.oligo_len
        assert not strand.strip(b"GCAT")
        assert codec.decode_block(strand, state) == index
        # The codec refuses every line the CLI's explanation finds at fault.
        damaged = data.draw(_damaged(strand, codec.max_run), label="damaged")
        if _line_fault(damaged, codec) is not None:
            with pytest.raises(ValueError):
                codec.decode_block(damaged, state)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(CODECS)), st.integers(0, 2), st.data())
    def test_batches_equal_blocks_one_at_a_time(self, name, i, data):
        codec = _protocol_codec(name, i)
        size = data.draw(st.integers(0, 40), label="size")
        values = data.draw(st.lists(st.integers(0, 2**codec.source_bits - 1),
                                    min_size=size, max_size=size), label="values")
        cuts = sorted(data.draw(st.lists(st.integers(0, size), max_size=5), label="cuts"))
        start = data.draw(st.sampled_from([None, *b"GCAT"]), label="state")
        strands, state = [], start
        for value in values:
            strands.append(codec.encode_block(value, state))
            assert codec.decode_block(strands[-1], state) == value
            state = strands[-1][-1]
        pieces = list(zip([0, *cuts], [*cuts, size]))
        batched, decoded = [], []
        for a, b in pieces:
            state = strands[a - 1][-1] if a else start
            batched += codec.encode_blocks(numeral(codec, values[a:b]), state)
            decoded.append(codec.decode_blocks(strands[a:b], state))
        assert batched == strands
        assert b"".join(decoded) == numeral(codec, values)

    @pytest.mark.parametrize(
        "name,params", CONTRACT_CASES,
        ids=[f"{n}-{'-'.join(map(str, p.values()))}" for n, p in CONTRACT_CASES])
    def test_empty_batches_and_blocks_one_per_call_equal_one_batch(self, name, params):
        codec = make_codec(name, **params)
        for state in (None, *b"GCAT"):
            assert codec.encode_blocks(b"", state) == []
            assert codec.decode_blocks([], state) == b""
        rng = random.Random(2028)
        digits = numeral(codec, [rng.getrandbits(codec.source_bits) for _ in range(200)])
        k = codec.source_bits
        for start in (None, ord("A")):
            strands, state = [], start
            for i in range(0, len(digits), k):
                strands += codec.encode_blocks(digits[i : i + k], state)
                state = strands[-1][-1]
            assert codec.encode_blocks(digits, start) == strands
            decoded = []
            for i, strand in enumerate(strands):
                decoded.append(codec.decode_blocks([strand], strands[i - 1][-1] if i else start))
            assert b"".join(decoded) == codec.decode_blocks(strands, start) == digits

    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_a_refused_strand_carries_its_place_in_the_batch(self, name):
        codec = _protocol_codec(name, 1)
        strands = codec.encode_blocks(numeral(codec, range(8)), None)
        for bad in (strands[5][:-1], b"N" + strands[5][1:], strands[5].lower()):
            damaged = strands[:5] + [bad] + strands[6:]
            with pytest.raises(ValueError) as reason:
                codec.decode_blocks(damaged, None)
            assert str(reason.value) == alone(codec, bad, strands[4][-1])
            refused = stream_refusal(codec, damaged)
            assert (str(refused), refused.position) == (f"block 6: {reason.value}", 5)

    @pytest.mark.parametrize("name", sorted(CODECS))
    @pytest.mark.parametrize("item", [str, None, int])
    def test_an_item_that_is_not_bytes_is_refused_with_its_block(self, name, item):
        codec = _protocol_codec(name, 1)
        good = codec.encode_blocks(numeral(codec, range(8)), None)
        bad = {str: good[5].decode(), None: None, int: 5}[item]
        batch = good[:5] + [bad] + good[6:]
        text = NOT_BYTES_REFUSAL[name].format(n=codec.oligo_len)
        with pytest.raises(ValueError) as refused:
            codec.decode_blocks(batch, None)
        assert type(refused.value) is ValueError and str(refused.value) == text
        refused = stream_refusal(codec, batch)
        assert (str(refused), refused.position) == (f"block 6: {text}", 5)

    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_a_state_is_none_or_a_base(self, name):
        """A base state gives the recorded strands; any other is refused, or coded as None."""
        digest = hashlib.sha256()
        for i in range(3):
            codec = _protocol_codec(name, i)
            rng = random.Random(2031)
            digits = numeral(codec, [rng.getrandbits(codec.source_bits) for _ in range(64)])
            for state in (None, *b"GCAT"):
                strands = codec.encode_blocks(digits, state)
                assert codec.decode_blocks(strands, state) == digits
                digest.update(b"\n".join(strands) + b"\n")
            start = codec.encode_blocks(digits, None)
            for state in (ord("g"), 0, 255, 256, 300, -1):
                if name != "state-dependent":
                    assert codec.encode_blocks(digits, state) == start
                    assert codec.decode_blocks(start, state) == digits
                    continue
                for call, batch in ((codec.encode_blocks, digits), (codec.decode_blocks, start)):
                    with pytest.raises(ValueError) as refused:
                        call(batch, state)
                    assert str(refused.value) == _NO_STATE.format(state)
        assert digest.hexdigest() == BASE_STATE_STRANDS[name]

    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_out_of_range_index_refused(self, name):
        codec = _protocol_codec(name, 0)
        k = codec.source_bits
        for index in (-1, 2**k):
            with pytest.raises(ValueError) as refused:
                codec.encode_block(index, None)
            assert str(refused.value) == f"index {index} outside 0..2**{k} - 1"

    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_a_batch_that_is_not_whole_blocks_of_digits_is_refused(self, name):
        codec = _protocol_codec(name, 1)
        k = codec.source_bits
        digits = numeral(codec, range(6))
        cases = [
            digits[:-1],  # the last block cut short
            digits + b"0",  # a seventh block of one digit
            digits[: 3 * k] + b"2" + digits[3 * k + 1 :],
            digits[:-1] + b"2",
            digits[: 2 * k - 1] + b"2" + digits[2 * k :-1],  # and cut short
        ]
        for bad in cases:
            with pytest.raises(ValueError) as refused:
                codec.encode_blocks(bad, None)
            assert str(refused.value) == f"not a block of {k} binary digits"

    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_a_numeral_that_is_not_bytes_is_refused(self, name):
        codec = _protocol_codec(name, 1)
        k = codec.source_bits
        digits = numeral(codec, range(3))
        for bad in (digits.decode(), list(digits), 5, None):
            with pytest.raises(ValueError) as refused:
                codec.encode_blocks(bad, None)
            assert type(refused.value) is ValueError
            assert str(refused.value) == f"not a block of {k} binary digits"
        assert codec.encode_blocks(bytearray(digits), None) == codec.encode_blocks(digits, None)

    @pytest.mark.parametrize("name,i", [(name, i) for name in sorted(CODECS) for i in range(3)])
    def test_an_empty_and_a_one_block_batch_encode(self, name, i):
        """The sizes where the batch conversion of indices takes another path than a full batch."""
        codec = _protocol_codec(name, i)
        last = 2**codec.source_bits - 1
        for state in (None, *b"GCAT"):
            assert codec.encode_blocks(b"", state) == []
            for value in (0, 1, last // 3, last):
                strands = codec.encode_blocks(numeral(codec, [value]), state)
                assert strands == [codec.encode_block(value, state)]
                assert codec.decode_blocks(strands, state) == numeral(codec, [value])


class TestPayloadFraming:
    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=120))
    def test_round_trip_state_dependent(self, data):
        codec = make_codec("state-dependent", m=3, n=5)
        assert round_trip(codec, data) == data

    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=60))
    def test_round_trip_construction2(self, data):
        codec = make_codec("construction2", m=2, n=6)
        assert round_trip(codec, data) == data

    def test_empty_payload(self):
        codec = make_codec("state-independent", m=3, n=5)
        assert round_trip(codec, b"") == b""

    def test_stream_respects_constraint(self):
        codec = make_codec("construction2", m=2, n=6)
        batches = payload.encode_stream(codec, [bytes(range(64))])
        assert max_run(b"".join(b"".join(batch) for batch in batches)) <= 2

    def test_corrupt_trailer_detected(self):
        codec = make_codec("state-dependent", m=3, n=5)
        blocks = list(payload.encode_stream(codec, [b"hi"]))
        with pytest.raises(ValueError):
            b"".join(payload.decode_stream(codec, blocks[:-1]))

    def test_block_size_cap(self):
        class Fat:
            source_bits = 300

        with pytest.raises(ValueError):
            payload.encode_stream(Fat(), [b""])
