import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dnacodes import payload
from dnacodes.balancing import KnuthBalancer, WeakKnuthBalancer
from dnacodes.constructions import CODECS, Construction1Codec, Construction2Codec, make_codec
from dnacodes.words import at_weight, max_run, merge_planes


class TestPlaneMergeFormulas:
    def test_balance_merge_example(self):
        # balanced word (1,0) on the high plane, payload (1,1) low -> TC
        assert merge_planes((1, 1), (1, 0)) == (3, 1)

    def test_runlength_merge_example(self):
        # constrained word 0101 low, payload 0011 high -> GCAT
        assert merge_planes((0, 1, 0, 1), (0, 0, 1, 1)) == (0, 1, 2, 3)


class TestConstruction1:
    def test_geometry_and_rate(self):
        codec = Construction1Codec(KnuthBalancer(8))
        assert codec.oligo_len == 14
        assert codec.source_bits == 22
        assert codec.rate == Fraction(22, 14) == 1 + Fraction(8, 14)

    def test_weight_equals_balancer_weight(self):
        codec = Construction1Codec(KnuthBalancer(8))
        rng = random.Random(1)
        for _ in range(100):
            bits = tuple(rng.randrange(2) for _ in range(codec.source_bits))
            word = codec.encode_block(bits)
            assert at_weight(word) == codec.oligo_len // 2  # exactly balanced

    def test_weak_balancer_bound_exhaustive(self):
        codec = Construction1Codec(WeakKnuthBalancer(8, 2))
        n = codec.oligo_len
        bound = Fraction(codec.weight_bound, n)
        for data in itertools.product((0, 1), repeat=8):
            word = codec.encode_block(data + (0,) * n)
            assert abs(Fraction(at_weight(word), n) - Fraction(1, 2)) <= bound

    @settings(max_examples=200)
    @given(st.integers(0, 2**22 - 1))
    def test_random_round_trip(self, value):
        codec = Construction1Codec(KnuthBalancer(8))
        bits = tuple(value >> (21 - i) & 1 for i in range(22))
        assert codec.decode_block(codec.encode_block(bits)) == bits

    def test_random_round_trip_n16(self):
        codec = Construction1Codec(KnuthBalancer(16))
        rng = random.Random(3)
        for _ in range(1000):
            bits = tuple(rng.randrange(2) for _ in range(codec.source_bits))
            assert codec.decode_block(codec.encode_block(bits)) == bits

    def test_length_validation(self):
        codec = Construction1Codec(KnuthBalancer(8))
        with pytest.raises(ValueError):
            codec.encode_block((0,) * 21)
        with pytest.raises(ValueError):
            codec.decode_block((0,) * 13)


class TestConstruction2:
    def test_merge_keeps_run_constraint(self):
        codec = Construction2Codec(2, 6)
        assert codec.source_bits == codec.inner.source_bits + 6
        rng = random.Random(5)
        state = None
        for _ in range(50):
            bits = tuple(rng.randrange(2) for _ in range(codec.source_bits))
            word = codec.encode_block(bits, state)
            assert max_run(word) <= 2
            assert codec.decode_block(word) == bits
            state = word[-1]

    def test_exhaustive_pairs_never_violate(self):
        codec = Construction2Codec(2, 6)
        sources = list(range(2**codec.source_bits))
        words_by_state = {}
        k = codec.source_bits
        for state in (0, 1, 2, 3):
            words_by_state[state] = [
                codec.encode_block(tuple(v >> (k - 1 - i) & 1 for i in range(k)), state)
                for v in sources
            ]
        first_words = [
            codec.encode_block(tuple(v >> (k - 1 - i) & 1 for i in range(k)), None)
            for v in sources
        ]
        for w1 in first_words:
            for w2 in words_by_state[w1[-1]]:
                assert max_run(w1 + w2) <= 2

    def test_rate_accounting(self):
        codec = Construction2Codec(3, 5)
        # composite rate (n - 1 + floor(log2 N_2)) / n, measured exactly
        assert codec.rate == Fraction(codec.source_bits, 5) == Fraction(8, 5)

    def test_measured_stream_rate(self):
        codec = Construction2Codec(2, 6)
        blocks = 400
        rng = random.Random(11)
        state = None
        symbols = 0
        for _ in range(blocks):
            bits = tuple(rng.randrange(2) for _ in range(codec.source_bits))
            word = codec.encode_block(bits, state)
            symbols += len(word)
            state = word[-1]
        assert Fraction(blocks * codec.source_bits, symbols) == codec.rate


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
            ("state-dependent", {"m": 3, "n": 5}, (9, 5, 3, None, 0)),
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


class TestPayloadFraming:
    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=120))
    def test_round_trip_state_dependent(self, data):
        codec = make_codec("state-dependent", m=3, n=5)
        assert payload.decode_bytes(codec, payload.encode_bytes(codec, data)) == data

    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=60))
    def test_round_trip_construction2(self, data):
        codec = make_codec("construction2", m=2, n=6)
        assert payload.decode_bytes(codec, payload.encode_bytes(codec, data)) == data

    def test_empty_payload(self):
        codec = make_codec("state-independent", m=3, n=5)
        assert payload.decode_bytes(codec, payload.encode_bytes(codec, b"")) == b""

    def test_stream_respects_constraint(self):
        codec = make_codec("construction2", m=2, n=6)
        blocks = payload.encode_bytes(codec, bytes(range(64)))
        stream = [s for b in blocks for s in b]
        assert max_run(stream) <= 2

    def test_corrupt_trailer_detected(self):
        codec = make_codec("state-dependent", m=3, n=5)
        blocks = payload.encode_bytes(codec, b"hi")
        with pytest.raises(ValueError):
            payload.decode_bytes(codec, blocks[:-1])

    def test_block_size_cap(self):
        class Fat:
            source_bits = 300

        with pytest.raises(ValueError):
            payload.encode_bytes(Fat(), b"")
