import itertools
import json
import pathlib
import re
from functools import partial

import pytest

from dnacodes import cli, constructions, counting, oracle
from dnacodes.blockcodes import StateIndependentCode


class _Broken:
    """StateIndependentCode(3, 5) with one fault in its batch encode."""

    def __init__(self, fault):
        self._code = code = StateIndependentCode(3, 5)
        self._fault = fault
        self.source_bits, self.oligo_len, self.raw_bits = code.source_bits, code.oligo_len, 0
        self.max_run, self.weight_bound = code.max_run, code.weight_bound

    def encode_blocks(self, digits, state=None):
        k, fault = self.source_bits, self._fault
        blocks = [digits[i : i + k] for i in range(0, len(digits), k)]
        if fault == "refuses-index-0" and b"0" * k in blocks:
            raise ValueError("index 0 refused")
        if fault == "refuses-batches" and len(blocks) > 1:
            raise ValueError("batch refused")
        strands = self._code.encode_blocks(digits, state)
        if fault == "wrong-length":
            return [strand[:-1] for strand in strands]
        if fault == "first-base-is-the-state" and state is not None:
            return [bytes([state]) + strands[0][1:], *strands[1:]]
        if len(strands) > 1:  # a batch of one keeps its length
            if fault == "short-batch":
                return strands[:-1]
            if fault == "long-batch":
                return strands + strands[-1:]
        return strands

    def decode_blocks(self, strands, state=None):
        return self._code.decode_blocks(strands, state)


class TestBruteCounts:
    @pytest.mark.parametrize(
        "q,m,n,expected", [(4, 3, 5, 996), (2, 1, 7, 2), (4, 1, 4, 108)]
    )
    def test_rll_values(self, q, m, n, expected):
        assert oracle.brute_rll_count(q, m, n) == expected

    def test_weight_values(self):
        assert oracle.brute_weight_count(2, 1, 2, 4) == 2
        assert oracle.brute_weight_count(4, 1, 0, 2) == 2  # GC and CG

    def test_weight_sum_matches_total(self):
        total = sum(oracle.brute_weight_count(4, 3, w, 5) for w in range(6))
        assert total == oracle.brute_rll_count(4, 3, 5) == 996

    def test_balance_values(self):
        assert oracle.brute_balance_count(4, 0.2) == 96
        assert oracle.brute_balance_count(2, 0.6) == 16
        assert oracle.brute_balance_count(4, 0.25, "inclusive") == 224

    def test_refusal_on_large_space(self):
        with pytest.raises(ValueError, match="cap"):
            oracle.brute_rll_count(4, 3, 20)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            oracle.brute_rll_count(1, 1, 3)
        with pytest.raises(ValueError):
            oracle.brute_weight_count(3, 1, 0, 3)
        for n in (0, -1):  # the same refusal as counting.near_balanced_count
            with pytest.raises(ValueError, match="length must be at least 1"):
                oracle.brute_balance_count(n, 0.1)
        with pytest.raises(ValueError, match="length"):
            oracle._run_weight_histogram.__wrapped__(4, -1)

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: oracle.brute_weight_count(4, 3, 11, 10), "need m >= 1, n >= 1, 0 <= w <= n"),
            (lambda: oracle.brute_balance_count(5, 0.1, "open"),
             "boundary must be 'strict' or 'inclusive'"),
            (lambda: oracle.brute_balance_count(5, -0.1), "unbalance bound must be non-negative"),
            (lambda: oracle.constrained_words(4, 3, 0), "length must be at least 1"),
            (lambda: oracle.constrained_words(4, 0, 3), "maximum run must be at least 1"),
            (lambda: oracle.validate_codec("state-dependent", m=3, n=5, stream_blocks=-1),
             "stream_blocks must be at least 0, not -1"),
        ],
        ids=["weight-past-length", "balance-boundary", "balance-negative-bound", "words-length-0",
             "words-run-0", "negative-stream"],
    )
    def test_refusal_texts(self, call, message):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message


def _per_word_histogram(q, n):
    hist = {}
    for word in itertools.product(range(q), repeat=n):
        key = (oracle._scan_max_run(word), oracle._scan_weight(q, word))
        hist[key] = hist.get(key, 0) + 1
    return hist


class TestRunWeightHistogram:
    @pytest.mark.parametrize("q", (2, 3, 4, 5))
    def test_split_scan_matches_the_per_word_scan(self, q):
        # Odd and even n, and n in {0, 1} where a half is empty.
        n = 0
        while q**n <= 7 * 10**4:
            scan = oracle._run_weight_histogram.__wrapped__(q, n)  # past the cache
            assert scan == _per_word_histogram(q, n), (q, n)
            n += 1


class TestFormulaAgreement:
    @pytest.mark.parametrize("q", (2, 4))
    def test_counts_and_weights_small_grid(self, q):
        kind = "binary" if q == 2 else "quaternary"
        for m in range(1, 5):
            for n in range(1, 9):
                assert oracle.brute_rll_count(q, m, n) == counting.rll_count(q, m, n)
                profile = counting.weight_profile(kind, m, n)
                for w in range(n + 1):
                    assert profile.counts[w] == oracle.brute_weight_count(q, m, w, n)

    def test_balance_grid(self):
        for n in range(1, 9):
            for a in (0.05, 0.1, 0.2, 0.3, 0.5):
                for boundary in ("strict", "inclusive"):
                    assert oracle.brute_balance_count(n, a, boundary) == (
                        counting.near_balanced_count(n, a, boundary)
                    )


# The codecs and parameters that `dnacodes verify` checks.
VERIFIED_CODECS = [
    ("construction2", {"m": 2, "n": 6}),
    ("state-independent", {"m": 3, "n": 5}),
    ("state-dependent", {"m": 3, "n": 5}),
    ("construction1", {"ell": 10, "balancer": "weak-knuth", "p0": 2}),
]


class TestByteChecks:
    @pytest.mark.parametrize("m", range(1, 5))
    def test_run_check_matches_the_scan(self, m):
        for n in range(8):
            for word in itertools.product(range(4), repeat=n):
                assert oracle._has_run(bytes(word), m) == (oracle._scan_max_run(word) > m), word

    def test_symbols_refuse_any_byte_that_is_no_uppercase_base(self):
        assert oracle._symbols(b"GCAT") == bytes([0, 1, 2, 3])
        assert oracle._symbols(b"") == b""
        for byte in set(range(256)) - set(b"GCAT"):
            assert oracle._symbols(b"GC" + bytes([byte])) is None
        assert oracle._symbols("GCAT") is None


class TestValidateCodec:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("construction2", {"m": 2, "n": 6}),
            ("state-independent", {"m": 3, "n": 5}),
            ("state-dependent", {"m": 3, "n": 5}),
            ("construction1", {"ell": 8}),
            ("construction1", {"ell": 10, "balancer": "weak-knuth", "p0": 2}),
            ("construction1", {"ell": 8, "balancer": "weak-knuth", "p0": 2}),
            ("construction2", {"m": 3, "n": 5}),
        ],
        ids=["construction2-m2n6", "state-independent", "state-dependent", "construction1-knuth",
             "construction1-weak-ell10", "construction1-weak-ell8", "construction2-m3n5"],
    )
    def test_all_pass(self, name, params):
        report = oracle.validate_codec(name, stream_blocks=300, **params)
        assert report.ok, report.failures[:5]
        assert report.cases > 0
        assert "pass" in report.summary()

    def test_state_dependent_example_case_count(self):
        report = oracle.validate_codec("state-dependent", m=3, n=5, stream_blocks=100)
        # 512 sources x (4 states + stream start), plus the stream blocks
        assert report.cases == 512 * 5 + 100

    def test_raw_bits_take_three_fills(self):
        report = oracle.validate_codec("construction2", m=2, n=6, stream_blocks=10)
        # 8 coded values x 3 raw fills x (4 states + stream start), plus the stream
        assert report.cases == 8 * 3 * 5 + 10
        report = oracle.validate_codec("construction1", ell=8, stream_blocks=10)
        # 256 balancer inputs x 3 raw fills, at stream start only: no run bound
        assert report.cases == 256 * 3 + 10

    def test_unknown_codec(self):
        with pytest.raises(ValueError):
            oracle.validate_codec("rot13")

    def test_source_cap(self):
        with pytest.raises(ValueError, match="cap"):
            oracle.validate_codec("construction1", ell=22)

    def test_catches_a_swapped_two_mode_entry(self, monkeypatch):
        modes = oracle.two_mode_tables(2, 2, 6)
        swapped = (modes[0][1], modes[0][0]) + modes[0][2:]
        monkeypatch.setattr(oracle, "two_mode_tables", lambda q, m, n: (swapped, modes[1]))
        report = oracle.validate_codec("construction2", m=2, n=6, stream_blocks=10)
        assert report.failures
        assert all(f.startswith("table mismatch") for f in report.failures)

    def test_catches_a_balancer_one_past_its_weight_bound(self, monkeypatch):
        from dnacodes.balancing import KnuthBalancer

        encode_blocks = KnuthBalancer.encode_blocks

        def off_by_one(self, digits, state=None):
            return [  # |2w - n| = 2, the bound is 0
                word[:-1] + (b"0" if word.endswith(b"1") else b"1")
                for word in encode_blocks(self, digits, state)
            ]

        monkeypatch.setattr(KnuthBalancer, "encode_blocks", off_by_one)
        report = oracle.validate_codec("construction1", ell=8, stream_blocks=10)
        assert any(f.startswith("weight bound violated") for f in report.failures)


    def test_catches_strands_that_are_not_uppercase_bases(self, monkeypatch):
        encode_blocks = StateIndependentCode.encode_blocks

        def lower_case(self, digits, state=None):
            return [strand.lower() for strand in encode_blocks(self, digits, state)]

        monkeypatch.setattr(StateIndependentCode, "encode_blocks", lower_case)
        report = oracle.validate_codec("state-independent", m=3, n=5, stream_blocks=10)
        assert report.failures
        assert all(f.startswith("not uppercase GCAT bytes") for f in report.failures)

    @pytest.mark.parametrize("name,params", VERIFIED_CODECS, ids=[n for n, _ in VERIFIED_CODECS])
    def test_codes_through_the_batch_methods_only(self, monkeypatch, name, params):
        from dnacodes.blockcodes import BlockCode

        def single_block(*args, **kwargs):
            raise AssertionError("a single-block method was called")

        monkeypatch.setattr(BlockCode, "encode_block", single_block)
        monkeypatch.setattr(BlockCode, "decode_block", single_block)
        report = oracle.validate_codec(name, stream_blocks=100, **params)
        assert report.ok, report.failures[:5]

    def test_catches_a_run_within_a_strand(self, monkeypatch):
        from dnacodes.blockcodes import StateDependentCode

        encode_blocks = StateDependentCode.encode_blocks

        def long_run(self, digits, state=None):  # the first symbol four times: m = 3
            return [s[:1] * 4 + s[4:] for s in encode_blocks(self, digits, state)]

        monkeypatch.setattr(StateDependentCode, "encode_blocks", long_run)
        report = oracle.validate_codec("state-dependent", m=3, n=5, stream_blocks=10)
        assert any(f.startswith("run violation") for f in report.failures)

    def test_catches_a_run_across_a_join(self, monkeypatch):
        from dnacodes.blockcodes import StateDependentCode

        encode_blocks = StateDependentCode.encode_blocks

        def restarts(self, digits, state=None):  # a batch of one keeps its state
            k = self.source_bits
            if len(digits) == k:
                return encode_blocks(self, digits, state)
            return [encode_blocks(self, digits[i : i + k], None)[0]
                    for i in range(0, len(digits), k)]

        monkeypatch.setattr(StateDependentCode, "encode_blocks", restarts)
        report = oracle.validate_codec("state-dependent", m=3, n=5, stream_blocks=1000)
        assert "stream run violation over 1000 blocks" in report.failures


    @pytest.mark.parametrize(
        "fault,expected",
        [
            ("wrong-length", "length mismatch"),
            ("first-base-is-the-state", "boundary violation"),
            ("short-batch", r"batch encode gave 1\d\d strands for 200$"),
            ("long-batch", r"batch encode gave 2\d\d strands for 200$"),
            ("refuses-index-0", "encode refused: index=0 state=None: index 0 refused"),
            ("refuses-batches", r"batch encode refused blocks \d+\.\.\d+: batch refused$"),
        ],
        ids=["wrong-length", "first-base-is-the-state", "short-batch", "long-batch",
             "refuses-index-0", "refuses-batches"],
    )
    def test_catches_a_broken_registered_codec(self, monkeypatch, fault, expected):
        monkeypatch.setitem(constructions.CODECS, "broken", lambda m, n: _Broken(fault))
        report = oracle.validate_codec("broken", m=3, n=5, stream_blocks=200)
        assert any(re.match(expected, f) for f in report.failures), report.failures[:5]

    def test_verify_fails_on_a_codec_that_refuses_a_valid_index(self, monkeypatch, capsys):
        monkeypatch.setitem(constructions.CODECS, "state-independent",
                            lambda m, n: _Broken("refuses-index-0"))
        code = cli.main(["verify", "--m-max", "1", "--n-max", "2", "--stream-blocks", "50"])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert out[-1] == "verify: FAIL (1)"
        assert "  encode refused: index=0 state=None: index 0 refused" in out

    @pytest.mark.parametrize("method", ["encode_blocks", "decode_blocks"])
    def test_catches_a_codec_that_drops_state_between_batches(self, monkeypatch, method):
        from dnacodes.blockcodes import StateDependentCode

        batch = getattr(StateDependentCode, method)

        def drops_state(self, items, state=None):  # a batch of one keeps it
            blocks = len(items) // self.source_bits if method == "encode_blocks" else len(items)
            return batch(self, items, state if blocks == 1 else None)

        monkeypatch.setattr(StateDependentCode, method, drops_state)
        report = oracle.validate_codec("state-dependent", m=3, n=5, stream_blocks=200)
        assert report.failures
        kinds = {f.split(":")[0] for f in report.failures}
        expected = ({"batch mismatch", "stream run violation over 200 blocks"}
                    if method == "encode_blocks" else {"batch round-trip failure"})
        assert kinds <= expected and kinds & expected


class TestConstrainedWords:
    @pytest.mark.parametrize("q,m,n", [(2, 2, 6), (4, 1, 4), (4, 3, 5)])
    def test_matches_brute_enumeration(self, q, m, n):
        words = [
            w for w in itertools.product(range(q), repeat=n)
            if max(len(list(g)) for _, g in itertools.groupby(w)) <= m
        ]
        assert list(oracle.constrained_words(q, m, n)) == words

    def test_size_cap(self):
        with pytest.raises(ValueError):
            oracle.constrained_words(4, 3, 15)

    @pytest.mark.parametrize(
        "tables",
        [partial(oracle.two_mode_tables, 2), oracle.state_dependent_tables,
         partial(oracle.two_mode_tables, 4)],
        ids=["construction2", "state-dependent", "state-independent"],
    )
    def test_tables_are_power_of_two_prefixes(self, tables):
        modes = tables(3, 6)
        size = len(modes[0])
        assert size & (size - 1) == 0
        assert all(len(mode) == size == len(set(mode)) for mode in modes)

    @pytest.mark.parametrize("q", [2, 4])
    @pytest.mark.parametrize("m,n", itertools.product((2, 3), (3, 4, 5, 6)))
    def test_two_mode_tables_match_the_per_alphabet_definitions(self, q, m, n):
        words = oracle.constrained_words(q, m, n)
        keep = 2 ** (len(words).bit_length() - 2)
        by_first = [[w for w in words if w[0] == s] for s in range(q)]
        if q == 2:  # the modes split on the first bit
            modes = (tuple(by_first[0][:keep]), tuple(by_first[1][:keep]))
        else:  # the i-th G-word pairs with the i-th A-word, then C-words with T-words
            pairs = [*zip(by_first[0], by_first[2]), *zip(by_first[1], by_first[3])][:keep]
            modes = (tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))
        assert oracle.two_mode_tables(q, m, n) == modes

    def test_validate_codec_catches_a_table_mismatch(self, monkeypatch):
        modes = oracle.state_dependent_tables(3, 5)
        swapped = (modes[0][1], modes[0][0]) + modes[0][2:]
        monkeypatch.setattr(
            oracle, "state_dependent_tables", lambda m, n: (swapped,) + modes[1:]
        )
        report = oracle.validate_codec("state-dependent", m=3, n=5, stream_blocks=10)
        assert any("table mismatch" in f for f in report.failures)


class TestHistogramCache:
    def test_verify_grid_scans_each_space_once(self, capsys):
        from dnacodes import cli

        oracle._run_weight_histogram.cache_clear()
        assert cli.main(["verify", "--m-max", "3", "--n-max", "10", "--stream-blocks", "10"]) == 0
        info = oracle._run_weight_histogram.cache_info()
        assert info.misses == len({(q, n) for q in (2, 4) for n in range(1, 11)})
        assert info.currsize == info.misses


def _wrap_method(cls, method, fault):
    """A patch that replaces cls.method by fault(self, original, items, state)."""
    original = getattr(cls, method)

    def patch(monkeypatch):
        monkeypatch.setattr(cls, method, lambda self, items, state=None: fault(
            self, original, items, state))

    return patch


def _swap_first_two(tables_name, factory):
    """A patch that swaps the first two words of mode 0 in one of the oracle's tables."""

    def patch(monkeypatch):
        modes = factory()
        swapped = ((modes[0][1], modes[0][0]) + modes[0][2:],) + modes[1:]
        monkeypatch.setattr(oracle, tables_name, lambda *args: swapped)

    return patch


def _broken(fault, name="broken"):
    """A patch that registers _Broken(fault) under name."""

    def patch(monkeypatch):
        monkeypatch.setitem(constructions.CODECS, name, lambda m, n: _Broken(fault))

    return patch


def _restarts(self, encode, digits, state):  # a batch of one keeps its state
    k = self.source_bits
    if len(digits) == k:
        return encode(self, digits, state)
    return [encode(self, digits[i : i + k], None)[0] for i in range(0, len(digits), k)]


def _drops_state(method):
    def fault(self, batch, items, state):  # a batch of one keeps it
        blocks = len(items) // self.source_bits if method == "encode_blocks" else len(items)
        return batch(self, items, state if blocks == 1 else None)

    return fault


def _no_patch(monkeypatch):
    pass


def _pinned_cases():
    """Each pinned report's id: (codec name, parameters with stream_blocks, patch).

    The four codecs of `dnacodes verify` with its stream, and every fault
    that the tests above inject into validate_codec.
    """
    from dnacodes.balancing import KnuthBalancer
    from dnacodes.blockcodes import StateDependentCode

    m3n5 = {"m": 3, "n": 5}
    cases = {
        f"verify-{name}": (name, {**params, "stream_blocks": 1000}, _no_patch)
        for name, params in VERIFIED_CODECS
    }
    cases |= {
        "swapped-two-mode-entry": (
            "construction2", {"m": 2, "n": 6, "stream_blocks": 10},
            _swap_first_two("two_mode_tables", lambda: oracle.two_mode_tables(2, 2, 6))),
        "swapped-state-dependent-entry": (
            "state-dependent", {**m3n5, "stream_blocks": 10},
            _swap_first_two("state_dependent_tables", lambda: oracle.state_dependent_tables(3, 5))),
        "balancer-one-past-its-weight-bound": (
            "construction1", {"ell": 8, "stream_blocks": 10},
            _wrap_method(KnuthBalancer, "encode_blocks", lambda self, encode, digits, state: [
                word[:-1] + (b"0" if word.endswith(b"1") else b"1")
                for word in encode(self, digits, state)])),
        "lower-case-strands": (
            "state-independent", {**m3n5, "stream_blocks": 10},
            _wrap_method(StateIndependentCode, "encode_blocks",
                         lambda self, encode, digits, state: [
                             strand.lower() for strand in encode(self, digits, state)])),
        "run-within-a-strand": (
            "state-dependent", {**m3n5, "stream_blocks": 10},
            _wrap_method(StateDependentCode, "encode_blocks", lambda self, encode, digits, state: [
                s[:1] * 4 + s[4:] for s in encode(self, digits, state)])),
        "run-across-a-join": (
            "state-dependent", {**m3n5, "stream_blocks": 1000},
            _wrap_method(StateDependentCode, "encode_blocks", _restarts)),
        "verify-refuses-index-0": (
            "state-independent", {**m3n5, "stream_blocks": 50},
            _broken("refuses-index-0", "state-independent")),
    }
    cases |= {
        f"broken-{fault}": ("broken", {"m": 3, "n": 5, "stream_blocks": 200}, _broken(fault))
        for fault in ("wrong-length", "first-base-is-the-state", "short-batch", "long-batch",
                      "refuses-index-0")
    }
    cases |= {
        f"drops-state-in-{method}": (
            "state-dependent", {**m3n5, "stream_blocks": 200},
            _wrap_method(StateDependentCode, method, _drops_state(method)))
        for method in ("encode_blocks", "decode_blocks")
    }
    return cases


def _pinned_report(case):
    name, params, patch = _pinned_cases()[case]
    with pytest.MonkeyPatch.context() as monkeypatch:
        patch(monkeypatch)
        report = oracle.validate_codec(name, **params)
    return {"cases": report.cases, "failures": report.failures}


_PINNED_FILE = pathlib.Path(__file__).with_name("validate_reports.json")


class TestPinnedReports:
    """validate_codec's case counts and failure texts, in order, as in validate_reports.json.

    Rewrite the file, only when a check is meant to change, with
    `PYTHONPATH=src python tests/test_oracle.py`.
    """

    @pytest.fixture(scope="class")
    def recorded(self):
        return json.loads(_PINNED_FILE.read_text("ascii"))

    def test_every_case_is_recorded(self, recorded):
        assert set(recorded) == set(_pinned_cases())

    @pytest.mark.parametrize("case", sorted(_pinned_cases()))
    def test_report_matches_the_recording(self, recorded, case):
        assert _pinned_report(case) == recorded[case]


if __name__ == "__main__":
    _PINNED_FILE.write_text(
        json.dumps({case: _pinned_report(case) for case in sorted(_pinned_cases())}, indent=0)
        + "\n", "ascii")
