"""Brute-force ground truth by direct enumeration.

Counts come from odometer scans over whole sequence spaces, block-code
tables from explicit lists of every constrained word, and codec checks
re-validate every emitted block with local scanners and against those
tables.  Nothing in this module is imported from the counting code, and
the run/weight scanners are deliberate reimplementations rather than
imports, so a bug in the formulas cannot hide here.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

SEARCH_CAP = 10**8
SOURCE_CAP = 2**20
_STREAM_SEED = 0x5EED


def _scan_max_run(seq) -> int:
    best = 0
    cur = 0
    prev = None
    for s in seq:
        cur = cur + 1 if s == prev else 1
        prev = s
        if cur > best:
            best = cur
    return best


def _scan_weight(q: int, word) -> int:
    if q == 2:
        return sum(word)
    return sum(1 for u in word if u >= 2)


def _check_space(q: int, n: int) -> None:
    if q**n > SEARCH_CAP:
        raise ValueError(f"search space {q}**{n} exceeds the {SEARCH_CAP} word cap")


def _largest_length(q: int) -> int:
    n = 0
    while q ** (n + 1) <= SEARCH_CAP:
        n += 1
    return n


# One histogram per (q, n) that a scan may reach for the weight alphabets,
# so a grid over m and n scans each space once.
_HISTOGRAM_SLOTS = sum(_largest_length(q) for q in (2, 4))


@lru_cache(maxsize=_HISTOGRAM_SLOTS)
def _run_weight_histogram(q: int, n: int) -> dict[tuple[int, int], int]:
    """(max run, weight) -> word count, from one scan of all q**n words."""
    _check_space(q, n)
    hist: dict[tuple[int, int], int] = {}
    for word in itertools.product(range(q), repeat=n):
        key = (_scan_max_run(word), _scan_weight(q, word))
        hist[key] = hist.get(key, 0) + 1
    return hist


def brute_rll_count(q: int, m: int, n: int) -> int:
    """Count words with every run <= m by direct scan."""
    if q < 2 or m < 1 or n < 0:
        raise ValueError("need q >= 2, m >= 1, n >= 0")
    if n == 0:
        return 1
    hist = _run_weight_histogram(q, n)
    return sum(count for (run, _), count in hist.items() if run <= m)


def brute_weight_count(q: int, m: int, w: int, n: int) -> int:
    """Count words with max run <= m and weight exactly w by direct scan."""
    if q not in (2, 4):
        raise ValueError("weight scans support q in {2, 4}")
    if m < 1 or n < 1 or not 0 <= w <= n:
        raise ValueError("need m >= 1, n >= 1, 0 <= w <= n")
    hist = _run_weight_histogram(q, n)
    return sum(
        count for (run, weight), count in hist.items() if run <= m and weight == w
    )


def brute_balance_count(n: int, a, boundary: str = "strict") -> int:
    """Count quaternary words whose relative unbalance stays within a, by scan."""
    if boundary not in ("strict", "inclusive"):
        raise ValueError("boundary must be 'strict' or 'inclusive'")
    # Same decimal reading of the bound as the counting module, restated
    # here so this module needs nothing from it.
    bound = Fraction(str(a)) if isinstance(a, float) else Fraction(a)
    if bound < 0:
        raise ValueError("unbalance bound must be non-negative")
    hist = _run_weight_histogram(4, n)
    total = 0
    for (_, weight), count in hist.items():
        gap = abs(Fraction(weight, n) - Fraction(1, 2))
        if gap < bound or (boundary == "inclusive" and gap == bound):
            total += count
    return total


@lru_cache(maxsize=32)
def constrained_words(q: int, m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All q-ary length-n words with max run m, in lexicographic order."""
    _check_space(q, n)
    if n < 1:
        raise ValueError("length must be at least 1")
    if m < 1:
        raise ValueError("maximum run must be at least 1")
    words: list[tuple[int, ...]] = []
    word: list[int] = []

    def extend(last: int, run: int) -> None:
        if len(word) == n:
            words.append(tuple(word))
            return
        for s in range(q):
            new_run = run + 1 if s == last else 1
            if new_run > m:
                continue
            word.append(s)
            extend(s, new_run)
            word.pop()

    extend(-1, 0)
    return tuple(words)


def _floor_log2(value: int) -> int:
    return value.bit_length() - 1


def _check_modes(modes):
    size = len(modes[0])
    assert size & (size - 1) == 0, "mode size must be a power of two"
    for mode in modes:
        assert len(mode) == size, "modes must have equal sizes"
        assert len(set(mode)) == size, "duplicate codeword within a mode"
    return modes


def two_mode_tables(m: int, n: int):
    """Codeword tables of the binary two-mode code: modes[first bit][index]."""
    words = constrained_words(2, m, n)
    if len(words) < 4:
        raise ValueError(f"too few constrained words for a two-mode code (m={m}, n={n})")
    keep = 2 ** (_floor_log2(len(words)) - 1)
    return _check_modes(tuple(
        tuple(w for w in words if w[0] == first)[:keep] for first in (0, 1)
    ))


def state_independent_tables(m: int, n: int):
    """Codeword tables of the state-independent code: modes[representation][index]."""
    words = constrained_words(4, m, n)
    if len(words) < 8:
        raise ValueError(f"too few constrained words (m={m}, n={n})")
    keep = 2 ** (_floor_log2(len(words)) - 1)
    by_first = [[w for w in words if w[0] == s] for s in range(4)]
    assert len({len(group) for group in by_first}) == 1, (
        "symbol relabeling must split the words evenly"
    )
    pairs = list(zip(by_first[0], by_first[2])) + list(zip(by_first[1], by_first[3]))
    pairs = pairs[:keep]
    return _check_modes((
        tuple(p[0] for p in pairs),
        tuple(p[1] for p in pairs),
    ))


def state_dependent_tables(m: int, n: int):
    """Codeword tables of the state-dependent code: modes[state][index].

    Each state's table drops the words of highest |2w - n| first, ties in
    lexicographic order, down to a power of two.
    """
    words = constrained_words(4, m, n)
    capacity = len(words) - len(words) // 4
    if _floor_log2(capacity) < 1:
        raise ValueError(f"table too small for a useful code (m={m}, n={n})")
    keep = 2 ** _floor_log2(capacity)
    modes = []
    for state in range(4):
        candidates = [w for w in words if w[0] != state]
        assert len(candidates) == capacity
        removal_order = sorted(candidates, key=lambda w: (-abs(2 * _scan_weight(4, w) - n), w))
        dropped = set(removal_order[: len(candidates) - keep])
        modes.append(tuple(w for w in candidates if w not in dropped))
    return _check_modes(tuple(modes))


def table_codeword(codec_id: str, modes, index: int, state):
    """The word a table code emits for index after a block that ended in state."""
    if codec_id == "two_mode":
        return modes[0 if state in (None, 1) else 1][index]
    if codec_id == "state_independent":
        first_choice = modes[0][index]
        return first_choice if state is None or first_choice[0] != state else modes[1][index]
    return modes[0 if state is None else state][index]


TABLES = {
    "two_mode": two_mode_tables,
    "state_independent": state_independent_tables,
    "state_dependent": state_dependent_tables,
}


@dataclass
class BruteForceReport:
    """Outcome of one exhaustive validation run."""

    codec_id: str
    parameters: dict
    cases: int = 0
    elapsed: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "pass" if self.ok else f"FAIL ({len(self.failures)} problems)"
        params = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
        return f"{self.codec_id}({params}): {status}, {self.cases} cases, {self.elapsed:.2f}s"


def _all_sources(width: int):
    if 2**width > SOURCE_CAP:
        raise ValueError(f"source space 2**{width} exceeds the {SOURCE_CAP} cap")
    for value in range(2**width):
        yield tuple(value >> (width - 1 - i) & 1 for i in range(width))


def _alpha_gap(word) -> Fraction:
    w = sum(1 for u in word if u >= 2)
    return abs(Fraction(w, len(word)) - Fraction(1, 2))


def _validate_block_code(report, codec, m: int, states, stream_blocks: int, table=None):
    """Round-trip every (source, state), re-scan constraints, and stream-test.

    table(index, state), when given, is the word the codec must emit.
    """
    for index, bits in enumerate(_all_sources(codec.source_bits)):
        for state in states:
            word = codec.encode_block(bits, state)
            report.cases += 1
            if table is not None and tuple(word) != table(index, state):
                report.failures.append(f"table mismatch: bits={bits} state={state} word={word}")
            if _scan_max_run(word) > m:
                report.failures.append(f"run violation: bits={bits} state={state} word={word}")
            if state is not None and word[0] == state:
                report.failures.append(f"boundary violation: state={state} word={word}")
            if tuple(codec.decode_block(word, state)) != bits:
                report.failures.append(f"round-trip failure: bits={bits} state={state}")
    rng = random.Random(_STREAM_SEED)
    stream = []
    state = None
    sources = []
    for _ in range(stream_blocks):
        bits = tuple(rng.randrange(2) for _ in range(codec.source_bits))
        sources.append(bits)
        word = codec.encode_block(bits, state)
        stream.extend(word)
        state = word[-1]
    report.cases += stream_blocks
    if _scan_max_run(stream) > m:
        report.failures.append(f"stream run violation over {stream_blocks} blocks")
    state = None
    block_len = len(stream) // stream_blocks
    for i, bits in enumerate(sources):
        word = tuple(stream[i * block_len : (i + 1) * block_len])
        if tuple(codec.decode_block(word, state)) != bits:
            report.failures.append(f"stream decode failure at block {i}")
            break
        state = word[-1]


def _validate_balancer(report, encode, decode, width: int, weight_bound, out_len: int):
    for bits in _all_sources(width):
        out = encode(bits)
        report.cases += 1
        if len(out) != out_len:
            report.failures.append(f"length mismatch for {bits}")
        if abs(2 * sum(out) - out_len) > 2 * weight_bound:
            report.failures.append(f"weight bound violated: bits={bits} word={out}")
        if tuple(decode(out)) != bits:
            report.failures.append(f"round-trip failure for {bits}")


def validate_codec(codec_id: str, **params) -> BruteForceReport:
    """Exhaustive round-trip and constraint re-validation of one codec.

    Supported ids: two_mode, state_independent, state_dependent, knuth,
    weak_knuth, construction1, construction2.  Raises ValueError when the
    source space exceeds the exhaustive cap.
    """
    from . import balancing, blockcodes, constructions

    report = BruteForceReport(codec_id=codec_id, parameters=dict(params))
    start = time.perf_counter()
    stream_blocks = params.pop("stream_blocks", 10_000)

    if codec_id in TABLES:
        m, n = params.pop("m"), params.pop("n")
        codec_class, states = {
            "two_mode": (blockcodes.TwoModeRllCode, [None, 0, 1]),
            "state_independent": (blockcodes.StateIndependentCode, [None, 0, 1, 2, 3]),
            "state_dependent": (blockcodes.StateDependentCode, [None, 0, 1, 2, 3]),
        }[codec_id]
        codec = codec_class(m, n)
        modes = TABLES[codec_id](m, n)
        _validate_block_code(
            report, codec, m, states, stream_blocks,
            lambda index, state: table_codeword(codec_id, modes, index, state),
        )
    elif codec_id == "knuth":
        n = params.pop("n")
        balancer = balancing.KnuthBalancer(n)
        _validate_balancer(
            report, balancer.encode_word, balancer.decode_word, n, 0, balancer.output_bits
        )
    elif codec_id == "weak_knuth":
        n, p0 = params.pop("n"), params.pop("p0")
        balancer = balancing.WeakKnuthBalancer(n, p0)
        _validate_balancer(
            report,
            balancer.encode_word,
            balancer.decode_word,
            n,
            balancer.weight_bound,
            balancer.output_bits,
        )
    elif codec_id == "construction1":
        codec = constructions.make_codec(codec_id, **params)
        bound = Fraction(codec.weight_bound, codec.oligo_len)
        # The strand's unbalance depends only on the balanced plane, so
        # exhaust the balancer inputs and vary the payload plane separately.
        rng = random.Random(_STREAM_SEED)
        ell, n = codec.balancer.data_bits, codec.oligo_len
        payloads = [
            (0,) * n,
            (1,) * n,
            tuple(rng.randrange(2) for _ in range(n)),
        ]
        for data in _all_sources(ell):
            for payload in payloads:
                bits = data + payload
                word = codec.encode_block(bits)
                report.cases += 1
                if _alpha_gap(word) > bound:
                    report.failures.append(f"unbalance bound violated for {bits}")
                if tuple(codec.decode_block(word)) != bits:
                    report.failures.append(f"round-trip failure for {bits}")
    elif codec_id == "construction2":
        codec = constructions.make_codec(codec_id, **params)
        _validate_block_code(report, codec, codec.m, [None, 0, 1, 2, 3], stream_blocks)
    else:
        raise ValueError(f"unknown codec id {codec_id!r}")

    report.elapsed = time.perf_counter() - start
    return report
