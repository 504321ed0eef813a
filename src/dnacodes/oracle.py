"""Brute-force ground truth by direct enumeration.

Counts come from a (longest run, weight) histogram of every word of a
sequence space: a depth-first visit lists every word of each half, and
a join pairs the halves' classes, merging the runs that meet at the
cut.  Block-code tables come from explicit lists of every constrained
word, and codec checks re-validate every emitted block with local
byte checks and against those tables.  Nothing in this module is imported
from the counting code, and the run/weight scanners and strand checks
are deliberate reimplementations rather than imports, so a bug in the
formulas cannot hide here.
"""

from __future__ import annotations

import random
import re
import time
from functools import lru_cache
from operator import add

SEARCH_CAP = 10**8
SOURCE_CAP = 2**20
_STREAM_SEED = 0x5EED
# Cut points of the random stream, so batches of one to hundreds of blocks
# each start after the strand before them.
_STREAM_CUTS = 20


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


def _half_classes(symbols, length: int) -> dict[tuple, int]:
    """Word counts of one length by class, from one visit of every word.

    A class is (first symbol, leading run, last symbol, trailing run,
    longest run, weight).  A depth-first walk hands each prefix's class
    down to its children.  The empty word has the one class
    (-1, 0, -1, 0, 0, 0); its symbols -1 equal no symbol, so it joins
    any half unchanged.
    """
    counts: dict[tuple, int] = {}

    def visit(depth: int, first: int, lead: int, last: int, run: int, best: int,
              weight: int) -> None:
        if depth == length:
            key = (first, lead, last, run, best, weight)
            counts[key] = counts.get(key, 0) + 1
            return
        for s, w in symbols:
            if s == last:
                end = run + 1
                # The leading run grows while the prefix is one run.
                visit(depth + 1, first, lead + (lead == depth), s, end,
                      end if end > best else best, weight + w)
            elif depth:
                visit(depth + 1, first, lead, s, 1, best, weight + w)
            else:
                visit(1, s, 1, s, 1, 1, w)

    visit(0, -1, 0, -1, 0, 0, 0)
    return counts


@lru_cache(maxsize=_HISTOGRAM_SLOTS)
def _run_weight_histogram(q: int, n: int) -> dict[tuple[int, int], int]:
    """(max run, weight) -> word count over the q**n words, from their two halves.

    Every word of the first n // 2 symbols and of the other n - n // 2
    is listed by _half_classes.  A word is a first half joined to a
    second: the counts multiply, the weights add, and the longest run is
    the larger of the halves' longest runs, or the trailing run plus the
    leading run where the facing symbols are equal.  So all pairs join
    from the halves' (longest run, weight) totals, and only pairs with
    equal facing symbols, one symbol at a time, are looked at for a run
    across the cut.  The result equals
    the per-word scan by _scan_max_run and _scan_weight, which stay as
    its reference.
    """
    if n < 0:
        raise ValueError("length must be at least 0")
    _check_space(q, n)
    symbols = tuple((s, _scan_weight(q, (s,))) for s in range(q))
    tail = _half_classes(symbols, n - n // 2)
    head = tail if n % 2 == 0 else _half_classes(symbols, n // 2)
    head_totals, ends = _fold_at_cut(
        (last, trail, best, weight, count)
        for (_, _, last, trail, best, weight), count in head.items()
    )
    tail_totals, starts = _fold_at_cut(
        (first, lead, best, weight, count)
        for (first, lead, _, _, best, weight), count in tail.items()
    )
    # Every pair first joins as if its facing symbols differed: the longest
    # run is the halves' larger one.
    hist: dict[tuple[int, int], int] = {}
    for (head_best, head_weight), head_count in head_totals.items():
        for (tail_best, tail_weight), tail_count in tail_totals.items():
            key = (head_best if head_best > tail_best else tail_best, head_weight + tail_weight)
            hist[key] = hist.get(key, 0) + head_count * tail_count
    # Where the facing symbols are equal, the runs at the cut merge; the
    # pairs whose merged run is longer than both halves' move to it.
    for symbol, group in ends.items():
        facing = starts.get(symbol, {}).items()
        for (trail, head_best, head_weight), head_count in group.items():
            for (lead, tail_best, tail_weight), tail_count in facing:
                run = trail + lead
                if run > head_best and run > tail_best:
                    count = head_count * tail_count
                    weight = head_weight + tail_weight
                    hist[head_best if head_best > tail_best else tail_best, weight] -= count
                    hist[run, weight] = hist.get((run, weight), 0) + count
    return {key: count for key, count in hist.items() if count}


def _fold_at_cut(rows) -> tuple[dict, dict]:
    """A half's word counts from (facing symbol, run at the cut, longest run, weight, count) rows.

    Returns the counts by (longest run, weight), and per facing symbol the
    counts by (run at the cut, longest run, weight).
    """
    totals: dict[tuple[int, int], int] = {}
    by_symbol: dict[int, dict[tuple, int]] = {}
    for symbol, run, best, weight, count in rows:
        totals[best, weight] = totals.get((best, weight), 0) + count
        group = by_symbol.setdefault(symbol, {})
        group[run, best, weight] = group.get((run, best, weight), 0) + count
    return totals, by_symbol


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
    from fractions import Fraction  # imported here: it loads decimal, which verify never needs

    if n < 1:
        raise ValueError("length must be at least 1")
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


def two_mode_tables(q: int, m: int, n: int):
    """Codeword tables of the two-mode code over q symbols: modes[mode][index].

    A word's mode is the half of the alphabet its first symbol lies in:
    the first bit for q = 2; G/C against A/T for q = 4, so the i-th
    words of the two modes pair G with A, then C with T.
    """
    words = constrained_words(q, m, n)
    if len(words) < 2 * q:
        raise ValueError(f"too few constrained words for a two-mode code (m={m}, n={n})")
    keep = 2 ** (_floor_log2(len(words)) - 1)
    firsts = [w[0] for w in words]
    assert len({firsts.count(s) for s in range(q)}) == 1, (
        "symbol relabeling must split the words evenly"
    )
    return _check_modes(tuple(
        tuple(w for w in words if w[0] // (q // 2) == mode)[:keep] for mode in (0, 1)
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
    # Each word's unbalance once: one removal order, filtered per state.
    removal_order = sorted(words, key=lambda w: (-abs(2 * _scan_weight(4, w) - n), w))
    modes = []
    for state in range(4):
        candidates = [w for w in words if w[0] != state]
        assert len(candidates) == capacity
        dropped = set([w for w in removal_order if w[0] != state][: len(candidates) - keep])
        modes.append(tuple(w for w in candidates if w not in dropped))
    return _check_modes(tuple(modes))


def _symbol_bytes(modes) -> tuple[tuple[bytes, ...], ...]:
    """Each mode's words as symbol bytes, converted once per table."""
    return tuple(tuple(map(bytes, mode)) for mode in modes)


def _two_mode_picker(modes):
    """codeword(index, state): the mode-0 word, or the mode-1 word where it starts with state."""
    first, second = _symbol_bytes(modes)

    def codeword(index: int, state):
        word = first[index]
        return second[index] if state is not None and word[0] == state else word

    return codeword


# Raw digits to the high plane's share of each symbol: 2 for a 1.
_TWICE_THE_DIGIT = bytes.maketrans(b"01", b"\x00\x02")


def _two_mode_codeword(m: int, n: int):
    """construction2: the two-mode table's word on the low plane, the raw bits high."""
    low_word = _two_mode_picker(two_mode_tables(2, m, n))
    width = f"0{n}b"

    def codeword(index: int, state):
        low = low_word(index >> n, None if state is None else state & 1)
        high = format(index & ((1 << n) - 1), width).encode("ascii").translate(_TWICE_THE_DIGIT)
        return bytes(map(add, low, high))

    return codeword


def _state_independent_codeword(m: int, n: int):
    return _two_mode_picker(two_mode_tables(4, m, n))


def _state_dependent_codeword(m: int, n: int):
    modes = _symbol_bytes(state_dependent_tables(m, n))
    by_state = {None: modes[0], **dict(enumerate(modes))}
    return lambda index, state: by_state[state][index]


# Ground truth of the table codes by registry name: TABLES[name](m, n) is
# codeword(index, state), the word, as symbol bytes, that the codec must
# emit for the source block whose bits read index after a block that ended
# in the symbol state (None: at stream start).
TABLES = {
    "construction2": _two_mode_codeword,
    "state-independent": _state_independent_codeword,
    "state-dependent": _state_dependent_codeword,
}


class BruteForceReport:
    """Outcome of one exhaustive validation run."""

    def __init__(self, codec_id: str, parameters: dict):
        self.codec_id = codec_id
        self.parameters = parameters
        self.cases = 0
        self.elapsed = 0.0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "pass" if self.ok else f"FAIL ({len(self.failures)} problems)"
        params = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
        return f"{self.codec_id}({params}): {status}, {self.cases} cases, {self.elapsed:.2f}s"


# The codecs' strand text is read back into symbols by a translation
# table of this module's own: each base to its symbol 0..3, any other byte
# to _NO_SYMBOL.
_BASES = b"GCAT"
_NO_SYMBOL = 4
_SYMBOL_OF_BYTE = bytes(_BASES.index(b) if b in _BASES else _NO_SYMBOL for b in range(256))


def _symbols(strand) -> bytes | None:
    """The symbol bytes of a strand's ASCII bytes, or None if it is not such bytes."""
    if not isinstance(strand, bytes):
        return None
    word = strand.translate(_SYMBOL_OF_BYTE)
    return None if _NO_SYMBOL in word else word


@lru_cache(maxsize=8)
def _run_pattern(max_run: int) -> re.Pattern:
    """A pattern that finds any symbol's run of max_run + 1 in symbol bytes."""
    return re.compile(b"|".join(bytes([s]) * (max_run + 1) for s in range(len(_BASES))))


def _has_run(word: bytes, max_run: int) -> bool:
    """Whether the symbol bytes hold a run longer than max_run."""
    return len(word) > max_run and _run_pattern(max_run).search(word) is not None


def _checker(codec, table, failures: list[str]):
    """check(index, digits, state, symbol): encode one block alone and name each check it fails.

    The block's index has the numeral digits, and it is encoded after a
    block that ended in the byte state, whose symbol is symbol (None at
    stream start).  Each problem goes to failures; check returns the
    strand, whether it passed, and the state it leaves: its last byte
    if it is nonempty GCAT bytes, else None.  What the checks read of
    the codec and its table is looked up once, here.
    """
    encode, decode = codec.encode_blocks, codec.decode_blocks
    n, bound = codec.oligo_len, codec.weight_bound
    runs = codec.max_run is not None
    has_run = _run_pattern(codec.max_run).search if runs else None

    def check(index: int, digits: bytes, state, symbol) -> tuple[bytes | None, bool, int | None]:
        try:
            strand = encode(digits, state)[0]
        except ValueError as exc:
            failures.append(f"encode refused: index={index} state={symbol}: {exc}")
            return None, False, None
        word = strand.translate(_SYMBOL_OF_BYTE) if isinstance(strand, bytes) else None
        if word is None or _NO_SYMBOL in word:
            problems, after = ["not uppercase GCAT bytes"], None
        else:
            problems, after = [], strand[-1] if word else None
            if len(word) != n:
                problems.append("length mismatch")
            if table is not None and word != table(index, symbol):
                problems.append("table mismatch")
            if runs and has_run(word):
                problems.append("run violation")
            if bound is not None and (
                abs(2 * (word.count(2) + word.count(3)) - len(word)) > 2 * bound
            ):
                problems.append("weight bound violated")
            if runs and word and word[0] == symbol:  # symbol is None at stream start
                problems.append("boundary violation")  # a run across the join
            try:
                decoded = decode([strand], state)
            except ValueError:
                decoded = None
            if decoded != digits:
                problems.append("round-trip failure")
        if problems:
            failures.extend(
                f"{problem}: index={index} state={symbol} strand={strand!r}" for problem in problems
            )
        return strand, not problems, after

    return check


def _cuts(rng: random.Random, size: int) -> list[tuple[int, int]]:
    """Seeded random (start, end) pieces that tile range(size), some of one block."""
    points = sorted(rng.sample(range(1, size), min(size - 1, _STREAM_CUTS))) if size > 1 else []
    return list(zip([0, *points], [*points, size]))


def validate_codec(name: str, **params) -> BruteForceReport:
    """Exhaustive round-trip and constraint re-validation of one registered codec.

    name and params are those of constructions.make_codec, plus
    stream_blocks.  The check reads only what the codec declares.  Every
    value of the source_bits - raw_bits coded bits goes with three fills
    of the raw bits (all 0, all 1, seeded random), and each block is
    encoded, as a batch of one (its numeral of source_bits digits,
    written once for all states), at stream start and, for a code that
    limits runs, after each last symbol.  Every strand must be uppercase
    GCAT bytes of the strand length, keep the declared run and weight
    bounds, decode back to its index, equal TABLES[name] where there is
    one, and, if runs are limited, not start with the state's symbol.
    These checks read the strand as symbol bytes, through one translate
    by this module's table: a run is a symbol repeated max_run + 1 times
    in them, the weight their count of 2s and 3s, and the table word is
    held as symbol bytes too.  One closure (_checker) runs them all, with
    what it reads of the codec looked up once.  Then a stream of
    random blocks goes through the batch methods, encoded and, at other
    cuts, decoded in seeded random pieces, each after the strand before
    it.  It must equal the blocks coded one at a time, each after the
    one before, pass the same checks, and keep the run bound across
    block joins.  A stream block whose (value, state) the sweep coded
    takes the sweep's strand and outcome rather than being coded again;
    it still counts one case, so the cases are those of coding it anew,
    and a problem is reported once; the count is taken once, from the
    sweep's size and the stream's strands.  An encode that refuses a valid
    index, alone or in a batch, and a batch encode that gives another
    number of strands than blocks are failures too.  Raises ValueError when
    stream_blocks is negative or the coded source space exceeds the
    exhaustive cap.
    """
    from .constructions import make_codec

    report = BruteForceReport(codec_id=name, parameters=dict(params))
    start = time.perf_counter()
    stream_blocks = params.pop("stream_blocks", 10_000)
    if stream_blocks < 0:
        raise ValueError(f"stream_blocks must be at least 0, not {stream_blocks}")
    codec = make_codec(name, **params)
    table = TABLES[name](**params) if name in TABLES else None
    k, raw = codec.source_bits, codec.raw_bits
    if 2 ** (k - raw) > SOURCE_CAP:
        raise ValueError(f"source space 2**{k - raw} exceeds the {SOURCE_CAP} cap")

    width = f"0{k}b"
    failures = report.failures
    check = _checker(codec, table, failures)
    # Each state byte with its symbol.
    states = [(None, None)]
    if codec.max_run is not None:
        states += [(state, _SYMBOL_OF_BYTE[state]) for state in _BASES]
    rng = random.Random(_STREAM_SEED)
    fills = dict.fromkeys((0, 2**raw - 1, rng.getrandbits(raw)))
    values = [rng.getrandbits(k) for _ in range(stream_blocks)]
    # The sweep's outcome for each (value, state) of a value the stream
    # codes, so the stream reads it rather than coding the block alone again.
    streamed = set(values)
    swept: dict[tuple, tuple] = {}
    for value in range(2 ** (k - raw)):
        for fill in fills:
            index = value << raw | fill
            digits = format(index, width).encode("ascii")
            for state, symbol in states:
                outcome = check(index, digits, state, symbol)
                if index in streamed:
                    swept[index, state] = outcome
    def state_before(strands: list, i: int):
        return strands[i - 1][-1] if 0 < i <= len(strands) and strands[i - 1] else None

    numerals = [format(value, width).encode("ascii") for value in values]
    strands: list = []
    for a, b in _cuts(rng, stream_blocks):
        try:
            strands += codec.encode_blocks(b"".join(numerals[a:b]), state_before(strands, a))
        except ValueError as exc:
            failures.append(f"batch encode refused blocks {a}..{b - 1}: {exc}")
            strands += [b""] * (b - a)  # no strand, so the blocks after keep their places
    decoded: list = []
    for a, b in _cuts(rng, stream_blocks):
        try:
            batch = codec.decode_blocks(strands[a:b], state_before(strands, a))
        except ValueError:
            batch = None
        if batch is not None and len(batch) == k * (b - a):
            decoded += [batch[i : i + k] for i in range(0, len(batch), k)]
        else:
            decoded += [None] * (b - a)
    if len(strands) != stream_blocks:
        failures.append(f"batch encode gave {len(strands)} strands for {stream_blocks}")
    # One case a block checked: each of the sweep, and each stream block that has a strand.
    report.cases = 2 ** (k - raw) * len(fills) * len(states) + min(stream_blocks, len(strands))
    state = None
    for value, digits, batch_strand, batch_digits in zip(values, numerals, strands, decoded):
        outcome = swept.get((value, state))
        if outcome is None:  # else checked, and any problem reported, in the sweep
            outcome = check(value, digits, state, None if state is None else _SYMBOL_OF_BYTE[state])
        strand, passed, state = outcome
        if passed and batch_strand != strand:
            failures.append(
                f"batch mismatch: index={value} strand={batch_strand!r}, alone {strand!r}"
            )
        elif passed and batch_digits != digits:
            failures.append(f"batch round-trip failure: index={value} strand={strand!r}")
    stream = b"".join(filter(None, map(_symbols, strands)))
    if codec.max_run is not None and _has_run(stream, codec.max_run):
        failures.append(f"stream run violation over {stream_blocks} blocks")

    report.elapsed = time.perf_counter() - start
    return report
