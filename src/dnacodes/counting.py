"""Exact enumeration of constrained sequences.

All counts are exact Python ints: balance counts by binomial summation
over the admitted weights, run-length-limited counts by recurrence and,
as a cross-check, by generating-function coefficient extraction on plain
int lists, and combined weight-plus-run counts by one run-state
recurrence for both alphabets.  That recurrence tracks the class of the
last symbol (weighted AT/'1' or unweighted GC/'0') and its run length,
and packs each state's counts over all weights into one int, a slot per
weight, so a weighted symbol is one shift and a length-n row costs O(n)
big-int additions and shifts.
Everything here is a pure function; the cached weight rows are guarded
by functools.lru_cache and safe for concurrent use.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from functools import lru_cache

__all__ = [
    "WeightProfile",
    "admitted_weights",
    "balance_redundancy",
    "near_balanced_count",
    "rll_count",
    "rll_count_gf",
    "weight_profile",
]

BOUNDARY_MODES = ("strict", "inclusive")
# Alphabet size q of each kind of word: bits, or bases weighted by their AT-content.
ALPHABET_OF_KIND = {"binary": 2, "quaternary": 4}
KIND_OF_ALPHABET = {q: kind for kind, q in ALPHABET_OF_KIND.items()}


def alphabet_of(kind: str) -> int:
    """The alphabet size q of a kind of word, "binary" or "quaternary"."""
    q = ALPHABET_OF_KIND.get(kind)
    if q is None:
        raise ValueError(f"unknown kind {kind!r}")
    return q


def _bound_ratio(a) -> tuple[int, int]:
    """A relative-unbalance bound as ints (p, d) with p/d the bound.

    A float is read from its decimal repr, digits and exponent, so a
    bound written as 0.05 means exactly 1/20.  Any other number (int,
    bool, Fraction, Decimal) is read exactly by its as_integer_ratio().
    """
    if isinstance(a, float):
        if not math.isfinite(a):
            raise ValueError(f"unbalance bound must be finite, not {a!r}")
        mantissa, _, exponent = str(a).partition("e")
        whole, _, fraction = mantissa.partition(".")
        p = int(whole + fraction)
        shift = int(exponent or 0) - len(fraction)
        p, d = (p * 10**shift, 1) if shift >= 0 else (p, 10**-shift)
    else:
        p, d = a.as_integer_ratio()
    if p < 0:
        raise ValueError("unbalance bound must be non-negative")
    return p, d


def admitted_weights(n: int, a, boundary: str = "strict") -> list[int]:
    """Weights w with |w/n - 1/2| < a (strict) or <= a (inclusive).

    With a = p/d, |w/n - 1/2| < p/d is |2w - n| * d < 2n * p, so the
    largest admitted |2w - n| is an integer quotient, the reach, and the
    weights form the one range from (n - reach) / 2 to (n + reach) / 2,
    clipped to 0..n.
    """
    if n < 1:
        raise ValueError("length must be at least 1")
    if boundary not in BOUNDARY_MODES:
        raise ValueError(f"boundary must be one of {BOUNDARY_MODES}")
    p, d = _bound_ratio(a)
    if boundary == "inclusive":
        reach = 2 * n * p // d
    else:
        reach = (2 * n * p - 1) // d
    return list(range(max(0, (n - reach + 1) // 2), min(n, (n + reach) // 2) + 1))


def near_balanced_count(n: int, a, boundary: str = "strict") -> int:
    """Number of length-n quaternary words whose relative unbalance stays within a.

    The sum over the admitted weights of C(n, w) * 2**n: one binomial,
    each next one by the ratio (n - w) / (w + 1), and one shift by n.
    """
    weights = admitted_weights(n, a, boundary)
    total, c = 0, math.comb(n, weights[0]) if weights else 0
    for w in weights:
        total += c
        c = c * (n - w) // (w + 1)
    return total << n


def balance_redundancy(n: int, a, boundary: str = "strict") -> float:
    """Redundancy in bits, 2n - log2 of the near-balanced count."""
    count = near_balanced_count(n, a, boundary)
    if count == 0:
        raise ValueError(f"no weight satisfies the bound; redundancy undefined (n={n}, a={a})")
    return 2 * n - math.log2(count)


def _check_rll_args(q: int, m: int, n: int) -> None:
    if q < 2:
        raise ValueError("alphabet size must be at least 2")
    if m < 1:
        raise ValueError("maximum run must be at least 1")
    if n < 0:
        raise ValueError("length must be non-negative")


def rll_count(q: int, m: int, n: int) -> int:
    """Number of q-ary length-n words with every run of identical symbols <= m.

    Follows the recurrence: q**n for n <= m, and (q-1) times the sum of
    the previous m values beyond that; the empty word counts once.  The
    sum slides along, so a count costs O(n) additions and keeps m values.
    """
    _check_rll_args(q, m, n)
    if n <= m:
        return q**n
    window = deque(q**i for i in range(1, m + 1))  # lengths n-m+1..n so far
    total = sum(window)
    for _ in range(m + 1, n + 1):
        count = (q - 1) * total
        total += count - window.popleft()
        window.append(count)
    return window[-1]


def rll_count_gf(q: int, m: int, n: int) -> int:
    """Same count as rll_count, via coefficient extraction from q*T/(1-(q-1)*T).

    T = x + ... + x**m.  inverse[d] is the x**d coefficient of
    1/(1 - (q-1)*T) for d < n, and the x**n coefficient of q*T times it
    sums q * inverse[n - k] over the run lengths k.  Kept as an
    independent cross-check of the recurrence; both convolutions stop at
    degree min(m, n), so a huge m costs nothing.
    """
    _check_rll_args(q, m, n)
    if n == 0:
        return 1
    inverse = [1]
    for d in range(1, n):
        inverse.append((q - 1) * sum(inverse[d - k] for k in range(1, min(m, d) + 1)))
    return q * sum(inverse[n - k] for k in range(1, min(m, n) + 1))


@lru_cache(maxsize=128)
def _weight_row(q: int, m: int, n: int) -> tuple[int, ...]:
    """Counts over weight w of the q-ary (q = 2 or 4) length-n words with max run m.

    A state's counts over all weights are packed into one int: the count
    of weight w fills slot w, a whole number of bytes wide, and no count
    reaches q**n, so no slot carries into the next.  A weighted symbol
    shifts a packed state by one slot.  starts[c] holds, for the last m
    lengths, the words that end in a run of 1 of one fixed symbol of
    class c (0 unweighted, 1 weighted); the q/2 symbols of a class are
    interchangeable, so one symbol stands for all of them.  A new run
    starts after any word that ends in a different symbol.  ends0 and
    ends1 count the words that end in that symbol with any run up to m,
    and slide along as in rll_count: each word grows its run by one
    symbol, the start of m lengths back (now a run of m + 1) drops out,
    and the new start comes in.  So a row costs O(n) big-int additions
    and shifts, and is read out through one to_bytes.
    """
    if m < 1:
        raise ValueError("maximum run must be at least 1")
    k = q // 2
    m = min(m, n)
    width = ((q**n).bit_length() + 9) // 8  # bytes per slot, 2 bits to spare
    slot = 8 * width
    grown = (m - 1) * slot  # the shift of a weighted start grown by m - 1 symbols
    starts = (deque([0] * (m - 1) + [1]), deque([0] * (m - 1) + [1 << slot]))
    ends0, ends1 = starts[0][-1], starts[1][-1]
    for _ in range(n - 1):
        start0 = k * ends1 + (k - 1) * ends0
        start1 = (k * ends0 + (k - 1) * ends1) << slot
        ends0 += start0 - starts[0].popleft()
        ends1 = start1 + ((ends1 - (starts[1].popleft() << grown)) << slot)
        starts[0].append(start0)
        starts[1].append(start1)
    row = (k * (ends0 + ends1)).to_bytes((n + 1) * width, "little")
    return tuple(int.from_bytes(row[i : i + width], "little") for i in range(0, len(row), width))


class WeightProfile(namedtuple("WeightProfile", "kind m n counts")):
    """Counts of constrained words of one length, indexed by weight.

    Fields kind, m (None: no run limit), n and counts, the tuple of
    counts by weight.
    """

    __slots__ = ()

    def total(self) -> int:
        return sum(self.counts)


def weight_profile(kind: str, m: int | None, n: int) -> WeightProfile:
    """Full weight distribution for one family and length.

    kind is "binary" or "quaternary"; m=None drops the run constraint and
    yields the plain binomial row (scaled by 2**n for quaternary words).
    """
    if n < 1:
        raise ValueError("length must be at least 1")
    q = alphabet_of(kind)
    if m is None:
        counts = tuple(math.comb(n, w) * (q // 2) ** n for w in range(n + 1))
    else:
        counts = _weight_row(q, m, n)
    return WeightProfile(kind=kind, m=m, n=n, counts=counts)
