import functools
import itertools
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dnacodes import counting, oracle


@functools.lru_cache(maxsize=None)
def reference_weight_row(q, m, n):
    """The unpacked run-state recurrence, one list of counts per state.

    runs[c][r - 1][w] counts the words that end in one fixed symbol of
    class c (0 unweighted, 1 weighted) with a run of exactly r, and have
    weight w.  A step either extends a run, or starts a new one after any
    word that ends in a different symbol; a weighted symbol shifts the
    weight by one.
    """
    k = q // 2
    m = min(m, n)
    runs = [[[1, 0]] + [[0, 0]] * (m - 1), [[0, 1]] + [[0, 0]] * (m - 1)]
    for _ in range(n - 1):
        ends = [[sum(col) for col in zip(*states)] for states in runs]
        for c in (0, 1):
            start = [k * a + (k - 1) * b for a, b in zip(ends[1 - c], ends[c])]
            grown = [start] + runs[c][:-1]
            runs[c] = [[0] + s for s in grown] if c else [s + [0] for s in grown]
    return tuple(k * sum(col) for col in zip(*runs[0], *runs[1]))


def brute_quaternary_weight(n, w):
    """Direct filter, kept independent of the package internals."""
    return sum(
        1
        for word in itertools.product(range(4), repeat=n)
        if sum(1 for u in word if u >= 2) == w
    )


def binomial_counts(n):
    """Counts by AT-content of the length-n quaternary words, no run limit."""
    return counting.weight_profile("quaternary", None, n).counts


class TestBinomialWeightCount:
    def test_gc_only(self):
        assert binomial_counts(5)[0] == 32

    def test_small_brute_force(self):
        assert binomial_counts(2)[1] == brute_quaternary_weight(2, 1) == 8

    @pytest.mark.parametrize("n", range(1, 11))
    def test_total_identity(self, n):
        assert sum(binomial_counts(n)) == 4**n

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_counts(0)
        assert len(binomial_counts(3)) == 4  # weights 0..3 only


class TestNearBalancedCount:
    def test_all_admitted(self):
        assert counting.near_balanced_count(2, 0.6) == 16

    def test_single_weight(self):
        # only w=2 satisfies |w/4 - 1/2| < 0.2; brute force over 256 words
        brute = sum(
            1
            for word in itertools.product(range(4), repeat=4)
            if abs(sum(1 for u in word if u >= 2) / 4 - 0.5) < 0.2
        )
        assert counting.near_balanced_count(4, 0.2) == brute == 96

    def test_empty(self):
        assert counting.near_balanced_count(1, 0.1) == 0

    def test_boundary_modes(self):
        # w=1 and w=3 sit exactly on the bound at a=1/4
        assert counting.near_balanced_count(4, 0.25, "strict") == 96
        assert counting.near_balanced_count(4, 0.25, "inclusive") == 96 + 2 * 4 * 16

    def test_decimal_bound_is_exact(self):
        # 0.05 must behave as exactly 1/20: at n=20 the weights 9..11 are
        # inside only in inclusive mode.
        strict = counting.near_balanced_count(20, 0.05, "strict")
        inclusive = counting.near_balanced_count(20, 0.05, "inclusive")
        assert strict == binomial_counts(20)[10]
        assert inclusive == sum(binomial_counts(20)[w] for w in (9, 10, 11))

    def test_monotone_in_a(self):
        counts = [counting.near_balanced_count(9, a) for a in (0.0, 0.1, 0.2, 0.3, 0.5, 0.6)]
        assert counts == sorted(counts)
        assert counts[-1] == 4**9

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            counting.near_balanced_count(4, -0.1)


class TestAdmittedWeights:
    @pytest.mark.parametrize("boundary", counting.BOUNDARY_MODES)
    @pytest.mark.parametrize(
        "a",
        [0, 0.05, 0.1, 0.15, 1 / 3, 0.5, 1, 1e-05, 0.3333, 2.5, -0.0, 1e16, 3,
         Fraction(1, 7), Fraction(21, 40), True, Decimal("0.05"), Decimal("0.15")],
    )
    def test_integer_rule_matches_fraction_rule(self, a, boundary):
        bound = Fraction(str(a)) if isinstance(a, float) else Fraction(a)
        for n in range(1, 301):
            expected = []
            for w in range(n + 1):
                gap = abs(Fraction(w, n) - Fraction(1, 2))
                if gap < bound or (boundary == "inclusive" and gap == bound):
                    expected.append(w)
            assert counting.admitted_weights(n, a, boundary) == expected

    @pytest.mark.parametrize(
        "a,reason",
        [(math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite"),
         (-1e-300, "non-negative")],
    )
    def test_unreadable_float_bound_rejected(self, a, reason):
        with pytest.raises(ValueError, match=f"must be {reason}"):
            counting.admitted_weights(10, a)


@pytest.mark.parametrize("boundary", counting.BOUNDARY_MODES)
@pytest.mark.parametrize("a", [0, 0.05, 0.1, 0.25, 1 / 3, 0.5, 1e16])
def test_near_balanced_count_sums_binomials(a, boundary):
    for n in range(1, 301):
        counts = binomial_counts(n)
        assert counting.near_balanced_count(n, a, boundary) == sum(
            counts[w] for w in counting.admitted_weights(n, a, boundary)
        )


class TestBalanceRedundancy:
    def test_no_word_excluded(self):
        assert counting.balance_redundancy(2, 0.6) == 0.0

    def test_spot_value(self):
        assert counting.balance_redundancy(4, 0.2) == pytest.approx(8 - math.log2(96))

    def test_undefined(self):
        with pytest.raises(ValueError):
            counting.balance_redundancy(1, 0.1)


class TestRllCount:
    @pytest.mark.parametrize(
        "q,m,n,expected",
        [(4, 2, 10, 676836), (4, 3, 5, 996), (2, 1, 7, 2), (4, 1, 6, 972), (4, 20, 5, 1024)],
    )
    def test_known_values(self, q, m, n, expected):
        assert counting.rll_count(q, m, n) == expected
        assert counting.rll_count_gf(q, m, n) == expected

    def test_empty_word(self):
        assert counting.rll_count(4, 2, 0) == 1
        assert counting.rll_count_gf(4, 2, 0) == 1

    def test_gf_geometric_series(self):
        # m = 1: T = x, so 1/(1 - T) is all ones and alternating words count 2.
        # m >= n: T runs unbounded, and every binary word counts.
        for n in range(1, 30):
            assert counting.rll_count_gf(2, 1, n) == 2
            assert counting.rll_count_gf(2, n, n) == 2**n

    def test_binary_small_brute(self):
        # 8 binary triples minus 000 and 111
        assert counting.rll_count_gf(2, 2, 3) == 6

    def test_recurrence_matches_gf_on_grid(self):
        for q in (2, 4):
            for m in range(1, 5):
                for n in range(0, 12):
                    assert counting.rll_count(q, m, n) == counting.rll_count_gf(q, m, n)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            counting.rll_count(4, 0, 5)
        with pytest.raises(ValueError):
            counting.rll_count(1, 2, 5)
        with pytest.raises(ValueError):
            counting.rll_count(4, 2, -1)


def binary_count(m, w, n):
    """n-bit words with max run m and exactly w ones."""
    return counting.weight_profile("binary", m, n).counts[w]


def quaternary_count(m, w, n):
    """Quaternary length-n words with max run m and AT-content w."""
    return counting.weight_profile("quaternary", m, n).counts[w]


class TestWeightCounts:
    def test_alternating_only(self):
        assert binary_count(1, 2, 4) == 2

    def test_binary_brute_forced_cases(self):
        assert binary_count(2, 1, 2) == 2
        # exhaustive filter over 32 words: max run <= 3 and weight 2
        brute = sum(
            1
            for word in itertools.product((0, 1), repeat=5)
            if sum(word) == 2
            and max(len(list(g)) for _, g in itertools.groupby(word)) <= 3
        )
        assert binary_count(3, 2, 5) == brute == 10

    def test_quaternary_gc_pairs(self):
        assert quaternary_count(1, 0, 2) == 2

    def test_quaternary_total_example(self):
        assert counting.weight_profile("quaternary", 3, 5).total() == 996

    def test_all_at_words_are_binary_rll(self):
        assert quaternary_count(2, 3, 3) == counting.rll_count(2, 2, 3) == 6

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="maximum run must be at least 1"):
            counting.weight_profile("binary", 0, 4)
        with pytest.raises(ValueError, match="length must be at least 1"):
            counting.weight_profile("quaternary", 2, 0)
        assert len(counting.weight_profile("binary", 2, 4).counts) == 5  # weights 0..4 only

    @given(st.integers(1, 4), st.integers(1, 10), st.integers(0, 10))
    def test_binary_symmetry(self, m, n, w):
        w = min(w, n)
        assert binary_count(m, w, n) == binary_count(m, n - w, n)

    @given(st.integers(1, 4), st.integers(1, 9), st.integers(0, 9))
    def test_quaternary_symmetry(self, m, n, w):
        w = min(w, n)
        assert quaternary_count(m, w, n) == quaternary_count(m, n - w, n)


class TestWeightRowKernel:
    def test_hand_case(self):
        # w=0: GC, CG; w=1: one of A/T and one of G/C, in either order,
        # 2*2*2 = 8; w=2: AT, TA.
        assert counting._weight_row(4, 1, 2) == (2, 8, 2)

    @pytest.mark.parametrize("n", (200, 400))
    @pytest.mark.parametrize("q", (2, 4))
    def test_row_sum_is_rll_count(self, q, n):
        assert sum(counting._weight_row(q, 3, n)) == counting.rll_count(q, 3, n)

    @pytest.mark.parametrize("q,m,n", [(2, 2, 31), (4, 1, 20), (4, 3, 57)])
    def test_row_is_symmetric(self, q, m, n):
        counts = counting._weight_row(q, m, n)
        assert all(counts[w] == counts[n - w] for w in range(n + 1))

    @pytest.mark.parametrize("q,m,n", [(2, 5, 5), (2, 9, 4), (4, 6, 6), (4, 100, 7)])
    def test_unconstrained_when_m_reaches_n(self, q, m, n):
        scale = 2**n if q == 4 else 1
        assert counting._weight_row(q, m, n) == tuple(
            math.comb(n, w) * scale for w in range(n + 1)
        )

    def test_rejects_zero_run(self):
        with pytest.raises(ValueError):
            counting.weight_profile("quaternary", 0, 5)

    # A slot is a whole number of bytes, and grows by one at n = 6 and 62
    # for q = 2, and at n = 3 and 63 for q = 4.
    @pytest.mark.parametrize("n", (1, 2, 3, 6, 8, 9, 62, 63, 64, 65, 200, 400))
    @pytest.mark.parametrize("q", (2, 4))
    def test_matches_unpacked_recurrence(self, q, n):
        for m in (1, 2, 3, 5, n, n + 1):
            # The reference caps m at n too, so m = n + 1 reuses its row for m = n.
            assert counting._weight_row(q, m, n) == reference_weight_row(q, min(m, n), n)

    @settings(deadline=None)
    @given(st.sampled_from((2, 4)), st.integers(1, 5), st.integers(1, 7))
    def test_matches_brute_force(self, q, m, n):
        assert counting._weight_row(q, m, n) == tuple(
            oracle.brute_weight_count(q, m, w, n) for w in range(n + 1)
        )


class TestWeightProfile:
    def test_unconstrained_binomial_row(self):
        profile = counting.weight_profile("binary", None, 4)
        assert profile.counts == (1, 4, 6, 4, 1)

    def test_quaternary_example_total(self):
        assert counting.weight_profile("quaternary", 3, 5).total() == 996

    def test_binary_total(self):
        assert counting.weight_profile("binary", 2, 3).total() == 6

    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("n", range(1, 12))
    def test_profiles_sum_to_counts(self, m, n):
        assert counting.weight_profile("binary", m, n).total() == counting.rll_count(2, m, n)
        assert counting.weight_profile("quaternary", m, n).total() == counting.rll_count(
            4, m, n
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            counting.weight_profile("ternary", 2, 4)

    @pytest.mark.parametrize("n", (1, 4, 9))
    def test_unconstrained_quaternary_row(self, n):
        profile = counting.weight_profile("quaternary", None, n)
        assert profile.counts == tuple(math.comb(n, w) * 2**n for w in range(n + 1))
        assert profile.total() == 4**n


def _matrix_power_entry_sum(m: int, n: int) -> dict[tuple[int, int], int]:
    """Entry sum of D + D^2 + ... + D^n for the 4x4 run transfer matrix D.

    Polynomials are dicts {(length, weight): count}, truncated at length n.
    D[i][j] (i != j) is the run polynomial of symbol i: sum of x^r y^(r*b)
    for r = 1..m, with b = 1 for the weighted symbols 2 and 3 (A, T).
    Each word is counted once per choice of the free last index j, so the
    entry sum at length d is 3 times the weight row of length d.
    """

    def mul(f, g):
        h = {}
        for (a, b), u in f.items():
            for (c, d), v in g.items():
                if a + c <= n:
                    h[a + c, b + d] = h.get((a + c, b + d), 0) + u * v
        return h

    def add(*fs):
        h = {}
        for f in fs:
            for key, v in f.items():
                h[key] = h.get(key, 0) + v
        return h

    def run(i):
        return {(r, r if i >= 2 else 0): 1 for r in range(1, min(m, n) + 1)}

    d = [[{} if i == j else run(i) for j in range(4)] for i in range(4)]
    power = [[{(0, 0): 1} if i == j else {} for j in range(4)] for i in range(4)]
    total = {}
    for _ in range(n):
        power = [
            [add(*(mul(power[i][k], d[k][j]) for k in range(4))) for j in range(4)]
            for i in range(4)
        ]
        total = add(total, *(entry for row in power for entry in row))
    return total


def _entry_sum_row(total: dict[tuple[int, int], int], d: int) -> tuple[int, ...]:
    return tuple(total.get((d, w), 0) for w in range(d + 1))


@pytest.mark.parametrize("m,n", [(1, 4), (2, 5), (3, 6)])
def test_cumulative_entry_sum_matches_direct_powers(m, n):
    # The run-state kernel must agree with direct transfer-matrix powers.
    total = _matrix_power_entry_sum(m, n)
    for d in range(1, n + 1):
        fast = counting._weight_row(4, m, d)
        assert _entry_sum_row(total, d) == tuple(3 * c for c in fast)


def test_cumulative_entry_sum_hand_case():
    # m=1, length 2: the doubly-weighted path count is 3 * (2, 8, 2) by weight.
    assert _entry_sum_row(_matrix_power_entry_sum(1, 2), 2) == (6, 24, 6)
    assert counting._weight_row(4, 1, 2) == (2, 8, 2)
