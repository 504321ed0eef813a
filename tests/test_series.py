import pytest
from hypothesis import given
import hypothesis.strategies as st

from dnacodes import counting
from dnacodes.series import TruncatedSeries

small_poly = st.lists(st.integers(-9, 9), min_size=1, max_size=8)


def test_univariate_basics():
    f = TruncatedSeries([1, 2, 3], 4)
    assert f.coefficient(1) == 2
    assert f.coefficient(4) == 0
    with pytest.raises(ValueError):
        f.coefficient(5)


def test_univariate_geometric_series():
    x = TruncatedSeries([0, 1], 10)
    inv = x.quasi_inverse()
    assert inv.coeffs == (1,) * 11  # 1/(1-x)


def test_quasi_inverse_needs_zero_constant():
    with pytest.raises(ValueError):
        TruncatedSeries([1, 1], 3).quasi_inverse()


@given(small_poly, small_poly, small_poly)
def test_univariate_distributive(a, b, c):
    n = 10
    fa, fb, fc = (TruncatedSeries(v, n) for v in (a, b, c))
    assert fa * (fb + fc) == fa * fb + fa * fc


@given(small_poly)
def test_univariate_quasi_inverse_identity(coeffs):
    n = 9
    f = TruncatedSeries([0] + coeffs, n)  # force f(0) = 0
    g = f.quasi_inverse()
    one = TruncatedSeries([1], n)
    assert (one - f) * g == one


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
