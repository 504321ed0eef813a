"""Capacities, growth coefficients, Gaussian weight models, and redundancies.

The dominant root of the run-length characteristic equation drives
everything here: capacity, the leading coefficient of the count
asymptote, and the closed-form weight-variance factor gamma(kind, m),
read from the run sum T(x) = x + ... + x**m and its derivatives at the
root's reciprocal.  All quantities are 64-bit floats; exact counts are
folded in through log2 so nothing overflows: count estimates are
computed as log2 (the log2_* forms), and the one plain count estimate,
rll_count_approx, reads inf once the count leaves the float range.
Pure functions throughout.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import lru_cache
from itertools import takewhile

from . import counting

__all__ = [
    "CapacityResult",
    "GaussianApprox",
    "balance_penalty",
    "capacity",
    "combined_redundancy",
    "efficiency_eta",
    "gamma",
    "gaussian_weight_model",
    "leading_coefficient",
    "log2_balance_count_approx",
    "q_function",
    "rll_count_approx",
    "rll_redundancy",
]

_NEWTON_CAP = 200
# Largest binary exponent kept clear of float overflow (max is about 2**1024).
_FLOAT_EXP_LIMIT = 1000


class CapacityResult(namedtuple("CapacityResult", "q m lam capacity_bits residual")):
    """Dominant root and capacity of the max-run-m q-ary constraint.

    Fields q, m, lam (the root), capacity_bits (log2 lam) and residual,
    |lam**(m+1) - q*lam**m + q - 1| / lam**m evaluated exactly: about
    the root's absolute error, whatever q**m is.
    """

    __slots__ = ()


def _char_residual(q: int, m: int, x: float) -> float:
    """Exact-rational evaluation of (x**(m+1) - q*x**m + q - 1) / x**m at a float point.

    Dividing by x**m makes the residual scale-free: its slope in x is
    1 - m*(q-1)/x**(m+1), at most 1, so it reads about the root's
    absolute error rather than growing with q**m.  With x = u/v exactly,
    the value is (u**(m+1) - q*v*u**m + (q-1)*v**(m+1)) / (v*u**m), and
    int true division rounds that quotient correctly.
    """
    u, v = x.as_integer_ratio()
    power = u**m
    return (u * power - q * v * power + (q - 1) * v ** (m + 1)) / (v * power)


def _check_length(n: int) -> None:
    """ValueError for a length below 1 or beyond the float range."""
    if n < 1:
        raise ValueError("length must be at least 1")
    if n > sys.float_info.max:
        raise ValueError(f"length n={n} is beyond the float range")


def _deflated(q: int, m: int, x: float) -> tuple[float, float]:
    """The characteristic factor without the root at 1, and its slope, at x.

    The factor is x**m - (q-1)*(x**(m-1) + ... + 1); one Horner loop gives both.
    """
    acc = 1.0
    d = 0.0
    for _ in range(m):
        d = d * x + acc
        acc = acc * x - (q - 1)
    return acc, d


@lru_cache(maxsize=None)
def capacity(q: int, m: int) -> CapacityResult:
    """Capacity C_q(m) = log2 of the largest real characteristic root.

    Bisection brackets the root in (q-1, q), a Newton polish finishes it;
    m=1 is the exact root q-1 (so the binary m=1 channel has capacity 0),
    and once q**m leaves the float range the root rounds to q.
    """
    if q < 2:
        raise ValueError("alphabet size must be at least 2")
    if q > sys.float_info.max:
        raise ValueError(f"alphabet size q={q} is beyond the float range")
    if m < 1:
        raise ValueError("maximum run must be at least 1")
    if m == 1:
        lam = float(q - 1)
        return CapacityResult(q, m, lam, math.log2(lam), abs(_char_residual(q, m, lam)))
    if m > _FLOAT_EXP_LIMIT / math.log2(q):
        # x**m overflows near the root, which lies within (q-1) * (q-1/2)**-m
        # of q (the root exceeds q - 1/2 for m >= 2): far less than half
        # an ulp, so the root is q itself.  There the characteristic
        # polynomial x**m * (x - q) + q - 1 is exactly q - 1, and the
        # residual (q - 1) / q**m, taken in floating point (it underflows
        # to 0) rather than by building q**m exactly.  From m = 2000 on it
        # is 0.0 whatever q, so m is capped there to stay a float.
        lam = float(q)
        residual = (q - 1) * 2.0 ** (-min(m, 2000) * math.log2(q))
        return CapacityResult(q, m, lam, math.log2(lam), residual)
    lo, hi = float(q - 1), float(q)
    if lo == hi:
        # q - 1 and q round to one float, so the root between them is q itself.
        return CapacityResult(q, m, hi, math.log2(hi), abs(_char_residual(q, m, hi)))
    if not (_deflated(q, m, lo)[0] < 0 < _deflated(q, m, hi)[0]):
        raise ArithmeticError(f"root bracket invalid for q={q}, m={m}")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _deflated(q, m, mid)[0] < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    lam = 0.5 * (lo + hi)
    for _ in range(_NEWTON_CAP):
        value, slope = _deflated(q, m, lam)
        step = value / slope
        lam -= step
        if abs(step) <= 1e-15 * lam:
            break
    else:
        raise ArithmeticError(f"root refinement did not converge for q={q}, m={m}")
    return CapacityResult(q, m, lam, math.log2(lam), abs(_char_residual(q, m, lam)))


def _run_sum(m: int, x: float, order: int = 0) -> float:
    """The order-th derivative of T(x) = x + x**2 + ... + x**m.

    The sums here stop at their first term that underflows to 0.0: for
    x < 1 every later term is 0.0 too, so the value is unchanged and a
    huge m costs no more than the float range allows.  The terms start
    at the first power that the derivative keeps.
    """
    terms = (math.perm(i, order) * x ** (i - order) for i in range(max(order, 1), m + 1))
    return sum(takewhile(bool, terms))


def leading_coefficient(q: int, m: int) -> float:
    """Coefficient A_q(m) in the count asymptote A * lam**n.

    With the count series written as r(x)/p(x) for r = q*T and
    p = 1 - (q-1)*T, this is -lam * r(1/lam) / p'(1/lam).
    """
    lam = capacity(q, m).lam
    x = 1.0 / lam
    r = q * _run_sum(m, x)
    p_prime = -(q - 1) * _run_sum(m, x, 1)
    if abs(p_prime) < 1e-12:
        raise ArithmeticError(f"degenerate denominator derivative for q={q}, m={m}")
    return -lam * r / p_prime


def rll_count_approx(q: int, m: int, n: int) -> float:
    """Asymptotic count A_q(m) * lam_q(m)**n, or inf past the float range."""
    if n < 1:
        raise ValueError("length must be at least 1")
    try:
        return leading_coefficient(q, m) * capacity(q, m).lam**n
    except OverflowError:  # lam**n leaves the float range
        return math.inf


def rll_redundancy(q: int, m: int, n: int, mode: str = "exact") -> float:
    """Redundancy in bits of the max-run constraint at length n.

    exact: n*log2(q) - log2 of the exact count; asymptotic: the linear
    form n*(log2(q) - C_q(m)) - log2(A_q(m)).
    """
    if q not in (2, 4):
        raise ValueError("alphabet size must be 2 or 4")
    if mode == "exact":
        return n * math.log2(q) - math.log2(counting.rll_count(q, m, n))
    if mode == "asymptotic":
        _check_length(n)
        res = capacity(q, m)
        return n * (math.log2(q) - res.capacity_bits) - math.log2(leading_coefficient(q, m))
    raise ValueError(f"unknown mode {mode!r}")


def efficiency_eta(m: int) -> float:
    """Asymptotic rate efficiency (1 + C_2(m)) / C_4(m) of the binary route."""
    if m < 2:
        raise ValueError("efficiency is defined for m >= 2")
    return (1.0 + capacity(2, m).capacity_bits) / capacity(4, m).capacity_bits


def gamma(kind: str, m: int) -> float:
    """Variance factor of the run-constrained weight distribution of kind.

    The weighted symbols (1s, or A and T) come in maximal blocks; one of
    length k has probability N_{q/2}(m, k) * y**k at y = 1/lam_q(m).  The
    blocks' generating function is F = (q/2)*T / (1 - (q/2 - 1)*T), and
    (q-1)*T(y) = 1 makes F(y) = 1.  The factor is the block length's
    variance over its mean, 1 + y*F''/F' - y*F' at y, which reduces to
    1 + y*T''/T' - (2(q-1)/q)*y*T'.
    """
    q = counting.alphabet_of(kind)
    if q == 2 and m < 2:
        raise ValueError("the binary variance factor needs m >= 2")
    y = 1.0 / capacity(q, m).lam
    slope = _run_sum(m, y, 1)
    return 1.0 + y * _run_sum(m, y, 2) / slope - 2 * (q - 1) / q * y * slope


def q_function(x: float) -> float:
    """Upper-tail probability of the standard normal distribution."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


class GaussianApprox(namedtuple("GaussianApprox", "mean variance log2_total")):
    """Gaussian model of a weight distribution: count ~ total * density(w).

    Fields mean, variance and log2_total.  The total is kept as its
    log2, so models of any length stay finite, and so is the log2 count
    estimate at weight w, log2_total + log2_density(w); 2 ** x is the count.
    """

    __slots__ = ()

    def log2_density(self, u: float) -> float:
        if self.variance <= 0:
            raise ValueError("variance must be positive")
        z2 = (u - self.mean) ** 2 / self.variance
        return -(0.5 * z2 + 0.5 * math.log(2 * math.pi * self.variance)) / math.log(2)


def gaussian_weight_model(kind: str, m: int | None, n: int) -> GaussianApprox:
    """Gaussian model of the weight row counting.weight_profile(kind, m, n).

    kind is "binary" or "quaternary".  The mean is n/2 and the total is
    the row's exact total.  m=None drops the run constraint: variance
    n/4 and total q**n.  A run limit scales the variance by the
    closed-form block-length factor gamma(kind, m).
    """
    _check_length(n)
    q = counting.alphabet_of(kind)
    if m is None:
        return GaussianApprox(n / 2, n / 4, n * math.log2(q))
    return GaussianApprox(n / 2, gamma(kind, m) * n / 4, math.log2(counting.rll_count(q, m, n)))


def _admitted_share(a, scale: float) -> float:
    """Gaussian share 1 - 2*Q(2*a*sqrt(scale)) of words within a of balance."""
    p, d = counting._bound_ratio(a)
    a = p / d
    return 1.0 - 2.0 * q_function(2.0 * a * math.sqrt(scale))


def log2_balance_count_approx(n: int, a: float) -> float:
    """log2 of the Gaussian near-balanced count: 2n + log2(1 - 2*Q(2*a*sqrt(n)))."""
    _check_length(n)
    admitted = _admitted_share(a, n)
    return 2.0 * n + math.log2(admitted) if admitted > 0 else -math.inf


def balance_penalty(kind: str, m: int, a: float, n: int) -> float:
    """Extra redundancy in bits for also keeping the weight within a of balance."""
    _check_length(n)
    inner = _admitted_share(a, n / gamma(kind, m))
    if inner <= 0.0:
        raise ValueError("balance penalty undefined: admitted probability is not positive")
    return -math.log2(inner)


def combined_redundancy(
    kind: str,
    m: int,
    a,
    n: int,
    mode: str = "asymptotic",
    boundary: str = "strict",
) -> float:
    """Redundancy in bits under both the run and the weight constraint.

    asymptotic: run redundancy plus the Gaussian balance penalty.
    exact: bits-per-symbol * n minus log2 of the admitted-weight count,
    using the same weight-admission rule as the balance counters.
    """
    q = counting.alphabet_of(kind)
    if q == 2 and m < 2:
        raise ValueError("binary combined redundancy needs m >= 2")
    if mode == "asymptotic":
        return rll_redundancy(q, m, n, "asymptotic") + balance_penalty(kind, m, a, n)
    if mode == "exact":
        profile = counting.weight_profile(kind, m, n)
        admitted = sum(profile.counts[w] for w in counting.admitted_weights(n, a, boundary))
        if admitted == 0:
            raise ValueError("no admitted words; redundancy undefined")
        return n * math.log2(q) - math.log2(admitted)
    raise ValueError(f"unknown mode {mode!r}")
