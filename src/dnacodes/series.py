"""Exact truncated formal power series over the integers.

Coefficients are Python ints, so coefficient extraction stays exact at
any length.  A series is truncated at a fixed maximum x-degree; products
silently drop higher-order terms.  Instances are immutable and safe to
share across threads.  The counting code uses them for the
generating-function cross-check of the run-length-limited counts.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

__all__ = ["TruncatedSeries"]


class TruncatedSeries:
    """Univariate power series with exact int coefficients, truncated at n_max."""

    __slots__ = ("coeffs", "n_max")

    def __init__(self, coeffs: Sequence[int], n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be non-negative")
        padded = list(coeffs[: n_max + 1])
        padded.extend([0] * (n_max + 1 - len(padded)))
        self.coeffs: tuple[int, ...] = tuple(padded)
        self.n_max = n_max

    @classmethod
    def from_terms(cls, terms: Mapping[int, int], n_max: int) -> "TruncatedSeries":
        coeffs = [0] * (n_max + 1)
        for degree, value in terms.items():
            if degree < 0:
                raise ValueError("negative degree")
            if degree <= n_max:
                coeffs[degree] += value
        return cls(coeffs, n_max)

    def coefficient(self, n: int) -> int:
        """Extract the coefficient of x**n."""
        if not 0 <= n <= self.n_max:
            raise ValueError(f"degree {n} outside truncation range 0..{self.n_max}")
        return self.coeffs[n]

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.n_max != other.n_max:
            raise ValueError("series have different truncation degrees")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        return TruncatedSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.n_max
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        return TruncatedSeries(
            [a - b for a, b in zip(self.coeffs, other.coeffs)], self.n_max
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries([other * c for c in self.coeffs], self.n_max)
        self._check_compatible(other)
        n_max = self.n_max
        out = [0] * (n_max + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: n_max + 1 - i]):
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(out, n_max)

    __rmul__ = __mul__

    def quasi_inverse(self) -> "TruncatedSeries":
        """Return (1 - self)**-1 as a truncated series; requires self(0) = 0."""
        if self.coeffs[0] != 0:
            raise ValueError("quasi-inverse requires a zero constant term")
        n_max = self.n_max
        f = self.coeffs
        out = [0] * (n_max + 1)
        out[0] = 1
        for d in range(1, n_max + 1):
            acc = 0
            for k in range(1, d + 1):
                if f[k]:
                    acc += f[k] * out[d - k]
            out[d] = acc
        return TruncatedSeries(out, n_max)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.n_max == other.n_max and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.n_max))

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r}, n_max={self.n_max})"
