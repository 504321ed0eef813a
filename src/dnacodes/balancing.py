"""Binary balancing codes: exact prefix-flip balancing and its weak variant.

Both follow Knuth ("Efficient balanced codes", IEEE T-IT 1986).  The
exact balancer inverts the first k0 bits of an even-length word so the
result has equal ones and zeros; such an index always exists because the
weight after flipping k bits walks in unit steps from w to n - w.  The
weak balancer only tries a power-of-two grid of flip lengths and takes
the best, trading exact balance for a shorter index.

Either way the chosen index travels inside a fixed balanced prefix: the
index-th weight-p0 word of length 2*p0 in lexicographic order, so the
prefixes are the first balanced words, read off the zero places that
itertools.combinations lists in lex order.  Each balancer is a binary
block code that speaks the strand codecs' block protocol (see
`constructions`): `encode_blocks(digits, state)` takes a batch numeral
of source_bits-digit words, construction1's ell data bits each, and
returns each word's oligo_len balanced digits, prefix then body, as
ASCII (b"0110"), and `decode_blocks(words, state)` inverts it into one
numeral, refusing a word whose weight breaks weight_bound.  A refusal is
a plain ValueError that says why, never where: `payload.decode_stream`
finds the word by decoding the batch's words one at a time.  The flip
itself is a translate of the word's first digits; only the search for
the flip length reads the word as an int, a batch's words read in one
conversion (`words.digits_to_ints`).  No state crosses blocks, so
state is ignored.
The balance construction puts these digits on a strand's high plane.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, islice

from .blockcodes import BlockCode
from .words import digits_to_ints

__all__ = ["KnuthBalancer", "WeakKnuthBalancer"]

# Inverts binary digits.
_FLIP = bytes.maketrans(b"01", b"10")


class _FlipBalancer(BlockCode):
    """A code that inverts one of its flip lengths of leading digits and carries which in a prefix.

    Subclasses set source_bits (n), p0, oligo_len = n + 2*p0 and
    weight_bound, list the flip lengths in _flip_lengths and pick the
    flip of a word, read as an int, in _flip_index.  The exact
    balancer's flip lengths are a range; every other table is built on
    first use, so building a balancer allocates nothing that grows with n.
    """

    max_run = None

    @cached_property
    def _prefixes(self) -> tuple[tuple[bytes, ...], dict[bytes, int]]:
        """The balanced prefix of each flip mask, and each prefix's mask index.

        The zero places of the weight-p0 words of length 2*p0 come from
        combinations in lex order, which is the words' lex order too.
        """
        cut = 2 * self.p0
        words = tuple(
            bytes(b"10"[place in zeros] for place in range(cut))
            for zeros in islice(combinations(range(cut), self.p0), len(self._flip_lengths))
        )
        return words, {word: i for i, word in enumerate(words)}

    def encode_blocks(self, digits: bytes, state: int | None = None) -> list[bytes]:
        """The prefix-and-body digit word of each source_bits-digit word of the numeral."""
        prefixes, lengths, flip = self._prefixes[0], self._flip_lengths, self._flip_index
        balanced: list[bytes] = []
        pieces = self._blocks(digits)
        for word, value in zip(pieces, digits_to_ints(pieces, self.source_bits)):
            i = flip(value)
            k0 = lengths[i]
            balanced.append(prefixes[i] + word[:k0].translate(_FLIP) + word[k0:])
        return balanced

    def decode_blocks(self, words: list[bytes], state: int | None = None) -> bytes:
        """The numeral of the source_bits-digit words of these words within weight_bound."""
        try:
            stray = b"".join(words).translate(None, b"01")
        except TypeError:  # an item that is not bytes: a str, None, an int
            stray = True
        if stray:
            raise ValueError("not a word of binary digits")
        n, size, cut, bound = self.source_bits, self.oligo_len, 2 * self.p0, 2 * self.weight_bound
        index_of_prefix, lengths = self._prefixes[1], self._flip_lengths
        bodies: list[bytes] = []
        try:
            for digits in words:
                if len(digits) != size:
                    raise ValueError(f"expected {size} bits, got {len(digits)}")
                prefix = digits[:cut]
                i = index_of_prefix.get(prefix)
                if i is None:
                    if prefix.count(b"1") != self.p0:
                        raise ValueError("prefix is not a balanced word")
                    raise ValueError("prefix decodes to an out-of-range flip index")
                body = digits[cut:]  # the prefix is balanced, so the body's weight is the word's
                if abs(2 * body.count(b"1") - n) > bound:
                    raise ValueError("word weight outside the balancer's bound")
                k0 = lengths[i]
                bodies.append(body[:k0].translate(_FLIP) + body[k0:])
        except (AttributeError, TypeError):  # a bytearray or memoryview that joined as digits
            raise ValueError("not a word of binary digits") from None
        return b"".join(bodies)


class KnuthBalancer(_FlipBalancer):
    """Exact balancer: source_bits (even) bits to an exactly balanced digit word.

    The flip length k0 in 1..n is the smallest that balances the word,
    and the prefix carries k0 - 1 in 2*p0 digits, p0 = ceil(log2 n).
    """

    weight_bound = 0  # max |weight - oligo_len/2|

    def __init__(self, source_bits: int):
        n = source_bits
        if n < 2 or n % 2:
            raise ValueError("ell must be even and at least 2")
        self.source_bits = n
        self.p0 = max(1, (n - 1).bit_length())
        self.oligo_len = n + 2 * self.p0
        self._flip_lengths = range(1, n + 1)

    def _flip_index(self, value: int) -> int:
        """k0 - 1 for the smallest k0 whose first-k0-bit flip balances value."""
        n = self.source_bits
        half = n // 2
        weight = value.bit_count()
        # Flipping k bits leaves weight + k - 2 * (ones among them); each
        # further flip moves it by one, so no k closer than the current gap
        # can balance, and the search jumps by the gap.
        k0 = abs(weight - half) or 1
        while k0 <= n:
            gap = abs(weight + k0 - 2 * (value >> (n - k0)).bit_count() - half)
            if gap == 0:
                break
            k0 += gap
        else:  # unreachable: the weight walk must cross n/2
            raise AssertionError("no balancing index found")
        return k0 - 1


class WeakKnuthBalancer(_FlipBalancer):
    """Weak balancer: bounded unbalance with a prefix of only 2*p0 digits.

    The flip length is picked from the 2**p0 positions 1 + i*s, s =
    ceil(n / 2**p0), capped at n, and minimizes the distance to balance
    (ties to the smallest i), so for even n the body weight stays within
    ceil(s/2) of n/2.
    """

    def __init__(self, source_bits: int, p0: int):
        n = source_bits
        if n < 1:
            raise ValueError("ell must be positive")
        # 2**p0 <= n, asked of bit lengths so a huge p0 costs nothing.
        if not 1 <= p0 < n.bit_length():
            raise ValueError("need 1 <= p0 with 2**p0 <= ell")
        self.source_bits, self.p0 = n, p0
        self.oligo_len = n + 2 * p0
        self.weight_bound = (-(-n >> p0) + 1) // 2

    @cached_property
    def _flip_lengths(self) -> tuple[int, ...]:
        n = self.source_bits
        step = -(-n >> self.p0)  # ceil(n / 2**p0)
        return tuple(min(1 + i * step, n) for i in range(1 << self.p0))

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        """Each flip as the int it XORs onto the word, first bit most significant."""
        n = self.source_bits
        return tuple(((1 << b) - 1) << (n - b) for b in self._flip_lengths)

    @cached_property
    def _gap_of_weight(self) -> list[int]:
        """|2w - n| for each weight w of a word."""
        n = self.source_bits
        return [abs(2 * w - n) for w in range(n + 1)]

    def _flip_index(self, value: int) -> int:
        """The mask that brings value closest to balance, the first of ties."""
        gap = self._gap_of_weight
        gaps = [gap[(value ^ mask).bit_count()] for mask in self._masks]
        return gaps.index(min(gaps))
