"""Words over the letters e_k (k >= 0) and their shuffle product.

An index (k_1, ..., k_r) of non-negative integers doubles as the word
e_{k_1} ... e_{k_r}.  This module provides the index bookkeeping (weight,
length, parity, admissibility) together with the shuffle product, with
exact rational coefficients.  `Combo`, the one exact Q-linear combination
class, keeps those coefficients as integer numerators over one common
denominator, so sums and products are plain integer arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Hashable, Iterable

Index = tuple[int, ...]

#: Entries beyond this are a representation error, not meaningful input.
MAX_ENTRY = 2**31


class ArgumentError(ValueError):
    """Invalid argument to an exact-algebra operation."""


class PreconditionError(ValueError):
    """An operation was called outside its domain of validity."""


def as_index(entries: Iterable[int]) -> Index:
    """Validate and normalize an index to a tuple of small non-negative ints.

    Entries must be integers (anything with `__index__`, such as a bool or
    a numpy integer); a float or a string raises ArgumentError instead of
    being truncated or split into digits.
    """
    try:
        idx = tuple(map(operator.index, entries))
    except TypeError as exc:
        raise ArgumentError(f"index entries must be integers ({exc})") from None
    for e in idx:
        if e < 0:
            raise ArgumentError(f"negative index entry {e}")
        if e >= MAX_ENTRY:
            raise ArgumentError(f"index entry {e} exceeds representation limit")
    return idx


def weight(k: Index) -> int:
    return sum(k)


def parity_is_even(k: Index) -> bool:
    """Even parity means weight + length is even."""
    return (sum(k) + len(k)) % 2 == 0


def is_admissible(k: Index) -> bool:
    """True when the defining iterated integral converges (no boundary 1)."""
    return len(k) == 0 or (k[0] != 1 and k[-1] != 1)


def is_zero_one(k: Index) -> bool:
    return all(e in (0, 1) for e in k)


def word_sort_key(k: Index) -> tuple[int, int, Index]:
    """Canonical order on words: by length, then weight, then lexicographic."""
    return (len(k), sum(k), k)


class Memo(dict):
    """A per-process memo of one function: `memo[x]` is `fn(x)`, computed on
    the first lookup of x and stored; `clear()` empties it.  Its bound
    `__getitem__` reads a stored result by one C-level dict lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, x):
        value = self[x] = self.fn(x)
        return value


#: The per-process memo behind `word_key`.
WORD_KEYS = Memo(word_sort_key)

#: `word_sort_key` of a word (a tuple), computed once per process.  Sorting
#: with it gives exactly the canonical order, one dict lookup per word.
word_key = WORD_KEYS.__getitem__


def parse_index(text: str) -> Index:
    """Parse the textual index form: comma-separated entries, `-` for empty."""
    text = text.strip()
    if text == "-":
        return ()
    if not text:
        raise ArgumentError("empty index text (the empty index is spelled '-')")
    try:
        return as_index(int(part) for part in text.split(","))
    except ArgumentError:
        raise
    except ValueError as exc:
        raise ArgumentError(f"cannot parse index {text!r}") from exc


def format_index(k: Index) -> str:
    return ",".join(str(e) for e in k) if k else "-"


class Combo:
    """Exact Q-linear combination of hashable keys.

    Coefficients are stored as integer numerators (`_terms`, key -> nonzero
    int) over one common denominator `_den > 0`, in lowest terms:
    gcd(_den, *numerators) == 1.  That form is unique, so two combinations
    are equal when they have the same class, numerators and denominator.
    Every arithmetic path ends in `_sum`, which restores the form; `items`
    and `coeff` return `Fraction`s.  Instances are treated as immutable
    values.  Subclasses fix the key type and its `_sort_key`.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: dict | None = None):
        combo = self.collect((terms or {}).items())
        self._terms, self._den = combo._terms, combo._den

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def _sum(cls, pairs: Iterable[tuple[Hashable, int]], den: int):
        """Sum (key, integer numerator) pairs over the denominator `den` into
        canonical form: zero numerators dropped, common factors divided out."""
        nums: dict = {}
        for key, n in pairs:
            nums[key] = nums.get(key, 0) + n
        nums = {k: n for k, n in nums.items() if n}
        if den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                nums = {k: n // g for k, n in nums.items()}
                den //= g
        out = cls.__new__(cls)
        out._terms, out._den = nums, den
        return out

    @classmethod
    def collect(cls, pairs: Iterable[tuple[Hashable, Fraction | int]]):
        """Sum (key, int or Fraction coefficient) pairs into one combination."""
        pairs = list(pairs)
        den = math.lcm(*(c.denominator for _, c in pairs))
        return cls._sum(((k, c.numerator * (den // c.denominator)) for k, c in pairs), den)

    @property
    def den(self) -> int:
        """Common denominator of the coefficients (1 for the zero combination)."""
        return self._den

    def numerators(self) -> list[tuple[Hashable, int]]:
        """(key, numerator over `den`) pairs in the order of `items`.  The
        keys are distinct, so sorting them alone gives that order."""
        terms = self._terms
        return [(k, terms[k]) for k in sorted(terms, key=self._sort_key)]

    def items(self) -> list[tuple[Hashable, Fraction]]:
        return [(k, Fraction(n, self._den)) for k, n in self.numerators()]

    def coeff(self, key: Hashable) -> Fraction:
        return Fraction(self._terms.get(key, 0), self._den)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((type(self), self._den, frozenset(self._terms.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        return self._sum(
            itertools.chain(
                ((k, a * n) for k, n in self._terms.items()),
                ((k, b * n) for k, n in other._terms.items()),
            ),
            den,
        )

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, scalar: Fraction | int):
        s = Fraction(scalar)
        return self._sum(
            ((k, s.numerator * n) for k, n in self._terms.items()), s.denominator * self._den
        )

    def __repr__(self) -> str:
        parts = [f"{c}*{k}" for k, c in self.items()] or ["0"]
        return f"{type(self).__name__}(" + " + ".join(parts) + ")"


class WordCombo(Combo):
    """Exact Q-linear combination of words."""

    __slots__ = ()
    _sort_key = staticmethod(word_key)

    @classmethod
    def word(cls, w: Index, coeff: Fraction | int = 1) -> "WordCombo":
        return cls({tuple(w): Fraction(coeff)})


@functools.lru_cache(maxsize=None)
def shuffle(v: Index, w: Index) -> WordCombo:
    """Shuffle product of two words as a WordCombo.

    Recursive rule: e_i v' sh e_j w' = e_i (v' sh e_j w') + e_j (e_i v' sh w'),
    with the empty word as unit.
    """
    v = tuple(v)
    w = tuple(w)
    if not v:
        return WordCombo.word(w)
    if not w:
        return WordCombo.word(v)
    # Shuffle coefficients are integers: every result has denominator 1.
    return WordCombo._sum(
        itertools.chain(
            (((v[0],) + u, n) for u, n in shuffle(v[1:], w)._terms.items()),
            (((w[0],) + u, n) for u, n in shuffle(v, w[1:])._terms.items()),
        ),
        1,
    )


def shuffle_combo(a: WordCombo, b: WordCombo) -> WordCombo:
    """Bilinear extension of the shuffle product to combinations."""
    return WordCombo._sum(
        (
            (u, nv * nw * n)
            for v, nv in a._terms.items()
            for w, nw in b._terms.items()
            for u, n in shuffle(v, w)._terms.items()
        ),
        a._den * b._den,
    )


def reflection_sign(k: Index) -> int:
    """Sign relating a value to the value of the reversed index: (-1)^weight."""
    return -1 if sum(k) % 2 else 1

