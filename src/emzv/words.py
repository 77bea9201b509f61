"""Words over the letters e_k (k >= 0) and the shuffle Hopf algebra.

An index (k_1, ..., k_r) of non-negative integers doubles as the word
e_{k_1} ... e_{k_r}.  This module provides the index bookkeeping (weight,
length, parity, admissibility) together with the shuffle product, the
deconcatenation coproduct and the antipode of the shuffle Hopf algebra,
all with exact rational coefficients.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Hashable, Iterable

Index = tuple[int, ...]

#: Entries beyond this are a representation error, not meaningful input.
MAX_ENTRY = 2**31


_ZERO = Fraction(0)


class ArgumentError(ValueError):
    """Invalid argument to an exact-algebra operation."""


class PreconditionError(ValueError):
    """An operation was called outside its domain of validity."""


def as_index(entries: Iterable[int]) -> Index:
    """Validate and normalize an index to a tuple of small non-negative ints."""
    idx = tuple(int(e) for e in entries)
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
    """Exact Q-linear combination of hashable keys, stored as key -> coefficient.

    Zero coefficients are never stored; two combinations are equal when they
    have the same class and the same map.  Instances are treated as
    immutable values.  Subclasses fix the key type and its `_sort_key`.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        self._terms = {k: c for k, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def collect(cls, pairs: Iterable[tuple[Hashable, Fraction | int]]):
        """Sum (key, coefficient) pairs into one combination in a single pass."""
        terms: dict = {}
        for key, c in pairs:
            terms[key] = terms.get(key, _ZERO) + c
        return cls(terms)

    def items(self) -> list[tuple[Hashable, Fraction]]:
        return sorted(self._terms.items(), key=lambda t: self._sort_key(t[0]))

    def coeff(self, key: Hashable) -> Fraction:
        return self._terms.get(key, _ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash((type(self), frozenset(self._terms.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.collect(itertools.chain(self._terms.items(), other._terms.items()))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, scalar: Fraction | int):
        s = Fraction(scalar)
        return type(self)({k: s * c for k, c in self._terms.items()})

    def __repr__(self) -> str:
        parts = [f"{c}*{k}" for k, c in self.items()] or ["0"]
        return f"{type(self).__name__}(" + " + ".join(parts) + ")"


class WordCombo(Combo):
    """Exact Q-linear combination of words."""

    __slots__ = ()
    _sort_key = staticmethod(word_sort_key)

    @classmethod
    def word(cls, w: Index, coeff: Fraction | int = 1) -> "WordCombo":
        return cls({tuple(w): Fraction(coeff)})

    def mass(self) -> Fraction:
        """Sum of all coefficients."""
        return sum(self._terms.values(), _ZERO)


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
    return WordCombo.collect(
        itertools.chain(
            (((v[0],) + u, c) for u, c in shuffle(v[1:], w)._terms.items()),
            (((w[0],) + u, c) for u, c in shuffle(v, w[1:])._terms.items()),
        )
    )


def shuffle_combo(a: WordCombo, b: WordCombo) -> WordCombo:
    """Bilinear extension of the shuffle product to combinations."""
    return WordCombo.collect(
        (u, cv * cw * c)
        for v, cv in a._terms.items()
        for w, cw in b._terms.items()
        for u, c in shuffle(v, w)._terms.items()
    )


def antipode(w: Index) -> tuple[int, Index]:
    """Antipode of a word: sign (-1)^length and the reversed word."""
    w = tuple(w)
    return (-1) ** len(w), w[::-1]


def coproduct(w: Index) -> list[tuple[Index, Index]]:
    """Deconcatenation coproduct: all prefix/suffix splits, in order."""
    w = tuple(w)
    return [(w[:j], w[j:]) for j in range(len(w) + 1)]


def reflection_sign(k: Index) -> int:
    """Sign relating a value to the value of the reversed index: (-1)^weight."""
    return -1 if sum(k) % 2 else 1


def antipode_convolution(w: Index) -> WordCombo:
    """Sum over splits of prefix shuffled with antipode of suffix.

    Vanishes identically for every non-empty word; this is the Hopf-algebra
    identity behind the parity splitting of values.
    """
    return WordCombo.collect(
        (u, sign * c)
        for pre, suf in coproduct(w)
        for sign, rev in [antipode(suf)]
        for u, c in shuffle(pre, rev)._terms.items()
    )
