"""Words over the letters e_k (k >= 0) and the shuffle Hopf algebra.

An index (k_1, ..., k_r) of non-negative integers doubles as the word
e_{k_1} ... e_{k_r}.  This module provides the index bookkeeping (weight,
length, parity, admissibility) together with the shuffle product, the
deconcatenation coproduct and the antipode of the shuffle Hopf algebra,
all with exact rational coefficients.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Iterator

Index = tuple[int, ...]

#: Entries beyond this are a representation error, not meaningful input.
MAX_ENTRY = 2**31


class ArgumentError(ValueError):
    """Invalid argument to an exact-algebra operation."""


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


class WordCombo:
    """Exact Q-linear combination of words, stored as word -> coefficient.

    Zero coefficients are never stored; equality is map equality.  Instances
    are treated as immutable values.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Index, Fraction] | None = None):
        self._terms = {w: c for w, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "WordCombo":
        return cls()

    @classmethod
    def word(cls, w: Index, coeff: Fraction | int = 1) -> "WordCombo":
        return cls({tuple(w): Fraction(coeff)})

    def items(self) -> Iterator[tuple[Index, Fraction]]:
        return iter(sorted(self._terms.items(), key=lambda t: word_sort_key(t[0])))

    def coeff(self, w: Index) -> Fraction:
        return self._terms.get(tuple(w), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WordCombo):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "WordCombo") -> "WordCombo":
        terms = dict(self._terms)
        for w, c in other._terms.items():
            terms[w] = terms.get(w, Fraction(0)) + c
        return WordCombo(terms)

    def __sub__(self, other: "WordCombo") -> "WordCombo":
        return self + (-1) * other

    def __rmul__(self, scalar: Fraction | int) -> "WordCombo":
        s = Fraction(scalar)
        return WordCombo({w: s * c for w, c in self._terms.items()})

    def mass(self) -> Fraction:
        """Sum of all coefficients."""
        return sum(self._terms.values(), Fraction(0))

    def __repr__(self) -> str:
        if not self._terms:
            return "WordCombo(0)"
        parts = [f"{c}*{w}" for w, c in self.items()]
        return "WordCombo(" + " + ".join(parts) + ")"


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
    left = shuffle(v[1:], w)
    right = shuffle(v, w[1:])
    terms: dict[Index, Fraction] = {}
    for u, c in left._terms.items():
        key = (v[0],) + u
        terms[key] = terms.get(key, Fraction(0)) + c
    for u, c in right._terms.items():
        key = (w[0],) + u
        terms[key] = terms.get(key, Fraction(0)) + c
    return WordCombo(terms)


def shuffle_combo(a: WordCombo, b: WordCombo) -> WordCombo:
    """Bilinear extension of the shuffle product to combinations."""
    out = WordCombo.zero()
    for v, cv in a._terms.items():
        for w, cw in b._terms.items():
            out = out + (cv * cw) * shuffle(v, w)
    return out


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
    out = WordCombo.zero()
    for pre, suf in coproduct(w):
        sign, rev = antipode(suf)
        out = out + sign * shuffle(pre, rev)
    return out
