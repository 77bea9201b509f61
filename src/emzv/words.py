"""Words over the letters e_k (k >= 0) and their shuffle product.

An index (k_1, ..., k_r) of non-negative integers doubles as the word
e_{k_1} ... e_{k_r}.  This module provides the index bookkeeping (weight,
length, parity, admissibility) together with the shuffle product, whose
coefficients are positive integers.  Words are ordered canonically by
`word_sort_key`; `word_key` packs that key into one int per word, computed
once per process, so sorting words compares ints.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable

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


#: Width of one entry's field in `word_int_key`: every entry the engine
#: builds fits, up to 2 * (MAX_ENTRY - 1) from the length-2 formula.
ENTRY_BITS = 32

#: Width of the weight field in `word_int_key`: a word of fewer than
#: 2**32 entries, each below 2**ENTRY_BITS, has a weight below 2**64.
WEIGHT_BITS = 64


def word_int_key(k: Index) -> int:
    """`word_sort_key` packed into one int that orders and equates words as
    it does: length, then weight, then the entries, ENTRY_BITS bits each,
    from the most significant field down.  Words of one length have fields
    of one width, and a longer word's length field outweighs the rest."""
    key = (len(k) << WEIGHT_BITS) + sum(k)
    for e in k:
        if not 0 <= e < 1 << ENTRY_BITS:
            raise ArgumentError(f"index entry {e} does not fit a word key")
        key = key << ENTRY_BITS | e
    return key


#: The per-process memo behind `word_key`.
WORD_KEYS = Memo(word_int_key)

#: `word_int_key` of a word (a tuple), computed once per process.  Sorting
#: with it gives exactly the canonical order, one dict lookup and one int
#: comparison per word.
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


@functools.lru_cache(maxsize=None)
def shuffle(v: Index, w: Index) -> tuple[tuple[Index, int], ...]:
    """Shuffle product of two words: its (word, coefficient) pairs, each
    coefficient a positive integer, in `word_sort_key` order.  The words all
    share one length and one weight, so that order is the lexicographic one.

    Recursive rule: e_i v' sh e_j w' = e_i (v' sh e_j w') + e_j (e_i v' sh w'),
    with the empty word as unit.
    """
    if not v or not w:
        return ((v + w, 1),)
    counts = {(v[0],) + u: n for u, n in shuffle(v[1:], w)}
    for u, n in shuffle(v, w[1:]):
        u = (w[0],) + u
        counts[u] = counts.get(u, 0) + n
    return tuple(sorted(counts.items()))


def reflection_sign(k: Index) -> int:
    """Sign relating a value to the value of the reversed index: (-1)^weight."""
    return -1 if sum(k) % 2 else 1

