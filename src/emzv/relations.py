"""Exact identities among formal values I(k) attached to indices.

An Expression, the package's one exact Q-linear combination class, is a
combination of monomials, each monomial a multiset of index atoms standing
for a formal product of values; the empty monomial is the unit 1.  Its
coefficients are integer numerators over one common denominator, so sums,
products and substitutions are plain integer arithmetic.  A monomial is the
tuple of its atoms in `word_sort_key` order, sorted by the int `word_key`
of each atom, and `items()` lists monomials by length and then by those
ints, the tuple `monomial_key`, so the JSON and text renderers do not depend
on how an expression was built.  `substitute` adds every term of the
expansion straight into one dict of numerators over a running common
denominator, the lcm of the replacements' denominators met so far.  Each
distinct monomial is handled once per process: `substitute` sorts an
expanded product once and interns it through `canonical_monomial`, so equal
monomials of reduced atoms are one object, and `terms_json` renders its
text up to the coefficient once, through `term_prefix`.  Evaluation needs
no order: `Evaluator.eval_expression` sums the terms exactly rounded in the
order they are stored.  An Identity pairs two expressions with a provenance
tag.  Identities are emitted verbatim from their defining formulas; no
normalization (such as rewriting an atom via reflection) is applied here,
so each identity can be audited against its source and validated
numerically.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .faypoly import enumerate_support
from .words import (
    Index,
    Memo,
    PreconditionError,
    as_index,
    parity_is_even,
    reflection_sign,
    shuffle,
    word_key,
)

Monomial = tuple[Index, ...]


def monomial(atoms: Iterator[Index]) -> Monomial:
    """Canonical monomial: atoms sorted, empty indices (unit factors) dropped."""
    return tuple(sorted((tuple(a) for a in atoms if len(a) > 0), key=word_key))


def add_split_terms(
    nums: dict, word: Index, start: int, stop: int, coef: int, keep_odd: bool = False
) -> None:
    """Add the terms coef sign_i I(word_{<=i}) I(word_{>i}) of the cuts
    start <= i < stop, 0 < start and stop <= len(word), into `nums`
    (monomial -> integer numerator), with
    sign_i = (-1)^{word_{i+1} + ... + word_r + r - i}.

    The suffix parity is summed once and carried from cut to cut.  Each
    monomial is `monomial((word[:i], word[i:]))`: its two atoms ordered by
    length, and by one `word_key` comparison only at equal lengths.  A term
    with a length-1 factor of odd weight, whose value vanishes, is left out
    unless `keep_odd`.  Adding in place builds no (monomial, numerator)
    pairs: at the frontier a list of them lived long enough to be promoted
    by the garbage collector and to trigger extra full collections.
    """
    r = len(word)
    odd = (sum(word[start:]) + r - start) % 2
    get = nums.get
    for i in range(start, stop):
        if keep_odd or not ((i == 1 and word[0] % 2) or (i == r - 1 and word[i] % 2)):
            a, b = word[:i], word[i:]
            if 2 * i == r:
                m = (b, a) if word_key(b) < word_key(a) else (a, b)
            else:
                m = (a, b) if 2 * i < r else (b, a)
            nums[m] = get(m, 0) + (-coef if odd else coef)
        odd ^= 1 - word[i] % 2  # the suffix loses word[i] and one place


def monomial_sort_key(mon: Monomial) -> tuple[int, ...]:
    """The number of atoms, then each atom's `word_key`: a tuple of ints."""
    return (len(mon), *map(word_key, mon))


#: The per-process memo behind `monomial_key`.
MONOMIAL_KEYS = Memo(monomial_sort_key)

#: `monomial_sort_key` of a monomial, computed once per process, as
#: `word_key` is for a word.
monomial_key = MONOMIAL_KEYS.__getitem__


def _canonical(atoms: tuple[Index, ...]) -> Monomial:
    """The atoms sorted with `word_key`, stored as the canonical monomial of
    itself unless an equal one is stored already, so every ordering of one
    multiset of atoms maps to one object.  Two atoms are ordered by one
    `word_key` comparison, as in `add_split_terms`."""
    if len(atoms) == 2:
        a, b = atoms
        mon = (b, a) if word_key(b) < word_key(a) else atoms
    else:
        mon = tuple(sorted(atoms, key=word_key))
    return MONOMIALS.setdefault(mon, mon)


#: The per-process memo behind `canonical_monomial`.
MONOMIALS = Memo(_canonical)

#: The canonical monomial of a tuple of non-empty atoms in any order, sorted
#: once per process and interned: equal monomials it returns are one object.
canonical_monomial = MONOMIALS.__getitem__


def coef_text(n: int, den: int) -> str:
    """`str(Fraction(n, den))` for `den > 0`, without building the Fraction."""
    if den == 1:
        return str(n)
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


#: The per-process memo behind `atom_json`.
ATOM_TEXTS = Memo(lambda a: json.dumps(list(a)))

#: `json.dumps(list(a))` of an index a, such as "[1, 2]", computed once per
#: process.
atom_json = ATOM_TEXTS.__getitem__

#: The per-process memo behind `term_prefix`.
TERM_PREFIXES = Memo(lambda m: '{"atoms": [' + ", ".join(map(atom_json, m)) + '], "coef": "')

#: The text of a monomial's JSON term up to its coefficient, such as
#: '{"atoms": [[1, 2]], "coef": "', computed once per process.
term_prefix = TERM_PREFIXES.__getitem__


class Expression:
    """Exact Q-linear combination of monomials of index atoms.

    Coefficients are stored as integer numerators (`_terms`, monomial ->
    nonzero int) over one common denominator `_den > 0`, in lowest terms:
    gcd(_den, *numerators) == 1.  That form is unique, so two expressions
    are equal when they have the same numerators and denominator.  Every
    arithmetic path ends in `_from_numerators`, some through `_sum`, which
    restores the form; `items` and `coeff` return `Fraction`s.  Instances
    are treated as immutable values.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: dict | None = None):
        expr = self.collect((terms or {}).items())
        self._terms, self._den = expr._terms, expr._den

    @classmethod
    def zero(cls) -> "Expression":
        return cls()

    @classmethod
    def _sum(cls, pairs: Iterable[tuple[Monomial, int]], den: int) -> "Expression":
        """Sum (monomial, integer numerator) pairs over the denominator `den`
        into canonical form: zero numerators dropped, common factors divided
        out."""
        nums: dict = {}
        for key, n in pairs:
            nums[key] = nums.get(key, 0) + n
        return cls._from_numerators(nums, den)

    @classmethod
    def _from_numerators(cls, nums: dict, den: int) -> "Expression":
        """The expression of the summed numerators `nums` (monomial -> int)
        over `den`, in canonical form: zero numerators dropped, common
        factors divided out.  Without a zero numerator, `nums` is taken over
        as it is, not copied."""
        if not all(nums.values()):
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
    def collect(cls, pairs: Iterable[tuple[Monomial, Fraction | int]]) -> "Expression":
        """Sum (monomial, int or Fraction coefficient) pairs into one expression."""
        pairs = list(pairs)
        den = math.lcm(*(c.denominator for _, c in pairs))
        return cls._sum(((k, c.numerator * (den // c.denominator)) for k, c in pairs), den)

    @property
    def den(self) -> int:
        """Common denominator of the coefficients (1 for the zero expression)."""
        return self._den

    def numerators(self) -> list[tuple[Monomial, int]]:
        """(monomial, numerator over `den`) pairs in the order of `items`, the
        canonical order of the JSON and text renderers.  The monomials are
        distinct, so sorting them alone gives that order."""
        terms = self._terms
        return [(m, terms[m]) for m in sorted(terms, key=monomial_key)]

    def items(self) -> list[tuple[Monomial, Fraction]]:
        return [(m, Fraction(n, self._den)) for m, n in self.numerators()]

    def coeff(self, mon: Monomial) -> Fraction:
        return Fraction(self._terms.get(mon, 0), self._den)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._terms.items())))

    def __add__(self, other: "Expression") -> "Expression":
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

    def __sub__(self, other: "Expression") -> "Expression":
        if type(other) is not type(self):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, scalar: Fraction | int) -> "Expression":
        s = Fraction(scalar)
        return self._sum(
            ((k, s.numerator * n) for k, n in self._terms.items()), s.denominator * self._den
        )

    @classmethod
    def unit(cls, coeff: Fraction | int = 1) -> "Expression":
        return cls._sum([((), coeff.numerator)], coeff.denominator)

    @classmethod
    def atom(cls, k: Index, coeff: Fraction | int = 1) -> "Expression":
        """Single formal value as an expression; the empty index is the unit."""
        n = coeff.numerator
        out = cls.__new__(cls)
        out._terms = {((tuple(k),) if len(k) else ()): n} if n else {}
        out._den = coeff.denominator
        return out

    def atoms(self) -> set[Index]:
        return {a for mon in self._terms for a in mon}

    def __mul__(self, other: "Expression") -> "Expression":
        if type(other) is not type(self):
            return NotImplemented
        return Expression._sum(
            (
                (monomial(m1 + m2), n1 * n2)
                for m1, n1 in self._terms.items()
                for m2, n2 in other._terms.items()
            ),
            self._den * other._den,
        )

    def substitute(self, mapping: dict[Index, "Expression"]) -> "Expression":
        """Replace every occurrence (each power) of every atom in `mapping` by
        its expression, all atoms in one pass.

        Every expanded term is added straight into one numerators dict over
        `den`, the lcm of the denominators met so far.  A monomial's terms
        are over the product d of its factors' denominators; when d does
        not divide `den`, `den` grows to their lcm and the numerators
        already added are scaled up in place.  A monomial with no mapped
        atom passes through interned, as its own `canonical_monomial`, and
        one that is a single mapped atom adds that atom's monomials as they
        are.  Any other monomial adds each product of one term per factor
        under its interned `canonical_monomial`; only the products of all
        but its last mapped factor are listed first.  No intermediate
        expression is built, and when the mapped expressions hold interned
        monomials, as those in `reduction.REDUCED` do, so does the result.
        """
        nums: dict = {}
        get = nums.get
        den = 1
        for mon, n in self._terms.items():
            factors = [mapping[a] for a in mon if a in mapping]
            if not factors:
                mon = MONOMIALS.setdefault(mon, mon)
                nums[mon] = get(mon, 0) + n * den
                continue
            d = math.prod(f._den for f in factors)
            if den % d:
                grow = d // math.gcd(den, d)
                for m in nums:
                    nums[m] *= grow
                den *= grow
            n *= den // d
            *outer, last = factors
            if len(mon) == 1:
                for fm, fn in last._terms.items():
                    nums[fm] = get(fm, 0) + n * fn
                continue
            heads = [(tuple(a for a in mon if a not in mapping), n)]
            for f in outer:
                heads = [(m + fm, x * fn) for m, x in heads for fm, fn in f._terms.items()]
            for m, x in heads:
                for fm, fn in last._terms.items():
                    key = canonical_monomial(m + fm)
                    nums[key] = get(key, 0) + x * fn
        return Expression._from_numerators(nums, self._den * den)

    def to_json_dict(self) -> dict:
        den = self._den
        return {
            "terms": [
                {"coef": coef_text(n, den), "atoms": [list(a) for a in m]}
                for m, n in self.numerators()
            ]
        }

    def terms_json(self) -> str:
        """`json.dumps(self.to_json_dict()["terms"], sort_keys=True)`, written
        straight from the numerators with one memoised text per monomial."""
        den = self._den
        return (
            "["
            + ", ".join(term_prefix(m) + coef_text(n, den) + '"}' for m, n in self.numerators())
            + "]"
        )

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        den = self._den
        parts = []
        for m, n in self.numerators():
            c = coef_text(n, den)
            if m:
                atoms = "*".join("I(" + ",".join(str(e) for e in a) + ")" for a in m)
                parts.append(f"{c} * {atoms}")
            else:
                parts.append(c)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Expression({self.to_text()})"


@dataclass(frozen=True)
class Identity:
    """An asserted equality lhs = rhs between expressions."""

    lhs: Expression
    rhs: Expression
    provenance: str


def shuffle_identity(v: Index, w: Index) -> Identity:
    """Product of two values equals the sum over their shuffles."""
    v, w = as_index(v), as_index(w)
    lhs = Expression.atom(v) * Expression.atom(w)
    rhs = Expression._sum(((monomial([word]), c) for word, c in shuffle(v, w)), 1)
    return Identity(lhs, rhs, "shuffle")


def reflection_identity(k: Index) -> Identity:
    """Value of the reversed index equals (-1)^weight times the value."""
    k = as_index(k)
    lhs = Expression.atom(k[::-1])
    rhs = Expression.atom(k, reflection_sign(k))
    return Identity(lhs, rhs, "reflection")


def fay_identity(k: Index) -> Identity:
    """General Fay relation for one value, valid for r = 1 or last entry != 1.

    The right-hand side is the pure coefficient sum -sum_l c<l|k> I(l): the
    zeta-carrying boundary terms, i = 2..r, each carry the factor
    delta_{1,k_r}, which the precondition sets to zero.
    """
    k = as_index(k)
    r = len(k)
    if r == 0:
        raise PreconditionError("fay identity needs a non-empty index")
    if r > 1 and k[-1] == 1:
        raise PreconditionError("fay identity requires last entry != 1 when length > 1")
    rhs = Expression.collect((monomial([l]), -c) for l, c in enumerate_support(k))
    return Identity(Expression.atom(k), rhs, "fay")


def _binomial(a: int, b: int) -> int:
    """Binomial with the boundary conventions used by the length-2 formula.

    C(a, b) = 0 for b < 0 or a < b, except C(-1, -1) = 1 so that the n = 0
    boundary terms agree with the general Fay relation.  Callers pass a < 0
    only with b = -1.
    """
    return math.comb(a, b) if b >= 0 else int(a == b == -1)


def prop_mat_identity(r: int, s: int) -> Identity:
    """Explicit length-2 relation for I(r, s), any r, s >= 0 except (1, 1)."""
    if r < 0 or s < 0:
        raise PreconditionError("entries must be non-negative")
    if (r, s) == (1, 1):
        raise PreconditionError("the length-2 formula excludes (1, 1)")
    lhs = Expression.atom((r, s))
    pairs = [((0, r + s), -((-1) ** s))]
    pairs += [((r + n, s - n), (-1) ** (s - n) * _binomial(r - 1 + n, r - 1)) for n in range(s + 1)]
    pairs += [((s + n, r - n), (-1) ** (s + n) * _binomial(s - 1 + n, s - 1)) for n in range(r + 1)]
    rhs = Expression.collect((monomial([l]), c) for l, c in pairs)
    return Identity(lhs, rhs, "prop_mat")


def parity_split(k: Index) -> Identity:
    """Split an even-parity value into products of strictly shorter values.

    From the antipode identity of the shuffle Hopf algebra combined with the
    reflection relation:

        0 = 2 I(k) + sum_{i=1}^{r-1} sign_i I(k_1..k_i) I(k_{i+1}..k_r),

    with sign_i = (-1)^{k_{i+1}+...+k_r + r - i}, valid when weight + length
    is even.
    """
    k = as_index(k)
    if not parity_is_even(k):
        raise PreconditionError("parity split needs even weight + length")
    if len(k) == 0:
        raise PreconditionError("parity split needs a non-empty index")
    if len(k) == 1:
        raise PreconditionError("length-1 indices have no non-trivial split")
    nums: dict = {}
    add_split_terms(nums, k, 1, len(k), -1, keep_odd=True)
    rhs = Expression._from_numerators(nums, 2)
    return Identity(Expression.atom(k), rhs, "parity_split")


def trailing_ones(k: Index) -> Identity:
    """Shuffle trailing ones into the prefix:

        I(k_1..k_n, 1^m) = (-1)^m I(1^m sh (k_1..k_{n-1}), k_n)

    for k_n != 1 and m >= 1: the m-fold shuffle 1 sh ... sh 1 = m! 1^m
    cancels the 1/m! of the transform, so every coefficient is an integer.
    Every emitted atom ends with k_n.
    """
    k = as_index(k)
    m = 0
    while m < len(k) and k[len(k) - 1 - m] == 1:
        m += 1
    if m == 0:
        raise PreconditionError("no trailing ones to transform")
    if m == len(k):
        raise PreconditionError("all-ones indices are not transformed")
    n = len(k) - m
    prefix, last = k[: n - 1], k[n - 1]
    sign = (-1) ** m
    # The shuffle words are distinct, so each monomial is written once.
    nums = {(word + (last,),): sign * c for word, c in shuffle((1,) * m, prefix)}
    return Identity(Expression.atom(k), Expression._from_numerators(nums, 1), "trailing_ones")
