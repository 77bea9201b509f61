"""Exact reference for the Fay column: the polynomial u_1 ... u_r P_l itself.

`emzv.faypoly` reads the coefficients c<l|k> from a closed form and never
builds a polynomial.  `p_poly` builds the whole polynomial the slow, obvious
way: it assembles the summands of P_l over a common denominator of suffix
forms in `SparsePoly`, whose exponents are unbounded, and divides that
denominator out exactly, checking that no remainder survives.  The tests
compare `c_coeff` and `enumerate_support` against it, the latter through
`p_support`, which reads the column of k from every `p_poly(l)`.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain
from operator import add
from typing import Iterable

from emzv.faypoly import compositions
from emzv.words import ArgumentError, Index, weight

ExpVec = tuple[int, ...]


class NonPolynomialError(ArithmeticError):
    """Exact division left a remainder where polynomiality is guaranteed."""


class SparsePoly:
    """Multivariate polynomial with integer coefficients, stored sparsely.

    ``terms`` maps exponent vectors, tuples of ``nvars`` non-negative
    integers, to non-zero integer coefficients.  Exponents are unbounded.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[ExpVec, int] | None = None):
        for e in terms or {}:
            if len(e) != nvars or min(e, default=0) < 0:
                raise ArgumentError(f"exponent vector {e} needs {nvars} non-negative entries")
        self.nvars = nvars
        self.terms = {tuple(e): c for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def _collect(cls, nvars: int, pairs: Iterable[tuple[ExpVec, int]]) -> "SparsePoly":
        """Sum (exponent vector, coefficient) pairs and drop the zero terms."""
        terms: dict[ExpVec, int] = {}
        for e, c in pairs:
            terms[e] = terms.get(e, 0) + c
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly.terms = {e: c for e, c in terms.items() if c != 0}
        return poly

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: int) -> "SparsePoly":
        return cls._collect(nvars, [((0,) * nvars, c)])

    @classmethod
    def monomial(cls, nvars: int, exps: ExpVec, c: int = 1) -> "SparsePoly":
        return cls(nvars, {tuple(exps): c})

    @classmethod
    def suffix_form(cls, nvars: int, start: int) -> "SparsePoly":
        """The linear form u_start + u_{start+1} + ... + u_{nvars-1} (0-based)."""
        return cls._collect(nvars, ((_unit(nvars, v), 1) for v in range(start, nvars)))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        return SparsePoly._collect(self.nvars, chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        negated = ((e, -c) for e, c in other.terms.items())
        return SparsePoly._collect(self.nvars, chain(self.terms.items(), negated))

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        return SparsePoly._collect(self.nvars, (
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        ))

    def pow(self, n: int) -> "SparsePoly":
        if n == 0:
            return SparsePoly.constant(self.nvars, 1)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def coeff(self, exps: ExpVec) -> int:
        return self.terms.get(tuple(exps), 0)

    def is_homogeneous(self, degree: int) -> bool:
        return all(sum(e) == degree for e in self.terms)

    def evaluate(self, point: tuple[Fraction, ...]) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            val = Fraction(c)
            for x, p in zip(point, e):
                val *= x**p
            total += val
        return total

    def divide_by_suffix_form(self, start: int) -> "SparsePoly":
        """Exact division by u_start + ... + u_{nvars-1}; remainder must vanish.

        Long division in x = u_start: terms are grouped by the exponent of x
        and processed from the highest exponent down.  A term c*x*m moves
        c*m into the quotient and leaves -c*m*u_v behind for every later
        variable v, one exponent of x lower; whatever reaches exponent 0 is
        the remainder.
        """
        later = [_unit(self.nvars, v) for v in range(start + 1, self.nvars)]
        by_deg: dict[int, dict[ExpVec, int]] = {}
        for e, c in self.terms.items():
            by_deg.setdefault(e[start], {})[e] = c
        quotient = []
        for d in range(max(by_deg, default=0), 0, -1):
            lower = by_deg.setdefault(d - 1, {})
            for e, c in by_deg.get(d, {}).items():
                if c == 0:
                    continue
                q = e[:start] + (d - 1,) + e[start + 1 :]
                quotient.append((q, c))
                for u in later:
                    m = tuple(map(add, q, u))
                    lower[m] = lower.get(m, 0) - c
        if any(by_deg.get(0, {}).values()):
            raise NonPolynomialError("exact division left a remainder")
        return SparsePoly._collect(self.nvars, quotient)

    def __repr__(self) -> str:
        if not self.terms:
            return "SparsePoly(0)"
        parts = []
        for e, c in sorted(self.terms.items()):
            vars_part = "*".join(f"u{i}^{p}" for i, p in enumerate(e) if p)
            parts.append(f"{c}" + (f"*{vars_part}" if vars_part else ""))
        return "SparsePoly(" + " + ".join(parts) + ")"


def _unit(nvars: int, v: int) -> ExpVec:
    """The exponent vector of u_v."""
    return tuple(int(w == v) for w in range(nvars))


def _term_numerator(l: Index, i: int, denom_vars: frozenset[int]) -> SparsePoly:
    """Numerator of summand i of u_1...u_r P_l over the common denominator.

    Variables are 0-based; suffix form T_v means u_v + ... + u_{r-1}.  The
    summand's own negative powers are T_{i-1} and T_i (when the matching
    l entry is 0); the remaining forms of the common denominator multiply in,
    and the summand's monomial last.
    """
    r = len(l)
    exps = [0] * r
    for v in range(0, i - 1):
        exps[v] += l[v]
    if i >= 1:
        exps[i - 1] += 1
    for v in range(i, r - 1):
        exps[v] += l[v + 1]
    exps[r - 1] += 1
    sign = -1 if (l[i] - 1) % 2 else 1
    poly = SparsePoly.constant(r, sign)
    own_negative = set()
    if i >= 1:
        if l[i - 1] == 0:
            own_negative.add(i - 1)
        else:
            poly = poly * SparsePoly.suffix_form(r, i - 1).pow(l[i - 1] - 1)
    if l[i] == 0:
        own_negative.add(i)
    else:
        poly = poly * SparsePoly.suffix_form(r, i).pow(l[i] - 1)
    for v in sorted(denom_vars - frozenset(own_negative)):
        poly = poly * SparsePoly.suffix_form(r, v)
    return poly * SparsePoly.monomial(r, tuple(exps))


@functools.lru_cache(maxsize=None)
def p_poly(l: Index) -> SparsePoly:
    """The polynomial u_1 ... u_r P_l, homogeneous of degree weight(l).

    The exact reference for `c_coeff` and `enumerate_support`, which read
    single coefficients without it.  Summands are combined over the common
    denominator (the product of suffix forms T_v for each l_v = 0) and the
    denominator is divided out exactly.
    Raises NonPolynomialError if a remainder survives, which would signal a
    convention bug rather than valid input.
    """
    l = tuple(l)
    if len(l) == 0:
        raise ArgumentError("p_poly requires a non-empty index")
    r = len(l)
    denom_vars = frozenset(v for v in range(r) if l[v] == 0)
    total = SparsePoly.zero(r)
    for i in range(r):
        total = total + _term_numerator(l, i, denom_vars)
    for v in sorted(denom_vars):
        total = total.divide_by_suffix_form(v)
    return total


def p_support(k: Index) -> list[tuple[Index, int]]:
    """Every (l, c<l|k>) with c<l|k> != 0, in composition order, read from
    `p_poly(l)` for each l of the weight and length of k (memoised per l)."""
    out = [(l, p_poly(l).coeff(k)) for l in compositions(weight(k), len(k))]
    return [(l, c) for l, c in out if c]
