"""Exact structure constants of the Fay relation.

For an index l = (l_1, ..., l_r) the generating rational function is

    P_l(u_1, ..., u_r) = sum_{i=0}^{r-1}
        u_1^{l_1-1} ... u_{i-1}^{l_{i-1}-1}
        (u_i + ... + u_r)^{l_i-1} (-u_{i+1} - ... - u_r)^{l_{i+1}-1}
        u_{i+1}^{l_{i+2}-1} ... u_{r-1}^{l_r-1},

where the (u_i + ... + u_r) factor is absent from the i = 0 term.
Multiplying by u_1 ... u_r yields a homogeneous integer polynomial of degree
weight(l); its coefficients c<l|k> (the coefficient of u^k) drive the Fay
relation between values.

`c_coeff` and `enumerate_support` read one coefficient without building any
polynomial.  With 0-based variables and suffix forms T_v = u_v + ... +
u_{r-1}, summand i of u_1 ... u_r P_l is (-1)^{l_i-1} u^e T_{i-1}^{l_{i-1}-1}
T_i^{l_i-1} (see `_term_numerator`); every exponent is at least -1.  Expand
it in iterated Laurent series, u_0 >> u_1 >> ... >> u_{r-1}, with

    T_{i-1}^p = sum_j C(p, j) u_{i-1}^{p-j} T_i^j,     C(-1, j) = (-1)^j,
    1/T_v     = sum_t (-1)^t u_v^{-1-t} T_{v+1}^t.

The exponent of u_{i-1} in k fixes j and that of u_v fixes t, so the
summand's u^k coefficient is one binomial times one multinomial.  Laurent
expansion is an injective ring map and the sum of the summands is a
polynomial, so these coefficients add up to c<l|k> with no division.

`p_poly` is the exact reference: it assembles the summands over a common
denominator of suffix forms in `SparsePoly`, whose exponents are unbounded,
and divides it out, checking that no remainder survives.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain, product
from math import comb, factorial
from operator import add
from typing import Iterable, Iterator

from .words import ArgumentError, Index, weight

ExpVec = tuple[int, ...]

#: Largest column weight `c_coeff` and `enumerate_support` accept: an input
#: limit, not a field width.  The arithmetic is exact at any weight, but a
#: support search may visit up to C(w + r - 1, r - 1) compositions of weight w.
MAX_WEIGHT = 255


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


def _power_coeff(n: int, t: list[int]) -> int:
    """Coefficient of u^t in T^n, T the sum of the variables of t, n >= -1.

    The caller guarantees sum(t) == n.  For n = -1 the first variable
    carries the series 1/T = sum_s (-1)^s u^{-1-s} T'^s, T' the sum of the
    other variables; the term s is the only one with exponent t[0].
    """
    sign = 1
    if n < 0:
        n = -1 - t[0]
        if n < 0:
            return 0
        sign = -1 if n % 2 else 1
        t = t[1:]  # T' lacks the first variable
    out = factorial(n)
    for x in t:
        if x < 0:
            return 0
        out //= factorial(x)
    return sign * out


def _column_coeff(l: Index, k: Index) -> int:
    """c<l|k> summed over the Laurent expansions of the summands of P_l.

    Requires len(l) == len(k) and weight(l) == weight(k).  Summand i has
    monomial u_0^{l_0} ... u_{i-2}^{l_{i-2}} u_{i-1} u_i^{l_{i+1}} ...
    u_{r-2}^{l_{r-1}} u_{r-1}, so it contributes only if l and k agree
    before position i - 1; the later summands then fail too.
    """
    r = len(l)
    total = 0
    for i in range(r):
        if i >= 2 and l[i - 2] != k[i - 2]:
            break
        if i == 0:
            c, n = 1, l[0] - 1
        else:
            j = l[i - 1] - k[i - 1]
            if j < 0:
                continue
            # l_{i-1} = 0 forces k_{i-1} = 0 and j = 0, where C(-1, 0) = 1.
            c, n = comb(l[i - 1] - 1, j) if l[i - 1] else 1, j + l[i] - 1
            if c == 0:
                continue
        t = [k[v] - l[v + 1] for v in range(i, r - 1)]
        t.append(k[r - 1] - 1)
        c *= _power_coeff(n, t)
        total += -c if (l[i] - 1) % 2 else c
    return total


def _check_weight(k: Index) -> None:
    if weight(k) > MAX_WEIGHT:
        raise ArgumentError(f"weight {weight(k)} exceeds {MAX_WEIGHT}")


def c_coeff(l: Index, k: Index) -> int:
    """Coefficient of u_1^{k_1} ... u_r^{k_r} in u_1 ... u_r P_l."""
    if len(l) != len(k):
        raise ArgumentError(f"index length mismatch: {len(l)} vs {len(k)}")
    if len(l) == 0:
        raise ArgumentError("c_coeff requires non-empty indices")
    _check_weight(k)
    if weight(l) != weight(k):
        return 0
    return _column_coeff(tuple(l), tuple(k))


def compositions(total: int, parts: int) -> Iterator[Index]:
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def _box_compositions(total: int, box: list[tuple[int, int]]) -> Iterator[Index]:
    """Compositions of `total` with lo <= part <= hi for each (lo, hi) in
    `box`; the last part takes what the others leave."""
    *head, (lo, hi) = box
    for parts in product(*(range(a, min(b, total) + 1) for a, b in head)):
        last = total - sum(parts)
        if lo <= last <= hi:
            yield parts + (last,)


def _reachable_boxes(k: Index) -> Iterator[list[tuple[int, int]]]:
    """Per-part (lo, hi) bounds whose boxes cover every l of weight(k) for
    which some summand of `_column_coeff(l, k)` can be nonzero.

    Summand i needs l[:i-1] == k[:i-1], then l[i-1] >= k[i-1] (so l[i-1] = 0
    when k[i-1] = 0: C(l-1, l) = 0 for l >= 1); l[i] is free.  Past it,
    every l[v+1] <= k[v], since a series term with a negative exponent
    vanishes, except when the power is n = -1 (l[i-1] = k[i-1], l[i] = 0):
    then 1/T_i needs l[i+1] > k[i] instead.  Summand 0 has no head.
    """
    r, w = len(k), weight(k)
    for i in range(r):
        head = [(e, e) for e in k[: max(i - 1, 0)]]
        pivot = [] if i == 0 else [(k[i - 1], w) if k[i - 1] else (0, 0)]
        yield head + pivot + [(0, w)] + [(0, k[v]) for v in range(i, r - 1)]
        if i < r - 1:
            pole = [] if i == 0 else [(k[i - 1], k[i - 1])]
            tail = [(0, k[v]) for v in range(i + 1, r - 1)]
            yield head + pole + [(0, 0), (k[i] + 1, w)] + tail


def enumerate_support(k: Index) -> list[tuple[Index, int]]:
    """All l with c<l|k> != 0, in composition order.

    By homogeneity the support sits among compositions of weight(k) into
    length(k) non-negative parts; only those in some `_reachable_boxes`
    box are tested.
    """
    k = tuple(k)
    if len(k) == 0:
        raise ArgumentError("enumerate_support requires a non-empty index")
    _check_weight(k)
    w = weight(k)
    candidates = {l for box in _reachable_boxes(k) for l in _box_compositions(w, box)}
    out = []
    for l in sorted(candidates):
        c = _column_coeff(l, k)
        if c != 0:
            out.append((l, c))
    return out
