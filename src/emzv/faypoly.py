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
u_{r-1}, summand i of u_1 ... u_r P_l is

    (-1)^{l_i-1} u^e T_{i-1}^{l_{i-1}-1} T_i^{l_i-1},
    u^e = u_0^{l_0} ... u_{i-2}^{l_{i-2}} u_{i-1} u_i^{l_{i+1}} ... u_{r-2}^{l_{r-1}} u_{r-1},

where every exponent is at least -1.  Expand it in iterated Laurent series,
u_0 >> u_1 >> ... >> u_{r-1}, with

    T_{i-1}^p = sum_j C(p, j) u_{i-1}^{p-j} T_i^j,     C(-1, j) = (-1)^j,
    1/T_v     = sum_t (-1)^t u_v^{-1-t} T_{v+1}^t.

The exponent of u_{i-1} in k fixes j and that of u_v fixes t, so the
summand's u^k coefficient is one binomial times one multinomial.  Laurent
expansion is an injective ring map and the sum of the summands is a
polynomial, so these coefficients add up to c<l|k> with no division.

The exact polynomial they are tested against lives in `tests/fay_reference.py`.
"""

from __future__ import annotations

from itertools import product
from math import comb, factorial
from typing import Iterator

from .words import ArgumentError, Index, weight

#: Largest column weight `c_coeff` and `enumerate_support` accept: an input
#: limit, not a field width.  The arithmetic is exact at any weight, but a
#: support search may visit up to C(w + r - 1, r - 1) compositions of weight w.
MAX_WEIGHT = 255


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
