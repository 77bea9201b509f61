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

`enumerate_support` and `c_coeff` read the coefficients without building
any polynomial.  With 0-based variables and suffix forms T_v = u_v + ... +
u_{r-1}, summand i of u_1 ... u_r P_l is

    (-1)^{l_i-1} u^e T_{i-1}^{l_{i-1}-1} T_i^{l_i-1},
    u^e = u_0^{l_0} ... u_{i-2}^{l_{i-2}} u_{i-1} u_i^{l_{i+1}} ... u_{r-2}^{l_{r-1}} u_{r-1},

where every exponent is at least -1.  Expand it in iterated Laurent series,
u_0 >> u_1 >> ... >> u_{r-1}, with

    T_{i-1}^p = sum_j C(p, j) u_{i-1}^{p-j} T_i^j,     C(-1, j) = (-1)^j,
    1/T_v     = sum_t (-1)^t u_v^{-1-t} T_{v+1}^t.

Laurent expansion is an injective ring map and the sum of the summands is a
polynomial, so the summands' u^k coefficients add up to c<l|k> with no
division.  Summand i reaches u^k only if l agrees with k before place
i - 1.  Its coefficient is then one binomial C(l_{i-1} - 1, j), with
j = l_{i-1} - k_{i-1} (none for i = 0), times the coefficient of u^t in
T_i^n, where t_v = k_v - l_{v+1} for i <= v < r - 1, t_{r-1} = k_{r-1} - 1
and n = j + l_i - 1 (l_0 - 1 for i = 0) is the sum of the t_v.  For n >= 0
that is the multinomial n! / prod t_v!, nonzero only when every t_v >= 0,
that is l_{v+1} <= k_v.  At the pole n = -1 (j = 0 and l_i = 0) it is
(-1)^{n'} times the multinomial of the later t_v, whose sum is n', and
l_{i+1} = k_i + 1 + n'.

`enumerate_support` turns this around.  For a fixed k it walks each
summand's box once: the entries l_{v+1} in [0, k_v], built right to left
as tails that the summands share, each with its running multinomial, and
then the pivot j.  Every term is added into one dict, where the summands'
terms cancel to the support.  `c_coeff` is the same walk over the box of
one l.

The exact polynomial they are tested against lives in `tests/fay_reference.py`.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from .words import ArgumentError, Index, as_index, weight

#: Largest column weight `c_coeff` and `enumerate_support` accept: an input
#: limit, not a field width.  The arithmetic is exact at any weight, but the
#: walk of k visits at most r (weight(k) + 3) prod_v (k_v + 1) terms.
MAX_WEIGHT = 255


def _column(k) -> Index:
    """`k` as an index, checked to be a non-empty column of the table."""
    k = as_index(k)
    if len(k) == 0:
        raise ArgumentError("a Fay column needs a non-empty index")
    if weight(k) > MAX_WEIGHT:
        raise ArgumentError(f"weight {weight(k)} exceeds {MAX_WEIGHT}")
    return k


def _walk(k: Index, lo: Index, hi: Index) -> dict[Index, int]:
    """Every nonzero summand term of the u^k coefficients c<l|k>, summed
    per l, for the l of length(k) with lo <= l <= hi entrywise; a sum that
    cancels to 0 is kept."""
    r = len(k)
    if k[-1] == 0:
        # t_{r-1} = -1: only the pole of summand r - 1, at l = k, survives.
        inside = all(a <= e <= b for a, e, b in zip(lo, k, hi))
        return {k: -1} if inside else {}
    # tails[s - 1]: (l[s:], n, multinomial of u^t in T^n) for s = 1..r, where
    # t holds t_v = k_v - l_{v+1} for v >= s - 1 and t_{r-1} = k_{r-1} - 1.
    tails = [[((), k[-1] - 1, 1)]]
    for s in range(r - 1, 0, -1):
        e, level = k[s - 1], []
        for x in range(lo[s], min(hi[s], e) + 1):
            t = e - x
            level += [((x,) + tail, n + t, m * comb(n + t, t)) for tail, n, m in tails[-1]]
        tails.append(level)
    tails.reverse()
    out: dict[Index, int] = {}
    get = out.get
    for i in range(r):
        if i >= 2 and not lo[i - 2] <= k[i - 2] <= hi[i - 2]:
            break  # summand i and the later ones need l[:i-1] == k[:i-1]
        if i == 0:  # summand 0, n >= 0: l_0 = n + 1
            for tail, n, m in tails[0]:
                if lo[0] <= n + 1 <= hi[0]:
                    l = (n + 1,) + tail
                    out[l] = get(l, 0) + (-m if n % 2 else m)
        else:  # summand i, n >= 0: l_{i-1} = k_{i-1} + j, l_i = n + 1 - j
            pre, a = k[: i - 1], k[i - 1]
            for tail, n, m in tails[i]:
                # a = 0 admits j = 0 alone: C(l - 1, l) = 0 for l >= 1.
                top = min(hi[i - 1] - a, n + 1 - lo[i], n + 1 if a else 0)
                for j in range(max(lo[i - 1] - a, n + 1 - hi[i], 0), top + 1):
                    c = comb(a + j - 1, j) * m if a else m
                    l = pre + (a + j, n + 1 - j) + tail
                    out[l] = get(l, 0) + (-c if (n - j) % 2 else c)
        if i < r - 1 and lo[i] == 0 and (i == 0 or lo[i - 1] <= k[i - 1] <= hi[i - 1]):
            # the pole of summand i: l = k[:i] + (0, k_i + 1 + n') + tail
            pre, b = k[:i] + (0,), k[i] + 1
            for tail, n, m in tails[i + 1]:
                if lo[i + 1] <= b + n <= hi[i + 1]:
                    l = pre + (b + n,) + tail
                    out[l] = get(l, 0) + (m if n % 2 else -m)
    return out


def c_coeff(l: Index, k: Index) -> int:
    """Coefficient of u_1^{k_1} ... u_r^{k_r} in u_1 ... u_r P_l."""
    l = as_index(l)
    k = _column(k)
    if len(l) != len(k):
        raise ArgumentError(f"index length mismatch: {len(l)} vs {len(k)}")
    if weight(l) != weight(k):
        return 0
    return _walk(k, l, l).get(l, 0)


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


def enumerate_support(k: Index) -> list[tuple[Index, int]]:
    """All (l, c<l|k>) with c<l|k> != 0, in composition order: the walk of
    every summand over its box, with the cancelled sums left out."""
    k = _column(k)
    w, r = weight(k), len(k)
    return sorted(item for item in _walk(k, (0,) * r, (w,) * r).items() if item[1])
