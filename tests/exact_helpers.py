"""Exact-algebra helpers that only the tests use.

The shuffle Hopf algebra's deconcatenation coproduct and antipode, whose
convolution identity underlies `emzv.relations.parity_split`; the bilinear
extension of the shuffle product to combinations of words; the weight of
a monomial and of an expression; the residual of an identity; the filter
of monomials with a vanishing length-1 factor; the sign of a parity split
summed afresh at each cut, the reference for `relations.add_split_terms`;
the inverse of `Expression.to_json_dict`; and the reset of every
per-process cache of the exact side.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from emzv import relations, words
from emzv.reduction import REDUCED, rewrite_step
from emzv.relations import Expression, Identity, Monomial, monomial
from emzv.words import Index, as_index, shuffle, weight


def antipode(w: Index) -> tuple[int, Index]:
    """Antipode of a word: sign (-1)^length and the reversed word."""
    w = tuple(w)
    return (-1) ** len(w), w[::-1]


def coproduct(w: Index) -> list[tuple[Index, Index]]:
    """Deconcatenation coproduct: all prefix/suffix splits, in order."""
    w = tuple(w)
    return [(w[:j], w[j:]) for j in range(len(w) + 1)]


def nonzero(combo: Counter) -> Counter:
    """`combo` without its zero coefficients (unary + would also drop the
    negative ones)."""
    return Counter({u: c for u, c in combo.items() if c})


def shuffle_combo(a: Counter, b: Counter) -> Counter:
    """Bilinear extension of `shuffle` to combinations of words, each a
    Counter of word -> int or Fraction coefficient."""
    out = Counter()
    for v, cv in a.items():
        for w, cw in b.items():
            for u, n in shuffle(v, w):
                out[u] += cv * cw * n
    return nonzero(out)


def antipode_convolution(w: Index) -> Counter:
    """Sum over splits of prefix shuffled with antipode of suffix.

    Vanishes identically for every non-empty word; this is the Hopf-algebra
    identity behind the parity splitting of values.
    """
    out = Counter()
    for pre, suf in coproduct(w):
        sign, rev = antipode(suf)
        for u, c in shuffle(pre, rev):
            out[u] += sign * c
    return nonzero(out)


def monomial_weight(mon: Monomial) -> int:
    return sum(weight(a) for a in mon)


def homogeneous_weight(expr: Expression) -> int | None:
    """The weight shared by every monomial of `expr`, or None if they differ
    (or `expr` is zero)."""
    weights = {monomial_weight(m) for m, _ in expr.items()}
    return weights.pop() if len(weights) == 1 else None


def is_weight_homogeneous(expr: Expression) -> bool:
    return len({monomial_weight(m) for m, _ in expr.items()}) <= 1


def residual(ident: Identity) -> Expression:
    return ident.lhs - ident.rhs


def has_odd_singleton(mon: Monomial) -> bool:
    """True when a factor is a length-1 index of odd weight (that value vanishes)."""
    return any(len(a) == 1 and a[0] % 2 for a in mon)


def drop_odd_singletons(expr: Expression) -> Expression:
    """Remove monomials with a length-1 odd-weight factor (those values vanish)."""
    return Expression.collect((m, c) for m, c in expr.items() if not has_odd_singleton(m))


def split_sign(k: Index, i: int) -> int:
    """Sign (-1)^{k_{i+1}+...+k_r + r - i} attached to the split after place i."""
    return -1 if (sum(k[i:]) + len(k) - i) % 2 else 1


def expression_from_json_dict(data: dict) -> Expression:
    """Inverse of `Expression.to_json_dict`."""
    return Expression.collect(
        (monomial(as_index(a) for a in t["atoms"]), Fraction(t["coef"])) for t in data["terms"]
    )


def clear_exact_caches() -> None:
    """Empty every per-process cache and memo of the exact side, so the next
    reduction runs cold."""
    rewrite_step.cache_clear()
    REDUCED.clear()
    shuffle.cache_clear()
    for module in (words, relations):
        for memo in vars(module).values():
            if isinstance(memo, words.Memo):
                memo.clear()
