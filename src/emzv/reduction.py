"""Rewrite any value I(k) into admissible and {0,1}-index generators.

Each non-terminal atom is rewritten by one of five exact identities, chosen
by the shape of its index:

  reflect        last entry 1, first entry >= 2: reverse with sign.
  trailing_ones  last entry 1, first entry in {0,1}: shuffle the ones inward.
  parity_split   even weight + length: split into shorter products.
  odd_fay_split  odd parity, first 1, last >= 2: the Fay relations on k and
                 on k with a zero spliced before its last entry, combined
                 through parity splits of both sides; the net effect replaces
                 the last entry by 0 and leaves otherwise shorter or
                 admissible factors.
  zero_rotation  odd parity, first 1, last 0: parity-split the index with a
                 leading zero attached and solve for I(k) using I(0) = 1;
                 the head zero moves the rightmost entry >= 2 one place
                 further right.

Termination is enforced through an explicit well-founded measure checked at
every step; a violation raises FuelExhausted instead of looping.  A row is
its trace substituted in increasing measure order, which that check makes
children-first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import attrgetter

from .faypoly import enumerate_support
from .relations import Expression, add_split_terms, parity_split, trailing_ones
from .words import (
    ArgumentError,
    Index,
    PreconditionError,
    as_index,
    is_admissible,
    is_zero_one,
    parity_is_even,
    reflection_sign,
    word_key,
)

DEFAULT_FUEL = 10_000

#: The reduced expression of every non-terminal atom that a successful
#: `reduce_index` has met in this process; it depends on the atom alone.
REDUCED: dict[Index, Expression] = {}


class FuelExhausted(RuntimeError):
    """The rewrite loop ran out of fuel or the measure failed to decrease."""

    def __init__(self, message: str, trace: "ReductionTrace | None" = None):
        super().__init__(message)
        self.trace = trace


def is_terminal(k: Index) -> bool:
    return is_admissible(k) or is_zero_one(k)


def measure(k: Index) -> tuple[int, int, int, int]:
    """Well-founded measure: (length, #entries >= 2, rightmost >= 2 position
    from the right (1-based, 0 if none), last entry == 1)."""
    big = [i for i, e in enumerate(k) if e >= 2]
    pos = len(k) - big[-1] if big else 0
    return (len(k), len(big), pos, 1 if (k and k[-1] == 1) else 0)


@dataclass(frozen=True)
class ReductionStep:
    """I(index) = rhs, the rewrite of the non-terminal atom `index` by `rule`.

    Derived once from those at construction, and left out of equality and
    hashing: `children`, the non-terminal atoms of the rhs in `word_key`
    order; `violation`, the first child whose measure is not below the
    atom's, or None; and `order`, the key `(measure, word_key)` of the atom
    that sorts a trace.  With no violation every child's `order` is below
    the atom's, so substituting steps in increasing `order` reduces every
    child before its parent.
    """

    rule: str
    index: Index
    rhs: Expression
    children: tuple[Index, ...] = field(init=False, compare=False, repr=False)
    violation: Index | None = field(init=False, compare=False, repr=False)
    order: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # `not is_terminal(a)` inline: an rhs atom is never empty, so it is
        # non-terminal when it has a boundary 1 and an entry above 1.  Only
        # those atoms enter the set, read straight off the rhs monomials.
        children = tuple(
            sorted(
                {
                    a
                    for mon in self.rhs._terms
                    for a in mon
                    if (a[0] == 1 or a[-1] == 1) and max(a) > 1
                },
                key=word_key,
            )
        )
        # A shorter child's measure is below the bound without computing it.
        bound, r = measure(self.index), len(self.index)
        violation = next((c for c in children if len(c) >= r and measure(c) >= bound), None)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "violation", violation)
        object.__setattr__(self, "order", (bound, word_key(self.index)))


@dataclass
class ReductionTrace:
    start: Index
    steps: list[ReductionStep]

    def replay(self) -> Expression:
        """Re-apply the recorded steps top-down from the starting atom, one
        at a time in decreasing `order`: the reference for `reduce_index`,
        which substitutes the same steps in increasing `order`."""
        expr = Expression.atom(self.start)
        for step in self.steps:
            expr = expr.substitute({step.index: step.rhs})
        return expr


def _odd_fay_split(k: Index) -> Expression:
    """Odd-parity step for k = (1, k_2, ..., k_r) with k_r >= 2.

    Combining the Fay relation on k' = (1, k_2, ..., k_{r-1}, 0, k_r) (whose
    coefficients reduce to those of k), parity splits of k' and of every
    (s, 0) in the support, and the Fay relation on k itself yields

        I(k) = - sum_{i=1}^{r}   sign_i(k') I(k'_{<=i}) I(k'_{>i})
               - sum_s c<s|k> sum_{i=1}^{r-1} sign_i((s,0)) I(s_{<=i}) I(s_{>i}, 0)

    after substituting I(0) = 1.  Monomials with a single odd entry factor
    are dropped (those values vanish by reflection); in particular the i = 1
    terms of the first sum carry I(1) and always vanish, and surviving i = 1
    terms of the second sum have an admissible second factor.
    """
    r = len(k)
    nums: dict = {}
    add_split_terms(nums, k[:-1] + (0, k[-1]), 1, r + 1, -1)
    for s, c in enumerate_support(k):
        add_split_terms(nums, s + (0,), 1, r, -c)
    return Expression._from_numerators(nums, 1)


def _zero_rotation(k: Index) -> Expression:
    """Odd-parity step for k = (1, k_2, ..., k_{r-1}, 0).

    Parity-splitting ext = (0, k) (even parity) isolates the product
    I(0) I(k); solving with I(0) = 1 gives

        I(k) = 2 I(0, k) + sum_{i=2}^{r} sign_i(ext) I(ext_{<=i}) I(ext_{>i}).

    The atom I(0, k) is admissible, and the only child of full length has
    its rightmost entry >= 2 one position further right than in k.
    """
    ext = (0,) + k
    nums = {(ext,): 2}
    add_split_terms(nums, ext, 2, len(k) + 1, 1)
    return Expression._from_numerators(nums, 1)


@functools.lru_cache(maxsize=None)
def rewrite_step(k: Index) -> ReductionStep:
    """Select and build the step rewriting the non-terminal atom k."""
    if is_terminal(k):
        raise PreconditionError(f"atom {k} is already terminal")
    if k[-1] == 1:
        if k[0] >= 2:
            return ReductionStep("reflect", k, Expression.atom(k[::-1], reflection_sign(k)))
        return ReductionStep("trailing_ones", k, trailing_ones(k).rhs)
    if parity_is_even(k):
        return ReductionStep("parity_split", k, parity_split(k).rhs)
    # odd parity with last entry != 1 and non-admissible forces first entry 1
    assert k[0] == 1, k
    if k[-1] >= 2:
        return ReductionStep("odd_fay_split", k, _odd_fay_split(k))
    return ReductionStep("zero_rotation", k, _zero_rotation(k))


def _ordered_steps(immediate: dict[Index, ReductionStep]) -> list[ReductionStep]:
    """The recorded steps in decreasing `order`: (measure, word_key)."""
    return sorted(immediate.values(), key=attrgetter("order"), reverse=True)


def _discover(start: Index, atom: Index, immediate: dict[Index, ReductionStep], fuel: int) -> None:
    """Record the step of the unseen non-terminal atom in `immediate`, then
    its children's.  On running out of fuel or a measure that fails to
    decrease, raise FuelExhausted with the partial trace of `start`."""
    if len(immediate) >= fuel:
        raise FuelExhausted(
            f"fuel exhausted after {len(immediate)} rule applications reducing {start}",
            ReductionTrace(start, _ordered_steps(immediate)),
        )
    step = rewrite_step(atom)
    if step.violation is not None:
        raise FuelExhausted(
            f"termination measure did not decrease at {atom} -> {step.violation}",
            ReductionTrace(start, _ordered_steps(immediate)),
        )
    immediate[atom] = step
    for child in step.children:
        if child not in immediate:
            _discover(start, child, immediate, fuel)


def reduce_index(k: Index, fuel: int = DEFAULT_FUEL) -> tuple[Expression, ReductionTrace]:
    """Rewrite I(k) into an expression over admissible and {0,1} atoms.

    Every distinct non-terminal atom below k is rewritten exactly once by
    its dispatch rule, and the trace lists those steps in decreasing
    `order`.  The discovery runs first on every call, so the trace, the fuel
    count and the measure check do not depend on what `REDUCED` holds.  The
    row is then the trace substituted in increasing `order`: the measure
    check makes every child come before its parent, so each step's children
    are in `REDUCED` when the step is substituted.  Atoms already stored are
    skipped, and a warm row is one dict read.  `replay()` reproduces the
    row top-down.

    Raises FuelExhausted (with the partial trace attached) if the number of
    rule applications exceeds `fuel` or the termination measure fails to
    decrease, either of which would signal a convention bug, never a silent
    loop.  A failed reduction stores nothing in `REDUCED`.
    """
    if fuel <= 0:
        raise ArgumentError(f"fuel must be positive, got {fuel}")
    k = as_index(k)
    if is_terminal(k):
        return Expression.atom(k), ReductionTrace(k, [])
    immediate: dict[Index, ReductionStep] = {}
    _discover(k, k, immediate, fuel)
    steps = _ordered_steps(immediate)
    if k not in REDUCED:
        for step in reversed(steps):
            if step.index not in REDUCED:
                REDUCED[step.index] = step.rhs.substitute({c: REDUCED[c] for c in step.children})
    return REDUCED[k], ReductionTrace(k, steps)
