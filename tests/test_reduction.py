import dataclasses
import gc
import hashlib
import inspect
import json
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import emzv
from emzv import reduction
from emzv.faypoly import compositions
from emzv.numerics import Evaluator
from emzv.reduction import (
    FuelExhausted,
    ReductionStep,
    is_terminal,
    measure,
    reduce_index,
    rewrite_step,
)
from emzv.relations import Expression, monomial
from emzv.words import (
    PreconditionError,
    is_admissible,
    is_zero_one,
    reflection_sign,
    weight,
    word_key,
    word_sort_key,
)
from exact_helpers import (
    clear_exact_caches,
    drop_odd_singletons,
    monomial_weight,
    shuffle_combo,
    split_sign,
)
from fay_reference import p_support


def A(*entries, coeff=1):
    return Expression.atom(tuple(entries), coeff)


def all_indices(max_weight, max_length):
    for r in range(max_length + 1):
        for w in range(max_weight + 1):
            yield from compositions(w, r)


def test_terminal_atoms_pass_through():
    for k in [(), (1,), (0, 2), (1, 0), (0, 1, 1), (2, 0, 0, 2)]:
        expr, trace = reduce_index(k)
        assert expr == Expression.atom(k)
        assert trace.steps == []


def test_reduce_two_one():
    expr, trace = reduce_index((2, 1))
    assert [s.rule for s in trace.steps] == ["reflect", "odd_fay_split"]
    expected = (A(0) * A(3, 0)).scale(-1) + (A(2) * A(1, 0)).scale(-1)
    assert expr == expected


def test_reduce_one_two():
    expr, _ = reduce_index((1, 2))
    assert expr == A(0) * A(3, 0) + A(2) * A(1, 0)


def test_reduction_sweep_terminal_and_homogeneous():
    for k in all_indices(5, 4):
        expr, trace = reduce_index(k)
        weights = set()
        for mon, _ in expr.items():
            weights.add(sum(weight(a) for a in mon))
            for atom in mon:
                assert is_admissible(atom) or is_zero_one(atom), (k, atom)
        assert len(weights) <= 1
        if weights:
            assert weights == {weight(k)}, k


def test_replay_reproduces_final():
    for k in [(1, 2), (2, 1), (1, 2, 2), (1, 3, 1, 0), (0, 0, 2, 1), (1, 1, 1, 2)]:
        expr, trace = reduce_index(k)
        assert trace.replay() == expr, k


def test_measure_decreases_along_steps():
    for k in [(1, 2, 2), (1, 3, 1, 0), (2, 1, 0, 1)]:
        _, trace = reduce_index(k)
        for step in trace.steps:
            for atom in step.rhs.atoms():
                if not is_terminal(atom):
                    assert measure(atom) < measure(step.index), (step.index, atom)


def test_fuel_exhausted():
    with pytest.raises(FuelExhausted) as info:
        reduce_index((1, 2, 2, 3), fuel=2)
    assert info.value.trace is not None
    with pytest.raises(ValueError):
        reduce_index((1, 2), fuel=0)


def test_fuel_exhausted_with_warm_cache():
    k = (1, 2, 2, 3)
    expr, trace = reduce_index(k)
    assert k in reduction.REDUCED
    with pytest.raises(FuelExhausted):
        reduce_index(k, fuel=len(trace.steps) - 1)
    assert reduce_index(k, fuel=len(trace.steps))[0] == expr


@st.composite
def small_indices(draw, max_weight=7, max_length=4):
    """An index of length <= max_length and weight <= max_weight."""
    out = []
    for _ in range(draw(st.integers(0, max_length))):
        out.append(draw(st.integers(0, max_weight - sum(out))))
    return tuple(out)


@given(k=small_indices())
@settings(deadline=None)
def test_reduction_yields_terminal_atoms_of_the_same_weight(k):
    expr, _ = reduce_index(k)
    for mon, _ in expr.items():
        assert all(is_terminal(a) for a in mon), (k, mon)
        assert monomial_weight(mon) == weight(k), (k, mon)


@given(k=small_indices())
@settings(deadline=None)
def test_fuel_one_suffices_exactly_for_one_step(k):
    expr, trace = reduce_index(k)
    if len(trace.steps) > 1:
        with pytest.raises(FuelExhausted):
            reduce_index(k, fuel=1)
    else:
        assert reduce_index(k, fuel=1)[0] == expr


def test_reduced_atom_cache_is_transparent():
    indices = list(all_indices(6, 4))
    cold = {}
    for k in indices:
        reduction.REDUCED.clear()
        cold[k] = reduce_index(k)
        # replay substitutes the recorded rules one at a time, without the cache
        assert cold[k][1].replay() == cold[k][0], k
    reduction.REDUCED.clear()
    for k in reversed(indices):
        reduce_index(k)
    for k in indices:
        expr, trace = reduce_index(k)
        assert expr == cold[k][0], k
        assert trace.steps == cold[k][1].steps, k


def test_cold_reduction_recurses_within_a_small_stack():
    # (1, 1, 3, 2, 1) has a rule DAG 12 atoms deep; reduce_index discovers
    # and substitutes the whole of it in one call, from cold caches.
    k = (1, 1, 3, 2, 1)
    clear_exact_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        expr, trace = reduce_index(k)
    finally:
        sys.setrecursionlimit(limit)
    assert expr == trace.replay()
    assert reduce_index(k) == (expr, trace)


def test_rewrite_step_dispatch():
    assert rewrite_step((2, 1)).rule == "reflect"
    assert rewrite_step((0, 2, 1)).rule == "trailing_ones"
    assert rewrite_step((1, 2, 1)).rule == "trailing_ones"
    assert rewrite_step((1, 3)).rule == "parity_split"
    assert rewrite_step((1, 2)).rule == "odd_fay_split"
    assert rewrite_step((1, 2, 0, 0)).rule == "zero_rotation"
    with pytest.raises(PreconditionError, match=r"atom \(0, 2\) is already terminal"):
        rewrite_step((0, 2))


def test_zero_rotation_identity_numeric():
    ev = Evaluator(1j)
    for k in [(1, 2, 0, 0), (1, 3, 0)]:
        step = rewrite_step(k)
        assert step.rule == "zero_rotation"
        res = ev.eval_expression(Expression.atom(k)) - ev.eval_expression(step.rhs)
        assert abs(res) < 1e-6, k


def test_odd_fay_split_identity_numeric():
    ev = Evaluator(1j)
    for k in [(1, 2), (1, 1, 2), (1, 2, 0, 2), (1, 0, 0, 2)]:
        step = rewrite_step(k)
        assert step.rule == "odd_fay_split"
        res = ev.eval_expression(Expression.atom(k)) - ev.eval_expression(step.rhs)
        assert abs(res) < 1e-6, k


def test_zero_rotation_congruence():
    # For odd-parity k = (1, k2, ..., 0) with rot = (0, 1, k2, ..., k_{r-1}),
    # the rotation identity refines the congruence I(k) = -I(rot) modulo
    # admissible values and products of strictly shorter values: removing the
    # admissible atom (0, k) and the I(rot) I(0) monomial must leave only
    # products of at least two factors, all shorter than k.
    for k in [(1, 2, 0, 0), (1, 3, 0), (1, 2, 0, 1, 0)]:
        r = len(k)
        step = rewrite_step(k)
        assert step.rule == "zero_rotation"
        rot = (0,) + k[:-1]
        leftover = (
            step.rhs
            - Expression.atom((0,) + k, 2)
            + Expression.atom(rot) * Expression.atom((0,))
        )
        for mon, _ in leftover.items():
            assert len(mon) >= 2, (k, mon)
            assert all(len(atom) <= r - 1 for atom in mon), (k, mon)


def test_verify_reduction_generic_tau():
    # Every index of weight <= 4, length <= 3 at a generic tau, and I(0, 0),
    # I(2, 1) at i and I(1, 2, 2) at 2i: the reduction has the direct value.
    for tau, indices in ((0.3 + 1.7j, all_indices(4, 3)), (1j, [(0, 0), (2, 1)]), (2j, [(1, 2, 2)])):
        ev = Evaluator(tau)
        for k in indices:
            expr, _ = reduce_index(k)
            assert abs(ev.value(k) - ev.eval_expression(expr)) < 1e-6, (tau, k)
    assert abs(Evaluator(1j).value((0, 0)) - 0.5) < 1e-10


# sha256 over "index<TAB>sha256(expression json)" lines of the cold population
# below, in canonical index order; the same digest the benchmark's
# reduce-cold workload checks.
COLD_POPULATION_SHA256 = "c389db4385ed4252b6cd4d415a209de02e79adcd99f36bed594de09275ab4e8f"


def test_cold_population_digest():
    # Every non-terminal index with weight <= 7 and length <= 4, plus those
    # with weight <= 5 and length 5 (285), each reduced with every cache cold.
    population = [
        k
        for k in all_indices(7, 5)
        if k and (len(k) <= 4 or sum(k) <= 5) and not is_terminal(k)
    ]
    assert len(population) == 285
    lines = []
    for k in population:
        clear_exact_caches()
        expr, _ = reduce_index(k)
        digest = hashlib.sha256(json.dumps(expr.to_json_dict(), sort_keys=True).encode())
        lines.append(f"{','.join(map(str, k))}\t{digest.hexdigest()}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == COLD_POPULATION_SHA256


def test_cold_reductions_leave_no_reference_cycles():
    # reduce_index passes its state explicitly instead of through closures,
    # so reference counting alone frees what a reduction leaves behind.
    indices = [(2, 1), (1, 1, 2), (2, 1, 1), (1, 0, 3), (1, 2, 0, 2), (1, 2, 0, 2, 3)]
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for k in indices:
            clear_exact_caches()
            reduce_index(k)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_reduced_monomials_are_interned_and_rendered_once():
    # One process reduces every index of weight <= 7 and length <= 5: equal
    # monomials of all the reduced atoms are one object, and each row's
    # memoised JSON is the json module's.
    clear_exact_caches()
    monomials = []
    for k in all_indices(7, 5):
        expr, _ = reduce_index(k)
        assert expr.terms_json() == json.dumps(expr.to_json_dict()["terms"], sort_keys=True), k
        if not is_terminal(k):
            monomials += reduction.REDUCED[k]._terms
    assert len({id(m) for m in monomials}) == len(set(monomials)) > 1000


def test_steps_carry_their_children_and_measure_check():
    for k in all_indices(8, 5):
        if is_terminal(k):
            continue
        step = rewrite_step(k)
        nonterminal = [a for a in step.rhs.atoms() if not is_terminal(a)]
        assert step.children == tuple(sorted(nonterminal, key=word_sort_key)), k
        late = [c for c in step.children if measure(c) >= measure(k)]
        assert step.violation == (late[0] if late else None), k
        assert step.order == (measure(k), word_key(k)), k


@given(st.lists(st.integers(0, 4), min_size=1, max_size=6).map(tuple))
@example((1,))
@example((1, 0, 1))
@example((1, 1))
@example((0, 1, 0))
@example((1, 0, 2))
@example((3, 0, 1))
def test_inline_child_predicate_is_not_terminal(a):
    # `ReductionStep.__post_init__` picks its children with this predicate
    # in place of `not is_terminal(a)`; an rhs atom is never empty.
    assert ((a[0] == 1 or a[-1] == 1) and max(a) > 1) == (not is_terminal(a))


def test_hand_built_step_carries_its_measure_check():
    # (1, 1, 2) lies below (1, 2, 0) in measure, (1, 3, 0) does not, and
    # the terminal (1, 1, 0) is no child.
    rhs = A(1, 3, 0) + A(1, 1, 2) + A(1, 1, 0)
    step = ReductionStep("bogus", (1, 2, 0), rhs)
    assert step.children == ((1, 1, 2), (1, 3, 0))
    assert step.violation == (1, 3, 0)
    assert step == ReductionStep("bogus", (1, 2, 0), step.rhs)


@pytest.mark.parametrize("warm", [False, True])
def test_trace_steps_in_decreasing_measure_order(warm):
    for k in all_indices(6, 5):
        if not warm:
            clear_exact_caches()
        _, trace = reduce_index(k)
        keys = [(measure(s.index), word_sort_key(s.index)) for s in trace.steps]
        assert keys == sorted(keys, reverse=True), k
        assert len(set(keys)) == len(keys), k
        assert not trace.steps or trace.steps[0].index == k


def _cold_reduction(k):
    clear_exact_caches()
    cold = reduce_index(k)
    clear_exact_caches()
    return cold


def _assert_next_reduction_is_cold(k, cold):
    expr, trace = reduce_index(k)
    assert (expr, trace) == cold
    assert trace.replay() == expr


def test_measure_violation_raises_with_partial_trace(monkeypatch):
    # (1, 1, 2, 0) parity-splits with first non-terminal child (1, 2, 0); a
    # bogus step sends that child to (1, 3, 0), whose measure is the same.
    start, child, bogus = (1, 1, 2, 0), (1, 2, 0), (1, 3, 0)
    cold = _cold_reduction(start)
    real = rewrite_step
    assert real(start).children[0] == child
    assert not is_terminal(bogus) and measure(bogus) == measure(child)
    fake = ReductionStep("parity_split", child, Expression.atom(bogus))
    monkeypatch.setattr(reduction, "rewrite_step", lambda k: fake if k == child else real(k))
    with pytest.raises(FuelExhausted) as info:
        reduce_index(start)
    assert reduction.REDUCED == {}
    monkeypatch.undo()
    message = str(info.value)
    assert "measure did not decrease" in message
    assert str(child) in message and str(bogus) in message
    assert info.value.trace.start == start
    assert info.value.trace.steps == [real(start)]
    _assert_next_reduction_is_cold(start, cold)


def test_failed_reduction_stores_nothing():
    # Discovery runs out of fuel before any step is substituted.
    k = (1, 1, 3, 2, 1)
    cold = _cold_reduction(k)
    with pytest.raises(FuelExhausted):
        reduce_index(k, fuel=1)
    assert reduction.REDUCED == {}
    _assert_next_reduction_is_cold(k, cold)


# Names deleted from `emzv.reduction`: the recursive reduction of one atom,
# whose lru_cache the per-process `REDUCED` dict replaced.
REMOVED_REDUCTION_NAMES = ("reduced_atom",)


def test_removed_reduction_names_stay_removed():
    for name in REMOVED_REDUCTION_NAMES:
        assert name not in emzv.__all__ and not hasattr(reduction, name), name
    assert [f.name for f in dataclasses.fields(ReductionStep) if f.init] == ["rule", "index", "rhs"]


def _reference_rhs(step: ReductionStep) -> Expression:
    """The step's rhs from its defining formula, through Fraction
    coefficients, `Expression.collect` and `drop_odd_singletons`, with the
    Fay support read from the polynomial reference and each split sign
    summed afresh."""
    k, r = step.index, len(step.index)
    if step.rule == "reflect":
        return Expression.collect([(monomial([k[::-1]]), Fraction(reflection_sign(k)))])
    if step.rule == "trailing_ones":
        n = max(i for i, e in enumerate(k) if e != 1) + 1
        combo = Counter([k[: n - 1]])
        for _ in range(r - n):
            combo = shuffle_combo(Counter([(1,)]), combo)
        scale = Fraction((-1) ** (r - n), math.factorial(r - n))
        return Expression.collect((monomial([w + (k[n - 1],)]), c * scale) for w, c in combo.items())
    if step.rule == "parity_split":
        return Expression.collect(
            (monomial((k[:i], k[i:])), Fraction(-split_sign(k, i), 2)) for i in range(1, r)
        )
    if step.rule == "odd_fay_split":
        kp = k[:-1] + (0, k[-1])
        pairs = [(monomial((kp[:i], kp[i:])), -split_sign(kp, i)) for i in range(1, r + 1)]
        for s, c in p_support(k):
            s0 = s + (0,)
            pairs += [(monomial((s[:i], s0[i:])), -c * split_sign(s0, i)) for i in range(1, r)]
    else:
        assert step.rule == "zero_rotation", step.rule
        ext = (0,) + k
        pairs = [(monomial([ext]), 2)]
        pairs += [(monomial((ext[:i], ext[i:])), split_sign(ext, i)) for i in range(2, r + 1)]
    return drop_odd_singletons(Expression.collect(pairs))


def _canonical_monomial_key(mon):
    return (len(mon), [word_sort_key(a) for a in mon])


def test_rule_identities_in_canonical_integer_form():
    for k in all_indices(8, 5):
        if is_terminal(k):
            continue
        step = rewrite_step(k)
        assert step.index == k
        rhs = step.rhs
        pairs = rhs.numerators()
        nums = [n for _, n in pairs]
        assert all(nums) and math.gcd(rhs.den, *nums) == 1, k
        mons = [m for m, _ in pairs]
        assert mons == sorted(mons, key=_canonical_monomial_key), k
        for m in mons:
            assert list(m) == sorted(m, key=word_sort_key), (k, m)
            if step.rule in ("odd_fay_split", "zero_rotation"):
                assert not any(len(a) == 1 and a[0] % 2 for a in m), (k, m)
        assert rhs == _reference_rhs(step), k


# sha256 of one line "k<TAB>rule<TAB>children<TAB>rhs terms JSON" per
# non-terminal k of length 6 and weight <= 8 and of length 7 and weight
# <= 8, in composition order, each step built cold; recorded before the
# support walk and the one-pass split terms: 4200 lines.
GOLDEN_STEPS_SHA256 = "7e458d7eb7aee1967144e12ce0e1d62ce4b0ebcfc67b37654aa5b95513a02d7d"


def test_rewrite_steps_golden_digest_lengths_six_and_seven():
    clear_exact_caches()
    lines = []
    for r in (6, 7):
        for w in range(9):
            for k in compositions(w, r):
                if is_terminal(k):
                    continue
                step = rewrite_step(k)
                children = ";".join(",".join(map(str, c)) for c in step.children)
                k_text = ",".join(map(str, k))
                lines.append(f"{k_text}\t{step.rule}\t{children}\t{step.rhs.terms_json()}\n")
    assert len(lines) == 4200
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == GOLDEN_STEPS_SHA256
