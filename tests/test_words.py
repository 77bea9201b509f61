import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emzv.relations import MONOMIAL_KEYS, Expression, monomial, monomial_sort_key
from emzv.words import (
    MAX_ENTRY,
    WORD_KEYS,
    ArgumentError,
    as_index,
    format_index,
    is_admissible,
    is_zero_one,
    parity_is_even,
    parse_index,
    reflection_sign,
    shuffle,
    weight,
    word_int_key,
    word_key,
    word_sort_key,
)
from exact_helpers import antipode, antipode_convolution, coproduct, shuffle_combo


def brute_shuffle(v, w):
    """Independent oracle: place v at every choice of positions, w elsewhere."""
    n, m = len(v), len(w)
    out = Counter()
    for positions in itertools.combinations(range(n + m), n):
        word = [None] * (n + m)
        for letter, pos in zip(v, positions):
            word[pos] = letter
        rest = iter(w)
        for i in range(n + m):
            if word[i] is None:
                word[i] = next(rest)
        out[tuple(word)] += 1
    return out


def ref_shuffle(v, w):
    """Shuffle product as a Counter of words, by the recursive rule."""
    if not v or not w:
        return Counter({v + w: 1})
    out = Counter()
    for u, c in ref_shuffle(v[1:], w).items():
        out[(v[0],) + u] += c
    for u, c in ref_shuffle(v, w[1:]).items():
        out[(w[0],) + u] += c
    return out


def assert_shuffle_matches_oracles(v, w):
    """shuffle(v, w) equals both Counter oracles, lists each word once in
    `word_sort_key` order, and has positive int coefficients."""
    pairs = shuffle(v, w)
    assert type(pairs) is tuple
    assert Counter(dict(pairs)) == brute_shuffle(v, w) == ref_shuffle(v, w), (v, w)
    words = [u for u, _ in pairs]
    assert words == sorted(set(words), key=word_sort_key), (v, w)
    assert all(type(n) is int and n > 0 for _, n in pairs), (v, w)


def words_up_to(max_len, max_entry):
    out = [()]
    for r in range(1, max_len + 1):
        out.extend(itertools.product(range(max_entry + 1), repeat=r))
    return out


def test_index_bookkeeping():
    assert weight((1, 2, 0)) == 3
    assert parity_is_even((0, 2))
    assert not parity_is_even((1, 2))
    assert is_admissible(())
    assert is_admissible((0, 1, 2))
    assert not is_admissible((1,))
    assert not is_admissible((2, 1))
    assert is_zero_one((1, 0, 1))
    assert not is_zero_one((2,))
    assert word_sort_key((2,)) < word_sort_key((0, 1))


def test_index_validation():
    with pytest.raises(ArgumentError):
        as_index((-1,))
    with pytest.raises(ArgumentError):
        as_index((2**31,))
    assert as_index([3, 0]) == (3, 0)


@pytest.mark.parametrize("entries", [[2.7, 0.5], (2.0,), "12", ["1"]])
def test_index_rejects_non_integer_entries(entries):
    # A float would be truncated and a string split into digits.
    with pytest.raises(ArgumentError, match="must be integers"):
        as_index(entries)


def test_index_accepts_integer_types():
    np = pytest.importorskip("numpy")
    k = as_index([np.int64(2), True, 0])
    assert k == (2, 1, 0)
    assert all(type(e) is int for e in k)


def test_index_text_roundtrip():
    assert parse_index("1,2,0") == (1, 2, 0)
    assert parse_index("-") == ()
    assert format_index((1, 2, 0)) == "1,2,0"
    assert format_index(()) == "-"
    with pytest.raises(ArgumentError):
        parse_index("1,,2")
    with pytest.raises(ArgumentError):
        parse_index("")


def test_shuffle_base_cases():
    assert shuffle((), ()) == (((), 1),)
    assert shuffle((), (2, 3)) == shuffle((2, 3), ()) == (((2, 3), 1),)
    assert shuffle((0,), (1,)) == (((0, 1), 1), ((1, 0), 1))
    assert shuffle((1,), (1,)) == (((1, 1), 2),)
    assert shuffle((1,), (2, 3)) == (((1, 2, 3), 1), ((2, 1, 3), 1), ((2, 3, 1), 1))


def test_shuffle_against_brute_force():
    words = words_up_to(3, 2)
    for v in words:
        for w in words:
            if len(v) + len(w) > 5:
                continue
            assert_shuffle_matches_oracles(v, w)


def test_shuffle_mass_is_binomial():
    from math import comb

    for v in words_up_to(3, 2):
        for w in words_up_to(2, 2):
            pairs = shuffle(v, w)
            assert sum(c for _, c in pairs) == comb(len(v) + len(w), len(v))
            for word, coeff in pairs:
                assert coeff > 0
                assert sum(word) == weight(v) + weight(w)
                assert len(word) == len(v) + len(w)


def test_shuffle_combo_bilinear():
    w = Counter([(2, 3)])
    assert not shuffle_combo(Counter(), w)
    assert shuffle_combo(Counter([()]), w) == w
    a = Counter([(0,), (1,)])
    b = Counter([(0,)])
    assert shuffle_combo(a, b) == Counter({(0, 0): 2, (0, 1): 1, (1, 0): 1})


def test_shuffle_commutative_exhaustive():
    words = words_up_to(3, 2)
    for v in words:
        for w in words:
            assert shuffle(v, w) == shuffle(w, v)


def test_shuffle_associative():
    small = words_up_to(2, 2)
    for a, b, c in itertools.product(small, repeat=3):
        left = shuffle_combo(Counter(dict(shuffle(a, b))), Counter([c]))
        right = shuffle_combo(Counter([a]), Counter(dict(shuffle(b, c))))
        assert left == right, (a, b, c)
    binary = words_up_to(3, 1)
    for a, b, c in itertools.product(binary, repeat=3):
        left = shuffle_combo(Counter(dict(shuffle(a, b))), Counter([c]))
        right = shuffle_combo(Counter([a]), Counter(dict(shuffle(b, c))))
        assert left == right, (a, b, c)


WORDS = st.lists(st.integers(0, 6), max_size=3).map(tuple)
COMBOS = st.dictionaries(
    WORDS, st.fractions(min_value=-3, max_value=3, max_denominator=5), max_size=3
).map(Counter)


@settings(max_examples=100, deadline=None)
@given(WORDS, WORDS, WORDS)
def test_shuffle_commutative_and_associative(a, b, c):
    assert_shuffle_matches_oracles(a, b)
    assert shuffle(a, b) == shuffle(b, a)
    left = shuffle_combo(Counter(dict(shuffle(a, b))), Counter([c]))
    right = shuffle_combo(Counter([a]), Counter(dict(shuffle(b, c))))
    assert left == right


@settings(max_examples=100, deadline=None)
@given(COMBOS, COMBOS, COMBOS)
def test_shuffle_combo_commutative_and_associative(a, b, c):
    assert shuffle_combo(a, b) == shuffle_combo(b, a)
    assert shuffle_combo(shuffle_combo(a, b), c) == shuffle_combo(a, shuffle_combo(b, c))


KEYS = st.sampled_from(
    [(), ((0,),), ((2,),), ((1,), (2,)), ((2,), (2,)), ((1, 0), (3,))]
).map(monomial)
COEFFS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_collect_matches_dict_reference(data):
    pairs = data.draw(st.lists(st.tuples(KEYS, COEFFS), max_size=12))
    # exact cancellations: repeat a prefix of the pairs negated
    pairs += [(k, -c) for k, c in pairs[: data.draw(st.integers(0, len(pairs)))]]
    sums = {k: sum(c for key, c in pairs if key == k) for k, _ in pairs}
    reference = {k: c for k, c in sums.items() if c != 0}
    combo = Expression.collect(pairs)
    assert dict(combo.items()) == reference
    assert len(combo) == len(reference) and (not combo) == (not reference)
    assert all(type(c) is Fraction for _, c in combo.items())
    other = Expression.collect(data.draw(st.lists(st.tuples(KEYS, COEFFS), max_size=6)))
    assert combo + other - other == combo


MONOMIALS = st.lists(WORDS, max_size=3).map(monomial)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_numerators_sort_through_the_key_memos(data):
    combo = Expression(data.draw(st.dictionaries(MONOMIALS, RULE_COEFFS, max_size=8)))
    expected = sorted(combo._terms.items(), key=lambda t: monomial_sort_key(t[0]))
    WORD_KEYS.clear()
    MONOMIAL_KEYS.clear()
    assert combo.numerators() == expected  # cold memos
    assert combo.numerators() == expected  # warm memos
    assert all(MONOMIAL_KEYS[m] == monomial_sort_key(m) for m in list(MONOMIAL_KEYS))


# The largest entry the engine builds: r + s in the length-2 formula.
TOP_ENTRY = 2 * (MAX_ENTRY - 1)
KEY_ENTRIES = st.one_of(
    st.sampled_from([0, 1, 2, TOP_ENTRY - 1, TOP_ENTRY]), st.integers(0, TOP_ENTRY)
)
KEY_WORDS = st.lists(KEY_ENTRIES, max_size=9).map(tuple)


def _same_order(x, y, key_x, key_y, ref_x, ref_y):
    assert (key_x < key_y) == (ref_x < ref_y), (x, y)
    assert (key_x == key_y) == (ref_x == ref_y) == (x == y), (x, y)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_word_key_orders_as_word_sort_key(data):
    a = data.draw(KEY_WORDS)
    # the second word is often a permutation of the first (same length and
    # weight) or of the same length
    same_length = st.lists(KEY_ENTRIES, min_size=len(a), max_size=len(a)).map(tuple)
    b = data.draw(st.one_of(KEY_WORDS, st.permutations(a).map(tuple), same_length))
    for x, y in ((a, b), (b, a), (a, a)):
        _same_order(x, y, word_int_key(x), word_int_key(y), word_sort_key(x), word_sort_key(y))
        assert word_key(x) == word_int_key(x) and type(word_key(x)) is int
    mons = st.lists(KEY_WORDS.filter(len), max_size=4).map(monomial)
    p, q = data.draw(mons), data.draw(mons)
    for x, y in ((p, q), (q, p)):
        ref_x, ref_y = ((len(m), [word_sort_key(w) for w in m]) for m in (x, y))
        _same_order(x, y, monomial_sort_key(x), monomial_sort_key(y), ref_x, ref_y)
        assert all(type(e) is int for e in monomial_sort_key(x))


def test_integer_word_key_extremes():
    top = (TOP_ENTRY,)
    assert word_int_key(()) < word_int_key((0,)) < word_int_key(top) < word_int_key((0, 0))
    assert word_int_key((TOP_ENTRY,) * 9) < word_int_key((0,) * 10)
    assert word_int_key((0, TOP_ENTRY)) < word_int_key((1, TOP_ENTRY - 1))
    for bad in [(2**32,), (0, -1)]:
        with pytest.raises(ArgumentError, match="does not fit"):
            word_int_key(bad)


# Integer core: every Expression holds integer numerators over one
# denominator.  The references below work on plain dicts of Fractions.

# coefficients over denominators 1 to 720, with shared and distinct prime factors
RULE_COEFFS = st.builds(
    Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 6, 24, 120, 720])
)
SCALARS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**15),
)


def assert_canonical(combo):
    """Positive denominator, nonzero int numerators, gcd 1; items() agree."""
    den, nums = combo.den, combo._terms
    assert type(den) is int and den > 0
    assert all(type(n) is int and n != 0 for n in nums.values())
    assert math.gcd(den, *nums.values()) == 1
    assert dict(combo.items()) == {k: Fraction(n, den) for k, n in nums.items()}


def ref_linear(*scaled):
    """Sum of scalar * dict over (scalar, dict) pairs, zeros dropped."""
    out = {}
    for s, terms in scaled:
        for k, c in terms.items():
            out[k] = out.get(k, 0) + s * c
    return {k: c for k, c in out.items() if c != 0}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_combo_arithmetic_matches_fraction_reference(data):
    da = data.draw(st.dictionaries(KEYS, RULE_COEFFS, max_size=5))
    db = data.draw(st.dictionaries(KEYS, RULE_COEFFS, max_size=5))
    s = data.draw(SCALARS)
    a, b = Expression(da), Expression(db)
    cases = [
        (a, ref_linear((1, da))),
        (a + b, ref_linear((1, da), (1, db))),
        (a - b, ref_linear((1, da), (-1, db))),
        (a.scale(s), ref_linear((Fraction(s), da))),
        (a.scale(s) - b.scale(s), ref_linear((Fraction(s), da), (-Fraction(s), db))),
    ]
    for combo, reference in cases:
        assert_canonical(combo)
        assert dict(combo.items()) == reference
        assert all(type(c) is Fraction for _, c in combo.items())
        assert all(combo.coeff(k) == reference.get(k, 0) for k in set(da) | set(db))
    assert sum(c for _, c in a.items()) == sum(da.values(), Fraction(0))


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(WORDS, RULE_COEFFS, max_size=3),
    st.dictionaries(WORDS, RULE_COEFFS, max_size=3),
)
def test_shuffle_combo_with_denominators_matches_reference(da, db):
    reference = Counter()
    for v, cv in da.items():
        for w, cw in db.items():
            for u, c in ref_shuffle(v, w).items():
                reference[u] += cv * cw * c
    product = shuffle_combo(Counter(da), Counter(db))
    assert product == {u: c for u, c in reference.items() if c != 0}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_equal_values_along_different_paths_are_equal_and_hash_alike(data):
    pairs = data.draw(st.lists(st.tuples(KEYS, RULE_COEFFS), max_size=8))
    b = Expression(data.draw(st.dictionaries(KEYS, RULE_COEFFS, max_size=4)))
    s = data.draw(SCALARS.filter(lambda x: x != 0))
    a = Expression.collect(pairs)
    paths = [
        Expression.collect(reversed(pairs)),
        Expression(ref_linear(*((1, {k: c}) for k, c in pairs))),
        a.scale(s).scale(1 / Fraction(s)),
        a.scale(2).scale(Fraction(1, 2)),
        a + b - b,
        (a - b) + b,
        b + a - b,
    ]
    for other in paths:
        assert_canonical(other)
        assert other == a and hash(other) == hash(a)
    zero = a.scale(0)
    zero_expr = Expression.zero()
    assert zero == zero_expr and hash(zero) == hash(zero_expr) and zero.den == 1


def test_antipode():
    assert antipode((2, 3)) == (1, (3, 2))
    assert antipode((1,)) == (-1, (1,))
    assert antipode(()) == (1, ())


def test_coproduct():
    assert coproduct((1, 2)) == [((), (1, 2)), ((1,), (2,)), ((1, 2), ())]
    assert coproduct(()) == [((), ())]
    assert coproduct((5,)) == [((), (5,)), ((5,), ())]


def test_reflection_sign():
    assert reflection_sign((3, 2)) == -1
    assert reflection_sign((0, 0)) == 1
    assert reflection_sign(()) == 1


def test_antipode_convolution_vanishes():
    for w in words_up_to(4, 3):
        if not w:
            continue
        assert not antipode_convolution(w), w


def coproduct_combo(pairs):
    out = Counter()
    for w, c in pairs:
        for pre, suf in coproduct(w):
            out[(pre, suf)] += c
    return {k: v for k, v in out.items() if v != 0}


def test_coproduct_is_shuffle_morphism():
    words = words_up_to(2, 2)
    for v in words:
        for w in words:
            left = coproduct_combo(shuffle(v, w))
            right = Counter()
            for v1, v2 in coproduct(v):
                for w1, w2 in coproduct(w):
                    for p, cp in shuffle(v1, w1):
                        for s, cs in shuffle(v2, w2):
                            right[(p, s)] += cp * cs
            right = {k: c for k, c in right.items() if c != 0}
            assert left == right, (v, w)
