import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emzv.relations import (
    Expression,
    Identity,
    PreconditionError,
    add_split_terms,
    canonical_monomial,
    fay_identity,
    monomial,
    parity_split,
    prop_mat_identity,
    reflection_identity,
    shuffle_identity,
    trailing_ones,
)
from exact_helpers import (
    drop_odd_singletons,
    expression_from_json_dict,
    has_odd_singleton,
    homogeneous_weight,
    is_weight_homogeneous,
    residual,
    split_sign,
)


def A(*entries, coeff=1):
    return Expression.atom(tuple(entries), coeff)


def test_expression_unit_and_atom():
    assert Expression.atom(()) == Expression.unit()
    assert Expression.unit() * A(2) == A(2)
    assert not A(2) - A(2)
    assert A(1, 2) * A(0) == Expression({monomial([(0,), (1, 2)]): Fraction(1)})


def test_expression_substitute():
    e = A(1) * A(1) + A(2)
    swapped = e.substitute({(1,): A(3, coeff=2)})
    assert swapped == A(3) * A(3, coeff=4) + A(2)
    e2 = (A(1) * A(2)).substitute({(1,): Expression.unit(5)})
    assert e2 == A(2, coeff=5)
    # all mapped atoms are replaced at once: a replacement is not rewritten again
    both = (A(1) * A(2) + A(0)).substitute({(1,): A(2), (2,): A(3)})
    assert both == A(2) * A(3) + A(0)
    assert not (A(1) - A(2)).substitute({(1,): A(4), (2,): A(4)})


def substitute_one(expr, atom, replacement):
    """Reference: replace one atom, monomial by monomial, with the public
    arithmetic of Expression."""
    out = Expression.zero()
    for mon, c in expr.items():
        term = Expression.unit(c)
        for a in mon:
            term = term * (replacement if a == atom else Expression.atom(a))
        out = out + term
    return out


POOL = [(0,), (2,), (1, 2), (3, 0), (0, 1, 4)]
coefs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def expressions(draw, atoms):
    out = Expression.zero()
    # an atom drawn twice in one monomial is a power
    for mon in draw(st.lists(st.lists(st.sampled_from(atoms), max_size=3), max_size=4)):
        term = Expression.unit(draw(coefs))
        for a in mon:
            term = term * Expression.atom(a)
        out = out + term
    return out


@given(data=st.data())
@settings(deadline=None)
def test_substitute_matches_single_atom_substitutions(data):
    keys = data.draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3, unique=True))
    # Replacements avoid the mapped atoms; only then do one pass and one atom
    # at a time agree.
    others = [a for a in POOL if a not in keys]
    mapping = {a: data.draw(expressions(others)) for a in keys}
    expr = data.draw(expressions(POOL))
    expected = expr
    for atom, replacement in mapping.items():
        expected = substitute_one(expected, atom, replacement)
    assert expr.substitute(mapping) == expected


def test_expression_json_text_roundtrip():
    e = A(1, 2, coeff=Fraction(-1, 2)) * A(0) + A(4)
    data = e.to_json_dict()
    assert expression_from_json_dict(data) == e
    text = e.to_text()
    assert "I(1,2)" in text and "I(0)" in text and "-1/2" in text
    assert Expression.zero().to_text() == "0"
    assert Expression.unit().to_text() == "1"


# Integer core of Expression against a dict-of-Fraction reference, with
# coefficients whose denominators are 2 (parity_split) and the factorials up
# to 5!, which share and do not share prime factors.
RULE_COEFS = st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 6, 24, 120]))
PARITY_RHS = [parity_split(k).rhs for k in [(2, 2), (0, 2, 0, 2), (1, 0, 1, 0)]]


def expression_dicts(atoms):
    mons = st.lists(st.sampled_from(atoms), max_size=3).map(monomial)
    return st.dictionaries(mons, RULE_COEFS, max_size=4)


def assert_canonical(expr):
    den, nums = expr.den, expr._terms
    assert type(den) is int and den > 0
    assert all(type(n) is int and n != 0 for n in nums.values())
    assert math.gcd(den, *nums.values()) == 1


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = monomial(m1 + m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def ref_substitute(expr, mapping):
    out = {}
    for mon, c in expr.items():
        product = {tuple(a for a in mon if a not in mapping): c}
        for a in mon:
            if a in mapping:
                product = ref_mul(product, mapping[a])
        for m, d in product.items():
            out[m] = out.get(m, 0) + d
    return {m: c for m, c in out.items() if c != 0}


def test_rule_denominators():
    assert [e.den for e in PARITY_RHS] == [2, 2, 2]
    assert trailing_ones((0, 2, 1, 1, 1)).rhs.den == 1


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_product_and_substitute_match_fraction_reference(data):
    da = data.draw(expression_dicts(POOL))
    db = data.draw(expression_dicts(POOL))
    a, b = Expression(da), Expression(db)
    product = a * b
    assert_canonical(product)
    assert dict(product.items()) == ref_mul(da, db)
    for other in (b * a, product.scale(2).scale(Fraction(1, 2)), (a + b) * b - b * b):
        assert other == product and hash(other) == hash(product)
    keys = data.draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3, unique=True))
    replacements = st.one_of(
        st.sampled_from(PARITY_RHS), expression_dicts(POOL + [(2, 3)]).map(Expression)
    )
    mapping = {atom: data.draw(replacements) for atom in keys}
    result = a.substitute(mapping)
    assert_canonical(result)
    expected = ref_substitute(da, {atom: dict(e.items()) for atom, e in mapping.items()})
    assert dict(result.items()) == expected


# Mapped atoms and the coprime denominators of their replacements, drawn in
# every order, so that the running common denominator of `substitute` grows
# more than once: 3, then 2, then 4 gives 3, 6 and 12.
SUB_KEYS = [(2,), (1, 2), (0, 1, 4)]
SUB_DENS = [3, 2, 4]
SUB_OTHERS = [(0,), (3, 0), (2, 3), (1, 0, 1, 0)]


def integer_dicts(atoms):
    mons = st.lists(st.sampled_from(atoms), max_size=3).map(monomial)
    return st.dictionaries(mons, st.integers(-5, 5), max_size=6)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_substitute_grows_its_denominator_cancels_and_keeps_monomials_interned(data):
    mapping = {}
    for atom, d in zip(SUB_KEYS, data.draw(st.permutations(SUB_DENS))):
        terms = {m: Fraction(c, d) for m, c in data.draw(integer_dicts(SUB_OTHERS)).items()}
        # One term with coefficient 1/d fixes the denominator at d; like
        # the reduced atoms in `reduction.REDUCED`, the replacement's
        # monomials are interned.
        terms[((3, 0),)] = Fraction(1, d)
        mapping[atom] = replacement = Expression(terms).substitute({})
        assert replacement.den == d
    # Integer coefficients, so that the denominators come from the mapping,
    # in the order the drawn monomials meet the mapped atoms.
    da = data.draw(integer_dicts(SUB_KEYS + SUB_OTHERS))
    expr = Expression(da)
    result = expr.substitute(mapping)
    # The replacements hold no mapped atom, so this difference substitutes
    # to zero: every term cancels.
    cancel = expr - result
    for out, expected in (
        (result, ref_substitute(da, {a: dict(e.items()) for a, e in mapping.items()})),
        (cancel.substitute(mapping), {}),
    ):
        assert_canonical(out)
        assert dict(out.items()) == expected
        assert all(canonical_monomial(m) is m for m in out._terms)


@given(expression_dicts(POOL + [(1, 0, 1, 0)]))
@settings(deadline=None)
def test_expression_json_roundtrip_prints_fraction_text(terms):
    expr = Expression(terms)
    data = json.loads(json.dumps(expr.to_json_dict()))
    assert [t["coef"] for t in data["terms"]] == [str(c) for _, c in expr.items()]
    assert {tuple(tuple(a) for a in t["atoms"]): Fraction(t["coef"]) for t in data["terms"]} == {
        m: c for m, c in terms.items() if c != 0
    }
    back = expression_from_json_dict(data)
    assert back == expr and hash(back) == hash(expr)
    assert_canonical(back)


# Atoms with entries >= 10 and coefficients with either sign and any
# denominator up to 720, for the renderers built from integer numerators.
RENDER_ATOMS = st.lists(st.integers(0, 30), min_size=1, max_size=4).map(tuple)
RENDER_TERMS = st.dictionaries(
    st.lists(RENDER_ATOMS, max_size=3).map(monomial),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 720)),
    max_size=6,
)


@given(RENDER_TERMS)
@example({})
@example({(): Fraction(1)})
@example({(): Fraction(-7, 3), ((12, 0, 1),): Fraction(5, 6), ((2,), (10, 11)): Fraction(-4)})
@settings(deadline=None)
def test_renderers_match_json_dumps_and_fraction_text(terms):
    expr = Expression(terms)
    data = expr.to_json_dict()
    assert [t["coef"] for t in data["terms"]] == [str(c) for _, c in expr.items()]
    assert expr.terms_json() == json.dumps(data["terms"], sort_keys=True)
    reference = " + ".join(
        f"{c} * " + "*".join("I(" + ",".join(map(str, a)) + ")" for a in m) if m else str(c)
        for m, c in expr.items()
    )
    assert expr.to_text() == (reference or "0")


# Short words with small entries: odd and even singleton factors and equal
# halves in either order all come up often.
SHORT_WORDS = st.lists(st.integers(0, 4), min_size=2, max_size=6).map(tuple)


@given(
    word=SHORT_WORDS,
    cuts=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    coef=st.integers(-3, 3),
    keep_odd=st.booleans(),
)
@example(word=(1, 2, 1, 2), cuts=(1, 4), coef=1, keep_odd=False)
@example(word=(2, 1, 1, 1), cuts=(1, 4), coef=-2, keep_odd=False)
@example(word=(2, 0, 3), cuts=(1, 3), coef=1, keep_odd=True)
def test_split_terms_match_monomial_sign_and_odd_filter(word, cuts, coef, keep_odd):
    r = len(word)
    start, stop = (min(c, r) for c in sorted(cuts))
    expected = {}
    for i in range(start, stop):
        mon = monomial((word[:i], word[i:]))
        if keep_odd or not has_odd_singleton(mon):
            expected[mon] = expected.get(mon, 0) + coef * split_sign(word, i)
    nums = {((5,),): 1}
    add_split_terms(nums, word, start, stop, coef, keep_odd)
    assert nums == {((5,),): 1, **expected}


def test_expression_drop_odd_singletons():
    e = A(3) * A(0, 2) + A(2) * A(4) + A(1)
    assert drop_odd_singletons(e) == A(2) * A(4)


def test_shuffle_identity():
    ident = shuffle_identity((0,), (2,))
    assert ident.lhs == A(0) * A(2)
    assert ident.rhs == A(0, 2) + A(2, 0)
    assert ident.provenance == "shuffle"

    ident = shuffle_identity((), (5, 2))
    assert ident.lhs == A(5, 2)
    assert ident.rhs == A(5, 2)

    ident = shuffle_identity((1,), (1,))
    assert ident.lhs == A(1) * A(1)
    assert ident.rhs == A(1, 1, coeff=2)


def test_reflection_identity():
    ident = reflection_identity((3, 2))
    assert ident.lhs == A(2, 3)
    assert ident.rhs == A(3, 2, coeff=-1)

    ident = reflection_identity((3,))
    assert ident.lhs == A(3) and ident.rhs == A(3, coeff=-1)

    ident = reflection_identity((0, 0))
    assert ident.lhs == A(0, 0) and ident.rhs == A(0, 0)


def test_fay_identity_length_one():
    ident = fay_identity((3,))
    assert ident.lhs == A(3) and ident.rhs == A(3, coeff=-1)
    ident = fay_identity((0,))
    assert ident.lhs == A(0) and ident.rhs == A(0)


def test_one_precondition_error_class():
    from emzv import numerics, words

    assert PreconditionError is numerics.PreconditionError is words.PreconditionError


def test_fay_identity_precondition():
    with pytest.raises(PreconditionError):
        fay_identity((2, 1))
    with pytest.raises(PreconditionError):
        fay_identity(())
    # length one is allowed even for entry 1: I(1) = -I(1), forcing I(1) = 0
    ident = fay_identity((1,))
    assert ident.lhs == A(1) and ident.rhs == A(1, coeff=-1)


def test_fay_identity_weight_homogeneous():
    for k in [(1, 2), (0, 3), (1, 2, 2), (1, 0, 2), (2, 0, 0, 2)]:
        ident = fay_identity(k)
        assert is_weight_homogeneous(residual(ident))
        w = homogeneous_weight(residual(ident))
        assert w == sum(k)


def test_fay_matches_length_two_formula():
    # The arbiter for the generating-function conventions: at length 2 the
    # general Fay relation must reproduce the explicit formula exactly.
    for w in range(9):
        for k1 in range(w + 1):
            k2 = w - k1
            if k2 == 1:
                continue
            fay = fay_identity((k1, k2))
            mat = prop_mat_identity(k1, k2)
            assert fay.lhs == mat.lhs
            assert fay.rhs == mat.rhs, (k1, k2)


@given(data=st.data())
@settings(deadline=None)
def test_fay_matches_length_two_formula_beyond_weight_eight(data):
    w = data.draw(st.integers(9, 16))
    r = data.draw(st.integers(0, w).filter(lambda r: w - r != 1))
    fay = fay_identity((r, w - r))
    mat = prop_mat_identity(r, w - r)
    assert fay.lhs == mat.lhs
    assert fay.rhs == mat.rhs


def test_prop_mat_precondition():
    with pytest.raises(PreconditionError):
        prop_mat_identity(1, 1)


def test_parity_split_examples():
    ident = parity_split((0, 2))
    assert ident.lhs == A(0, 2)
    assert ident.rhs == (A(0) * A(2)).scale(Fraction(1, 2))

    # sign_1 = (-1)^{1+1} = +1, so the split reads I(1,1) = -1/2 I(1)^2;
    # both sides vanish since I(1) = 0.
    ident = parity_split((1, 1))
    assert ident.rhs == (A(1) * A(1)).scale(Fraction(-1, 2))

    # (2,) has odd parity; even-parity single entries are the odd ones,
    # for which the split would degenerate to an empty sum.
    with pytest.raises(PreconditionError):
        parity_split((2,))
    with pytest.raises(PreconditionError):
        parity_split((3,))
    with pytest.raises(PreconditionError):
        parity_split((1, 2))


def test_parity_split_matches_shuffle_reflection_length_two():
    # For (a, b) of even parity with b even, combining the shuffle identity
    # with the reflection of (b, a) gives I(a,b) = 1/2 I(a) I(b); the split
    # must agree exactly.
    for a in range(5):
        for b in range(0, 5, 2):
            if (a + b) % 2:
                continue
            ident = parity_split((a, b))
            assert ident.rhs == (A(a) * A(b)).scale(Fraction(1, 2)), (a, b)


def test_parity_split_atoms_shorter():
    for k in [(0, 2), (1, 1), (0, 1, 2, 1), (2, 0, 0), (1, 2, 3, 0)]:
        if (sum(k) + len(k)) % 2:
            continue
        ident = parity_split(k)
        for mon in (m for m, _ in ident.rhs.items()):
            for atom in mon:
                assert len(atom) < len(k)


def test_split_sign():
    assert split_sign((0, 2), 1) == -1
    assert split_sign((1, 1), 1) == 1


def test_trailing_ones():
    ident = trailing_ones((2, 1))
    assert ident.lhs == A(2, 1)
    assert ident.rhs == A(1, 2, coeff=-1)

    ident = trailing_ones((3, 1))
    assert ident.rhs == A(1, 3, coeff=-1)

    ident = trailing_ones((0, 1, 1))
    assert ident.lhs == A(0, 1, 1)
    assert ident.rhs == A(1, 1, 0)

    with pytest.raises(PreconditionError):
        trailing_ones((1, 1, 1))
    with pytest.raises(PreconditionError):
        trailing_ones((2, 0))


def test_trailing_ones_atoms_end_with_non_one():
    for k in [(2, 1), (0, 2, 1, 1), (3, 0, 1), (1, 2, 1)]:
        ident = trailing_ones(k)
        for mon, _ in ident.rhs.items():
            for atom in mon:
                assert atom[-1] != 1
                assert len(atom) == len(k)
        assert is_weight_homogeneous(residual(ident))


def test_identities_weight_homogeneous():
    idents: list[Identity] = [
        shuffle_identity((1, 0), (2,)),
        reflection_identity((1, 2, 0)),
        fay_identity((1, 0, 2)),
        prop_mat_identity(2, 3),
        parity_split((1, 1, 2, 0)),
        trailing_ones((0, 2, 1)),
    ]
    for ident in idents:
        assert is_weight_homogeneous(residual(ident)), ident.provenance
