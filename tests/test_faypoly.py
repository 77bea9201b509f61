import ast
import hashlib
import itertools
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import emzv
from emzv.faypoly import c_coeff, compositions, enumerate_support
from emzv.words import ArgumentError, weight
from fay_reference import NonPolynomialError, SparsePoly, p_poly, p_support


def rational_p_times_us(l, us):
    """Independent oracle: evaluate u_1...u_r P_l at an exact rational point.

    Works directly from the defining sum of rational-function terms, with
    Fraction arithmetic and genuine negative powers.
    """
    r = len(l)
    total = Fraction(0)
    for i in range(r):
        term = Fraction(1)
        for v in range(0, i - 1):
            term *= us[v] ** (l[v] - 1)
        if i >= 1:
            term *= sum(us[i - 1 :], Fraction(0)) ** (l[i - 1] - 1)
        term *= (-sum(us[i:], Fraction(0))) ** (l[i] - 1)
        for v in range(i, r - 1):
            term *= us[v] ** (l[v + 1] - 1)
        total += term
    return total * prod(us)


POINTS = {
    1: [(Fraction(2),), (Fraction(-3),), (Fraction(5, 7),)],
    2: [
        (Fraction(2), Fraction(3)),
        (Fraction(5), Fraction(-2)),
        (Fraction(1, 2), Fraction(7, 3)),
    ],
    3: [
        (Fraction(2), Fraction(3), Fraction(5)),
        (Fraction(7), Fraction(-2), Fraction(11)),
        (Fraction(1, 3), Fraction(2), Fraction(5, 7)),
    ],
    4: [
        (Fraction(2), Fraction(3), Fraction(5), Fraction(7)),
        (Fraction(3), Fraction(-1), Fraction(11), Fraction(2)),
        (Fraction(1, 2), Fraction(4), Fraction(3), Fraction(9, 5)),
    ],
    5: [
        (Fraction(2), Fraction(3), Fraction(5), Fraction(7), Fraction(11)),
        (Fraction(-1), Fraction(4), Fraction(1, 3), Fraction(2), Fraction(-5, 2)),
    ],
}


def all_indices(max_weight, max_length, min_length=1):
    for r in range(min_length, max_length + 1):
        for w in range(max_weight + 1):
            yield from compositions(w, r)


def test_sparse_poly_arithmetic():
    x = SparsePoly.monomial(2, (1, 0))
    y = SparsePoly.monomial(2, (0, 1))
    s = x + y
    assert s * s == x * x + SparsePoly.monomial(2, (1, 1), 2) + y * y
    assert (s - s).is_zero()
    assert s.pow(3).coeff((2, 1)) == 3
    assert s == SparsePoly.suffix_form(2, 0)
    assert y == SparsePoly.suffix_form(2, 1)


def test_exact_division_by_suffix_form():
    s = SparsePoly.suffix_form(3, 1)  # u1 + u2
    q = SparsePoly.monomial(3, (2, 1, 0)) + SparsePoly.monomial(3, (0, 0, 3), -4)
    assert (q * s).divide_by_suffix_form(1) == q
    with pytest.raises(NonPolynomialError):
        (q * s + SparsePoly.monomial(3, (1, 0, 0))).divide_by_suffix_form(1)


@st.composite
def exponents(draw, nvars, max_degree=6):
    """An exponent vector of total degree <= max_degree."""
    out = []
    for _ in range(nvars):
        out.append(draw(st.integers(0, max_degree - sum(out))))
    return tuple(out)


@st.composite
def sparse_polys(draw, nvars):
    terms = draw(st.dictionaries(exponents(nvars), st.integers(-5, 5), max_size=6))
    return SparsePoly(nvars, terms)


@given(data=st.data())
@settings(deadline=None)
def test_sparse_poly_ring_ops_match_evaluation(data):
    n = data.draw(st.integers(1, 5))
    a = data.draw(sparse_polys(n))
    b = data.draw(sparse_polys(n))
    for us in POINTS[n]:
        x, y = a.evaluate(us), b.evaluate(us)
        assert (a * b).evaluate(us) == x * y
        assert (a + b).evaluate(us) == x + y
        assert (a - b).evaluate(us) == x - y


@given(data=st.data())
@settings(deadline=None)
def test_sparse_poly_division_property(data):
    n = data.draw(st.integers(1, 5))
    v = data.draw(st.integers(0, n - 1))
    q = data.draw(sparse_polys(n))
    product = q * SparsePoly.suffix_form(n, v)
    assert product.divide_by_suffix_form(v) == q
    # A monomial free of u_v is never divisible by u_v + ... + u_{n-1}.
    e = list(data.draw(exponents(n)))
    e[v] = 0
    c = data.draw(st.integers(1, 5))
    with pytest.raises(NonPolynomialError):
        (product + SparsePoly.monomial(n, tuple(e), c)).divide_by_suffix_form(v)


@given(data=st.data())
@settings(deadline=None)
def test_sparse_poly_terms_roundtrip(data):
    n = data.draw(st.integers(1, 5))
    p = data.draw(sparse_polys(n))
    assert SparsePoly(n, p.terms) == p
    assert all(len(e) == n for e in p.terms)


@given(data=st.data())
@settings(deadline=None)
def test_sparse_poly_high_degree_exact(data):
    # Exponents are unbounded: products and monomials past degree 255 are
    # exact, and their terms round-trip through the constructor.
    n = data.draw(st.integers(1, 5))
    d1 = data.draw(st.integers(1, 255))
    d2 = data.draw(st.integers(256 - d1, 400))
    v1, v2 = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))

    def power(v, d):
        return tuple(d if i == v else 0 for i in range(n))

    a = SparsePoly.monomial(n, power(v1, d1))
    for d in (255 - d1, d2):
        product = a * SparsePoly.monomial(n, power(v2, d))
        assert product.terms == {tuple(x + y for x, y in zip(power(v1, d1), power(v2, d))): 1}
        assert SparsePoly(n, product.terms) == product
    b = SparsePoly.monomial(n, power(v2, d2), -3)
    assert b.terms == {power(v2, d2): -3} and b.coeff(power(v2, d2)) == -3
    square = (a + b) * (a + b)
    assert square == a * a + SparsePoly.constant(n, 2) * a * b + b * b
    assert SparsePoly(n, square.terms) == square
    for us in POINTS[n]:
        assert square.evaluate(us) == (a.evaluate(us) + b.evaluate(us)) ** 2


def test_p_poly_length_one():
    assert p_poly((3,)) == SparsePoly.monomial(1, (3,))
    assert p_poly((0,)) == SparsePoly.constant(1, -1)
    assert p_poly((2,)) == SparsePoly.monomial(1, (2,), -1)
    assert p_poly((1,)) == SparsePoly.monomial(1, (1,))


def test_p_poly_weight_zero_pairs():
    # Each summand is rational; the sum collapses to the constant -1 for
    # every all-zeros index (the one-step recursion has zero correction).
    for r in range(2, 5):
        assert p_poly((0,) * r) == SparsePoly.constant(r, -1)


def test_p_poly_interior_pairs_closed_form():
    # For l1, l2 >= 1 both summands are already polynomial.
    for l1 in range(1, 5):
        for l2 in range(1, 5):
            u1 = SparsePoly.monomial(2, (1, 0))
            s = SparsePoly.suffix_form(2, 0)
            sign1 = -1 if (l1 - 1) % 2 else 1
            sign2 = -1 if (l2 - 1) % 2 else 1
            expected = SparsePoly.monomial(2, (l2, 1), sign1) * s.pow(l1 - 1) + (
                u1 * SparsePoly.monomial(2, (0, l2), sign2) * s.pow(l1 - 1)
            )
            assert p_poly((l1, l2)) == expected, (l1, l2)


def test_p_poly_matches_rational_oracle():
    for l in all_indices(6, 4):
        poly = p_poly(l)
        for us in POINTS[len(l)]:
            assert poly.evaluate(us) == rational_p_times_us(l, us), l


def test_p_poly_homogeneous_integer():
    for l in all_indices(6, 4):
        poly = p_poly(l)
        assert poly.is_homogeneous(weight(l)), l
        assert all(isinstance(c, int) for c in poly.terms.values())


def test_one_step_recursion():
    # u1...ur P_l = u1^{l1} (u2...ur P_{l2..lr}) + u1 ur (correction) embedded,
    # checked at exact rational points.
    for l in all_indices(6, 4):
        r = len(l)
        if r < 2:
            continue
        for us in POINTS[r]:
            lhs = rational_p_times_us(l, us)
            tail = rational_p_times_us(l[1:], us[1:])
            s1 = sum(us, Fraction(0))
            s2 = sum(us[1:], Fraction(0))
            corr = ((s1 ** (l[0] - 1)) - us[0] ** (l[0] - 1)) * (-s2) ** (l[1] - 1)
            corr += (-s1) ** (l[0] - 1) * us[0] ** (l[1] - 1)
            corr *= us[0] * us[-1] * prod(us[v] ** l[v + 1] for v in range(1, r - 1))
            assert lhs == us[0] ** l[0] * tail + corr, l


def test_c_coeff_length_one():
    for l in range(7):
        for k in range(7):
            expected = ((-1) ** (l - 1)) if l == k else 0
            assert c_coeff((l,), (k,)) == expected


def test_c_coeff_zero_weight_mismatch():
    assert c_coeff((1, 2), (2, 2)) == 0
    assert c_coeff((3,), (2,)) == 0


def test_c_coeff_leading_zero_pairs():
    # c<(0,w) | (k1,k2)> = (-1)^{k2} for interior k1,k2 >= 1, zero on the boundary.
    for w in range(1, 7):
        for k1 in range(w + 1):
            k2 = w - k1
            expected = (-1) ** k2 if (k1 >= 1 and k2 >= 1) else 0
            assert c_coeff((0, w), (k1, k2)) == expected, (w, k1, k2)


def test_c_coeff_even_one_vanishing():
    assert c_coeff((2, 1), (1, 2)) == 0
    for k1, k2 in compositions(3, 2):
        assert c_coeff((2, 1), (k1, k2)) == 0


def test_c_coeff_length_mismatch():
    with pytest.raises(ArgumentError):
        c_coeff((1, 2), (3,))


def test_coefficient_drop_trailing_zero_slot():
    # c<l | k1..k_{r-2}, 0, k_r> = delta_{0, l_r} c<l1..l_{r-1} | k1..k_{r-2}, k_r>
    for r in range(2, 5):
        for base in all_indices(6, r - 1, min_length=r - 1):
            k = base[:-1] + (0,) + (base[-1],)
            if weight(k) > 6:
                continue
            for l in compositions(weight(k), r):
                expected = c_coeff(l[:-1], base) if l[-1] == 0 else 0
                assert c_coeff(l, k) == expected, (l, k)


def test_coefficient_even_then_one_slot():
    # For even l1: c<l1,1,l3..lr | k> = delta_{l1,k1} (c<1,l3..lr | k2..kr> - chain)
    for r in range(2, 5):
        for rest in compositions_up_to(6 - 1, r - 2):
            for l1 in range(0, 6, 2):
                l = (l1, 1) + rest
                if weight(l) > 6:
                    continue
                for k in compositions(weight(l), r):
                    chain = int(rest == k[1:-1] and k[-1] == 1)
                    if l1 != k[0]:
                        expected = 0
                    else:
                        expected = c_coeff((1,) + rest, k[1:]) - chain
                    assert c_coeff(l, k) == expected, (l, k)


def compositions_up_to(max_weight, parts):
    if parts == 0:
        yield ()
        return
    for w in range(max_weight + 1):
        yield from compositions(w, parts)


def test_enumerate_support():
    assert enumerate_support((3,)) == [((3,), 1)]
    assert enumerate_support((0,)) == [((0,), -1)]
    for l, c in enumerate_support((1, 2)):
        assert weight(l) == 3 and len(l) == 2 and c != 0
        assert max(l) <= 3
    support = dict(enumerate_support((1, 2)))
    assert support == {(0, 3): 1, (1, 2): -1, (3, 0): 1}


# sha256 of every c<l|k> != 0 for k of length 1-4 and weight <= 7 and of
# length 5 and weight <= 5, one line "k<TAB>l<TAB>c" each, recorded from the
# tuple-keyed polynomial implementation: 6947 lines.
GOLDEN_SUPPORT_SHA256 = "81079cce8080030064225f793e0c7e08b4f08e0dde9011ce5e37d10afc6331b2"


def test_enumerate_support_golden_digest():
    lines = []
    for r, max_weight in [(1, 7), (2, 7), (3, 7), (4, 7), (5, 5)]:
        for w in range(max_weight + 1):
            for k in compositions(w, r):
                for l, c in enumerate_support(k):
                    lines.append(f"{','.join(map(str, k))}\t{','.join(map(str, l))}\t{c}\n")
    assert len(lines) == 6947
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == GOLDEN_SUPPORT_SHA256


# sha256 of every c<l|k> != 0 for k of length 6 and weight <= 6, same line
# format, recorded from the p_poly path: 12930 lines.
GOLDEN_SUPPORT_LENGTH6_SHA256 = "1ebfe2ae832155f7c5d3a314ab498efc5b3844d3e1705e81b5b0ac5c1a31099e"


def test_enumerate_support_golden_digest_length_six():
    lines = []
    for w in range(7):
        for k in compositions(w, 6):
            for l, c in enumerate_support(k):
                lines.append(f"{','.join(map(str, k))}\t{','.join(map(str, l))}\t{c}\n")
    assert len(lines) == 12930
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == GOLDEN_SUPPORT_LENGTH6_SHA256


@st.composite
def zero_rich_composition(draw, total, parts):
    """A composition of `total` into `parts` entries, about half of them 0."""
    out = []
    for _ in range(parts - 1):
        rest = total - sum(out)
        out.append(draw(st.one_of(st.just(0), st.integers(0, rest))))
    out.append(total - sum(out))
    order = draw(st.permutations(range(parts)))
    return tuple(out[v] for v in order)


@given(data=st.data())
@settings(deadline=None, max_examples=300)
def test_c_coeff_matches_p_poly(data):
    # Zero entries of l put 1/T_v series into the expansion; zero entries of
    # k select their negative-power terms.
    r = data.draw(st.integers(1, 6))
    w = data.draw(st.integers(0, 10))
    k = data.draw(zero_rich_composition(w, r))
    l = data.draw(zero_rich_composition(w, r))
    assert c_coeff(l, k) == p_poly(l).coeff(k)


#: Largest weight per length at which `p_support` stays cheap: it builds
#: `p_poly(l)` for every l of the weight and length of k.
SUPPORT_MAX_WEIGHT = {1: 10, 2: 10, 3: 9, 4: 8, 5: 7, 6: 5, 7: 4}


@st.composite
def fay_columns(draw):
    """An index of length 1-7 within SUPPORT_MAX_WEIGHT: zero-rich, or that
    with its last entry set to 0, or with every other entry capped at 1."""
    r = draw(st.integers(1, 7))
    k = draw(zero_rich_composition(draw(st.integers(0, SUPPORT_MAX_WEIGHT[r])), r))
    shape = draw(st.sampled_from(("zero-rich", "ends in 0", "ones")))
    if shape == "ends in 0":
        return k[:-1] + (0,)
    if shape == "ones":
        return tuple(min(e, 1) for e in k[:-1]) + k[-1:]
    return k


@given(k=fay_columns())
@example(k=(0,))
@example(k=(1, 2, 0))
@example(k=(1, 1, 0, 1))
@example(k=(1, 0, 1, 0, 0, 1, 1))
@settings(deadline=None)
def test_support_walk_matches_p_poly(k):
    # The walk adds the summands' terms per l; the reference reads the
    # column of k from every polynomial of k's weight and length.
    assert enumerate_support(k) == p_support(k)


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_support((-1, 2)),
        lambda: enumerate_support((1.0, 2)),
        lambda: c_coeff((3,), (3.5,)),
    ],
    ids=["support of a negative entry", "support of a float entry", "c_coeff of a float entry"],
)
def test_bad_indices_raise_argument_error(call):
    with pytest.raises(ArgumentError):
        call()


def test_production_path_builds_no_polynomial():
    # The polynomial reference lives with the tests, and no module of the
    # package imports the tests or their helpers.
    assert not hasattr(emzv.faypoly, "p_poly") and not hasattr(emzv.faypoly, "SparsePoly")
    test_modules = {"tests"} | {path.stem for path in Path(__file__).parent.glob("*.py")}
    for path in Path(emzv.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in test_modules, (path.name, name)


def test_weight_limit_is_255():
    with pytest.raises(ArgumentError, match="255"):
        enumerate_support((1, 300))
    with pytest.raises(ArgumentError, match="255"):
        c_coeff((1, 300), (1, 300))
    assert len(enumerate_support((0, 255))) > 0


@pytest.mark.parametrize("l", [(0, 255), (255, 0), (128, 127), (1, 0, 254)])
def test_p_poly_matches_c_coeff_at_weight_255(l):
    # The reference reaches the top of the weight range `c_coeff` accepts.
    poly = p_poly(l)
    assert poly.is_homogeneous(255) and not poly.is_zero()
    for k, c in poly.terms.items():
        assert c_coeff(l, k) == c, k
