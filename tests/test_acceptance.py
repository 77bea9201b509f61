"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is pinned to its stated tolerance and time budget.
"""

import itertools
import json
import math
import time
from collections import Counter

import numpy as np

from emzv.cli import kronecker_points, main as cli_main
from emzv.faypoly import c_coeff, compositions
from emzv.numerics import get_evaluator, zeta
from emzv.reduction import reduce_index
from emzv.relations import (
    fay_identity,
    parity_split,
    prop_mat_identity,
    reflection_identity,
    shuffle_identity,
    trailing_ones,
)
from emzv.words import is_admissible, is_zero_one, shuffle, weight
from exact_helpers import antipode_convolution, shuffle_combo
from fay_reference import p_poly

TAU = 1j
TAU2 = 2j


def report(number: int, description: str, passed: bool, elapsed: float, budget: float):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status} ({elapsed:6.2f}s / {budget:.0f}s budget): {description}")
    assert passed, f"criterion {number}: {description}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def words_up_to(max_len, max_entry, include_empty=True):
    out = [()] if include_empty else []
    for r in range(1, max_len + 1):
        out.extend(itertools.product(range(max_entry + 1), repeat=r))
    return out


def indices_within(max_weight, max_length, min_length=1):
    for r in range(min_length, max_length + 1):
        for w in range(max_weight + 1):
            yield from compositions(w, r)


def test_criterion_1_hopf_word_suite():
    start = time.perf_counter()
    ok = True
    # antipode-split vanishing, exhaustive for length <= 4, entries <= 3
    for w in words_up_to(4, 3, include_empty=False):
        ok = ok and not antipode_convolution(w)
    # commutativity, exhaustive for length <= 3, entries <= 2
    small = words_up_to(3, 2)
    for v in small:
        for w in small:
            ok = ok and shuffle(v, w) == shuffle(w, v)
    # associativity, exhaustive on two sub-grids
    for grid in (words_up_to(2, 2), words_up_to(3, 1)):
        for a, b, c in itertools.product(grid, repeat=3):
            left = shuffle_combo(Counter(dict(shuffle(a, b))), Counter([c]))
            right = shuffle_combo(Counter([a]), Counter(dict(shuffle(b, c))))
            ok = ok and left == right
    report(1, "shuffle Hopf suite (commutative, associative, antipode split)", ok,
           time.perf_counter() - start, 10)


def test_criterion_2_polynomiality():
    start = time.perf_counter()
    ok = True
    for l in indices_within(6, 4):
        poly = p_poly(l)  # any division remainder raises
        ok = ok and poly.is_homogeneous(weight(l))
        ok = ok and all(isinstance(c, int) for c in poly.terms.values())
    report(2, "generating polynomials integral and homogeneous (w<=6, r<=4)", ok,
           time.perf_counter() - start, 30)


def test_criterion_3_coefficient_recursions():
    start = time.perf_counter()
    ok = True
    # (i) a zero spliced before the last slot forces the last entry of l to 0
    for r in range(2, 5):
        for base in indices_within(6, r - 1, min_length=r - 1):
            k = base[:-1] + (0,) + (base[-1],)
            if weight(k) > 6:
                continue
            for l in compositions(weight(k), r):
                expected = c_coeff(l[:-1], base) if l[-1] == 0 else 0
                ok = ok and c_coeff(l, k) == expected
    # (ii) even entry followed by 1
    for r in range(2, 5):
        for rest in ([()] if r == 2 else list(indices_within(5, r - 2, min_length=r - 2))):
            for l1 in range(0, 6, 2):
                l = (l1, 1) + rest
                if weight(l) > 6:
                    continue
                for k in compositions(weight(l), r):
                    chain = int(rest == k[1:-1] and k[-1] == 1)
                    expected = (c_coeff((1,) + rest, k[1:]) - chain) if l1 == k[0] else 0
                    ok = ok and c_coeff(l, k) == expected
    report(3, "coefficient recursions (i) and (ii) exact (w<=6, r<=4)", ok,
           time.perf_counter() - start, 30)


def test_criterion_4_fay_matches_length_two_formula():
    start = time.perf_counter()
    ok = True
    for w in range(9):
        for k1 in range(w + 1):
            k2 = w - k1
            if k2 == 1:
                continue
            fay = fay_identity((k1, k2))
            mat = prop_mat_identity(k1, k2)
            ok = ok and fay.lhs == mat.lhs and fay.rhs == mat.rhs
    report(4, "general Fay relation equals the explicit length-2 formula (w<=8)", ok,
           time.perf_counter() - start, 10)


def test_criterion_5_length_one_values():
    start = time.perf_counter()
    ok = True
    for tau in (TAU, TAU2):
        ev = get_evaluator(tau)
        ok = ok and abs(ev.value((2,)) + math.pi**2 / 3) <= 1e-8
        ok = ok and abs(ev.value((3,))) <= 1e-8
        ok = ok and abs(ev.value((4,)) + 2 * zeta(4)) <= 1e-8
    report(5, "length-1 values (tau-independent, zeta values)", ok,
           time.perf_counter() - start, 10)


def test_criterion_6_simplex_volumes():
    start = time.perf_counter()
    ev = get_evaluator(TAU)
    ok = all(
        abs(ev.value((0,) * r) - 1 / math.factorial(r)) <= 1e-10 for r in range(1, 5)
    )
    report(6, "simplex volumes 1/r! to 1e-10 (r<=4)", ok, time.perf_counter() - start, 10)


def test_criterion_7_kronecker_suite():
    start = time.perf_counter()
    ev = get_evaluator(TAU)
    f = ev.kronecker
    ok = True
    # each side times alpha (alpha alpha2 for Fay), as the kronecker family does
    for a, z, a2, z2 in kronecker_points(ev):
        faz = f(a, z)
        ok = ok and abs(a * (faz + f(-a, -z))) <= 1e-9
        ok = ok and abs(a * (f(a, z + 1) - faz)) <= 1e-9
        ok = ok and abs(a * (f(a, z + TAU) - np.exp(-2j * np.pi * a) * faz)) <= 1e-9
        fay = faz * f(a2, z2) - f(a + a2, z) * f(a2, z2 - z) - f(a + a2, z2) * f(a, z - z2)
        ok = ok and abs(a * a2 * fay) <= 1e-9
    report(7, "Kronecker function suite (antisymmetry, periodicity, Fay) at 20 points", ok,
           time.perf_counter() - start, 10)


def test_criterion_8_f1_cross_check():
    start = time.perf_counter()
    ev = get_evaluator(TAU)
    rng = np.random.default_rng(8)
    q = math.exp(-2 * math.pi)
    ok = True
    for z in rng.uniform(0.05, 0.95, size=20):
        ref = math.pi / math.tan(math.pi * z) + 4 * math.pi * sum(
            math.sin(2 * math.pi * k * z) * q ** (k * l)
            for k in range(1, 30)
            for l in range(1, 30)
        )
        ok = ok and abs(ev.f_n(1, float(z)) - ref) <= 1e-10
    report(8, "letter f_1 matches the cotangent q-series at 20 points", ok,
           time.perf_counter() - start, 5)


def test_criterion_9_relation_sweeps():
    start = time.perf_counter()
    ev = get_evaluator(TAU)
    tol = 1e-6
    ok = True
    count = 0
    # shuffle: pairs with total length <= 4 and total weight <= 4
    for v in indices_within(4, 3):
        for w in indices_within(4 - weight(v), 4 - len(v)):
            ident = shuffle_identity(v, w)
            res = abs(ev.eval_expression(ident.lhs) - ev.eval_expression(ident.rhs))
            ok = ok and res <= tol
            count += 1
    # reflection: weight <= 4, length <= 4
    for k in indices_within(4, 4):
        ident = reflection_identity(k)
        res = abs(ev.eval_expression(ident.lhs) - ev.eval_expression(ident.rhs))
        ok = ok and res <= tol
        count += 1
    # fay: weight <= 5, length <= 4, last entry != 1
    for k in indices_within(5, 4):
        if len(k) > 1 and k[-1] == 1:
            continue
        ident = fay_identity(k)
        res = abs(ev.eval_expression(ident.lhs) - ev.eval_expression(ident.rhs))
        ok = ok and res <= tol
        count += 1
    report(9, f"numeric relation sweeps at tau=i ({count} instances, tol 1e-6)", ok,
           time.perf_counter() - start, 600)


def test_criterion_10_reduction_sweep():
    start = time.perf_counter()
    tol = 1e-6
    ok = True
    count = 0
    for tau in (TAU, TAU2):
        ev = get_evaluator(tau)
        for k in indices_within(5, 4, min_length=0):
            expr, trace = reduce_index(k)  # FuelExhausted would raise
            w_set = set()
            for mon, _ in expr.items():
                w_set.add(sum(weight(a) for a in mon))
                for atom in mon:
                    ok = ok and (is_admissible(atom) or is_zero_one(atom))
            ok = ok and (not w_set or w_set == {weight(k)})
            res = abs(ev.value(k) - ev.eval_expression(expr))
            ok = ok and res <= tol
            count += 1
    report(10, f"reduction sweep (w<=5, r<=4, tau=i and 2i, {count} checks)", ok,
           time.perf_counter() - start, 900)


def test_criterion_11_table_determinism(tmp_path):
    start = time.perf_counter()
    blobs = []
    for i in range(3):
        path = tmp_path / f"table{i}.jsonl"
        code = cli_main(
            ["table", "--max-weight", "3", "--max-length", "3", "--out", str(path)]
        )
        assert code == 0
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    rows = [json.loads(line) for line in blobs[0].decode().splitlines()]
    ok = ok and len(rows) == 35
    report(11, "reduction table byte-identical across runs, cold and warm cache", ok,
           time.perf_counter() - start, 60)
