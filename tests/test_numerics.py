import cmath
import itertools
import math
import re
import warnings
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emzv.numerics import (
    DEFAULT_CONFIG,
    KRONECKER_ALPHA_FRACTION,
    MAX_IINT_LENGTH,
    MAX_LETTER,
    MIN_IM_TAU,
    NODE_CACHE_LENGTH,
    Evaluator,
    NonConvergence,
    NumericsConfig,
    POLE_TOLERANCE,
    PanelGrid,
    PoleError,
    PreconditionError,
    Tau,
    ToleranceError,
    parse_config_file,
    parse_tau,
    shortest_period,
    _chen_terms,
    _legendre_antiderivative_matrix,
    _Split,
    zeta,
)
from emzv.relations import Expression, parity_split, shuffle_identity
from emzv.words import ArgumentError, is_admissible, shuffle

TAU = 1j
TAU2 = 2j


def test_tau_validation():
    with pytest.raises(ArgumentError):
        Tau(1.0 + 0j)
    with pytest.raises(ArgumentError):
        Tau(-1j)
    assert abs(Tau(1j).q - math.exp(-2 * math.pi)) < 1e-18


def bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


def test_tau_is_taken_mod_one():
    for tau in (0.5 + 0.8j, -0.5 + 0.8j, 0.25 + 1j, -0.0 + 1j, 1j):
        assert bits(Tau(tau).tau) == bits(tau)
    assert Tau(1.5 + 1j).tau == -0.5 + 1j
    assert Tau(-2.75 + 0.3j).tau == 0.25 + 0.3j
    assert Tau(1e300 + 1j).tau == 1j
    assert Tau(100000000.3 + 0.5j).tau == complex(100000000.3 - 100000000, 0.5)
    for k in [(2, 0, 3), (1, 2), (0, 4, 1)]:
        reference = Evaluator(1j).value(k)
        assert bits(Evaluator(3 + 1j).value(k)) == bits(reference)
        assert bits(Evaluator(1e300 + 1j).value(k)) == bits(reference)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_tau_real_part_reduction_is_exact(x):
    reduced = Tau(complex(x, 1.0)).tau.real
    assert -0.5 <= reduced <= 0.5
    assert x - reduced == (round(x) if abs(x) > 0.5 else 0)


@pytest.mark.parametrize(
    "tau",
    [complex(math.nan, 1), complex(math.inf, 1), complex(-math.inf, 1), complex(0, math.inf), complex(1, math.nan)],
)
def test_non_finite_tau_is_refused(tau):
    with pytest.raises(ArgumentError, match="finite"):
        Tau(tau)
    with pytest.raises(ArgumentError):
        Evaluator(tau)


def test_parse_tau():
    assert parse_tau("0+1i").tau == 1j
    assert parse_tau("0.5+2i").tau == 0.5 + 2j
    assert parse_tau("-0.25+0.75i").tau == -0.25 + 0.75j
    with pytest.raises(ArgumentError):
        parse_tau("1")
    with pytest.raises(ArgumentError):
        parse_tau("0-1i")


def test_parse_config_file(tmp_path):
    path = tmp_path / "numerics.cfg"
    path.write_text("tolerance = 1e-8\npanel_order = 16  # finer\n")
    cfg = parse_config_file(str(path))
    assert cfg.tolerance == 1e-8
    assert cfg.panel_order == 16
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 3\n")
    with pytest.raises(ArgumentError):
        parse_config_file(str(bad))


def test_config_validation():
    assert [f.name for f in fields(NumericsConfig)] == ["panel_order", "tolerance"]
    with pytest.raises(ArgumentError):
        NumericsConfig(panel_order=0)
    with pytest.raises(ArgumentError):
        NumericsConfig(tolerance=0.0)


def test_readme_config_example_lists_every_field_at_its_default(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"--config FILE.*?```\n(.*?)```", readme, re.S).group(1)
    keys = [line.split("=")[0].strip() for line in block.splitlines() if line.split("#")[0].strip()]
    assert keys == [f.name for f in fields(NumericsConfig)]
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    assert parse_config_file(str(path)) == DEFAULT_CONFIG


def test_grid_alignment_guard():
    # the letter limit is a domain limit, as for an index entry in regularized
    ev = Evaluator(TAU)
    with pytest.raises(PreconditionError, match=f"letter order {MAX_LETTER + 1} exceeds the limit 28"):
        ev.f_n(MAX_LETTER + 1, 0.3)
    with pytest.raises(PreconditionError, match=f"letter order {MAX_LETTER + 1} exceeds the limit 28"):
        ev.regularized((2, MAX_LETTER + 1))


def test_negative_letter_order_is_an_argument_error():
    with pytest.raises(ArgumentError, match="negative letter order -1"):
        Evaluator(TAU).f_n(-1, 0.3)


def mp_theta(tau):
    """x -> jtheta(1, pi x, e^{i pi tau}) from mpmath, the odd theta function
    up to a constant factor that the quotients here cancel, and its
    derivative at 0.  Call under mpmath.workdps."""
    import mpmath

    nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))

    def theta(x):
        return mpmath.jtheta(1, mpmath.pi * mpmath.mpc(x), nome)

    return theta, mpmath.pi * mpmath.jtheta(1, 0, nome, 1)


def mp_kronecker(alpha, z, tau) -> complex:
    """F(alpha, z) = theta(z + alpha) theta'(0) / (theta(z) theta(alpha)) at 30
    digits."""
    import mpmath

    with mpmath.workdps(30):
        theta, prime = mp_theta(tau)
        return complex(theta(z + alpha) * prime / (theta(z) * theta(alpha)))


def test_kronecker_properties():
    """Oddness, the periods 1 and tau and Fay's identity at the kronecker
    family's points, each side times alpha (alpha alpha2 for Fay)."""
    from emzv.cli import kronecker_points

    ev = Evaluator(TAU)
    f = ev.kronecker
    points = kronecker_points(ev)
    assert len(points) == 20
    for a, z, a2, z2 in points:
        faz = f(a, z)
        assert abs(a * (faz + f(-a, -z))) < 1e-10
        assert abs(a * (f(a, z + 1) - faz)) < 1e-10
        assert abs(a * (f(a, z + TAU) - np.exp(-2j * np.pi * a) * faz)) < 1e-10
        fay = faz * f(a2, z2) - f(a + a2, z) * f(a2, z2 - z) - f(a + a2, z2) * f(a, z - z2)
        assert abs(a * a2 * fay) < 1e-10


THETA_ORACLE_TAUS = (1j, 0.5 + 0.8j, 0.3j, -0.37 + 0.21j, 0.1j)
# (z, alpha): z in the lower half, at 1/2, and in the upper half of [0, 1];
# alpha gives the direction only.
THETA_ORACLE_POINTS = ((0.13 + 0.02j, 0.21 - 0.05j), (0.5, 0.31 + 0.07j), (0.77 - 0.03j, 0.4))


@pytest.mark.parametrize("tau", THETA_ORACLE_TAUS)
def test_theta_and_kronecker_match_mpmath(tau):
    """The letter-built F against the theta quotient at 30 digits: to 1e-12
    relative at |alpha| = R/4, R the shortest period, as the kronecker family
    draws it, and to 1e-10 times 1/|alpha| at the largest alpha that
    kronecker accepts."""
    ev = Evaluator(tau)
    radius = shortest_period(ev.tau)
    for z, direction in THETA_ORACLE_POINTS:
        unit = direction / abs(direction)
        alpha = unit * radius / 4
        ref = mp_kronecker(alpha, z, tau)
        assert abs(ev.kronecker(alpha, z) - ref) < 1e-12 * abs(ref), (z, alpha)
        alpha = unit * KRONECKER_ALPHA_FRACTION * radius * (1 - 1e-12)
        ref = mp_kronecker(alpha, z, tau)
        assert abs(alpha * (ev.kronecker(alpha, z) - ref)) < 1e-10, (z, alpha)


@pytest.mark.parametrize("tau", [1j, 0.5 + 0.8j, 0.1j, 0.45 + 0.02j])
def test_kronecker_many_periods_off_the_real_axis(tau):
    """z moved by 3 to 20 periods either way, at the largest alpha that
    kronecker accepts: F is summed at z - b tau and moved back by the exact
    factor e^{-2 pi i b alpha}, within 1e-10 relative of the theta quotient
    (at most 1.5e-11 measured).  Letters shifted by the period polynomial
    instead are off by 1e-6 to 1e40 here."""
    ev = Evaluator(tau)
    radius = KRONECKER_ALPHA_FRACTION * shortest_period(ev.tau) * (1 - 1e-12)
    points = ((0.3 + 0.1j * tau.imag, 0.21 - 0.05j), (0.77 - 0.2j * tau.imag, 1j), (0.5, -0.4 + 0.3j))
    for z0, direction in points:
        alpha = direction / abs(direction) * radius
        for b in (3, -3, 5, -5, 10, -10, 20, -20):
            z = z0 + b * tau
            ref = mp_kronecker(alpha, z, tau)
            assert abs(ev.kronecker(alpha, z) - ref) <= 1e-10 * abs(ref), (z, alpha)


@pytest.mark.parametrize("tau", [0.37 + 0.1j, 0.5 + 0.8j])
def test_letters_and_kronecker_keep_their_digits_near_a_nonzero_lattice_point(tau):
    """At 1e-7 to 1e-3 from lambda = m + n tau, n != 0, f_1 and F match the
    theta quotient at 40 digits within 1e-14 relative (6e-16 measured): the
    reduced point z - b tau - m is formed without the rounding error of
    b tau, which in double precision cost up to 2e-9 relative here."""
    import mpmath

    ev = Evaluator(tau)
    radius = 0.3 * shortest_period(ev.tau)
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, n = rng.integers(-3, 4), rng.integers(1, 4) * rng.choice([-1, 1])
        z = complex(m + n * tau + 10 ** rng.uniform(-7, -3) * np.exp(2j * np.pi * rng.random()))
        alpha = complex(radius * np.exp(2j * np.pi * rng.random()))
        with mpmath.workdps(40):
            theta, prime = mp_theta(tau)
            nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
            f_1 = complex(mpmath.pi * mpmath.jtheta(1, mpmath.pi * mpmath.mpc(z), nome, 1) / theta(z))
            kronecker = complex(theta(mpmath.mpc(z) + alpha) * prime / (theta(z) * theta(alpha)))
        assert abs(ev.f_n(1, z) - f_1) <= 1e-14 * abs(f_1), z
        assert abs(ev.kronecker(alpha, z) - kronecker) <= 1e-14 * abs(kronecker), (z, alpha)


def test_kronecker_pole_error():
    """An alpha beyond KRONECKER_ALPHA_FRACTION of the shortest period, where
    the truncated series would be wrong, is refused at every z.  Near a
    lattice point z the series holds up to that limit: within 1e-14 relative
    at 0.02 and 1.45 + 0.05i, where a limit set by the distance to the
    lattice refused |alpha| above 0.008, and 1e-7 off 1 and 2 + i.  A
    lattice point z or alpha = 0 is a pole."""
    ev = Evaluator(0.5 + 0.1j)
    radius = shortest_period(ev.tau)
    assert radius == pytest.approx(0.2)  # |2 tau - 1|, below |tau| and 1
    ev.kronecker(KRONECKER_ALPHA_FRACTION * radius, 0.3)
    for z in (0.3, 0.02, 0.3 + 2.05j):
        with pytest.raises(PreconditionError, match="alpha"):
            ev.kronecker(KRONECKER_ALPHA_FRACTION * radius * (1 + 1e-9), z)
    ev = Evaluator(TAU)
    for z, size in ((0.02, 0.3), (1.45 + 0.05j, 0.2), (1 + 1e-7j, 0.4), (2.0000001 + 1j, 0.4)):
        for alpha in size * np.exp(2j * math.pi * np.arange(12) / 12):
            ref = mp_kronecker(alpha, z, TAU)
            assert abs(ev.kronecker(alpha, z) - ref) <= 1e-14 * abs(ref), (z, alpha)
    with pytest.raises(PoleError):
        ev.kronecker(1e-12, 0.3)
    with pytest.raises(PoleError):
        ev.kronecker(0.01, 1 + 1e-12)
    with pytest.raises(PoleError):
        ev.kronecker(0.01, 3 + 20j + 1e-12j)


def test_kronecker_and_letters_refuse_non_finite_and_array_points():
    ev = Evaluator(TAU)
    for z in (math.nan, complex(0.3, math.inf), complex(math.nan, 1)):
        with pytest.raises(ArgumentError, match="finite"):
            ev.f_n(2, z)
        with pytest.raises(ArgumentError, match="finite"):
            ev.kronecker(0.1, z)
    with pytest.raises(ArgumentError, match="finite"):
        ev.f_n(2, [0.3, math.nan])
    with pytest.raises(ArgumentError, match="scalar"):
        ev.kronecker(0.1, [0.3, 0.4])


def test_letters_that_overflow_are_refused_not_nan():
    """At a large Im tau, sin and cos(2 pi m z) overflow where Im z is
    large, although their products with Li_{-j}(q^m) are tiny: such letters
    raise NonConvergence, with no numpy warning, instead of returning NaN.
    Where they stay finite, and on the grid, the letters keep returning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau, z in ((400j, 0.3 + 150j), (240j, 0.3 + 115j)):
            with pytest.raises(NonConvergence, match="overflow"):
                Evaluator(tau).f_n(1, z)
        with pytest.raises(NonConvergence, match="overflow"):
            Evaluator(400j).kronecker(0.01, 0.3 + 150j)
        assert Evaluator(300j).f_n(2, 0.3 + 100j) == -2 * zeta(2)
        ev = Evaluator(400j)
        assert ev.value((2,)) == pytest.approx(-2 * zeta(2), rel=1e-15)
        assert ev.value((2, 4)) == pytest.approx(2 * zeta(2) * zeta(4), rel=1e-15)


def test_kronecker_that_overflows_is_refused_not_inf():
    """Far from the real axis F itself leaves double precision, through the
    factor e^{-2 pi i b alpha} of the move by b periods: at tau = i and
    alpha = 0.39i, the factor overflows at z = 0.3 + 300i (b = 300), and F
    at z = 0.3 + 289.4i would be 7.5e307 - inf i.  Both raise
    NonConvergence naming alpha and z, which the CLI maps to exit 4."""
    from emzv.cli import EXIT_CODES, EXIT_NUMERIC

    ev = Evaluator(TAU)
    assert cmath.isfinite(ev.kronecker(0.39j, 0.3 + 280j))
    for z in (0.3 + 300j, 0.3 + 289.4j):
        with pytest.raises(NonConvergence, match=re.escape(f"alpha = 0.39j, z = {z}")) as info:
            ev.kronecker(0.39j, z)
        assert [code for kind, code in EXIT_CODES.items() if isinstance(info.value, kind)] == [EXIT_NUMERIC]


@pytest.mark.parametrize("tau", [1j, 3j, 0.5 + 0.8j, 0.1j, 0.5 + 0.1j, 0.45 + 0.02j, -0.37 + 0.21j])
def test_shortest_period(tau):
    brute = min(abs(m + n * tau) for m in range(-60, 61) for n in range(-60, 61) if m or n)
    assert shortest_period(Tau(tau)) == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("tau", [0.5 + 0.1j, 0.45 + 0.02j, -0.37 + 0.21j, 400j])
def test_pole_error_exactly_within_pole_tolerance_of_the_lattice(tau):
    """The letters refuse z as a pole exactly where a brute-force distance
    to the lattice, over all points m + n tau near z, is below
    POLE_TOLERANCE: on skewed lattices, where rounding the coordinates of z
    in (1, tau) lands up to 41 times too far away."""
    rng = np.random.default_rng(5)
    ev = Evaluator(tau)
    m, n = np.meshgrid(np.arange(-40, 41), np.arange(-400, 401))
    lattice = (m + n * tau).ravel()
    # points around a lattice point, up to 2 POLE_TOLERANCE away, and anywhere
    centres = rng.integers(-3, 4, 300) + rng.integers(-40, 41, 300) * tau
    offsets = 2 * POLE_TOLERANCE * rng.random(300) * np.exp(2j * math.pi * rng.random(300))
    anywhere = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-1, 1, 50)
    poles = 0
    for x in [*(centres + offsets), *anywhere]:
        near = np.min(np.abs(x - lattice)) < POLE_TOLERANCE
        try:
            ev.f_n(1, x)
        except PoleError:
            assert near, x
            poles += 1
        else:
            assert not near, x
    assert 100 < poles < 200


def test_f_n_values():
    ev = Evaluator(TAU)
    rng = np.random.default_rng(11)
    q = math.exp(-2 * math.pi)
    for z in rng.uniform(0.05, 0.95, size=20):
        assert abs(ev.f_n(0, z) - 1) < 1e-12
        ref = math.pi / math.tan(math.pi * z) + 4 * math.pi * sum(
            math.sin(2 * math.pi * k * z) * q ** (k * l)
            for k in range(1, 30)
            for l in range(1, 30)
        )
        assert abs(ev.f_n(1, z) - ref) < 1e-10
        for n in (2, 3, 4):
            assert abs(ev.f_n(n, 1 - z) - (-1) ** n * ev.f_n(n, z)) < 1e-10


def lambert_reference(nodes, tau, top):
    """Rows f_0..f_top at the real `nodes`, from the Lambert series of the
    letters summed at 40 digits (Li_{-j} from mpmath.polylog) until its tail
    is below 1e-25 of its first term."""
    import mpmath

    with mpmath.workdps(40):
        pi = mpmath.pi
        q = mpmath.exp(2j * pi * mpmath.mpc(tau))
        x = math.exp(-2 * math.pi * tau.imag)
        terms = math.ceil(-math.log(1e-25 * (1 - x)) / (2 * math.pi * tau.imag))
        li = [[mpmath.polylog(-j, q**m) for m in range(1, terms + 1)] for j in range(top)]
        scale = [4 * pi * (2 * pi) ** j / mpmath.factorial(j) * (-1) ** (j // 2) for j in range(top)]
        rows = np.empty((top + 1, len(nodes)), dtype=complex)
        rows[0] = 1
        for i, z in enumerate(map(mpmath.mpf, nodes)):
            sin = [mpmath.sin(2 * pi * m * z) for m in range(1, terms + 1)]
            cos = [mpmath.cos(2 * pi * m * z) for m in range(1, terms + 1)]
            for j in range(top):
                value = scale[j] * mpmath.fdot(cos if j % 2 else sin, li[j])
                if j == 0:
                    value += pi * mpmath.cot(pi * z)
                elif j % 2:
                    value -= 2 * mpmath.zeta(j + 1)
                rows[j + 1, i] = complex(value)
    return rows


@pytest.mark.parametrize("tau", [1j, 0.5 + 0.8j, 0.3j, 0.37 + 0.1j, 0.05j])
def test_letters_match_a_40_digit_lambert_reference(tau):
    """f_0..f_28 on split-1 nodes (every tenth, and the last), each within
    1e-13 of its largest magnitude there."""
    split = Evaluator(tau)._splits()[0]
    picked = np.r_[0 : len(split.grid.lower_nodes) : 10, -1]
    ref = lambert_reference(split.grid.lower_nodes[picked], tau, MAX_LETTER)
    for n in range(MAX_LETTER + 1):
        got = split.letters[n][picked]
        assert np.max(np.abs(got - ref[n])) <= 1e-13 * np.max(np.abs(ref[n])), n


# (tau, z): z off the real axis, up to three periods of tau away, so that
# f_n(z) needs the shift by periods; alpha is well inside the radius of the
# Laurent series of F(alpha, z) at 0.
KRONECKER_POINTS = [
    (1j, [0.3 + 0.4j, 0.7 - 1.3j, -0.2 + 2.1j, 1.45 + 0.05j]),
    (0.5 + 0.8j, [0.3 + 0.3j, 0.2 - 1.1j, 0.4 + 2.5j]),
    (-0.37 + 0.21j, [0.3 + 0.05j, 0.15 + 0.5j, 0.6 - 0.65j]),
]


@pytest.mark.parametrize("tau, zs", KRONECKER_POINTS)
def test_letters_sum_to_the_theta_built_kronecker_function(tau, zs):
    """sum_n f_n(z) alpha^{n-1} against the theta quotient at 30 digits."""
    ev = Evaluator(tau)
    rng = np.random.default_rng(7)
    radius = 0.2 * min(1.0, tau.imag)
    for z in zs:
        letters = np.array([ev.f_n(n, z) for n in range(MAX_LETTER + 1)])
        assert np.allclose(ev.f_n(3, [z, z]), letters[3], rtol=1e-14, atol=0)
        for alpha in radius * np.exp(2j * math.pi * rng.random(4)):
            series = np.sum(letters * alpha ** np.arange(-1.0, MAX_LETTER))
            ref = mp_kronecker(alpha, z, tau)
            assert abs(series - ref) <= 1e-12 * abs(ref), (z, alpha)


def test_letters_refuse_an_im_tau_below_the_term_cap_before_allocating():
    """MIN_IM_TAU is the lowest Im tau whose grid letters fit in
    LAMBERT_MAX_TERMS.  Below it the letters raise NonConvergence before any
    table (or the grid) is built: at Im tau = 1e-5 the tables would take
    gigabytes."""
    import tracemalloc

    ev = Evaluator(MIN_IM_TAU * 1j)
    ev._splits()
    with pytest.raises(NonConvergence, match="LAMBERT_MAX_TERMS"):
        Evaluator((MIN_IM_TAU - 1e-5) * 1j)._splits()
    assert ev.f_n(2, 0.3) == pytest.approx(ev.f_n(2, 1.3), rel=1e-12)
    tiny = Evaluator(1e-5j)
    tracemalloc.start()
    try:
        with pytest.raises(NonConvergence, match="LAMBERT_MAX_TERMS"):
            tiny._splits()
        with pytest.raises(NonConvergence, match="LAMBERT_MAX_TERMS"):
            tiny.f_n(2, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert tiny._pair is None


def test_values_at_large_im_tau_reach_the_constant_letter_limit():
    """As tau -> i infinity, f_n -> a_n with a_0 = 1, a_n = -2 zeta(n) for even
    n and a_n = 0 for odd n > 1, so I(k) -> prod_i a_{k_i} / r! for every k
    without an entry 1.  At tau = 6i, q = 4e-17, and the Fourier terms of
    the letters up to weight 8 are below 5e-14."""
    from emzv.faypoly import compositions

    ev = Evaluator(6j)
    limit = [1.0] + [-2 * zeta(n) if n % 2 == 0 else 0.0 for n in range(1, 9)]
    indices = [k for r in range(1, 5) for w in range(9) for k in compositions(w, r) if 1 not in k]
    assert len(indices) == 275
    for k in indices:
        expected = math.prod(limit[n] for n in k) / math.factorial(len(k))
        assert abs(ev.value(k) - expected) <= 5e-14 * max(1.0, abs(expected)), k


@pytest.mark.parametrize("tau, worst", [(1j, 1e-13), (0.1j, 1e-6), (0.07j, 1e-6), (0.05j, 1e-6)])
def test_reduction_sweep_holds_down_to_im_tau_one_twentieth(tau, worst):
    """Every index of weight <= 6 and length <= 4 against its reduction:
    none raises, and no residual exceeds `worst`."""
    from emzv.faypoly import compositions
    from emzv.reduction import reduce_index

    ev = Evaluator(tau)
    for k in (k for r in range(5) for w in range(7) for k in compositions(w, r)):
        assert abs(ev.value(k) - ev.eval_expression(reduce_index(k)[0])) <= worst, k


def test_f_n_pole():
    ev = Evaluator(TAU)
    with pytest.raises(PoleError):
        ev.f_n(1, 1e-12)


def test_simplex_volumes():
    # from r = 2 NODE_CACHE_LENGTH + 2 on, the prefix of the full word is scratch
    for r in range(1, MAX_IINT_LENGTH + 1):
        v = Evaluator(TAU).value((0,) * r)
        assert abs(v - 1 / math.factorial(r)) < 1e-10, r


@pytest.mark.parametrize(
    "k",
    [
        (4, 0, 0, 1, 0, 1),
        (1, 2, 0, 0, 3, 1),
        (1, 1, 2, 0, 2, 0, 1),
        (1, 0, 0, 0, 0, 0, 0, 3),
        (3, 0, 1, 0, 0, 2, 1, 1),
    ],
)
def test_long_indices_match_their_reduction(k):
    """Indices of length 6 to 8, whose longest words are split at a letter
    with a prefix kept only for one Chen sum, against their reductions."""
    from emzv.reduction import reduce_index

    ev = Evaluator(0.5 + 0.8j)
    expr = reduce_index(k)[0]
    assert expr != Expression.atom(k)
    assert abs(ev.value(k) - ev.eval_expression(expr)) <= 1e-12, k


def test_length_one_values():
    for tau in (TAU, TAU2):
        ev = Evaluator(tau)
        assert abs(ev.value((2,)) + math.pi**2 / 3) < 1e-8
        assert abs(ev.value((3,))) < 1e-8
        assert abs(ev.value((4,)) + 2 * zeta(4)) < 1e-8
    assert abs(Evaluator(TAU).regularized(())[0] - 1) < 1e-15
    assert Evaluator(TAU).value(()) == 1


def test_admissible_preconditions():
    with pytest.raises(PreconditionError):
        Evaluator(TAU).regularized((0,) * 9)


def test_quadrature_refinement_agreement():
    ev = Evaluator(TAU)
    for k in [(2,), (0, 2), (2, 1, 2)]:
        assert ev.regularized(k)[1] < 1e-11, k


def chen_sum(split, k):
    """The Chen sum at x = 0 on one panel split, as Evaluator.regularized
    computes it before comparing the two splits."""
    return split.chen_sum(_chen_terms(k))


def forward_reference(split, k, magnitude=False):
    """Reference I(k) on one panel split: one forward nested Gauss-Legendre
    pass over the panels of [0, 1], letters on the upper half by
    reflection, with its node values A_k(x) on every node of [0, 1].  With
    `magnitude`, the same pass over |f_n|, the scale of its rounding
    error."""
    grid = split.grid
    _, wg, amat = _legendre_antiderivative_matrix(grid.order)
    half = np.diff(grid.breakpoints) / 2.0
    g = np.ones(half.size * grid.order, dtype=complex)
    total = 1.0 + 0.0j
    for n in k:
        lower = split.letters[n]
        values = np.concatenate([lower, (-1) ** n * lower[::-1]])
        if magnitude:
            values = np.abs(values)
        h = (g * values).reshape(-1, grid.order)
        panel_ints = half * (h @ wg)
        starts = np.concatenate(([0.0], np.cumsum(panel_ints)[:-1]))
        g = (starts[:, None] + half[:, None] * (h @ amat.T)).ravel()
        total = complex(panel_ints.sum())
    return total, g


def assert_matches_forward(split, k, scale=None):
    """chen_sum against the forward reference: 1e-12 relative to `scale`
    (by default the reference value), or 1e-13 absolute when it is below
    1."""
    ref = forward_reference(split, k)[0]
    scale = abs(ref) if scale is None else scale
    tol = 1e-12 * scale if scale >= 1 else 1e-13
    assert abs(chen_sum(split, k) - ref) <= tol, k


# Admissible words only: their Chen sums read every B_w(0) unregularized,
# which is what the forward pass integrates.
@pytest.mark.parametrize("k", [(2,), (0, 2), (2, 1, 3), (0, 1, 1, 2), (4, 1, 0, 2)])
def test_cut_integral_matches_forward_quadrature(k):
    for split in Evaluator(TAU)._splits():
        assert_matches_forward(split, k)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=4).map(tuple).filter(is_admissible),
    st.sampled_from((0, 1)),
)
def test_cut_integral_matches_forward_quadrature_random(k, which):
    # Many words integrate to 0 by the reflection or the shuffle relations,
    # so the error is measured against the integral of the magnitudes, not
    # against the value.
    split = Evaluator(TAU)._splits()[which]
    scale = abs(forward_reference(split, k, magnitude=True)[0])
    assert_matches_forward(split, k, scale)


def test_a_split_reads_its_alphabet_from_its_letter_table():
    """A split over a stacked table, the grid's letters in rows 0-28 and a
    copy of them in rows 30-58, gives each admissible word of weight <= 6
    and length <= 4 with every letter raised by 30 the Chen sum of the word
    itself, within 1e-14 relative: the offset is even, so the reflection
    sign (-1)^{|w|} holds, and only row 1 is singular.  A table with
    derivative rows after the letters is read the same way."""
    from emzv.faypoly import compositions

    words = [k for r in range(1, 5) for w in range(7) for k in compositions(w, r) if is_admissible(k)]
    for split in Evaluator(TAU)._splits():
        filler = np.zeros((1, split.letters.shape[1]), dtype=complex)
        stacked = _Split(split.grid, np.vstack([split.letters, filler, split.letters]))
        assert len(stacked.letters) == 59
        for k in words:
            expected = chen_sum(split, k)
            got = chen_sum(stacked, tuple(n + 30 for n in k))
            assert abs(got - expected) <= 1e-14 * abs(expected), k


def test_values_do_not_depend_on_cache_order():
    indices = [k for r in range(1, 4) for k in np.ndindex(*(5,) * r) if sum(k) <= 4]
    warm = Evaluator(TAU)
    for k in reversed(indices):
        warm.value(k)
    for k in indices:
        assert Evaluator(TAU).value(k) == warm.value(k), k


def test_cut_integrals_do_not_depend_on_cache_order_at_length_four():
    # These words are split at a letter, between a one-letter prefix and a
    # two-letter tail whose node values the warm evaluator has kept from
    # earlier words.
    indices = list(itertools.product(range(4), repeat=4))
    warm = Evaluator(TAU)
    for k in reversed(indices):
        warm.value(k)
    for k in indices:
        fresh = Evaluator(TAU)
        for i, (new, old) in enumerate(zip(fresh._splits(), warm._splits()), 1):
            assert bits(chen_sum(new, k)) == bits(chen_sum(old, k)), (k, i)
        value, gap = fresh.regularized(k)
        warm_value, warm_gap = warm.regularized(k)
        assert (bits(value), gap.hex()) == (bits(warm_value), warm_gap.hex()), k
        assert bits(fresh.value(k)) == bits(warm.value(k)), k


def test_short_words_are_swept_once(monkeypatch):
    """One evaluator over the W<=6/L<=4 population sweeps each word of length
    <= NODE_CACHE_LENGTH at most once per direction and split: backward as a
    tail, forward as a prefix.  It builds the head vector of each tail once
    per split, and none for a longer tail, since a longer word is split at
    a letter; reg B_1 is a weighted sum and runs no sweep.  That takes 92
    sweeps (290 when length-3 tails were swept for head vectors, 892 when
    every B_w(0) was read from a sweep of w, 1156 when a log-power fit read
    every cut of two profiles, 2388 when no node values were kept)."""
    from emzv.faypoly import compositions
    from emzv.reduction import reduce_index

    active, swept, heads = [], Counter(), {}
    originals = {name: getattr(_Split, name) for name in ("sweep", "prefix", "head")}
    grid_passes = {name: getattr(PanelGrid, name) for name in ("sweep", "forward")}

    def tracked(name):
        def method(self, word, *scratch):
            active.append((name, word))
            try:
                return originals[name](self, word, *scratch)
            finally:
                active.pop()

        return method

    def counted(name):
        def method(self, letter, inner):
            swept[(split_of[self], *active[-1]) if active else None] += 1
            return grid_passes[name](self, letter, inner)

        return method

    def tracked_head(self, tail):
        head = originals["head"](self, tail)
        key = (split_of[self.grid], tail)
        assert heads.setdefault(key, head) is head, key
        return head

    monkeypatch.setattr(_Split, "sweep", tracked("sweep"))
    monkeypatch.setattr(_Split, "prefix", tracked("prefix"))
    monkeypatch.setattr(_Split, "head", tracked_head)
    monkeypatch.setattr(PanelGrid, "sweep", counted("sweep"))
    monkeypatch.setattr(PanelGrid, "forward", counted("forward"))
    ev = Evaluator(TAU)
    split_of = {split.grid: n for n, split in enumerate(ev._splits(), 1)}
    for r in range(5):
        for w in range(7):
            for k in compositions(w, r):
                ev.value(k)
                ev.eval_expression(reduce_index(k)[0])
    assert None not in swept
    assert {name for _, name, _ in swept} == {"sweep", "prefix"}
    assert all(len(word) <= NODE_CACHE_LENGTH for _, _, word in swept)
    repeated = {key: n for key, n in swept.items() if n > 1}
    assert not repeated
    tails = {split: {tail for s, tail in heads if s == split} for split in (1, 2)}
    assert tails[1] == tails[2]
    assert all(len(tail) <= NODE_CACHE_LENGTH for tail in tails[1])
    assert sum(swept.values()) <= 92


def test_head_vectors_leave_the_divergent_entry_nan():
    """Entry 1 of a head vector, B_{1 s}(0), diverges; the graded grid would
    give it a finite value with no meaning, so it is NaN, and every
    regularized value, which reads only convergent entries, is finite."""
    from emzv.faypoly import compositions

    ev = Evaluator(TAU)
    for k in (k for r in range(5) for w in range(7) for k in compositions(w, r)):
        assert cmath.isfinite(ev.value(k)), k
    for i, split in enumerate(ev._splits(), 1):
        assert split._heads
        for tail, head in split._heads.items():
            assert cmath.isnan(head[1]), (i, tail)
            assert all(cmath.isfinite(v) for a, v in enumerate(head) if a != 1), (i, tail)


def test_head_vectors_match_a_direct_sweep():
    """B_{a s}(0) matches the x = 0 value of a direct chain of backward
    passes, to 1e-13 of the same chain over the magnitudes of the letters.
    It is read from the head vector of s where s is at most
    NODE_CACHE_LENGTH long, and split at a letter for the longer tails."""
    ev = Evaluator(TAU)
    for i, split in enumerate(ev._splits(), 1):
        grid, letters = split.grid, split.letters
        tails = [s for r in range(4) for s in itertools.product(range(4), repeat=r)]
        for s in tails:
            direct = np.ones(len(grid.lower_nodes), dtype=complex)
            magnitude = direct.copy()
            for n in reversed(s):
                _, direct = grid.sweep(letters[n], direct)
                _, magnitude = grid.sweep(np.abs(letters[n]), magnitude)
            for a in (0, 2, 3, 4):
                expected, _ = grid.sweep(letters[a], direct)
                scale, _ = grid.sweep(np.abs(letters[a]), magnitude)
                got = split.reg((a,) + s, {})
                assert abs(got - expected) <= 1e-13 * abs(scale), (i, a, s)


@pytest.mark.parametrize("tau", [TAU, 0.5 + 0.8j])
def test_long_words_split_at_a_letter_match_a_direct_sweep(tau):
    """B_w(0) of every convergent word of weight <= 6 and length 4 to 5, read
    as int_0^{1/2} A_p f_a B_s with w = p a s, matches the x = 0 value of a
    direct chain of backward passes over w[1:] read at letter w[0], to
    1e-12 of the same chain over the magnitudes of the letters."""
    from emzv.faypoly import compositions

    ev = Evaluator(tau)
    words = [w for r in (4, 5) for n in range(7) for w in compositions(n, r) if w[0] != 1]
    assert all(len(w) > NODE_CACHE_LENGTH + 1 for w in words)
    for i, split in enumerate(ev._splits(), 1):
        grid, letters = split.grid, split.letters
        chains = {(): (np.ones(len(grid.lower_nodes), dtype=complex),) * 2}

        def chain(s):  # B_s on the nodes, and the same chain over magnitudes
            if s not in chains:
                direct, magnitude = chain(s[1:])
                letter = letters[s[0]]
                chains[s] = (grid.sweep(letter, direct)[1], grid.sweep(np.abs(letter), magnitude)[1])
            return chains[s]

        for w in words:
            direct, magnitude = chain(w[1:])
            expected, _ = grid.sweep(letters[w[0]], direct)
            scale, _ = grid.sweep(np.abs(letters[w[0]]), magnitude)
            got = split.reg(w, {})
            assert abs(got - expected) <= 1e-12 * abs(scale), (i, w)


def test_forward_pass_matches_the_forward_reference():
    """A chain of PanelGrid.forward passes gives A_p on the lower-half nodes
    as the forward pass over [0, 1] does, to 1e-13 of the same pass over the
    magnitudes of the letters at each node, and A_{0^m}(x) = x^m / m!."""
    ev = Evaluator(TAU)
    for i, split in enumerate(ev._splits(), 1):
        grid = split.grid
        lower = len(grid.lower_nodes)
        for r in range(1, 4):
            for p in itertools.product(range(4), repeat=r):
                if p[0] == 1:  # A_1 diverges at 0
                    continue
                got = np.ones(lower, dtype=complex)
                for n in p:
                    got = grid.forward(split.letters[n], got)
                expected = forward_reference(split, p)[1][:lower]
                scale = np.abs(forward_reference(split, p, magnitude=True)[1][:lower])
                assert np.all(np.abs(got - expected) <= 1e-13 * scale), (i, p)
                if set(p) == {0}:
                    volume = grid.lower_nodes**r / math.factorial(r)
                    assert np.max(np.abs(got - volume)) <= 1e-16, (i, p)


def test_a_letter_above_max_letter_is_refused_at_every_position():
    """The letter limit is a domain error, checked once per index before
    any grid is built: a cold evaluator that refuses an index has built no
    split."""
    warm = Evaluator(TAU)
    for r in range(1, MAX_IINT_LENGTH + 1):
        for base in ((0,) * r, (1,) * r, (2,) * r):
            warm.value(base)
            for i in range(r):
                k = base[:i] + (MAX_LETTER + 1,) + base[i + 1 :]
                cold = Evaluator(TAU)
                for ev in (warm, cold):
                    with pytest.raises(PreconditionError, match="letter order 29"):
                        ev.regularized(k)
                    with pytest.raises(PreconditionError, match="letter order 29"):
                        ev.value(k)
                assert cold._pair is None, k


def test_value_validates_what_it_has_not_cached():
    ev = Evaluator(TAU)
    assert ev.value([2, 0, 3]) == ev.value((2, 0, 3)) == ev.regularized((2, 0, 3))[0]
    with pytest.raises(ArgumentError):
        ev.value((-1,))
    with pytest.raises(ArgumentError):
        ev.value([2, -1])


def test_value_validates_what_it_has_cached():
    """(2.0,) == (2,) and hashes alike, so a float index finds the cached
    value of I(2); it is refused all the same, as on a cold evaluator."""
    ev = Evaluator(TAU)
    with pytest.raises(ArgumentError):
        ev.value((2.0,))
    ev.value((2,))
    with pytest.raises(ArgumentError):
        ev.value((2.0,))
    assert ev.value((True, 0)) == ev.value((1, 0))


def mp_gauss_legendre(order: int, dps: int = 40) -> tuple[list, list]:
    """Test-only reference: the nodes (ascending) and weights of the
    `order`-point Gauss-Legendre rule to `dps` digits, by Newton's method on
    the three-term recurrence from the cosine guess.  The lower half is
    computed and the upper half is its mirror image."""
    import mpmath

    def legendre(x):  # P_order(x), P_order'(x)
        prev, cur = mpmath.mpf(1), x
        for k in range(1, order):
            prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
        return cur, order * (prev - x * cur) / (1 - x * x)

    with mpmath.workdps(dps):
        lower = []
        for i in range(1, (order + 1) // 2 + 1):
            x = -mpmath.cos(mpmath.pi * (i - mpmath.mpf(1) / 4) / (order + mpmath.mpf(1) / 2))
            step = 1
            while abs(step) > mpmath.mpf(10) ** (2 - dps):
                p, dp = legendre(x)
                step = p / dp
                x -= step
            lower.append((x, 2 / ((1 - x * x) * legendre(x)[1] ** 2)))
        mirror = [(-x, w) for x, w in reversed(lower[: order // 2])]
        nodes, weights = zip(*(lower + mirror))
    return list(nodes), list(weights)


def test_gauss_legendre_rule_matches_a_40_digit_reference():
    """Nodes within 2.3e-16 of a 40-digit rule.  Weights no further from it,
    relatively, than numpy's leggauss, which builds its rule from the
    companion matrix; below about 20 nodes both rules are within a few units
    in the last place and either can be the closer, so 2 eps is allowed."""
    import mpmath
    from numpy.polynomial.legendre import leggauss  # the package never imports it

    def weight_error(weights, reference):
        return max(abs(float((mpmath.mpf(a) - b) / b)) for a, b in zip(weights, reference))

    eps = np.finfo(float).eps
    for order in (1, 2, 3, 12, 24, 50, 100):
        ref_x, ref_w = mp_gauss_legendre(order)
        x, w, _ = _legendre_antiderivative_matrix(order)
        assert max(abs(float(mpmath.mpf(a) - b)) for a, b in zip(x, ref_x)) <= 2.3e-16, order
        numpy_error = weight_error(leggauss(order)[1], ref_w)
        assert weight_error(w, ref_w) <= max(numpy_error, 2 * eps), order


def test_gauss_legendre_collocation_identity():
    """W A + A^T W = w w^T (W = diag(w)), the identity of the module
    docstring that makes the backward pass the forward split."""
    for order in range(1, 101):
        _, w, amat = _legendre_antiderivative_matrix(order)
        lhs = w[:, None] * amat + amat.T * w[None, :]
        assert np.max(np.abs(lhs - np.outer(w, w))) <= 2e-16, order


def test_every_grid_of_an_order_shares_one_read_only_rule():
    rule = _legendre_antiderivative_matrix(DEFAULT_CONFIG.panel_order)
    for tau in (TAU, 0.5 + 0.8j):
        ev = Evaluator(tau)
        for i, split in enumerate(ev._splits(), 1):
            assert split.grid._wg is rule[1] and split.grid._amat is rule[2], (tau, i)
    assert not any(array.flags.writeable for array in rule)


def test_split_below_one_is_rejected():
    for split in (0, -1):
        with pytest.raises(ArgumentError):
            PanelGrid(DEFAULT_CONFIG.panel_order, 4, split)


def test_regularized_zero_values():
    # I(1) = 0 exactly: reg B_1 enters Chen's sum once with each sign.
    for tau in (TAU, TAU2, 0.5 + 0.8j, 0.1j):
        assert Evaluator(tau).regularized((1,)) == (0, 0)
    assert abs(Evaluator(TAU).regularized((1, 1))[0]) < 1e-6


def test_regularized_shuffle_and_reflection():
    ev = Evaluator(TAU)
    # I(1,0) + I(0,1) = I(1) I(0) = 0
    assert abs(ev.value((1, 0)) + ev.value((0, 1))) < 1e-6
    # reflection through the regularized path only, weights <= 4
    for k in [(1, 2), (0, 1), (1, 1, 2), (1, 0, 2), (1, 2, 1)]:
        sign = (-1) ** sum(k)
        lhs = ev.regularized(k[::-1])[0]
        rhs = sign * ev.regularized(k)[0]
        assert abs(lhs - rhs) < 1e-6, k
    # reported error estimates are small
    _, est = ev.regularized((1, 2))
    assert est < 1e-6


@pytest.mark.parametrize("tau", [1j, 2j, 0.3j, 0.15j, 0.5 + 0.8j, -0.21 + 0.6j, 0.37 + 0.35j])
def test_i01_matches_its_q_expansion(tau):
    """I(0,1) = i pi/2 + 2 sum_{m>=1} log(1 - q^m) with q = exp(2 pi i tau).
    Its Chen sum reads reg B_{1,0} = reg B_1 B_0(0) - B_{0,1}(0) from the
    shuffle loop of _reg, so this pins that loop and reg B_1 exactly."""
    q = cmath.exp(2j * math.pi * tau)
    series, qm = 0j, q
    while abs(qm) > 1e-20:
        series += cmath.log(1 - qm)
        qm *= q
    closed = 0.5j * math.pi + 2 * series
    assert abs(Evaluator(tau).regularized((0, 1))[0] - closed) < 1e-14


@pytest.mark.parametrize("tau", [0.05j, 0.02j, 0.01j, -0.03 + 0.02j, 0.37 + 0.1j, -0.37 + 0.1j, 0.25 + 0.1j])
def test_i01_matches_its_modular_form_near_the_cusp(tau):
    """I(0,1) = i pi/2 + 2 log eta(tau) - i pi tau/6, and eta(tau) =
    (-i tau)^{-1/2} eta(-1/tau) gives

      I(0,1) = i pi/2 - log(-i tau) - i pi/(6 tau) - i pi tau/6
               + 2 sum_{m>=1} log(1 - qt^m),  qt = exp(-2 pi i / tau),

    whose series is short where the q-expansion is long: at Im tau <= 0.1."""
    qt = cmath.exp(-2j * math.pi / tau)
    series, qm = 0j, qt
    while abs(qm) > 1e-20:
        series += cmath.log(1 - qm)
        qm *= qt
    closed = 0.5j * math.pi - cmath.log(-1j * tau) - 1j * math.pi / (6 * tau) - 1j * math.pi * tau / 6
    closed += 2 * series
    assert abs(Evaluator(tau).regularized((0, 1))[0] - closed) < 1e-13


# tau, the multiple of 2 pi i by which reg B_1 differs from its closed
# form, and the tolerance.  At Re tau = -+0.1, Im tau = 0.1 the argument of
# theta(1/2) / theta'(0) is within 3e-16 of -+pi, on the near side of the
# cut of the principal log, and reg B_1 follows it there.
REG_B1_TAUS = [
    (1j, 0, 1e-14),
    (0.5 + 0.8j, 0, 1e-14),
    (0.2j, 0, 1e-14),
    (-0.3 + 0.4j, 0, 1e-14),
    (-0.1 + 0.1j, 0, 1e-13),
    (0.1 + 0.1j, 0, 1e-13),
]


@pytest.mark.parametrize("tau, turns, tol", REG_B1_TAUS)
def test_reg_b1_is_the_log_of_theta_at_one_half(tau, turns, tol):
    """reg B_1 = int_0^{1/2} (f_1 - 1/z) + log(pi) - i pi/2 is a convention that
    no identity checks (any constant gives a shuffle homomorphism), so it is
    pinned to log(theta(1/2) / theta'(0)) + log(2 pi) - i pi/2, the constant
    term of B_1(x) in powers of log(-2 pi i x), up to the branch of the log;
    theta from mpmath at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        theta, prime = mp_theta(tau)
        ratio = complex(theta(0.5) / prime)
    closed = cmath.log(ratio) + math.log(2 * math.pi) - 0.5j * math.pi
    c = Evaluator(tau)._splits()[1].reg((1,), {})
    assert abs(c - closed - 2j * math.pi * turns) < tol, tau


NON_ADMISSIBLE = (
    st.lists(st.integers(0, 3), min_size=1, max_size=3)
    .map(tuple)
    .filter(lambda k: k[0] == 1 or k[-1] == 1)
)


@settings(max_examples=100, deadline=None)
@given(NON_ADMISSIBLE, NON_ADMISSIBLE)
def test_regularized_values_multiply_by_shuffle(u, v):
    ev = Evaluator(TAU)
    rhs = sum(n * ev.value(w) for w, n in shuffle(u, v))
    assert abs(ev.value(u) * ev.value(v) - rhs) < 1e-12


def test_reflection_of_zero_one_words():
    ev = Evaluator(TAU)
    for r in range(1, 6):
        for k in itertools.product((0, 1), repeat=r):
            assert abs(ev.value(k[::-1]) - (-1) ** sum(k) * ev.value(k)) < 1e-12, k


def test_zeta():
    assert zeta(0) == -0.5
    assert abs(zeta(2) - math.pi**2 / 6) < 1e-13
    assert abs(zeta(4) - math.pi**4 / 90) < 1e-13
    assert abs(zeta(3) - 1.2020569031595943) < 1e-13
    with pytest.raises(ArgumentError):
        zeta(1)
    with pytest.raises(ArgumentError):
        zeta(-2)


def test_eval_expression():
    ev = Evaluator(TAU)
    assert ev.eval_expression(Expression.unit()) == 1
    ident = parity_split((0, 2))
    lhs = ev.eval_expression(ident.lhs)
    rhs = ev.eval_expression(ident.rhs)
    assert abs(lhs - rhs) < 1e-10
    ident = shuffle_identity((1,), (0, 2))
    res = ev.eval_expression(ident.lhs - ident.rhs)
    assert abs(res) < 1e-6


def term_parts(ev, pairs) -> tuple[list, list]:
    """Real and imaginary parts of the products coef * prod value(atom)."""
    real, imag = [], []
    for mon, coef in pairs:
        prod = complex(coef)
        for atom in mon:
            prod *= ev.value(atom)
        real.append(prod.real)
        imag.append(prod.imag)
    return real, imag


def test_eval_expression_reads_numerators_bitwise():
    """Numerators over one denominator give the same bits as Fraction
    coefficients: int / int and float(Fraction) both round once, and each
    component of the result is the exactly rounded sum of the products."""
    from emzv.faypoly import compositions
    from emzv.reduction import reduce_index

    ev = Evaluator(TAU)
    dens = set()
    for r in range(4):
        for w in range(6):
            for k in compositions(w, r):
                expr, _ = reduce_index(k)
                dens.add(expr.den)
                real, imag = term_parts(ev, expr.items())
                expected = complex(math.fsum(real), math.fsum(imag))
                assert bits(ev.eval_expression(expr)) == bits(expected), k
    assert dens > {1}


#: Atoms of mixed length and weight for the summation tests.
SUM_ATOMS = [(0,), (2,), (4,), (0, 2), (2, 0, 1), (1, 2), (3, 0, 1, 2), (0, 0, 0, 0)]


@settings(max_examples=60, deadline=None)
@given(
    terms=st.lists(
        st.tuples(
            st.lists(st.sampled_from(SUM_ATOMS), max_size=3),
            st.integers(-(10**18), 10**18).filter(bool),
        ),
        min_size=1,
        max_size=12,
    ),
    den=st.integers(1, 10**6),
    rng=st.randoms(use_true_random=False),
)
def test_eval_expression_sum_is_exactly_rounded_and_order_free(terms, den, rng):
    """The same (monomial, numerator) pairs stored in a shuffled order give
    the same bits, and each component is the exactly rounded sum of the
    term products."""
    from emzv.relations import monomial

    ev = Evaluator(TAU)
    pairs = list({monomial(atoms): n for atoms, n in terms}.items())
    expr = Expression._sum(pairs, den)
    rng.shuffle(pairs)
    shuffled = Expression._sum(pairs, den)
    assert shuffled == expr
    got = ev.eval_expression(expr)
    assert bits(ev.eval_expression(shuffled)) == bits(got)
    real, imag = term_parts(ev, expr.items())
    assert got.real == float(sum(map(Fraction, real)))
    assert got.imag == float(sum(map(Fraction, imag)))


@pytest.mark.parametrize("k", [(1, 2, 3, 1), (1, 2, 3, 1, 0)])
def test_reduction_of_large_cancelling_sums_at_im_tau_one_twentieth(k):
    """At 0.05i the reduction of I(1,2,3,1) is a sum of 185 terms up to
    4.6e10 that cancel to 9.7e7: a left-to-right float sum misses the value
    by 1.03e-5 (6.42e-6 for I(1,2,3,1,0)), the exactly rounded one by less
    than 1e-6."""
    from emzv.reduction import reduce_index

    ev = Evaluator(0.05j)
    assert abs(ev.value(k) - ev.eval_expression(reduce_index(k)[0])) <= 2e-6


def test_eval_expression_raises_for_the_first_atom_in_canonical_order():
    """At 0.01i with tolerance 5e-9 both I(4) and I(0,4) raise; stored with
    I(0,4) first, the sum still raises the error of I(4), which comes first
    in numerators() order."""
    ev = Evaluator(0.01j, NumericsConfig(tolerance=5e-9))
    expr = Expression.atom((0, 4)) + Expression.atom((4,))
    assert next(iter(expr._terms)) == ((0, 4),)
    assert expr.numerators()[0][0] == ((4,),)
    with pytest.raises(ToleranceError, match=re.escape("refinement moved I(4,) by ")):
        ev.eval_expression(expr)
