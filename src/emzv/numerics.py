"""Complex-analytic evaluation of the values behind the formal atoms.

The building blocks:

  Evaluator.f_n   Laurent coefficients of the Kronecker function
                  F(alpha, z) = theta(z + alpha) theta'(0) / (theta(z) theta(alpha))
                  in alpha (F = sum_n f_n(z) alpha^{n-1}), summed from their
                  closed-form Lambert series in q (see _lambert_letters)
  Evaluator.kronecker
                  F summed from the letters at z moved by periods, well
                  inside its radius in alpha, the shortest period: its
                  identities check the letters
  Evaluator.regularized
                  iterated integral of the letters f_{k_i} over the ordered
                  simplex in [0, 1], shuffle-regularized at the endpoints
                  (I(1) = 0) where it diverges, with its split gap: the one
                  entry that computes a value
  Evaluator.value the same value, cached per evaluator

All evaluation shares one dyadically graded panel grid per (tau, config),
symmetric under z -> 1 - z, and every integral is assembled from the lower
half [0, 1/2].  A sweep of a word w is

  B_w(x) = int_{x < z_1 < ... < z_m < 1/2} f_{w_1}(z_1) ... f_{w_m}(z_m),

computed from B_{w[1:]} on the nodes by one backward pass of composite
Gauss-Legendre panels.  Its mirror, the prefix integral

  A_w(x) = int_{0 < z_1 < ... < z_m < x} f_{w_1}(z_1) ... f_{w_m}(z_m),

comes from A_{w[:-1]} by one forward pass.  Every value is computed on
panel splits 1 and 2, one _Split each: its grid, its letter table and the
memos of its integrals, one entry per word.  Evaluator._splits, the one
place that builds them, makes both together at the first value.

Only tails s of length <= NODE_CACHE_LENGTH are ever swept, once each.  A
word a s up to one letter longer is read from the head vector of s, the
letters times the weighted node values of s, whose entry a is B_{a s}(0)
for every letter a at once.  A longer word w = p a s, s its last
NODE_CACHE_LENGTH letters, is split at the letter a by Chen's identity at
every node,

  B_w(0) = int_0^{1/2} A_p(z) f_a(z) B_s(z) dz,

one weighted product on each split.  The node values of prefixes p up to
NODE_CACHE_LENGTH are kept like those of tails; longer ones are rebuilt
from them for one Chen sum.  Chen's identity at 1/2 and the reflection
f_n(1 - z) = (-1)^n f_n(z) give the integral over the whole simplex:

  I(k) = sum_{j=0..r} B_{k[:j]}(0) (-1)^{|k[j:]|} B_{rev(k[j:])}(0).

Only f_1 has a pole on [0, 1], so B_w(0) converges unless w starts with 1.
Every value is this sum with each B_w(0) replaced by its shuffle
regularization (see _Split.reg), which is B_w(0) itself where that
converges; the gap between the sums on the two splits is its error
estimate.  Each split keeps every reg B_w(0), so a Chen sum over words
already seen is a few dictionary reads.

The forward pass integrates panel start to node by the antiderivative
collocation A, and the backward pass node to panel end as the panel
integral minus it.  Gauss-Legendre collocation satisfies
W A + A^T W = w w^T (W = diag(w)), so the backward pass is the forward
pass of the definition up to rounding.  The rule of each panel order
(nodes, weights, A) is built once per process, without numpy.polynomial:
the nodes are the eigenvalues of the Jacobi matrix, refined by two Newton
steps on the three-term recurrence, and every grid of that order shares
its read-only arrays.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .relations import Expression
from .words import ArgumentError, Index, PreconditionError, as_index, shuffle

TWO_PI_I = 2j * math.pi

#: Longest index whose iterated integral is evaluated.
MAX_IINT_LENGTH = 8
#: Highest letter order n whose f_n is evaluated.
MAX_LETTER = 28
#: Evaluator.kronecker sums F(alpha, z) from its letters only where |alpha| is
#: at most this fraction of the shortest period, the radius in alpha of the
#: series it sums.
KRONECKER_ALPHA_FRACTION = 0.4
#: The Lambert series of the letters is cut where its tail falls below this
#: fraction of its first term.
LAMBERT_TARGET = 1e-17
#: Lambert series terms summed at most; a letter that needs more is refused
#: with NonConvergence.
LAMBERT_MAX_TERMS = 1024
#: The lowest Im tau (rounded up) at which the letters on the grid stay
#: within LAMBERT_MAX_TERMS.
MIN_IM_TAU = 0.00659
#: The panel grid's finest breakpoints are 2^-GRADING_DEPTH and its mirror.
GRADING_DEPTH = 45
#: Points closer than this to a lattice point are refused as poles.
POLE_TOLERANCE = 1e-8
#: Longest word whose node values each split keeps, one complex value per
#: lower-half node each, as a tail (backward) and as a prefix (forward).
#: Short words are the tails and prefixes that many longer words share; a
#: word longer than NODE_CACHE_LENGTH + 1 is split at the letter before its
#: last NODE_CACHE_LENGTH, so no longer tail is ever swept, and a longer
#: prefix is kept for one Chen sum only.
NODE_CACHE_LENGTH = 2


class NonConvergence(ArithmeticError):
    """A series failed to reach its truncation target."""


class PoleError(ArithmeticError):
    """Evaluation point too close to a lattice point."""


class ToleranceError(ArithmeticError):
    """Grid refinement failed to stabilize an iterated integral."""


@dataclass(frozen=True)
class Tau:
    """A point of the upper half-plane, taken mod 1.

    Every value here depends on tau only through q = e^{2 pi i tau}, so a
    real part x outside [-1/2, 1/2] is replaced by x - round(x), which is
    exact in floating point; a real part inside is kept bit for bit.  At a
    large x, e^{2 pi i x} itself would be rounding noise."""

    tau: complex

    def __post_init__(self):
        x, y = self.tau.real, self.tau.imag
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ArgumentError(f"tau must be finite, got {self.tau}")
        if not y > 0:
            raise ArgumentError(f"tau must have positive imaginary part, got {self.tau}")
        if abs(x) > 0.5:
            object.__setattr__(self, "tau", complex(x - round(x), y))

    @property
    def q(self) -> complex:
        return cmath.exp(TWO_PI_I * self.tau)


def as_tau(value) -> Tau:
    if isinstance(value, Tau):
        return value
    return Tau(complex(value))


_TAU_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"\s*([+-]\s*(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*i\s*$"
)


def parse_tau(text: str) -> Tau:
    """Parse `a+bi` with decimal a and b > 0."""
    m = _TAU_RE.match(text)
    if not m:
        raise ArgumentError(f"cannot parse tau {text!r} (expected a+bi)")
    re_part = float(m.group(1))
    im_part = float(m.group(2).replace(" ", ""))
    return Tau(complex(re_part, im_part))


@dataclass(frozen=True)
class NumericsConfig:
    """Tunable parameters for all numerical evaluation.

    panel_order (1..100) is the number of Gauss-Legendre nodes per panel.
    tolerance (finite, > 0) bounds the gap between the two panel splits that
    every value is computed on.
    """

    panel_order: int = 12
    tolerance: float = 1e-6

    def __post_init__(self):
        if not (1 <= self.panel_order <= 100):  # the Gauss-Legendre rule is tested to 100
            raise ArgumentError(f"panel_order must lie in 1..100, got {self.panel_order}")
        if not (0 < self.tolerance < math.inf):
            raise ArgumentError(f"tolerance must be finite and > 0, got {self.tolerance}")


DEFAULT_CONFIG = NumericsConfig()

_CONFIG_FIELDS = {f: t for f, t in NumericsConfig.__annotations__.items()}


def parse_config_file(path: str) -> NumericsConfig:
    """Flat `key = value` text file, keys matching NumericsConfig fields."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ArgumentError(f"cannot read config file {path}: {reason}") from exc
    overrides = {}
    for line_no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ArgumentError(f"{path}:{line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ArgumentError(f"{path}:{line_no}: unknown key {key!r}")
        convert = {"int": int, "float": float}.get(_CONFIG_FIELDS[key], str)
        try:
            overrides[key] = convert(value)
        except ValueError as exc:
            raise ArgumentError(f"{path}:{line_no}: bad value {value!r} for {key}") from exc
    try:
        return replace(DEFAULT_CONFIG, **overrides)
    except ArgumentError as exc:
        raise ArgumentError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# the lattice


def shortest_period(tau: Tau) -> float:
    """Length of the shortest nonzero period m + n tau, the first vector u
    of a Lagrange-Gauss reduced basis (u, v) of Z + Z tau.  It is below
    min(1, |tau|) where tau lies outside the fundamental domain, as at
    0.5 + 0.1i (|2 tau - 1| = 0.2)."""
    u, v = 1.0 + 0j, tau.tau
    while True:
        if abs(v) < abs(u):
            u, v = v, u
        m = round((v / u).real)
        if m == 0:
            return abs(u)
        v -= m * u


def _minus_multiple(x: np.ndarray, b: np.ndarray, v: float) -> tuple[np.ndarray, np.ndarray]:
    """x - b v for integer-valued b as s + c, exact for |b| < 2^27: v is
    split, as in Dekker's product, into hi and lo = v - hi of at most 26
    bits each, so that b hi and b lo are exact; s is x - b hi rounded, and
    c its rounding error (Knuth's two-sum) less b lo."""
    mantissa, exponent = math.frexp(v)
    hi = math.ldexp(round(mantissa * 2**26), exponent - 26)
    p = b * hi
    s = x - p
    t = s - x
    return s, (x - (s - t)) - (p + t) - b * (v - hi)


# ---------------------------------------------------------------------------
# the letters from their Lambert series


def _lambert_terms(decay: float) -> int:
    """Terms M of a Lambert series whose m-th term is at most e^{-decay (m-1)}
    times its first, so that the tail beyond M, at most e^{-decay M} /
    (1 - e^{-decay}) of the first term, is below LAMBERT_TARGET.
    NonConvergence when M exceeds LAMBERT_MAX_TERMS."""
    bound = -math.log(LAMBERT_TARGET * -math.expm1(-decay)) / decay
    if not bound <= LAMBERT_MAX_TERMS:
        raise NonConvergence(
            f"the letters need more than LAMBERT_MAX_TERMS = {LAMBERT_MAX_TERMS} Lambert"
            f" series terms here (on the grid, where Im tau < {MIN_IM_TAU})"
        )
    return max(1, math.ceil(bound))


@functools.lru_cache(maxsize=None)
def _lambert_constants(top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the letters f_1..f_top, j = n - 1 = 0..top-1: the coefficients of
    the Eulerian polynomials A_j (column j), for Li_{-j}(x) = sum_d d^j x^d
    = x A_j(x) / (1 - x)^{j+1}; the factors 4 pi (2 pi)^j / j! (-1)^{floor(j/2)};
    and 2 zeta(n) for the even n."""
    eulerian = np.zeros((top, top))
    row = [1]
    for j in range(top):
        eulerian[: len(row), j] = row
        prev = row + [0]
        row = [(k + 1) * prev[k] + (j + 1 - k) * (prev[k - 1] if k else 0) for k in range(j + 1)]
    scale = np.array(
        [4 * math.pi * (2 * math.pi) ** j / math.factorial(j) * (-1) ** (j // 2) for j in range(top)]
    )
    zetas = np.array([2 * zeta(n) for n in range(2, top + 1, 2)])
    for shared in (eulerian, scale, zetas):  # every caller gets the same arrays
        shared.flags.writeable = False
    return eulerian, scale, zetas


def _product_into(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """out[...] = a @ b for complex a, without casting a real b to complex."""
    if np.iscomplexobj(b):
        out[...] = a @ b
    else:
        out.real = a.real @ b
        out.imag = a.imag @ b


def _refuse_overflow(values: np.ndarray, zz: np.ndarray) -> None:
    """NonConvergence at the first point of zz whose column of values (one
    per point) is not finite."""
    bad = zz[~np.isfinite(values).reshape(-1, len(zz)).all(axis=0)]
    if len(bad):
        raise NonConvergence(f"the letters at z = {bad[0]} overflow double precision")


def _lambert_letters(z: np.ndarray, tau: Tau, top: int, terms: int) -> np.ndarray:
    """Rows f_0..f_top at the points z (|Im z| < Im tau) from

      f_n(z) = [n=0] + [n=1] pi cot(pi z) - [n even] 2 zeta(n)
               + 4 pi (2 pi)^j / j! (-1)^{floor(j/2)} sum_{m=1..terms} trig_j(2 pi m z) Li_{-j}(q^m),

    j = n - 1, trig_j = sin for even j and cos for odd j: the coefficients of
    alpha^{n-1} in F = pi cot(pi z) + pi cot(pi alpha) + 4 pi sum_{m,d>=1}
    q^{md} sin 2 pi (m z + d alpha)."""
    eulerian, scale, zetas = _lambert_constants(top)
    m = np.arange(1, terms + 1)
    exponent = TWO_PI_I * tau.tau * m
    x = np.exp(exponent)
    # row j, column m: scale[j] Li_{-j}(q^m); 1 - q^m comes from expm1, so
    # that it keeps its digits where q^m is near 1
    coef = (np.vander(x, top, increasing=True) @ eulerian).T
    coef *= scale[:, None] * x / (-np.expm1(exponent)) ** (np.arange(1, top + 1)[:, None])
    phase = np.multiply.outer(2 * math.pi * m, z)
    out = np.empty((top + 1, len(z)), dtype=complex)
    out[0] = 1.0
    _product_into(out[1::2], coef[0::2], np.sin(phase))
    _product_into(out[2::2], coef[1::2], np.cos(phase, out=phase))
    if top:
        out[1] += math.pi / np.tan(math.pi * z)
    out[2::2] -= zetas[:, None]
    return out


# ---------------------------------------------------------------------------
# Gauss-Legendre panels


def _legendre_table(x: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P_0..P_degree (columns) at the points x, by the three-term recurrence;
    P_degree' = degree (P_{degree-1} - x P_degree) / (1 - x^2) there; and
    1 - x^2."""
    rows = np.empty((degree + 1, len(x)))
    rows[0] = 1.0
    if degree:
        rows[1] = x
    for k in range(1, degree):
        rows[k + 1] = ((2 * k + 1) * x * rows[k] - k * rows[k - 1]) / (k + 1)
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    return rows.T, degree * (rows[-2] - x * rows[-1]) / one_minus_x2, one_minus_x2


@functools.lru_cache(maxsize=None)
def _legendre_antiderivative_matrix(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights, and the matrix A with A[m, j] = int_{-1}^{x_m} ell_j.

    The nodes are the eigenvalues of the Jacobi matrix of the Legendre
    recurrence, refined by two Newton steps on P_order; the weights are
    2 / ((1 - x^2) P_order'(x)^2), scaled to sum to 2.  Both are made
    symmetric under x -> -x."""
    k = np.arange(1.0, order)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(beta, 1) + np.diag(beta, -1))
    for _ in range(2):
        vander, slope, _ = _legendre_table(x, order)
        x = x - vander[:, -1] / slope
    x = (x - x[::-1]) / 2.0
    vander, slope, one_minus_x2 = _legendre_table(x, order)  # P_0..P_order at the nodes
    w = 2.0 / (one_minus_x2 * slope * slope)
    w = w + w[::-1]
    w *= 2.0 / w.sum()
    coeff = np.empty((order, order))
    for kdeg in range(order):
        coeff[kdeg, :] = (2 * kdeg + 1) / 2.0 * w * vander[:, kdeg]
    qmat = np.empty((order, order))
    qmat[:, 0] = x + 1.0
    for kdeg in range(1, order):
        qmat[:, kdeg] = (vander[:, kdeg + 1] - vander[:, kdeg - 1]) / (2 * kdeg + 1)
    amat = qmat @ coeff
    for shared in (x, w, amat):  # every grid of this order gets the same arrays
        shared.flags.writeable = False
    return x, w, amat


class PanelGrid:
    """Composite Gauss-Legendre grid over [0, 1] with dyadic grading.

    Breakpoints are 0, 2^-g (g = depth..1), 1 - 2^-g (g = 2..depth), 1, so
    that both endpoints are resolved geometrically and every dyadic cut
    2^-a / 1 - 2^-a is a panel boundary.  The panel list is symmetric under
    z -> 1 - z, so nodes are kept on the lower half [0, 1/2] only; the upper
    half enters through the reflection of the letters.  That keeps full
    relative accuracy near z = 1, where the distance 1 - z would otherwise
    drown in rounding.  An iterated integral on the lower half grows by one
    letter per pass: `sweep` integrates backward from 1/2, `forward`
    forward from 0.
    """

    def __init__(self, order: int, depth: int, split: int = 1):
        if split < 1:
            raise ArgumentError(f"split must be >= 1, got {split}")
        bp = [0.0]
        bp += [2.0**-g for g in range(depth, 0, -1)]
        bp += [1.0 - 2.0**-g for g in range(2, depth + 1)]
        bp += [1.0]
        if split > 1:
            fine = []
            for a, b in zip(bp[:-1], bp[1:]):
                fine.extend(a + (b - a) * i / split for i in range(split))
            bp = fine + [1.0]
        self.breakpoints = np.array(bp)
        self.order = order
        xg, self._wg, self._amat = _legendre_antiderivative_matrix(order)
        self.n_panels = len(self.breakpoints) - 1
        assert self.n_panels % 2 == 0
        lower = self.breakpoints[: self.n_panels // 2 + 1]
        self._half = (lower[1:] - lower[:-1]) / 2.0
        self._half_col = self._half[:, None]
        self._amat_t = self._amat.T
        mid = (lower[1:] + lower[:-1]) / 2.0
        self.lower_nodes = (mid[:, None] + self._half_col * xg[None, :]).ravel()
        #: quadrature weights of the lower-half nodes: int_0^{1/2} g = weights @ g
        self.weights = (self._half[:, None] * self._wg[None, :]).ravel()

    def sweep(self, letter: np.ndarray, inner: np.ndarray) -> tuple[complex, np.ndarray]:
        """One backward pass over the lower half: int_x^{1/2} letter * inner.

        `letter` and `inner` hold values on the lower-half nodes.  Returns
        the integral at x = 0 and at every lower-half node.
        """
        h = (letter * inner).reshape(-1, self.order)
        panel_ints = self._half * (h @ self._wg)
        tails = panel_ints[::-1].cumsum()[::-1]  # from each panel's start to 1/2
        nodes = (tails[:, None] - self._half_col * (h @ self._amat_t)).ravel()
        return complex(tails[0]), nodes

    def forward(self, letter: np.ndarray, inner: np.ndarray) -> np.ndarray:
        """One forward pass over the lower half, the mirror of `sweep`:
        int_0^x letter * inner at every lower-half node."""
        h = (letter * inner).reshape(-1, self.order)
        panel_ints = self._half * (h @ self._wg)
        starts = np.zeros_like(panel_ints)  # from 0 to each panel's start
        np.cumsum(panel_ints[:-1], out=starts[1:])
        return (starts[:, None] + self._half_col * (h @ self._amat_t)).ravel()


# ---------------------------------------------------------------------------
# the evaluator


def _chen_terms(k: Index) -> list[tuple[Index, Index, float]]:
    """The terms of Chen's sum for I(k), one per cut j = 0..len(k): the
    words k[:j] and rev(k[j:]) whose reg B_w(0) it multiplies, and the
    reflection sign (-1)^{|k[j:]|}.  Both splits read the same terms."""
    rev, r = k[::-1], len(k)
    return [(k[:j], rev[: r - j], -1.0 if sum(k[j:]) % 2 else 1.0) for j in range(r + 1)]


class _Split:
    """One panel split: its grid, its letter table (row n is f_n on the
    grid's lower-half nodes) and the memos of its integrals, one entry per
    word.  The alphabet is the table's rows, and only row 1, f_1 with its
    pole at 0, is regularized."""

    def __init__(self, grid: PanelGrid, letters: np.ndarray):
        self.grid = grid
        self.letters = letters
        ones = np.ones(len(grid.lower_nodes), dtype=complex)
        # word -> B_word on the lower-half nodes, len(word) <= NODE_CACHE_LENGTH
        self._nodes: dict[Index, np.ndarray] = {(): ones}
        # word -> A_word on the lower-half nodes, len(word) <= NODE_CACHE_LENGTH
        self._prefixes: dict[Index, np.ndarray] = {(): ones}
        # tail s -> the head vector of s: entry a is B_{a s}(0)
        self._heads: dict[Index, np.ndarray] = {}
        # word -> the shuffle-regularized B_word(0)
        self._regs: dict[Index, complex] = {(): 1.0}

    def sweep(self, word: Index) -> np.ndarray:
        """B_word on the lower-half nodes, from B_word[1:] by one backward
        pass, kept: only words up to NODE_CACHE_LENGTH are swept, each once."""
        nodes = self._nodes.get(word)
        if nodes is None:
            inner = self.sweep(word[1:])
            nodes = self._nodes[word] = self.grid.sweep(self.letters[word[0]], inner)[1]
        return nodes

    def prefix(self, word: Index, scratch: dict) -> np.ndarray:
        """A_word(x) = int_{0 < z_1 < ... < z_m < x} f_{w_1}(z_1) ... f_{w_m}(z_m)
        on the lower-half nodes, from A_word[:-1] by one forward pass.  Node
        values of words up to NODE_CACHE_LENGTH are kept; `scratch` holds
        those of longer words for one Chen sum and is dropped with it."""
        store = self._prefixes if len(word) <= NODE_CACHE_LENGTH else scratch
        nodes = store.get(word)
        if nodes is None:
            inner = self.prefix(word[:-1], scratch)
            nodes = store[word] = self.grid.forward(self.letters[word[-1]], inner)
        return nodes

    def head(self, tail: Index) -> np.ndarray:
        """The head vector of `tail`: entry a is B_{a tail}(0) =
        int_0^{1/2} f_a B_tail for every letter a at once, one weighted
        product of the letters with the node values of `tail`.  Entry 1,
        where B_{1 tail}(0) diverges, is NaN."""
        head = self._heads.get(tail)
        if head is None:
            head = self._heads[tail] = self.letters @ (self.grid.weights * self.sweep(tail))
            head[1] = math.nan
        return head

    def reg(self, word: Index, scratch: dict) -> complex:
        """B_word(0), shuffle-regularized where word starts with 1, kept per
        word.

        A convergent word w up to NODE_CACHE_LENGTH + 1 letters is read from
        the head vector of w[1:].  A longer one is split at the letter a
        before its last NODE_CACHE_LENGTH letters s, w = p a s, by Chen's
        identity at every node: B_w(0) = int_0^{1/2} A_p f_a B_s.

        reg B_1 = int_0^{1/2} (f_1(z) - 1/z) dz + log(pi) - i pi / 2, the
        constant term of B_1(x) in powers of log(-2 pi i x).  The rest
        follows because reg is a shuffle homomorphism:
        reg B_{1^a} = (reg B_1)^a / a!, and for y != 1
        reg B_{1^a y w} = sum_{i<=a} (reg B_1)^i / i! (-1)^(a-i)
        sum_{s in 1^(a-i) sh w} B_{y s}(0), whose words all converge at 0.
        """
        value = self._regs.get(word)
        if value is not None:
            return value
        grid = self.grid
        if word[0] != 1 and len(word) <= NODE_CACHE_LENGTH + 1:
            # an exact copy as Python complex: the Chen sums then multiply
            # them in the same order, several times faster than numpy scalars
            value = complex(self.head(word[1:])[word[0]])
        elif word[0] != 1:
            cut = len(word) - NODE_CACHE_LENGTH
            prefix = self.prefix(word[: cut - 1], scratch)
            value = complex((grid.weights * prefix * self.sweep(word[cut:])) @ self.letters[word[cut - 1]])
        elif word == (1,):
            value = complex(grid.weights @ (self.letters[1] - 1.0 / grid.lower_nodes))
            value += complex(math.log(math.pi), -math.pi / 2)
        else:
            ones = next((i for i, n in enumerate(word) if n != 1), len(word))
            c = self.reg((1,), scratch)
            if ones == len(word):
                value = c**ones / math.factorial(ones)
            else:
                y, rest = word[ones : ones + 1], word[ones + 1 :]
                value = 0.0
                for i in range(ones + 1):
                    inner = 0
                    for s, n in shuffle((1,) * (ones - i), rest):
                        inner += n * self.reg(y + s, scratch)
                    value += c**i / math.factorial(i) * (-1) ** (ones - i) * inner
        self._regs[word] = value
        return value

    def chen_sum(self, terms: list[tuple[Index, Index, float]]) -> complex:
        """I(k) on this split from the terms _chen_terms(k) of Chen's identity
        at 1/2 with the reflection f_n(1 - z) = (-1)^n f_n(z),

          sum_j reg B_{k[:j]}(0) (-1)^{|k[j:]|} reg B_{rev(k[j:])}(0),

        each factor read from the memo of reg before it is computed."""
        regs = self._regs
        scratch: dict[Index, np.ndarray] = {}
        total = 0.0
        for head, tail, sign in terms:
            left = regs.get(head)
            if left is None:
                left = self.reg(head, scratch)
            right = regs.get(tail)
            if right is None:
                right = self.reg(tail, scratch)
            total += left * (sign * right)
        return complex(total)


class Evaluator:
    """All numerics for one (tau, config): letters, integrals, value cache.

    Every value is computed on panel splits 1 and 2, two _Split objects
    that _splits builds together, each with its own grid, letter table and
    memos of integrals."""

    def __init__(self, tau, cfg: NumericsConfig = DEFAULT_CONFIG):
        self.tau = as_tau(tau)
        self.cfg = cfg
        self._pair: tuple[_Split, _Split] | None = None  # built by _splits
        self._values: dict[Index, complex] = {}

    def _splits(self) -> tuple[_Split, _Split]:
        """Splits 1 and 2, each letter table holding the letters
        f_0..f_MAX_LETTER as rows on its grid's lower-half nodes: the one
        place that builds them.  The first call builds both together."""
        if self._pair is None:
            # refuses a tau that needs too many terms before any grid is built
            terms = _lambert_terms(2 * math.pi * self.tau.tau.imag)
            grids = [PanelGrid(self.cfg.panel_order, GRADING_DEPTH, s) for s in (1, 2)]
            self._pair = tuple(
                _Split(g, _lambert_letters(g.lower_nodes, self.tau, MAX_LETTER, terms)) for g in grids
            )
        return self._pair

    def _letter_rows(self, z, top: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows f_0..f_top at the points w = z - b tau - m, z flattened, and
        b.  Im z is brought within Im tau / 2 by b = round(Im z / Im tau)
        periods and Re z is then taken mod 1; w is formed by error-free
        products and sums (see _minus_multiple), so that it is exact to
        rounding also near a lattice point m + b tau other than 0.  A point
        with |w| < POLE_TOLERANCE is a pole.  Letters that overflow double
        precision, as where sin and cos(2 pi m w) do at a large Im tau, are
        a NonConvergence."""
        zz = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
        if not np.all(np.isfinite(zz)):
            raise ArgumentError(f"z must be finite, got {zz[~np.isfinite(zz)][0]}")
        t = self.tau.tau
        b = np.round(zz.imag / t.imag)
        x, x_err = _minus_multiple(zz.real, b, t.real)
        y, y_err = _minus_multiple(zz.imag, b, t.imag)
        w = np.empty_like(zz)
        w.real = x - np.round(x) + x_err
        w.imag = y + y_err
        poles = zz[np.abs(w) < POLE_TOLERANCE]
        if len(poles):
            raise PoleError(f"z = {poles[0]} is within tolerance of a lattice point")
        terms = _lambert_terms(2 * math.pi * (t.imag - float(np.max(np.abs(w.imag)))))
        with np.errstate(over="ignore", invalid="ignore"):
            rows = _lambert_letters(w, self.tau, top, terms)
        _refuse_overflow(rows, zz)
        return rows, b

    def f_n(self, n: int, z):
        """Letter f_n at arbitrary finite points z (scalar or array), from the
        rows at w = z - b tau - m by the period polynomial
        f_n(w + b tau) = sum_{i=0..n} (-2 pi i b)^i / i! f_{n-i}(w)."""
        if n < 0:
            raise ArgumentError(f"negative letter order {n}")
        if n > MAX_LETTER:
            raise PreconditionError(f"letter order {n} exceeds the limit {MAX_LETTER}")
        zz = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
        rows, b = self._letter_rows(zz, n)
        shift = -TWO_PI_I * b
        with np.errstate(over="ignore", invalid="ignore"):
            value = sum(shift**i / math.factorial(i) * rows[n - i] for i in range(n + 1))
        _refuse_overflow(value, zz)
        if np.isscalar(z):
            return complex(value[0])
        return value

    def kronecker(self, alpha: complex, z: complex) -> complex:
        """F(alpha, z) at one point.  From the rows at w = z - b tau - m of
        _letter_rows, F(alpha, z) = e^{-2 pi i b alpha} F(alpha, w) with that
        same b, and F(alpha, w) is summed as sum_{n <= MAX_LETTER} f_n(w)
        alpha^{n-1}.  That series converges in alpha up to the shortest
        period, and the cut one is wrong near it, so an alpha beyond
        KRONECKER_ALPHA_FRACTION of it is a PreconditionError; z at a lattice
        point, or alpha at 0, is a PoleError, and an array z an
        ArgumentError.  An F or factor that overflows double precision, as at
        z far from the real axis, is a NonConvergence."""
        if np.ndim(z) or np.ndim(alpha):
            raise ArgumentError("kronecker takes one point: scalar alpha and z")
        z, alpha = complex(z), complex(alpha)
        rows, b = self._letter_rows(z, MAX_LETTER)
        letters, b = rows[:, 0], int(b[0])
        limit = KRONECKER_ALPHA_FRACTION * shortest_period(self.tau)
        if not abs(alpha) <= limit:
            raise PreconditionError(
                f"|alpha| = {abs(alpha):.3e} exceeds {limit:.3e}, where the series of F"
                f" in alpha, cut after f_{MAX_LETTER}, is no longer accurate"
            )
        if abs(alpha) < POLE_TOLERANCE:
            raise PoleError(f"alpha = {alpha} is within tolerance of a lattice point")
        try:
            value = complex(np.polyval(letters[::-1], alpha)) / alpha * cmath.exp(-TWO_PI_I * b * alpha)
            if cmath.isfinite(value):
                return value
        except OverflowError:
            pass
        raise NonConvergence(f"F(alpha, z) at alpha = {alpha}, z = {z} overflows double precision")

    def regularized(self, k: Index) -> tuple[complex, float]:
        """I(k), shuffle-regularized (I(1) = 0) where k is not admissible,
        from the regularized tails on splits 1 and 2, and their gap."""
        return self._regularized(as_index(k))

    def _regularized(self, k: Index) -> tuple[complex, float]:
        """regularized(k) for an index that as_index has validated."""
        if len(k) > MAX_IINT_LENGTH:
            raise PreconditionError(f"length {len(k)} exceeds the limit {MAX_IINT_LENGTH}")
        if k and max(k) > MAX_LETTER:
            raise PreconditionError(f"letter order {max(k)} exceeds the limit {MAX_LETTER}")
        terms = _chen_terms(k)
        one, two = self._splits()
        coarse, fine = one.chen_sum(terms), two.chen_sum(terms)
        gap = abs(coarse - fine)
        if gap > self.cfg.tolerance:
            raise ToleranceError(f"refinement moved I{k} by {gap:.3e}")
        return fine, gap

    # -- values and expressions

    def value(self, k: Index) -> complex:
        """The value of `regularized(k)`, cached."""
        if isinstance(k, tuple):  # only validated indices are ever cached
            cached = self._values.get(k)
            # (2.0,) == (2,): only a key of ints is one as_index returns unchanged
            if cached is not None and all(type(e) is int for e in k):
                return cached
        k = as_index(k)
        value = self._values.get(k)
        if value is None:
            value = self._values[k] = self._regularized(k)[0]
        return value

    def eval_expression(self, expr: Expression) -> complex:
        """The value of `expr`: each term (n / den) * prod value(atom) is one
        complex product, read in the order the expression stores its terms,
        and the real and imaginary parts of the terms are each summed exactly
        rounded by math.fsum, so the result does not depend on term order.

        If an atom raises, the atoms are read again in `numerators()` order,
        so the error raised is that of the first raising atom in that order
        and does not depend on how the expression was built."""
        den = expr.den
        values = self._values
        real, imag = [], []
        try:
            # int / int is correctly rounded, so this equals complex(Fraction).
            for mon, n in expr._terms.items():
                prod = complex(n / den)
                for atom in mon:
                    value = values.get(atom)
                    prod *= self.value(atom) if value is None else value
                real.append(prod.real)
                imag.append(prod.imag)
        except (ArithmeticError, ValueError):
            for mon, _ in expr.numerators():
                for atom in mon:
                    self.value(atom)
            raise
        return complex(math.fsum(real), math.fsum(imag))


# ---------------------------------------------------------------------------
# zeta values


def zeta(s: int) -> float:
    """Riemann zeta at integer s >= 2, plus the convention zeta(0) = -1/2."""
    if s == 0:
        return -0.5
    if not isinstance(s, int) or s < 2:
        raise ArgumentError("zeta is provided for s = 0 and integer s >= 2")
    n = 60
    total = sum(j ** (-float(s)) for j in range(1, n))
    # Euler-Maclaurin tail from n
    total += n ** (1.0 - s) / (s - 1)
    total += 0.5 * n ** (-float(s))
    total += s / 12.0 * n ** (-float(s + 1))
    total -= s * (s + 1) * (s + 2) / 720.0 * n ** (-float(s + 3))
    total += s * (s + 1) * (s + 2) * (s + 3) * (s + 4) / 30240.0 * n ** (-float(s + 5))
    return total
