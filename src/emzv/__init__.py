"""Elliptic multiple zeta values: exact reduction and numerical validation.

The package rewrites any regularized value I(k_1, ..., k_r) into a rational
polynomial in values with admissible indices and values whose indices use
only the letters 0 and 1, and independently validates every emitted identity
by evaluating theta-function integrals.
"""

from .words import (
    Combo,
    Index,
    WordCombo,
    antipode,
    as_index,
    coproduct,
    format_index,
    is_admissible,
    is_zero_one,
    parity_is_even,
    parse_index,
    reflection_sign,
    shuffle,
    shuffle_combo,
    weight,
)
from .faypoly import SparsePoly, c_coeff, enumerate_support, p_poly
from .relations import (
    Expression,
    Identity,
    fay_identity,
    parity_split,
    prop_mat_identity,
    reflection_identity,
    shuffle_identity,
    trailing_ones,
)
from .reduction import (
    FuelExhausted,
    ReductionTrace,
    reduce_index,
    simplify_zero_one,
    verify_reduction,
)
from .numerics import (
    Evaluator,
    NumericsConfig,
    Tau,
    emzv_admissible,
    emzv_regularized,
    eval_expression,
    f_n,
    get_evaluator,
    kronecker_f,
    parse_tau,
    theta,
    theta_prime0,
    zeta,
)

__version__ = "0.1.0"
