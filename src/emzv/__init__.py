"""Elliptic multiple zeta values: exact reduction and numerical validation.

The package rewrites any regularized value I(k_1, ..., k_r) into a rational
polynomial in values with admissible indices and values whose indices use
only the letters 0 and 1, and independently validates every emitted identity
by evaluating iterated integrals of the letters f_n, the Laurent
coefficients of the Kronecker function in its first argument.

The exact side (words, faypoly, relations, reduction) is pure Python.  The
numeric names (Evaluator, get_evaluator, parse_tau, ...) load emzv.numerics,
and with it numpy, on first use.
"""

from .words import (
    Index,
    as_index,
    format_index,
    is_admissible,
    is_zero_one,
    parity_is_even,
    parse_index,
    reflection_sign,
    shuffle,
    weight,
)
from .faypoly import c_coeff, enumerate_support
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
from .reduction import FuelExhausted, ReductionTrace, reduce_index

# The numeric layer imports numpy.  Its names load it on first use (PEP 562),
# so the exact side never does.
_NUMERICS = (
    "Evaluator",
    "NumericsConfig",
    "Tau",
    "get_evaluator",
    "parse_tau",
    "zeta",
)

# The exact names imported above (the submodules, not callable, are left out)
# and the numeric ones.
__all__ = [
    name for name, value in globals().items() if not name.startswith("_") and callable(value)
] + list(_NUMERICS)


def __getattr__(name: str):
    if name in _NUMERICS:
        from . import numerics

        return getattr(numerics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
