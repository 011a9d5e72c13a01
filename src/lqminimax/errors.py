"""Exception types shared across the package, and the input checks that raise them.

``SCALAR_RULES`` is the one table of scalar rules; public entry points check their
scalar arguments against it through ``require_scalars``.
"""

import math
import numbers

import numpy as np


class DimensionError(ValueError):
    """Raised when a matrix or vector has an empty or mismatched shape."""


class CovarianceError(ValueError):
    """Raised when a covariance matrix is not symmetric positive semidefinite."""


class MembershipError(ValueError):
    """Raised when a vector violates the sparsity ball it is required to live in."""


class ParameterError(ValueError):
    """Raised when a scalar parameter lies outside its admissible range."""


class EnumerationBudgetError(ValueError):
    """Raised when an exact support enumeration would exceed its combinatorial budget."""


class ConsistencyError(RuntimeError):
    """Raised when an internally certified quantity fails its own certificate."""


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


# scalar rule -> (test of a value, what it requires); none takes a bool, NaN or inf
SCALAR_RULES = {
    "count": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "index": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "positive": (lambda v: _is_finite(v) and v > 0, "a finite number > 0"),
    "nonnegative": (lambda v: _is_finite(v) and v >= 0, "a finite number >= 0"),
    "finite": (_is_finite, "a finite number"),
}


def require_scalars(rule: str, **values) -> None:
    """Raise ParameterError naming the first value that breaks ``SCALAR_RULES[rule]``."""
    admissible, requirement = SCALAR_RULES[rule]
    for name, value in values.items():
        if not admissible(value):
            raise ParameterError(f"{name!r} must be {requirement}, got {value!r}")


def require_finite(**arrays) -> None:
    """Raise ParameterError naming the first argument with a NaN or inf entry.

    min and max propagate NaN and, unlike isfinite, allocate no array the
    size of the argument, so the check can precede an enumeration budget.
    """
    for name, a in arrays.items():
        a = np.asarray(a)
        if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
            raise ParameterError(f"{name} has non-finite entries")


def require_rows(X: np.ndarray, **vectors) -> None:
    """Raise DimensionError unless X is 2-D and each named vector has shape (n,),
    n being the number of rows of X."""
    if X.ndim != 2:
        raise DimensionError(f"X must be 2-D, got shape {X.shape}")
    for name, v in vectors.items():
        if v.shape != (X.shape[0],):
            raise DimensionError(f"{name} has shape {v.shape}, expected ({X.shape[0]},)")
