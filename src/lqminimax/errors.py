"""Exception types shared across the package, and the input checks that raise them.

``SCALAR_RULES`` is the one table of scalar rules; public entry points check their scalar
arguments against it through ``require_scalars``, and constructors store theirs through it.
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


def as_scalar(rule: str, name: str, value):
    """``value``, checked as by ``require_scalars``, as a Python int (count, index) or float."""
    require_scalars(rule, **{name: value})
    return int(value) if rule in ("count", "index") else float(value)


def store_scalars(spec, **rules) -> None:
    """Store each named field of the frozen dataclass ``spec`` as ``as_scalar`` returns it."""
    for name, rule in rules.items():
        object.__setattr__(spec, name, as_scalar(rule, name, getattr(spec, name)))


def as_tuple(name: str, seq, rule=None, pair: bool = False) -> tuple:
    """``seq``, a list, tuple or array (a pair if ``pair``), as a tuple of items under ``rule``."""
    if not (isinstance(seq, (list, tuple)) or getattr(seq, "ndim", 0)) or pair and len(seq) != 2:
        raise ParameterError(f"{name!r} must be a {'pair' if pair else 'list'}, got {seq!r}")
    return tuple(seq if rule is None else (as_scalar(rule, name, v) for v in seq))


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
    """Raise DimensionError unless X is 2-D with at least one row and one column
    and each named vector has shape (n,), n being the number of rows of X."""
    if X.ndim != 2 or 0 in X.shape:
        raise DimensionError(f"X must be 2-D and non-empty, got shape {X.shape}")
    for name, v in vectors.items():
        if v.shape != (X.shape[0],):
            raise DimensionError(f"{name} has shape {v.shape}, expected ({X.shape[0]},)")
