"""Exception types shared across the package, and the input checks that raise them."""

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
