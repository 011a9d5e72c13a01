"""Every size-k support of range(d), in lexicographic chunks, under one budget.

Exact l0 least squares, the sparse spectrum and kernel test, the RE cone
corners, the prediction suprema and the hypercube packings all enumerate
supports through ``support_chunks``.  Supports come in the order of
``itertools.combinations``, chunk after chunk, so keeping the first of
equal values (``argmin`` in a chunk, a strict ``<`` across chunks) breaks
ties toward the lexicographically smallest support.  ``check_budget`` is
the one place that raises ``EnumerationBudgetError``; it runs before
anything is built.  A chunk holds at most ``CHUNK_ENTRIES // per_support``
supports (at least one), where ``per_support`` counts the numbers a caller
stacks per support, such as the k + 3 rows of d entries exact l0 keeps per
size-k prefix (its k Cholesky rows and three fields per column), or an
n x k column block, so no stacked array outgrows ``CHUNK_ENTRIES`` numbers.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import EnumerationBudgetError, ParameterError

ENUMERATION_BUDGET = 10_000_000
CHUNK_ENTRIES = 1 << 21  # 16 MiB of float64 per stacked array


def check_budget(count: int) -> None:
    """Raise EnumerationBudgetError when ``count`` candidates exceed the budget."""
    if count > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"Cannot enumerate {count:,} candidates exactly: the budget is "
            f"{ENUMERATION_BUDGET:,}"
        )


def support_chunks(d: int, k: int, per_support: int | None = None) -> Iterator[np.ndarray]:
    """Every size-k subset of range(d), in lexicographic order, as (m, k) intp chunks.

    ``per_support`` defaults to k.  The budget is checked on the call, not
    on the first ``next``: the supports are built by numpy, a column at a
    time, and a run of prefixes with more completions than a chunk holds is
    halved, or extended by one column when it is a single prefix.
    """
    if not 1 <= k <= d:
        raise ParameterError(f"need a support size 1 <= k <= d, got k={k}, d={d}")
    check_budget(math.comb(d, k))
    rows = max(1, CHUNK_ENTRIES // (per_support or k))
    return _chunks(np.zeros((1, 0), dtype=np.intp), d, k, rows)


def _chunks(prefixes: np.ndarray, d: int, k: int, rows: int) -> Iterator[np.ndarray]:
    """Complete the prefix rows to size k, in order, at most ``rows`` supports at a time."""
    left = k - prefixes.shape[1]
    starts = prefixes[:, -1] + 1 if prefixes.shape[1] else [0]
    if sum(math.comb(d - int(a), left) for a in starts) <= rows:
        while prefixes.shape[1] < k:
            prefixes = _extend(prefixes, d, k)
        yield prefixes
    elif len(prefixes) == 1:
        yield from _chunks(_extend(prefixes, d, k), d, k, rows)
    else:
        half = len(prefixes) // 2
        yield from _chunks(prefixes[:half], d, k, rows)
        yield from _chunks(prefixes[half:], d, k, rows)


def _extend(prefixes: np.ndarray, d: int, k: int) -> np.ndarray:
    """Append every admissible next element to each prefix row, keeping the order."""
    j = prefixes.shape[1]
    start = prefixes[:, -1] + 1 if j else np.zeros(1, dtype=np.intp)
    reps = d - k + j + 1 - start  # element j of a size-k support is at most d - k + j
    offsets = np.cumsum(reps) - reps
    out = np.empty((int(reps.sum()), j + 1), dtype=np.intp)
    out[:, j] = np.arange(len(out), dtype=np.intp) + np.repeat(start - offsets, reps)
    for i in range(j):  # one column at a time: 1-D repeats are several times faster
        out[:, i] = np.repeat(prefixes[:, i], reps)
    return out
