"""Construction of sensitivity functions: bounding by the global
sensitivity, reading levels from a table and flattening.

None of them keeps state: every value and every table is derived from the
database and the inner function on each read.  The brute-force references
these are verified against live in :mod:`dampen.oracles`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np

from .core import (
    InvalidInputError,
    PreconditionError,
    SelectionProblem,
    SensitivityFunction,
)


def bound_sensitivity(
    delta: SensitivityFunction,
    global_sensitivity: float,
    database_size: int,
) -> SensitivityFunction:
    """Pointwise ``min(delta, GS)``, pinned to GS at every ``t`` at or past
    ``database_size``.

    The pinned tail makes the bounded declaration hold by construction,
    whether the admissibility of ``delta`` is proven or merely assumed.
    Taking a minimum with a constant preserves the declared monotonicity
    class, and so does pinning the tail to GS for a ``delta`` that is
    nondecreasing in t.

    The ``table`` hook of ``delta`` is clipped and pinned the same way on
    every read, over the columns read only, by :func:`bounded_levels`;
    non-finite levels below the pin pass through unclipped, so the array
    pass refuses them as the inner per-step check does.
    """
    if not delta.declared_admissible:
        raise PreconditionError("bound_sensitivity expects an admissible input")
    gs = global_sensitivity

    def eval_fn(db, t, r):
        if t >= database_size:
            return gs
        return min(delta(db, t, r), gs)

    def clip(lo, rows, raw):
        return rows, bounded_levels(raw, lo, gs, database_size)

    return SensitivityFunction(
        eval=eval_fn,
        declared_admissible=True,
        declared_bounded=True,
        declared_nondecreasing_in_t=delta.declared_nondecreasing_in_t,
        monotonicity=delta.monotonicity,
        name=f"min({delta.name}, GS)",
        table=None if delta.table is None
        else lambda db, lo, hi: clip(lo, *delta.table(db, lo, hi)),
    )


def bounded_levels(levels: np.ndarray, lo: int, gs, n) -> np.ndarray:
    """Levels at t in ``[lo, lo + width)`` bounded as by
    :func:`bound_sensitivity`: ``min(level, GS)``, a non-finite level passed
    through unclipped, and GS at every ``t >= n``.  ``gs`` and ``n`` are
    numbers, or one per row as ``(rows, 1)`` arrays.  A new array."""
    out = np.minimum(levels, gs, out=levels.copy(), where=levels < math.inf)
    np.copyto(out, gs, where=np.arange(lo, lo + levels.shape[1]) >= n)
    return out


def table_sensitivity(table: Callable[[Any, int, int], tuple], name: str
                      ) -> SensitivityFunction:
    """Sensitivity function read from ``table``, which it also serves as
    its ``table`` hook: ``table(db, lo, hi)`` returns ``(rows, block)``,
    ``rows`` mapping each candidate to its row of the float64 array
    ``block``, whose columns are the levels at t in ``[lo, hi)``.

    ``eval`` reads the one column ``[t, t + 1)``.  Nothing is kept between
    reads.  The caller vouches that the levels are admissible and
    nondecreasing in t; the array pass and the walk refuse a level below
    the one before it.
    """

    def eval_fn(db, t, r):
        if t < 0:
            raise InvalidInputError("t must be >= 0")
        rows, level = table(db, t, t + 1)
        if r not in rows:
            raise InvalidInputError(f"{name}: unknown candidate {r!r}")
        return float(level[rows[r], 0])

    return SensitivityFunction(
        eval=eval_fn,
        declared_admissible=True,
        declared_bounded=False,
        declared_nondecreasing_in_t=True,
        monotonicity="none",
        name=name,
        table=table,
    )


def hull_levels(candidates: Sequence, rows: dict, levels: np.ndarray
                ) -> np.ndarray:
    """One row: the exact maximum along the candidate axis of the rows of
    ``levels`` that ``rows`` maps ``candidates`` to.  It is NaN in a column
    holding a level that ``eval`` refuses (not finite and >= 0), or
    everywhere if ``rows`` lacks a candidate: the array pass leaves those
    scores to the walk, which raises the inner message."""
    at = [rows.get(r) for r in candidates]
    if None in at:
        return np.full((1, levels.shape[1]), math.nan)
    block = levels[at]
    fine = np.all((block >= 0) & (block < math.inf), axis=0)
    return np.where(fine, block.max(axis=0), math.nan)[None]


def flatten_sensitivity(
    delta: SensitivityFunction, problem: SelectionProblem
) -> SensitivityFunction:
    """Candidate-independent hull ``max_r delta(x, t, r)`` over the range.

    A max of admissible functions is admissible, and a max of functions
    nondecreasing in t is nondecreasing in t; the result is flat by
    construction and pointwise at least the input.  Nothing is kept: each
    read evaluates ``delta`` at every candidate.

    A ``table`` of ``delta`` maps to one row, :func:`hull_levels` of the
    columns read, on every read.
    """
    candidates = problem.candidates

    def eval_fn(db, t, r):
        return max(delta(db, t, rr) for rr in candidates)

    def table(db, lo, hi):
        return (dict.fromkeys(candidates, 0),
                hull_levels(candidates, *delta.table(db, lo, hi)))

    return SensitivityFunction(
        eval=eval_fn,
        declared_admissible=delta.declared_admissible,
        declared_bounded=delta.declared_bounded,
        declared_nondecreasing_in_t=delta.declared_nondecreasing_in_t,
        monotonicity="flat",
        name=f"flat({delta.name})",
        table=None if delta.table is None else table,
    )
