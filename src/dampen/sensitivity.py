"""Construction of sensitivity functions: bounding by the global
sensitivity, tables of levels and flattening.

:func:`level_table` is the only one that keeps state (the levels of the
last database seen); the wrappers derive their values and tables from the
inner function on every read.  The brute-force references these are
verified against live in :mod:`dampen.oracles`.
"""

from __future__ import annotations

import math
from typing import Any, Callable

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


def level_table(open_table: Callable[[Any], tuple], name: str
                ) -> SensitivityFunction:
    """Sensitivity function read from a table of levels (one row per
    candidate, one column per t) kept for the last database seen.

    ``open_table(db)`` returns ``(rows, fill)``: ``rows`` maps each
    candidate to its row, and ``fill(lo, hi)`` returns the raw levels of
    every row at t in ``[lo, hi)`` as a float64 array.  A read of columns
    ``[lo, hi)`` past the ``filled`` ones fills ``[filled, max(hi,
    min(2 filled, len(db)), 8))``: doubling chunks up to the database size,
    or up to ``hi`` when that is larger.

    A level is the running maximum of the raw levels along t, carried
    across chunk ends; a maximum is exact, so a level is the same float in
    whichever chunk it lands.  The running max is nondecreasing in t and
    keeps admissibility: if ``f(y, s, r) <= f(x, s + 1, r)`` for every
    neighbour y of x and every s, then ``max_{s <= t} f(y, s, r) <=
    max_{s <= t} f(x, s + 1, r) <= max_{s <= t + 1} f(x, s, r)``, and
    level 0 is ``f(x, 0, r)``.  The caller vouches for ``f``.

    The levels are one float64 array per database; the ``table`` hook
    returns a view of its columns ``[lo, hi)``, and ``eval`` reads
    ``[t, t + 1)``.
    """
    last = None          # (database, rows, fill, levels array)

    def table(db: Any, lo: int, hi: int) -> tuple:
        nonlocal last
        state = last
        if state is None or (state[0] is not db and state[0] != db):
            rows, fill = open_table(db)
            state = last = (db, rows, fill, np.zeros((len(rows), 0)))
        seen, rows, fill, levels = state
        filled = levels.shape[1]
        if hi > filled:
            block = fill(filled, max(hi, min(2 * filled, len(db)), 8))
            np.maximum.accumulate(block, axis=1, out=block)
            if filled:
                np.maximum(block, levels[:, -1:], out=block)
            levels = np.hstack([levels, block])
            last = (seen, rows, fill, levels)
        return rows, levels[:, lo:hi]

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


def flatten_sensitivity(
    delta: SensitivityFunction, problem: SelectionProblem
) -> SensitivityFunction:
    """Candidate-independent hull ``max_r delta(x, t, r)`` over the range.

    A max of admissible functions is admissible, and a max of functions
    nondecreasing in t is nondecreasing in t; the result is flat by
    construction and pointwise at least the input.  Nothing is kept: each
    read evaluates ``delta`` at every candidate.

    A ``table`` of ``delta`` maps to one row, the exact maximum along the
    candidate axis of the columns read, on every read.  It is NaN in a
    column holding a level that ``eval`` refuses (not finite and >= 0), or
    everywhere if the inner table lacks a candidate: the array pass leaves
    those scores to the walk, which raises the inner message.
    """
    candidates = problem.candidates

    def eval_fn(db, t, r):
        return max(delta(db, t, rr) for rr in candidates)

    def hull(rows, levels):
        at = [rows.get(r) for r in candidates]
        block = (levels[at] if None not in at
                 else np.full((1, levels.shape[1]), math.nan))
        fine = np.all((block >= 0) & (block < math.inf), axis=0)
        return (dict.fromkeys(candidates, 0),
                np.where(fine, block.max(axis=0), math.nan)[None])

    return SensitivityFunction(
        eval=eval_fn,
        declared_admissible=delta.declared_admissible,
        declared_bounded=delta.declared_bounded,
        declared_nondecreasing_in_t=delta.declared_nondecreasing_in_t,
        monotonicity="flat",
        name=f"flat({delta.name})",
        table=None if delta.table is None
        else lambda db, lo, hi: hull(*delta.table(db, lo, hi)),
    )
