"""Percentile selection: report which record sits closest to the p-th
percentile value of a capped numeric vector.

Records carry stable labels (their rank in the original input), so "element
i" stays well defined when a value edit re-sorts the vector.  The distance
metric changes one record's value to any point of [0, cap].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .core import (
    InvalidInputError,
    SelectionProblem,
    SensitivityFunction,
    read_utf8,
)
from .sensitivity import bound_sensitivity, level_table


class NumericVector:
    """Sorted vector of labeled values in [0, cap].

    Labels are assigned by ascending rank at construction (ties broken by
    input order) and survive value replacement, which re-sorts.
    """

    __slots__ = ("records", "lambda_cap", "_rank_of")

    def __init__(self, values: Sequence[float], lambda_cap: float,
                 _records: tuple | None = None):
        if not (lambda_cap > 0):
            raise InvalidInputError("value cap must be positive")
        self.lambda_cap = float(lambda_cap)
        if _records is not None:
            records = _records
        else:
            decorated = sorted(
                (float(v), pos) for pos, v in enumerate(values)
            )
            records = tuple(
                (rank + 1, value) for rank, (value, _) in enumerate(decorated)
            )
        # shifted dampening scores utilities as low as -(n cap + cap)
        if not math.isfinite((len(records) + 1) * self.lambda_cap):
            raise InvalidInputError(
                f"value cap {self.lambda_cap} is too large for "
                f"{len(records)} records: (n + 1) * cap is not finite"
            )
        for label, value in records:
            if not (0.0 <= value <= self.lambda_cap):
                raise InvalidInputError(
                    f"value {value} of record {label} outside [0, {self.lambda_cap}]"
                )
        self.records = records
        self._rank_of = {label: rank for rank, (label, _) in enumerate(records, 1)}

    def __len__(self):
        return len(self.records)

    def __eq__(self, other):
        return (
            isinstance(other, NumericVector)
            and self.records == other.records
            and self.lambda_cap == other.lambda_cap
        )

    def __hash__(self):
        return hash((self.records, self.lambda_cap))

    def values(self) -> tuple:
        """Values in ascending order."""
        return tuple(value for _, value in self.records)

    def labels(self) -> tuple:
        return tuple(label for label, _ in self.records)

    def value_of(self, label) -> float:
        return self.records[self._rank_of[label] - 1][1]

    def rank_of(self, label) -> int:
        """1-based ascending rank of a record."""
        return self._rank_of[label]

    def rank_value(self, rank: int) -> float:
        """Value at 1-based ascending rank."""
        return self.records[rank - 1][1]

    def replace(self, label, value: float) -> "NumericVector":
        """Copy with one record's value changed, re-sorted (labels stable,
        ties broken by label)."""
        if label not in self._rank_of:
            raise InvalidInputError(f"unknown record label {label!r}")
        updated = sorted(
            (v if lbl != label else float(value), lbl)
            for lbl, v in self.records
        )
        return NumericVector(
            (), self.lambda_cap,
            _records=tuple((lbl, v) for v, lbl in updated),
        )


@dataclass(frozen=True)
class PercentileQuery:
    """Percentile p in [1, 100] with its rank index k = ceil(p(n+1)/100),
    clamped into [1, n]."""

    p: int
    n: int
    k: int = field(init=False)

    def __post_init__(self):
        if not (1 <= self.p <= 100):
            raise InvalidInputError("percentile must be in [1, 100]")
        if self.n < 1:
            raise InvalidInputError("vector must be nonempty")
        raw = math.ceil(self.p * (self.n + 1) / 100)
        object.__setattr__(self, "k", min(max(raw, 1), self.n))


def utility_of_label(x: NumericVector, q: PercentileQuery, label) -> float:
    return -abs(x.rank_value(q.k) - x.value_of(label))


def global_sensitivity_percentile(x: NumericVector) -> float:
    """The utility can move by the full value cap in one edit."""
    return x.lambda_cap


def _pivot_context(x: NumericVector, q: PercentileQuery):
    k = q.k
    vp = x.rank_value(k)
    vplus = x.rank_value(k + 1) if k < len(x) else x.lambda_cap
    vminus = x.rank_value(k - 1) if k > 1 else 0.0
    return k, vp, vplus, vminus


def ls0_of_record(x: NumericVector, q: PercentileQuery, label) -> float:
    """Exact element local sensitivity at distance 0 for one record.

    Closed form over five extremal edits: snapping the record onto the
    pivot value, pushing the pivot record to either cap (which hands the
    pivot role to its rank neighbor), and pushing the record itself to
    either cap (which can change both its own value and the pivot).  One
    value edit moves the rank-k statistic no further than the adjacent
    order statistics, so these cases exhaust the continuum.
    """
    k, vp, vplus, vminus = _pivot_context(x, q)
    cap = x.lambda_cap
    vr = x.value_of(label)
    pos = x.rank_of(label)
    base = abs(vp - vr)
    t2 = abs(base - abs(vplus - vr))
    t3 = abs(base - abs(vminus - vr))
    if pos == k:
        # Moving another record raises the pivot only if some record sits
        # below rank k, and lowers it only if some record sits above.
        if k == 1:
            t2 = 0.0
        if k == len(x):
            t3 = 0.0
        t4 = cap - vplus
        t5 = vminus
    elif pos > k:
        t4 = cap - vr
        t5 = abs(vr - vp - vminus)
    else:
        t4 = abs(vp + vplus - vr - cap)
        t5 = vr
    return max(base, t2, t3, t4, t5)


# Largest (records x levels x upward edits) slice of the window grid
# evaluated at once; bounds the temporaries of _window_levels whatever the
# vector size.
_GRID_ELEMENTS = 1 << 15


def _largest(*terms):
    return reduce(np.maximum, terms)


def _window_levels(
    values: np.ndarray, k: int, cap: float, lo: int, hi: int
) -> np.ndarray:
    """Uncapped window bound of :func:`percentile_sensitivity` at levels
    ``t`` in ``[lo, hi)`` (``lo >= 1``) for the record at every sorted
    position of ``values``, as an ``(n, hi - lo)`` array.

    One grid over (record, t, u) with ``d = t - u``: ``A(u, d)`` is masked
    to ``u <= t`` and ``B(u, d - 1)`` to ``u < t``.  The grid is evaluated
    in slices over records, u and t of at most ``_GRID_ELEMENTS`` entries
    each.  Every term of ``A`` repeats the floating-point operations of
    :func:`ls0_of_record` at a window end, so ``A`` bounds that function's
    rounded value too.  Its term ``(v - o_k) - o_{k-1}`` is left out: a
    float minus a nonnegative one never rounds above the left operand, so
    the term never exceeds the kept ``v - o_k``.
    """
    n = len(values)
    ext = np.concatenate(([0.0], values, [cap]))
    best = np.zeros((n, hi - lo))
    u_step = min(hi, _GRID_ELEMENTS)
    r_step = min(n, _GRID_ELEMENTS // u_step)
    t_step = _GRID_ELEMENTS // (r_step * u_step)
    for r_lo in range(0, n, r_step):
        r_hi = min(r_lo + r_step, n)
        i = np.arange(r_lo, r_hi)[:, None, None]
        v = values[i]

        def stat(j):
            # o_j of the records other than i: 0 for j <= 0, the cap for j >= n
            return ext[np.clip(j + (j > i), 0, n + 1)]

        for u_lo in range(0, hi, u_step):
            u = np.arange(u_lo, min(u_lo + u_step, hi))
            hi_km1, hi_k = stat(k - 1 + u), stat(k + u)
            # levels below u_lo admit no upward count in this slice
            for t_lo in range(max(lo, u_lo), hi, t_step):
                t_hi = min(t_lo + t_step, hi)
                t = np.arange(t_lo, t_hi)[:, None]
                d = t - u
                lo_km1, lo_k = stat(k - 1 - d), stat(k - d)
                # r at the pivot rank: o_{k-1} <= v <= o_k
                pivot = _largest(
                    hi_k - v if k > 1 else 0.0,
                    v - lo_km1 if k < n else 0.0,
                    cap - np.maximum(v, lo_k),
                    np.minimum(v, hi_km1),
                )
                # r above the pivot: o_k <= v
                top = np.minimum(v, hi_k)
                above = _largest(
                    v - lo_k,
                    (v - lo_km1) - (v - top),
                    cap - v,
                    np.minimum(v, hi_km1) - (v - top),
                )
                # r below the pivot: v <= o_{k-1}
                bot = np.maximum(v, lo_km1)
                below = _largest(
                    hi_km1 - v,
                    (hi_k - v) - (bot - v),
                    ((hi_km1 + hi_k) - v) - cap,
                    cap - ((bot + np.maximum(v, lo_k)) - v),
                    v,
                )
                kept = _largest(
                    np.where((lo_km1 <= v) & (v <= hi_k), pivot, 0.0),
                    np.where(v >= lo_k, above, 0.0),
                    np.where(v <= hi_km1, below, 0.0),
                )
                # B(u, d - 1): its lower window ends sit one rank higher
                edited = _largest(cap - stat(k + 1 - d), hi_km1, hi_k - lo_k)
                cell = np.maximum(
                    np.where(u <= t, kept, 0.0), np.where(u < t, edited, 0.0)
                )
                out = best[r_lo:r_hi, t_lo - lo:t_hi - lo]
                np.maximum(out, cell.max(axis=2), out=out)
    return best


def percentile_sensitivity(x: NumericVector, q: PercentileQuery) -> SensitivityFunction:
    """Closed-form admissible bound on the element local sensitivity at
    distance t, built on order-statistic windows (after the smooth
    sensitivity of the median in Nissim, Raskhodnikova & Smith, STOC 2007).

    Take record r with value v, and let ``o_1 <= ... <= o_{n-1}`` be the
    other records' values, extended by ``o_j = 0`` for ``j <= 0`` and
    ``o_j = cap`` for ``j >= n``.  One edit of another record moves every
    ``o_j`` within ``[o_{j-1}, o_j]`` (downward) or ``[o_j, o_{j+1}]``
    (upward), so after u upward and d downward edits each ``o_j`` lies,
    jointly, in the window ``[lo_j, hi_j] = [o_{j-d}, o_{j+u}]``.  Then

    * ``delta(x, 0, r) = ls0_of_record(x, q, r)``, exact;
    * ``delta(x, t, r) = min(cap, max(max_{u+d=t} A(u, d),
      max_{u+d=t-1} B(u, d)))`` for ``t >= 1``, where

      - ``A`` bounds the five terms of :func:`ls0_of_record` over the
        windows while r keeps v, in each rank case that the windows allow:
        r at the pivot rank (``lo_{k-1} <= v <= hi_k``), above it
        (``v >= lo_k``) or below it (``v <= hi_{k-1}``);
      - ``B = max(cap - lo_k, hi_{k-1}, hi_k - lo_{k-1})`` bounds those
        terms for r edited to any value.

    Admissibility, for a neighbour y of x (and ``ls0_of_record`` at y is
    at most y's ``A(0, 0)``).  If y edits r, every ``A(u, d)`` of y is at
    most x's ``B(u, d)``, which x counts at ``t + 1``, and y's own
    ``B(u, d)`` is x's.  If y edits another record, that edit moves one
    way, so y's ``(u, d)`` windows lie inside x's ``(u + 1, d)`` or
    ``(u, d + 1)`` windows, again counted at ``t + 1``.  Every term is
    monotone in the window ends, so in both cases
    ``delta(y, t, r) <= delta(x, t + 1, r)``; the same monotonicity makes
    delta nondecreasing in t.  :func:`~dampen.oracles.ls_t_of_record` is
    the exact value it is tested against.

    Every level from ``t_cap = min(k + 1, n - k + 2)`` on is exactly the
    cap, for every record, so the grid is evaluated only below ``t_cap``
    (which is at least 2, as ``1 <= k <= n``).  For ``t >= k + 1`` take the
    ``B`` term at ``u = 0``: its lower window end ``lo_k = o_{k+1-t}`` has
    an index ``<= 0``, so it is ``0.0`` and ``cap - lo_k`` is the cap.  For
    ``t >= n - k + 2`` take the ``B`` term at ``u = t - 1``: ``hi_{k-1} =
    o_{k+t-2}`` has an index ``>= n``, so it is the cap.  Either term is a
    float equal to the cap, and ``min(cap, .)`` of the maximum holding it
    is the cap.

    The levels are one :func:`~dampen.sensitivity.level_table` per vector,
    a row per record, filled in chunks by one masked numpy grid each; its
    running maximum changes nothing, as the levels are nondecreasing.
    """
    if len(x) != q.n:
        raise InvalidInputError(
            f"query is for {q.n} records, vector has {len(x)}"
        )

    def open_table(db: NumericVector):
        values, cap = np.array(db.values()), db.lambda_cap
        t_cap = min(q.k + 1, len(values) - q.k + 2)

        def fill(lo: int, hi: int) -> np.ndarray:
            block = np.full((len(values), hi - lo), cap)
            start, stop = max(lo, 1), min(hi, t_cap)
            if start < stop:
                block[:, start - lo:stop - lo] = np.minimum(
                    _window_levels(values, q.k, cap, start, stop), cap)
            if lo == 0:
                block[:, 0] = [ls0_of_record(db, q, label)
                               for label in db.labels()]
            return block

        return {label: row for row, label in enumerate(db.labels())}, fill

    return level_table(open_table, "ls_percentile_windows")


def percentile_problem(x: NumericVector, q: PercentileQuery) -> SelectionProblem:
    """Selection over the record labels 1..n."""
    return SelectionProblem(
        database=x,
        candidates=tuple(sorted(x.labels())),
        utility=lambda db, label: utility_of_label(db, q, label),
        global_sensitivity=global_sensitivity_percentile(x),
        database_size=len(x),
    )


def bounded_ls_percentile(x: NumericVector, q: PercentileQuery) -> SensitivityFunction:
    return bound_sensitivity(percentile_sensitivity(x, q), x.lambda_cap, len(x))


def load_values(lines: Iterable[str], lambda_cap: float) -> NumericVector:
    """Parse one value per line (or a single-column CSV with a header row);
    rejects a line of several fields or an out-of-range value by number."""
    values = []
    for line_no, raw in enumerate(lines, start=1):
        token = raw.strip()
        if not token:
            continue
        if "," in token:
            raise InvalidInputError(
                f"line {line_no}: {token!r} has more than one field")
        try:
            value = float(token)
        except ValueError:
            if line_no == 1:
                continue  # header row
            raise InvalidInputError(
                f"line {line_no}: {raw.strip()!r} is not a number"
            ) from None
        if not (0.0 <= value <= lambda_cap):
            raise InvalidInputError(
                f"line {line_no}: value {value} outside [0, {lambda_cap}]"
            )
        values.append(value)
    if not values:
        raise InvalidInputError("no values found in input")
    return NumericVector(values, lambda_cap)


def load_vector(path, lambda_cap: float) -> NumericVector:
    return load_values(read_utf8(path), lambda_cap)
