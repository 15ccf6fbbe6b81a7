"""Percentile selection: report which record sits closest to the p-th
percentile value of a capped numeric vector.

Records carry stable labels (their rank in the original input), so "element
i" stays well defined when a value edit re-sorts the vector.  The distance
metric changes one record's value to any point of [0, cap].
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import InvalidInputError, SelectionProblem, SensitivityFunction
from .sensitivity import NeighborEnumerator, bound_sensitivity


class NumericVector:
    """Sorted vector of labeled values in [0, cap].

    Labels are assigned by ascending rank at construction (ties broken by
    input order) and survive value replacement, which re-sorts.
    """

    __slots__ = ("records", "lambda_cap", "_by_label")

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
        for label, value in records:
            if not (0.0 <= value <= self.lambda_cap):
                raise InvalidInputError(
                    f"value {value} of record {label} outside [0, {self.lambda_cap}]"
                )
        self.records = records
        self._by_label = {label: value for label, value in records}

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
        return self._by_label[label]

    def rank_value(self, rank: int) -> float:
        """Value at 1-based ascending rank."""
        return self.records[rank - 1][1]

    def label_at_rank(self, rank: int):
        return self.records[rank - 1][0]

    def replace(self, label, value: float) -> "NumericVector":
        """Copy with one record's value changed, re-sorted (labels stable,
        ties broken by label)."""
        if label not in self._by_label:
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

    def __post_init__(self):
        if not (1 <= self.p <= 100):
            raise InvalidInputError("percentile must be in [1, 100]")
        if self.n < 1:
            raise InvalidInputError("vector must be nonempty")

    @property
    def k(self) -> int:
        raw = math.ceil(self.p * (self.n + 1) / 100)
        return min(max(raw, 1), self.n)


def utility_percentile(x: NumericVector, q: PercentileQuery, i: int) -> float:
    """Negative distance from the rank-i value to the rank-k value."""
    if not (1 <= i <= len(x)):
        raise InvalidInputError(f"rank {i} out of range")
    return -abs(x.rank_value(q.k) - x.rank_value(i))


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
    pos = next(
        rank for rank, (lbl, _) in enumerate(x.records, start=1) if lbl == label
    )
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


def ls0_percentile(x: NumericVector, q: PercentileQuery, i: int) -> float:
    """Element local sensitivity at distance 0 for the record at rank i."""
    if not (1 <= i <= len(x)):
        raise InvalidInputError(f"rank {i} out of range")
    return ls0_of_record(x, q, x.label_at_rank(i))


def candidates_percentile(
    x: NumericVector, q: PercentileQuery, t: int, label
) -> list[NumericVector]:
    """Extremal databases at edit distance t for the sensitivity search.

    Distance one pins the target record to either cap (plus two identity
    copies) and the pivot record to either cap; deeper levels keep forcing
    the current pivot record of each candidate to alternating caps.
    """
    if t < 0:
        raise InvalidInputError("t must be >= 0")
    if t == 0:
        return [x]
    cap = x.lambda_cap
    if t == 1:
        pivot = x.label_at_rank(q.k)
        return [
            x.replace(label, cap),
            x,
            x.replace(label, 0.0),
            x,
            x.replace(pivot, cap),
            x.replace(pivot, 0.0),
        ]
    prev = candidates_percentile(x, q, t - 1, label)
    out = []
    for idx, y in enumerate(prev):
        pivot = y.label_at_rank(q.k)
        value = 0.0 if idx % 2 == 0 else cap
        out.append(y.replace(pivot, value))
    return out


def candidates_ls_t(
    x: NumericVector, q: PercentileQuery, t: int, label
) -> float:
    """Distance-0 sensitivity maximized over the recursive candidate list
    only (distances 0..t).

    Kept for comparison: the six-candidate recursion can miss the true
    maximum, because the worst database at distance t may edit records other
    than the target and the pivot (see :func:`ls_t_of_record`).
    """
    if t < 0:
        raise InvalidInputError("t must be >= 0")
    best = 0.0
    for tt in range(t + 1):
        for y in candidates_percentile(x, q, tt, label):
            best = max(best, ls0_of_record(y, q, label))
    return best


class _ForcedBall:
    """Databases reachable by forcing at most t records to 0 or the cap.

    The distance-0 sensitivity of a record is piecewise linear in every
    value with its maxima driven to the caps, so this closure attains the
    exhaustive maximum over all edit sequences (checked against a full-grid
    breadth-first oracle in the test suite).  Levels are deduplicated and
    grown on demand; ball and per-record running maxima are cached per
    database, since the dampening walk asks for consecutive t.
    """

    def __init__(self, q: PercentileQuery):
        self.q = q
        self._per_db: dict = {}
        self._lock = threading.Lock()   # caches may be shared across threads

    def _state(self, x: NumericVector):
        state = self._per_db.get(x)
        if state is None:
            state = {"levels": [[x]], "seen": {x.records}, "best": {}}
            self._per_db[x] = state
        return state

    def _expand_to(self, state: dict, t: int) -> None:
        levels, seen = state["levels"], state["seen"]
        while len(levels) <= t:
            frontier = levels[-1]
            nxt = []
            for y in frontier:
                for lbl in y.labels():
                    for v in (0.0, y.lambda_cap):
                        z = y.replace(lbl, v)
                        if z.records not in seen:
                            seen.add(z.records)
                            nxt.append(z)
            levels.append(nxt)

    def value(self, x: NumericVector, t: int, label) -> float:
        with self._lock:
            state = self._state(x)
            self._expand_to(state, t)
            best = state["best"].setdefault(
                label, [ls0_of_record(x, self.q, label)]
            )
            while len(best) <= t:
                level = state["levels"][len(best)]
                worst = best[-1]
                for y in level:
                    worst = max(worst, ls0_of_record(y, self.q, label))
                best.append(worst)
            return best[t]


def ls_t_of_record(
    x: NumericVector, q: PercentileQuery, t: int, label
) -> float:
    """Exact element local sensitivity at distance t.

    Maximizes the distance-0 sensitivity over every database obtained by
    forcing up to t records to an endpoint of the value domain; this
    dominates the recursive six-candidate pruning, which touches only the
    target and pivot records and can undershoot.
    """
    if t < 0:
        raise InvalidInputError("t must be >= 0")
    return _ForcedBall(q).value(x, t, label)


def ls_t_percentile(x: NumericVector, q: PercentileQuery, t: int, i: int) -> float:
    if not (1 <= i <= len(x)):
        raise InvalidInputError(f"rank {i} out of range")
    return ls_t_of_record(x, q, t, x.label_at_rank(i))


def ls_percentile_sensitivity(q: PercentileQuery) -> SensitivityFunction:
    """Exact element local sensitivity at distance t as a sensitivity
    function (admissible, nondecreasing in t as a running maximum over
    growing balls; bound with the cap before mechanism use).

    Exhaustive over the cap-forcing closure, so the cost grows roughly as
    3^n; intended for vectors of at most a dozen records.  Use
    :func:`percentile_sensitivity` to fall back to the linear-cost pruning
    on larger inputs.
    """
    ball = _ForcedBall(q)
    return SensitivityFunction(
        eval=lambda x, t, label: ball.value(x, t, label),
        declared_admissible=True,
        declared_bounded=False,
        declared_nondecreasing_in_t=True,
        monotonicity="none",
        name="ls_percentile",
    )


class _CandidateChain:
    """Incremental recursive-candidate levels per (database, record), for
    the linear-cost sensitivity path on larger vectors."""

    def __init__(self, q: PercentileQuery):
        self.q = q
        self._per_key: dict = {}
        self._lock = threading.Lock()

    def value(self, x: NumericVector, t: int, label) -> float:
        with self._lock:
            state = self._per_key.get((x, label))
            if state is None:
                state = ([x], [ls0_of_record(x, self.q, label)])
                self._per_key[(x, label)] = state
            level, best = state
            while len(best) <= t:
                if len(best) == 1:
                    level = candidates_percentile(x, self.q, 1, label)
                else:
                    cap = x.lambda_cap
                    level = [
                        y.replace(
                            y.label_at_rank(self.q.k),
                            0.0 if idx % 2 == 0 else cap,
                        )
                        for idx, y in enumerate(level)
                    ]
                best.append(
                    max(best[-1],
                        max(ls0_of_record(y, self.q, label) for y in level))
                )
                self._per_key[(x, label)] = (level, best)
            return best[t]


#: Largest record count for which the exhaustive closure is the default.
EXACT_SENSITIVITY_MAX_RECORDS = 10


def percentile_sensitivity(
    x: NumericVector, q: PercentileQuery, exact: bool | None = None
) -> SensitivityFunction:
    """Element local sensitivity with a size-aware strategy.

    Small vectors get the exhaustive closure (verified exact against a
    breadth-first oracle); larger ones the recursive candidate pruning,
    which costs O(t) per distance but can undershoot the true value when
    the worst edit touches a third record (see :func:`candidates_ls_t`).
    Both are running maxima, so both are nondecreasing in t.
    """
    if exact is None:
        exact = len(x) <= EXACT_SENSITIVITY_MAX_RECORDS
    if exact:
        return ls_percentile_sensitivity(q)
    chain = _CandidateChain(q)
    return SensitivityFunction(
        eval=lambda db, t, label: chain.value(db, t, label),
        declared_admissible=True,
        declared_bounded=False,
        declared_nondecreasing_in_t=True,
        monotonicity="none",
        name="ls_percentile_pruned",
    )


def percentile_problem(x: NumericVector, q: PercentileQuery) -> SelectionProblem:
    """Selection over the record labels 1..n."""
    return SelectionProblem(
        database=x,
        candidates=tuple(sorted(x.labels())),
        utility=lambda db, label: utility_of_label(db, q, label),
        global_sensitivity=global_sensitivity_percentile(x),
        database_size=len(x),
    )


def bounded_ls_percentile(
    x: NumericVector, q: PercentileQuery, exact: bool | None = None
) -> SensitivityFunction:
    return bound_sensitivity(
        percentile_sensitivity(x, q, exact), x.lambda_cap, len(x)
    )


def critical_values(x: NumericVector, grid: int = 64) -> tuple:
    """Candidate replacement values: the caps, every current value, and a
    uniform grid.  The utility is piecewise linear in a single changed
    value with breakpoints at the current values, so the caps and current
    values alone are exact; the grid guards implementation error."""
    vals = {0.0, x.lambda_cap}
    vals.update(x.values())
    vals.update(x.lambda_cap * j / grid for j in range(grid + 1))
    return tuple(sorted(vals))


def vector_enumerator(
    x: NumericVector, grid: int = 64, values: Sequence[float] | None = None
) -> NeighborEnumerator:
    """Distance-one neighborhood over a fixed finite value set.

    The value set is derived from the root vector, so the enumerated model
    is finite and symmetric (required by the brute-force lab)."""
    allowed = tuple(values) if values is not None else critical_values(x, grid)

    def neighbors(y: NumericVector):
        for label, current in y.records:
            for v in allowed:
                if v != current:
                    yield y.replace(label, v)

    return NeighborEnumerator(neighbors=neighbors, key=lambda y: y.records)


def oracle_ls0(
    x: NumericVector, q: PercentileQuery, label, grid: int = 64
) -> float:
    """Brute-force distance-0 sensitivity over the critical value set."""
    base = utility_of_label(x, q, label)
    worst = 0.0
    for y in vector_enumerator(x, grid).neighbors(x):
        worst = max(worst, abs(base - utility_of_label(y, q, label)))
    return worst


def load_values(lines: Iterable[str], lambda_cap: float) -> NumericVector:
    """Parse one value per line (or a single-column CSV with a header row);
    rejects out-of-range values with their line number."""
    values = []
    for line_no, raw in enumerate(lines, start=1):
        token = raw.strip()
        if not token:
            continue
        if "," in token:
            token = token.split(",")[0].strip()
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
    with open(path, "r", encoding="utf-8") as fh:
        return load_values(fh, lambda_cap)
