"""Construction, classification and brute-force verification of sensitivity
functions.

Everything here treats the database as opaque; a :class:`NeighborEnumerator`
supplies the distance-one neighborhood (and a hashable key for
deduplication), which is enough to compute exact element local sensitivities
on instances small enough for exhaustive search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np

from .core import (
    InvalidInputError,
    PreconditionError,
    SearchBudgetError,
    SelectionProblem,
    SensitivityFunction,
)

_TOL = 1e-9


@dataclass(frozen=True)
class NeighborEnumerator:
    """Finite distance-one neighborhood generator for one database model."""

    neighbors: Callable[[Any], Iterable[Any]]
    key: Callable[[Any], Hashable] = lambda db: db


class BruteForceExplorer:
    """Breadth-first exploration of the distance-t ball around a database.

    Explored databases are deduplicated by the enumerator key and retained
    level by level, so repeated queries at growing t reuse earlier work.
    Utilities are memoised by (enumerator key, candidate) for the explorer's
    lifetime, so equal neighbours of different databases are scored once.
    Refuses (rather than truncates) when the ball exceeds ``node_budget``.
    """

    def __init__(
        self,
        problem: SelectionProblem,
        enumerator: NeighborEnumerator,
        node_budget: int = 200_000,
    ):
        self.problem = problem
        self.enumerator = enumerator
        self.node_budget = node_budget
        root = problem.database
        self._levels: list[list[Any]] = [[root]]
        self._seen = {enumerator.key(root)}
        self._ls0_cache: dict[tuple, float] = {}
        self._utility_cache: dict[tuple, float] = {}

    def _expand_to(self, t: int) -> None:
        while len(self._levels) <= t:
            frontier = self._levels[-1]
            nxt = []
            for db in frontier:
                for nb in self.enumerator.neighbors(db):
                    k = self.enumerator.key(nb)
                    if k in self._seen:
                        continue
                    self._seen.add(k)
                    nxt.append(nb)
                    if len(self._seen) > self.node_budget:
                        raise SearchBudgetError(
                            f"distance-{t} ball exceeds node budget "
                            f"{self.node_budget}"
                        )
            self._levels.append(nxt)

    def ball(self, t: int) -> Iterable[Any]:
        self._expand_to(t)
        for level in self._levels[: t + 1]:
            yield from level

    def _utility(self, db: Any, r: Hashable) -> float:
        cache_key = (self.enumerator.key(db), r)
        hit = self._utility_cache.get(cache_key)
        if hit is None:
            hit = self._utility_cache[cache_key] = self.problem.utility(db, r)
        return hit

    def ls0(self, db: Any, r: Hashable) -> float:
        """Exact local sensitivity of candidate r at ``db``: the largest
        one-step utility change."""
        cache_key = (self.enumerator.key(db), r)
        hit = self._ls0_cache.get(cache_key)
        if hit is not None:
            return hit
        base = self._utility(db, r)
        worst = 0.0
        for nb in self.enumerator.neighbors(db):
            worst = max(worst, abs(base - self._utility(nb, r)))
        self._ls0_cache[cache_key] = worst
        return worst

    def element_ls(self, t: int, r: Hashable) -> float:
        return max(self.ls0(db, r) for db in self.ball(t))


def brute_element_ls(
    problem: SelectionProblem,
    enumerator: NeighborEnumerator,
    t: int,
    r: Hashable,
    node_budget: int = 200_000,
) -> float:
    """Exhaustive element local sensitivity at distance t (BFS over the ball)."""
    if t < 0:
        raise InvalidInputError("t must be >= 0")
    return BruteForceExplorer(problem, enumerator, node_budget).element_ls(t, r)


def brute_sensitivity(
    problem: SelectionProblem,
    enumerator: NeighborEnumerator,
    node_budget: int = 200_000,
    name: str = "brute_ls",
) -> SensitivityFunction:
    """Exact element local sensitivity packaged as a sensitivity function.

    This is the minimum admissible function for the (finite) model described
    by the enumerator; only usable on tiny instances.  The distance-t balls
    are nested, so the value never shrinks as t grows.  Explorers are cached
    per database so dampening walks stay affordable.
    """
    explorers: dict[Hashable, BruteForceExplorer] = {}

    def eval_fn(db, t, r):
        k = enumerator.key(db)
        explorer = explorers.get(k)
        if explorer is None:
            shifted = SelectionProblem(
                database=db,
                candidates=problem.candidates,
                utility=problem.utility,
                global_sensitivity=problem.global_sensitivity,
                database_size=problem.database_size,
            )
            explorer = BruteForceExplorer(shifted, enumerator, node_budget)
            explorers[k] = explorer
        return explorer.element_ls(t, r)

    return SensitivityFunction(
        eval=eval_fn,
        declared_admissible=True,
        declared_bounded=False,
        declared_nondecreasing_in_t=True,
        monotonicity="none",
        name=name,
    )


def truncated_sensitivity(
    delta: SensitivityFunction,
    global_sensitivity: float,
    max_t: int,
    name: str | None = None,
) -> SensitivityFunction:
    """Evaluate ``delta`` up to ``max_t`` and pin the global sensitivity
    beyond.

    Keeps admissibility whenever ``delta`` is admissible and pointwise at
    most the global sensitivity; the result is bounded by construction, and
    nondecreasing in t when ``delta`` is.  Useful when ``delta`` is an
    expensive exact local sensitivity.
    """

    def eval_fn(db, t, r):
        if t > max_t:
            return global_sensitivity
        return min(delta(db, t, r), global_sensitivity)

    return SensitivityFunction(
        eval=eval_fn,
        declared_admissible=delta.declared_admissible,
        declared_bounded=True,
        declared_nondecreasing_in_t=delta.declared_nondecreasing_in_t,
        monotonicity=delta.monotonicity,
        name=name or f"{delta.name}_trunc{max_t}",
    )


def bound_sensitivity(
    delta: SensitivityFunction,
    global_sensitivity: float,
    database_size: int | None = None,
) -> SensitivityFunction:
    """Pointwise ``min(delta, GS)``, declared bounded.

    For an admissible ``delta`` the minimum reaches GS for every ``t`` at or
    past the database size, which is what the bounded declaration promises.
    When ``database_size`` is given the tail is pinned to GS explicitly, so
    the declaration also holds for sensitivity functions whose admissibility
    is merely assumed.  Taking a minimum with a constant preserves the
    declared monotonicity class, and so does pinning the tail to GS for a
    ``delta`` that is nondecreasing in t.  A ``levels`` hook of ``delta`` is
    mapped the same way; non-finite levels pass through unclipped, so the
    walk refuses them as the inner per-step check does.
    """
    if not delta.declared_admissible:
        raise PreconditionError("bound_sensitivity expects an admissible input")

    def eval_fn(db, t, r):
        if database_size is not None and t >= database_size:
            return global_sensitivity
        return min(delta(db, t, r), global_sensitivity)

    levels_fn = None
    if delta.levels is not None:
        def levels_fn(db, r, upto):
            m = upto if database_size is None else min(upto, database_size)
            out = [min(v, global_sensitivity) if v < math.inf else v
                   for v in delta.levels(db, r, m)[:m]]
            out.extend([global_sensitivity] * (upto - m))
            return out

    return SensitivityFunction(
        eval=eval_fn,
        declared_admissible=True,
        declared_bounded=True,
        declared_nondecreasing_in_t=delta.declared_nondecreasing_in_t,
        monotonicity=delta.monotonicity,
        name=f"min({delta.name}, GS)",
        levels=levels_fn,
    )


def level_table(open_table: Callable[[Any], tuple], name: str
                ) -> SensitivityFunction:
    """Sensitivity function read from a table of levels (one row per
    candidate, one column per t) kept for the last database seen.

    ``open_table(db)`` returns ``(rows, fill)``: ``rows`` maps each
    candidate to its row, and ``fill(lo, hi)`` returns the raw levels of
    every row at t in ``[lo, hi)`` as a float64 array.  A read past the
    filled columns fills ``hi = max(t + 1, min(2 lo, len(db)), 8)``:
    doubling chunks up to the database size, or t when that is larger.

    A level is the running maximum of the raw levels along t, carried
    across chunk ends; a maximum is exact, so a level is the same float in
    whichever chunk it lands.  The running max is nondecreasing in t and
    keeps admissibility: if ``f(y, s, r) <= f(x, s + 1, r)`` for every
    neighbour y of x and every s, then ``max_{s <= t} f(y, s, r) <=
    max_{s <= t} f(x, s + 1, r) <= max_{s <= t + 1} f(x, s, r)``, and
    level 0 is ``f(x, 0, r)``.  The caller vouches for ``f``.

    The levels are one float64 array per database; the ``levels`` hook
    returns a row as a list, since the walk is faster on Python floats.
    The table is replaced whole, never mutated, so threads need no lock.
    """
    last = None          # (database, rows, fill, levels array)

    def read(db: Any, t: int, r: Hashable) -> np.ndarray:
        nonlocal last
        state = last
        if state is None or (state[0] is not db and state[0] != db):
            rows, fill = open_table(db)
            state = last = (db, rows, fill, np.zeros((len(rows), 0)))
        seen, rows, fill, levels = state
        if r not in rows:
            raise InvalidInputError(f"{name}: unknown candidate {r!r}")
        lo = levels.shape[1]
        if t >= lo:
            block = fill(lo, max(t + 1, min(2 * lo, len(db)), 8))
            np.maximum.accumulate(block, axis=1, out=block)
            if lo:
                np.maximum(block, levels[:, -1:], out=block)
            levels = np.hstack([levels, block])
            last = (seen, rows, fill, levels)
        return levels[rows[r]]

    def eval_fn(db, t, r):
        if t < 0:
            raise InvalidInputError("t must be >= 0")
        return float(read(db, t, r)[t])

    return SensitivityFunction(
        eval=eval_fn,
        declared_admissible=True,
        declared_bounded=False,
        declared_nondecreasing_in_t=True,
        monotonicity="none",
        name=name,
        levels=lambda db, r, upto: read(db, max(upto, 1) - 1, r)[:upto].tolist(),
    )


def flatten_sensitivity(
    delta: SensitivityFunction, problem: SelectionProblem
) -> SensitivityFunction:
    """Candidate-independent hull ``max_r delta(x, t, r)`` over the range.

    A max of admissible functions is admissible, and a max of functions
    nondecreasing in t is nondecreasing in t; the result is flat by
    construction and pointwise at least the input.  The hull values of the
    last database seen are kept, so each level is computed once however
    many candidates ask for it; that entry is replaced whole, never shared
    between databases, so threads need no lock.
    """
    candidates = problem.candidates
    last = (None, {})          # (database, {t: hull value})

    def eval_fn(db, t, r):
        nonlocal last
        seen, hull = last
        if seen is not db and seen != db:
            hull = {}
            last = (db, hull)
        value = hull.get(t)
        if value is None:
            value = hull[t] = max(delta(db, t, rr) for rr in candidates)
        return value

    return SensitivityFunction(
        eval=eval_fn,
        declared_admissible=delta.declared_admissible,
        declared_bounded=delta.declared_bounded,
        declared_nondecreasing_in_t=delta.declared_nondecreasing_in_t,
        monotonicity="flat",
        name=f"flat({delta.name})",
    )


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    witness: tuple | None = None
    detail: str = ""


def check_admissibility(
    delta: SensitivityFunction,
    problem: SelectionProblem,
    enumerator: NeighborEnumerator,
    max_t: int,
    node_budget: int = 200_000,
) -> AdmissibilityReport:
    """Verify, on this instance, that ``delta`` covers the exact local
    sensitivity at distance zero and grows at least one step per unit of
    database distance up to ``max_t``.

    Returns the first violating ``(condition, t, r, neighbor_index)``.
    ``delta`` is evaluated once per ``(t <= max_t, r)`` at ``x`` and at each
    neighbor, one database after the other, so a ``delta`` that keeps a
    table for the last database it saw fills it once per database.
    """
    x = problem.database
    candidates = problem.candidates
    explorer = BruteForceExplorer(problem, enumerator, node_budget)

    def levels(db):
        return [[delta(db, t, r) for r in candidates] for t in range(max_t + 1)]

    at_x = levels(x)
    for r, d0 in zip(candidates, at_x[0]):
        ls0 = explorer.ls0(x, r)
        if d0 < ls0 - _TOL:
            return AdmissibilityReport(
                False,
                witness=("ls0", 0, r, None),
                detail=f"delta(x,0,{r!r})={d0} < LS0={ls0}",
            )
    for n_idx, y in enumerate(enumerator.neighbors(x)):
        at_y = levels(y)
        for t in range(max_t):
            for i, r in enumerate(candidates):
                if at_x[t + 1][i] < at_y[t][i] - _TOL:
                    return AdmissibilityReport(
                        False,
                        witness=("growth", t, r, n_idx),
                        detail="delta(x,t+1,r) < delta(y,t,r)",
                    )
                if at_y[t + 1][i] < at_x[t][i] - _TOL:
                    return AdmissibilityReport(
                        False,
                        witness=("growth", t, r, n_idx),
                        detail="delta(y,t+1,r) < delta(x,t,r)",
                    )
    return AdmissibilityReport(True)


def check_boundedness(
    delta: SensitivityFunction,
    problem: SelectionProblem,
    ts_past_n: Sequence[int] = (0, 1, 5),
) -> bool:
    """Spot-check that a declared-bounded function equals GS from t = n on."""
    n = problem.database_size
    gs = problem.global_sensitivity
    return all(
        all(
            abs(delta(problem.database, n + dt, r) - gs) <= _TOL
            for dt in ts_past_n
        )
        for r in problem.candidates
    )


@dataclass(frozen=True)
class MonotonicityReport:
    classification: str
    rank_correlation: float


def check_monotonicity(
    delta: SensitivityFunction,
    problem: SelectionProblem,
    ts: Sequence[int],
) -> MonotonicityReport:
    """Classify ``delta`` against the utility ordering by exhaustive pairwise
    comparison at every t in ``ts``; also report the mean Spearman rank
    correlation between utility and sensitivity as the weak-monotonicity
    diagnostic (0 when degenerate)."""
    from scipy import stats  # deferred: it dominates the load time of dampen

    x = problem.database
    u = problem.utilities()
    non_decreasing = True
    non_increasing = True
    flat = True
    correlations = []
    for t in ts:
        d = [delta(x, t, r) for r in problem.candidates]
        for i in range(len(d)):
            for j in range(len(d)):
                if u[i] > u[j]:
                    if d[i] < d[j] - _TOL:
                        non_decreasing = False
                    if d[j] < d[i] - _TOL:
                        non_increasing = False
                elif u[i] == u[j] and abs(d[i] - d[j]) > _TOL:
                    non_decreasing = False
                    non_increasing = False
        if max(d) - min(d) > _TOL:
            flat = False
        if len(d) > 1 and max(d) - min(d) > _TOL and max(u) - min(u) > _TOL:
            rho = stats.spearmanr(u, d).statistic
            correlations.append(0.0 if math.isnan(rho) else float(rho))
        else:
            correlations.append(0.0)
    if flat:
        classification = "flat"
    elif non_decreasing:
        classification = "non_decreasing"
    elif non_increasing:
        classification = "non_increasing"
    else:
        classification = "none"
    corr = sum(correlations) / len(correlations) if correlations else 0.0
    return MonotonicityReport(classification=classification, rank_correlation=corr)


@dataclass(frozen=True)
class DominanceReport:
    """Gap analysis of two sensitivity functions along the utility order."""

    ordered_candidates: tuple
    gaps: dict = field(default_factory=dict)
    dominates: bool = False
    first_violation: tuple | None = None


def utility_order(problem: SelectionProblem) -> tuple:
    """Candidates sorted by utility descending, ties kept in range order."""
    u = problem.utilities()
    order = sorted(range(len(u)), key=lambda i: (-u[i], i))
    return tuple(problem.candidates[i] for i in order)


def check_dominance(
    delta_a: SensitivityFunction,
    delta_b: SensitivityFunction,
    problem: SelectionProblem,
    ts: Sequence[int] | None = None,
) -> DominanceReport:
    """Does ``delta_a`` dominate ``delta_b``?

    The gap ``delta_b - delta_a`` must be nonnegative and nonincreasing
    along the utility-sorted range for every tested t.  Bounded functions
    are constant from t = n on, so ``ts`` defaults to 0..min(n, 8).
    """
    if ts is None:
        ts = range(min(problem.database_size, 8) + 1)
    ordered = utility_order(problem)
    x = problem.database
    gaps: dict = {}
    dominates = True
    first_violation = None
    for t in ts:
        row = [delta_b(x, t, r) - delta_a(x, t, r) for r in ordered]
        gaps[t] = row
        for idx in range(len(row)):
            nonneg = row[idx] >= -_TOL
            ordered_ok = idx == 0 or row[idx - 1] >= row[idx] - _TOL
            if not (nonneg and ordered_ok):
                dominates = False
                if first_violation is None:
                    first_violation = (t, idx)
                break
    return DominanceReport(
        ordered_candidates=ordered,
        gaps=gaps,
        dominates=dominates,
        first_violation=first_violation,
    )


@dataclass(frozen=True)
class AccuracyOrderReport:
    passed: bool
    expected_error_a: float
    expected_error_b: float
    tail_violations: tuple = ()


def accuracy_order_check(
    delta_a: SensitivityFunction,
    delta_b: SensitivityFunction,
    problem: SelectionProblem,
    epsilon: float,
    ts: Sequence[int] | None = None,
    tolerance: float = 1e-9,
) -> AccuracyOrderReport:
    """Exact accuracy comparison of shifted dampening under two stable
    sensitivity functions, one dominating the other per the gap order of
    :func:`check_dominance`.

    Which instance the guarantee favors depends on the shift direction the
    pair uses.  A shifted score is, up to constants, ``u(r)`` plus (downward
    shift) or minus (upward shift) the prefix sum of the sensitivity
    function at ``r``, so gaps concentrated on high-utility candidates mean
    the pointwise-smaller function spreads scores more under the upward
    shift but less under the downward one.  The check computes both exact
    error distributions and asserts the expectation and tail ordering in
    the direction the gap structure actually implies: the dominant function
    wins for upward-shift (non-increasing) pairs, ties for flat pairs, and
    the dominated one wins for downward-shift (non-decreasing) pairs.
    Mixed-direction pairs are refused.
    """
    from . import mechanisms  # local import keeps module load acyclic

    for d, tag in ((delta_a, "a"), (delta_b, "b")):
        if not (d.declared_admissible and d.declared_bounded):
            raise PreconditionError(f"delta_{tag} is not admissible and bounded")
        if d.monotonicity == "none":
            raise PreconditionError(f"delta_{tag} is not monotonic")
    directions = {
        d.monotonicity
        for d in (delta_a, delta_b)
        if d.monotonicity != "flat"
    }
    if len(directions) > 1:
        raise PreconditionError(
            "cannot order instances with opposite shift directions"
        )
    if not check_dominance(delta_a, delta_b, problem, ts).dominates:
        raise PreconditionError("delta_a does not dominate delta_b")

    rng = np.random.default_rng(0)
    _, dist_a = mechanisms.select_shifted_local_dampening(
        problem, delta_a, epsilon, rng
    )
    _, dist_b = mechanisms.select_shifted_local_dampening(
        problem, delta_b, epsilon, rng
    )
    err_a = mechanisms.expected_error(dist_a, problem)
    err_b = mechanisms.expected_error(dist_b, problem)
    if directions == {"non_decreasing"}:
        # downward shift: the dominated (pointwise larger) function wins
        winner, loser = (err_b, dist_b), (err_a, dist_a)
    else:
        winner, loser = (err_a, dist_a), (err_b, dist_b)
    u = problem.utilities()
    u_star = max(u)
    thetas = sorted({u_star - v for v in u})
    violations = []
    for theta in thetas:
        tail_w = mechanisms.error_tail(winner[1], problem, theta)
        tail_l = mechanisms.error_tail(loser[1], problem, theta)
        if tail_w > tail_l + tolerance:
            violations.append((theta, tail_w, tail_l))
    passed = winner[0] <= loser[0] + tolerance and not violations
    return AccuracyOrderReport(
        passed=passed,
        expected_error_a=err_a,
        expected_error_b=err_b,
        tail_violations=tuple(violations),
    )
