"""Exact references: the neighbour models, the brute-force lab and the
exhaustive closures that the verification suites, the tests and the demos
compare the library against.

Everything here treats the database as opaque; a :class:`NeighborEnumerator`
supplies the distance-one neighborhood (and a hashable key for
deduplication), which is enough to compute exact element local sensitivities
on instances small enough for exhaustive search.  :class:`BruteForceExplorer`
is the one breadth-first ball behind every such reference.  No serving
module imports this one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np

from . import graphs, mechanisms, trees
from .core import (
    BudgetAccountant,
    InvalidInputError,
    PreconditionError,
    SearchBudgetError,
    SelectionProblem,
    SensitivityFunction,
)
from .percentile import (
    NumericVector,
    PercentileQuery,
    ls0_of_record,
    percentile_problem,
    utility_of_label,
)
from .sensitivity import bound_sensitivity
from .trees import Categorical, LabeledTable, TableSchema, f_add, g_remove

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
        node_budget: float = 200_000,
    ):
        self.problem = problem
        self.enumerator = enumerator
        self.node_budget = node_budget
        root = problem.database
        self._levels: list[list[Any]] = [[root]]
        self._seen = {enumerator.key(root)}
        self._ls0_cache: dict[tuple, float] = {}
        self._utility_cache: dict[tuple, float] = {}

    def level(self, t: int) -> list:
        """The databases exactly t edits away (none of them nearer)."""
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
        return self._levels[t]

    def ball(self, t: int) -> Iterable[Any]:
        for s in range(t + 1):
            yield from self.level(s)

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
            explorer = explorers[k] = BruteForceExplorer(
                replace(problem, database=db), enumerator, node_budget)
        return explorer.element_ls(t, r)

    return SensitivityFunction(
        eval=eval_fn,
        declared_admissible=True,
        declared_bounded=False,
        declared_nondecreasing_in_t=True,
        monotonicity="none",
        name=name,
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


def edge_flip_enumerator() -> NeighborEnumerator:
    """All graphs one edge flip away; the natural edge-privacy neighborhood."""

    def neighbors(g: graphs.EdgeGraph):
        for a in range(len(g.nodes)):
            for b in range(a + 1, len(g.nodes)):
                yield g.flip_edge(g.nodes[a], g.nodes[b])

    return NeighborEnumerator(neighbors=neighbors, key=lambda g: g._adj)


def row_edit_enumerator(schema: TableSchema) -> NeighborEnumerator:
    """Add or remove one fully typed row; the tiny-instance privacy model
    for tables."""
    domains = []
    for name, spec in schema.attributes:
        if not isinstance(spec, Categorical):
            raise InvalidInputError("enumerator needs categorical attributes")
        domains.append([(name, v) for v in spec.values])
    domains.append(
        [(schema.class_attribute, c) for c in schema.class_values]
    )
    all_rows = [dict(combo) for combo in product(*domains)]

    def neighbors(table: LabeledTable):
        rows = table.row_dicts()
        for extra in all_rows:
            yield LabeledTable(table.schema, rows + [extra])
        seen = set()
        for ix, row in enumerate(rows):
            key = tuple(sorted(row.items()))
            if key in seen:
                continue
            seen.add(key)
            yield LabeledTable(table.schema, rows[:ix] + rows[ix + 1:])

    return NeighborEnumerator(neighbors=neighbors, key=lambda tbl: tbl.rows)


def _label_at_rank(x: NumericVector, i: int):
    if not (1 <= i <= len(x)):
        raise InvalidInputError(f"rank {i} out of range")
    return x.records[i - 1][0]


def utility_percentile(x: NumericVector, q: PercentileQuery, i: int) -> float:
    """Negative distance from the rank-i value to the rank-k value."""
    return utility_of_label(x, q, _label_at_rank(x, i))


def ls0_percentile(x: NumericVector, q: PercentileQuery, i: int) -> float:
    """Element local sensitivity at distance 0 for the record at rank i."""
    return ls0_of_record(x, q, _label_at_rank(x, i))


def oracle_ls0(
    x: NumericVector, q: PercentileQuery, label, grid: int = 64
) -> float:
    """Brute-force distance-0 sensitivity over the critical value set."""
    return BruteForceExplorer(
        percentile_problem(x, q), vector_enumerator(x, grid)
    ).ls0(x, label)


def ls_t_of_record(
    x: NumericVector, q: PercentileQuery, t: int, label
) -> float:
    """Exact element local sensitivity at distance t, read once from
    :func:`ls_percentile_sensitivity`; the reference that
    :func:`~dampen.percentile.percentile_sensitivity` is tested against."""
    if t < 0:
        raise InvalidInputError("t must be >= 0")
    return ls_percentile_sensitivity(q).eval(x, t, label)


def ls_t_percentile(x: NumericVector, q: PercentileQuery, t: int, i: int) -> float:
    return ls_t_of_record(x, q, t, _label_at_rank(x, i))


def ls_percentile_sensitivity(q: PercentileQuery) -> SensitivityFunction:
    """Exact element local sensitivity at distance t as a sensitivity
    function (admissible, nondecreasing in t as a running maximum over
    growing balls; bound with the cap before mechanism use).

    The value is the largest :func:`~dampen.percentile.ls0_of_record` over
    the vectors reachable by forcing at most t records to 0 or the cap.
    The distance-0 sensitivity of a record is piecewise linear in every
    value with its maxima driven to the caps, so this closure attains the
    exhaustive maximum over all edit sequences (checked against a full-grid
    breadth-first oracle in the test suite).  One explorer per vector holds
    the closure's levels, and one running maximum per (vector, label) grows
    a level at a time, since the dampening walk asks for consecutive t.
    The ball grows roughly as 3^n (3^12 > 200,000), so the explorer has no
    node budget: this is the exact oracle for vectors of at most a dozen
    records.  :func:`~dampen.percentile.percentile_sensitivity` is the
    default at every size.
    """
    explorers: dict = {}
    maxima: dict = {}

    def eval_fn(x: NumericVector, t: int, label) -> float:
        explorer = explorers.get(x)
        if explorer is None:
            explorer = explorers[x] = BruteForceExplorer(
                percentile_problem(x, q),
                vector_enumerator(x, values=(0.0, x.lambda_cap)),
                node_budget=math.inf,
            )
        best = maxima.setdefault((x, label), [])
        while len(best) <= t:
            best.append(max(
                [*best[-1:], *(ls0_of_record(y, q, label)
                               for y in explorer.level(len(best)))]
            ))
        return best[t]

    return SensitivityFunction(
        eval=eval_fn,
        declared_admissible=True,
        declared_bounded=False,
        declared_nondecreasing_in_t=True,
        monotonicity="none",
        name="ls_percentile",
    )


def h_pair(a: int, b: int) -> float:
    """Largest one-edit score change for a cell with attribute count a and
    class-cell count b."""
    return max(f_add(a) - f_add(b), g_remove(b) - g_remove(a))


def ls0_ig(table: LabeledTable, attribute: str) -> float:
    """Element local sensitivity of the split score at distance 0."""
    best = 0.0
    for by_class in table._contingency(attribute):
        tau_j = sum(by_class)
        for tau_jc in by_class:
            best = max(best, h_pair(tau_j, tau_jc))
    return best


def topk_rounds_oracle(graph, epsilon, k, mechanism, rng):
    """Private EBC top-k the direct way: every round builds a fresh
    selection problem over the nodes not chosen yet and makes one
    :func:`mechanisms.select` call on its own spawned generator, with the
    default sensitivity functions of :class:`graphs.TopKSelector`."""
    base = graphs.ebc_problem(graph)
    gs, n = base.global_sensitivity, base.database_size
    delta = None
    if mechanism in ("ld", "sld"):
        raw = graphs.delta_ebc() if mechanism == "sld" else graphs.flat_delta_ebc()
        delta = bound_sensitivity(raw, gs, n)
    chosen = []
    for iter_rng in rng.spawn(k):
        problem = replace(
            base, candidates=tuple(v for v in graph.nodes if v not in chosen))
        chosen.append(
            mechanisms.select(mechanism, problem, epsilon / k, iter_rng, delta)
        )
    return tuple(chosen)


def diffp_id3_oracle(table, attributes, depth, epsilon, variant, rng,
                     accountant=None, scope_prefix="diffp_id3"):
    """Private ID3 the direct way: the recursive build that
    :func:`trees.build_diffp_id3` grows level by level.  Each node, depth
    first, draws its noisy count, then scores and draws its own selection
    (or its leaf counts) and spawns its children's generators; returns the
    tree and the accountant as the builder does."""
    eps_stage = trees._checked_stage(table, attributes, depth, epsilon,
                                     variant)
    if accountant is None:
        accountant = BudgetAccountant()
    trees._reserve(accountant, scope_prefix, depth, attributes, eps_stage)
    class_values = table.schema.class_values
    tag = {"global": "em", "local": "ld", "shifted": "sld"}[variant]
    delta = trees.ig_sensitivity() if tag != "em" else None

    def build(node_table, attrs, d, node_rng):
        level = depth - d
        n_noisy = trees.noisy_count(len(node_table), eps_stage, node_rng)
        accountant.account((scope_prefix, level, "count"), eps_stage)
        t_max = max((len(table.schema.spec_of(a).values) for a in attrs),
                    default=1)
        if (not attrs or d == 0 or n_noisy / (t_max * len(class_values))
                < trees.STOP_THRESHOLD):
            counts = node_table.class_counts()
            noisy = {c: trees.noisy_count(counts[c], eps_stage, node_rng)
                     for c in class_values}
            accountant.account((scope_prefix, level, "select"), eps_stage)
            label = max(class_values, key=lambda c: noisy[c])
            return trees.Leaf(label), Counter({label: 1})
        problem = trees.ig_problem(node_table, attrs)
        bounded = None if delta is None else bound_sensitivity(
            delta, problem.global_sensitivity, problem.database_size)
        prepared = mechanisms.Prepared(tag, problem, bounded)
        chosen = problem.candidates[prepared.select(eps_stage, node_rng)]
        accountant.account((scope_prefix, level, "select"), eps_stage)
        remaining = tuple(a for a in attrs if a != chosen)
        parts = node_table.partition(chosen)
        children = [
            (value, build(part, remaining, d - 1, child_rng))
            for child_rng, (value, part) in zip(node_rng.spawn(len(parts)),
                                                parts.items())
        ]
        return trees._internal(chosen, children, class_values)

    return build(table, tuple(attributes), depth, rng)[0], accountant


def cross_validate_oracle(table, depth, epsilon, variant, seed, folds=10):
    """:func:`trees.cross_validate` with one :func:`diffp_id3_oracle` build
    per fold, one fold after another."""
    table = trees.cv_table(table)
    attributes = table.schema.attribute_names()
    scores = []
    for train, test, fold_rng in trees.cv_folds(table, seed, folds):
        tree, _ = diffp_id3_oracle(train, attributes, depth, epsilon,
                                   variant, fold_rng)
        scores.append(trees.accuracy(tree, test))
    return float(np.mean(scores))


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
                for (a, at_a), (b, at_b) in ((("x", at_x), ("y", at_y)),
                                             (("y", at_y), ("x", at_x))):
                    if at_a[t + 1][i] < at_b[t][i] - _TOL:
                        return AdmissibilityReport(
                            False,
                            witness=("growth", t, r, n_idx),
                            detail=f"delta({a},t+1,r) < delta({b},t,r)",
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

    dist_a = mechanisms.distribution("sld", problem, epsilon, delta_a)
    dist_b = mechanisms.distribution("sld", problem, epsilon, delta_b)
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
