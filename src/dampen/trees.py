"""Private ID3 decision-tree induction with an information-gain criterion.

The split utility is the (size-scaled, sign-flipped) conditional entropy of
the class given an attribute, so a perfectly separating split scores zero
and everything else scores below; logs are base 2.  Trees are built with a
halved-per-stage budget: each recursion level spends one noisy size count
plus either one attribute selection or one set of leaf class counts, and
sibling partitions compose in parallel.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .core import (
    BudgetAccountant,
    InvalidInputError,
    SelectionProblem,
    SensitivityFunction,
    budget_share,
    check_epsilon,
    read_utf8,
    spawn_generators,
)
from . import mechanisms
from .sensitivity import bound_sensitivity, bounded_levels, table_sensitivity

LOG2E = 1.0 / math.log(2.0)


@dataclass(frozen=True)
class Categorical:
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise InvalidInputError("categorical domain must be nonempty")
        try:
            repeated = len(set(self.values)) < len(self.values)
        except TypeError:
            raise InvalidInputError("schema domains must be lists of scalars") from None
        if repeated:
            raise InvalidInputError("categorical domain lists a value twice")


#: Most bins a continuous attribute may declare.  Each bin becomes a value
#: of the binned attribute, with its own contingency line and subtable, so
#: without a bound a one-line schema would set memory whatever the table.
MAX_BINS = 10_000


@dataclass(frozen=True)
class Continuous:
    lo: float
    hi: float
    bins: int

    def __post_init__(self):
        if self.bins < 2:
            raise InvalidInputError("continuous attributes need at least 2 bins")
        if self.bins > MAX_BINS:
            raise InvalidInputError(
                f"continuous attributes take at most {MAX_BINS} bins, "
                f"got {self.bins}")
        if not (self.lo <= self.hi):
            raise InvalidInputError("continuous domain has lo > hi")
        width = (self.hi - self.lo) / self.bins
        if not math.isfinite(width) or (width == 0 and self.hi > self.lo):
            raise InvalidInputError(
                "continuous domain needs finite bins of nonzero width")


@dataclass(frozen=True)
class TableSchema:
    attributes: tuple              # ordered (name, Categorical | Continuous)
    class_attribute: str
    class_values: tuple
    # column name -> (index in a stored row, spec); the class column is
    # last and has spec None
    columns: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "attributes", tuple(self.attributes))
            object.__setattr__(self, "class_values", tuple(self.class_values))
            hash(self)
        except TypeError:
            raise InvalidInputError("schema domains must be lists of scalars") from None
        names = [name for name, _ in self.attributes]
        if len(set(names)) != len(names) or self.class_attribute in names:
            raise InvalidInputError("attribute names must be distinct")
        if len(set(self.class_values)) < len(self.class_values):
            raise InvalidInputError(
                f"class {self.class_attribute!r} lists a value twice")
        columns = {
            name: (ix, spec) for ix, (name, spec) in enumerate(self.attributes)
        }
        columns[self.class_attribute] = (len(names), None)
        object.__setattr__(self, "columns", columns)

    def spec_of(self, name: str):
        spec = self.columns.get(name, (None, None))[1]
        if spec is None:
            raise InvalidInputError(f"unknown attribute {name!r}")
        return spec

    def attribute_names(self) -> tuple:
        return tuple(name for name, _ in self.attributes)


class LabeledTable:
    """Immutable list of rows under a schema.

    Rows are mappings from attribute name to value plus the class value;
    stored canonically so tables hash and compare as multisets.
    """

    __slots__ = ("schema", "rows", "_key", "_hash", "_cell_counts")

    def __init__(self, schema: TableSchema, rows: Iterable[Mapping]):
        canonical = []
        for row_no, row in enumerate(rows, start=1):
            values = []
            for col, (_, spec) in schema.columns.items():
                if col not in row:
                    raise InvalidInputError(f"row {row_no} is missing {col!r}")
                value = row[col]
                if spec is None:
                    if value not in schema.class_values:
                        raise InvalidInputError(
                            f"row {row_no}: class value {value!r} not declared"
                        )
                elif isinstance(spec, Categorical):
                    if value not in spec.values:
                        raise InvalidInputError(
                            f"row {row_no}: value {value!r} outside the domain "
                            f"of {col!r}"
                        )
                else:
                    value = float(value)
                    if not (spec.lo <= value <= spec.hi):
                        raise InvalidInputError(
                            f"row {row_no}: value {value} outside "
                            f"[{spec.lo}, {spec.hi}] of {col!r}"
                        )
                values.append(value)
            canonical.append(tuple(values))
        self._set(schema, tuple(sorted(canonical)))

    def _set(self, schema: TableSchema, rows: tuple) -> None:
        self.schema = schema
        self.rows = rows
        self._key = (schema, rows)
        self._hash = None
        self._cell_counts = {}

    @classmethod
    def _from_canonical(cls, schema: TableSchema, rows: tuple) -> "LabeledTable":
        """Table over rows that are already validated, canonical and sorted."""
        table = cls.__new__(cls)
        table._set(schema, rows)
        return table

    def __len__(self):
        return len(self.rows)

    def __eq__(self, other):
        return isinstance(other, LabeledTable) and self._key == other._key

    def __hash__(self):
        if self._hash is None:      # hashed on first use: most tables never are
            self._hash = hash(self._key)
        return self._hash

    def _col_index(self, name: str) -> int:
        return self.schema.columns[name][0]

    def row_dicts(self) -> list[dict]:
        cols = tuple(self.schema.columns)
        return [dict(zip(cols, row)) for row in self.rows]

    def counts(self, attribute: str) -> dict:
        """Contingency counts tau[j][c] for one attribute, over the declared
        domains (absent combinations count zero).  A fresh dict each call:
        editing it leaves the table's memo as it was."""
        lines = self._contingency(attribute)
        classes = dict.fromkeys(self.schema.class_values)
        values = dict.fromkeys(self.schema.spec_of(attribute).values)
        return {j: dict(zip(classes, line)) for j, line in zip(values, lines)}

    def _contingency(self, attribute: str) -> tuple:
        """Contingency counts as one line per distinct declared value of the
        attribute, each holding one count per distinct declared class, in
        declared order.  Counted once per (table, attribute) and shared by
        every later caller, so it must not be modified."""
        memo = self._cell_counts.get(attribute)
        if memo is not None:
            return memo
        spec = self.schema.spec_of(attribute)
        if not isinstance(spec, Categorical):
            raise InvalidInputError(
                f"attribute {attribute!r} must be discretized first"
            )
        a_ix = self._col_index(attribute)
        c_ix = self._col_index(self.schema.class_attribute)
        line_of = {
            c: k for k, c in enumerate(dict.fromkeys(self.schema.class_values))
        }
        lines = {j: [0] * len(line_of) for j in spec.values}
        for row in self.rows:
            lines[row[a_ix]][line_of[row[c_ix]]] += 1
        memo = tuple(map(tuple, lines.values()))
        self._cell_counts[attribute] = memo
        return memo

    def class_counts(self) -> dict:
        c_ix = self._col_index(self.schema.class_attribute)
        counts = {c: 0 for c in self.schema.class_values}
        for row in self.rows:
            counts[row[c_ix]] += 1
        return counts

    def partition(self, attribute: str) -> dict:
        """Disjoint subtables, one per declared value of the attribute.

        A subsequence of sorted, validated rows is itself sorted and valid,
        so the subtables skip the constructor's checks."""
        spec = self.schema.spec_of(attribute)
        a_ix = self._col_index(attribute)
        buckets = {j: [] for j in spec.values}
        for row in self.rows:
            buckets[row[a_ix]].append(row)
        return {
            j: LabeledTable._from_canonical(self.schema, tuple(rows))
            for j, rows in buckets.items()
        }


# -- information gain utility ------------------------------------------------


def ig_utility(table: LabeledTable, attribute: str) -> float:
    """Split score ``sum_j sum_c tau_jc * log2(tau_jc / tau_j)``.

    Equal to minus the table-size-scaled conditional entropy of the class
    given the attribute: nonpositive, zero exactly for pure splits, and
    maximized by the classic information-gain choice.
    """
    if attribute == table.schema.class_attribute:
        raise InvalidInputError("cannot split on the class attribute")
    total = 0.0
    for by_class in table._contingency(attribute):
        tau_j = sum(by_class)
        if tau_j == 0:
            continue
        for tau_jc in by_class:
            if tau_jc > 0:
                total += tau_jc * math.log2(tau_jc / tau_j)
    return total


def global_sensitivity_ig(n: int) -> float:
    """Worst-case one-row change of the split score on tables of size n."""
    if n < 0:
        raise InvalidInputError("table size must be >= 0")
    return math.log2(n + 1) + LOG2E


def f_add(x: float) -> float:
    """Utility movement potential for adding into a count of x (0 for x <= 0)."""
    if x <= 0:
        return 0.0
    return x * math.log2((x + 1) / x) + math.log2(x + 1)


def g_remove(x: float) -> float:
    """Utility movement potential for removing from a count of x (0 for x <= 1)."""
    if x <= 1:
        return 0.0
    return x * math.log2((x - 1) / x) - math.log2(x - 1)


# (F, G): f_add and g_remove tabulated at 0, 1, 2, ...; the tables only
# grow, by doubling, to the largest count asked for.  The entries are the
# scalar functions' own values, so array arithmetic on them is bit-identical
# to the scalar movement bound (dampen.oracles.h_pair).  The pair is only
# ever replaced whole, never mutated, so a reader always holds a matching
# F and G.
_FG = (np.zeros(0), np.zeros(0))

# Largest (levels x removal pairs) slice of the grid evaluated at once;
# bounds every temporary of _table_levels, the pair axis included, whatever
# the cell counts.  At 2^13 entries each grid temporary takes 64 KiB, and
# larger slices ran no faster on the tree workload.
_GRID_ELEMENTS = 1 << 13


def _potentials(size: int) -> tuple[np.ndarray, np.ndarray]:
    """``(F, G)`` with ``F[x] = f_add(x)`` and ``G[x] = g_remove(x)`` for at
    least every ``x < size``."""
    global _FG
    F, G = _FG
    have = len(F)
    if have < size:
        xs = range(have, max(size, 2 * have))
        F = np.concatenate([F, [f_add(x) for x in xs]])
        G = np.concatenate([G, [g_remove(x) for x in xs]])
        _FG = F, G
    return F, G


def _table_levels(frontiers: Sequence, lo: int, hi: int) -> np.ndarray:
    """Largest movement bound over pairs exactly t ungated edits away from
    any cell ``(a0, b0)`` of each attribute, for each t in ``[lo, hi)``: row
    k of the result covers the cells ``frontiers[k]``.

    Edits that matter are p removals of doubly counted rows and t - p
    additions of singly counted ones, landing on (a0 + t - 2p, b0 - p); the
    remaining edit types are dominated because the movement potentials are
    monotone with shrinking increments, and there is no size gate in the
    add/remove privacy model (a gate makes the bound undershoot and breaks
    the admissibility the mechanisms rely on).

    All attributes share one (t, pair) grid, whose flat pair axis runs over
    (attribute, cell, p) with ``p <= min(b0, hi - 1)``; each row of t is
    reduced per attribute with ``np.maximum.reduceat``.  The grid is masked
    to ``p <= t`` alone: a cell's class count is at most its
    attribute-value count, ``b0 <= a0``, so ``p <= t`` and ``p <= b0`` give
    ``a = (a0 - p) + (t - p) >= 0``.  Masked entries, some with ``a < 0``,
    are set to ``a = 0``, which indexes ``F`` and ``G`` in range and gives
    ``max(-F[b], G[b]) <= 0`` because ``F[0] = G[0] = 0``, ``F >= 0`` and
    ``G <= 0``.  Every level starts at 0, so they change nothing.  The
    grid is evaluated in slices of at most ``_GRID_ELEMENTS`` entries, over
    the pair axis and then over t; a pair slice may end inside an
    attribute.

    The levels are nondecreasing in t, within a call and across calls: from
    t to t + 1 a pair keeps its b and moves a up by one, the bound is
    nondecreasing in a (see :func:`_frontier`), and the pairs allowed only
    grow.  A level at t is the same float whatever ``[lo, hi)`` holds t.
    """
    best = np.zeros((len(frontiers), max(hi - lo, 0)))
    if hi <= lo:
        return best
    a0s, b0s, starts, ends = [], [], [], []
    spans = []                          # (attribute, its first pair, end)
    for row, cells in enumerate(frontiers):
        begin = ends[-1] if ends else 0
        for a0, b0 in cells:
            a0s.append(a0)
            b0s.append(b0)
            starts.append(ends[-1] if ends else 0)
            # one pair per removal count p = 0 .. min(b0, hi - 1)
            ends.append(starts[-1] + min(b0, hi - 1) + 1)
        if cells:
            spans.append((row, begin, ends[-1]))
    if not ends:
        return best
    F, G = _potentials(max(a0s) + hi)
    total = ends[-1]
    a0s, b0s, starts, ends = map(np.array, (a0s, b0s, starts, ends))
    for first in range(0, total, _GRID_ELEMENTS):
        last = min(first + _GRID_ELEMENTS, total)
        pair = np.arange(first, last)
        cell = np.searchsorted(ends, pair, side="right")
        p = pair - starts[cell]
        a_at_0 = a0s[cell] - 2 * p                      # a at t = 0
        b = b0s[cell] - p
        fb, gb = F[b], G[b]
        inside = [(row, max(begin, first) - first)
                  for row, begin, end in spans if begin < last and end > first]
        rows = [row for row, _ in inside]
        runs = [run for _, run in inside]
        step = _GRID_ELEMENTS // (last - first)
        # levels below the slice's smallest p mask out every pair in it
        for start in range(max(lo, int(p.min())), hi, step):
            stop = min(start + step, hi)
            t = np.arange(start, stop)[:, None]
            a = a_at_0 + t
            np.copyto(a, 0, where=p > t)
            h = F[a]
            np.subtract(h, fb, out=h)
            g = G[a]
            np.subtract(gb, g, out=g)
            np.maximum(h, g, out=h)
            at = (rows, slice(start - lo, stop - lo))
            best[at] = np.maximum(best[at],
                                  np.maximum.reduceat(h, runs, axis=1).T)
    return best


def _frontier(lines: tuple) -> list:
    """Pareto frontier of the cells ``(a0, b0)`` (attribute-value count,
    class count) of one contingency table: larger a0 first, each cell with
    a smaller b0 than every cell before it.

    A cell ``(a0', b0')`` with ``a0' >= a0`` and ``b0' <= b0`` dominates
    ``(a0, b0)`` at every t, so the levels over the frontier are the same
    floats as over every cell.  Each point ``(a0 + t - 2p, b0 - p)`` that
    the weaker cell reaches is matched at the same t.  When
    ``p >= b0 - b0'`` the dominating cell takes ``p' = p - (b0 - b0')``
    removals and lands on the same b with a larger a; otherwise it takes
    none and lands on ``(a0' + t, b0')``, with a larger a and a smaller b.
    The bound ``max(F[a] - F[b], G[b] - G[a])`` is nondecreasing in a and
    nonincreasing in b, because the stored ``F`` is nondecreasing and ``G``
    nonincreasing (``dampen check tree`` checks both exactly), and float
    subtraction and max are monotone in their operands.  So every dropped
    entry is at most a kept one.
    """
    every = {(sum(by_class), b0) for by_class in lines for b0 in by_class}
    cells, low = [], math.inf
    for a0, b0 in sorted(every, key=lambda cell: (-cell[0], cell[1])):
        if b0 < low:
            cells.append((a0, b0))
            low = b0
    return cells


def ls_t_ig(table: LabeledTable, t: int, attribute: str) -> float:
    """Exact element local sensitivity of the split score at distance t.

    The cell movement bound is maximized over every count pair reachable
    within t typed row edits, over all attribute values and classes, via the
    closed-form per-distance scan of :func:`_table_levels` over the
    :func:`_frontier` cells.  Nondecreasing in t.  One read of
    :func:`ig_sensitivity`.
    """
    table._contingency(attribute)          # unknown or continuous: raises
    return ig_sensitivity()(table, t, attribute)


def ig_sensitivity() -> SensitivityFunction:
    """Split-score local sensitivity as a sensitivity function over tables
    (admissible and nondecreasing in t; bound with the size-matched global
    sensitivity before use).

    Its ``table(tbl, lo, hi)`` computes exactly the columns ``[lo, hi)``, a
    row per categorical attribute of the schema, by one
    :func:`_table_levels` grid over their frontiers; nothing is kept
    between reads, and ``eval`` reads one column.  An attribute the node
    already split on is constant in its table and adds at most two frontier
    cells.  Tree induction reads the same kernel over only each node's
    candidates, for every splitting node of a level at once, through
    :func:`_split_levels`; this function serves single problems and the
    walks the array pass leaves to them.
    """

    def table(tbl: LabeledTable, lo: int, hi: int) -> tuple:
        names = [name for name, spec in tbl.schema.attributes
                 if isinstance(spec, Categorical)]
        frontiers = [_frontier(tbl._contingency(name)) for name in names]
        return ({name: row for row, name in enumerate(names)},
                _table_levels(frontiers, lo, hi))

    return table_sensitivity(table, "ls_ig")


def ig_problem(table: LabeledTable, attributes: Sequence[str]) -> SelectionProblem:
    """Attribute selection over one node's subtable."""
    return SelectionProblem(
        database=table,
        candidates=tuple(attributes),
        utility=lambda tbl, attr: ig_utility(tbl, attr),
        global_sensitivity=global_sensitivity_ig(len(table)),
        database_size=max(len(table), 1),
    )


# -- noisy counts and tree induction ----------------------------------------


def noisy_count(count: float, epsilon: float, rng) -> float:
    """Count plus Laplace(1/epsilon) noise; counts move by one per row edit.
    An infinite epsilon, which would give the exact count, is refused."""
    check_epsilon(epsilon)
    return float(count) + float(rng.laplace(0.0, 1.0 / epsilon))


@dataclass(frozen=True)
class Leaf:
    label: Hashable

    def depth(self) -> int:
        return 0


@dataclass(frozen=True)
class Internal:
    attribute: str
    children: tuple                 # ((value, node), ...) in domain order
    majority: Hashable              # fallback label for unseen branch values

    def child(self, value):
        for v, node in self.children:
            if v == value:
                return node
        return None

    def depth(self) -> int:
        return 1 + max(node.depth() for _, node in self.children)


STOP_THRESHOLD = math.sqrt(2.0) / 2.0

VARIANTS = ("global", "local", "shifted")


def _pick_majority(counter: Counter, class_values: Sequence) -> Hashable:
    return max(class_values, key=lambda c: (counter.get(c, 0), ))


def _internal(attribute: str, children: list, class_values: Sequence):
    """Internal node over ``(value, (subtree, its leaf-label votes))``
    children, and its own votes: the fallback label is the majority over
    the leaves below, first declared class on ties."""
    votes = Counter()
    for _, (_, child_votes) in children:
        votes.update(child_votes)
    node = Internal(
        attribute=attribute,
        children=tuple((value, child) for value, (child, _) in children),
        majority=_pick_majority(votes, class_values),
    )
    return node, votes


def stage_budget(epsilon: float, depth: int) -> float:
    """The per-stage share ``epsilon / (2 (depth + 1))`` of a tree of that
    depth, refused unless it is positive and finite
    (:func:`~dampen.core.budget_share`, exact at any int depth)."""
    if depth < 0:
        raise InvalidInputError("depth must be >= 0")
    return budget_share(epsilon, 2 * (depth + 1),
                        "per-stage budget epsilon / (2 (depth + 1))")


def _reserve(accountant: BudgetAccountant, scope_prefix: Hashable, depth: int,
             attributes: Sequence[str], eps_stage: float) -> None:
    """Book every stage of a tree of ``depth`` over ``attributes`` up
    front: a parallel scope per (level, stage) up to the last level a path
    can reach, and the levels past it as one entry of a sequential
    ``(scope_prefix, "unreachable")`` scope."""
    reachable = min(depth, len(attributes))
    for level in range(reachable + 1):
        for stage in ("count", "select"):
            scope = (scope_prefix, level, stage)
            accountant.open_scope(scope, "parallel")
            accountant.account(scope, eps_stage)  # reserved whether used or not
    if depth > reachable:
        scope = (scope_prefix, "unreachable")
        accountant.open_scope(scope, "sequential")
        # 2 (depth - reachable) eps_stage, one rounding at any int depth
        num, den = eps_stage.as_integer_ratio()
        accountant.account(scope, 2 * (depth - reachable) * num / den)


def _checked_stage(table: LabeledTable, attributes: Sequence[str], depth: int,
                   epsilon: float, variant: str) -> float:
    """The per-stage share of a build, once its arguments are checked."""
    eps_stage = stage_budget(epsilon, depth)
    if variant not in VARIANTS:
        raise InvalidInputError(f"unknown variant {variant!r}")
    for attr in attributes:
        if not isinstance(table.schema.spec_of(attr), Categorical):
            raise InvalidInputError(
                f"attribute {attr!r} must be discretized before induction"
            )
    return eps_stage


def _split_levels(problems: Sequence[SelectionProblem]):
    """The ``table`` of :func:`mechanisms.score_together` over node
    problems: the pair ``(b, attribute)`` reads the levels of
    :func:`ig_sensitivity` at ``problems[b]``'s table, bounded at its GS and
    size by :func:`~dampen.sensitivity.bounded_levels`, as
    :func:`~dampen.sensitivity.bound_sensitivity` bounds them.

    One :func:`_table_levels` grid per read covers the frontiers of every
    pair asked for, so only candidate attributes are counted and read by
    the kernel of :func:`ig_sensitivity`; nothing is kept but each pair's
    frontier."""
    frontiers = {}

    def table(lo, hi, wanted):
        for key in wanted:
            if key not in frontiers:
                b, attr = key
                frontiers[key] = _frontier(problems[b].database._contingency(attr))
        at = [problems[b] for b, _ in wanted]
        gs = np.array([[p.global_sensitivity] for p in at])
        n = np.array([[p.database_size] for p in at])
        raw = _table_levels([frontiers[key] for key in wanted], lo, hi)
        return list(range(len(wanted))), bounded_levels(raw, lo, gs, n)

    return table


def _grow(jobs: Sequence[tuple], attributes: Sequence[str], depth: int,
          eps_stage: float, variant: str, scope_prefix: Hashable) -> list:
    """One tree per ``(table, rng, accountant)`` of ``jobs``, grown level by
    level over all of them at once.

    Each open node draws its noisy size count from its own generator and
    becomes a leaf (noisy class counts) or a splitting node.  The splitting
    nodes of a level are then scored together: their ``ld`` or ``sld``
    selections read one :func:`mechanisms.score_together` pass over
    :func:`_split_levels`, and each draws from its own
    :class:`mechanisms.Prepared` with its own generator.  Then every
    splitting node of the level spawns its children's generators in one
    :func:`~dampen.core.spawn_generators` batch; the generators are those
    of ``node_rng.spawn(len(parts))``, and a root generator the caller
    passed spawns itself.  A node's draws, spawns and ledger entries come
    in the order of the depth-first recursion, and no generator is shared,
    so the trees and generators are those of one recursive build per
    job."""
    class_values = jobs[0][0].schema.class_values
    tag = {"global": "em", "local": "ld", "shifted": "sld"}[variant]
    delta = ig_sensitivity() if tag != "em" else None
    # node id -> (Leaf, votes), or (attribute, [(value, child id)]) until
    # the trees are assembled; the root of job j is node j
    made = [None] * len(jobs)
    level_nodes = [(job, job, table, tuple(attributes), rng)
                   for job, (table, rng, _) in enumerate(jobs)]
    level = 0
    while level_nodes:
        count_scope = (scope_prefix, level, "count")
        select_scope = (scope_prefix, level, "select")
        splits = []
        for node, job, node_table, attrs, node_rng in level_nodes:
            accountant = jobs[job][2]
            n_noisy = noisy_count(len(node_table), eps_stage, node_rng)
            accountant.account(count_scope, eps_stage)
            t_max = max((len(node_table.schema.spec_of(a).values)
                         for a in attrs), default=1)
            if (not attrs or level == depth
                    or n_noisy / (t_max * len(class_values)) < STOP_THRESHOLD):
                counts = node_table.class_counts()
                noisy = {c: noisy_count(counts[c], eps_stage, node_rng)
                         for c in class_values}
                accountant.account(select_scope, eps_stage)
                # max keeps the first maximal item: the first declared class
                label = max(class_values, key=lambda c: noisy[c])
                made[node] = Leaf(label), Counter({label: 1})
                continue
            problem = ig_problem(node_table, attrs)
            bounded = None if delta is None else bound_sensitivity(
                delta, problem.global_sensitivity, problem.database_size
            )
            splits.append((node, job, node_table, attrs, node_rng,
                           mechanisms.Prepared(tag, problem, bounded)))
        if delta is not None and splits:
            prepared = [split[-1] for split in splits]
            mechanisms.score_together(
                prepared, _split_levels([p.problem for p in prepared]))
        picks = []
        for node, job, node_table, attrs, node_rng, prepared in splits:
            chosen = attrs[prepared.select(eps_stage, node_rng)]
            jobs[job][2].account(select_scope, eps_stage)
            picks.append((node, job, chosen,
                          tuple(a for a in attrs if a != chosen),
                          node_table.partition(chosen)))
        # spawning leaves a generator's draws as they are, so every
        # splitting node of the level spawns in one batch after its draw
        spawned = spawn_generators([split[4] for split in splits],
                                   [len(pick[4]) for pick in picks])
        level_nodes = []
        for (node, job, chosen, remaining, parts), child_rngs in zip(picks,
                                                                     spawned):
            children = []
            for child_rng, (value, part) in zip(child_rngs, parts.items()):
                children.append((value, len(made)))
                level_nodes.append((len(made), job, part, remaining,
                                    child_rng))
                made.append(None)
            made[node] = chosen, children
        level += 1
    # children come after their parents: assemble from the last node back
    for node in range(len(made) - 1, -1, -1):
        if not isinstance(made[node][0], Leaf):
            chosen, children = made[node]
            made[node] = _internal(
                chosen, [(value, made[child]) for value, child in children],
                class_values)
    return [made[job][0] for job in range(len(jobs))]


def build_diffp_id3(
    table: LabeledTable,
    attributes: Sequence[str],
    depth: int,
    epsilon: float,
    variant: str,
    rng,
    accountant: BudgetAccountant | None = None,
    scope_prefix: Hashable = "diffp_id3",
):
    """Differentially private ID3 with a per-stage budget of
    ``epsilon / (2 (depth + 1))`` (:func:`stage_budget`).

    Every tree level runs one noisy size count per node and either one
    private attribute selection (exponential mechanism, local dampening, or
    shifted local dampening on the bounded split-score sensitivity) or, at
    leaves, noisy class counts.  Each selection is one draw of
    :meth:`mechanisms.Prepared.select` over the node's problem, which
    builds no distribution object.  The tree grows level by level
    (:func:`_grow`): the splitting nodes of a level are scored in one array
    pass, and every draw comes from the node's own generator, so the tree
    is that of the recursive build (``dampen.oracles.diffp_id3_oracle``).
    Sibling partitions are disjoint, so each stage is a parallel scope; the
    full per-stage budget is reserved up front, making the accountant total
    exactly epsilon regardless of early stops.  A path splits on each
    attribute at most once, so levels past ``len(attributes)`` are never
    reached: their stages are reserved together as one entry of a
    ``(scope_prefix, "unreachable")`` scope.  The per-stage share is
    checked before any scope is opened.
    """
    eps_stage = _checked_stage(table, attributes, depth, epsilon, variant)
    if accountant is None:
        accountant = BudgetAccountant()
    _reserve(accountant, scope_prefix, depth, attributes, eps_stage)
    tree, = _grow([(table, rng, accountant)], attributes, depth, eps_stage,
                  variant, scope_prefix)
    return tree, accountant


def build_id3(table: LabeledTable, attributes: Sequence[str], depth: int):
    """Non-private reference induction: exact counts, exact argmax, same
    stopping rule and tie-breaks as the private builder."""
    class_values = table.schema.class_values

    def build(node_table, attrs, d):
        t_max = max((len(table.schema.spec_of(a).values) for a in attrs), default=1)
        if (
            not attrs
            or d == 0
            or len(node_table) / (t_max * len(class_values)) < STOP_THRESHOLD
        ):
            counts = node_table.class_counts()
            label = max(class_values, key=lambda c: counts[c])
            return Leaf(label), Counter({label: 1})
        scores = {a: ig_utility(node_table, a) for a in attrs}
        chosen = max(attrs, key=lambda a: scores[a])
        remaining = tuple(a for a in attrs if a != chosen)
        children = [
            (value, build(part, remaining, d - 1))
            for value, part in node_table.partition(chosen).items()
        ]
        return _internal(chosen, children, class_values)

    return build(table, tuple(attributes), depth)[0]


def classify(tree, row: Mapping) -> Hashable:
    node = tree
    while isinstance(node, Internal):
        child = node.child(row.get(node.attribute))
        if child is None:
            return node.majority
        node = child
    return node.label


def accuracy(tree, table: LabeledTable) -> float:
    if len(table) == 0:
        return 0.0
    hits = sum(
        1
        for row in table.row_dicts()
        if classify(tree, row) == row[table.schema.class_attribute]
    )
    return hits / len(table)


# -- continuous attributes ---------------------------------------------------


def bin_index(value: float, lo: float, hi: float, bins: int) -> int:
    """Evenly spaced bins on [lo, hi]; every bin is closed on the right so
    boundary values (including hi) land in the bin they cap."""
    if hi <= lo:
        return 0
    width = (hi - lo) / bins
    idx = math.ceil((value - lo) / width) - 1
    return min(max(idx, 0), bins - 1)


def discretize(table: LabeledTable, attribute: str) -> LabeledTable:
    """Replace one continuous attribute by its bin index (a categorical
    attribute with values 0..bins-1).  The rows were validated when the
    table was built, and every bin index lies in the new domain, so the
    binned rows are built canonical and sorted, without a second check."""
    spec = table.schema.spec_of(attribute)
    if not isinstance(spec, Continuous):
        raise InvalidInputError(f"attribute {attribute!r} is not continuous")
    new_attrs = tuple(
        (name, Categorical(tuple(range(spec.bins))) if name == attribute else s)
        for name, s in table.schema.attributes
    )
    schema = TableSchema(
        attributes=new_attrs,
        class_attribute=table.schema.class_attribute,
        class_values=table.schema.class_values,
    )
    ix = table._col_index(attribute)
    rows = sorted(
        row[:ix] + (bin_index(row[ix], spec.lo, spec.hi, spec.bins),) + row[ix + 1:]
        for row in table.rows)
    return LabeledTable._from_canonical(schema, tuple(rows))


def discretize_all(table: LabeledTable) -> LabeledTable:
    for name, spec in table.schema.attributes:
        if isinstance(spec, Continuous):
            table = discretize(table, name)
    return table


def cv_table(table: LabeledTable) -> LabeledTable:
    """The table with its continuous attributes binned, ready for
    :func:`cross_validate` (a binned table comes back as it is).  Fewer
    than 2 rows leave no fold with both a training and a test row, so
    such a table is refused."""
    if len(table) < 2:
        raise InvalidInputError(
            f"cross-validation needs at least 2 rows, the table has {len(table)}"
        )
    return discretize_all(table)


def cv_folds(table: LabeledTable, seed: int, folds: int) -> list:
    """``(train, test, generator)`` of every fold of a seeded split that
    has both a training and a test row, in fold order.  Fold assignment
    shuffles the rows of ``table`` (binned, see :func:`cv_table`)
    deterministically from ``numpy.random.default_rng(seed)`` (``folds >=
    2``), and fold f draws from child f of that generator's
    ``spawn(folds)``.  Folds past the row count get no rows, so only the
    first ``min(folds, rows)`` children are made, in one
    :func:`~dampen.core.spawn_generators` batch."""
    rows = table.rows
    order = np.random.default_rng(seed).permutation(len(rows))
    fold_of = {int(ix): pos % folds for pos, ix in enumerate(order)}
    split = []
    fold_rngs = spawn_generators([seed], [min(folds, len(rows))])[0]
    for fold, fold_rng in enumerate(fold_rngs):
        # subsequences of sorted, validated rows, as in partition
        train = tuple(row for i, row in enumerate(rows) if fold_of[i] != fold)
        test = tuple(row for i, row in enumerate(rows) if fold_of[i] == fold)
        if train and test:
            split.append((LabeledTable._from_canonical(table.schema, train),
                          LabeledTable._from_canonical(table.schema, test),
                          fold_rng))
    return split


def cross_validate(
    table: LabeledTable,
    depth: int,
    epsilon: float,
    variant: str,
    seed: int,
    folds: int = 10,
) -> float:
    """Mean held-out accuracy over the seeded folds of :func:`cv_folds`.

    Continuous attributes are binned first (see :func:`cv_table`).  The
    trees of all folds grow together, level by level (:func:`_grow`), so
    the splitting nodes of a level are scored in one array pass across
    the folds; each fold's tree, ledger and accuracy are those of
    :func:`build_diffp_id3` on the fold's training rows and generator."""
    if folds < 2:
        raise InvalidInputError("need at least 2 folds")
    table = cv_table(table)
    attributes = table.schema.attribute_names()
    split = cv_folds(table, seed, folds)
    eps_stage = _checked_stage(table, attributes, depth, epsilon, variant)
    jobs = []
    for train, _, fold_rng in split:
        accountant = BudgetAccountant()
        _reserve(accountant, "diffp_id3", depth, attributes, eps_stage)
        jobs.append((train, fold_rng, accountant))
    trees = _grow(jobs, attributes, depth, eps_stage, variant, "diffp_id3")
    return float(np.mean([accuracy(tree, test)
                          for tree, (_, test, _) in zip(trees, split)]))


# -- loading ------------------------------------------------------------------


def schema_from_json(doc: Mapping) -> TableSchema:
    """Sidecar layout: one key per attribute mapping to either
    {"categorical": [...]} or {"continuous": {"min":…, "max":…, "bins":…}},
    plus "class" naming the label column and "classes" listing its values
    (optional; inferred from data when absent).  Domains are JSON arrays of
    distinct scalars, "min" and "max" are JSON numbers and "bins" is a JSON
    integer, so no string, boolean, object or fraction is read as a domain
    by accident."""
    if not isinstance(doc, dict) or "class" not in doc:
        raise InvalidInputError('schema must be an object with a "class" key')
    attrs = []
    for name, spec in doc.items():
        if name in ("class", "classes"):
            continue
        try:
            if "categorical" in spec:
                values = spec["categorical"]
                if not isinstance(values, list):
                    raise TypeError
                kind, args = Categorical, (values,)
            else:
                c = spec["continuous"]
                # no bool, string or (for bins) fraction
                if type(c["bins"]) is not int or not all(
                        type(c[k]) in (int, float) for k in ("min", "max")):
                    raise TypeError
                kind = Continuous
                args = float(c["min"]), float(c["max"]), c["bins"]
        except (KeyError, TypeError, OverflowError):
            raise InvalidInputError(
                f'attribute {name!r} needs a "categorical" list or a '
                f'"continuous" numeric "min" and "max" and integer "bins", '
                f'got {spec!r}'
            ) from None
        try:
            attrs.append((name, kind(*args)))
        except InvalidInputError as exc:
            raise InvalidInputError(f"attribute {name!r}: {exc}") from None
    classes = doc.get("classes", [])
    if not isinstance(classes, list):
        raise InvalidInputError(
            f'class {doc["class"]!r}: "classes" must be a list, got {classes!r}')
    return TableSchema(
        attributes=tuple(attrs),
        class_attribute=doc["class"],
        class_values=classes,
    )


def load_table(data_path, schema_path) -> LabeledTable:
    try:
        doc = json.load(read_utf8(schema_path))
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{schema_path}: not valid JSON: {exc}") from None
    schema = schema_from_json(doc)
    reader = csv.DictReader(read_utf8(data_path, newline=""))
    try:
        columns = reader.fieldnames or []
        raw_rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise InvalidInputError(f"{data_path}: line {reader.line_num}: {exc}") from None
    for name in (*schema.attribute_names(), schema.class_attribute):
        if name not in columns:
            raise InvalidInputError(f"{data_path}: CSV is missing column {name!r}")
    for line_no, row in raw_rows:
        if None in row.values():
            raise InvalidInputError(
                f"{data_path}: line {line_no}: expected {len(columns)} fields"
            )
    if not schema.class_values:
        observed = sorted({row[schema.class_attribute] for _, row in raw_rows})
        schema = TableSchema(
            attributes=schema.attributes,
            class_attribute=schema.class_attribute,
            class_values=tuple(observed),
        )
    def coerce(raw, declared):
        # CSV hands back strings; match them onto the declared domain.
        if raw in declared:
            return raw
        for v in declared:
            if str(v) == raw:
                return v
        return raw

    rows = []
    for line_no, row in raw_rows:
        converted = {}
        for name, spec in schema.attributes:
            value = row[name]
            if isinstance(spec, Continuous):
                try:
                    converted[name] = float(value)
                except ValueError:
                    raise InvalidInputError(
                        f"{data_path}: line {line_no}: column {name!r}: "
                        f"{value!r} is not a number"
                    ) from None
            else:
                converted[name] = coerce(value, spec.values)
        converted[schema.class_attribute] = coerce(
            row[schema.class_attribute], schema.class_values
        )
        rows.append(converted)
    return LabeledTable(schema, rows)
