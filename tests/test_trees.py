import copy
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from dampen import mechanisms, trees
from dampen.core import BudgetAccountant, InvalidInputError
from dampen.fixtures import (
    TINY_TABLE_SCHEMA,
    TOY_TABLE_ATTRIBUTES,
    random_induction_table,
    random_table_instance,
    separable_table,
)
from dampen.trees import (
    Categorical,
    Continuous,
    Internal,
    LabeledTable,
    Leaf,
    TableSchema,
    accuracy,
    bin_index,
    build_diffp_id3,
    build_id3,
    classify,
    cross_validate,
    cv_folds,
    cv_table,
    discretize,
    discretize_all,
    f_add,
    global_sensitivity_ig,
    ig_problem,
    ig_sensitivity,
    ig_utility,
    ls_t_ig,
    noisy_count,
    VARIANTS,
    schema_from_json,
    stage_budget,
)
from dampen.oracles import (
    check_admissibility,
    cross_validate_oracle,
    diffp_id3_oracle,
    h_pair,
    ls0_ig,
    row_edit_enumerator,
)
from dampen.sensitivity import bound_sensitivity


def two_value_table(rows):
    return LabeledTable(TINY_TABLE_SCHEMA, rows)


def count_matrix(table):
    counts = table.counts("A")
    return tuple(
        tuple(counts[j][c] for c in table.schema.class_values) for j in (0, 1)
    )


def matrix_ls0(matrix):
    return max(h_pair(sum(row), b) for row in matrix for b in row)


def cell_level_max(a0, b0, t):
    """Scalar reference for one cell at one distance: the largest h_pair over
    the p removals and t - p additions that land on a nonnegative count."""
    best = 0.0
    for p in range(min(b0, t) + 1):
        a = a0 + t - 2 * p
        if a < 0:
            continue
        best = max(best, h_pair(a, b0 - p))
    return best


def scalar_levels(table, attribute, t_max):
    """Running max over t = 0..t_max of the scalar per-cell scan."""
    counts = table.counts(attribute)
    cells = [(sum(by_class.values()), b) for by_class in counts.values()
             for b in by_class.values()]
    levels, best = [], 0.0
    for t in range(t_max + 1):
        for a0, b0 in cells:
            best = max(best, cell_level_max(a0, b0, t))
        levels.append(best)
    return levels


THREE_BY_THREE = TableSchema(
    attributes=(("A", Categorical((0, 1, 2))), ("B", Categorical(("x", "z")))),
    class_attribute="y",
    class_values=("c0", "c1", "c2"),
)


def cell_table(rng, max_cell):
    """Table on THREE_BY_THREE with every (A value, class) count drawn from
    [0, max_cell]; about a fifth of the cells, and sometimes a whole A value,
    are empty."""
    empty_value = int(rng.integers(0, 6))     # 3..5: no empty A value
    rows = []
    for j in (0, 1, 2):
        for c in THREE_BY_THREE.class_values:
            if j == empty_value or rng.random() < 0.2:
                continue
            for _ in range(int(rng.integers(0, max_cell + 1))):
                rows.append({"A": j, "B": ("x", "z")[int(rng.integers(2))],
                             "y": c})
    return LabeledTable(THREE_BY_THREE, rows)


def exhaustive_ls_t(table, t):
    """BFS over typed single-row edits of the contingency counts."""
    start = count_matrix(table)
    seen = {start}
    frontier = [start]
    best = matrix_ls0(start)
    for _ in range(t):
        nxt = []
        for m in frontier:
            for j in range(2):
                for c in range(2):
                    for d in (+1, -1):
                        if d < 0 and m[j][c] == 0:
                            continue
                        mm = [list(r) for r in m]
                        mm[j][c] += d
                        key = tuple(tuple(r) for r in mm)
                        if key not in seen:
                            seen.add(key)
                            nxt.append(key)
                            best = max(best, matrix_ls0(key))
        frontier = nxt
    return best


class TestSplitScore:
    def test_pure_split_scores_zero(self):
        table = two_value_table(
            [{"A": 0, "y": "c0"}, {"A": 0, "y": "c0"}, {"A": 1, "y": "c1"}]
        )
        assert ig_utility(table, "A") == 0.0

    def test_mixed_split_hand_value(self):
        # one value holding one row of each class, the other holding a pure
        # pair: minus the size-scaled conditional entropy gives -2
        table = two_value_table(
            [{"A": 0, "y": "c0"}, {"A": 0, "y": "c1"},
             {"A": 1, "y": "c0"}, {"A": 1, "y": "c0"}]
        )
        score = ig_utility(table, "A")
        assert score == pytest.approx(-2.0)
        # independent entropy route
        h_cond = 0.0
        for tau_j, cells in ((2, (1, 1)), (2, (2, 0))):
            for tau_jc in cells:
                if tau_jc:
                    h_cond -= (tau_jc / tau_j) * math.log2(tau_jc / tau_j) * tau_j
        assert score == pytest.approx(-h_cond)

    def test_empty_table_scores_zero(self):
        assert ig_utility(two_value_table([]), "A") == 0.0

    def test_global_sensitivity_values(self):
        assert global_sensitivity_ig(0) == pytest.approx(1.4426950408889634)
        assert global_sensitivity_ig(3) == pytest.approx(2 + 1.4426950408889634)
        assert global_sensitivity_ig(1) == pytest.approx(1 + 1.4426950408889634)


class TestDistanceZero:
    def test_empty_table(self):
        assert ls0_ig(two_value_table([]), "A") == 0.0

    def test_single_row_movement(self):
        table = two_value_table([{"A": 0, "y": "c1"}])
        # the empty (0, c0) cell gains the most from one addition
        assert ls0_ig(table, "A") == pytest.approx(f_add(1) - f_add(0))
        assert f_add(1) - f_add(0) == pytest.approx(2.0)

    def test_matches_exhaustive_single_edits(self, rng):
        enum = row_edit_enumerator(TINY_TABLE_SCHEMA)
        for _ in range(80):
            table = random_table_instance(rng, max_rows=6)
            base = ig_utility(table, "A")
            want = max(
                (abs(base - ig_utility(nb, "A")) for nb in enum.neighbors(table)),
                default=0.0,
            )
            assert ls0_ig(table, "A") == pytest.approx(want, abs=1e-9)


class TestDistanceT:
    def test_added_rows_raise_the_bound_past_the_table_size(self):
        # with every row on one attribute value, an added row moves the
        # attribute count past the original size and still raises the bound
        table = two_value_table(
            [{"A": 0, "y": "c0"}, {"A": 0, "y": "c0"}]
        )
        assert ls_t_ig(table, 1, "A") == pytest.approx(exhaustive_ls_t(table, 1))

    def test_distance_zero_equals_ls0(self, rng):
        for _ in range(20):
            table = random_table_instance(rng, max_rows=5)
            assert ls_t_ig(table, 0, "A") == pytest.approx(ls0_ig(table, "A"))

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(120):
            table = random_table_instance(rng, max_rows=6)
            delta = ig_sensitivity()
            for t in (0, 1, 2, 3):
                got = delta(table, t, "A")
                want = exhaustive_ls_t(table, t)
                assert got == pytest.approx(want, abs=1e-9), (table.rows, t)

    def test_monotone_and_incremental(self, rng):
        table = random_table_instance(rng, max_rows=5)
        delta = ig_sensitivity()
        values = [delta(table, t, "A") for t in range(6)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_levels_equal_scalar_scan_one_at_a_time(self, rng):
        for _ in range(12):
            table = cell_table(rng, max_cell=40)
            t_max = min(len(table) + 3, 90)
            delta = ig_sensitivity()
            got = [delta(table, t, "A") for t in range(t_max + 1)]
            assert got == scalar_levels(table, "A", t_max), table.counts("A")

    def test_levels_equal_scalar_scan_after_a_jump(self, rng):
        for max_cell in (3, 20, 133):
            table = cell_table(rng, max_cell=max_cell)
            t_max = len(table) + 5
            delta = ig_sensitivity()
            top = delta(table, t_max, "A")
            want = scalar_levels(table, "A", t_max)
            assert top == want[-1]
            assert [delta(table, t, "A")
                    for t in range(t_max + 1)] == want

    def test_levels_equal_scalar_scan_across_chunk_boundaries(self, rng):
        # levels are filled in chunks [0, 8), [8, 16), [16, 32), ... capped
        # at the table size; ask for the last level of one chunk and then
        # the first of the next, in both orders
        table = cell_table(rng, max_cell=60)
        n = len(table)
        want = scalar_levels(table, "A", n + 2)
        probes = [7, 8, 15, 16, 31, 32, 63, 64, 127, 128, n - 1, n, n + 1]
        probes = [t for t in probes if t <= n + 1]
        for order in (probes, sorted(probes, reverse=True)):
            delta = ig_sensitivity()
            for t in order:
                assert delta(table, t, "A") == want[t], t

    def test_empty_and_tiny_tables_equal_scalar_scan(self, rng):
        for _ in range(40):
            table = random_table_instance(rng, max_rows=4)
            delta = ig_sensitivity()
            got = [delta(table, t, "A") for t in range(12)]
            assert got == scalar_levels(table, "A", 11)

    def test_long_walk_memory_is_bounded(self, rng):
        # a full walk up a 2,000-row table fills its levels in array chunks
        # whose temporaries stay small; a cache of every count pair seen, or
        # one array padded over all cells, would not
        schema = TableSchema(
            attributes=(("A", Categorical((0, 1, 2))),),
            class_attribute="y",
            class_values=("c0", "c1", "c2"),
        )
        table = LabeledTable(schema, [
            {"A": int(rng.integers(3)), "y": schema.class_values[int(rng.integers(3))]}
            for _ in range(2000)
        ])
        delta = ig_sensitivity()
        tracemalloc.start()
        try:
            levels = [delta(table, t, "A") for t in range(2000)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        assert all(a <= b for a, b in zip(levels, levels[1:]))

    def test_skewed_cells_memory_is_bounded(self):
        # one large class cell among many small ones, and one cell larger
        # than a whole grid slice: the slices stay small and the levels
        # still equal the scalar scan
        cases = [
            ([(20000, 20000)] + [(k, k % 4) for k in range(1, 250)], 1990),
            ([(40000, 40000)], 39995),
        ]
        for cells, lo in cases:
            hi = lo + 10 if len(cells) > 1 else lo + 5
            trees._potentials(max(a for a, _ in cells) + hi)
            # the same cells as one attribute, and split over two
            for frontiers in ([cells], [cells[:1], cells[1:]]):
                tracemalloc.start()
                try:
                    got = trees._table_levels(frontiers, lo, hi)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 4 * 2**20, (len(cells), peak)
                for row, part in zip(got, frontiers):
                    want = [max((cell_level_max(a0, b0, t) for a0, b0 in part),
                                default=0.0)
                            for t in range(lo, hi)]
                    assert row.tolist() == want

    def test_growth_interleaved_with_another_growth(self, rng, monkeypatch):
        # another thread may grow the shared F/G tables while this one is
        # filling them; the first f_add call runs such a growth in between
        table = cell_table(rng, max_cell=30)
        want = scalar_levels(table, "A", len(table))
        scalar_f_add = trees.f_add
        interleaved = []

        def f_add(x):
            if not interleaved:
                interleaved.append(x)
                trees._potentials(2)
            return scalar_f_add(x)

        monkeypatch.setattr(trees, "_FG", (np.zeros(0), np.zeros(0)))
        monkeypatch.setattr(trees, "f_add", f_add)
        delta = ig_sensitivity()
        got = [delta(table, t, "A") for t in range(len(table) + 1)]
        assert interleaved
        assert got == want
        F, G = trees._FG
        assert len(F) == len(G)

    def test_concurrent_walks_keep_potentials_paired(self, rng, monkeypatch):
        # walks on several threads grow the shared F/G tables at the same
        # time; every thread must still see matching tables
        tables = [cell_table(rng, max_cell=m) for m in (10, 20, 30, 40)]
        wants = [scalar_levels(tb, "A", len(tb)) for tb in tables]
        empty = (np.zeros(0), np.zeros(0))
        monkeypatch.setattr(trees, "_FG", empty)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                trees._FG = empty
                got = [None] * len(tables)
                barrier = threading.Barrier(len(tables))

                def walk(ix):
                    barrier.wait()
                    delta = ig_sensitivity()
                    got[ix] = [delta(tables[ix], t, "A")
                               for t in range(len(tables[ix]) + 1)]

                threads = [threading.Thread(target=walk, args=(ix,))
                           for ix in range(len(tables))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert got == wants
                F, G = trees._FG
                assert len(F) == len(G)
        finally:
            sys.setswitchinterval(interval)

    def test_movement_potentials_monotone(self, monkeypatch):
        # the stored tables, exactly and with no tolerance: the frontier
        # pruning of ls_t_ig rests on this.  The grown tables are dropped
        # again after the test.
        monkeypatch.setattr(trees, "_FG", trees._FG)
        F, G = trees._potentials(2**20)
        assert len(F) >= 2**20 and len(G) >= 2**20
        assert np.all(np.diff(F) >= 0)
        assert np.all(np.diff(G) <= 0)

    def test_ls0_below_global_bound_with_worst_case(self, rng):
        for _ in range(40):
            n = int(rng.integers(0, 201))
            rows = [
                {"A": int(rng.integers(2)), "y": ("c0", "c1")[int(rng.integers(2))]}
                for _ in range(n)
            ]
            table = two_value_table(rows)
            assert ls0_ig(table, "A") <= global_sensitivity_ig(n) + 1e-9
        # single-value single-class tables attain the exact size-n supremum,
        # which approaches the closed-form bound from below
        n = 200
        worst = two_value_table([{"A": 0, "y": "c0"}] * n)
        attained = ls0_ig(worst, "A")
        assert attained == pytest.approx(f_add(n), abs=1e-12)
        assert attained <= global_sensitivity_ig(n)
        assert global_sensitivity_ig(n) - attained < 0.01


FIVE_BY_THREE = TableSchema(
    attributes=(("A", Categorical((0, 1, 2, 3, 4))),),
    class_attribute="y",
    class_values=("c0", "c1", "c2"),
)


def frontier_stress_table(rng):
    """Table on FIVE_BY_THREE whose count matrix mixes zero class counts,
    A values with equal totals but different splits, and repeated cells."""
    matrix = []
    for j in range(5):
        kind = rng.integers(4) if matrix else 0
        if kind == 1:                      # zero class counts
            row = [0, 0, 0]
            row[int(rng.integers(3))] = int(rng.integers(0, 40))
        elif kind == 2:                    # same total, another split
            total = sum(matrix[int(rng.integers(len(matrix)))])
            cut = sorted(rng.integers(0, total + 1, size=2))
            row = [int(cut[0]), int(cut[1] - cut[0]), int(total - cut[1])]
        elif kind == 3:                    # a repeated row: tied cells
            row = list(matrix[int(rng.integers(len(matrix)))])
        else:
            row = [int(c) for c in rng.integers(0, 40, size=3)]
        matrix.append(row)
    rows = [{"A": j, "y": c}
            for j, row in enumerate(matrix)
            for c, count in zip(FIVE_BY_THREE.class_values, row)
            for _ in range(count)]
    return LabeledTable(FIVE_BY_THREE, rows)


def levels_over_all_cells(table, attribute, t_max):
    """Running max over t = 0..t_max of the level kernel over every cell."""
    counts = table.counts(attribute)
    cells = [(sum(by_class.values()), b) for by_class in counts.values()
             for b in by_class.values()]
    return np.maximum.accumulate(
        trees._table_levels([cells], 0, t_max + 1)[0]).tolist()


class TestFrontierCells:
    """ls_t_ig scans only the Pareto frontier of its cells; every level is
    the same float as the scan over all cells."""

    def test_levels_equal_scan_over_all_cells(self, rng):
        dropped_values = 0
        for _ in range(40):
            table = frontier_stress_table(rng)
            n = len(table)
            want = levels_over_all_cells(table, "A", n + 5)
            delta = ig_sensitivity()
            assert [delta(table, t, "A")
                    for t in range(n + 6)] == want, table.counts("A")
            totals = {sum(row.values()) for row in table.counts("A").values()}
            frontier = trees._frontier(table._contingency("A"))
            dropped_values += len(frontier) < len(totals)
        assert dropped_values > 0

    def test_levels_equal_scan_across_chunk_ends(self, rng):
        # chunks end at 8, 16, 32, ... up to the table size, then one level
        # at a time; probe both sides of every end, in both orders
        for _ in range(10):
            table = frontier_stress_table(rng)
            n = len(table)
            want = levels_over_all_cells(table, "A", n + 5)
            probes = [7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 255, 256,
                      n - 1, n, n + 1, n + 5]
            probes = [t for t in probes if 0 <= t <= n + 5]
            for order in (probes, probes[::-1]):
                delta = ig_sensitivity()
                for t in order:
                    assert delta(table, t, "A") == want[t], (t, n)

    def test_frontier_keeps_only_undominated_cells(self):
        table = LabeledTable(FIVE_BY_THREE, [
            {"A": j, "y": c}
            for j, row in enumerate([[5, 0, 1], [5, 2, 2], [3, 3, 0],
                                     [0, 0, 0], [6, 6, 6]])
            for c, count in zip(FIVE_BY_THREE.class_values, row)
            for _ in range(count)
        ])
        # totals 6, 9, 6, 0 and 18: an A value keeps only its smallest
        # class count, and (0, 0) falls to (6, 0), which has a larger total
        assert sorted(trees._frontier(table._contingency("A"))) == [
            (6, 0), (9, 2), (18, 6)]


FIVE_ATTRIBUTES = (
    ("A", Categorical((0, 1, 2))),
    ("B", Categorical(("x", "z"))),
    ("C", Categorical((0, 1, 2, 3, 4))),
    ("D", Categorical(("only",))),
    ("E", Categorical((0, 1, 2, 3))),
)
FIVE_NAMES = tuple(name for name, _ in FIVE_ATTRIBUTES)
FIVE_ATTRIBUTE_SCHEMA = TableSchema(
    attributes=FIVE_ATTRIBUTES,
    class_attribute="y",
    class_values=("c0", "c1", "c2"),
)
# the same attributes with a continuous one left unbinned in the middle
WITH_CONTINUOUS_SCHEMA = TableSchema(
    attributes=FIVE_ATTRIBUTES[:2] + (("X", Continuous(0.0, 1.0, 4)),)
    + FIVE_ATTRIBUTES[2:],
    class_attribute="y",
    class_values=("c0", "c1", "c2"),
)


def five_attribute_table(rng, rows, schema=FIVE_ATTRIBUTE_SCHEMA):
    """Random table on five categorical attributes (D is constant by its
    domain) where class c2 never meets A = 2 or C = 4, so some class counts
    are zero whatever the draw."""
    out = []
    for _ in range(rows):
        row = {}
        for name, spec in schema.attributes:
            if isinstance(spec, Categorical):
                row[name] = spec.values[int(rng.integers(len(spec.values)))]
            else:
                row[name] = float(rng.uniform(spec.lo, spec.hi))
        cls = int(rng.integers(3))
        if cls == 2 and (row["A"] == 2 or row["C"] == 4):
            cls = 0
        row["y"] = schema.class_values[cls]
        out.append(row)
    return LabeledTable(schema, out)


def batched_test_tables(rng):
    """Whole tables, and subtables already split on one and on two
    attributes (constant in them), some with empty cells."""
    tables = []
    for rows in (0, 1, 9, 40, 70):
        table = five_attribute_table(rng, rows)
        tables.append(table)
        if rows >= 40:
            part = table.partition("A")[int(rng.integers(3))]
            tables.append(part)
            tables.append(part.partition("C")[int(rng.integers(5))])
    return tables


class TestBatchedLevels:
    """ig_sensitivity fills the levels of every categorical attribute of a
    table in one kernel call per chunk; each level is the float the scalar
    scans give for that attribute alone."""

    def test_every_attribute_equals_the_scalar_oracles(self, rng, monkeypatch):
        kernel = trees._table_levels
        chunks = []

        def counted(frontiers, lo, hi):
            chunks.append((lo, hi))
            return kernel(frontiers, lo, hi)

        for table in batched_test_tables(rng):
            t_max = len(table) + 3
            delta = ig_sensitivity()
            monkeypatch.setattr(trees, "_table_levels", counted)
            gots = {}
            for name in FIVE_NAMES:
                gots[name] = [delta(table, t, name) for t in range(t_max + 1)]
                if name == FIVE_NAMES[0]:
                    first_walk = len(chunks)
            # the first attribute's walk filled every other attribute too
            assert len(chunks) == first_walk
            monkeypatch.setattr(trees, "_table_levels", kernel)
            chunks.clear()
            for name, got in gots.items():
                assert got == scalar_levels(table, name, t_max), (name, len(table))
                assert got == levels_over_all_cells(table, name, t_max)

    def test_both_sides_of_chunk_ends(self, rng):
        # chunks end at 8, 16, 32, ... up to the table size, then one level
        # at a time; each probe asks another attribute than the one before
        for table in batched_test_tables(rng):
            n = len(table)
            wants = {name: scalar_levels(table, name, n + 3)
                     for name in FIVE_NAMES}
            probes = [t for t in (7, 8, 15, 16, 31, 32, 63, 64, n - 1, n, n + 1)
                      if 0 <= t <= n + 3]
            for order in (probes, probes[::-1]):
                delta = ig_sensitivity()
                for ix, t in enumerate(order):
                    name = FIVE_NAMES[ix % len(FIVE_NAMES)]
                    assert delta(table, t, name) == wants[name][t], (
                        name, t, n)

    @pytest.mark.parametrize("grid_elements", [3, 8, 21, 29])
    def test_pair_slices_ending_inside_an_attribute(self, rng, monkeypatch,
                                                    grid_elements):
        monkeypatch.setattr(trees, "_GRID_ELEMENTS", grid_elements)
        table = five_attribute_table(rng, 60)
        n = len(table)
        delta = ig_sensitivity()
        delta(table, 0, "A")
        # the first chunk, t < 8, has a pair per (cell, p <= min(b0, 7)); a
        # multiple of the slice size falls strictly inside some attribute
        ends = np.cumsum([sum(min(b0, 7) + 1 for _, b0 in
                              trees._frontier(table._contingency(name)))
                          for name in FIVE_NAMES])
        begins = np.concatenate([[0], ends[:-1]])
        assert any(b < k < e for b, e in zip(begins, ends)
                   for k in range(grid_elements, int(ends[-1]), grid_elements))
        for name in FIVE_NAMES:
            assert [delta(table, t, name) for t in range(n + 3)] == (
                scalar_levels(table, name, n + 2)), name

    def test_levels_do_not_depend_on_the_order_of_requests(self, rng):
        table = five_attribute_table(rng, 50)
        n = len(table)
        want = None
        for _ in range(6):
            names = list(rng.permutation(FIVE_NAMES))
            ts = [int(t) for t in rng.integers(0, n + 4, size=8)]
            delta = ig_sensitivity()
            asked = {(name, t): delta(table, t, name)
                     for name in names for t in ts}
            for name in FIVE_NAMES:
                delta(table, n + 3, name)
            rows, levels = delta.table(table, 0, n + 4)
            lists = {name: levels[rows[name], :n + 4].tolist()
                     for name in FIVE_NAMES}
            want = want or lists
            assert lists == want
            for (name, t), value in asked.items():
                assert value == want[name][t]

    def test_continuous_attribute_left_in_the_schema(self, rng):
        table = five_attribute_table(rng, 45, WITH_CONTINUOUS_SCHEMA)
        n = len(table)
        delta = ig_sensitivity()
        with pytest.raises(InvalidInputError, match="discretized"):
            ls_t_ig(table, 0, "X")
        for name in FIVE_NAMES:
            assert [delta(table, t, name) for t in range(n + 3)] == (
                scalar_levels(table, name, n + 2)), name
        # the level table has a row for each categorical attribute only
        with pytest.raises(InvalidInputError, match="unknown candidate 'X'"):
            delta(table, 0, "X")
        with pytest.raises(InvalidInputError, match="discretized"):
            ls_t_ig(table, 0, "X")
        with pytest.raises(InvalidInputError, match="unknown"):
            ls_t_ig(table, 0, "nope")


class TestCountsMemo:
    def test_returned_counts_cannot_change_later_results(self, rng):
        table = five_attribute_table(rng, 40)
        want = table.counts("C")
        scores = (ig_utility(table, "C"), ls0_ig(table, "C"),
                  [ls_t_ig(table, t, "C") for t in range(6)])
        got = table.counts("C")
        assert got == want and got is not want
        got[0]["c0"] += 100
        got[1].clear()
        got[9] = {"c0": 1}
        del got[2]
        assert table.counts("C") == want
        assert (ig_utility(table, "C"), ls0_ig(table, "C"),
                [ls_t_ig(table, t, "C") for t in range(6)]) == scores

    def test_counted_once_per_attribute(self, rng):
        table = five_attribute_table(rng, 30)
        first = table._contingency("A")
        ig_utility(table, "A")
        ls_t_ig(table, 3, "A")
        assert table._contingency("A") is first
        assert table.counts("A") == {
            j: {c: sum(1 for row in table.row_dicts()
                       if row["A"] == j and row["y"] == c)
                for c in table.schema.class_values}
            for j in (0, 1, 2)
        }


class TestIgSensitivityCache:
    def test_keeps_the_last_table_only(self, rng, monkeypatch):
        kernel = trees._table_levels
        fills = []

        def counted(frontiers, lo, hi):
            fills.append((lo, hi))
            return kernel(frontiers, lo, hi)

        monkeypatch.setattr(trees, "_table_levels", counted)
        delta = ig_sensitivity()
        first, second = cell_table(rng, 10), cell_table(rng, 12)
        rows, levels = delta.table(first, 0, 8)
        assert levels.shape[1] == 8 and len(fills) == 1
        assert delta.table(first, 0, 4)[1].tolist() == levels[:, :4].tolist()
        assert delta(first, 3, "A") == levels[rows["A"], 3]
        assert len(fills) == 1              # held: no second fill
        delta.table(second, 0, 8)
        assert len(fills) == 2
        _, again = delta.table(first, 0, 8)
        assert len(fills) == 3              # refilled: the table was replaced
        assert again[:, :8].tolist() == levels[:, :8].tolist()

    def test_levels_hook_equals_per_level_calls(self, rng):
        delta = ig_sensitivity()
        table = cell_table(rng, 30)
        n = len(table)
        rows, levels = delta.table(table, 0, n + 5)
        assert levels[rows["A"], :n + 5].tolist() == [
            ig_sensitivity()(table, t, "A") for t in range(n + 5)]


class TestAdmissibility:
    def test_bounded_split_score_delta_is_admissible(self):
        rng = np.random.default_rng(53)
        enum = row_edit_enumerator(TINY_TABLE_SCHEMA)
        for _ in range(15):
            table = random_table_instance(rng, max_rows=6)
            problem = ig_problem(table, ("A",))
            delta = bound_sensitivity(ig_sensitivity(),
                                      problem.global_sensitivity,
                                      problem.database_size)
            report = check_admissibility(delta, problem, enum, max_t=3)
            assert report.passed, (table.row_dicts(), report)


class TestPartition:
    def test_subtables_equal_constructed_tables(self, rng):
        for _ in range(30):
            table = cell_table(rng, max_cell=6)
            for attribute in ("A", "B"):
                parts = table.partition(attribute)
                assert list(parts) == list(
                    table.schema.spec_of(attribute).values)
                for value, part in parts.items():
                    built = LabeledTable(table.schema, part.row_dicts())
                    assert part == built
                    assert hash(part) == hash(built)
                    assert {row[attribute] for row in part.row_dicts()} <= {value}
                assert sorted(r for p in parts.values() for r in p.rows) == (
                    list(table.rows))


class TestNoisyCount:
    def test_huge_budget_recovers_count(self, rng):
        assert noisy_count(42, 1e9, rng) == pytest.approx(42, abs=1e-6)

    def test_variance_matches_laplace(self, rng):
        eps = 0.7
        draws = np.array([noisy_count(10, eps, rng) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(10, abs=0.05)
        assert draws.var() == pytest.approx(2 / eps ** 2, rel=0.05)

    def test_seeded_reproducibility(self):
        a = noisy_count(5, 1.0, np.random.default_rng(3))
        b = noisy_count(5, 1.0, np.random.default_rng(3))
        assert a == b

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.inf, math.nan])
    def test_refuses_a_budget_that_is_not_positive_and_finite(self, rng,
                                                             epsilon):
        # at inf the Laplace scale is 0 and the exact count would come out
        with pytest.raises(InvalidInputError, match="positive and finite"):
            noisy_count(5, epsilon, rng)


class TestBuilder:
    def test_depth_zero_is_a_majority_leaf(self, rng):
        table = separable_table()
        tree, acc = build_diffp_id3(
            table, TOY_TABLE_ATTRIBUTES, 0, 1e6, "global", rng
        )
        assert isinstance(tree, Leaf)
        counts = table.class_counts()
        assert tree.label == max(counts, key=counts.get)
        assert acc.total() == pytest.approx(1e6)

    def test_huge_budget_reproduces_exact_induction(self):
        table = separable_table()
        for depth in (2, 5):
            oracle = build_id3(table, TOY_TABLE_ATTRIBUTES, depth)
            for variant in ("global", "local", "shifted"):
                tree, _ = build_diffp_id3(
                    table, TOY_TABLE_ATTRIBUTES, depth, 1e6, variant,
                    np.random.default_rng(17),
                )
                assert tree == oracle, (depth, variant)

    def test_budget_ledger_structure(self, rng):
        table = separable_table()
        acc = BudgetAccountant()
        eps = 3.0
        build_diffp_id3(
            table, TOY_TABLE_ATTRIBUTES, 2, eps, "global", rng,
            accountant=acc, scope_prefix="t",
        )
        stage = eps / 6.0
        for level in range(3):
            for kind in ("count", "select"):
                assert acc.scope_total(("t", level, kind)) == pytest.approx(stage)
        assert acc.total() == pytest.approx(eps, abs=1e-12)

    def test_unreachable_levels_are_booked_as_one_entry(self):
        # a path splits on each attribute at most once, so the levels past
        # the attribute count share one ledger entry: a huge depth costs
        # neither memory nor time in proportion to it
        table = two_value_table(
            [{"A": a, "y": y} for a, y in ((0, "c0"), (1, "c1"))] * 2)
        depth = 10**6
        tracemalloc.start()
        try:
            tree, acc = build_diffp_id3(
                table, ("A",), depth, 1.0, "shifted",
                np.random.default_rng(5), scope_prefix="t",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        assert tree.depth() <= 1
        assert acc.scopes() == [
            ("t", level, kind) for level in (0, 1)
            for kind in ("count", "select")] + [("t", "unreachable")]
        stage = 1.0 / (2 * (depth + 1))
        assert acc.scope_total(("t", "unreachable")) == 2 * (depth - 1) * stage
        assert acc.total() == pytest.approx(1.0, abs=1e-12)
        # with depth at most the attribute count nothing is unreachable
        _, acc = build_diffp_id3(table, ("A",), 1, 1.0, "shifted",
                                 np.random.default_rng(5))
        assert len(acc.scopes()) == 4

    def test_no_attribute_repeats_along_paths(self, rng):
        table = separable_table()
        tree, _ = build_diffp_id3(
            table, TOY_TABLE_ATTRIBUTES, 5, 0.5, "shifted", rng
        )

        def walk(node, path):
            if isinstance(node, Leaf):
                return True
            assert node.attribute not in path
            return all(walk(c, path + (node.attribute,))
                       for _, c in node.children)

        assert walk(tree, ())
        assert tree.depth() <= 5

    def test_rejects_bad_inputs(self, rng):
        table = separable_table()
        with pytest.raises(InvalidInputError):
            build_diffp_id3(table, TOY_TABLE_ATTRIBUTES, 2, 0.0, "global", rng)
        with pytest.raises(InvalidInputError):
            build_diffp_id3(table, TOY_TABLE_ATTRIBUTES, 2, 1.0, "nope", rng)

    @pytest.mark.parametrize("epsilon, depth, got", [
        (math.inf, 2, "inf"), (math.nan, 2, "nan"), (-1.0, 0, "-0.5"),
        (1e-323, 3, "0.0"), (1.0, 10**400, "0.0"),
    ])
    def test_refuses_a_budget_before_booking_any(self, epsilon, depth, got):
        # the stage share is checked before the ledger holds a scope, so
        # no refused run leaves a partial ledger
        acc = BudgetAccountant()
        with pytest.raises(InvalidInputError, match=(
                r"^per-stage budget epsilon / \(2 \(depth \+ 1\)\) must be "
                f"positive and finite, got {got}$")):
            build_diffp_id3(separable_table(), TOY_TABLE_ATTRIBUTES, depth,
                            epsilon, "local", np.random.default_rng(0), acc)
        assert acc.scopes() == []


def ledger(accountant):
    """Every scope of an accountant with its mode and entries, in order."""
    return [(scope, accountant._scopes[scope].mode,
             accountant._scopes[scope].entries)
            for scope in accountant.scopes()]


class TestLevelByLevel:
    """The builder grows every tree level by level and scores the
    splitting nodes of a level in one array pass; the trees, ledgers,
    generators and accuracies are those of the recursive build
    (``oracles.diffp_id3_oracle``), draw for draw."""

    def test_builder_equals_the_recursive_oracle(self):
        rng = np.random.default_rng(2024)
        one_row_nodes = deep = 0
        for trial in range(30):
            table = random_induction_table(
                rng, max_rows=int(rng.choice([1, 3, 12, 60])))
            attrs = table.schema.attribute_names()
            # depth 0, within the attribute count, and past it
            depth = int(rng.choice([0, 1, 2, len(attrs) + 2]))
            eps = float(rng.choice([0.3, 2.0, 50.0]))
            for variant in VARIANTS:
                seed = int(rng.integers(2**32))
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                got, got_ledger = build_diffp_id3(
                    table, attrs, depth, eps, variant, a, scope_prefix=trial)
                want, want_ledger = diffp_id3_oracle(
                    table, attrs, depth, eps, variant, b, scope_prefix=trial)
                assert got == want, (trial, variant)
                assert ledger(got_ledger) == ledger(want_ledger)
                assert a.bit_generator.state == b.bit_generator.state
                deep += variant != "global" and got.depth() >= 2
            one_row_nodes += any(len(part) == 1 for attr in attrs
                                 for part in table.partition(attr).values())
        assert one_row_nodes >= 5 and deep >= 5

    def test_folds_grown_together_equal_each_fold_alone(self):
        # one level-synchronous growth over every fold: each fold's tree,
        # ledger and generator end as the recursive build's on its own
        rng = np.random.default_rng(7)
        for trial in range(12):
            table = cv_table(random_induction_table(rng, max_rows=80)
                             if trial else separable_table())
            attrs = table.schema.attribute_names()
            depth = int(rng.integers(0, len(attrs) + 2))
            eps = float(rng.choice([0.5, 5.0, 1e4]))
            for variant in VARIANTS:
                split = cv_folds(table, int(rng.integers(100)),
                                 int(rng.choice([2, 5])))
                copies = [copy.deepcopy(fold_rng) for _, _, fold_rng in split]
                eps_stage = stage_budget(eps, depth)
                jobs = []
                for train, _, fold_rng in split:
                    acc = BudgetAccountant()
                    trees._reserve(acc, "diffp_id3", depth, attrs,
                                   eps_stage)
                    jobs.append((train, fold_rng, acc))
                grown = trees._grow(jobs, attrs, depth, eps_stage, variant,
                                    "diffp_id3")
                for (train, fold_rng, acc), tree, alone in zip(
                        jobs, grown, copies):
                    want, want_ledger = diffp_id3_oracle(
                        train, attrs, depth, eps, variant, alone)
                    assert tree == want, (trial, variant)
                    assert ledger(acc) == ledger(want_ledger)
                    assert (fold_rng.bit_generator.state
                            == alone.bit_generator.state)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_cross_validate_equals_the_oracle(self, variant):
        rng = np.random.default_rng(11)
        for trial in range(6):
            table = random_induction_table(rng, max_rows=90)
            if len(table) < 2:
                continue
            depth = int(rng.integers(0, 5))
            for seed, folds, eps in ((trial, 2, 1.0), (trial + 50, 5, 8.0)):
                assert cross_validate(table, depth, eps, variant, seed,
                                      folds) == cross_validate_oracle(
                    table, depth, eps, variant, seed, folds)

    @pytest.mark.parametrize("tag", ["ld", "sld"])
    def test_node_scores_equal_each_nodes_own(self, tag):
        # the splitting nodes of two levels of random tables, of sizes from
        # one row up, scored in one joint pass over _split_levels: every
        # score and kept tail is that of the node's own Prepared
        rng = np.random.default_rng(3)

        def prepare(problem):
            return mechanisms.Prepared(tag, problem, bound_sensitivity(
                ig_sensitivity(), problem.global_sensitivity,
                problem.database_size))

        sizes = set()
        for trial in range(10):
            table = random_induction_table(rng, max_rows=150)
            attrs = table.schema.attribute_names()
            nodes = [(table, attrs)]
            for attr in attrs[:2]:
                nodes += [(part, tuple(a for a in rest if a != attr))
                          for node, rest in nodes if attr in rest
                          for part in node.partition(attr).values()]
            problems = [ig_problem(node, rest) for node, rest in nodes if rest]
            sizes.update(p.database_size for p in problems)
            joint = [prepare(p) for p in problems]
            mechanisms.score_together(joint, trees._split_levels(problems))
            for together, problem in zip(joint, problems):
                alone = prepare(problem)
                assert (together.distribution(2.0).scores.tolist()
                        == alone.distribution(2.0).scores.tolist())
                assert together._tails == alone._tails
        assert min(sizes) == 1 and max(sizes) > 64

    def test_split_levels_equal_each_nodes_bounded_table(self):
        # the joint table serves each (node, attribute) the levels of that
        # node's own bounded table, GS pinned past its size included, and
        # counts only the candidate attributes
        table = separable_table()
        parts = [part for a_part in table.partition("A").values()
                 for part in a_part.partition("B").values()]
        parts += [LabeledTable._from_canonical(table.schema, table.rows[:k])
                  for k in (1, 3, 6)]
        problems = [ig_problem(part, ("C", "D")) for part in parts]
        read = trees._split_levels(problems)
        wanted = [(b, a) for b in range(len(parts)) for a in ("C", "D")]
        chunks = [(lo, hi, *read(lo, hi, wanted))
                  for lo, hi in ((0, 8), (8, 16), (16, 64))]
        assert all(set(part._cell_counts) == {"C", "D"} for part in parts)
        for lo, hi, rows, block in chunks:
            for (b, a), row in zip(wanted, rows):
                own = bound_sensitivity(
                    ig_sensitivity(), problems[b].global_sensitivity,
                    problems[b].database_size)
                own_rows, own_block = own.table(parts[b], lo, hi)
                assert block[row].tolist() == own_block[own_rows[a]].tolist()


class TestDiscretize:
    def test_midpoint_goes_to_lower_bin(self):
        assert [bin_index(v, 0.0, 1.0, 2) for v in (0.0, 0.5, 1.0)] == [0, 0, 1]

    def test_all_equal_values_share_a_bin(self):
        assert bin_index(0.3, 0.3, 0.3, 4) == 0

    def test_uniform_grid_splits_evenly(self):
        values = [j / 7 for j in range(8)]
        bins = [bin_index(v, 0.0, 1.0, 4) for v in values]
        assert [bins.count(b) for b in range(4)] == [2, 2, 2, 2]

    def test_table_rewrite(self):
        schema = TableSchema(
            attributes=(("x", Continuous(0.0, 1.0, 2)), ("A", Categorical((0, 1)))),
            class_attribute="y", class_values=("c0", "c1"),
        )
        table = LabeledTable(schema, [
            {"x": 0.0, "A": 0, "y": "c0"},
            {"x": 0.5, "A": 1, "y": "c1"},
            {"x": 1.0, "A": 0, "y": "c1"},
        ])
        binned = discretize(table, "x")
        assert binned.schema.spec_of("x") == Categorical((0, 1))
        assert sorted(row["x"] for row in binned.row_dicts()) == [0, 0, 1]

    def test_binned_table_equals_the_validating_build(self):
        # discretize builds the binned rows canonical and sorted; the table
        # is the one the validating constructor builds from the same rows
        rng = np.random.default_rng(77)
        for trial in range(40):
            bins = [int(b) for b in rng.integers(2, 6, size=3)]
            attrs = (("x", Continuous(-1.0, 3.0, bins[0])),
                     ("A", Categorical(("p", "q", "r"))),
                     ("z", Continuous(0.0, float(rng.choice([0.0, 1e-3, 50.0])),
                                      bins[1])))
            schema = TableSchema(attributes=attrs, class_attribute="y",
                                 class_values=("c1", "c0", "c2"))
            hi_z = schema.spec_of("z").hi
            rows = [{"x": float(rng.choice([-1.0, 3.0, rng.uniform(-1, 3)])),
                     "A": str(rng.choice(["p", "q", "r"])),
                     "z": float(rng.uniform(0, hi_z)),
                     "y": str(rng.choice(["c0", "c1", "c2"]))}
                    for _ in range(int(rng.integers(0, 30)))]
            table = LabeledTable(schema, rows)
            for attr in ("x", "z"):
                binned = discretize(table, attr)
                spec = table.schema.spec_of(attr)
                rebinned = [{**row, attr: bin_index(row[attr], spec.lo,
                                                    spec.hi, spec.bins)}
                            for row in table.row_dicts()]
                want = LabeledTable(binned.schema, rebinned)
                assert binned == want and binned.rows == want.rows
                assert hash(binned) == hash(want)
            both = discretize_all(table)
            assert both == LabeledTable(both.schema, [
                {**row, "x": bin_index(row["x"], -1.0, 3.0, bins[0]),
                 "z": bin_index(row["z"], 0.0, hi_z, bins[1])}
                for row in table.row_dicts()])


def leaf_votes(node):
    if isinstance(node, Leaf):
        return {node.label: 1}
    votes = {}
    for _, child in node.children:
        for label, count in leaf_votes(child).items():
            votes[label] = votes.get(label, 0) + count
    return votes


def assert_majorities_over_leaves(node, class_values):
    """Every internal node falls back on the most frequent leaf label below
    it, the first declared class on ties."""
    if isinstance(node, Internal):
        votes = leaf_votes(node)
        assert node.majority == max(class_values,
                                    key=lambda c: votes.get(c, 0))
        for _, child in node.children:
            assert_majorities_over_leaves(child, class_values)


class TestLeafVotes:
    def test_private_trees_fall_back_on_the_leaf_majority(self):
        table = five_attribute_table(np.random.default_rng(8), 120)
        internal = 0
        for seed in range(6):
            for variant in VARIANTS:
                tree, _ = build_diffp_id3(
                    table, FIVE_NAMES, 3, 4.0, variant,
                    np.random.default_rng(seed),
                )
                assert_majorities_over_leaves(tree, table.schema.class_values)
                internal += isinstance(tree, Internal)
        assert internal > 0

    def test_exact_trees_fall_back_on_the_leaf_majority(self, rng):
        for _ in range(5):
            table = five_attribute_table(rng, 150)
            tree = build_id3(table, FIVE_NAMES, 4)
            assert isinstance(tree, Internal)
            assert_majorities_over_leaves(tree, table.schema.class_values)


class TestClassification:
    def test_cross_validation_perfect_at_huge_budget(self):
        table = separable_table()
        score = cross_validate(table, depth=4, epsilon=1e6, variant="global",
                               seed=5, folds=10)
        assert score == 1.0

    def test_constant_class_matches_prior(self, rng):
        rows = [{"A": int(rng.integers(2)), "y": "c0"} for _ in range(60)]
        table = two_value_table(rows)
        score = cross_validate(table, depth=1, epsilon=50.0, variant="global",
                               seed=1, folds=5)
        assert score == 1.0   # the prior class is everything there is

    def test_seeded_reproducibility(self):
        table = separable_table()
        a = cross_validate(table, 2, 1.0, "local", seed=9)
        b = cross_validate(table, 2, 1.0, "local", seed=9)
        assert a == b

    def test_fold_tables_are_not_revalidated(self, monkeypatch):
        # fold tables are subsequences of the sorted rows, as in partition;
        # a table with no continuous attribute builds none through __init__
        built = []
        init = LabeledTable.__init__

        def counted(self, schema, rows):
            built.append(schema)
            init(self, schema, rows)

        table = separable_table()
        want = cross_validate(table, 2, 1.0, "local", seed=4, folds=3)
        monkeypatch.setattr(LabeledTable, "__init__", counted)
        assert cross_validate(table, 2, 1.0, "local", seed=4, folds=3) == want
        assert built == []

    @pytest.mark.parametrize("rows", [0, 1])
    def test_fewer_than_two_rows_rejected(self, rows):
        table = two_value_table([{"A": 0, "y": "c0"}] * rows)
        with pytest.raises(InvalidInputError, match="at least 2 rows"):
            cross_validate(table, 1, 1.0, "global", seed=0, folds=2)

    def test_unseen_branch_falls_back_to_majority(self):
        tree = Internal(
            attribute="A",
            children=((0, Leaf("c0")), (1, Leaf("c1"))),
            majority="c1",
        )
        assert classify(tree, {"A": 0}) == "c0"
        assert classify(tree, {"A": "unexpected"}) == "c1"

    def test_accuracy_on_training_table(self):
        table = separable_table()
        tree = build_id3(table, TOY_TABLE_ATTRIBUTES, 4)
        assert accuracy(tree, table) == 1.0


class TestSchemaLoading:
    def test_sidecar_round_trip(self, tmp_path):
        doc = {
            "A": {"categorical": ["x", "y"]},
            "z": {"continuous": {"min": 0, "max": 2, "bins": 4}},
            "class": "label",
            "classes": ["n", "p"],
        }
        schema = schema_from_json(doc)
        assert schema.class_attribute == "label"
        assert schema.spec_of("A") == Categorical(("x", "y"))
        assert schema.spec_of("z") == Continuous(0.0, 2.0, 4)

    def test_missing_class_key(self):
        with pytest.raises(InvalidInputError):
            schema_from_json({"A": {"categorical": [1]}})

    def test_out_of_domain_value_is_named(self):
        schema = TableSchema(
            attributes=(("A", Categorical(("x",))),),
            class_attribute="y", class_values=("c0",),
        )
        with pytest.raises(InvalidInputError, match="'weird'"):
            LabeledTable(schema, [{"A": "weird", "y": "c0"}])


class TestBoundedSensitivityTail:
    def test_bounded_split_score_saturates_at_global(self, rng):
        from dampen.sensitivity import bound_sensitivity
        from dampen.trees import ig_sensitivity, global_sensitivity_ig

        table = separable_table()
        gs = global_sensitivity_ig(len(table))
        bounded = bound_sensitivity(ig_sensitivity(), gs, len(table))
        for attr in TOY_TABLE_ATTRIBUTES:
            assert bounded(table, len(table), attr) == gs
            assert bounded(table, len(table) + 7, attr) == gs
            assert bounded(table, 0, attr) <= gs
