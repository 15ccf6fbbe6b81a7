import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampen.core import (
    ContractViolationError,
    InvalidInputError,
    PreconditionError,
    SearchBudgetError,
    SelectionProblem,
    SensitivityFunction,
    constant_sensitivity,
)
from dampen.fixtures import (
    random_graph_instance,
    random_induction_table,
    random_vector_instance,
)
from dampen.graphs import EdgeGraph, delta_ebc, ebc_problem, flat_delta_ebc
from dampen.mechanisms import distribution, expected_error, select_exponential
from dampen.oracles import (
    BruteForceExplorer,
    accuracy_order_check,
    brute_element_ls,
    brute_sensitivity,
    check_admissibility,
    check_boundedness,
    check_dominance,
    check_monotonicity,
    edge_flip_enumerator,
    utility_order,
    vector_enumerator,
)
from dampen.percentile import (
    NumericVector,
    PercentileQuery,
    bounded_ls_percentile,
    percentile_problem,
    percentile_sensitivity,
)
from dampen.sensitivity import (
    bound_sensitivity,
    flatten_sensitivity,
    table_sensitivity,
)
from dampen.trees import LabeledTable, ig_problem, ig_sensitivity

from conftest import make_abstract_problem


class TestBruteElementLs:
    def test_constant_utility_has_zero_sensitivity(self, bridge_graph):
        problem = SelectionProblem(
            database=bridge_graph,
            candidates=bridge_graph.nodes,
            utility=lambda g, v: 1.0,
            global_sensitivity=1.0,
            database_size=bridge_graph.node_pairs(),
        )
        enum = edge_flip_enumerator()
        for t in (0, 1, 2):
            assert brute_element_ls(problem, enum, t, "a") == 0.0

    def test_bridge_graph_values(self, bridge_problem, bridge_explorer):
        assert bridge_explorer.element_ls(0, "v4") == 2.0
        flat0 = max(bridge_explorer.element_ls(0, v)
                    for v in bridge_problem.candidates)
        flat1 = max(bridge_explorer.element_ls(1, v)
                    for v in bridge_problem.candidates)
        assert (flat0, flat1) == (3.0, 5.0)

    def test_equal_neighbours_are_scored_once(self, bridge_problem):
        # flipping (a, b) then (c, d) reaches the graph that flipping (c, d)
        # then (a, b) does; the explorer scores it once per candidate
        enum = edge_flip_enumerator()
        scored = []

        def utility(g, v):
            scored.append((enum.key(g), v))
            return bridge_problem.utility(g, v)

        explorer = BruteForceExplorer(
            dataclasses.replace(bridge_problem, utility=utility), enum
        )
        for v in bridge_problem.candidates:
            explorer.element_ls(1, v)
        pairs = bridge_problem.database.node_pairs()
        ball2 = 1 + pairs + pairs * (pairs - 1) // 2
        assert len(scored) == len(set(scored))
        assert len(scored) == ball2 * len(bridge_problem.candidates)

    def test_budget_refusal_is_loud(self, bridge_problem):
        with pytest.raises(SearchBudgetError):
            brute_element_ls(
                bridge_problem, edge_flip_enumerator(), 3, "a", node_budget=50
            )


class TestBoundSensitivity:
    def test_oversized_delta_clamps_to_constant(self):
        problem = make_abstract_problem([1.0, 2.0], gs=3.0)
        big = SensitivityFunction(
            eval=lambda db, t, r: 6.0, declared_admissible=True,
            monotonicity="flat",
        )
        bounded = bound_sensitivity(big, 3.0, problem.database_size)
        for t in range(5):
            assert bounded(problem.database, t, 0) == 3.0
        assert bounded.declared_bounded and bounded.monotonicity == "flat"

    def test_small_values_pass_through(self, bridge_problem, rng):
        raw = brute_sensitivity(
            bridge_problem, edge_flip_enumerator(), node_budget=500_000
        )
        bounded = bound_sensitivity(
            raw, bridge_problem.global_sensitivity, bridge_problem.database_size
        )
        g = bridge_problem.database
        for t in (0, 1, 2):
            for v in ("a", "v0", "v4"):
                assert bounded(g, t, v) == raw(g, t, v)  # already below 7.5

    def test_constant_is_a_fixed_point(self):
        problem = make_abstract_problem([1.0], gs=2.0)
        const = constant_sensitivity(2.0)
        bounded = bound_sensitivity(const, 2.0, problem.database_size)
        for t in range(4):
            assert bounded(problem.database, t, 0) == 2.0

    def test_tail_pinned_to_global_when_size_known(self):
        problem = make_abstract_problem([1.0, 2.0], gs=3.0, n=4)
        slow = SensitivityFunction(
            eval=lambda db, t, r: 0.1 * t, declared_admissible=True
        )
        bounded = bound_sensitivity(slow, 3.0, database_size=4)
        assert bounded(problem.database, 3, 0) == pytest.approx(0.3)
        assert bounded(problem.database, 4, 0) == 3.0
        assert check_boundedness(bounded, problem)

    def test_requires_admissible_input(self):
        raw = SensitivityFunction(eval=lambda db, t, r: 1.0)
        with pytest.raises(PreconditionError):
            bound_sensitivity(raw, 1.0, 4)


def toy_raw(db, rows, lo, hi):
    """Raw levels that go up and down along t, different per row."""
    t = np.arange(lo, hi)
    return np.array([(7 * t + 3 * row + len(db)) % 5 * 0.5 for row in rows])


def toy_table(raw=toy_raw, fills=None):
    """A ``table`` hook of rows a, b, c computing ``raw`` at every read;
    each ``(lo, hi)`` read is appended to ``fills`` when given."""
    rows = {"a": 0, "b": 1, "c": 2}

    def table(db, lo, hi):
        if fills is not None:
            fills.append((lo, hi))
        return rows, raw(db, rows.values(), lo, hi)

    return table


def toy_rising(db, rows, lo, hi):
    """The running maximum of :func:`toy_raw` from t = 0, computed afresh
    for each read: nondecreasing levels."""
    return np.maximum.accumulate(toy_raw(db, rows, 0, hi), axis=1)[:, lo:]


class TestLevelTable:
    """A sensitivity function read from a table of levels: ``eval`` reads
    the one column ``[t, t + 1)``, and nothing is kept between reads."""

    def make(self, fills=None):
        return table_sensitivity(toy_table(toy_rising, fills), "toy")

    def test_refusals(self):
        delta = self.make()
        db = tuple(range(5))
        with pytest.raises(InvalidInputError, match="t must be >= 0"):
            delta(db, -1, "a")
        with pytest.raises(InvalidInputError, match="unknown candidate 'z'"):
            delta(db, 0, "z")
        # the table has no row for it, so the array pass leaves it to eval
        assert "z" not in delta.table(db, 0, 4)[0]
        problem = SelectionProblem(db, ("a", "z"), lambda x, r: 1.0, 1.0, 5)
        bounded = bound_sensitivity(delta, 1.0, 5)
        for mechanism in ("ld", "sld"):
            with pytest.raises(InvalidInputError,
                               match="toy: unknown candidate 'z'"):
                distribution(mechanism, problem, 1.0, bounded)

    def test_levels_hook_equals_eval(self):
        # every prefix the table serves, and the range from its middle;
        # eval reads one column
        db, fills = tuple(range(20)), []
        delta = self.make(fills)
        for upto in (0, 1, 7, 8, 9, 20, 33):
            for lo in (0, upto // 2, upto):
                rows, levels = delta.table(db, lo, upto)
                assert levels.dtype == np.float64
                assert levels.shape[1] == upto - lo
                for r, row in rows.items():
                    fills.clear()
                    assert levels[row].tolist() == [
                        delta(db, t, r) for t in range(lo, upto)]
                    assert fills == [(t, t + 1) for t in range(lo, upto)]

    def test_declarations(self):
        delta = self.make()
        assert delta.declared_admissible and delta.declared_nondecreasing_in_t
        assert not delta.declared_bounded and delta.name == "toy"


@st.composite
def capped_vectors(draw):
    """1 to 40 records with ties, values at both caps and anywhere between."""
    cap = draw(st.sampled_from([1.0, 10.0, 100.0]))
    shared = draw(st.lists(st.floats(0.0, cap), min_size=1, max_size=3))
    value = st.one_of(st.just(0.0), st.just(cap), st.sampled_from(shared),
                      st.floats(0.0, cap))
    return NumericVector(draw(st.lists(value, min_size=1, max_size=40)), cap)


def assert_splits_and_rises(delta, db, end, cuts):
    """``delta.table(db, 0, end)`` equals the columns of the reads between
    the ``cuts``, side by side, and is nondecreasing along t."""
    rows, whole = delta.table(db, 0, end)
    assert whole.shape == (len(rows), end)
    edges = [0, *sorted(set(cuts)), end]
    parts = [delta.table(db, lo, hi) for lo, hi in zip(edges, edges[1:])]
    assert all(part_rows == rows for part_rows, _ in parts)
    assert np.hstack([block for _, block in parts]).tolist() == whole.tolist()
    assert np.all(np.diff(whole, axis=1) >= 0), whole


class TestRawKernels:
    """The tables of the built-in percentile and split-score functions as
    their kernels compute them, with no running maximum: any split of
    ``[0, T)`` gives the same levels, and they never dip along t (from t = 0
    to 1, at ``t_cap`` and past the database size)."""

    @settings(max_examples=150, deadline=None)
    @given(x=capped_vectors(), p=st.integers(1, 100), data=st.data())
    def test_percentile(self, x, p, data):
        q = PercentileQuery(p, len(x))
        end = len(x) + 3        # past t_cap = min(k + 1, n - k + 2) and n
        cuts = data.draw(st.lists(st.integers(1, end - 1), max_size=4))
        assert_splits_and_rises(percentile_sensitivity(x, q), x, end, cuts)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_tree(self, seed, data):
        table = random_induction_table(np.random.default_rng(seed), max_rows=40)
        first = table.schema.attribute_names()[0]
        for tbl in (table, *table.partition(first).values()):
            end = len(tbl) + 3
            cuts = data.draw(st.lists(st.integers(1, end - 1), max_size=4))
            assert_splits_and_rises(ig_sensitivity(), tbl, end, cuts)


class TestNothingKept:
    """No sensitivity function keeps a database alive once a read of it
    returns."""

    @staticmethod
    def assert_released(make_db, make_deltas, candidate):
        db = make_db()
        gone = weakref.ref(db)
        for delta in make_deltas(db):
            delta.table(db, 0, 8)
            delta(db, 3, candidate)
        del db
        gc.collect()
        assert gone() is None

    def test_percentile(self, rng):
        class Vector(NumericVector):
            __slots__ = ("__weakref__",)

        values = random_vector_instance(rng, n=12, cap=10.0).values()

        def deltas(x):
            q = PercentileQuery(50, len(x))
            bounded = bounded_ls_percentile(x, q)
            return (percentile_sensitivity(x, q), bounded,
                    flatten_sensitivity(bounded, percentile_problem(x, q)))

        self.assert_released(lambda: Vector(values, 10.0), deltas, 1)

    def test_tree(self, rng):
        class Table(LabeledTable):
            __slots__ = ("__weakref__",)

        table = random_induction_table(rng, max_rows=30)
        first = table.schema.attribute_names()[0]

        def deltas(tbl):
            problem = ig_problem(tbl, (first,))
            return (ig_sensitivity(), bound_sensitivity(
                ig_sensitivity(), problem.global_sensitivity,
                problem.database_size))

        self.assert_released(lambda: Table(table.schema, table.row_dicts()),
                             deltas, first)

    def test_graph(self, rng):
        class Graph(EdgeGraph):
            __slots__ = ("__weakref__",)

        g = random_graph_instance(rng, n=6)
        self.assert_released(lambda: Graph(g.nodes, g.edges()),
                             lambda _: (delta_ebc(), flat_delta_ebc()),
                             g.nodes[0])


def bad_raw(db, rows, lo, hi):
    """Levels over 0..4.5 with a NaN, an infinity and a negative level at
    fixed t, for the clip's pass-through."""
    out = toy_raw(db, rows, lo, hi)
    for t, bad in ((3, math.nan), (9, math.inf), (12, -math.inf), (17, -1.0)):
        if lo <= t < hi:
            out[0, t - lo] = bad
    return out


class TestBoundTable:
    """``bound_sensitivity`` clips the columns of a table read on every
    read; its table equals the clip of every range of the inner
    levels, ``min(level, GS)`` for finite levels and GS from n on."""

    def make(self, raw=toy_raw):
        return table_sensitivity(toy_table(raw), "toy")

    @pytest.mark.parametrize("raw", [toy_raw, bad_raw])
    @pytest.mark.parametrize("n", [1, 5, 8, 9, 20])
    def test_both_hooks_equal_the_per_prefix_clip(self, raw, n):
        db = tuple(range(20))
        delta = self.make(raw)
        bounded = bound_sensitivity(delta, 1.5, n)
        per_step = bound_sensitivity(
            dataclasses.replace(self.make(raw), table=None), 1.5, n)
        assert per_step.table is None and bounded.table is not None
        inner = self.make(raw)
        # every prefix, then the chunks between the same ends
        ends = (0, 3, 8, 13, 25, 40)
        for lo, hi in [(0, e) for e in ends] + list(zip(ends, ends[1:])):
            rows, clipped = bounded.table(db, lo, hi)
            assert clipped.shape[1] == hi - lo
            _, levels = inner.table(db, lo, hi)
            for r in "abc":
                want = [1.5 if t >= n
                        else min(v, 1.5) if v < math.inf else v
                        for t, v in enumerate(levels[rows[r]].tolist(), lo)]
                assert repr(clipped[rows[r]].tolist()) == repr(want)
                for t, v in enumerate(want, lo):
                    if math.isfinite(v) and v >= 0:
                        assert per_step(db, t, r) == v
                    else:
                        with pytest.raises(ContractViolationError):
                            per_step(db, t, r)

    def test_unknown_candidate(self):
        bounded = bound_sensitivity(self.make(), 1.5, 20)
        with pytest.raises(InvalidInputError, match="toy: unknown candidate"):
            bounded(tuple(range(20)), 0, "z")
        assert "z" not in bounded.table(tuple(range(20)), 0, 4)[0]


class TestFlattenSensitivity:
    def test_flat_input_unchanged(self):
        problem = make_abstract_problem([1.0, 2.0, 3.0], gs=1.0)
        const = constant_sensitivity(1.0)
        flat = flatten_sensitivity(const, problem)
        assert flat(problem.database, 2, 0) == 1.0
        assert flat.monotonicity == "flat"

    def test_bridge_graph_flattens_to_three(self, bridge_problem):
        raw = brute_sensitivity(
            bridge_problem, edge_flip_enumerator(), node_budget=500_000
        )
        flat = flatten_sensitivity(raw, bridge_problem)
        g = bridge_problem.database
        assert flat(g, 0, "a") == 3.0
        assert flat(g, 0, "v5") == 3.0

    def test_rank_function_flattens_to_max(self):
        problem = make_abstract_problem([5.0, 6.0, 7.0], gs=3.0)
        ranked = SensitivityFunction(
            eval=lambda db, t, r: float(r + 1), declared_admissible=True
        )
        flat = flatten_sensitivity(ranked, problem)
        for r in problem.candidates:
            assert flat(problem.database, 0, r) == 3.0

    def test_table_is_the_eval_hull(self, rng):
        # percentile level tables, unbounded and bounded: one row, the
        # per-step hull of every candidate
        for n in (1, 3, 9, 17, 40):
            x = random_vector_instance(rng, n=n, cap=10.0, levels=4)
            q = PercentileQuery(int(rng.choice([10, 50, 90])), n)
            problem = percentile_problem(x, q)
            for inner in (percentile_sensitivity(x, q),
                          bounded_ls_percentile(x, q)):
                flat = flatten_sensitivity(inner, problem)
                per_step = flatten_sensitivity(
                    dataclasses.replace(inner, table=None), problem)
                for lo, hi in ((0, 1), (0, 8), (3, n + 3), (0, n + 3)):
                    rows, hull = flat.table(x, lo, hi)
                    assert hull.shape == (1, hi - lo)
                    for r in problem.candidates:
                        assert hull[rows[r]].tolist() == [
                            per_step(x, t, r) for t in range(lo, hi)]

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf, "unknown"])
    def test_refused_inner_level_refuses_the_hull(self, bad):
        # the hull is NaN where eval raises; the array pass leaves the
        # score to the walk, which raises the inner message, and scores
        # that stop before it are the walk's floats
        levels = np.array([[0.5, 1.0, 1.0, 2.0], [0.25, 1.5, 1.5, 2.0]])
        rows = {0: 0, 1: 1}
        if bad == "unknown":
            rows = {0: 0}
        else:
            levels[1, 2] = bad

        def eval_fn(db, t, r):
            if r not in rows:
                raise InvalidInputError(f"unknown candidate {r!r}")
            return float(levels[rows[r], t]) if t < 4 else 2.0

        inner = SensitivityFunction(
            eval=eval_fn, declared_admissible=True, declared_bounded=True,
            declared_nondecreasing_in_t=True, name="inner",
            table=lambda db, lo, hi: (rows, levels[:, lo:hi]))
        for u, stops in ((1.0, True), (9.0, False)):
            problem = make_abstract_problem([u, 0.5 * u], gs=2.0, n=4)
            flat = flatten_sensitivity(inner, problem)
            hull = flat.table(problem.database, 0, 4)[1].tolist()[0]
            if bad == "unknown":
                assert all(map(math.isnan, hull))
            else:
                assert hull[:2] + hull[3:] == [0.5, 1.5, 2.0]
                assert math.isnan(hull[2])
            per_step = flatten_sensitivity(
                dataclasses.replace(inner, table=None), problem)
            for mechanism in ("ld", "sld"):
                outcomes = []
                for delta in (flat, per_step):
                    try:
                        outcomes.append(distribution(
                            mechanism, problem, 2.0, delta).scores.tolist())
                    except (ContractViolationError, InvalidInputError) as exc:
                        outcomes.append((type(exc), str(exc)))
                assert outcomes[0] == outcomes[1]
                raised = isinstance(outcomes[0], tuple)
                assert raised == (bad == "unknown" or mechanism == "sld"
                                  or not stops)

    def test_hull_computed_once_per_level_of_the_last_database(self):
        problem = make_abstract_problem([5.0, 6.0, 7.0], gs=3.0)
        other = (1.0, 2.0, 3.0)
        inner = SensitivityFunction(
            eval=lambda db, t, r: db[r] + t, declared_admissible=True
        )
        flat = flatten_sensitivity(inner, problem)
        for _ in range(2):
            for r in problem.candidates:
                assert [flat(problem.database, t, r) for t in range(3)] == [
                    7.0, 8.0, 9.0]
        assert flat(other, 1, 0) == 4.0
        assert flat(problem.database, 1, 0) == 8.0

    def test_flatten_equals_pointwise_max_of_brute(self, rng):
        for _ in range(5):
            g = random_graph_instance(rng, n=5)
            problem = ebc_problem(g)
            raw = brute_sensitivity(problem, edge_flip_enumerator())
            flat = flatten_sensitivity(raw, problem)
            explorer = BruteForceExplorer(problem, edge_flip_enumerator())
            for t in (0, 1, 2):
                want = max(explorer.element_ls(t, v) for v in g.nodes)
                assert flat(g, t, g.nodes[0]) == pytest.approx(want)


class TestCheckAdmissibility:
    def test_constant_global_passes(self, bridge_problem):
        const = constant_sensitivity(bridge_problem.global_sensitivity)
        report = check_admissibility(
            const, bridge_problem, edge_flip_enumerator(), max_t=2
        )
        assert report.passed

    def test_zero_function_fails_with_witness(self, bridge_problem):
        zero = SensitivityFunction(
            eval=lambda g, t, v: 0.0, declared_admissible=True, name="zero"
        )
        report = check_admissibility(
            zero, bridge_problem, edge_flip_enumerator(), max_t=1
        )
        assert not report.passed
        assert report.witness is not None and report.witness[1] == 0

    def test_degree_based_delta_passes_on_random_graphs(self, rng):
        for _ in range(12):
            g = random_graph_instance(rng, n=6)
            problem = ebc_problem(g)
            report = check_admissibility(
                delta_ebc(), problem, edge_flip_enumerator(), max_t=2
            )
            assert report.passed, (g.edges(), report)


class TestCheckMonotonicity:
    def test_flat_reports_zero_correlation(self):
        problem = make_abstract_problem([1.0, 2.0, 3.0], gs=1.0)
        report = check_monotonicity(
            constant_sensitivity(1.0), problem, ts=(0, 1)
        )
        assert report.classification == "flat"
        assert report.rank_correlation == 0.0

    def test_identity_coupling_is_non_decreasing(self):
        problem = make_abstract_problem([1.0, 2.0, 3.0], gs=1.0)
        coupled = SensitivityFunction(
            eval=lambda db, t, r: db[r], declared_admissible=True
        )
        report = check_monotonicity(coupled, problem, ts=(0,))
        assert report.classification == "non_decreasing"
        assert report.rank_correlation == pytest.approx(1.0)

    def test_degree_delta_reports_diagnostic(self, rng):
        g = random_graph_instance(rng, n=7, edge_prob=0.45)
        problem = ebc_problem(g)
        report = check_monotonicity(delta_ebc(), problem, ts=(0, 1))
        assert report.classification in (
            "flat", "non_decreasing", "non_increasing", "none"
        )
        assert -1.0 <= report.rank_correlation <= 1.0


class TestCheckDominance:
    def test_self_dominance(self, bridge_problem):
        const = constant_sensitivity(7.5)
        report = check_dominance(const, const, bridge_problem, ts=(0, 1, 2))
        assert report.dominates
        assert all(g == 0.0 for row in report.gaps.values() for g in row)

    def test_flat_ls_dominates_constant_on_bridge_graph(
        self, bridge_problem, bridge_explorer
    ):
        flat_vals = {
            t: max(bridge_explorer.element_ls(t, v)
                   for v in bridge_problem.candidates)
            for t in (0, 1, 2)
        }
        flat = SensitivityFunction(
            eval=lambda g, t, v: flat_vals.get(t, 7.5),
            declared_admissible=True, declared_bounded=True,
            monotonicity="flat",
        )
        const = constant_sensitivity(7.5)
        report = check_dominance(flat, const, bridge_problem, ts=(0, 1, 2))
        assert report.dominates
        for row in report.gaps.values():
            assert all(a >= b - 1e-12 for a, b in zip(row, row[1:]))
            assert row[-1] >= -1e-12

    def test_top_heavy_element_ls_does_not_gap_dominate(
        self, bridge_problem, bridge_explorer
    ):
        # the per-node sensitivity here grows with utility, so its gaps to
        # the constant concentrate on the low-utility nodes: exactly the
        # opposite of the gap-order requirement
        elem = SensitivityFunction(
            eval=lambda g, t, v: min(bridge_explorer.element_ls(t, v), 7.5),
            declared_admissible=True, declared_bounded=True,
        )
        const = constant_sensitivity(7.5)
        report = check_dominance(elem, const, bridge_problem, ts=(0, 1))
        assert not report.dominates
        assert report.first_violation is not None

    def test_scaled_family_order(self):
        # delta_b(x, t, r) = u(x, r) * t / b: larger b values dominate
        problem = make_abstract_problem([10.0, 20.0, 30.0], gs=100.0, n=3)

        def family(beta):
            return SensitivityFunction(
                eval=lambda db, t, r: min(db[r] * t / beta, 100.0),
                declared_admissible=True, declared_bounded=True,
                monotonicity="non_decreasing", name=f"beta{beta}",
            )

        report = check_dominance(family(8.0), family(2.0), problem, ts=(0, 1, 2))
        assert report.dominates
        report = check_dominance(family(2.0), family(8.0), problem, ts=(0, 1, 2))
        assert not report.dominates and report.first_violation is not None

    def test_utility_order_breaks_ties_by_range(self):
        problem = make_abstract_problem([2.0, 3.0, 2.0], gs=1.0)
        assert utility_order(problem) == (1, 0, 2)


class TestAccuracyOrderCheck:
    def test_any_stable_bounded_delta_beats_constant(
        self, bridge_problem, bridge_explorer, rng
    ):
        flat_vals = {
            t: max(bridge_explorer.element_ls(t, v)
                   for v in bridge_problem.candidates)
            for t in (0, 1, 2)
        }
        flat = SensitivityFunction(
            eval=lambda g, t, v: flat_vals.get(t, 7.5),
            declared_admissible=True, declared_bounded=True,
            monotonicity="flat",
        )
        const = constant_sensitivity(7.5)
        report = accuracy_order_check(flat, const, bridge_problem, epsilon=2.0)
        assert report.passed
        _, em = select_exponential(bridge_problem, 2.0, rng)
        assert report.expected_error_b == pytest.approx(
            expected_error(em, bridge_problem), abs=1e-9
        )

    def test_equal_functions_tie(self, bridge_problem):
        const = constant_sensitivity(7.5)
        report = accuracy_order_check(const, const, bridge_problem, epsilon=1.0)
        assert report.passed
        assert report.expected_error_a == pytest.approx(
            report.expected_error_b, abs=1e-12
        )

    def test_scaled_family_error_sweep(self, rng):
        # larger beta shrinks the per-candidate score boost toward zero, so
        # the error climbs toward (but never past) the exponential mechanism
        problem = make_abstract_problem([10.0, 20.0, 30.0], gs=100.0, n=3)

        def family(beta):
            return SensitivityFunction(
                eval=lambda db, t, r: min(db[r] * t / beta, 100.0),
                declared_admissible=True, declared_bounded=True,
                monotonicity="non_decreasing", name=f"beta{beta}",
            )

        betas = [1.0, 2.0, 4.0, 8.0, 16.0]
        errors = []
        from dampen.mechanisms import select_shifted_local_dampening
        for beta in betas:
            _, dist = select_shifted_local_dampening(
                problem, family(beta), 1.0, rng
            )
            errors.append(expected_error(dist, problem))
        assert all(a <= b + 1e-9 for a, b in zip(errors, errors[1:]))
        _, em = select_exponential(problem, 1.0, rng)
        assert errors[-1] <= expected_error(em, problem) + 1e-9
        # the gap-dominant member (larger beta) is the one the ordering
        # guarantee places on the losing side of this downward-shift family
        for hi, lo in zip(betas[1:], betas):
            report = accuracy_order_check(
                family(hi), family(lo), problem, epsilon=1.0
            )
            assert report.passed
            assert report.expected_error_b <= report.expected_error_a + 1e-9

    def test_refuses_without_dominance(self):
        problem = make_abstract_problem([10.0, 20.0, 30.0], gs=100.0, n=3)
        small = constant_sensitivity(50.0)
        big = constant_sensitivity(100.0)
        with pytest.raises(PreconditionError):
            accuracy_order_check(big, small, problem, epsilon=1.0)

    def test_refuses_non_stable_inputs(self):
        problem = make_abstract_problem([1.0, 2.0], gs=1.0)
        wobbly = SensitivityFunction(
            eval=lambda db, t, r: 0.5, declared_admissible=True,
            declared_bounded=True, monotonicity="none",
        )
        with pytest.raises(PreconditionError):
            accuracy_order_check(wobbly, constant_sensitivity(1.0), problem, 1.0)


class TestMinimumAdmissibility:
    def test_brute_ls_lower_bounds_admissible_functions(self, rng):
        for _ in range(8):
            n = 5
            g = random_graph_instance(rng, n=n)
            # under unrestricted edge flips the degree can grow, so the
            # model-wide constant must budget for the complete graph
            model_gs = max((n - 1) * (n - 2) / 4.0, float(n - 1))
            problem = ebc_problem(g, global_sensitivity=model_gs)
            explorer = BruteForceExplorer(problem, edge_flip_enumerator())
            for delta in (constant_sensitivity(model_gs), delta_ebc()):
                for t in (0, 1, 2):
                    for v in g.nodes:
                        assert delta(g, t, v) >= explorer.element_ls(t, v) - 1e-9

    def test_vector_model_symmetry(self, rng):
        x = random_vector_instance(rng, n=3, cap=8.0, levels=3)
        enum = vector_enumerator(x, grid=4)
        for y in enum.neighbors(x):
            back = {enum.key(z) for z in enum.neighbors(y)}
            assert enum.key(x) in back
