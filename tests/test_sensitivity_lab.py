import dataclasses
import math

import numpy as np
import pytest

from dampen.core import (
    ContractViolationError,
    InvalidInputError,
    PreconditionError,
    SearchBudgetError,
    SelectionProblem,
    SensitivityFunction,
    constant_sensitivity,
)
from dampen.fixtures import random_graph_instance, random_vector_instance
from dampen.graphs import delta_ebc, ebc_problem
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
    PercentileQuery,
    bounded_ls_percentile,
    percentile_problem,
    percentile_sensitivity,
)
from dampen.sensitivity import bound_sensitivity, flatten_sensitivity, level_table

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


class TestLevelTable:
    """One table of levels per database: a running maximum of the raw fill
    along t, filled in chunks by the rule hi = max(t + 1, min(2 lo, N), 8)."""

    def make(self):
        opened, fills = [], []

        def open_table(db):
            opened.append(db)
            rows = {"a": 0, "b": 1, "c": 2}

            def fill(lo, hi):
                fills.append((lo, hi))
                return toy_raw(db, rows.values(), lo, hi)

            return rows, fill

        return level_table(open_table, "toy"), opened, fills

    @staticmethod
    def want(db, t_max):
        raw = toy_raw(db, range(3), 0, t_max + 1)
        return np.maximum.accumulate(raw, axis=1)

    def test_running_max_holds_across_chunk_ends(self):
        db = tuple(range(20))
        want = self.want(db, 40)
        probes = [0, 7, 8, 15, 16, 19, 20, 21, 31, 32, 40]
        for order in (probes, probes[::-1]):
            delta, _, _ = self.make()
            for t in order:
                for row, r in enumerate("abc"):
                    assert delta(db, t, r) == want[row, t], (r, t)
        # the raw fill is not monotone, so the running max does move levels
        assert not np.array_equal(want, toy_raw(db, range(3), 0, 41))

    def test_chunk_rule(self):
        delta, _, fills = self.make()
        db = tuple(range(20))
        for t in range(23):
            delta(db, t, "a")
        assert fills == [(0, 8), (8, 16), (16, 20), (20, 21), (21, 22),
                         (22, 23)]
        delta(db, 40, "b")
        assert fills[-1] == (23, 41)

    def test_same_database_reads_without_a_fill(self):
        delta, opened, fills = self.make()
        db = tuple(range(12))
        delta(db, 5, "a")
        assert len(opened) == 1 and len(fills) == 1
        for r in "abc":
            for t in range(8):
                delta(db, t, r)
            delta.table(db, 0, 8)
        delta(tuple(range(12)), 3, "c")     # an equal database
        assert len(opened) == 1 and len(fills) == 1

    def test_new_database_refills(self):
        delta, opened, fills = self.make()
        first, second = tuple(range(12)), tuple(range(13))
        assert delta(first, 3, "a") == self.want(first, 3)[0, 3]
        assert delta(second, 3, "a") == self.want(second, 3)[0, 3]
        assert delta(first, 3, "b") == self.want(first, 3)[1, 3]
        assert opened == [first, second, first]
        assert fills == [(0, 8)] * 3

    def test_refusals(self):
        delta, _, _ = self.make()
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
        # every prefix the table serves, and the range from its middle,
        # read before or after a longer one
        db = tuple(range(20))
        for order in ((0, 1, 7, 8, 9, 20, 33), (33, 20, 9, 8, 7, 1, 0)):
            delta, _, _ = self.make()
            for upto in order:
                for lo in (0, upto // 2, upto):
                    rows, levels = delta.table(db, lo, upto)
                    assert levels.dtype == np.float64
                    assert levels.shape[1] == upto - lo
                    for r, row in rows.items():
                        assert levels[row].tolist() == [
                            delta(db, t, r) for t in range(lo, upto)]

    def test_declarations(self):
        delta, _, _ = self.make()
        assert delta.declared_admissible and delta.declared_nondecreasing_in_t
        assert not delta.declared_bounded and delta.name == "toy"

    def test_table_hook_is_the_levels_of_every_row(self):
        delta, _, fills = self.make()
        db = tuple(range(20))
        rows, levels = delta.table(db, 0, 9)
        assert fills == [(0, 9)] and levels.shape == (3, 9)
        for lo, hi in ((0, 0), (0, 5), (2, 9), (9, 9)):
            block = delta.table(db, lo, hi)[1]
            assert block.tolist() == levels[:, lo:hi].tolist()
        assert fills == [(0, 9)]                        # no new fill
        for r, row in rows.items():
            assert levels[row].tolist() == [delta(db, t, r) for t in range(9)]


def bad_raw(db, rows, lo, hi):
    """Levels over 0..4.5 with a NaN, an infinity and a negative level at
    fixed t, for the clip's pass-through."""
    out = toy_raw(db, rows, lo, hi)
    for t, bad in ((3, math.nan), (9, math.inf), (12, -math.inf), (17, -1.0)):
        if lo <= t < hi:
            out[0, t - lo] = bad
    return out


class TestBoundTable:
    """``bound_sensitivity`` clips the columns of a level table read on
    every read; its table equals the clip of every range of the inner
    levels, ``min(level, GS)`` for finite levels and GS from n on."""

    def make(self, raw=toy_raw, fills=None):
        def open_table(db):
            rows = {"a": 0, "b": 1, "c": 2}

            def fill(lo, hi):
                if fills is not None:
                    fills.append((lo, hi))
                return raw(db, rows.values(), lo, hi)

            return rows, fill

        return level_table(open_table, "toy")

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

    def test_one_clip_per_fill(self):
        # reads within one fill of the inner table clip the same levels;
        # a read past it fills a doubled chunk
        db, fills = tuple(range(20)), []
        bounded = bound_sensitivity(self.make(fills=fills), 1.5, 20)
        _, first = bounded.table(db, 0, 8)
        for lo, hi in ((0, 0), (0, 1), (1, 4), (4, 8), (0, 8)):
            assert bounded.table(db, lo, hi)[1].tolist() == (
                first[:, lo:hi].tolist())
        assert fills == [(0, 8)]
        _, second = bounded.table(db, 8, 9)             # a new fill
        assert fills == [(0, 8), (8, 16)] and second.shape[1] == 1
        whole = bounded.table(db, 0, 16)[1]
        assert whole[:, :8].tolist() == first.tolist()
        assert whole[:, 8:9].tolist() == second.tolist()
        assert fills == [(0, 8), (8, 16)]

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
