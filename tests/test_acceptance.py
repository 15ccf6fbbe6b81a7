"""Acceptance gate: one test per shipping criterion, each printing a
pass/fail line with its elapsed time and asserting its stated tolerance and
wall-clock budget.
"""

import math
import time

import numpy as np
import pytest

from dampen.core import (
    SelectionProblem,
    SensitivityFunction,
    constant_sensitivity,
)
from dampen.fixtures import (
    TINY_TABLE_SCHEMA,
    TOY_TABLE_ATTRIBUTES,
    clustered_vector,
    example_graph,
    random_graph_instance,
    random_table_instance,
    random_vector_instance,
    separable_table,
    shared_neighbors_gadget,
    trend_graph,
)
from dampen import graphs, mechanisms, oracles, percentile, trees
from dampen.oracles import (
    BruteForceExplorer,
    accuracy_order_check,
    brute_sensitivity,
    check_admissibility,
    check_dominance,
    check_monotonicity,
)
from dampen.sensitivity import bound_sensitivity, flatten_sensitivity


class _Timer:
    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"ACCEPTANCE {self.number:>2} {status} "
            f"({elapsed:6.2f}s / {self.budget_s:.0f}s budget): "
            f"{self.description}"
        )
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget"
            )
        return False


def shifted_copy(problem, database, database_size=None):
    return SelectionProblem(
        database=database,
        candidates=problem.candidates,
        utility=problem.utility,
        global_sensitivity=problem.global_sensitivity,
        database_size=(
            problem.database_size if database_size is None else database_size
        ),
    )


def test_criterion_1_worked_example_replication():
    with _Timer(1, "worked-example replication on the 8-node graphs", 1.0):
        gadget = shared_neighbors_gadget()
        assert graphs.ebc(gadget, "a") == pytest.approx(7.5, abs=0.005)
        assert graphs.ebc(gadget.flip_edge("a", "b"), "a") == pytest.approx(
            15.0, abs=0.005
        )
        bridge = example_graph()
        assert graphs.ebc(bridge, "a") == pytest.approx(6.5, abs=0.005)

        problem = graphs.ebc_problem(bridge, global_sensitivity=7.5)
        explorer = BruteForceExplorer(
            problem, oracles.edge_flip_enumerator(), node_budget=200_000
        )
        assert explorer.element_ls(0, "v4") == pytest.approx(2.0, abs=0.005)
        flat = {
            t: max(explorer.element_ls(t, v) for v in bridge.nodes)
            for t in (0, 1)
        }
        assert flat[0] == pytest.approx(3.0, abs=0.005)
        assert flat[1] == pytest.approx(5.0, abs=0.005)

        delta = SensitivityFunction(
            eval=lambda g, t, v: flat.get(t, 7.5),
            declared_admissible=True, declared_bounded=True,
            monotonicity="flat",
        )
        assert mechanisms.dampen(problem, delta, "a", 6.5) == pytest.approx(
            1.7, abs=0.005
        )
        rng = np.random.default_rng(0)
        _, ld = mechanisms.select_local_dampening(problem, delta, 2.0, rng)
        assert ld.probability_of("a") == pytest.approx(0.32, abs=0.005)
        assert ld.probability_of("b") == pytest.approx(0.32, abs=0.005)
        assert ld.probability_of("v1") == pytest.approx(0.06, abs=0.005)
        _, em = mechanisms.select_exponential(problem, 2.0, rng)
        assert em.probability_of("a") == pytest.approx(0.22, abs=0.005)
        assert em.probability_of("b") == pytest.approx(0.22, abs=0.005)
        assert em.probability_of("v1") == pytest.approx(0.09, abs=0.005)


def test_criterion_2_exponential_instance_equality():
    with _Timer(2, "dampening with constant sensitivity equals the "
                   "exponential mechanism to 1e-12 on 200 problems", 5.0):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            k = int(rng.integers(1, 13))
            utilities = tuple(np.round(rng.uniform(-50, 50, size=k), 6))
            gs = float(rng.uniform(0.5, 20.0))
            problem = SelectionProblem(
                database=utilities,
                candidates=tuple(range(k)),
                utility=lambda db, r: db[r],
                global_sensitivity=gs,
                database_size=int(rng.integers(1, 9)),
            )
            const = constant_sensitivity(gs)
            eps = float(rng.uniform(0.1, 4.0))
            _, em = mechanisms.select_exponential(problem, eps, rng)
            _, ld = mechanisms.select_local_dampening(problem, const, eps, rng)
            _, sld = mechanisms.select_shifted_local_dampening(
                problem, const, eps, rng
            )
            assert np.max(np.abs(ld.probabilities - em.probabilities)) <= 1e-12
            assert np.max(np.abs(sld.probabilities - em.probabilities)) <= 1e-12


def _tiny_instances(rng, count=100):
    """(problem, enumerator) pairs across the three database models."""
    out = []
    for _ in range(count):
        x = random_vector_instance(rng, n=3, cap=8.0, levels=4)
        q = percentile.PercentileQuery(int(rng.choice([25, 50, 75])), 3)
        out.append((
            "vector",
            percentile.percentile_problem(x, q),
            oracles.vector_enumerator(
                x, values=[8.0 * j / 4 for j in range(5)]
            ),
        ))
    for _ in range(count):
        g = random_graph_instance(rng, n=4)
        out.append((
            "graph",
            graphs.ebc_problem(g, global_sensitivity=3.0),  # complete-graph bound
            oracles.edge_flip_enumerator(),
        ))
    for _ in range(count):
        table = random_table_instance(rng, max_rows=2)
        problem = SelectionProblem(
            database=table,
            candidates=("A",),
            utility=lambda tbl, attr: trees.ig_utility(tbl, attr),
            global_sensitivity=trees.global_sensitivity_ig(len(table) + 1),
            database_size=max(len(table), 1),
        )
        out.append(("table", problem, oracles.row_edit_enumerator(table.schema)))
    return out


def test_criterion_3_bounded_dampening_shift():
    with _Timer(3, "dampened scores move at most one unit between neighbors "
                   "(100 tiny instances per model)", 30.0):
        rng = np.random.default_rng(33)
        for kind, problem, enum in _tiny_instances(rng, count=100):
            delta = brute_sensitivity(problem, enum, node_budget=100_000)
            x = problem.database
            for y in enum.neighbors(x):
                shifted = shifted_copy(problem, y)
                for r in problem.candidates:
                    dx = mechanisms.dampen(problem, delta, r,
                                           problem.utility(x, r))
                    dy = mechanisms.dampen(shifted, delta, r,
                                           problem.utility(y, r))
                    assert abs(dx - dy) <= 1 + 1e-9, (kind, r, dx, dy)


def test_criterion_4_epsilon_indistinguishability():
    with _Timer(4, "exact output ratios within exp(±eps) for the exponential, "
                   "permute-and-flip and dampening mechanisms on neighbor "
                   "pairs", 30.0):
        rng = np.random.default_rng(44)
        slack = 1 + 1e-9
        for kind, problem, enum in _tiny_instances(rng, count=12):
            delta = brute_sensitivity(problem, enum, node_budget=100_000)
            x = problem.database
            for eps in (0.5, 1.0, 2.0):
                _, em_x = mechanisms.select_exponential(problem, eps, rng)
                _, ld_x = mechanisms.select_local_dampening(
                    problem, delta, eps, rng
                )
                pf_x = mechanisms.distribution("pf", problem, eps)
                for y in enum.neighbors(x):
                    shifted = shifted_copy(problem, y)
                    _, em_y = mechanisms.select_exponential(shifted, eps, rng)
                    _, ld_y = mechanisms.select_local_dampening(
                        shifted, delta, eps, rng
                    )
                    pf_y = mechanisms.distribution("pf", shifted, eps)
                    for px, py in (
                        (em_x.probabilities, em_y.probabilities),
                        (ld_x.probabilities, ld_y.probabilities),
                        (pf_x.probabilities, pf_y.probabilities),
                    ):
                        ratios = px / py
                        assert np.max(ratios) <= math.exp(eps) * slack, kind
                        assert np.min(ratios) >= math.exp(-eps) / slack, kind


def test_criterion_5_dominance_accuracy_ordering():
    with _Timer(5, "gap-dominance orders exact expected errors and tails",
                10.0):
        rng = np.random.default_rng(55)
        problem = SelectionProblem(
            database=(10.0, 20.0, 30.0),
            candidates=(0, 1, 2),
            utility=lambda db, r: db[r],
            global_sensitivity=100.0,
            database_size=3,
        )

        def family(beta):
            return SensitivityFunction(
                eval=lambda db, t, r: min(db[r] * t / beta, 100.0),
                declared_admissible=True, declared_bounded=True,
                monotonicity="non_decreasing", name=f"beta{beta}",
            )

        betas = [1.0, 2.0, 4.0, 8.0, 16.0]
        _, em = mechanisms.select_exponential(problem, 1.0, rng)
        em_err = mechanisms.expected_error(em, problem)
        errors = []
        for beta in betas:
            _, dist = mechanisms.select_shifted_local_dampening(
                problem, family(beta), 1.0, rng
            )
            errors.append(mechanisms.expected_error(dist, problem))
        # the scaled family interpolates monotonically toward the
        # exponential mechanism and never crosses it
        assert all(a <= b + 1e-9 for a, b in zip(errors, errors[1:]))
        assert all(e <= em_err + 1e-9 for e in errors)
        for hi, lo in zip(betas[1:], betas):
            assert check_dominance(
                family(hi), family(lo), problem, ts=(0, 1, 2)
            ).dominates
            report = accuracy_order_check(family(hi), family(lo), problem, 1.0)
            assert report.passed

        # stable exact-local-sensitivity instances against the constant
        stable_cases = 0
        for kind, prob, enum in _tiny_instances(rng, count=14):
            raw = brute_sensitivity(prob, enum, node_budget=100_000)
            mono = check_monotonicity(raw, prob, ts=(0, 1, 2))
            if mono.classification == "none" or prob.global_sensitivity == 0:
                continue
            stable_cases += 1
            stable = SensitivityFunction(
                eval=raw.eval, declared_admissible=True,
                monotonicity=mono.classification, name="ls",
            )
            bounded = bound_sensitivity(
                stable, prob.global_sensitivity, prob.database_size
            )
            _, em_d = mechanisms.select_exponential(prob, 1.0, rng)
            _, sld_d = mechanisms.select_shifted_local_dampening(
                prob, bounded, 1.0, rng
            )
            e_em = mechanisms.expected_error(em_d, prob)
            e_sld = mechanisms.expected_error(sld_d, prob)
            assert e_sld <= e_em + 1e-9, kind
            u = prob.utilities()
            for theta in sorted({max(u) - v for v in u}):
                assert mechanisms.error_tail(sld_d, prob, theta) <= (
                    mechanisms.error_tail(em_d, prob, theta) + 1e-9
                )
            if mono.classification in ("flat", "non_increasing"):
                const = constant_sensitivity(prob.global_sensitivity)
                assert accuracy_order_check(bounded, const, prob, 1.0).passed
        assert stable_cases >= 5


def test_criterion_6_percentile_sensitivity_vs_oracles():
    with _Timer(6, "percentile local sensitivity equals brute-force oracles",
                60.0):
        rng = np.random.default_rng(66)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            cap = float(rng.choice([1.0, 10.0, 100.0]))
            style = rng.random()
            if style < 0.5:
                values = [float(rng.uniform(0, cap)) for _ in range(n)]
            else:
                values = [cap * int(rng.integers(0, 9)) / 8 for _ in range(n)]
            x = percentile.NumericVector(values, cap)
            q = percentile.PercentileQuery(
                int(rng.choice([1, 25, 50, 75, 95, 99])), n
            )
            for label in x.labels():
                got = percentile.ls0_of_record(x, q, label)
                want = oracles.oracle_ls0(x, q, label, grid=64)
                assert got == pytest.approx(want, abs=1e-9), (values, q.p)

        for _ in range(10):
            n = int(rng.integers(2, 6))
            x = random_vector_instance(rng, n=n, cap=8.0, levels=4)
            q = percentile.PercentileQuery(int(rng.choice([25, 50, 75])), n)
            values = sorted(
                {0.0, 8.0, *x.values(), *[8.0 * j / 16 for j in range(17)]}
            )
            enum = oracles.vector_enumerator(x, values=values)
            for label in x.labels():
                for t in (1, 2):
                    got = oracles.ls_t_of_record(x, q, t, label)
                    want = _bfs_vector_ls_t(x, q, t, label, enum)
                    assert got == pytest.approx(want, abs=1e-9)


def _bfs_vector_ls_t(x, q, t, label, enum):
    seen = {enum.key(x)}
    frontier = [x]
    best = oracles.oracle_ls0(x, q, label, grid=16)
    for _ in range(t):
        nxt = []
        for y in frontier:
            for z in enum.neighbors(y):
                key = enum.key(z)
                if key not in seen:
                    seen.add(key)
                    nxt.append(z)
                    best = max(best, oracles.oracle_ls0(z, q, label, grid=16))
        frontier = nxt
    return best


def _count_matrix_oracle(table, t):
    counts = table.counts("A")
    start = tuple(
        tuple(counts[j][c] for c in table.schema.class_values) for j in (0, 1)
    )

    def ls0(matrix):
        return max(
            oracles.h_pair(sum(row), b) for row in matrix for b in row
        )

    seen = {start}
    frontier = [start]
    best = ls0(start)
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
                            best = max(best, ls0(key))
        frontier = nxt
    return best


def test_criterion_7_split_score_sensitivity_vs_oracles():
    with _Timer(7, "split-score local sensitivity equals exhaustive oracles",
                60.0):
        rng = np.random.default_rng(77)
        enum = oracles.row_edit_enumerator(TINY_TABLE_SCHEMA)
        for _ in range(200):
            table = random_table_instance(rng, max_rows=6)
            base = trees.ig_utility(table, "A")
            want0 = max(
                (abs(base - trees.ig_utility(nb, "A"))
                 for nb in enum.neighbors(table)),
                default=0.0,
            )
            assert oracles.ls0_ig(table, "A") == pytest.approx(want0, abs=1e-9)
            delta = trees.ig_sensitivity()
            for t in (1, 2, 3):
                got = delta(table, t, "A")
                want = _count_matrix_oracle(table, t)
                assert got == pytest.approx(want, abs=1e-9), (table.rows, t)

        for _ in range(60):
            n = int(rng.integers(0, 201))
            rows = [
                {"A": int(rng.integers(2)),
                 "y": ("c0", "c1")[int(rng.integers(2))]}
                for _ in range(n)
            ]
            table = trees.LabeledTable(TINY_TABLE_SCHEMA, rows)
            assert oracles.ls0_ig(table, "A") <= (
                trees.global_sensitivity_ig(n) + 1e-9
            )
        n = 200
        worst = trees.LabeledTable(
            TINY_TABLE_SCHEMA, [{"A": 0, "y": "c0"}] * n
        )
        attained = oracles.ls0_ig(worst, "A")
        # the single-value single-class table attains the exact size-n
        # supremum, which sits just under the closed-form bound
        assert attained == pytest.approx(trees.f_add(n), abs=1e-12)
        assert attained <= trees.global_sensitivity_ig(n)
        assert trees.global_sensitivity_ig(n) - attained < 0.01


def test_criterion_8_degree_delta_admissibility():
    with _Timer(8, "degree-based sensitivity passes brute-force "
                   "admissibility on 100 random graphs", 60.0):
        rng = np.random.default_rng(88)
        for _ in range(100):
            n = int(rng.integers(3, 7))
            g = random_graph_instance(rng, n=n, edge_prob=float(rng.uniform(0.2, 0.8)))
            problem = graphs.ebc_problem(g)
            report = check_admissibility(
                graphs.delta_ebc(), problem, oracles.edge_flip_enumerator(),
                max_t=2,
            )
            assert report.passed, (g.edges(), report)


def test_criterion_9_desk_scale_trends():
    with _Timer(9, "locally calibrated mechanisms dominate at every epsilon "
                   "on engineered instances", 120.0):
        rng = np.random.default_rng(99)
        # percentile: values bunched mid-range under a generous cap
        x = clustered_vector()
        q = percentile.PercentileQuery(50, len(x))
        vec_problem = percentile.percentile_problem(x, q)
        vec_delta = percentile.bounded_ls_percentile(x, q)
        vec_flat = flatten_sensitivity(vec_delta, vec_problem)
        for eps in (0.1, 1.0, 10.0):
            _, em = mechanisms.select_exponential(vec_problem, eps, rng)
            _, ld = mechanisms.select_local_dampening(
                vec_problem, vec_flat, eps, rng
            )
            _, sld = mechanisms.select_shifted_local_dampening(
                vec_problem, vec_delta, eps, rng
            )
            e_em = mechanisms.expected_error(em, vec_problem)
            e_ld = mechanisms.expected_error(ld, vec_problem)
            e_sld = mechanisms.expected_error(sld, vec_problem)
            assert e_sld <= e_ld + 1e-9
            assert e_ld <= e_em + 1e-9

        # single-pick influence: pessimistic public degree bound
        g = trend_graph()
        g_problem = graphs.ebc_problem(g)
        raw = brute_sensitivity(
            g_problem, oracles.edge_flip_enumerator(), node_budget=500_000
        )
        g_flat = bound_sensitivity(
            flatten_sensitivity(raw, g_problem),
            g_problem.global_sensitivity, g_problem.database_size,
        )
        g_delta = bound_sensitivity(
            graphs.delta_ebc(), g_problem.global_sensitivity,
            g_problem.database_size,
        )
        for eps in (0.1, 1.0, 10.0):
            _, em = mechanisms.select_exponential(g_problem, eps, rng)
            _, ld = mechanisms.select_local_dampening(g_problem, g_flat, eps, rng)
            _, sld = mechanisms.select_shifted_local_dampening(
                g_problem, g_delta, eps, rng
            )
            e_em = mechanisms.expected_error(em, g_problem)
            e_ld = mechanisms.expected_error(ld, g_problem)
            e_sld = mechanisms.expected_error(sld, g_problem)
            assert e_sld <= e_ld + 1e-9
            assert e_ld <= e_em + 1e-9

        # permute-and-flip never beaten by the exponential mechanism
        for eps in (0.1, 1.0, 10.0):
            e_em = mechanisms.expected_error(
                mechanisms.distribution("em", vec_problem, eps), vec_problem)
            e_pf = mechanisms.expected_error(
                mechanisms.distribution("pf", vec_problem, eps), vec_problem)
            assert e_pf <= e_em + 1e-9


def test_criterion_10_tree_end_to_end():
    with _Timer(10, "all induction variants reproduce the exact tree at a "
                    "near-infinite budget with exact ledgers", 30.0):
        table = separable_table()
        assert len(table) == 200
        for depth in (2, 5):
            oracle = trees.build_id3(table, TOY_TABLE_ATTRIBUTES, depth)
            for variant in ("global", "local", "shifted"):
                tree, acc = trees.build_diffp_id3(
                    table, TOY_TABLE_ATTRIBUTES, depth, 1e6, variant,
                    np.random.default_rng(2 + depth),
                )
                assert tree == oracle, (depth, variant)
                assert acc.total() == pytest.approx(1e6, rel=1e-9)
