"""Named verification suites behind the `check` CLI subcommand.

Each check replays a property of the library against an independent
computation (brute force, closed form, or an exact distribution) on
instances small enough to be exhaustive.  The pytest suite runs the same
properties at acceptance scale; these are the fast, scriptable versions.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import fixtures, graphs, mechanisms, oracles, percentile, trees
from .core import (
    BudgetAccountant,
    InvalidInputError,
    SelectionProblem,
    SensitivityFunction,
    constant_sensitivity,
)
from .sensitivity import bound_sensitivity, flatten_sensitivity

SUITES = ("core", "sensitivity", "percentile", "graph", "tree", "all")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class CheckReport:
    results: tuple
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = [
            f"[{'PASS' if r.passed else 'FAIL'}] {r.suite}/{r.name}"
            + (f": {r.detail}" if r.detail and not r.passed else "")
            for r in self.results
        ]
        out.append(
            f"{'PASS' if self.passed else 'FAIL'}: "
            f"{sum(r.passed for r in self.results)}/{len(self.results)} checks "
            f"in {self.elapsed_s:.2f}s"
        )
        return out


def _random_problem(rng) -> SelectionProblem:
    k = int(rng.integers(2, 13))
    utilities = rng.uniform(-40, 40, size=k)
    gs = float(rng.uniform(0.5, 20.0))
    return SelectionProblem(
        database=tuple(np.round(utilities, 6)),
        candidates=tuple(range(k)),
        utility=lambda db, r: db[r],
        global_sensitivity=gs,
        database_size=int(rng.integers(1, 9)),
    )


# -- core ---------------------------------------------------------------------


def _check_em_instance_equality(rng, trials=40):
    worst = 0.0
    for _ in range(trials):
        problem = _random_problem(rng)
        const = constant_sensitivity(problem.global_sensitivity)
        eps = float(rng.uniform(0.1, 4.0))
        _, em = mechanisms.select_exponential(problem, eps, rng)
        _, ld = mechanisms.select_local_dampening(problem, const, eps, rng)
        _, sld = mechanisms.select_shifted_local_dampening(problem, const, eps, rng)
        worst = max(
            worst,
            float(np.max(np.abs(ld.probabilities - em.probabilities))),
            float(np.max(np.abs(sld.probabilities - em.probabilities))),
        )
    return worst <= 1e-12, f"max deviation {worst:.2e}"


def _check_mirror_symmetry(rng, trials=60):
    for _ in range(trials):
        problem = _random_problem(rng)
        steps = rng.uniform(0, 3, size=12)
        delta = SensitivityFunction(
            eval=lambda db, t, r, s=tuple(steps): s[min(t, len(s) - 1)],
            declared_admissible=True,
        )
        u = float(rng.uniform(-25, 25))
        r = problem.candidates[0]
        plus = mechanisms.dampen(problem, delta, r, u)
        minus = mechanisms.dampen(problem, delta, r, -u)
        if minus != -plus:
            return False, f"dampen({-u}) = {minus} != -dampen({u})"
    return True, ""


def _check_shift_saturation(rng, trials=25):
    worst = 0.0
    for _ in range(trials):
        problem = _random_problem(rng)
        const = constant_sensitivity(problem.global_sensitivity)
        eps = float(rng.uniform(0.1, 3.0))
        s0 = mechanisms.shift_constant(problem)
        _, base = mechanisms.select_shifted_local_dampening(
            problem, const, eps, rng, shift=s0
        )
        _, far = mechanisms.select_shifted_local_dampening(
            problem, const, eps, rng,
            shift=s0 + 17 * problem.global_sensitivity,
        )
        worst = max(worst, float(np.max(np.abs(base.probabilities - far.probabilities))))
    return worst <= 1e-12, f"max deviation {worst:.2e}"


def _check_distributions(rng, trials=25):
    for _ in range(trials):
        problem = _random_problem(rng)
        eps = float(rng.uniform(0.1, 3.0))
        pick1, dist = mechanisms.select_exponential(
            problem, eps, np.random.default_rng(99)
        )
        pick2, _ = mechanisms.select_exponential(
            problem, eps, np.random.default_rng(99)
        )
        if pick1 != pick2:
            return False, "sampling not reproducible under a fixed seed"
        total = float(dist.probabilities.sum())
        if abs(total - 1.0) > 1e-9 or np.any(dist.probabilities < 0):
            return False, f"bad distribution (sum {total})"
    return True, ""


def _check_budget(rng):
    acc = BudgetAccountant()
    acc.open_scope("seq", "sequential")
    for _ in range(5):
        acc.account("seq", 0.2)
    acc.open_scope("par", "parallel")
    acc.account("par", 0.3)
    acc.account("par", 0.5)
    acc.open_scope("empty", "sequential")
    ok = (
        abs(acc.scope_total("seq") - 1.0) < 1e-12
        and acc.scope_total("par") == 0.5
        and acc.scope_total("empty") == 0.0
    )
    return ok, f"seq={acc.scope_total('seq')} par={acc.scope_total('par')}"


def _check_faulty_delta_detected(rng):
    graph = fixtures.example_graph()
    problem = graphs.ebc_problem(graph, global_sensitivity=7.5)
    zero = SensitivityFunction(
        eval=lambda g, t, v: 0.0, declared_admissible=True, name="zero"
    )
    report = oracles.check_admissibility(
        zero, problem, oracles.edge_flip_enumerator(), max_t=1
    )
    return (not report.passed) and report.witness is not None, (
        "zero sensitivity function slipped through" if report.passed else ""
    )


# -- sensitivity lab ----------------------------------------------------------


def _tiny_graph_problem(rng):
    graph = fixtures.random_graph_instance(rng, n=4)
    return graphs.ebc_problem(
        graph,
        global_sensitivity=graphs.global_sensitivity_ebc(
            graphs.EdgeGraph(graph.nodes, [], max_degree_bound=len(graph.nodes) - 1)
        ),
    )


def _check_minimum_admissibility(rng, trials=8):
    for _ in range(trials):
        problem = _tiny_graph_problem(rng)
        enum = oracles.edge_flip_enumerator()
        explorer = oracles.BruteForceExplorer(problem, enum)
        delta = bound_sensitivity(
            graphs.delta_ebc(), problem.global_sensitivity, problem.database_size
        )
        for t in range(3):
            for r in problem.candidates:
                ls = explorer.element_ls(t, r)
                if delta(problem.database, t, r) < ls - 1e-9:
                    return False, f"delta below brute LS at t={t}, r={r}"
    return True, ""


def _check_flatten_is_max(rng, trials=6):
    for _ in range(trials):
        problem = _tiny_graph_problem(rng)
        enum = oracles.edge_flip_enumerator()
        raw = oracles.brute_sensitivity(problem, enum)
        flat = flatten_sensitivity(raw, problem)
        explorer = oracles.BruteForceExplorer(problem, enum)
        for t in range(3):
            want = max(explorer.element_ls(t, r) for r in problem.candidates)
            got = flat(problem.database, t, problem.candidates[0])
            if abs(got - want) > 1e-9:
                return False, f"flatten != max at t={t}: {got} vs {want}"
    return True, ""


def _check_bound_caps(rng, trials=6):
    for _ in range(trials):
        problem = _tiny_graph_problem(rng)
        bounded = bound_sensitivity(
            graphs.delta_ebc(), problem.global_sensitivity, problem.database_size
        )
        for t in range(problem.database_size + 3):
            for r in problem.candidates:
                v = bounded(problem.database, t, r)
                if v > problem.global_sensitivity + 1e-12:
                    return False, f"bounded value {v} above GS"
                if t >= problem.database_size and v != problem.global_sensitivity:
                    return False, "bounded tail must equal GS"
        report = oracles.check_admissibility(
            bounded, problem, oracles.edge_flip_enumerator(), max_t=2
        )
        if not report.passed:
            return False, f"bounded delta lost admissibility: {report.detail}"
    return True, ""


def _check_bounded_dominates_constant(rng, trials=6):
    for _ in range(trials):
        problem = _tiny_graph_problem(rng)
        enum = oracles.edge_flip_enumerator()
        raw = oracles.brute_sensitivity(problem, enum)
        flat = flatten_sensitivity(raw, problem)   # flat => stable ordering
        bounded = bound_sensitivity(
            flat, problem.global_sensitivity, problem.database_size
        )
        const = constant_sensitivity(problem.global_sensitivity)
        report = oracles.check_dominance(bounded, const, problem, ts=range(4))
        if not report.dominates:
            return False, f"violation at {report.first_violation}"
    return True, ""


# -- percentile ---------------------------------------------------------------


def _check_percentile_ls0(rng, trials=40):
    for _ in range(trials):
        n = int(rng.integers(1, 8))
        x = fixtures.random_vector_instance(rng, n=n, cap=10.0, levels=5)
        q = percentile.PercentileQuery(int(rng.choice([1, 25, 50, 75, 99])), n)
        for label in x.labels():
            got = percentile.ls0_of_record(x, q, label)
            want = oracles.oracle_ls0(x, q, label, grid=32)
            if abs(got - want) > 1e-9:
                return False, f"{x.values()} p={q.p} label={label}: {got} vs {want}"
    return True, ""


def _check_percentile_ls_t(rng, trials=6):
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        x = fixtures.random_vector_instance(rng, n=n, cap=8.0, levels=4)
        q = percentile.PercentileQuery(50, n)
        grid_ball = oracles.BruteForceExplorer(
            percentile.percentile_problem(x, q),
            oracles.vector_enumerator(x, grid=8),
        )
        for label in x.labels():
            for t in (1, 2):
                got = oracles.ls_t_of_record(x, q, t, label)
                want = max(percentile.ls0_of_record(z, q, label)
                           for z in grid_ball.ball(t))
                if abs(got - want) > 1e-9:
                    return False, f"{x.values()} t={t} label={label}: {got} vs {want}"
    return True, ""


def _check_percentile_bounded(rng, trials=10):
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        x = fixtures.random_vector_instance(rng, n=n, cap=10.0, levels=5)
        q = percentile.PercentileQuery(50, n)
        delta = percentile.bounded_ls_percentile(x, q)
        for t in range(n + 2):
            for label in x.labels():
                if delta(x, t, label) > x.lambda_cap + 1e-12:
                    return False, "bounded sensitivity above the cap"
    return True, ""


def _check_percentile_delta_admissible(rng, trials=6):
    for _ in range(trials):
        n = int(rng.integers(1, 6))
        x = fixtures.random_vector_instance(rng, n=n, cap=10.0, levels=4)
        q = percentile.PercentileQuery(int(rng.choice([1, 25, 50, 75, 100])), n)
        report = oracles.check_admissibility(
            percentile.bounded_ls_percentile(x, q),
            percentile.percentile_problem(x, q),
            oracles.vector_enumerator(x, values=(0.0, 2.5, 5.0, 7.5, 10.0)),
            max_t=3,
        )
        if not report.passed:
            return False, f"witness {report.witness} on {x.values()} p={q.p}"
    return True, ""


def _check_percentile_ordering(rng):
    x = fixtures.clustered_vector()
    q = percentile.PercentileQuery(50, len(x))
    problem = percentile.percentile_problem(x, q)
    delta = percentile.bounded_ls_percentile(x, q)
    flat = flatten_sensitivity(delta, problem)
    for eps in (0.1, 1.0, 10.0):
        _, em = mechanisms.select_exponential(problem, eps, rng)
        _, ld = mechanisms.select_local_dampening(problem, flat, eps, rng)
        _, sld = mechanisms.select_shifted_local_dampening(problem, delta, eps, rng)
        e_em = mechanisms.expected_error(em, problem)
        e_ld = mechanisms.expected_error(ld, problem)
        e_sld = mechanisms.expected_error(sld, problem)
        if not (e_sld <= e_ld + 1e-9 and e_ld <= e_em + 1e-9):
            return False, f"eps={eps}: {e_sld} / {e_ld} / {e_em}"
    return True, ""


# -- graphs --------------------------------------------------------------------


def _check_ebc_oracle(rng, trials=20):
    for _ in range(trials):
        g = fixtures.random_graph_instance(rng, n=int(rng.integers(3, 8)))
        for v in g.nodes:
            fast = graphs.ebc(g, v)
            slow = graphs.ebc_oracle(g, v)
            if abs(fast - slow) > 1e-9:
                return False, f"ebc mismatch at {v}: {fast} vs {slow}"
    return True, ""


def _check_delta_ebc_admissible(rng, trials=12):
    for _ in range(trials):
        g = fixtures.random_graph_instance(rng, n=int(rng.integers(3, 7)))
        problem = graphs.ebc_problem(g)
        report = oracles.check_admissibility(
            graphs.delta_ebc(), problem, oracles.edge_flip_enumerator(), max_t=2
        )
        if not report.passed:
            return False, f"witness {report.witness} on {g.edges()}"
    return True, ""


def _check_flip_bound(rng, trials=12):
    for _ in range(trials):
        g = fixtures.random_graph_instance(rng, n=int(rng.integers(3, 7)))
        for flipped in oracles.edge_flip_enumerator().neighbors(g):
            for v in g.nodes:
                d = max(g.degree(v), flipped.degree(v))
                bound = max(d * (d - 1) / 4.0, float(d))
                change = abs(graphs.ebc(g, v) - graphs.ebc(flipped, v))
                if change > bound + 1e-9:
                    return False, f"flip moved {v} by {change} > {bound}"
    return True, ""


def _check_privtopk(rng, trials=6):
    for trial in range(trials):
        g = (
            fixtures.example_graph() if trial % 2 == 0
            else fixtures.random_graph_instance(rng, n=int(rng.integers(2, 9)))
        )
        k = int(rng.integers(1, g.num_nodes() + 1))
        eps = float(rng.uniform(0.5, 4.0))
        seed = int(rng.integers(2**63))
        for mechanism in mechanisms.MECHANISMS:
            acc = BudgetAccountant()
            selector = graphs.TopKSelector(g, k, mechanism)
            res = selector.draw(np.random.default_rng(seed), eps, accountant=acc)
            if len(set(res.chosen)) != k:
                return False, f"{mechanism}: duplicate nodes in top-k"
            if abs(acc.total() - eps) > 1e-9:
                return False, f"{mechanism}: accountant total {acc.total()} != {eps}"
            oracle = oracles.topk_rounds_oracle(
                g, eps, k, mechanism, np.random.default_rng(seed)
            )
            if res.chosen != oracle:
                return False, (
                    f"{mechanism}: selector drew {res.chosen}, "
                    f"per-round oracle {oracle}"
                )
    return True, ""


def _check_graph_ordering(rng):
    problem = graphs.ebc_problem(fixtures.example_graph(), global_sensitivity=7.5)
    enum = oracles.edge_flip_enumerator()
    raw = oracles.brute_sensitivity(problem, enum, node_budget=500_000)
    flat = bound_sensitivity(
        flatten_sensitivity(raw, problem),
        problem.global_sensitivity, problem.database_size,
    )
    ddeg = bound_sensitivity(
        graphs.delta_ebc(), problem.global_sensitivity, problem.database_size
    )
    _, em = mechanisms.select_exponential(problem, 2.0, rng)
    _, ld = mechanisms.select_local_dampening(problem, flat, 2.0, rng)
    _, sld = mechanisms.select_shifted_local_dampening(problem, ddeg, 2.0, rng)
    p_em = em.probability_of("a") + em.probability_of("b")
    p_ld = ld.probability_of("a") + ld.probability_of("b")
    p_sld = sld.probability_of("a") + sld.probability_of("b")
    ok = p_sld >= p_ld - 1e-9 and p_ld >= p_em - 1e-9
    return ok, f"top-pair mass em={p_em:.3f} ld={p_ld:.3f} sld={p_sld:.3f}"


# -- trees ---------------------------------------------------------------------


def _check_ig_global_bound(rng, trials=30):
    schema = fixtures.TINY_TABLE_SCHEMA
    for _ in range(trials):
        n = int(rng.integers(0, 200))
        rows = [
            {"A": int(rng.integers(2)), "y": ("c0", "c1")[int(rng.integers(2))]}
            for _ in range(n)
        ]
        table = trees.LabeledTable(schema, rows)
        if oracles.ls0_ig(table, "A") > trees.global_sensitivity_ig(n) + 1e-9:
            return False, f"ls0 above global bound at n={n}"
    # the single-value, single-class table attains the size-n maximum f(n)
    n = 50
    worst = trees.LabeledTable(schema, [{"A": 0, "y": "c0"}] * n)
    attained = oracles.ls0_ig(worst, "A")
    if abs(attained - trees.f_add(n)) > 1e-12:
        return False, f"worst case attains {attained}, expected f({n})"
    return True, ""


def _check_f_g_monotone(rng):
    # exact, with no tolerance: the frontier pruning of ls_t_ig rests on the
    # stored F being nondecreasing and G nonincreasing
    F, G = trees._potentials(10_001)
    for name, steps in (("F", np.diff(F)), ("G", -np.diff(G))):
        bad = np.flatnonzero(steps < 0)
        if len(bad):
            return False, f"{name} breaks monotonicity at x={int(bad[0]) + 1}"
    return True, ""


def _check_builder(rng, trials=4):
    table = fixtures.separable_table()
    attrs = fixtures.TOY_TABLE_ATTRIBUTES
    for _ in range(trials):
        eps = float(rng.uniform(0.5, 5.0))
        depth = int(rng.integers(1, 4))
        variant = ("global", "local", "shifted")[int(rng.integers(3))]
        tree, acc = trees.build_diffp_id3(
            table, attrs, depth, eps, variant, rng
        )
        if abs(acc.total() - eps) > 1e-9 * max(1.0, eps):
            return False, f"budget {acc.total()} != {eps}"
        if not _no_repeats(tree, ()):
            return False, "attribute repeated along a path"
    return True, ""


def _no_repeats(node, path) -> bool:
    if isinstance(node, trees.Leaf):
        return True
    if node.attribute in path:
        return False
    return all(
        _no_repeats(child, path + (node.attribute,))
        for _, child in node.children
    )


def _check_id3_equality(rng):
    table = fixtures.separable_table()
    attrs = fixtures.TOY_TABLE_ATTRIBUTES
    oracle = trees.build_id3(table, attrs, 2)
    for variant in trees.VARIANTS:
        tree, _ = trees.build_diffp_id3(
            table, attrs, 2, 1e6, variant, np.random.default_rng(11)
        )
        if tree != oracle:
            return False, f"{variant} diverged from the exact induction"
    return True, ""


def _check_cv_equals_oracle(rng):
    # the level-synchronous cross-validation against one recursive build
    # per fold, on a random small table
    table = fixtures.random_induction_table(rng, max_rows=60)
    if len(table) < 2:
        table = fixtures.separable_table()
    depth = int(rng.integers(0, 4))
    seed = int(rng.integers(2**32))
    for variant in trees.VARIANTS:
        got = trees.cross_validate(table, depth, 2.0, variant, seed, folds=3)
        want = oracles.cross_validate_oracle(table, depth, 2.0, variant, seed,
                                             folds=3)
        if got != want:
            return False, f"{variant} at depth {depth}: {got!r} != {want!r}"
    return True, ""


_SUITE_CHECKS = {
    "core": (
        ("em_instance_equality", _check_em_instance_equality),
        ("dampen_mirror_symmetry", _check_mirror_symmetry),
        ("shift_saturation", _check_shift_saturation),
        ("distribution_normalization", _check_distributions),
        ("budget_composition", _check_budget),
        ("faulty_delta_detected", _check_faulty_delta_detected),
    ),
    "sensitivity": (
        ("minimum_admissibility", _check_minimum_admissibility),
        ("flatten_equals_max", _check_flatten_is_max),
        ("bound_caps_and_stays_admissible", _check_bound_caps),
        ("bounded_dominates_constant", _check_bounded_dominates_constant),
    ),
    "percentile": (
        ("ls0_matches_oracle", _check_percentile_ls0),
        ("ls_t_matches_bfs", _check_percentile_ls_t),
        ("bounded_below_cap", _check_percentile_bounded),
        ("percentile_delta_admissible", _check_percentile_delta_admissible),
        ("error_ordering", _check_percentile_ordering),
    ),
    "graph": (
        ("ebc_matches_oracle", _check_ebc_oracle),
        ("delta_ebc_admissible", _check_delta_ebc_admissible),
        ("per_node_flip_bound", _check_flip_bound),
        ("privtopk_budget_and_uniqueness", _check_privtopk),
        ("worked_example_ordering", _check_graph_ordering),
    ),
    "tree": (
        ("ls0_below_global_bound", _check_ig_global_bound),
        ("movement_potentials_monotone", _check_f_g_monotone),
        ("builder_budget_and_paths", _check_builder),
        ("id3_equality_at_huge_budget", _check_id3_equality),
        ("cross_validation_equals_oracle", _check_cv_equals_oracle),
    ),
}


def run_checks(suite: str, seed: int = 0, budget_s: float | None = None) -> CheckReport:
    """Run one suite (or all); returns per-check pass/fail with witnesses.

    ``budget_s``, when given, adds a failing entry if the wall-clock run
    exceeds it.
    """
    if suite not in SUITES:
        raise InvalidInputError(f"unknown suite {suite!r}; choose from {SUITES}")
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    start = time.perf_counter()
    results = []
    for suite_name in names:
        for check_name, fn in _SUITE_CHECKS[suite_name]:
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    [seed, zlib.crc32(check_name.encode())]
                )
            )
            try:
                passed, detail = fn(rng)
            except Exception as exc:  # a crash is a failure with a witness
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            results.append(CheckResult(suite_name, check_name, passed, detail))
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed > budget_s:
        results.append(
            CheckResult(
                "runtime", "wall_clock_budget", False,
                f"{elapsed:.1f}s > {budget_s:.1f}s",
            )
        )
    return CheckReport(results=tuple(results), elapsed_s=elapsed)
