import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampen import cli, graphs, mechanisms
from dampen.core import (
    BudgetAccountant,
    ContractViolationError,
    InvalidInputError,
    SearchBudgetError,
    SensitivityFunction,
)
from dampen.fixtures import (
    example_graph,
    random_graph_instance,
    shared_neighbors_gadget,
    trend_graph,
)
from dampen.graphs import (
    EdgeGraph,
    TopKResult,
    TopKSelector,
    delta_ebc,
    delta_ebc_value,
    ebc,
    ebc_oracle,
    ebc_problem,
    ebc_scores,
    flat_delta_ebc,
    global_sensitivity_ebc,
    parse_edge_list,
    priv_topk,
    topk_accuracy,
    true_topk,
)
from dampen.mechanisms import (
    MAX_BREAKPOINT_STEPS,
    expected_error,
    select_exponential,
    select_local_dampening,
    select_shifted_local_dampening,
)
from dampen.oracles import (
    brute_sensitivity,
    check_admissibility,
    edge_flip_enumerator,
    topk_rounds_oracle,
)
from dampen.sensitivity import bound_sensitivity, flatten_sensitivity

from conftest import assert_same_distributions, counting, scored_candidates


class TestEbc:
    def test_gadget_scores(self):
        g = shared_neighbors_gadget()
        assert ebc(g, "a") == 7.5
        dropped = g.flip_edge("a", "b")
        assert ebc(dropped, "a") == 15.0

    def test_bridge_graph_score(self, bridge_graph):
        assert ebc(bridge_graph, "a") == 6.5
        assert ebc(bridge_graph, "b") == 6.5
        assert all(ebc(bridge_graph, f"v{i}") == 0.0 for i in range(6))

    def test_triangle_is_zero(self):
        g = EdgeGraph("xyz", [("x", "y"), ("y", "z"), ("x", "z")])
        assert all(ebc(g, v) == 0.0 for v in "xyz")

    def test_unknown_node_rejected(self, bridge_graph):
        with pytest.raises(InvalidInputError):
            ebc(bridge_graph, "nope")


class TestEbcOracle:
    def test_path_center(self):
        g = EdgeGraph("abc", [("a", "c"), ("c", "b")])
        assert ebc_oracle(g, "c") == 1.0
        assert ebc(g, "c") == 1.0

    def test_worked_examples(self, bridge_graph):
        assert ebc_oracle(bridge_graph, "a") == 6.5
        g = shared_neighbors_gadget()
        assert ebc_oracle(g, "a") == 7.5
        assert ebc_oracle(g.flip_edge("a", "b"), "a") == 15.0

    def test_agrees_with_fast_path_on_random_graphs(self, rng):
        for _ in range(40):
            g = random_graph_instance(rng, n=int(rng.integers(3, 10)))
            for v in g.nodes:
                assert ebc(g, v) == pytest.approx(ebc_oracle(g, v), abs=1e-9)

    def test_agrees_with_fast_path_on_er_graphs(self, rng):
        # about 200 nodes: neighbour bitsets span several machine words
        for p in (0.03, 0.1):
            g = random_graph_instance(rng, n=200, edge_prob=p)
            for v in g.nodes:
                assert ebc(g, v) == pytest.approx(ebc_oracle(g, v), abs=1e-9)

    def test_neighborhood_cap(self):
        g = shared_neighbors_gadget()
        with pytest.raises(SearchBudgetError):
            ebc_oracle(g, "a", max_neighborhood=3)


class TestSensitivityFormulas:
    def test_global_small_degree(self):
        g = EdgeGraph("abc", [("a", "b"), ("b", "c")])
        assert global_sensitivity_ebc(g) == 2.0   # max(0.5, 2)

    def test_global_formula_values(self):
        g = EdgeGraph(["x"], [], max_degree_bound=343)
        assert global_sensitivity_ebc(g) == pytest.approx(29_326.5)
        h = EdgeGraph(["x"], [], max_degree_bound=6)
        assert global_sensitivity_ebc(h) == 7.5

    def test_degree_based_delta_values(self, bridge_graph):
        isolated = EdgeGraph(["u", "v"], [])
        assert delta_ebc_value(isolated, 0, "u") == 0.0
        five = EdgeGraph(
            ["c", "x1", "x2", "x3", "x4", "x5"],
            [("c", f"x{i}") for i in range(1, 6)],
        )
        assert delta_ebc_value(five, 0, "c") == 5.0
        assert delta_ebc_value(five, 2, "c") == 10.5

    def test_degree_delta_admissible_on_random_graphs(self, rng):
        for _ in range(20):
            g = random_graph_instance(rng, n=6)
            problem = ebc_problem(g)
            report = check_admissibility(
                delta_ebc(), problem, edge_flip_enumerator(), max_t=2
            )
            assert report.passed, (g.edges(), report)

    def test_flat_degree_delta_admissible_on_random_graphs(self, rng):
        # the candidate-independent bound that local dampening runs on
        for _ in range(20):
            g = random_graph_instance(rng, n=6)
            report = check_admissibility(
                flat_delta_ebc(), ebc_problem(g), edge_flip_enumerator(),
                max_t=2,
            )
            assert report.passed, (g.edges(), report)

    def test_per_node_flip_bound(self, rng):
        for _ in range(15):
            g = random_graph_instance(rng, n=6)
            for flipped in edge_flip_enumerator().neighbors(g):
                for v in g.nodes:
                    d = max(g.degree(v), flipped.degree(v))
                    bound = max(d * (d - 1) / 4.0, float(d))
                    assert abs(ebc(g, v) - ebc(flipped, v)) <= bound + 1e-9


class TestPrivTopk:
    def test_full_range_is_a_permutation(self, bridge_graph, rng):
        res = priv_topk(bridge_graph, 4.0, 8, "em", rng)
        assert sorted(res.chosen) == sorted(bridge_graph.nodes)

    def test_generous_budget_finds_the_bridge_pair(self, bridge_graph, rng):
        acc = BudgetAccountant()
        res = priv_topk(
            bridge_graph, 2e5, 2, "sld", rng, accountant=acc,
            global_sensitivity=7.5,
        )
        assert set(res.chosen) == {"a", "b"}
        # exact two-step composition: the probability of drawing exactly
        # {a, b} is the product of per-iteration masses
        problem = ebc_problem(bridge_graph, global_sensitivity=7.5)
        delta = bound_sensitivity(delta_ebc(), 7.5, problem.database_size)
        _, first = select_shifted_local_dampening(problem, delta, 1e5, rng)
        mass = 0.0
        for lead in ("a", "b"):
            rest = tuple(v for v in bridge_graph.nodes if v != lead)
            reduced = ebc_problem(
                bridge_graph, candidates=rest, global_sensitivity=7.5
            )
            _, second = select_shifted_local_dampening(reduced, delta, 1e5, rng)
            other = "b" if lead == "a" else "a"
            mass += first.probability_of(lead) * second.probability_of(other)
        assert mass > 0.999

    def test_single_pick_equals_exponential_example(self, bridge_graph, rng):
        acc = BudgetAccountant()
        res = priv_topk(
            bridge_graph, 2.0, 1, "em", rng, accountant=acc,
            global_sensitivity=7.5,
        )
        assert len(res.chosen) == 1
        problem = ebc_problem(bridge_graph, global_sensitivity=7.5)
        _, dist = select_exponential(problem, 2.0, rng)
        assert dist.probability_of("a") == pytest.approx(0.22, abs=0.005)
        assert dist.probability_of("v2") == pytest.approx(0.09, abs=0.005)

    def test_budget_accounting_is_exact(self, bridge_graph, rng):
        for k in (1, 3, 7):
            acc = BudgetAccountant()
            eps = 1.0
            res = priv_topk(bridge_graph, eps, k, "pf", rng, accountant=acc,
                            scope=("topk", k))
            assert res.per_iteration_epsilon == pytest.approx(eps / k)
            assert acc.scope_total(("topk", k)) == pytest.approx(eps, abs=1e-12)
            assert len(set(res.chosen)) == k

    def test_k_bounds(self, bridge_graph, rng):
        with pytest.raises(InvalidInputError):
            priv_topk(bridge_graph, 1.0, 0, "em", rng)
        with pytest.raises(InvalidInputError):
            priv_topk(bridge_graph, 1.0, 9, "em", rng)


def _cycle(m):
    nodes = [f"c{i}" for i in range(m)]
    return EdgeGraph(nodes, [(nodes[i], nodes[(i + 1) % m]) for i in range(m)])


#: The bridge graph, a cycle whose nodes all tie at EBC 1, and an edgeless
#: graph, whose zero global sensitivity makes every mechanism uniform.
SELECTOR_GRAPHS = {
    "bridge": example_graph(),
    "tied": _cycle(6),
    "edgeless": EdgeGraph("pqrst", []),
}


def _broken_at(node, value):
    """An admissible, bounded-declared delta that returns ``value`` at one
    node and 1.0 elsewhere."""
    return SensitivityFunction(
        eval=lambda g, t, v: value if v == node else 1.0,
        declared_admissible=True,
        declared_bounded=True,
        name="broken",
    )


class TestTopKSelector:
    @pytest.mark.parametrize("mechanism", mechanisms.MECHANISMS)
    @pytest.mark.parametrize("name", sorted(SELECTOR_GRAPHS))
    @pytest.mark.parametrize("k_full", (False, True))
    def test_draws_equal_per_round_oracle(self, mechanism, name, k_full):
        g = SELECTOR_GRAPHS[name]
        k = g.num_nodes() if k_full else 1
        selector = TopKSelector(g, k, mechanism)
        for eps in (0.5, 8.0):
            for seed in range(6):
                drawn = selector.draw(np.random.default_rng(seed), eps).chosen
                oracle = topk_rounds_oracle(
                    g, eps, k, mechanism, np.random.default_rng(seed)
                )
                assert drawn == oracle
                assert len(set(drawn)) == k

    @pytest.mark.parametrize("mechanism", mechanisms.MECHANISMS)
    @pytest.mark.parametrize("name", sorted(SELECTOR_GRAPHS))
    def test_repeated_draws_equal_fresh_priv_topk(self, mechanism, name):
        g = SELECTOR_GRAPHS[name]
        for k in (1, g.num_nodes()):
            selector = TopKSelector(g, k, mechanism)
            for seed in range(4):
                acc = BudgetAccountant()
                again = selector.draw(np.random.default_rng(seed), 2.0,
                                      accountant=acc, scope="s")
                fresh = priv_topk(g, 2.0, k, mechanism,
                                  np.random.default_rng(seed), scope="s")
                assert again == fresh
                assert acc.scope_total("s") == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("mechanism", mechanisms.MECHANISMS)
    @pytest.mark.parametrize("name", sorted(SELECTOR_GRAPHS))
    def test_at_another_epsilon_equals_a_fresh_selector(self, mechanism, name):
        g = SELECTOR_GRAPHS[name]
        for k in (1, g.num_nodes()):
            shared = TopKSelector(g, k, mechanism)
            for eps in (0.5, 2.0, 8.0, 0.5):
                for seed in range(3):
                    drawn = shared.draw(np.random.default_rng(seed), eps)
                    assert drawn.per_iteration_epsilon == eps / k
                    fresh = TopKSelector(g, k, mechanism)
                    assert drawn == fresh.draw(np.random.default_rng(seed), eps)
            for eps in (0.0, -1.0, float("inf"), float("nan")):
                acc = BudgetAccountant()
                with pytest.raises(InvalidInputError, match="^per-round budget"):
                    shared.draw(np.random.default_rng(0), eps, accountant=acc)
                assert acc.scopes() == []
            # a refused draw leaves the selector as it was
            assert shared.draw(np.random.default_rng(0), 8.0) == (
                priv_topk(g, 8.0, k, mechanism, np.random.default_rng(0)))

    @pytest.mark.parametrize("mechanism", ("ld", "sld"))
    @pytest.mark.parametrize("bad", (float("nan"), -1.0))
    @pytest.mark.parametrize("k", (1, 8))
    def test_broken_delta_still_refused(self, bridge_graph, mechanism, bad, k):
        delta = _broken_at("a", bad)
        with pytest.raises(ContractViolationError, match="broken"):
            TopKSelector(bridge_graph, k, mechanism,
                         delta=delta).draw(np.random.default_rng(0), 1.0)
        with pytest.raises(ContractViolationError, match="broken"):
            priv_topk(bridge_graph, 1.0, k, mechanism,
                      np.random.default_rng(0), delta=delta)

    def test_prepared_equals_distribution_over_the_subset(self, bridge_problem):
        n = bridge_problem.database_size
        deltas = {"em": None, "pf": None,
                  "ld": bound_sensitivity(flat_delta_ebc(), 7.5, n),
                  "sld": bound_sensitivity(delta_ebc(), 7.5, n)}
        nodes = bridge_problem.candidates
        for mechanism, delta in deltas.items():
            prepared = mechanisms.Prepared(mechanism, bridge_problem, delta)
            for keep in ([0, 2, 5], [1], list(range(len(nodes)))):
                sub = prepared.distribution(1.5, keep)
                direct = mechanisms.distribution(
                    mechanism,
                    ebc_problem(bridge_problem.database,
                                candidates=[nodes[i] for i in keep],
                                global_sensitivity=7.5),
                    1.5, delta,
                )
                assert sub.candidates == direct.candidates
                assert np.array_equal(sub.scores, direct.scores)
                assert np.array_equal(sub.probabilities, direct.probabilities)

    def test_sld_rounds_dampen_each_value_once(self, bridge_graph, monkeypatch):
        calls = []
        real = mechanisms.dampen

        def counted(problem, delta, r, u, *tails):
            calls.append((r, u))
            return real(problem, delta, r, u, *tails)

        monkeypatch.setattr(mechanisms, "dampen", counted)
        selector = TopKSelector(bridge_graph, 8, "sld")
        for seed in range(3):
            selector.draw(np.random.default_rng(seed), 1.0)
        assert len(calls) == len(set(calls))
        # the shift moves only when a round picks a node of top utility
        assert len(calls) < 3 * 8 * 9 / 2

    def test_sld_prefix_scores_equal_the_walk_on_a_hub_graph(self, monkeypatch):
        # three hubs over a random path plus random edges; every round
        # removes the top node, so the shift moves every round
        rng = np.random.default_rng(11)
        m = 150
        order = rng.permutation(m)
        edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
        for hub in range(3):
            edges |= {(hub, int(v)) for v in rng.choice(m, m // 3) if v > hub}
        while len(edges) < 3 * m:
            a, b = sorted(int(x) for x in rng.choice(m, 2, replace=False))
            edges.add((a, b))
        graph = EdgeGraph([f"n{v}" for v in range(m)],
                          [(f"n{a}", f"n{b}") for a, b in sorted(edges)])
        base = ebc_problem(graph)
        delta = bound_sensitivity(delta_ebc(), base.global_sensitivity,
                                  base.database_size)
        real = mechanisms.dampen
        scored_nodes = scored_candidates(monkeypatch)
        prepared = mechanisms.Prepared("sld", base, delta)
        u = base.utilities()
        n_gs = base.database_size * base.global_sensitivity
        keep = list(range(m))
        scored, offsets = 0, set()
        for _ in range(5):
            offset = -(n_gs + max(u[i] for i in keep))
            offsets.add(offset)
            # with epsilon 2, each score is its D exactly
            got = prepared.distribution(2.0, keep).scores.tolist()
            assert got == [real(base, delta, base.candidates[i], u[i] + offset)
                           for i in keep]
            scored += len(keep)
            keep.remove(max(keep, key=lambda i: (u[i], -i)))
        # 740 scores over 5 shifts: 150 in one array pass, 590 from the
        # kept prefixes
        assert len(offsets) == 5
        assert (scored, len(scored_nodes), len(set(scored_nodes))) == (
            740, m, m)

    def test_em_and_ld_score_each_node_once(self, bridge_graph, monkeypatch):
        calls = scored_candidates(monkeypatch)
        selector = TopKSelector(bridge_graph, 8, "ld")
        for seed in range(3):
            selector.draw(np.random.default_rng(seed), 1.0)
        assert sorted(calls) == sorted(bridge_graph.nodes)

    @pytest.mark.parametrize("mechanism", mechanisms.MECHANISMS)
    def test_every_mechanism_looks_each_node_up_once(self, bridge_graph,
                                                     mechanism, monkeypatch):
        calls = []
        real = graphs.EdgeGraph.ebc_score

        def counted(graph, v):
            calls.append(v)
            return real(graph, v)

        monkeypatch.setattr(graphs.EdgeGraph, "ebc_score", counted)
        selector = TopKSelector(bridge_graph, 8, mechanism)
        for seed in range(3):
            selector.draw(np.random.default_rng(seed), 1.0)
        assert sorted(calls) == sorted(bridge_graph.nodes)

    def test_validation_at_construction(self, bridge_graph):
        with pytest.raises(InvalidInputError):
            TopKSelector(bridge_graph, 1, "em").draw(
                np.random.default_rng(0), 0.0)
        with pytest.raises(InvalidInputError):
            TopKSelector(bridge_graph, 9, "em")
        with pytest.raises(InvalidInputError):
            TopKSelector(bridge_graph, 1, "gumbel")
        with pytest.raises(InvalidInputError):
            TopKSelector(bridge_graph, 1, "ld").draw(
                np.random.default_rng(0), float("inf"))


class TestTopkAccuracy:
    def test_overlap_fractions(self, bridge_graph):
        truth = true_topk(bridge_graph, 2)
        assert set(truth) == {"a", "b"}
        exact = TopKResult(chosen=truth, per_iteration_epsilon=1.0,
                           accountant_scope="s")
        assert topk_accuracy(exact, bridge_graph, 2) == 1.0
        disjoint = TopKResult(chosen=("v0", "v1"), per_iteration_epsilon=1.0,
                              accountant_scope="s")
        assert topk_accuracy(disjoint, bridge_graph, 2) == 0.0
        half = TopKResult(chosen=("a", "v0"), per_iteration_epsilon=1.0,
                          accountant_scope="s")
        assert topk_accuracy(half, bridge_graph, 2) == 0.5


class TestMechanismOrdering:
    def test_single_pick_mass_and_error_ordering(self, bridge_problem, rng):
        enum = edge_flip_enumerator()
        raw = brute_sensitivity(bridge_problem, enum, node_budget=500_000)
        flat = bound_sensitivity(
            flatten_sensitivity(raw, bridge_problem),
            bridge_problem.global_sensitivity, bridge_problem.database_size,
        )
        degree = bound_sensitivity(
            delta_ebc(), bridge_problem.global_sensitivity,
            bridge_problem.database_size,
        )
        _, em = select_exponential(bridge_problem, 2.0, rng)
        _, ld = select_local_dampening(bridge_problem, flat, 2.0, rng)
        _, sld = select_shifted_local_dampening(bridge_problem, degree, 2.0, rng)
        mass = {
            d.mechanism: d.probability_of("a") + d.probability_of("b")
            for d in (em, ld, sld)
        }
        assert mass["sld"] >= mass["ld"] >= mass["em"]
        errs = {d.mechanism: expected_error(d, bridge_problem)
                for d in (em, ld, sld)}
        assert errs["sld"] <= errs["ld"] + 1e-9 <= errs["em"] + 2e-9

    def test_trend_graph_sweep(self, rng):
        g = trend_graph()
        problem = ebc_problem(g)
        assert problem.global_sensitivity == 390.0    # pessimistic public bound
        enum = edge_flip_enumerator()
        raw = brute_sensitivity(problem, enum, node_budget=500_000)
        flat = bound_sensitivity(
            flatten_sensitivity(raw, problem),
            problem.global_sensitivity, problem.database_size,
        )
        degree = bound_sensitivity(
            delta_ebc(), problem.global_sensitivity, problem.database_size
        )
        for eps in (0.1, 1.0, 10.0):
            _, em = select_exponential(problem, eps, rng)
            _, ld = select_local_dampening(problem, flat, eps, rng)
            _, sld = select_shifted_local_dampening(problem, degree, eps, rng)
            e = [expected_error(d, problem) for d in (sld, ld, em)]
            assert e[0] <= e[1] + 1e-9 <= e[2] + 2e-9


class TestEdgeListParsing:
    def test_comments_dupes_and_loops(self):
        text = "# a comment\nu v\nv u\nw w\nu w\n"
        graph, report = parse_edge_list(io.StringIO(text))
        assert graph.num_edges() == 2
        assert report == {
            "edges_kept": 2, "duplicates_dropped": 1,
            "self_loops_dropped": 1, "comment_lines": 1,
        }

    def test_malformed_line_is_numbered(self):
        with pytest.raises(InvalidInputError, match="line 2"):
            parse_edge_list(io.StringIO("a b\na b c\n"))

    def test_node_order_is_first_seen(self):
        graph, _ = parse_edge_list(io.StringIO("b a\nc a\n"))
        assert graph.nodes == ("b", "a", "c")


_pairs = st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(
    lambda p: p[0] != p[1])


class TestEdgeGraphBitsets:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 12), pairs=st.lists(_pairs, max_size=30),
           flips=st.lists(_pairs, max_size=10))
    def test_agree_with_an_edge_set(self, n, pairs, flips):
        # labels sort against node order, so edges() must follow indices
        nodes = tuple(f"v{n - i:02d}" for i in range(n))
        pairs = [(i % n, j % n) for i, j in pairs if i % n != j % n]
        flips = [(i % n, j % n) for i, j in flips if i % n != j % n]
        want = {frozenset(p) for p in pairs}
        seen = [(EdgeGraph(nodes, [(nodes[i], nodes[j]) for i, j in pairs]),
                 frozenset(want))]
        for i, j in flips:
            want ^= {frozenset((i, j))}
            seen.append((seen[-1][0].flip_edge(nodes[i], nodes[j]),
                         frozenset(want)))
        for g, edge_set in seen:
            ordered = sorted(tuple(sorted(e)) for e in edge_set)
            assert g.edges() == [(nodes[i], nodes[j]) for i, j in ordered]
            assert g.num_edges() == len(edge_set)
            rebuilt = EdgeGraph(nodes, [(nodes[j], nodes[i]) for i, j in ordered])
            assert g == rebuilt and hash(g) == hash(rebuilt)
            for h, other_set in seen:
                assert (g == h) == (edge_set == other_set)

    @pytest.mark.parametrize("nodes, edges, message", [
        (["a"], [("a", "b")], "edge ('a', 'b') names unknown node 'b'"),
        (["a", "b"], [("a", "b"), ("z", "a")],
         "edge ('z', 'a') names unknown node 'z'"),
        ([], [(1, 2)], "edge (1, 2) names unknown node 1"),
        (["a"], [("a", "a")], "self-loop at 'a'"),
    ])
    def test_refuses_edges_off_the_node_list(self, nodes, edges, message):
        with pytest.raises(InvalidInputError) as exc:
            EdgeGraph(nodes, edges)
        assert str(exc.value) == message


class TestEdgeGraphMemo:
    def test_max_degree_follows_flips_and_bound(self):
        star = EdgeGraph("cxyz", [("c", "x"), ("c", "y"), ("c", "z")])
        assert star.max_degree() == 3
        assert star.flip_edge("c", "x").max_degree() == 2
        assert star.flip_edge("x", "y").max_degree() == 3
        bounded = EdgeGraph("cxyz", [("c", "x")], max_degree_bound=9)
        assert bounded.max_degree() == 9
        assert bounded.flip_edge("y", "z").max_degree() == 9

    def test_ebc_scored_once_per_graph(self, monkeypatch):
        calls = []
        real = graphs.ebc

        def counted(g, c):
            calls.append(c)
            return real(g, c)

        monkeypatch.setattr(graphs, "ebc", counted)
        g = example_graph()
        first = ebc_scores(g)
        true_topk(g, 2)
        utility = ebc_problem(g).utility
        assert [utility(g, v) for v in g.nodes] == [first[v] for v in g.nodes]
        assert sorted(calls) == sorted(g.nodes)
        # a flipped copy is a new graph with its own scores
        flipped = g.flip_edge("a", "b")
        assert ebc_scores(flipped)["a"] == ebc(flipped, "a")
        assert len(calls) == 2 * len(g.nodes)


class TestDegreeBound:
    def test_negative_bound_rejected(self):
        with pytest.raises(InvalidInputError, match=">= 0"):
            EdgeGraph(["x"], [], max_degree_bound=-1)

    def test_bound_below_observed_degree_rejected(self):
        star = [("c", "x"), ("c", "y"), ("c", "z")]
        with pytest.raises(InvalidInputError, match="observed max degree 3"):
            EdgeGraph("cxyz", star, max_degree_bound=2)
        with pytest.raises(InvalidInputError):
            example_graph(max_degree_bound=4)
        assert EdgeGraph("cxyz", star, max_degree_bound=3).max_degree() == 3
        assert EdgeGraph(["x"], [], max_degree_bound=0).max_degree() == 0

    def test_flip_neighbors_keep_the_bound_unchecked(self):
        path = EdgeGraph("cxyz", [("c", "x"), ("c", "y")], max_degree_bound=2)
        flipped = path.flip_edge("c", "z")
        assert flipped.degree("c") == 3
        assert flipped.max_degree() == 2


def hub_graph(rng, m, hubs=3, max_degree_bound=None):
    """A random path, ``hubs`` nodes wired to a third of the others, and
    random edges up to 2m in all."""
    order = rng.permutation(m)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    for hub in range(min(hubs, m)):
        edges |= {(hub, int(v)) for v in rng.choice(m, m // 3) if v > hub}
    while len(edges) < min(2 * m, m * (m - 1) // 2):
        a, b = sorted(int(x) for x in rng.choice(m, 2, replace=False))
        edges.add((a, b))
    return EdgeGraph(range(m), sorted(edges),
                     max_degree_bound=max_degree_bound)


class TestDegreeTable:
    """``delta_ebc`` and ``flat_delta_ebc`` serve one row per distinct
    degree in closed form, the floats of their ``eval``."""

    def graphs(self):
        rng = np.random.default_rng(23)
        out = [EdgeGraph(["x"], []), example_graph(), trend_graph()]
        for m in (2, 5, 40, 150):
            out.append(random_graph_instance(rng, n=m, edge_prob=0.2))
            out.append(hub_graph(rng, m))
            d = max(map(int.bit_count, out[-1]._adj))
            out.append(hub_graph(rng, m, max_degree_bound=d + 7))
        return out

    def test_rows_equal_eval(self):
        for g in self.graphs():
            degrees = {g.degree(v) for v in g.nodes}
            for raw, count in ((delta_ebc(), len(degrees)),
                               (flat_delta_ebc(), 1)):
                for lo, hi in ((0, 30), (8, 30)):
                    rows, levels = raw.table(g, lo, hi)
                    assert levels.shape == (count, hi - lo)
                    for v in g.nodes:
                        assert levels[rows[v]].tolist() == [
                            raw(g, t, v) for t in range(lo, hi)]
                        if raw.name == "delta_ebc":
                            assert levels[rows[v]].tolist() == [
                                delta_ebc_value(g, t, v)
                                for t in range(lo, hi)]

    def test_ld_and_sld_scores_equal_the_per_step_walk(self):
        for g in self.graphs():
            problem = ebc_problem(g)
            gs, n = problem.global_sensitivity, problem.database_size
            for raw in (delta_ebc(), flat_delta_ebc()):
                delta = bound_sensitivity(raw, gs, n)
                per_step = bound_sensitivity(
                    dataclasses.replace(raw, table=None), gs, n)
                for mechanism in ("ld", "sld"):
                    # with epsilon 2, each score is its D exactly
                    fast = mechanisms.distribution(mechanism, problem, 2.0,
                                                   delta)
                    slow = mechanisms.distribution(mechanism, problem, 2.0,
                                                   per_step)
                    assert fast.scores.tolist() == slow.scores.tolist()


class TestTrueTopk:
    def test_order_is_kept_and_ties_follow_node_order(self):
        g = example_graph()
        full = true_topk(g, g.num_nodes())
        assert full == ("a", "b", "v0", "v1", "v2", "v3", "v4", "v5")
        assert all(true_topk(g, k) == full[:k] for k in range(1, 9))
        assert g._ebc_order == full
        assert true_topk(_cycle(5), 3) == ("c0", "c1", "c2")


class TestSaturatedWalkOnGraphs:
    """The degree bound saturates at GS after at most D - deg(v) steps; the
    walk that stops there must give the full walk's distributions."""

    def _graphs(self):
        rng = np.random.default_rng(11)
        out = [example_graph(), trend_graph(), shared_neighbors_gadget()]
        out += [random_graph_instance(rng, n=n, edge_prob=0.4)
                for n in (6, 9, 12, 15)]
        return out

    def test_distributions_match_full_walk(self):
        for g in self._graphs():
            problem = ebc_problem(g)
            gs, n = problem.global_sensitivity, problem.database_size
            for raw in (delta_ebc(), flat_delta_ebc()):
                delta = bound_sensitivity(raw, gs, n)
                assert delta.declared_nondecreasing_in_t
                assert_same_distributions(problem, delta)

    def test_sld_walk_stops_within_degree_gap(self):
        # per step, without the table; and the array pass over the table
        # stops at the same steps
        for g in self._graphs():
            problem = ebc_problem(g)
            gs, n = problem.global_sensitivity, problem.database_size
            counted, calls = counting(
                dataclasses.replace(delta_ebc(), table=None))
            delta = bound_sensitivity(counted, gs, n)
            select_shifted_local_dampening(problem, delta, 1.0,
                                           np.random.default_rng(0))
            d_max = g.max_degree()
            for v in g.nodes:
                assert calls.count(v) <= d_max - g.degree(v) + 1
            walked = {}
            for v in g.nodes:
                mechanisms.dampen(problem, delta, v, -2 * n * gs, walked)
                assert walked[v][0] <= d_max - g.degree(v)
            prepared = mechanisms.Prepared(
                "sld", problem, bound_sensitivity(delta_ebc(), gs, n))
            prepared.distribution(1.0)
            assert prepared._tails == walked

    def test_sld_topk_past_the_old_step_cap(self, tmp_path):
        # 448 nodes give 100,128 node pairs, more than the step cap that
        # unbounded sensitivity functions keep
        m = 448
        nodes = [f"c{i}" for i in range(m)]
        edges = [(nodes[i], nodes[(i + 1) % m]) for i in range(m)]
        g = EdgeGraph(nodes, edges)
        assert g.node_pairs() > MAX_BREAKPOINT_STEPS
        res = priv_topk(g, 1.0, 1, "sld", np.random.default_rng(0))
        assert len(res.chosen) == 1
        path = tmp_path / "cycle448.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in edges))
        out = tmp_path / "out.json"
        code = cli.main([
            "topk", "--graph", str(path), "--k", "1", "--epsilon", "1",
            "--mechanism", "sld", "--runs", "1", "--out", str(out),
        ])
        assert code == 0
        (row,) = json.loads(out.read_text())["results"]
        assert row["mechanism"] == "sld" and 0.0 <= row["value"] <= 1.0
