import dataclasses
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dampen.core import (
    BudgetAccountant,
    ContractViolationError,
    InvalidInputError,
    SelectionProblem,
    SensitivityFunction,
    constant_sensitivity,
)
from dampen.fixtures import (
    clustered_vector,
    random_graph_instance,
    random_table_instance,
    random_vector_instance,
    separable_table,
)
from dampen.graphs import EdgeGraph, delta_ebc, ebc_problem, flat_delta_ebc
from dampen import mechanisms as mechanisms_mod
from dampen.mechanisms import (
    MAX_BREAKPOINT_STEPS,
    MECHANISMS,
    Prepared,
    SelectionDistribution,
    dampen,
    distribution,
    error_tail,
    expected_error,
    gauss_legendre,
    select,
    select_exponential,
    select_local_dampening,
    select_permute_and_flip,
    select_shifted_local_dampening,
    score_together,
    shift_constant,
)
from dampen.oracles import (
    brute_sensitivity,
    edge_flip_enumerator,
    ls_percentile_sensitivity,
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
from dampen.trees import ig_problem, ig_sensitivity

from conftest import (
    assert_same_distributions,
    counting,
    full_walk,
    make_abstract_problem,
)


def step_delta(steps, tail=None, **kw):
    """Sensitivity function from an explicit per-distance step table."""
    last = steps[-1] if tail is None else tail
    return SensitivityFunction(
        eval=lambda db, t, r: steps[t] if t < len(steps) else last,
        declared_admissible=True,
        **kw,
    )


class TestDampen:
    def test_zero_utility_is_anchored(self, rng):
        problem = make_abstract_problem([1.0, 2.0], gs=3.0)
        for steps in ([3.0], [0.0, 0.0, 2.0], [1.0, 0.0, 4.0]):
            delta = step_delta(steps)
            assert dampen(problem, delta, 0, 0.0) == 0.0

    def test_constant_delta_scales_linearly(self):
        problem = make_abstract_problem([6.5], gs=7.5)
        delta = constant_sensitivity(7.5)
        assert dampen(problem, delta, 0, 6.5) == pytest.approx(6.5 / 7.5)

    def test_bridge_graph_score(self, bridge_problem, bridge_explorer):
        flat = {t: max(bridge_explorer.element_ls(t, v)
                       for v in bridge_problem.candidates) for t in (0, 1)}
        delta = step_delta([flat[0], flat[1]], tail=7.5,
                           declared_bounded=True, monotonicity="flat")
        assert flat == {0: 3.0, 1: 5.0}
        assert dampen(bridge_problem, delta, "a", 6.5) == pytest.approx(1.7)

    def test_zero_width_intervals_are_skipped(self):
        problem = make_abstract_problem([0.0], gs=2.0)
        delta = step_delta([0.0, 0.0, 2.0, 2.0])
        # first two intervals are empty; 1.0 sits in [b(2), b(3)) = [0, 2)
        assert dampen(problem, delta, 0, 1.0) == pytest.approx(2.5)

    def test_mirror_symmetry_exact(self, rng):
        problem = make_abstract_problem([1.0, 2.0, 3.0], gs=4.0)
        for _ in range(200):
            steps = list(rng.uniform(0, 3, size=10))
            delta = step_delta(steps)
            u = float(rng.uniform(-20, 20))
            assert dampen(problem, delta, 1, -u) == -dampen(problem, delta, 1, u)

    def test_bounded_tail_matches_iteration(self):
        # closed-form tail must agree with literally walking the grid
        problem = make_abstract_problem([0.0], gs=2.0, n=3)
        steps = [0.5, 1.0, 1.5]
        bounded = step_delta(steps, tail=2.0, declared_bounded=True)
        unbounded = step_delta(steps, tail=2.0)
        for u in (3.0, 4.2, 11.0, -9.7):
            assert dampen(problem, bounded, 0, u) == pytest.approx(
                dampen(problem, unbounded, 0, u)
            )

    def test_rejects_non_finite_utility(self):
        problem = make_abstract_problem([1.0], gs=1.0)
        delta = constant_sensitivity(1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidInputError):
                dampen(problem, delta, 0, bad)

    def test_rejects_negative_sensitivity_values(self):
        problem = make_abstract_problem([1.0], gs=1.0)
        delta = SensitivityFunction(
            eval=lambda db, t, r: -1.0, declared_admissible=True
        )
        with pytest.raises(ContractViolationError):
            dampen(problem, delta, 0, 0.5)


class TestExponential:
    def test_bridge_graph_probabilities(self, bridge_problem, rng):
        _, dist = select_exponential(bridge_problem, 2.0, rng)
        assert dist.probability_of("a") == pytest.approx(0.22, abs=0.005)
        assert dist.probability_of("b") == pytest.approx(0.22, abs=0.005)
        assert dist.probability_of("v0") == pytest.approx(0.09, abs=0.005)

    def test_equal_utilities_uniform(self, rng):
        problem = make_abstract_problem([5.0] * 6, gs=2.0)
        _, dist = select_exponential(problem, 1.0, rng)
        assert np.allclose(dist.probabilities, 1 / 6)

    def test_high_precision_reference(self, rng):
        # frozen from a 60-digit evaluation of the defining formula
        problem = make_abstract_problem([10.0, 20.0, 30.0], gs=100.0)
        _, dist = select_exponential(problem, 1.0, rng)
        expected = (0.31681240948559520, 0.33305572906545154, 0.35013186144895326)
        assert np.max(np.abs(dist.probabilities - expected)) < 1e-14

    def test_zero_sensitivity_degenerates_to_uniform(self, rng):
        problem = make_abstract_problem([1.0, 9.0], gs=0.0)
        _, dist = select_exponential(problem, 1.0, rng)
        assert np.allclose(dist.probabilities, 0.5)

    def test_rejects_nonpositive_epsilon(self, bridge_problem, rng):
        for eps in (0.0, -1.0):
            with pytest.raises(InvalidInputError):
                select_exponential(bridge_problem, eps, rng)


class TestPermuteAndFlip:
    def test_single_candidate_always_returned(self, rng):
        problem = make_abstract_problem([3.0], gs=1.0)
        assert select_permute_and_flip(problem, 0.5, rng) == 0

    def test_symmetric_pair_is_fair(self, rng):
        problem = make_abstract_problem([1.0, 1.0], gs=1.0)
        picks = [select_permute_and_flip(problem, 1.0, rng) for _ in range(40_000)]
        assert np.mean(picks) == pytest.approx(0.5, abs=0.01)

    def test_half_flip_analytic_value(self, rng):
        # with the worse candidate flipping heads half the time, enumerating
        # the two permutations gives P(best) = 1/2 + 1/4 = 0.75
        problem = make_abstract_problem([0.0, 1.0], gs=1.0)
        eps = 2 * math.log(2)
        runs = 1_200_000
        hits = sum(
            select_permute_and_flip(problem, eps, rng) == 1 for _ in range(runs)
        )
        assert hits / runs == pytest.approx(0.75, abs=0.002)

    def test_rejects_nonpositive_epsilon(self, rng):
        problem = make_abstract_problem([0.0, 1.0], gs=1.0)
        with pytest.raises(InvalidInputError):
            select_permute_and_flip(problem, 0.0, rng)


def enumerated_pf(utilities, epsilon, gs):
    """Permute-and-flip by enumerating every permutation: the first
    candidate whose coin lands heads, all coins before it tails."""
    u = np.asarray(utilities, dtype=float)
    p = np.exp(epsilon * (u - u.max()) / (2.0 * gs))
    probs = np.zeros(len(u))
    orders = list(itertools.permutations(range(len(u))))
    for order in orders:
        tails = 1.0
        for idx in order:
            probs[idx] += tails * p[idx] / len(orders)
            tails *= 1.0 - p[idx]
    return probs


class TestExactPermuteAndFlip:
    def test_matches_permutation_enumeration(self, rng):
        for k in range(1, 6):
            for _ in range(10):
                u = rng.uniform(-20, 20, size=k)
                if rng.random() < 0.3:
                    u[rng.integers(k)] = u.max()     # tied maximizers
                eps = float(rng.uniform(0.1, 5.0))
                dist = distribution("pf", make_abstract_problem(u, gs=3.0), eps)
                gap = np.max(np.abs(dist.probabilities - enumerated_pf(u, eps, 3.0)))
                assert gap <= 1e-12, (u, eps)

    def test_half_flip_is_exact(self):
        problem = make_abstract_problem([0.0, 1.0], gs=1.0)
        dist = distribution("pf", problem, 2 * math.log(2))
        assert np.max(np.abs(dist.probabilities - (0.25, 0.75))) <= 1e-12

    def test_zero_sensitivity_degenerates_to_uniform(self):
        problem = make_abstract_problem([1.0, 9.0, 4.0], gs=0.0)
        dist = distribution("pf", problem, 1.0)
        assert np.array_equal(dist.probabilities, np.full(3, 1 / 3))

    def test_never_worse_than_exponential(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 40))
            problem = make_abstract_problem(rng.uniform(0, 50, size=k), gs=5.0)
            for eps in (0.1, 1.0, 10.0):
                e_pf = expected_error(distribution("pf", problem, eps), problem)
                e_em = expected_error(distribution("em", problem, eps), problem)
                assert e_pf <= e_em + 1e-9

    def test_sampler_frequencies_match(self):
        rng = np.random.default_rng(8)
        problem = make_abstract_problem([0.0, 2.0, 3.0, 3.0, 5.0, 1.0], gs=2.0)
        want = distribution("pf", problem, 1.5).probabilities
        runs = 40_000
        picks = [select_permute_and_flip(problem, 1.5, rng) for _ in range(runs)]
        freq = np.bincount(picks, minlength=len(want)) / runs
        tol = 5 * np.sqrt(want * (1 - want) / runs)
        assert np.all(np.abs(freq - want) <= tol), (freq, want)

    def test_fill_memory_is_bounded(self):
        rng = np.random.default_rng(9)
        problem = make_abstract_problem(rng.uniform(0, 100, size=10_000), gs=50.0)
        tracemalloc.start()
        try:
            dist = distribution("pf", problem, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole (candidate, node) grid would take 400 MB
        assert peak < 8 * 2**20, peak
        assert dist.probabilities.argmax() == int(np.argmax(problem.database))


class TestGaussLegendre:
    def test_matches_leggauss(self):
        for m in [*range(1, 65), 100, 257, 500, 999, 1000]:
            nodes, weights = gauss_legendre(m)
            want_nodes, want_weights = np.polynomial.legendre.leggauss(m)
            # ascending from leggauss, descending here
            assert np.max(np.abs(nodes[::-1] - want_nodes)) <= 1e-15, m
            assert np.max(np.abs(weights[::-1] - want_weights)) <= 1e-13, m

    def test_outermost_weights_against_high_precision(self):
        # leggauss itself is off by about 1e-8 relative here
        m = 1000
        nodes, weights = gauss_legendre(m)
        for i in (0, 1):
            with mpmath.workdps(30):
                x = mpmath.mpf(nodes[i])
                for _ in range(3):
                    p, q = mpmath.legendre(m, x), mpmath.legendre(m - 1, x)
                    dp = m * (x * p - q) / (x * x - 1)
                    x -= p / dp
                exact = float(2 / ((1 - x * x) * dp * dp))
            assert abs(weights[i] - exact) <= 1e-10 * exact, i

    def test_integrates_polynomials_below_degree_2m(self):
        for m in range(1, 13):
            nodes, weights = gauss_legendre(m)
            for j in range(2 * m):
                exact = 0.0 if j % 2 else 2.0 / (j + 1)
                assert abs(weights @ nodes**j - exact) <= 1e-13, (m, j)


class TestDistribution:
    def test_select_draws_like_the_per_mechanism_samplers(self):
        problem = make_abstract_problem([0.0, 4.0, 1.5, 4.0, 2.5], gs=3.0)
        delta = constant_sensitivity(3.0)
        samplers = {
            "em": lambda g: select_exponential(problem, 0.7, g)[0],
            "pf": lambda g: select_permute_and_flip(problem, 0.7, g),
            "ld": lambda g: select_local_dampening(problem, delta, 0.7, g)[0],
            "sld": lambda g: select_shifted_local_dampening(
                problem, delta, 0.7, g)[0],
        }
        for tag in MECHANISMS:
            a, b = np.random.default_rng(3), np.random.default_rng(3)
            for _ in range(50):
                assert select(tag, problem, 0.7, a, delta=delta) == samplers[tag](b)
            assert a.random() == b.random(), tag

    def test_samplers_return_the_exact_distribution(self, rng):
        problem = make_abstract_problem([0.0, 4.0, 1.5], gs=3.0)
        delta = step_delta([1.0, 2.0], tail=3.0, declared_bounded=True)
        for tag, sampler in (("ld", select_local_dampening),
                             ("sld", select_shifted_local_dampening)):
            _, dist = sampler(problem, delta, 0.7, rng)
            exact = distribution(tag, problem, 0.7, delta)
            assert np.array_equal(dist.probabilities, exact.probabilities)

    def test_rejects_bad_tags_and_missing_delta(self):
        problem = make_abstract_problem([0.0, 1.0], gs=1.0)
        for tag, delta in (("nope", None), ("ld", None), ("sld", None)):
            with pytest.raises(InvalidInputError):
                distribution(tag, problem, 1.0, delta)


def sub_problem(problem, keep):
    return dataclasses.replace(
        problem, candidates=tuple(problem.candidates[i] for i in keep))


def dampen_calls(monkeypatch):
    """Record the (candidate, value) of every ``dampen`` call."""
    calls = []
    real = mechanisms_mod.dampen

    def counted(problem, delta, r, u, *tails):
        calls.append((r, u))
        return real(problem, delta, r, u, *tails)

    monkeypatch.setattr(mechanisms_mod, "dampen", counted)
    return calls


class TestPrepared:
    UTILITIES = [0.0, 4.0, 1.5, 4.0, -2.5]
    KEEPS = ([2], [0, 3, 4], [1, 2, 3, 4], [0, 1, 2, 3, 4])
    UP = step_delta([0.5, 1.0, 2.0], tail=3.0, declared_bounded=True)
    DOWN = SensitivityFunction(
        eval=lambda db, t, r: min(0.5 + 0.25 * r + 0.5 * t, 3.0),
        declared_admissible=True, declared_bounded=True,
        monotonicity="non_increasing",
    )
    CASES = [("em", None, None), ("pf", None, None), ("ld", UP, None),
             ("sld", UP, None), ("sld", UP, 40.0), ("sld", DOWN, None),
             ("sld", DOWN, 40.0)]

    @pytest.mark.parametrize("gs", (3.0, 0.0))
    @pytest.mark.parametrize("tag, delta, shift", CASES)
    def test_subset_equals_a_fresh_problem(self, tag, delta, shift, gs):
        problem = make_abstract_problem(self.UTILITIES, gs=gs)
        prepared = Prepared(tag, problem, delta)
        for eps in (0.3, 2.0):
            for keep in self.KEEPS:
                sub = sub_problem(problem, keep)
                got = prepared.distribution(eps, keep, shift)
                want = distribution(tag, sub, eps, delta, shift)
                assert got.candidates == want.candidates
                assert np.array_equal(got.scores, want.scores)
                assert np.array_equal(got.probabilities, want.probabilities)
                if shift is None:
                    a, b = np.random.default_rng(7), np.random.default_rng(7)
                    picked = prepared.select(eps, a, keep)
                    assert sub.candidates[picked] == select(tag, sub, eps, b, delta)
                    assert a.random() == b.random()

    def test_full_range_is_the_default(self):
        problem = make_abstract_problem(self.UTILITIES, gs=3.0)
        got = Prepared("ld", problem, self.UP).distribution(0.7)
        want = distribution("ld", problem, 0.7, self.UP)
        assert np.array_equal(got.probabilities, want.probabilities)

    @pytest.mark.parametrize("delta", (UP, DOWN))
    def test_each_candidate_is_walked_once(self, delta, monkeypatch):
        calls = dampen_calls(monkeypatch)
        problem = make_abstract_problem(self.UTILITIES, gs=3.0)
        # rounds as in top-k: the UP shift moves once both candidates of
        # utility 4.0 are gone, the DOWN shift once -2.5 is gone; a moved
        # shift scores the kept candidates from their walk's tail
        rounds = ([0, 1, 2, 3, 4], [0, 2, 3, 4], [0, 2, 4], [0, 2])
        for tag in ("ld", "sld"):
            calls.clear()
            prepared = Prepared(tag, problem, delta)
            for eps in (0.3, 1.0, 4.0):
                for keep in rounds:
                    prepared.distribution(eps, keep)
            assert sorted(r for r, _ in calls) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("tag, gs", [("em", 1.0), ("pf", 0.25),
                                         ("ld", 1.0), ("sld", 1.0)])
    def test_overflowing_scores_give_the_limit(self, tag, gs):
        # +inf scores (em, ld), -inf for all (sld), inf * 0 (pf): the limit
        # as epsilon grows is uniform over the top utilities
        problem = make_abstract_problem([1.0, 3.0, 3.0, -2.0], gs=gs)
        prepared = Prepared(tag, problem, constant_sensitivity(gs))
        dist = prepared.distribution(1e308)
        assert not np.isfinite(dist.scores.max())
        assert dist.probabilities.tolist() == [0.0, 0.5, 0.5, 0.0]
        assert prepared.distribution(1e308, [0, 3]).probabilities.tolist() == [
            1.0, 0.0]
        picks = {prepared.select(1e308, np.random.default_rng(s))
                 for s in range(20)}
        assert picks == {1, 2}


def pf_walk(u, epsilon, gs, rng):
    """Permute-and-flip as one walk over numpy scalars."""
    u = np.asarray(u, dtype=float)
    if gs == 0:
        return int(rng.integers(len(u)))
    u_star, rate = u.max(), epsilon / (2.0 * gs)
    for idx in rng.permutation(len(u)):
        gap = u_star - u[idx]
        if rng.random() < (math.exp(-rate * gap) if gap else 1.0):
            return int(idx)


class TestLeanSelect:
    """``Prepared.select`` draws what sampling ``distribution`` would, with
    the same generator state, without building the distribution."""

    UTILITIES = TestPrepared.UTILITIES
    KEEPS = (None, [3], [0, 3, 4], [0, 1, 2, 3, 4])
    CASES = [("em", None), ("ld", TestPrepared.UP), ("sld", TestPrepared.UP),
             ("sld", TestPrepared.DOWN)]

    def assert_draws_like_distribution(self, prepared, eps, keep):
        for seed in range(6):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            p = prepared.distribution(eps, keep).probabilities
            want = mechanisms_mod._sample(range(len(p)), p, b)
            assert prepared.select(eps, a, keep) == want
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("gs", (3.0, 0.0))
    @pytest.mark.parametrize("tag, delta", CASES)
    def test_same_index_and_generator_state(self, tag, delta, gs):
        prepared = Prepared(tag, make_abstract_problem(self.UTILITIES, gs=gs),
                            delta)
        for eps in (0.3, 2.0):
            for keep in self.KEEPS:
                self.assert_draws_like_distribution(prepared, eps, keep)

    @pytest.mark.parametrize("tag", ("em", "ld", "sld"))
    def test_overflow_limit(self, tag):
        problem = make_abstract_problem([1.0, 3.0, 3.0, -2.0], gs=1.0)
        prepared = Prepared(tag, problem, constant_sensitivity(1.0))
        for keep in (None, [0, 3], [1, 2, 3]):
            self.assert_draws_like_distribution(prepared, 1e308, keep)

    @pytest.mark.parametrize("gs", (3.0, 0.25, 0.0))
    def test_pf_walk_is_unchanged(self, gs):
        problem = make_abstract_problem(self.UTILITIES, gs=gs)
        prepared = Prepared("pf", problem)
        u = np.array(self.UTILITIES)
        for eps in (0.3, 2.0, 1e308):
            for keep in self.KEEPS:
                sub = u if keep is None else u[keep]
                for seed in range(20):
                    a = np.random.default_rng(seed)
                    b = np.random.default_rng(seed)
                    assert prepared.select(eps, a, keep) == pf_walk(sub, eps, gs, b)
                    assert a.bit_generator.state == b.bit_generator.state

    def test_nan_is_refused(self):
        prepared = Prepared("em", make_abstract_problem([1.0, math.nan], gs=1.0))
        with pytest.raises(ContractViolationError, match="NaN"):
            prepared.distribution(1.0)
        with pytest.raises(ContractViolationError, match="NaN"):
            prepared.select(1.0, np.random.default_rng(0))


class TestBreakpointPrefix:
    """A candidate's walk that reached the constant tail is kept as
    ``(i_end, B)``; a moved shift scores it with the walk's own return."""

    def test_tree_node_scores_at_explicit_shifts(self, monkeypatch):
        # a level-table delta: every candidate's prefix is found once per
        # Prepared, in one array pass, and every score is dampen's float
        prefixed = []
        real = mechanisms_mod._prefixes

        def counted(table, problems):
            prefixed.extend(tuple(p[2]) for p in problems)
            return real(table, problems)

        monkeypatch.setattr(mechanisms_mod, "_prefixes", counted)
        walks = dampen_calls(monkeypatch)
        table = separable_table()
        scored = 0
        for tbl in (table, *table.partition("A").values()):
            problem = ig_problem(tbl, tbl.schema.attribute_names())
            delta = bound_sensitivity(ig_sensitivity(),
                                      problem.global_sensitivity,
                                      problem.database_size)
            assert delta.table is not None
            prepared = Prepared("sld", problem, delta)
            u = problem.utilities()
            base = shift_constant(problem)
            prefixed.clear()
            for shift in (base, 1.5 * base, base + 0.1, 7.0 * base, 1e6):
                # with epsilon 2, each score is its D exactly
                got = prepared.distribution(2.0, shift=shift).scores
                want = [dampen(problem, delta, r, ur - shift)
                        for r, ur in zip(problem.candidates, u)]
                assert got.tolist() == want
                scored += len(want)
            assert prefixed == [problem.candidates]
        # 3 tables x 4 candidates x 5 shifts, none of them walked
        assert (scored, walks) == (60, [])

    def test_below_the_prefix_falls_back_to_the_walk(self, monkeypatch):
        calls = dampen_calls(monkeypatch)
        problem = make_abstract_problem([0.0], gs=3.0, n=10)
        delta = step_delta([1.0, 1.0, 1.0], tail=3.0, declared_bounded=True,
                           declared_nondecreasing_in_t=True)
        prepared = Prepared("sld", problem, delta)
        # shift 100 keeps (i_end, B) = (3, 3.0); v = 2.5 < B needs the walk,
        # which ends inside the prefix: -(2 + 0.5 / 1.0)
        for shift, d in ((100.0, -(3 + 97.0 / 3.0)), (2.5, -2.5)):
            assert prepared.distribution(2.0, shift=shift).scores[0] == d
            assert calls[-1] == (0, -shift)
        assert len(calls) == 2
        # zero-width steps: (i_end, B) = (2, 0.0), and a zero score is 0
        prepared = Prepared("sld", problem, step_delta(
            [0.0, 0.0], tail=3.0, declared_bounded=True,
            declared_nondecreasing_in_t=True))
        for shift, d in ((30.0, -10.0 - 2), (0.0, 0.0)):
            assert prepared.distribution(2.0, shift=shift).scores[0] == d
        assert len(calls) == 4

    @pytest.mark.parametrize("steps, message", [
        ([1.0, 2.0, 1.5, 3.0], "returned 1.5 at t=2 after 2.0"),
        ([1.0, 4.0], "returned 4.0 at t=1 after 1.0"),
    ])
    def test_broken_steps_raise_the_walks_message(self, steps, message):
        problem = make_abstract_problem([0.0, 2.0], gs=3.0, n=10)
        delta = step_delta(steps, declared_bounded=True,
                           declared_nondecreasing_in_t=True)
        with pytest.raises(ContractViolationError) as direct:
            dampen(problem, delta, 0, -40.0)
        assert message in str(direct.value)
        prepared = Prepared("sld", problem, delta)
        for shift in (None, 40.0, 100.0):
            with pytest.raises(ContractViolationError) as exc:
                prepared.distribution(1.0, shift=shift)
            assert str(exc.value) == str(direct.value)


def matrix_delta(levels, gs, rows_of=None, short=None):
    """Bounded, nondecreasing-declared delta over an explicit (row, t)
    matrix, readable through its table and per step; candidate r reads
    row ``rows_of[r]`` (its own row by default), and nothing checks or
    clips the matrix.  With ``short`` the table breaks its contract and
    returns only the columns below ``short`` of those asked for."""
    width = levels.shape[1]
    if rows_of is None:
        rows_of = range(len(levels))
    rows = dict(enumerate(rows_of))

    def table_fn(db, lo, hi):
        assert 0 <= lo <= hi <= width
        return rows, levels[:, lo:hi if short is None else min(hi, short)]

    return SensitivityFunction(
        eval=lambda db, t, r: float(levels[rows[r], t]) if t < width else gs,
        declared_admissible=True,
        declared_bounded=True,
        declared_nondecreasing_in_t=True,
        name="matrix",
        table=table_fn,
    )


def reading(delta):
    """``delta`` with the t of every evaluation recorded in the returned
    list."""
    ts = []

    def eval_fn(db, t, r):
        ts.append(t)
        return delta.eval(db, t, r)

    return dataclasses.replace(delta, eval=eval_fn), ts


def asking(delta, asked):
    """``delta`` with the ``(lo, hi)`` of every table request appended to
    ``asked``."""

    def table_fn(db, lo, hi):
        asked.append((lo, hi))
        return delta.table(db, lo, hi)

    return dataclasses.replace(delta, table=table_fn)


def one_pass(problem, delta, candidates, values, tails):
    """The stops of ``mechanisms._prefixes`` over ``delta.table`` for one
    problem: the batch of one that :class:`Prepared` passes."""
    return mechanisms_mod._prefixes(
        mechanisms_mod._table_reader(delta, problem.database),
        [(problem.global_sensitivity, problem.database_size,
          list(candidates), list(values), tails)])[0]


def scores_or_message(mechanism, problem, delta):
    """Scores at epsilon 2 (each one its D exactly), or the message of the
    contract violation that scoring raises."""
    try:
        prepared = Prepared(mechanism, problem, delta)
        return prepared.distribution(2.0).scores.tolist()
    except ContractViolationError as exc:
        return str(exc)


@st.composite
def level_rows(draw, n, gs):
    """Nondecreasing levels in [0, GS] with zero steps, ties at GS, or no
    GS at all (the walk ends at n); then at most one level broken: NaN,
    infinite, negative, below the level before or above GS."""
    pool = [st.just(0.0), st.floats(0.0, gs, exclude_max=True)]
    if draw(st.booleans()):
        pool.append(st.just(gs))
    row = sorted(draw(st.lists(st.one_of(pool), min_size=n, max_size=n)))
    at = draw(st.integers(0, n - 1))
    broken = draw(st.sampled_from(
        [None, None, math.nan, math.inf, -1.0, "down", 1.5 * gs]))
    if broken == "down":
        if at and row[at - 1] > 0:
            row[at] = row[at - 1] / 2
    elif broken is not None:
        row[at] = broken
    return row


class TestArrayPrefix:
    """The array pass over a level table stops where the walk stops, and a
    prepared selection over it scores and fails, for ``ld`` and ``sld``, as
    the per-step walk of every candidate in position order does."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_prefixes_scores_and_messages_equal_the_walk(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        gs = data.draw(st.sampled_from([1.0, 2.5, 3.0]), label="gs")
        rows = data.draw(st.lists(level_rows(n, gs), min_size=1, max_size=5),
                         label="rows")
        k = data.draw(st.integers(1, 6), label="candidates")
        rows_of = data.draw(st.lists(st.integers(0, len(rows) - 1),
                                     min_size=k, max_size=k), label="rows_of")
        utilities = data.draw(st.lists(
            st.one_of(st.floats(-50.0, 50.0), st.just(0.0),
                      st.sampled_from([n * gs, -n * gs, 1.0, gs])),
            min_size=k, max_size=k), label="utilities")
        short = data.draw(st.one_of(st.none(), st.integers(1, n)),
                          label="short")
        problem = make_abstract_problem(utilities, gs=gs, n=n)
        matrix = np.array(rows, dtype=float)
        delta = matrix_delta(matrix, gs, rows_of)
        per_step = dataclasses.replace(delta, table=None)

        # a score past every prefix: the pass stops where the walk stores
        # (i_end, B), in the tail, or leaves the walk to raise
        want = []
        for r in problem.candidates:
            walked = {}
            try:
                dampen(problem, per_step, r, 2 * n * gs + 1.0, walked)
            except ContractViolationError:
                want.append(None)
            else:
                want.append((*walked[r], gs))
        tails = {}
        got = one_pass(problem, delta, problem.candidates,
                                       [2 * n * gs + 1.0] * k, tails)
        assert got == want
        assert tails == {r: w[:2] for r, w in enumerate(want) if w}
        for r, hit in enumerate(got):
            if hit is not None:
                assert hit[0] == n or matrix[rows_of[r], hit[0]] == gs

        for mechanism in ("ld", "sld"):
            asked = []
            fast = scores_or_message(mechanism, problem, asking(delta, asked))
            slow = scores_or_message(mechanism, problem, per_step)
            assert fast == slow, mechanism
            assert asked == sorted(set(asked))      # each chunk read once
            if short is None:
                continue
            # a short table raises at the first request past its columns
            past = [hi for _, hi in asked if hi > short]
            want_short = (f"sensitivity function matrix returned {short} "
                          f"levels, {past[0]} were asked for" if past
                          else slow)
            assert scores_or_message(mechanism, problem, matrix_delta(
                matrix, gs, rows_of, short)) == want_short

    def test_each_application_reads_each_level_once(self, rng):
        # ld and sld over the deltas the applications build, each around a
        # recording inner hook: the pass asks for chunks that tile [0, last
        # hi), and the inner hook, under the clip of bound_sensitivity and
        # the hull of flatten_sensitivity, is asked for those same columns
        def served(delta, log):
            def table_fn(db, lo, hi):
                rows, block = delta.table(db, lo, hi)
                log.append((lo, hi, block.shape[1]))
                return rows, block
            return dataclasses.replace(delta, table=table_fn)

        x = random_vector_instance(rng, n=40, cap=10.0, levels=9)
        q = PercentileQuery(50, len(x))
        vector = percentile_problem(x, q)
        tree = ig_problem(separable_table(), ("A", "B", "C", "D"))
        hub = EdgeGraph(range(60), [(0, v) for v in range(1, 60)]
                        + [(v, v + 1) for v in range(1, 59)])
        graph = ebc_problem(hub)

        def deltas(mechanism, inner):
            flat = mechanism == "ld"
            bounded = bound_sensitivity(
                served(percentile_sensitivity(x, q), inner),
                x.lambda_cap, len(x))
            yield vector, (flatten_sensitivity(bounded, vector) if flat
                           else bounded)
            yield tree, bound_sensitivity(
                served(ig_sensitivity(), inner),
                tree.global_sensitivity, tree.database_size)
            yield graph, bound_sensitivity(
                served(flat_delta_ebc() if flat else delta_ebc(), inner),
                graph.global_sensitivity, graph.database_size)

        chunks = 0
        for mechanism in ("ld", "sld"):
            inner = []
            for problem, delta in deltas(mechanism, inner):
                outer = []
                assert isinstance(scores_or_message(
                    mechanism, problem, served(delta, outer)), list)
                ends = [hi for _, hi, _ in outer]
                assert [lo for lo, _, _ in outer] == [0] + ends[:-1]
                assert all(lo < hi == lo + width for lo, hi, width in outer)
                assert inner == outer
                chunks += len(outer)
                inner.clear()
        assert chunks > 6              # some pass reads more than one chunk

    def test_short_table_is_contract_violation(self):
        # three candidates over ten levels; the table returns four columns
        # whatever it is asked for
        problem = make_abstract_problem([1.0, 5.0, 9.0], gs=2.0, n=10)
        delta = matrix_delta(np.full((3, 10), 1.0), 2.0, short=4)
        for mechanism in ("ld", "sld"):
            with pytest.raises(ContractViolationError) as exc:
                distribution(mechanism, problem, 1.0, delta)
            assert str(exc.value) == (
                "sensitivity function matrix returned 4 levels, 8 were "
                "asked for")
        # the clip of bound_sensitivity does not pad a short inner table
        inner = dataclasses.replace(delta, declared_bounded=False)
        bounded = bound_sensitivity(inner, 2.0, 10)
        assert bounded.table(problem.database, 0, 8)[1].shape == (3, 4)
        with pytest.raises(ContractViolationError, match="returned 4 levels"):
            distribution("sld", problem, 1.0, bounded)

    def test_level_below_the_one_before_goes_to_the_walk(self):
        # the level drops at t = 3 and the table holds 10 columns: the pass
        # over the first chunk stops at the drop and reads no further, so
        # the walk raises its own message, not the short table's
        levels = np.full((1, 40), 0.5)
        levels[0, 3] = 0.25
        problem = make_abstract_problem([1.0], gs=2.0, n=40)
        asked = []
        delta = asking(matrix_delta(levels, 2.0, short=10), asked)
        with pytest.raises(ContractViolationError) as exc:
            distribution("sld", problem, 1.0, delta)
        assert str(exc.value) == (
            "sensitivity function matrix declared bounded and nondecreasing "
            "in t returned 0.25 at t=3 after 0.5 (global sensitivity 2.0)")
        assert asked == [(0, 8)]

    def test_reads_the_chunks_the_walks_read(self):
        # rows reach GS at t = 39, 19, 13 and 9: the array pass reads the
        # table in the chunks a walk of a score in the tail reaches, 8
        # levels and then twice as many, and stops where the walks stop
        def bounded(fills):
            def table(db, lo, hi):
                fills.append((lo, hi))
                t = np.arange(lo, hi) + 1.0
                return ({r: r for r in range(4)},
                        np.minimum(np.outer([0.05, 0.1, 0.15, 0.2], t), 2.0))
            return bound_sensitivity(table_sensitivity(table, "toy"), 2.0, 100)

        problem = make_abstract_problem([0.0, 1.0, 2.0, 3.0], gs=2.0, n=100)
        walked, tails = [], {}
        delta = bounded(walked)
        for r in problem.candidates:
            dampen(problem, delta, r, -1e3, tails)
        read, found = [], {}
        got = one_pass(problem, bounded(read),
                                       problem.candidates, [1e3] * 4, found)
        assert found == tails and [i for i, _ in tails.values()] == [
            39, 19, 13, 9]
        assert got == [(*tails[r], 2.0) for r in problem.candidates]
        assert read == [(0, 8), (8, 16), (16, 32), (32, 64)]
        # per step, one column a read, to t = 39
        assert max(walked) == (39, 40)
        assert all(hi == lo + 1 for lo, hi in walked)

    def test_ld_stops_at_the_bracketing_step(self):
        # the same rows at |u| = 1.5: every walk brackets it inside the
        # first chunk of 8 levels, and the pass reads no more
        levels = np.minimum(np.outer([0.05, 0.1, 0.15, 0.2],
                                     np.arange(100) + 1.0), 2.0)
        problem = make_abstract_problem([0.0] * 4, gs=2.0, n=100)
        delta = matrix_delta(levels, 2.0)
        per_step, reads = reading(dataclasses.replace(delta, table=None))
        want = [dampen(problem, per_step, r, 1.5) for r in range(4)]
        asked, tails = [], {}
        got = one_pass(problem, asking(delta, asked),
                                       problem.candidates, [1.5] * 4, tails)
        assert [t + (1.5 - b) / width for t, b, width in got] == want
        assert [t for t, _, _ in got] == [7, 5, 4, 3] and max(reads) == 7
        assert asked == [(0, 8)] and tails == {}

    @pytest.mark.parametrize("bad", [math.nan, -1.0, 0.5, 4.0])
    def test_score_on_the_breakpoint_before_a_halt(self, bad):
        # |u| = 2.0 is exactly b(2): the walk reads level 2 and raises on a
        # failed check there, or enters the tail at GS; so does the pass
        problem = make_abstract_problem([2.0, -2.0], gs=3.0, n=10)
        for third in (bad, 3.0):
            levels = np.array([[1.0, 1.0, third] + [3.0] * 7] * 2)
            delta = matrix_delta(levels, 3.0)
            per_step = dataclasses.replace(delta, table=None)
            for mechanism in ("ld", "sld"):
                assert scores_or_message(mechanism, problem, delta) == (
                    scores_or_message(mechanism, problem, per_step))
            tails = {}
            got = one_pass(problem, delta, (0, 1),
                                           [2.0, 2.0], tails)
            if third == 3.0:
                assert got == [(2, 2.0, 3.0)] * 2
                assert tails == {0: (2, 2.0), 1: (2, 2.0)}
            else:
                assert got == [None, None] and tails == {}

    def test_slices_and_chunks(self, monkeypatch):
        # 40 rows of 100 levels in slices of 2 rows: rows reach GS at
        # different chunks (8, 16, 32, 64) or never, and row 7 is broken
        monkeypatch.setattr(mechanisms_mod, "PREFIX_SLICE_ENTRIES", 250)
        n, gs = 100, 2.0
        levels = np.tile(np.linspace(0.0, 1.9, n), (40, 1))
        for r, t in enumerate((5, 8, 15, 16, 31, 33, 60, None) * 5):
            if t is not None:
                levels[r, t:] = gs
        levels[7, 50] = 0.5
        problem = make_abstract_problem(np.arange(40.0), gs=gs, n=n)
        delta = matrix_delta(levels, gs)
        got = one_pass(problem, delta, problem.candidates,
                                       [1e6] * 40, {})
        for r in problem.candidates:
            tails = {}
            try:
                dampen(problem, delta, r, 1e6, tails)
            except ContractViolationError:
                assert got[r] is None and r == 7
            else:
                assert got[r] == (*tails[r], gs)
        assert got[0][0] == 5 and got[6][0] == 60 and got[15][0] == n
        # ld at |u| = r: the value stops, sliced the same way
        values = [float(r) + 0.5 for r in problem.candidates]
        got = one_pass(problem, delta, problem.candidates,
                                       values, {})
        for r, v in enumerate(values):
            t, b, width = got[r]
            assert t + (v - b) / width == dampen(problem, delta, r, v)

    def test_tree_ld_reads_no_more_than_the_chunk_rule(self, rng):
        # the chunks of the walk for the largest |u|, up to the first that
        # holds every candidate's stop; never on to GS
        tables = [separable_table()]
        tables += [random_table_instance(rng, max_rows=m) for m in (60, 300)]
        for tbl in tables:
            problem = ig_problem(tbl, tbl.schema.attribute_names())
            n, gs = problem.database_size, problem.global_sensitivity
            u = problem.utilities()
            delta = bound_sensitivity(ig_sensitivity(), gs, n)
            per_step, reads = reading(dataclasses.replace(delta, table=None))
            want = [dampen(problem, per_step, r, ur)
                    for r, ur in zip(problem.candidates, u)]
            v_max = max(map(abs, u))
            chunks = [min(n, max(8, int(v_max / gs) + 1) if v_max < n * gs
                          else 8)]
            while chunks[-1] <= max(reads, default=-1) and chunks[-1] < n:
                chunks.append(min(2 * chunks[-1], n))
            asked = []
            fast = Prepared("ld", problem, asking(delta, asked))
            # with epsilon 2, each score is its D exactly
            assert fast.distribution(2.0).scores.tolist() == want
            assert asked == (list(zip([0] + chunks, chunks)) if v_max
                             else [])


def stacked(prepared, asked=None):
    """A joint ``table`` for :func:`score_together`: the pair ``(b, r)``
    reads the row of candidate r in ``prepared[b].delta.table``; every
    ``(lo, hi)`` read is appended to ``asked``."""
    def read(lo, hi, wanted):
        if asked is not None:
            asked.append((lo, hi))
        tables = [p.delta.table(p.problem.database, lo, hi) for p in prepared]
        rows, picked = [], []
        for b, r in wanted:
            row = tables[b][0].get(r)
            rows.append(None if row is None else len(picked))
            if row is not None:
                picked.append(tables[b][1][row, :hi - lo])
        return rows, np.array(picked).reshape(len(picked), hi - lo)
    return read


def jointly_or_message(prepared):
    """Scores at epsilon 2 and kept tails of every prepared problem after
    one joint pass, or the message of the contract violation it raises."""
    try:
        score_together(prepared, stacked(prepared))
    except ContractViolationError as exc:
        return str(exc)
    return [(p.distribution(2.0).scores.tolist(), p._tails) for p in prepared]


def each_or_message(prepared):
    """The same, from each problem's own pass, one problem after another."""
    got = []
    for p in prepared:
        own = Prepared(p.mechanism, p.problem, p.delta)
        try:
            got.append((own.distribution(2.0).scores.tolist(), own._tails))
        except ContractViolationError as exc:
            return str(exc)
    return got


def bounded_matrix(levels, gs, n, rows_of=None):
    """``bound_sensitivity`` over a raw matrix of levels, so its table is
    clipped at GS and pinned to GS from column n on."""
    raw = dataclasses.replace(matrix_delta(levels, gs, rows_of),
                              declared_bounded=False)
    return bound_sensitivity(raw, gs, n)


class TestJointPass:
    """One ``_prefixes`` pass over many problems of their own GS and size
    (:func:`score_together`) scores each as its own :class:`Prepared`
    does, bit for bit, and fails with the message its own walk raises."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_joint_scores_and_messages_equal_each_problems_own(self, data):
        prepared = []
        for b in range(data.draw(st.integers(1, 5), label="problems")):
            n = data.draw(st.integers(1, 30), label="n")
            gs = data.draw(st.sampled_from([1.0, 2.5, 3.0, 0.7]), label="gs")
            rows = data.draw(st.lists(level_rows(40, gs), min_size=1,
                                      max_size=3), label="rows")
            k = data.draw(st.integers(1, 4), label="candidates")
            rows_of = data.draw(st.lists(st.integers(0, len(rows) - 1),
                                         min_size=k, max_size=k))
            utilities = data.draw(st.lists(
                st.one_of(st.floats(-50.0, 50.0), st.just(0.0),
                          st.sampled_from([n * gs, -n * gs, 1.0, gs])),
                min_size=k, max_size=k), label="utilities")
            mechanism = data.draw(st.sampled_from(["ld", "sld"]))
            delta = bounded_matrix(np.array(rows), gs, n, rows_of)
            prepared.append(Prepared(mechanism, make_abstract_problem(
                utilities, gs=gs, n=n), delta))
        assert jointly_or_message(prepared) == each_or_message(prepared)

    def test_a_row_pinned_inside_a_shared_chunk(self):
        # first chunks end at 5, 8 and 8, so the three problems read [0, 8)
        # together: levels stay below GS, so the rows of the problem of
        # size 5 stop only at its own size, inside the chunk; the problem
        # of size 40 reads on in its own chunks, and a zero utility is 0
        levels = np.tile(np.linspace(0.1, 1.9, 64), (2, 1))
        prepared = [
            Prepared("sld", make_abstract_problem([-3.0, 0.0], gs=2.0, n=5),
                     bounded_matrix(levels, 2.0, 5)),
            Prepared("sld", make_abstract_problem([-3.0, 0.0], gs=2.0, n=40),
                     bounded_matrix(levels, 2.0, 40)),
            Prepared("ld", make_abstract_problem([-1.0, 0.0], gs=2.0, n=40),
                     bounded_matrix(levels, 2.0, 40)),
        ]
        asked = []
        score_together(prepared, stacked(prepared, asked))
        joint = [(p.distribution(2.0).scores.tolist(), p._tails)
                 for p in prepared]
        assert joint == each_or_message(prepared)
        b5 = float(np.cumsum(levels[0, :5])[-1])
        assert prepared[0]._tails == {0: (5, b5), 1: (5, b5)}
        assert joint[2][0][1] == 0.0
        assert asked == [(0, 8), (8, 16), (16, 32), (32, 40)]

    def test_a_failed_check_raises_the_walks_message(self):
        # a level below the one before in the second problem: the joint
        # pass leaves it to the walk, which raises its own message after
        # the first problem is placed
        good = np.full((1, 20), 1.0)
        bad = good.copy()
        bad[0, 3] = 0.5
        prepared = [Prepared("sld", make_abstract_problem([-2.0], gs=2.0, n=10),
                             bounded_matrix(levels, 2.0, 10))
                    for levels in (good, bad)]
        message = jointly_or_message(prepared)
        assert message == each_or_message(prepared[1:]) == (
            "sensitivity function min(matrix, GS) declared bounded and "
            "nondecreasing in t returned 0.5 at t=3 after 1.0 (global "
            "sensitivity 2.0)")
        assert not math.isnan(prepared[0]._rows[-(10 * 2.0 - 2.0)][0])

    def test_no_problem_reads_more_than_twice_its_own_columns(self):
        # first chunks of 8, 9, 17 and 40 levels, each holding its stop:
        # 9 joins the read to 17, 8 and 40 are read alone, so no problem
        # reads past twice its own end
        gs = 1.0
        levels = np.full((1, 128), 0.999)
        prepared = [Prepared("ld", make_abstract_problem([-v], gs=gs, n=100),
                             bounded_matrix(levels, gs, 100))
                    for v in (3.0, 8.5, 16.5, 39.5)]
        own_ends = []
        for p in prepared:
            asked = []
            alone = Prepared(p.mechanism, p.problem, p.delta)
            score_together([alone], stacked([alone], asked))
            own_ends.append(asked[-1][1])
        asked = []
        score_together(prepared, stacked(prepared, asked))
        assert own_ends == [8, 9, 17, 40]
        assert sorted(asked) == [(0, 8), (0, 17), (0, 40)]
        assert each_or_message(prepared) == [
            (p.distribution(2.0).scores.tolist(), p._tails) for p in prepared]


class TestLocalDampening:
    def test_constant_delta_equals_exponential(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 13))
            problem = make_abstract_problem(rng.uniform(-30, 30, size=k), gs=4.0)
            const = constant_sensitivity(4.0)
            eps = float(rng.uniform(0.2, 3.0))
            _, em = select_exponential(problem, eps, rng)
            _, ld = select_local_dampening(problem, const, eps, rng)
            assert np.max(np.abs(ld.probabilities - em.probabilities)) < 1e-12

    def test_bridge_graph_probabilities(self, bridge_problem, bridge_explorer, rng):
        flat = {t: max(bridge_explorer.element_ls(t, v)
                       for v in bridge_problem.candidates) for t in (0, 1)}
        delta = step_delta([flat[0], flat[1]], tail=7.5,
                           declared_bounded=True, monotonicity="flat")
        _, dist = select_local_dampening(bridge_problem, delta, 2.0, rng)
        assert dist.probability_of("a") == pytest.approx(0.32, abs=0.005)
        assert dist.probability_of("b") == pytest.approx(0.32, abs=0.005)
        assert dist.probability_of("v3") == pytest.approx(0.06, abs=0.005)

    def test_single_candidate(self, rng):
        problem = make_abstract_problem([2.0], gs=1.0)
        picked, dist = select_local_dampening(
            problem, constant_sensitivity(1.0), 1.0, rng
        )
        assert picked == 0 and dist.probabilities[0] == 1.0

    def test_refuses_undeclared_admissibility(self, rng):
        problem = make_abstract_problem([1.0, 2.0], gs=1.0)
        delta = SensitivityFunction(eval=lambda db, t, r: 1.0)
        with pytest.raises(ContractViolationError):
            select_local_dampening(problem, delta, 1.0, rng)


class TestShiftedLocalDampening:
    def test_constant_delta_equals_exponential(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 13))
            problem = make_abstract_problem(rng.uniform(-30, 30, size=k), gs=2.5)
            const = constant_sensitivity(2.5)
            eps = float(rng.uniform(0.2, 3.0))
            _, em = select_exponential(problem, eps, rng)
            _, sld = select_shifted_local_dampening(problem, const, eps, rng)
            assert np.max(np.abs(sld.probabilities - em.probabilities)) < 1e-12

    def test_shift_saturation(self, rng):
        problem = make_abstract_problem([4.0, -1.0, 2.5], gs=1.5)
        const = constant_sensitivity(1.5)
        s0 = shift_constant(problem)
        _, base = select_shifted_local_dampening(problem, const, 2.0, rng, shift=s0)
        _, far = select_shifted_local_dampening(
            problem, const, 2.0, rng, shift=s0 + 17 * 1.5
        )
        assert np.max(np.abs(base.probabilities - far.probabilities)) < 1e-12

    def test_flat_delta_same_answer_in_both_shift_directions(self, rng):
        # a candidate-independent delta admits either shift direction and
        # must collapse to the exponential mechanism both ways
        problem = make_abstract_problem([3.0, 1.0, -2.0], gs=2.0, n=3)
        base = dict(
            eval=lambda db, t, r: min(0.5 + 0.4 * t, 2.0),
            declared_admissible=True,
            declared_bounded=True,
        )
        down_delta = SensitivityFunction(monotonicity="flat", **base)
        up_delta = SensitivityFunction(monotonicity="non_increasing", **base)
        _, em = select_exponential(problem, 1.0, rng)
        _, down = select_shifted_local_dampening(problem, down_delta, 1.0, rng)
        _, up = select_shifted_local_dampening(problem, up_delta, 1.0, rng)
        assert np.max(np.abs(down.probabilities - em.probabilities)) < 1e-12
        assert np.max(np.abs(up.probabilities - em.probabilities)) < 1e-12

    def test_non_increasing_delta_is_not_worse_than_exponential(self, rng):
        # bounded non-increasing deltas dominate the constant, so the
        # shifted mechanism's regret can only improve on the exponential one
        utilities = [3.0, 1.0, -2.0]
        problem = make_abstract_problem(utilities, gs=2.0, n=3)
        order = {r: rank for rank, r in enumerate(
            sorted(range(3), key=lambda i: -utilities[i])
        )}
        delta = SensitivityFunction(
            eval=lambda db, t, r: min(0.5 + 0.5 * order[r] + 0.3 * t, 2.0),
            declared_admissible=True, declared_bounded=True,
            monotonicity="non_increasing",
        )
        for eps in (0.3, 1.0, 4.0):
            _, em = select_exponential(problem, eps, rng)
            _, sld = select_shifted_local_dampening(problem, delta, eps, rng)
            assert expected_error(sld, problem) <= (
                expected_error(em, problem) + 1e-9
            )

    def test_exceeding_saturated_elementwise_scores_beats_plain(
        self, bridge_problem, bridge_explorer, rng
    ):
        # per-node exact local sensitivity, truncated to the global bound
        # past distance 3, shifts mass onto the top nodes beyond what the
        # flat instance achieves
        def eval_fn(g, t, v):
            if t > 3:
                return 7.5
            return min(bridge_explorer.element_ls(t, v), 7.5)

        elem = SensitivityFunction(
            eval=eval_fn, declared_admissible=True, declared_bounded=True,
            monotonicity="none",
        )
        _, sld = select_shifted_local_dampening(bridge_problem, elem, 2.0, rng)
        assert sld.probability_of("a") == sld.probability_of("b")
        assert sld.probability_of("a") > 0.32

    def test_refuses_unbounded_delta(self, rng):
        problem = make_abstract_problem([1.0, 2.0], gs=1.0)
        delta = SensitivityFunction(
            eval=lambda db, t, r: 1.0, declared_admissible=True
        )
        with pytest.raises(ContractViolationError, match="bounded"):
            select_shifted_local_dampening(problem, delta, 1.0, rng)


class TestExpectedError:
    def test_mass_on_maximizer_is_zero(self):
        problem = make_abstract_problem([1.0, 5.0], gs=1.0)
        dist = SelectionDistribution(
            mechanism="em", epsilon=1.0, candidates=(0, 1),
            probabilities=np.array([0.0, 1.0]), scores=np.zeros(2),
        )
        assert expected_error(dist, problem) == 0.0

    def test_uniform_over_two_points(self):
        problem = make_abstract_problem([0.0, 2.0], gs=1.0)
        dist = SelectionDistribution(
            mechanism="em", epsilon=1.0, candidates=(0, 1),
            probabilities=np.array([0.5, 0.5]), scores=np.zeros(2),
        )
        assert expected_error(dist, problem) == pytest.approx(1.0)

    def test_matches_monte_carlo(self, rng):
        problem = make_abstract_problem([10.0, 20.0, 30.0], gs=100.0)
        _, dist = select_exponential(problem, 1.0, rng)
        exact = expected_error(dist, problem)
        assert exact == pytest.approx(9.666805480366419, abs=1e-12)
        runs = 1_000_000
        picks = rng.choice(3, size=runs, p=dist.probabilities)
        errors = 30.0 - np.array([10.0, 20.0, 30.0])[picks]
        sigma = errors.std(ddof=1) / math.sqrt(runs)
        assert abs(errors.mean() - exact) < 3 * sigma

    def test_tail_probability(self, rng):
        problem = make_abstract_problem([0.0, 2.0], gs=1.0)
        dist = SelectionDistribution(
            mechanism="em", epsilon=1.0, candidates=(0, 1),
            probabilities=np.array([0.25, 0.75]), scores=np.zeros(2),
        )
        assert error_tail(dist, problem, 0.0) == 1.0
        assert error_tail(dist, problem, 1.0) == pytest.approx(0.25)
        assert error_tail(dist, problem, 2.5) == 0.0

    @pytest.mark.parametrize("probabilities", [
        [np.nan, np.nan], [np.nan, 1.0], [-0.5, 1.5], [0.5, 0.6]])
    def test_nan_or_bad_probabilities_refused(self, probabilities):
        with pytest.raises(ContractViolationError):
            SelectionDistribution(
                mechanism="em", epsilon=1.0, candidates=(0, 1),
                probabilities=np.array(probabilities), scores=np.zeros(2),
            )

    def test_minus_inf_scores_are_zero_probability(self):
        # an overflowing score is -inf: probability zero while another
        # candidate keeps a finite score, the limit as epsilon grows when
        # none does
        problem = make_abstract_problem([-10.0, -5.0, 0.0], gs=10.0)
        dist = distribution("em", problem, 1e308)
        assert dist.probabilities.tolist() == [0.0, 0.0, 1.0]
        prepared = Prepared("em", problem)
        assert prepared.distribution(1e308, [2]).probabilities.tolist() == [1.0]
        assert prepared.distribution(1e308, [0, 1]).probabilities.tolist() == [
            0.0, 1.0]

    def test_requires_full_range(self, rng):
        problem = make_abstract_problem([0.0, 2.0], gs=1.0)
        dist = SelectionDistribution(
            mechanism="em", epsilon=1.0, candidates=(0,),
            probabilities=np.array([1.0]), scores=np.zeros(1),
        )
        with pytest.raises(InvalidInputError):
            expected_error(dist, problem)


class TestBudgetAccountant:
    def test_sequential_split_recomposes(self):
        acc = BudgetAccountant()
        acc.open_scope("walk", "sequential")
        k, eps = 5, 1.0
        for _ in range(k):
            acc.account("walk", eps / k)
        assert acc.scope_total("walk") == pytest.approx(eps, abs=1e-12)

    def test_parallel_takes_max(self):
        acc = BudgetAccountant()
        acc.open_scope("parts", "parallel")
        acc.account("parts", 0.3)
        acc.account("parts", 0.5)
        assert acc.scope_total("parts") == 0.5

    def test_empty_scope_is_free(self):
        acc = BudgetAccountant()
        acc.open_scope("idle")
        assert acc.scope_total("idle") == 0.0

    def test_unknown_scope_rejected(self):
        acc = BudgetAccountant()
        with pytest.raises(InvalidInputError):
            acc.account("ghost", 0.1)
        with pytest.raises(InvalidInputError):
            acc.scope_total("ghost")

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.inf, math.nan])
    def test_refuses_a_budget_that_is_not_positive_and_finite(self, epsilon):
        acc = BudgetAccountant()
        acc.open_scope("s")
        acc.account("s", 0.5)
        with pytest.raises(InvalidInputError, match="positive and finite"):
            acc.account("s", epsilon)
        assert acc.total() == 0.5


class TestSelectionProblem:
    def test_utilities_scored_once_per_problem(self):
        scored = []

        def utility(db, r):
            scored.append(r)
            return db[r]

        problem = SelectionProblem(
            database=(3.0, 1.0, 2.0), candidates=(0, 1, 2),
            utility=utility, global_sensitivity=1.0, database_size=3,
        )
        first = problem.utilities()
        first.append(99.0)
        assert problem.utilities() == [3.0, 1.0, 2.0]
        assert problem.utilities() is not problem.utilities()
        assert scored == [0, 1, 2]


class TestDistributionInvariants:
    def test_normalization_and_reproducibility(self, rng):
        for _ in range(30):
            k = int(rng.integers(1, 10))
            problem = make_abstract_problem(rng.uniform(-5, 5, size=k), gs=1.0)
            eps = float(rng.uniform(0.1, 4.0))
            pick_a, dist = select_exponential(
                problem, eps, np.random.default_rng(7)
            )
            pick_b, _ = select_exponential(problem, eps, np.random.default_rng(7))
            assert pick_a == pick_b
            assert abs(dist.probabilities.sum() - 1.0) < 1e-9
            assert np.all(dist.probabilities >= 0)


class TestShiftedPrivacyWitness:
    def test_exact_ratios_on_tiny_fixed_size_models(self, rng):
        # the shifted mechanism's hypothesis is an admissible AND bounded
        # sensitivity function; witness the output-ratio bound exactly on
        # fixed-size models (vectors and graphs keep their record/pair
        # count under the neighbor relation)
        from dampen.fixtures import random_graph_instance, random_vector_instance
        from dampen.graphs import ebc_problem
        from dampen.oracles import (
            brute_sensitivity, edge_flip_enumerator, vector_enumerator,
        )
        from dampen.percentile import PercentileQuery, percentile_problem

        def instances():
            for _ in range(6):
                x = random_vector_instance(rng, n=3, cap=8.0, levels=3)
                q = PercentileQuery(50, 3)
                yield (
                    percentile_problem(x, q),
                    vector_enumerator(x, values=[0.0, 4.0, 8.0]),
                )
            for _ in range(6):
                g = random_graph_instance(rng, n=4)
                yield (
                    ebc_problem(g, global_sensitivity=3.0),
                    edge_flip_enumerator(),
                )

        slack = 1 + 1e-9
        for problem, enum in instances():
            raw = brute_sensitivity(problem, enum, node_budget=100_000)
            bounded = bound_sensitivity(
                raw, problem.global_sensitivity, problem.database_size + 1
            )
            for eps in (0.5, 2.0):
                _, dist_x = select_shifted_local_dampening(
                    problem, bounded, eps, rng
                )
                for y in enum.neighbors(problem.database):
                    shifted = SelectionProblem(
                        database=y,
                        candidates=problem.candidates,
                        utility=problem.utility,
                        global_sensitivity=problem.global_sensitivity,
                        database_size=problem.database_size,
                    )
                    _, dist_y = select_shifted_local_dampening(
                        shifted, bounded, eps, rng
                    )
                    ratios = dist_x.probabilities / dist_y.probabilities
                    assert np.max(ratios) <= math.exp(eps) * slack
                    assert np.min(ratios) >= math.exp(-eps) / slack


class TestSaturatedWalk:
    """A bounded delta that is nondecreasing in t ends the walk at its first
    step equal to GS; every score must equal the full walk's."""

    def test_stops_at_first_gs_step(self):
        problem = make_abstract_problem([0.0], gs=2.0, n=1000)
        steps = [0.5, 1.0, 2.0]
        delta, calls = counting(step_delta(
            steps, tail=2.0, declared_bounded=True,
            declared_nondecreasing_in_t=True,
        ))
        for u in (0.2, 1.7, 3.9, 250.0, -1234.5):
            calls.clear()
            fast = dampen(problem, delta, 0, u)
            assert len(calls) <= len(steps)
            slow = dampen(problem, full_walk(delta), 0, u)
            assert fast == pytest.approx(slow, rel=1e-14)

    def test_mirror_symmetry_exact(self, rng):
        problem = make_abstract_problem([0.0], gs=3.0, n=50)
        for _ in range(100):
            steps = sorted(rng.uniform(0, 3, size=5)) + [3.0]
            delta = step_delta(steps, declared_bounded=True,
                               declared_nondecreasing_in_t=True)
            u = float(rng.uniform(-400, 400))
            assert dampen(problem, delta, 0, -u) == -dampen(problem, delta, 0, u)

    def test_decreasing_step_is_contract_violation(self):
        problem = make_abstract_problem([0.0], gs=3.0, n=10)
        delta = step_delta([2.0, 1.0, 3.0], declared_bounded=True,
                           declared_nondecreasing_in_t=True)
        with pytest.raises(ContractViolationError, match="nondecreasing"):
            dampen(problem, delta, 0, 5.0)
        # the same steps without the claim are walked as before
        assert dampen(problem, full_walk(delta), 0, 5.0) == pytest.approx(
            2.0 + 2.0 / 3.0
        )

    def test_step_above_gs_is_contract_violation(self):
        problem = make_abstract_problem([0.0], gs=3.0, n=10)
        delta = step_delta([1.0, 4.0], declared_bounded=True,
                           declared_nondecreasing_in_t=True)
        with pytest.raises(ContractViolationError, match="nondecreasing"):
            dampen(problem, delta, 0, 5.0)

    def test_bounded_walk_has_no_step_cap(self):
        # a bounded delta ends by step n however large n is
        n = 3 * MAX_BREAKPOINT_STEPS
        problem = make_abstract_problem([0.0], gs=1.0, n=n)
        delta = step_delta([0.5], declared_bounded=True)
        assert dampen(problem, delta, 0, -float(n)) == pytest.approx(-1.5 * n)

    def test_percentile_distributions_match_full_walk(self):
        rng = np.random.default_rng(7)
        vectors = [clustered_vector()]
        vectors += [random_vector_instance(rng, n=n, cap=10.0, levels=8)
                    for n in (5, 6, 8)]
        vectors += [NumericVector(rng.uniform(0, 100, size=n), 100.0)
                    for n in (11, 12)]
        for x in vectors:
            for p in (25, 50, 90):
                q = PercentileQuery(p, len(x))
                problem = percentile_problem(x, q)
                delta = bounded_ls_percentile(x, q)
                assert delta.declared_nondecreasing_in_t
                assert_same_distributions(problem, delta)
                flat = flatten_sensitivity(delta, problem)
                assert flat.declared_nondecreasing_in_t
                assert_same_distributions(problem, flat)

    def test_tree_distributions_match_full_walk(self):
        rng = np.random.default_rng(3)
        table = separable_table()
        tables = [table, *table.partition("A").values()]
        tables += [random_table_instance(rng, max_rows=6) for _ in range(4)]
        for tbl in tables:
            problem = ig_problem(tbl, tbl.schema.attribute_names())
            delta = bound_sensitivity(ig_sensitivity(),
                                      problem.global_sensitivity,
                                      problem.database_size)
            assert delta.declared_nondecreasing_in_t
            assert_same_distributions(problem, delta)


def assert_nondecreasing(delta, db, candidates, max_t=4):
    assert delta.declared_nondecreasing_in_t, delta.name
    for r in candidates:
        values = [delta(db, t, r) for t in range(max_t + 1)]
        assert all(a <= b for a, b in zip(values, values[1:])), (r, values)


property_settings = settings(max_examples=15, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


class TestNondecreasingDeclarations:
    """Every constructor that declares ``declared_nondecreasing_in_t`` keeps
    the promise for t <= 4, the percentile and split-score functions past
    ``t_cap`` and the database size, and the wrappers pass it on."""

    @property_settings
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 5))
    def test_graph_constructors(self, seed, n):
        g = random_graph_instance(np.random.default_rng(seed), n=n)
        problem = ebc_problem(g)
        gs, size = problem.global_sensitivity, problem.database_size
        brute = brute_sensitivity(problem, edge_flip_enumerator())
        for raw in (delta_ebc(), flat_delta_ebc(), brute):
            for delta in (raw, bound_sensitivity(raw, gs, size),
                          bound_sensitivity(raw, gs, 3),
                          flatten_sensitivity(raw, problem)):
                assert_nondecreasing(delta, g, g.nodes)

    @property_settings
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 6),
           p=st.sampled_from((10, 25, 50, 75, 100)))
    def test_percentile_constructors(self, seed, n, p):
        x = random_vector_instance(np.random.default_rng(seed), n=n,
                                   cap=10.0, levels=4)
        q = PercentileQuery(p, n)
        labels = x.labels()
        assert_nondecreasing(percentile_sensitivity(x, q), x, labels, n + 2)
        assert_nondecreasing(bounded_ls_percentile(x, q), x, labels, n + 2)
        assert_nondecreasing(ls_percentile_sensitivity(q), x, labels)

    @property_settings
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 8))
    def test_tree_and_constant_constructors(self, seed, rows):
        table = random_table_instance(np.random.default_rng(seed), max_rows=rows)
        problem = ig_problem(table, ("A",))
        bounded = bound_sensitivity(ig_sensitivity(),
                                    problem.global_sensitivity,
                                    problem.database_size)
        for delta in (ig_sensitivity(), bounded):
            assert_nondecreasing(delta, table, ("A",), len(table) + 3)
        assert_nondecreasing(constant_sensitivity(problem.global_sensitivity),
                             table, ("A",))

    def test_undeclared_by_default(self):
        delta = SensitivityFunction(eval=lambda db, t, r: 1.0)
        assert not delta.declared_nondecreasing_in_t


def with_table(delta, candidates, asked=None):
    """``delta`` with a ``table`` hook listing its own ``eval`` values, one
    row per candidate; the ``(lo, hi)`` of every request is appended to
    ``asked`` when given."""
    rows = {r: j for j, r in enumerate(candidates)}

    def table_fn(db, lo, hi):
        if asked is not None:
            asked.append((lo, hi))
        return rows, np.array(
            [[delta.eval(db, t, r) for t in range(lo, hi)]
             for r in candidates]).reshape(len(rows), hi - lo)

    return dataclasses.replace(delta, table=table_fn)


def saturating(steps, **kw):
    return step_delta(steps, declared_bounded=True,
                      declared_nondecreasing_in_t=True, **kw)


class TestLevelsHook:
    """A delta whose levels are read in bulk through its ``table`` hook
    gives the same floats as the per-step walk, and trips the same
    contract checks."""

    def assert_same_scores(self, problem, delta, utilities):
        # every utility also as a candidate of its own: with epsilon 2 an
        # ld score is its D exactly
        many = make_abstract_problem(utilities, gs=problem.global_sensitivity,
                                     n=problem.database_size)
        for prob in (problem, many):
            bulk = with_table(delta, prob.candidates)
            for mechanism in ("ld", "sld"):
                if mechanism == "sld" and not delta.declared_bounded:
                    continue
                for eps in (0.1, 1.0, 10.0):
                    fast = distribution(mechanism, prob, eps, bulk)
                    slow = distribution(mechanism, prob, eps, delta)
                    assert np.array_equal(fast.scores, slow.scores)
                    assert np.array_equal(fast.probabilities,
                                          slow.probabilities)
        bulk = with_table(delta, many.candidates)
        assert distribution("ld", many, 2.0, bulk).scores.tolist() == [
            dampen(many, delta, r, u) for r, u in enumerate(utilities)]

    def test_random_step_tables(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 40))
            gs = 3.0
            problem = make_abstract_problem(rng.uniform(-50, 50, size=3),
                                            gs=gs, n=n)
            steps = rng.uniform(0, gs, size=int(rng.integers(1, 30)))
            steps[rng.random(len(steps)) < 0.3] = 0.0     # zero-width steps
            steps[-1] = rng.uniform(0.5, gs)               # a tail that brackets
            utilities = [0.0, 1e-9, -2.5, 7.0, -64.0, n * gs, 3 * n * gs,
                         -n * gs - 5.0, *rng.uniform(-4 * n * gs, 4 * n * gs,
                                                     size=5)]
            rising = np.maximum.accumulate(steps)
            for kw in ({}, {"declared_bounded": True}):
                self.assert_same_scores(problem, step_delta(list(steps), **kw),
                                        utilities)
            # saturating: nondecreasing, reaching GS after a few steps, or
            # never (the walk ends at n)
            self.assert_same_scores(problem, saturating(list(rising) + [gs]),
                                    utilities)
            self.assert_same_scores(problem, saturating(list(rising)),
                                    utilities)
            self.assert_same_scores(
                problem, full_walk(saturating(list(rising) + [gs])), utilities)

    def test_bounded_tail_past_n(self, rng):
        # bound_sensitivity maps the hook and pins t >= n to GS; n below the
        # first request of 8 levels puts the pinned tail inside the chunk
        utilities = [0.0, 0.3, 1.9, -5.5, -40.0]
        for n in (1, 2, 3, 7, 8, 9, 20):
            many = make_abstract_problem(
                utilities + [2.0 * n - 0.1, 2.0 * n + 7.0], gs=2.0, n=n)
            for raw in (step_delta([0.5, 0.0, 4.0, 1.0]),
                        step_delta([0.5, 0.5, 1.5, 4.0],
                                   declared_nondecreasing_in_t=True)):
                bounded = bound_sensitivity(raw, 2.0, n)
                bulk = bound_sensitivity(with_table(raw, many.candidates),
                                         2.0, n)
                assert bulk.table is not None
                for lo, hi in ((0, n + 5), (n - 1, n + 5), (n, n + 5)):
                    rows, levels = bulk.table(None, lo, hi)
                    for r in many.candidates:
                        assert levels[rows[r]].tolist() == [
                            bounded(None, t, r) for t in range(lo, hi)]
                assert distribution("ld", many, 2.0, bulk).scores.tolist() == [
                    dampen(many, bounded, r, u)
                    for r, u in enumerate(many.database)]

    def test_first_request_covers_the_shortest_walk(self):
        asked = []
        for u, first in ((1.0, 8), (15.9, 8), (16.0, 9), (51.0, 26),
                         (199.0, 100), (200.0, 8), (1e6, 8)):
            problem = make_abstract_problem([u], gs=2.0, n=100)
            asked.clear()
            distribution("ld", problem, 1.0,
                         with_table(saturating([2.0]), (0,), asked))
            assert asked[0] == (0, first), u
        # over several candidates, the request for the largest |u|
        problem = make_abstract_problem([1.0, -51.0, 15.9], gs=2.0, n=100)
        asked.clear()
        distribution("ld", problem, 1.0,
                     with_table(saturating([2.0]), (0, 1, 2), asked))
        assert asked == [(0, 26)]
        # a walk past its chunk asks for twice the steps walked
        problem = make_abstract_problem([1.0], gs=2.0, n=100)
        asked.clear()
        zero_first = with_table(saturating([0.0] * 20 + [2.0]), (0,), asked)
        distribution("ld", problem, 1.0, zero_first)
        assert asked == [(0, 8), (8, 16), (16, 32)]

    def test_short_level_list_is_contract_violation(self):
        problem = make_abstract_problem([10.0], gs=2.0, n=100)
        delta = dataclasses.replace(
            saturating([1.0]),
            table=lambda db, lo, hi: ({0: 0}, np.ones((1, 3))))
        for mechanism in ("ld", "sld"):
            with pytest.raises(ContractViolationError,
                               match="returned 3 levels, 8 were asked for"):
                distribution(mechanism, problem, 1.0, delta)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    def test_bad_level_is_contract_violation_on_both_paths(self, bad):
        problem = make_abstract_problem([5.0], gs=3.0, n=10)
        raw = step_delta([1.0, 1.0, bad, 3.0],
                         declared_nondecreasing_in_t=True)
        bulk = with_table(raw, problem.candidates)
        for walked in (raw, bulk, bound_sensitivity(raw, 3.0, 10)):
            with pytest.raises(ContractViolationError) as direct:
                dampen(problem, walked, 0, 5.0)
        for mechanism in ("ld", "sld"):
            for inner in (raw, bulk):
                with pytest.raises(ContractViolationError) as exc:
                    distribution(mechanism, problem, 1.0,
                                 bound_sensitivity(inner, 3.0, 10))
                assert str(exc.value) == str(direct.value)
        # a bad level past the bracketing step is never read
        low = make_abstract_problem([1.5], gs=3.0, n=10)
        assert dampen(low, raw, 0, 1.5) == 1.5
        bulk = bound_sensitivity(with_table(raw, low.candidates), 3.0, 10)
        assert distribution("ld", low, 2.0, bulk).scores.tolist() == [1.5]

    @pytest.mark.parametrize("steps", [[2.0, 1.0, 3.0], [1.0, 4.0]])
    def test_shrinking_or_above_gs_level_on_both_paths(self, steps):
        problem = make_abstract_problem([5.0], gs=3.0, n=10)
        delta = saturating(steps)
        with pytest.raises(ContractViolationError,
                           match="nondecreasing") as direct:
            dampen(problem, delta, 0, 5.0)
        for mechanism in ("ld", "sld"):
            with pytest.raises(ContractViolationError) as exc:
                distribution(mechanism, problem, 1.0,
                             with_table(delta, problem.candidates))
            assert str(exc.value) == str(direct.value)

    def test_tree_scores_equal_per_step_walk(self, rng):
        table = separable_table()
        tables = [table, *table.partition("A").values()]
        tables += [random_table_instance(rng, max_rows=m) for m in (0, 6, 300)]
        for tbl in tables:
            problem = ig_problem(tbl, tbl.schema.attribute_names())
            delta = bound_sensitivity(ig_sensitivity(),
                                      problem.global_sensitivity,
                                      problem.database_size)
            assert delta.table is not None
            per_step = dataclasses.replace(delta, table=None)
            for mechanism in ("ld", "sld"):
                for eps in (0.1, 1.0, 10.0):
                    fast = distribution(mechanism, problem, eps, delta)
                    slow = distribution(mechanism, problem, eps, per_step)
                    assert np.array_equal(fast.scores, slow.scores)

    def test_hookless_delta_keeps_the_per_step_path(self):
        raw = step_delta([1.0])
        assert raw.table is None
        assert bound_sensitivity(raw, 1.0, 4).table is None
        problem = make_abstract_problem([0.0], gs=1.0)
        assert flatten_sensitivity(raw, problem).table is None
