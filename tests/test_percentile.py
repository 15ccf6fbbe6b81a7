import io
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dampen import percentile
from dampen.core import InvalidInputError
from dampen.fixtures import clustered_vector, random_vector_instance
from dampen.mechanisms import (
    expected_error,
    select_exponential,
    select_local_dampening,
    select_shifted_local_dampening,
)
from dampen.oracles import (
    check_admissibility,
    critical_values,
    ls0_percentile,
    ls_percentile_sensitivity,
    ls_t_of_record,
    ls_t_percentile,
    oracle_ls0,
    utility_percentile,
    vector_enumerator,
)
from dampen.percentile import (
    NumericVector,
    PercentileQuery,
    bounded_ls_percentile,
    global_sensitivity_percentile,
    load_values,
    ls0_of_record,
    percentile_problem,
    percentile_sensitivity,
    utility_of_label,
)
from dampen.sensitivity import flatten_sensitivity


def bfs_ls_t(x, q, t, label, values):
    """Exhaustive reference: BFS over every <=t-edit database on a finite
    value set, maximizing the one-step utility change at each state."""
    seen = {x.records}
    frontier = [x]
    best = oracle_ls0_finite(x, q, label, values)
    for _ in range(t):
        nxt = []
        for y in frontier:
            for lbl, cur in y.records:
                for v in values:
                    if v == cur:
                        continue
                    z = y.replace(lbl, v)
                    if z.records not in seen:
                        seen.add(z.records)
                        nxt.append(z)
                        best = max(best, oracle_ls0_finite(z, q, label, values))
        frontier = nxt
    return best


def oracle_ls0_finite(x, q, label, values):
    base = utility_of_label(x, q, label)
    worst = 0.0
    for lbl, cur in x.records:
        for v in values:
            if v != cur:
                worst = max(
                    worst, abs(base - utility_of_label(x.replace(lbl, v), q, label))
                )
    return worst


class TestVectorAndQuery:
    def test_labels_follow_original_rank(self):
        x = NumericVector([6.0, 0.0, 2.0], 10.0)
        assert x.values() == (0.0, 2.0, 6.0)
        assert x.labels() == (1, 2, 3)
        y = x.replace(1, 9.0)   # the smallest record jumps to the top
        assert y.value_of(1) == 9.0
        assert y.labels() == (2, 3, 1)

    def test_values_outside_cap_rejected(self):
        with pytest.raises(InvalidInputError):
            NumericVector([11.0], 10.0)

    def test_rank_index_clamps(self):
        assert PercentileQuery(50, 3).k == 2
        assert PercentileQuery(99, 3).k == 3      # ceil(3.96) clamped to n
        assert PercentileQuery(1, 3).k == 1

    def test_utility_examples(self):
        x = NumericVector([0.0, 2.0, 6.0], 10.0)
        q = PercentileQuery(50, 3)
        assert utility_percentile(x, q, q.k) == 0.0
        assert utility_percentile(x, q, 3) == -4.0
        q99 = PercentileQuery(99, 3)
        assert utility_percentile(x, q99, 1) == -6.0

    def test_cap_too_large_for_the_record_count_rejected(self):
        # shifted dampening scores utilities down to -(n cap + cap)
        with pytest.raises(InvalidInputError, match="not finite"):
            NumericVector([0.0, 0.0, 5e307], 5e307)
        with pytest.raises(InvalidInputError, match="not finite"):
            NumericVector([0.0], float("inf"))
        x = NumericVector([0.0, 0.0, 4e307], 4e307)
        assert x.replace(1, 4e307).values() == (0.0, 4e307, 4e307)

    def test_global_sensitivity_is_the_cap(self):
        for cap in (10.0, 1.0, float(2 ** 20)):
            assert global_sensitivity_percentile(NumericVector([0.0], cap)) == cap


class TestDistanceZeroSensitivity:
    def test_reference_vector_matches_oracle(self):
        x = NumericVector([0.0, 2.0, 6.0], 10.0)
        q = PercentileQuery(50, 3)
        got = ls0_percentile(x, q, 3)
        assert got == pytest.approx(oracle_ls0(x, q, 3))
        assert got == 4.0

    def test_single_record_pivot_is_insensitive(self):
        # the lone record is its own pivot: every rewrite moves both ends of
        # the utility's distance, which therefore never changes
        x = NumericVector([4.0], 10.0)
        q = PercentileQuery(50, 1)
        assert ls0_percentile(x, q, 1) == 0.0
        assert oracle_ls0(x, q, 1) == 0.0

    def test_constant_vector_matches_oracle(self):
        x = NumericVector([3.0, 3.0, 3.0], 10.0)
        q = PercentileQuery(50, 3)
        for i in (1, 2, 3):
            assert ls0_percentile(x, q, i) == pytest.approx(oracle_ls0(x, q, i))

    def test_random_vectors_match_oracle(self, rng):
        for _ in range(150):
            n = int(rng.integers(1, 8))
            x = random_vector_instance(rng, n=n, cap=10.0, levels=6)
            q = PercentileQuery(int(rng.choice([1, 25, 50, 75, 99])), n)
            for label in x.labels():
                got = ls0_of_record(x, q, label)
                want = oracle_ls0(x, q, label, grid=32)
                assert got == pytest.approx(want, abs=1e-9), (
                    x.values(), q.p, label
                )


class TestCandidates:
    def test_recursion_misses_third_party_edits(self):
        # the worst distance-one edit lifts the other record onto the pivot
        # value: it moves neither the target nor the pivot record
        x = NumericVector([6.0, 8.0], 8.0)
        q = PercentileQuery(50, 2)
        assert ls_t_percentile(x, q, 1, 2) == 8.0
        assert percentile_sensitivity(x, q)(x, 1, 2) == 8.0


class TestDistanceTSensitivity:
    def test_distance_zero_equals_ls0(self, rng):
        x = random_vector_instance(rng, n=4, cap=10.0, levels=5)
        q = PercentileQuery(50, 4)
        for i in (1, 2, 3, 4):
            assert ls_t_percentile(x, q, 0, i) == ls0_percentile(x, q, i)

    def test_bounded_saturates_at_cap(self, rng):
        x = clustered_vector()
        q = PercentileQuery(50, len(x))
        delta = bounded_ls_percentile(x, q)
        for label in x.labels():
            assert delta(x, len(x), label) == x.lambda_cap
            assert delta(x, len(x) + 5, label) == x.lambda_cap

    def test_monotone_in_distance(self, rng):
        x = random_vector_instance(rng, n=4, cap=8.0, levels=4)
        q = PercentileQuery(75, 4)
        for label in x.labels():
            values = [ls_t_of_record(x, q, t, label) for t in range(4)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_matches_bfs_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            x = random_vector_instance(rng, n=n, cap=8.0, levels=4)
            q = PercentileQuery(int(rng.choice([25, 50, 75])), n)
            values = sorted({0.0, 8.0, *x.values(), *[8.0 * j / 8 for j in range(9)]})
            for label in x.labels():
                for t in (1, 2):
                    got = ls_t_of_record(x, q, t, label)
                    want = bfs_ls_t(x, q, t, label, values)
                    assert got == pytest.approx(want, abs=1e-9), (
                        x.values(), q.p, t, label
                    )


def window_bound_reference(x, q, t, label):
    """Scalar form of the default percentile sensitivity, one (u, d) pair
    at a time: the oracle for the vectorised table (same arithmetic, so the
    two agree bit for bit)."""
    if t == 0:
        return ls0_of_record(x, q, label)
    values = x.values()
    n, k, cap = len(x), q.k, x.lambda_cap
    i = x.labels().index(label)
    v = values[i]
    others = values[:i] + values[i + 1:]

    def o(j):
        if j <= 0:
            return 0.0
        if j >= n:
            return cap
        return others[j - 1]

    best = 0.0
    for u in range(t + 1):   # r keeps v: A(u, t - u)
        d = t - u
        lo_km1, lo_k, hi_km1, hi_k = o(k - 1 - d), o(k - d), o(k - 1 + u), o(k + u)
        if lo_km1 <= v <= hi_k:
            best = max(best, hi_k - v if k > 1 else 0.0,
                       v - lo_km1 if k < n else 0.0,
                       cap - max(v, lo_k), min(v, hi_km1))
        if v >= lo_k:
            top = min(v, hi_k)
            best = max(best, v - lo_k, (v - lo_km1) - (v - top), cap - v,
                       (v - lo_k) - lo_km1, min(v, hi_km1) - (v - top))
        if v <= hi_km1:
            bot = max(v, lo_km1)
            best = max(best, hi_km1 - v, (hi_k - v) - (bot - v),
                       ((hi_km1 + hi_k) - v) - cap,
                       cap - ((bot + max(v, lo_k)) - v), v)
    for u in range(t):       # r edited: B(u, t - 1 - u)
        d = t - 1 - u
        best = max(best, cap - o(k - d), o(k - 1 + u), o(k + u) - o(k - 1 - d))
    return min(cap, best)


def varied_vector(rng, n, cap):
    """Continuous values, or values on a coarse grid with ties and caps."""
    if rng.random() < 0.5:
        return NumericVector(rng.uniform(0, cap, size=n), cap)
    return random_vector_instance(rng, n=n, cap=cap, levels=4)


admissibility_settings = settings(max_examples=15, deadline=None,
                                  suppress_health_check=[HealthCheck.too_slow])


class TestWindowBound:
    """The default sensitivity: the closed-form order-statistic window
    bound, computed for the range of t each read asks for."""

    @pytest.mark.parametrize("grid_elements", [None, 7])
    def test_levels_equal_scalar_reference(self, grid_elements, monkeypatch):
        # walks cross the chunk ends 8, 16, 32 and n + 1; a 7-entry grid
        # slices every chunk over records, upward edits and levels
        if grid_elements is not None:
            monkeypatch.setattr(percentile, "_GRID_ELEMENTS", grid_elements)
        rng = np.random.default_rng(41)
        for n in (1, 2, 3, 7, 8, 9, 17, 33, 40):
            x = varied_vector(rng, n, float(rng.choice([1.0, 10.0, 100.0])))
            q = PercentileQuery(int(rng.choice([1, 10, 50, 90, 100])), n)
            walked = percentile_sensitivity(x, q)
            for label in x.labels():
                for t in range(n + 3):
                    assert walked(x, t, label) == window_bound_reference(
                        x, q, t, label), (x.values(), q.p, label, t)
            jumped = percentile_sensitivity(x, q)
            label = x.labels()[-1]
            assert jumped(x, n + 2, label) == window_bound_reference(
                x, q, n + 2, label)

    @admissibility_settings
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
           cap=st.sampled_from((1.0, 10.0, 100.0)),
           p=st.sampled_from((1, 10, 25, 50, 75, 90, 99, 100)))
    @example(seed=0, n=6, cap=1.0, p=1)
    @example(seed=1, n=6, cap=100.0, p=100)
    @example(seed=2, n=1, cap=10.0, p=50)
    def test_default_delta_is_admissible(self, seed, n, cap, p):
        x = varied_vector(np.random.default_rng(seed), n, cap)
        q = PercentileQuery(p, n)
        report = check_admissibility(
            percentile_sensitivity(x, q), percentile_problem(x, q),
            vector_enumerator(x, values=critical_values(x, grid=2)), max_t=3,
        )
        assert report.passed, (x.values(), p, report)

    def test_flattened_bound_is_admissible(self):
        # the candidate-independent hull that local dampening runs on
        rng = np.random.default_rng(47)
        for _ in range(8):
            n = int(rng.integers(1, 7))
            x = varied_vector(rng, n, float(rng.choice([1.0, 10.0, 100.0])))
            q = PercentileQuery(int(rng.choice([1, 25, 50, 75, 100])), n)
            problem = percentile_problem(x, q)
            flat = flatten_sensitivity(bounded_ls_percentile(x, q), problem)
            report = check_admissibility(
                flat, problem,
                vector_enumerator(x, values=critical_values(x, grid=2)),
                max_t=3,
            )
            assert report.passed, (x.values(), q.p, report)

    def test_covers_the_exact_closure(self):
        # ls0_of_record rounds, so the bound may sit an ulp or two below a
        # closure value reached by editing the target record itself
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            x = varied_vector(rng, n, float(rng.choice([1.0, 10.0, 100.0])))
            q = PercentileQuery(int(rng.choice([1, 10, 25, 50, 75, 90, 99, 100])), n)
            delta = percentile_sensitivity(x, q)
            for label in x.labels():
                assert delta(x, 0, label) == ls0_of_record(x, q, label)
                for t in range(1, 4):
                    want = ls_t_of_record(x, q, t, label)
                    assert delta(x, t, label) >= want - 1e-12 * x.lambda_cap

    def test_equals_the_exact_closure_on_clustered_values(self):
        x = clustered_vector()
        q = PercentileQuery(50, len(x))
        delta = bounded_ls_percentile(x, q)
        exact = ls_percentile_sensitivity(q)
        for label in x.labels():
            for t in range(len(x) + 1):
                want = min(exact(x, t, label), x.lambda_cap)
                assert delta(x, t, label) == want, (label, t)

    def test_third_party_edits_are_covered(self):
        # the recursion that forced only the target and pivot records (the
        # default above ten records until the window bound replaced it)
        # gave 6 and 4 here
        cases = [
            ([6.0, 8.0], 2),
            ([0.0, 0.0, 0.0, 1.0, 2.0, 2.0, 4.0, 5.0, 5.0, 7.0, 7.0], 4),
        ]
        for values, label in cases:
            x = NumericVector(values, 8.0)
            q = PercentileQuery(50, len(x))
            delta = bounded_ls_percentile(x, q)
            assert delta(x, 1, label) >= ls_t_of_record(x, q, 1, label)

    def test_table_fill_memory_is_bounded(self):
        x = NumericVector(np.random.default_rng(44).uniform(0, 100, 2000), 100.0)
        q = PercentileQuery(50, len(x))
        delta = percentile_sensitivity(x, q)
        label = x.labels()[len(x) // 2]
        tracemalloc.start()
        try:
            levels = [delta(x, t, label) for t in range(64)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # each read computes one column of 2000 levels; one unsliced grid
        # temporary of 32 levels would be 2000 x 32 x 64 x 8 B = 33 MB
        assert peak < 8 * 2**20, peak
        for t in (0, 1, 7, 8, 31, 32, 63):
            assert levels[t] == window_bound_reference(x, q, t, label)

    def test_levels_equal_one_grid_at_chunk_ends(self):
        # eval reads one column and the table any range, with no running
        # max; every level must be the float of one grid call over every
        # t: the ls0 column, then the capped window bound
        rng = np.random.default_rng(46)
        for n in (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40):
            cap = float(rng.choice([1.0, 10.0, 100.0]))
            x = random_vector_instance(rng, n=n, cap=cap,
                                       levels=int(rng.choice([2, 4, 9])))
            q = PercentileQuery(int(rng.choice([1, 10, 50, 90, 100])), n)
            probes = [t for t in (7, 8, 15, 16, 31, 32, n - 1, n, n + 1)
                      if t >= 0]
            t_max = max(probes)
            grid = np.minimum(percentile._window_levels(
                np.array(x.values()), q.k, cap, 1, t_max + 1), cap)
            want = np.column_stack(
                [[ls0_of_record(x, q, label) for label in x.labels()], grid])
            for order in (probes, probes[::-1]):
                delta = percentile_sensitivity(x, q)
                for t in order:
                    for row, label in enumerate(x.labels()):
                        assert delta(x, t, label) == want[row, t], (
                            x.values(), q.p, label, t)
            delta = percentile_sensitivity(x, q)
            rows, levels = delta.table(x, 0, t_max + 1)
            for row, label in enumerate(x.labels()):
                assert rows[label] == row
                assert levels[row, :t_max + 1].tolist() == want[row].tolist()

    def test_levels_equal_the_unclamped_grid_at_t_cap(self):
        # the kernel evaluates the grid only below t_cap = min(k + 1,
        # n - k + 2) and writes the cap from there on; the unclamped grid
        # is the cap there too, and every level equals it across the chunk
        # ends and t_cap, at both ends of p and at the median
        rng = np.random.default_rng(47)
        for n in (1, 2, 3, 5, 8, 9, 16, 17, 31, 33, 48, 64):
            for p in (1, 10, 50, 90, 100):
                cap = float(rng.choice([1.0, 10.0, 100.0]))
                x = random_vector_instance(rng, n=n, cap=cap,
                                           levels=int(rng.choice([2, 4, 9])))
                q = PercentileQuery(p, n)
                t_cap = min(q.k + 1, n - q.k + 2)
                assert t_cap >= 2
                t_max = max(n + 1, 33)
                grid = np.minimum(percentile._window_levels(
                    np.array(x.values()), q.k, cap, 1, t_max + 1), cap)
                assert np.all(grid[:, t_cap - 1:] == cap)
                want = np.column_stack(
                    [[ls0_of_record(x, q, label) for label in x.labels()],
                     grid])
                probes = {t_cap - 1, t_cap, t_cap + 1, 7, 8, 15, 16, 31, 32,
                          n, t_max}
                delta = percentile_sensitivity(x, q)
                for t in sorted(probes):
                    for row, label in enumerate(x.labels()):
                        assert delta(x, t, label) == want[row, t], (
                            x.values(), p, label, t)
                rows, levels = percentile_sensitivity(x, q).table(
                    x, 0, t_max + 1)
                assert levels.shape[1] == t_max + 1
                for label, row in rows.items():
                    assert levels[row, :t_max + 1].tolist() == (
                        want[row].tolist())

    def test_threads_share_one_table_slot(self):
        rng = np.random.default_rng(45)
        vectors = [varied_vector(rng, 12, 10.0) for _ in range(3)]
        q = PercentileQuery(50, 12)
        want = {
            (j, label, t): window_bound_reference(x, q, t, label)
            for j, x in enumerate(vectors)
            for label in x.labels()
            for t in range(14)
        }
        delta = percentile_sensitivity(vectors[0], q)
        errors = []

        def worker(offset):
            try:
                for rep in range(30):
                    j = (offset + rep) % len(vectors)
                    x = vectors[j]
                    for label in x.labels():
                        for t in range(14):
                            if delta(x, t, label) != want[(j, label, t)]:
                                errors.append((j, label, t))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not errors, errors[:5]


class TestMechanismTrend:
    def test_dampened_never_worse_than_exponential(self, rng):
        x = clustered_vector()
        q = PercentileQuery(50, len(x))
        problem = percentile_problem(x, q)
        delta = bounded_ls_percentile(x, q)
        flat = flatten_sensitivity(delta, problem)
        for eps in (0.5, 2.0):
            _, em = select_exponential(problem, eps, rng)
            _, ld = select_local_dampening(problem, flat, eps, rng)
            _, sld = select_shifted_local_dampening(problem, delta, eps, rng)
            e_em = expected_error(em, problem)
            assert expected_error(ld, problem) <= e_em + 1e-9
            assert expected_error(sld, problem) <= e_em + 1e-9

    def test_critical_values_cover_extremes(self):
        x = clustered_vector()
        values = critical_values(x, grid=16)
        assert 0.0 in values and x.lambda_cap in values
        assert all(v in values for v in x.values())


class TestLoading:
    def test_plain_and_csv_header(self):
        x = load_values(io.StringIO("1.5\n2.0\n"), 10.0)
        assert x.values() == (1.5, 2.0)
        y = load_values(io.StringIO("value\n1.5\n2.0\n"), 10.0)
        assert y.values() == (1.5, 2.0)

    def test_cap_too_large_is_refused_at_load(self):
        with pytest.raises(InvalidInputError, match="3 records"):
            load_values(io.StringIO("0\n0\n5e307\n"), 5e307)

    def test_out_of_range_is_line_numbered(self):
        with pytest.raises(InvalidInputError, match="line 3"):
            load_values(io.StringIO("1.0\n2.0\n99.0\n"), 10.0)

    def test_non_numeric_body_is_line_numbered(self):
        with pytest.raises(InvalidInputError, match="line 2"):
            load_values(io.StringIO("1.0\nxyz\n"), 10.0)

    @pytest.mark.parametrize("text, line", [
        ("a,b\n1,2\n3,4\n", 1),
        ("value\n1.5\n2.0,3.0\n", 3),
        ("1.5,\n", 1),
    ])
    def test_several_fields_are_refused(self, text, line):
        with pytest.raises(InvalidInputError,
                           match=f"line {line}: .* more than one field"):
            load_values(io.StringIO(text), 10.0)
