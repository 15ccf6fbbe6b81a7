import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampen import cli, graphs, harness, mechanisms, oracles, trees
from dampen import percentile as percentile_mod
from dampen.checks import run_checks
from dampen.core import (
    ContractViolationError,
    InvalidInputError,
    PreconditionError,
    SearchBudgetError,
)
from dampen.fixtures import (
    clustered_vector,
    example_graph,
    random_graph_instance,
    separable_table,
)
from dampen.harness import (
    MAX_TOPK_RUNS,
    ExperimentSpec,
    ResultRow,
    cell_seed,
    load_dataset,
    parse_emitted_csv,
    parse_emitted_json,
    rows_to_text,
    run_experiment,
)
from dampen.percentile import (
    NumericVector,
    PercentileQuery,
    bounded_ls_percentile,
    percentile_problem,
)
from dampen.sensitivity import flatten_sensitivity
from dampen.trees import Categorical, Continuous, LabeledTable, TableSchema

from conftest import scored_candidates


@pytest.fixture(scope="module")
def vector_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "values.txt"
    path.write_text("".join(f"{v}\n" for v in clustered_vector().values()))
    return str(path)


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "edges.txt"
    lines = ["# demo graph"]
    lines += [f"{u} {v}" for u, v in example_graph().edges()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def table_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("data")
    table = separable_table()
    data = base / "toy.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["A", "B", "C", "D", "label"])
        writer.writeheader()
        for row in table.row_dicts():
            writer.writerow(row)
    schema = base / "toy.schema.json"
    schema.write_text(json.dumps({
        "A": {"categorical": [0, 1]},
        "B": {"categorical": [0, 1]},
        "C": {"categorical": [0, 1]},
        "D": {"categorical": [0, 1]},
        "class": "label",
        "classes": ["no", "yes"],
    }))
    return str(data), str(schema)


class TestSpecValidation:
    def test_empty_epsilon_list_rejected(self):
        with pytest.raises(InvalidInputError):
            ExperimentSpec("percentile", "d", epsilons=(), mechanisms=("em",))

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(InvalidInputError):
            ExperimentSpec("percentile", "d", epsilons=(0.0,), mechanisms=("em",))

    @pytest.mark.parametrize("application, tag", [
        ("percentile", "global"), ("mechanism-compare", "nope"),
        ("topk", "local"), ("tree", "em"),
    ])
    def test_unknown_tag_rejected_for_every_application(self, application, tag):
        with pytest.raises(InvalidInputError, match=repr(tag)):
            ExperimentSpec(application, "d", epsilons=(1.0,),
                           mechanisms=(tag,))

    def test_unknown_application_rejected(self):
        with pytest.raises(InvalidInputError):
            ExperimentSpec("nope", "d", epsilons=(1.0,), mechanisms=("em",))

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan])
    def test_nonfinite_epsilon_rejected(self, epsilon):
        with pytest.raises(InvalidInputError):
            ExperimentSpec("tree", "d", epsilons=(1.0, epsilon),
                           mechanisms=("global",))


class TestRunExperiment:
    def test_percentile_epsilons_share_one_scoring(self, vector_file,
                                                   monkeypatch):
        dataset = load_dataset(vector_file, "vector", lambda_cap=100.0)
        calls = []
        real = mechanisms.dampen

        def counted(problem, delta, r, u, *tails):
            calls.append((r, u))
            return real(problem, delta, r, u, *tails)

        monkeypatch.setattr(mechanisms, "dampen", counted)
        counts = []
        for epsilons in ((1.0,), (0.1, 1.0, 10.0)):
            calls.clear()
            run_experiment(ExperimentSpec(
                "percentile", "values", epsilons=epsilons,
                mechanisms=("ld", "sld")), dataset)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_percentile_dampening_reads_each_range_once(self, monkeypatch):
        # ld reads the hull of the block sld reads, in one pass: each column
        # range of the window grid is computed once, [1, min(n, 8))
        # included, and each record's level at t = 0 once
        values = np.round(np.random.default_rng(5).uniform(0, 100, 60), 2)
        dataset = NumericVector(values.tolist(), 100.0)
        n = len(dataset)
        ranges, at_zero = [], []
        window, exact = percentile_mod._window_levels, percentile_mod.ls0_of_record

        def counted_window(values, k, cap, lo, hi):
            ranges.append((lo, hi))
            return window(values, k, cap, lo, hi)

        def counted_exact(x, q, label):
            at_zero.append(label)
            return exact(x, q, label)

        monkeypatch.setattr(percentile_mod, "_window_levels", counted_window)
        monkeypatch.setattr(percentile_mod, "ls0_of_record", counted_exact)
        spec = ExperimentSpec("percentile", "values", epsilons=(0.1, 1.0, 10.0),
                              mechanisms=("em", "pf", "ld", "sld"))
        rows = run_experiment(spec, dataset)
        assert ranges.count((1, min(n, 8))) == 1
        assert len(ranges) == len(set(ranges)) > 1
        assert sorted(at_zero) == sorted(dataset.labels())
        # the same values as each mechanism's own distribution
        problem = percentile_problem(dataset, PercentileQuery(50, n))
        delta = bounded_ls_percentile(dataset, PercentileQuery(50, n))
        deltas = {"ld": flatten_sensitivity(delta, problem), "sld": delta}
        for row in rows:
            dist = mechanisms.distribution(row.mechanism, problem, row.epsilon,
                                           deltas.get(row.mechanism))
            assert row.value == mechanisms.expected_error(dist, problem)

    def test_percentile_rows_and_ordering(self, vector_file):
        dataset = load_dataset(vector_file, "vector", lambda_cap=100.0)
        spec = ExperimentSpec(
            "percentile", "values", epsilons=(0.5, 2.0),
            mechanisms=("em", "ld"), base_seed=3, params={"p": 50},
        )
        rows = run_experiment(spec, dataset)
        assert [(r.mechanism, r.epsilon) for r in rows] == [
            ("em", 0.5), ("em", 2.0), ("ld", 0.5), ("ld", 2.0),
        ]
        assert all(r.metric == "expectedError" and r.dispersion == 0.0
                   for r in rows)
        by_eps = {r.epsilon: {} for r in rows}
        for r in rows:
            by_eps[r.epsilon][r.mechanism] = r.value
        for eps, vals in by_eps.items():
            assert vals["ld"] <= vals["em"] + 1e-9

    def test_pf_rows_are_exact(self, vector_file):
        dataset = load_dataset(vector_file, "vector", lambda_cap=100.0)
        spec = ExperimentSpec(
            "mechanism-compare", "values", epsilons=(0.3, 1.0),
            mechanisms=("em", "pf"),
        )
        rows = run_experiment(spec, dataset)
        assert all(r.metric == "expectedError" and r.dispersion == 0.0
                   for r in rows)
        # closed form by leggauss and a direct product over the others
        u = np.array(percentile_problem(
            dataset, PercentileQuery(50, len(dataset))).utilities())
        nodes, weights = np.polynomial.legendre.leggauss(len(u))
        x = 0.5 * (nodes + 1.0)
        for eps, em, pf in zip(spec.epsilons, rows[:2], rows[2:]):
            p = np.exp(eps * (u - u.max()) / (2.0 * 100.0))
            f = 1.0 - p[:, None] * x[None, :]
            others = np.array([np.prod(np.delete(f, r, axis=0), axis=0)
                               for r in range(len(u))])
            probs = p * (others @ (0.5 * weights))
            assert pf.value == pytest.approx(
                float(probs @ (u.max() - u)), abs=1e-9)
            assert pf.value <= em.value + 1e-9

    def test_deterministic_across_runs(self, vector_file):
        dataset = load_dataset(vector_file, "vector", lambda_cap=100.0)
        spec = ExperimentSpec(
            "percentile", "values", epsilons=(0.5, 1.0),
            mechanisms=("em", "pf", "ld", "sld"), base_seed=11,
        )

        def run_serialized():
            rows = run_experiment(spec, dataset)
            return [
                (r.application, r.mechanism, r.epsilon, r.metric, r.value,
                 r.dispersion)
                for r in rows
            ]

        assert run_serialized() == run_serialized()

    def test_cell_seed_is_stable(self):
        assert cell_seed(1, "a", 2) == cell_seed(1, "a", 2)
        assert cell_seed(1, "a", 2) != cell_seed(1, "a", 3)

    def test_topk_accuracy_rows(self, graph_file):
        dataset = load_dataset(graph_file, "graph")
        spec = ExperimentSpec(
            "topk", "g", epsilons=(50.0,), mechanisms=("sld",),
            params={"k": 2, "runs": 10},
        )
        (row,) = run_experiment(spec, dataset)
        assert row.metric == "topkAccuracy"
        assert 0.0 <= row.value <= 1.0

    def test_topk_rejects_nonpositive_runs(self, graph_file):
        dataset = load_dataset(graph_file, "graph")
        spec = ExperimentSpec(
            "topk", "g", epsilons=(1.0,), mechanisms=("em",),
            params={"k": 1, "runs": -3},
        )
        with pytest.raises(InvalidInputError):
            run_experiment(spec, dataset)

    def test_tree_rows(self, table_files):
        data, schema = table_files
        dataset = load_dataset(data, "table", schema=schema)
        spec = ExperimentSpec(
            "tree", "toy", epsilons=(1e6,), mechanisms=("global",),
            params={"depth": 4, "folds": 5},
        )
        (row,) = run_experiment(spec, dataset)
        assert row.metric == "cvAccuracy"
        assert row.value == 1.0


GOLDEN_SCHEMA = TableSchema(
    attributes=(
        ("x", Continuous(0.0, 10.0, 3)),
        ("a", Categorical(("p", "q", "r"))),
        ("b", Categorical(("p", "q"))),
        ("c", Categorical(("p", "q", "r", "s"))),
    ),
    class_attribute="y",
    class_values=("k", "m", "n"),
)


def golden_table():
    """150 seeded rows: the class follows x and a, with 15% of the labels
    redrawn."""
    rng = np.random.default_rng(2020)
    rows = []
    for _ in range(150):
        x = round(float(rng.uniform(0.0, 10.0)), 2)
        a = ("p", "q", "r")[int(rng.integers(3))]
        label = int(x > 5.0) + int(a == "q")
        if rng.random() < 0.15:
            label = int(rng.integers(3))
        rows.append({"x": x, "a": a, "b": ("p", "q")[int(rng.integers(2))],
                     "c": ("p", "q", "r", "s")[int(rng.integers(4))],
                     "y": GOLDEN_SCHEMA.class_values[label]})
    return LabeledTable(GOLDEN_SCHEMA, rows)


def test_tree_rows_equal_recorded_values():
    # recorded from the per-attribute level fill that the batched one
    # replaced; any change to a level, a majority label or a fold shows here
    spec = ExperimentSpec(
        "tree", "golden", epsilons=(0.5, 5.0),
        mechanisms=("global", "local", "shifted"), base_seed=7,
        params={"depth": 3, "folds": 5},
    )
    rows = run_experiment(spec, golden_table())
    assert [(r.mechanism, r.epsilon, r.value) for r in rows] == [
        ("global", 0.5, 0.37333333333333335),
        ("global", 5.0, 0.6599999999999999),
        ("local", 0.5, 0.3466666666666666),
        ("local", 5.0, 0.5933333333333334),
        ("shifted", 0.5, 0.38666666666666666),
        ("shifted", 5.0, 0.6599999999999999),
    ]


def golden_vector(n):
    """n seeded records on [0, 100]: half on a coarse grid with ties and
    both caps, half uniform to two decimals."""
    rng = np.random.default_rng(3000 + n)
    values = [float(v) for v in rng.choice((0.0, 12.5, 50.0, 100.0), size=n // 2)]
    values += [round(float(v), 2) for v in rng.uniform(0.0, 100.0, size=n - n // 2)]
    return NumericVector(values, 100.0)


# recorded from the per-module percentile table that the shared level table
# replaced, at sizes on both sides of the chunk ends 8, 16 and 32
PERCENTILE_GOLDEN = {
    7: [
        ("em", 0.1, 30.40153557984407),
        ("em", 1.0, 28.277210100222526),
        ("em", 10.0, 11.977362404711862),
        ("ld", 0.1, 30.277585434179414),
        ("ld", 1.0, 27.072105014595408),
        ("ld", 10.0, 7.1731154959124055),
        ("sld", 0.1, 30.61616270964825),
        ("sld", 1.0, 30.398378491518095),
        ("sld", 10.0, 28.148527850958082),
    ],
    8: [
        ("em", 0.1, 32.31328476674684),
        ("em", 1.0, 29.234348197352467),
        ("em", 10.0, 10.680607771334465),
        ("ld", 0.1, 32.20468353438208),
        ("ld", 1.0, 28.23042316317424),
        ("ld", 10.0, 7.852265148489893),
        ("sld", 0.1, 32.429337595572804),
        ("sld", 1.0, 30.185411274465668),
        ("sld", 10.0, 8.100189708767893),
    ],
    9: [
        ("em", 0.1, 29.509618226325436),
        ("em", 1.0, 27.301988667856605),
        ("em", 10.0, 13.739904454954292),
        ("ld", 0.1, 29.409591769385838),
        ("ld", 1.0, 26.385551486210307),
        ("ld", 10.0, 10.925303528015641),
        ("sld", 0.1, 29.68247191657676),
        ("sld", 1.0, 28.909750809971904),
        ("sld", 10.0, 18.77841697500345),
    ],
    16: [
        ("em", 0.1, 34.16315098357788),
        ("em", 1.0, 32.5612276503563),
        ("em", 10.0, 14.873538449828324),
        ("ld", 0.1, 34.01216492433913),
        ("ld", 1.0, 30.907618245062924),
        ("ld", 10.0, 5.887031459263327),
        ("sld", 0.1, 34.20894358614872),
        ("sld", 1.0, 33.06713877588477),
        ("sld", 10.0, 23.251147697795314),
    ],
    17: [
        ("em", 0.1, 29.22570835038848),
        ("em", 1.0, 27.556996072775597),
        ("em", 10.0, 13.564462567001703),
        ("ld", 0.1, 29.09732660208627),
        ("ld", 1.0, 26.28126508218538),
        ("ld", 10.0, 7.969296736764388),
        ("sld", 0.1, 29.30750427422756),
        ("sld", 1.0, 28.340867724085893),
        ("sld", 10.0, 18.278123186800453),
    ],
    33: [
        ("em", 0.1, 28.882372782734567),
        ("em", 1.0, 27.56009340883439),
        ("em", 10.0, 16.015571320643193),
        ("ld", 0.1, 28.766611651367597),
        ("ld", 1.0, 26.409673898258927),
        ("ld", 10.0, 10.140787974733648),
        ("sld", 0.1, 28.934060110060756),
        ("sld", 1.0, 28.036595905258146),
        ("sld", 10.0, 17.99152665848173),
    ],
}


@pytest.mark.parametrize("n", sorted(PERCENTILE_GOLDEN))
def test_percentile_rows_equal_recorded_values(n):
    spec = ExperimentSpec(
        "percentile", "golden", epsilons=(0.1, 1.0, 10.0),
        mechanisms=("em", "ld", "sld"), base_seed=7, params={"p": 50},
    )
    rows = run_experiment(spec, golden_vector(n))
    assert [(r.mechanism, r.epsilon, r.value) for r in rows] == (
        PERCENTILE_GOLDEN[n])


# recorded before the window table stopped at its cap column, at p on
# both sides of the median and n on both sides of the chunk ends 16 and 32
PERCENTILE_TAIL_GOLDEN = {
    (10, 17): [
        ("em", 0.1, 44.378241749489604),
        ("em", 1.0, 39.06001011973414),
        ("em", 10.0, 10.069513986569273),
        ("ld", 0.1, 44.378241749489604),
        ("ld", 1.0, 39.06001011973414),
        ("ld", 10.0, 10.069513986569273),
        ("sld", 0.1, 44.35801825791743),
        ("sld", 1.0, 38.49671940640317),
        ("sld", 10.0, 4.380692927725307),
    ],
    (10, 33): [
        ("em", 0.1, 35.13672373056068),
        ("em", 1.0, 30.928853269936088),
        ("em", 10.0, 9.232611621840322),
        ("ld", 0.1, 35.06729623101433),
        ("ld", 1.0, 30.29484517977329),
        ("ld", 10.0, 7.967396324511747),
        ("sld", 0.1, 35.16504682768876),
        ("sld", 1.0, 30.993140368447467),
        ("sld", 10.0, 5.262177969169756),
    ],
    (10, 48): [
        ("em", 0.1, 49.661322748432795),
        ("em", 1.0, 43.79571638994593),
        ("em", 10.0, 10.27486246175431),
        ("ld", 0.1, 49.661322748432795),
        ("ld", 1.0, 43.79571638994593),
        ("ld", 10.0, 10.27486246175431),
        ("sld", 0.1, 49.64934004372444),
        ("sld", 1.0, 43.34181379653158),
        ("sld", 10.0, 5.460972499565782),
    ],
    (90, 17): [
        ("em", 0.1, 54.40264402757922),
        ("em", 1.0, 48.825634036327074),
        ("em", 10.0, 11.228989478994524),
        ("ld", 0.1, 54.40264402757922),
        ("ld", 1.0, 48.825634036327074),
        ("ld", 10.0, 11.228989478994523),
        ("sld", 0.1, 54.41814706286266),
        ("sld", 1.0, 48.58913471986218),
        ("sld", 10.0, 5.672355055434861),
    ],
    (90, 33): [
        ("em", 0.1, 53.52869756549953),
        ("em", 1.0, 48.30080590364783),
        ("em", 10.0, 11.260101547818369),
        ("ld", 0.1, 53.52869756549953),
        ("ld", 1.0, 48.30080590364783),
        ("ld", 10.0, 11.260101547818369),
        ("sld", 0.1, 53.50626964835621),
        ("sld", 1.0, 47.73051956051013),
        ("sld", 10.0, 5.048696723274591),
    ],
    (90, 48): [
        ("em", 0.1, 49.02749669923607),
        ("em", 1.0, 43.194704956265745),
        ("em", 10.0, 9.891726067858453),
        ("ld", 0.1, 49.02749669923607),
        ("ld", 1.0, 43.194704956265745),
        ("ld", 10.0, 9.891726067858453),
        ("sld", 0.1, 49.03330171561302),
        ("sld", 1.0, 42.88492205471535),
        ("sld", 10.0, 3.8468502097072834),
    ],
}


@pytest.mark.parametrize("p, n", sorted(PERCENTILE_TAIL_GOLDEN))
def test_percentile_tail_rows_equal_recorded_values(p, n):
    spec = ExperimentSpec(
        "percentile", "golden", epsilons=(0.1, 1.0, 10.0),
        mechanisms=("em", "ld", "sld"), base_seed=7, params={"p": p},
    )
    rows = run_experiment(spec, golden_vector(n))
    assert [(r.mechanism, r.epsilon, r.value) for r in rows] == (
        PERCENTILE_TAIL_GOLDEN[p, n])


def golden_graph(n):
    """Seeded G(n, p) graph of the top-k golden rows."""
    return random_graph_instance(np.random.default_rng(500 + n), n=n,
                                 edge_prob=0.3 if n == 12 else 0.2)


# recorded when the top-k harness still built one selector per (mechanism,
# epsilon) cell: (mechanism, epsilon, mean accuracy, standard error)
TOPK_GOLDEN = {
    12: [
        ("em", 0.5, 0.2666666666666666, 0.04588314677411235),
        ("em", 2.0, 0.31666666666666665, 0.0615349470431424),
        ("em", 8.0, 0.4333333333333333, 0.05461186812727502),
        ("pf", 0.5, 0.26666666666666666, 0.05186577368103327),
        ("pf", 2.0, 0.18333333333333332, 0.0450795268685249),
        ("pf", 8.0, 0.3999999999999999, 0.07091713309265872),
        ("ld", 0.5, 0.26666666666666666, 0.04588314677411235),
        ("ld", 2.0, 0.3, 0.06352234031660235),
        ("ld", 8.0, 0.41666666666666663, 0.0586146100782039),
        ("sld", 0.5, 0.2833333333333333, 0.04999999999999999),
        ("sld", 2.0, 0.4833333333333333, 0.05115622214674853),
        ("sld", 8.0, 0.6666666666666666, 0.04188539082916955),
    ],
    24: [
        ("em", 0.5, 0.1833333333333333, 0.05115622214674854),
        ("em", 2.0, 0.18333333333333332, 0.05115622214674853),
        ("em", 8.0, 0.3333333333333333, 0.05407380704358751),
        ("pf", 0.5, 0.09999999999999999, 0.03504383220252312),
        ("pf", 2.0, 0.11666666666666665, 0.03647477699349437),
        ("pf", 8.0, 0.3333333333333333, 0.05407380704358751),
        ("ld", 0.5, 0.13333333333333333, 0.04459040360399591),
        ("ld", 2.0, 0.13333333333333336, 0.04459040360399591),
        ("ld", 8.0, 0.25, 0.05339360629309895),
        ("sld", 0.5, 0.13333333333333336, 0.037463432463267755),
        ("sld", 2.0, 0.15, 0.051156222146748524),
        ("sld", 8.0, 0.41666666666666663, 0.05339360629309895),
    ],
}


@pytest.mark.parametrize("n", sorted(TOPK_GOLDEN))
def test_topk_rows_equal_recorded_values(n):
    spec = ExperimentSpec(
        "topk", "golden", epsilons=(0.5, 2.0, 8.0),
        mechanisms=("em", "pf", "ld", "sld"), base_seed=7,
        params={"k": 3, "runs": 20},
    )
    rows = run_experiment(spec, golden_graph(n))
    assert [(r.mechanism, r.epsilon, r.value, r.dispersion)
            for r in rows] == TOPK_GOLDEN[n]


@pytest.mark.parametrize("mechanism", ["ld", "sld"])
def test_topk_job_walks_each_node_once(mechanism, monkeypatch):
    # one prepared selection per (graph, mechanism), read at every epsilon:
    # each node is scored once, by the array pass or a walk
    walked = scored_candidates(monkeypatch)
    graph = golden_graph(24)
    spec = ExperimentSpec(
        "topk", "golden", epsilons=(0.5, 2.0, 8.0), mechanisms=(mechanism,),
        base_seed=7, params={"k": 3, "runs": 5},
    )
    run_experiment(spec, graph)
    assert sorted(walked) == sorted(graph.nodes)


class TestEmit:
    def _rows(self):
        return [
            ResultRow("percentile", "d", "em", 1.0, "expectedError", 4.2, 0.0, 1.5),
            ResultRow("percentile", "d", "ld", 1.0, "expectedError", 4.0, 0.0, 2.5),
        ]

    def test_json_round_trip(self):
        text = rows_to_text(self._rows(), "json")
        doc = json.loads(text)
        assert list(doc) == ["experiment", "params", "results"]
        assert parse_emitted_json(text) == self._rows()

    def test_csv_round_trip_matches_json(self):
        rows = self._rows()
        from_csv = parse_emitted_csv(rows_to_text(rows, "csv"))
        from_json = parse_emitted_json(rows_to_text(rows, "json"))
        assert from_csv == from_json == rows

    def test_single_row_results_array(self):
        doc = json.loads(rows_to_text(self._rows()[:1], "json"))
        assert len(doc["results"]) == 1

    def test_empty_rows_rejected(self):
        with pytest.raises(InvalidInputError):
            rows_to_text([], "json")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.text(), st.text(), st.sampled_from(["em", "pf", "ld", "sld"]),
        st.floats(), st.text(), st.one_of(st.floats(), st.integers()),
        st.floats(), st.floats()), min_size=1, max_size=6))
    def test_json_equals_the_standard_encoder(self, fields):
        # unicode paths, NaN, infinities, -0.0, subnormals and huge floats
        rows = [ResultRow(*f) for f in fields]
        doc = {
            "experiment": rows[0].application,
            "params": {"datasets": sorted({r.dataset for r in rows})},
            "results": [{k: getattr(r, k) for k in ResultRow.FIELDS}
                        for r in rows],
        }
        assert rows_to_text(rows, "json") == json.dumps(doc, indent=2) + "\n"

    def test_json_of_non_scalar_fields_equals_the_standard_encoder(self):
        rows = [ResultRow("p", "d\n", "em", [1.0, "a\nb"], "m", {"k": 2},
                          None, True),
                ResultRow("p", "é", "ld", (), "m", -0.0, math.nan, 3)]
        doc = {
            "experiment": "p",
            "params": {"datasets": ["d\n", "é"]},
            "results": [{k: getattr(r, k) for k in ResultRow.FIELDS}
                        for r in rows],
        }
        assert rows_to_text(rows, "json") == json.dumps(doc, indent=2) + "\n"


class TestChecks:
    def test_default_suites_pass(self):
        report = run_checks("core", seed=0)
        assert report.passed
        assert any("PASS" in line for line in report.lines())

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_checks("bogus")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dampen.cli", *args],
        capture_output=True, text=True, timeout=300,
    )


class TestCli:
    def test_percentile_json(self, vector_file):
        proc = run_cli(
            "percentile", "--data", vector_file, "--lambda", "100",
            "--epsilon", "0.5,1", "--mechanism", "em,sld",
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert len(doc["results"]) == 4

    def test_output_file_and_csv(self, vector_file, tmp_path):
        out = tmp_path / "rows.csv"
        proc = run_cli(
            "percentile", "--data", vector_file, "--lambda", "100",
            "--epsilon", "1", "--mechanism", "em", "--output", "csv",
            "--out", str(out),
        )
        assert proc.returncode == 0
        parsed = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(parsed) == 1 and parsed[0]["mechanism"] == "em"

    def test_same_seed_same_bytes(self, vector_file):
        args = (
            "percentile", "--data", vector_file, "--lambda", "100",
            "--epsilon", "1", "--mechanism", "em,pf", "--seed", "5",
            "--runs", "300",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_topk(self, graph_file):
        proc = run_cli(
            "topk", "--graph", graph_file, "--k", "2", "--epsilon", "20",
            "--mechanism", "ld,sld", "--runs", "5", "--output", "csv",
        )
        assert proc.returncode == 0, proc.stderr

    def test_topk_zero_runs_exit_one(self, graph_file):
        proc = run_cli(
            "topk", "--graph", graph_file, "--k", "1", "--epsilon", "1",
            "--mechanism", "em", "--runs", "0",
        )
        assert proc.returncode == 1
        assert proc.stderr == "dampen: runs must be >= 1\n"

    def test_tree(self, table_files):
        data, schema = table_files
        proc = run_cli(
            "tree", "--data", data, "--schema", schema, "--depth", "2",
            "--epsilon", "5", "--variant", "shifted", "--folds", "4",
        )
        assert proc.returncode == 0, proc.stderr

    def test_check_exit_zero(self):
        proc = run_cli("check", "core")
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_unknown_check_suite_is_one_line(self):
        proc = run_cli("check", "bogus")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("dampen: unknown suite 'bogus'")
        assert proc.stderr.count("\n") == 1

    def test_cli_import_leaves_the_checks_unloaded(self, vector_file,
                                                   graph_file, table_files,
                                                   tmp_path):
        # one job of each command, in one fresh interpreter: the serving
        # path loads none of the references
        data, schema = table_files
        vector = ["--data", vector_file, "--lambda", "100", "--epsilon", "1"]
        jobs = [
            ["percentile", *vector],
            ["mechanism-compare", *vector, "--mechanism", "em,pf,ld,sld"],
            ["topk", "--graph", graph_file, "--epsilon", "1", "--runs", "1",
             "--mechanism", "em,pf,ld,sld"],
            ["tree", "--data", data, "--schema", schema, "--epsilon", "1",
             "--depth", "1", "--folds", "2"],
        ]
        script = (
            "import json, sys, dampen.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert dampen.cli.main(argv + ['--out', sys.argv[2]]) == 0\n"
            "print(sorted({'dampen.oracles', 'dampen.checks', "
            "'dampen.fixtures'} & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(jobs),
             str(tmp_path / "rows.json")],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_every_exported_name_resolves(self):
        import dampen
        from dampen import check_admissibility, graphs

        assert check_admissibility is oracles.check_admissibility
        assert graphs.__name__ == "dampen.graphs"
        for name in dampen.__all__:
            assert getattr(dampen, name) is not None, name
        with pytest.raises(AttributeError):
            dampen.no_such_name

    def test_missing_file_is_io_error(self):
        proc = run_cli(
            "percentile", "--data", "/definitely/missing", "--lambda", "10",
            "--epsilon", "1",
        )
        assert proc.returncode == 3

    def test_validation_error_exit_one(self, vector_file):
        proc = run_cli(
            "percentile", "--data", vector_file, "--lambda", "1",
            "--epsilon", "1",
        )   # values exceed the cap
        assert proc.returncode == 1

    def test_bad_flags_exit_one(self):
        proc = run_cli("percentile", "--lambda", "10", "--epsilon", "1")
        assert proc.returncode == 1

    @pytest.mark.parametrize(
        "error", [ContractViolationError, PreconditionError, SearchBudgetError]
    )
    def test_runtime_errors_exit_one_without_traceback(
        self, error, vector_file, monkeypatch, capsys
    ):
        def failing(spec, dataset=None):
            raise error("walk refused")

        monkeypatch.setattr(harness, "run_experiment", failing)
        code = cli.main(["percentile", "--data", vector_file, "--lambda", "100",
                         "--epsilon", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "dampen: walk refused\n"
        assert "Traceback" not in captured.out + captured.err


class TestParserReuse:
    """``cli.main`` parses every call with one parser per process."""

    @pytest.fixture
    def jobs(self, vector_file, graph_file, table_files):
        data, schema = table_files
        vector = ["--data", vector_file, "--lambda", "100", "--epsilon", "0.5,2"]
        return [
            ["percentile", *vector, "--p", "25"],
            ["topk", "--graph", graph_file, "--k", "2", "--epsilon", "1",
             "--runs", "2", "--mechanism", "em,pf,ld,sld", "--seed", "3"],
            ["tree", "--data", data, "--schema", schema, "--epsilon", "1",
             "--depth", "1", "--folds", "2", "--variant", "global,shifted"],
            ["mechanism-compare", *vector, "--output", "csv"],
            ["percentile", *vector, "--mechanism", "sld"],
            ["tree", "--data", data, "--schema", schema, "--epsilon", "2",
             "--depth", "1", "--folds", "2"],
            ["check", "core", "--seed", "1"],
        ]

    @staticmethod
    def run(argv, capsys):
        code = cli.main(argv)
        out = capsys.readouterr().out
        # the check report ends with its wall time
        return code, re.sub(r"in [0-9.]+s", "in <t>s", out)

    def test_interleaved_runs_equal_fresh_parser_runs(self, jobs, capsys,
                                                      monkeypatch):
        fresh = []
        for argv in jobs:
            monkeypatch.setattr(cli, "_parser", cli.build_parser())
            fresh.append(self.run(argv, capsys))
        monkeypatch.setattr(cli, "_parser", None)
        shared = [self.run(argv, capsys) for argv in jobs + jobs[::-1]]
        assert shared == fresh + fresh[::-1]
        assert all(code == 0 for code, _ in fresh)
        parser = cli._parser
        assert isinstance(parser, cli._Parser)
        self.run(jobs[0], capsys)
        assert cli._parser is parser
        assert cli.build_parser() is not parser

    def test_usage_error_between_good_runs(self, jobs, capsys):
        good = self.run(jobs[0], capsys)
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["percentile", "--lambda", "10", "--epsilon", "1"])
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith(
                "dampen percentile: error:"), err
            assert self.run(jobs[0], capsys) == good

    def test_passed_mechanisms_leave_the_defaults(self, vector_file, capsys):
        argv = ["percentile", "--data", vector_file, "--lambda", "100",
                "--epsilon", "1"]
        default = self.run(argv, capsys)
        assert self.run(argv + ["--mechanism", "em"], capsys) != default
        assert self.run(argv, capsys) == default
        for command, mechanisms in (("percentile", ("em", "ld", "sld")),
                                    ("mechanism-compare",
                                     ("em", "pf", "ld", "sld"))):
            args = cli._parser.parse_args([command, *argv[1:]])
            assert args.mechanism == mechanisms
        args = cli._parser.parse_args(["tree", "--data", "d", "--schema", "s",
                                       "--epsilon", "1"])
        assert args.mechanism == ("global", "local", "shifted")


class TestTiming:
    """``--timing`` fills ``runtime_ms`` of every row and changes no other
    field; without it every row reads 0.0 and the output repeats."""

    @pytest.mark.parametrize("command", ["percentile", "mechanism-compare",
                                         "topk", "tree"])
    def test_timing_fills_runtime_only(self, command, vector_file,
                                       graph_file, table_files, capsys):
        data, schema = table_files
        inputs = {
            "percentile": ["--data", vector_file, "--lambda", "100"],
            "mechanism-compare": ["--data", vector_file, "--lambda", "100"],
            "topk": ["--graph", graph_file, "--runs", "1"],
            "tree": ["--data", data, "--schema", schema, "--depth", "1",
                     "--folds", "2"],
        }[command]
        argv = [command, *inputs, "--epsilon", "0.5,2"]
        outs = []
        for timing in ([], [], ["--timing"]):
            assert cli.main(argv + timing) == 0
            outs.append(capsys.readouterr().out)
        plain, again, timed = outs
        assert plain == again
        plain_rows = json.loads(plain)["results"]
        timed_rows = json.loads(timed)["results"]
        assert all(row["application"] == command for row in plain_rows)
        assert all(row["runtime_ms"] == 0.0 for row in plain_rows)
        assert all(row["runtime_ms"] > 0 for row in timed_rows)
        assert ([dict(row, runtime_ms=None) for row in timed_rows]
                == [dict(row, runtime_ms=None) for row in plain_rows])


def write_toy_table(base, rows):
    data = base / "rows.csv"
    data.write_text("A,label\n" + "".join(f"{a},{c}\n" for a, c in rows))
    schema = base / "rows.schema.json"
    schema.write_text(json.dumps({"A": {"categorical": ["x", "z"]},
                                  "class": "label", "classes": ["no", "yes"]}))
    return str(data), str(schema)


class TestRejectedBeforeAnyCell:
    """Inputs that used to end in NaN or Infinity in the JSON output are
    refused at load with one line on stderr and exit code 1."""

    @pytest.mark.parametrize("rows", [[], [("x", "no")]])
    def test_tree_table_with_fewer_than_two_rows(self, tmp_path, capsys, rows):
        data, schema = write_toy_table(tmp_path, rows)
        code = cli.main(["tree", "--data", data, "--schema", schema,
                         "--epsilon", "1", "--variant", "global,local"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "dampen: cross-validation needs at least 2 rows, "
            f"the table has {len(rows)}\n")

    def test_two_rows_are_enough(self, tmp_path, capsys):
        data, schema = write_toy_table(tmp_path, [("x", "no"), ("z", "yes")])
        code = cli.main(["tree", "--data", data, "--schema", schema,
                         "--epsilon", "1", "--folds", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(r["value"]) for r in doc["results"])

    @pytest.mark.parametrize("command", ["tree", "percentile"])
    def test_infinite_epsilon(self, tmp_path, capsys, vector_file, command):
        if command == "tree":
            data, schema = write_toy_table(tmp_path, [("x", "no"), ("z", "yes")])
            argv = ["tree", "--data", data, "--schema", schema]
        else:
            argv = ["percentile", "--data", vector_file, "--lambda", "100"]
        code = cli.main(argv + ["--epsilon", "1,inf"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "dampen: epsilon must be positive and finite, got inf\n")

    def test_per_stage_budget_that_underflows(self, tmp_path, capsys):
        # 1e-323 / (2 (3 + 1)) rounds to 0.0: the message names that share,
        # not the positive --epsilon it came from
        data, schema = write_toy_table(tmp_path, [("x", "no"), ("z", "yes")])
        code = cli.main(["tree", "--data", data, "--schema", schema,
                         "--epsilon", "1e-323", "--depth", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "dampen: per-stage budget epsilon / (2 (depth + 1)) must be "
            "positive and finite, got 0.0\n")

    def test_depth_too_large_for_a_float(self, tmp_path, capsys):
        # 1 / (2 (10^400 + 1)) underflows to 0.0; the share is taken
        # exactly, so there is no OverflowError on the way
        data, schema = write_toy_table(tmp_path, [("x", "no"), ("z", "yes")])
        code = cli.main(["tree", "--data", data, "--schema", schema,
                         "--epsilon", "1", "--folds", "2",
                         "--depth", "1" + "0" * 400])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "dampen: per-stage budget epsilon / (2 (depth + 1)) must be "
            "positive and finite, got 0.0\n")

    @pytest.mark.parametrize("command", ["tree", "topk"])
    def test_a_share_that_underflows_refuses_before_any_cell(
            self, tmp_path, capsys, graph_file, monkeypatch, command):
        # the first epsilon is fine and the second's share underflows: the
        # share of every epsilon is checked before the first cell runs, so
        # nothing is computed and no output is written
        cells = []
        monkeypatch.setattr(trees, "cross_validate",
                            lambda *a, **k: cells.append(a))
        monkeypatch.setattr(graphs.TopKSelector, "draw",
                            lambda *a, **k: cells.append(a))
        monkeypatch.setattr(graphs.TopKSelector, "rounds",
                            lambda *a, **k: cells.append(a))
        out = tmp_path / "out.json"
        if command == "tree":
            data, schema = write_toy_table(
                tmp_path, [("x", "no"), ("z", "yes")])
            argv = ["tree", "--data", data, "--schema", schema,
                    "--epsilon", "1,1e-323", "--depth", "3"]
            share = "per-stage budget epsilon / (2 (depth + 1))"
        else:
            argv = ["topk", "--graph", graph_file, "--k", "2",
                    "--epsilon", "1,5e-324"]
            share = "per-round budget epsilon / k"
        code = cli.main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"dampen: {share} must be positive and finite, got 0.0\n")
        assert cells == [] and not out.exists()

    @pytest.mark.parametrize("runs", [10**12, 10**20])
    def test_runs_above_the_bound(self, tmp_path, capsys, graph_file, runs):
        # refused before any cell runs: no score array of that size is made
        out = tmp_path / "out.json"
        code = cli.main(["topk", "--graph", graph_file, "--k", "2",
                         "--epsilon", "1", "--runs", str(runs),
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"dampen: runs must be at most {MAX_TOPK_RUNS}, got {runs}\n")
        assert not out.exists()

    def test_runs_at_the_bound_are_accepted(self, monkeypatch, graph_file):
        # the bound refuses nothing at or below it (checked on the spec,
        # with the cells stubbed out)
        monkeypatch.setattr(graphs.TopKSelector, "rounds",
                            lambda *a, **k: None)
        monkeypatch.setattr(graphs, "topk_accuracy", lambda *a: 1.0)
        monkeypatch.setattr(harness, "MAX_TOPK_RUNS", 5)
        spec = ExperimentSpec("topk", "g", (1.0,), ("em",),
                              params={"k": 1, "runs": 5})
        assert run_experiment(spec, example_graph())[0].value == 1.0
        spec = ExperimentSpec("topk", "g", (1.0,), ("em",),
                              params={"k": 1, "runs": 6})
        with pytest.raises(InvalidInputError, match="at most 5, got 6"):
            run_experiment(spec, example_graph())

    @pytest.mark.parametrize("folds", ["300000", "3000000000"])
    def test_folds_past_the_row_count(self, table_files, folds):
        # a fold past the 200 rows gets no rows and is skipped, so these
        # give the bytes of --folds 200 and make only 200 fold generators
        data, schema = table_files
        argv = ("tree", "--data", data, "--schema", schema, "--depth", "2",
                "--epsilon", "1", "--variant", "global,local")
        want = run_cli(*argv, "--folds", "200")
        got = run_cli(*argv, "--folds", folds)
        assert want.returncode == got.returncode == 0, got.stderr
        assert got.stdout == want.stdout

    def test_k_is_checked_before_the_shares(self, capsys, graph_file):
        code = cli.main(["topk", "--graph", graph_file, "--k", "1" + "0" * 400,
                         "--epsilon", "1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "dampen: k must be in [1, number of nodes]\n")


    def write_values(self, tmp_path, values):
        path = tmp_path / "values.txt"
        path.write_text("".join(f"{v}\n" for v in values))
        return str(path)

    @pytest.mark.parametrize("values, cap", [
        (["0", "0", "5e307"], "5e307"),
        (["0", "0", "0"], "1e308"),
    ])
    def test_cap_too_large_for_the_record_count(self, tmp_path, capsys,
                                                values, cap):
        data = self.write_values(tmp_path, values)
        code = cli.main(["percentile", "--data", data, "--lambda", cap,
                         "--epsilon", "1", "--mechanism", "sld"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"dampen: value cap {float(cap)} is too large for 3 records: "
            "(n + 1) * cap is not finite\n")

    def test_vector_line_of_several_fields(self, tmp_path, capsys):
        # only the first field used to be read: these values ran as 1 and 3
        data = self.write_values(tmp_path, ["a,b", "1,2", "3,4"])
        code = cli.main(["percentile", "--data", data, "--lambda", "10",
                         "--epsilon", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "dampen: line 1: 'a,b' has more than one field\n")

    def test_largest_cap_that_fits(self, tmp_path, capsys):
        data = self.write_values(tmp_path, ["0", "0", "4e307"])
        code = cli.main(["percentile", "--data", data, "--lambda", "4e307",
                         "--epsilon", "1", "--mechanism", "sld"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(r["value"]) for r in doc["results"])

    def test_every_score_overflowing_gives_the_limit(self, tmp_path, capsys):
        # every shifted score overflows to -inf; the limit as epsilon grows
        # is uniform over the best candidates, whose error is 0
        data = self.write_values(tmp_path, ["0", "0", "0"])
        code = cli.main(["percentile", "--data", data, "--lambda", "10",
                         "--epsilon", "1e308", "--mechanism", "sld"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        (row,) = json.loads(captured.out)["results"]
        assert row["value"] == 0.0

    def test_overflowing_topk_runs_to_completion(self, tmp_path, capsys):
        path = tmp_path / "path.txt"
        path.write_text("1 2\n2 3\n3 4\n")
        code = cli.main(["topk", "--graph", str(path), "--k", "1",
                         "--epsilon", "1e308", "--mechanism", "em,pf,ld,sld",
                         "--runs", "4"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        rows = json.loads(captured.out)["results"]
        assert [r["mechanism"] for r in rows] == ["em", "pf", "ld", "sld"]
        assert all(math.isfinite(r["value"]) for r in rows)

    def test_overflowing_tree_runs_to_completion(self, table_files, capsys):
        data, schema = table_files
        code = cli.main(["tree", "--data", data, "--schema", schema,
                         "--epsilon", "1e308", "--folds", "4"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        rows = json.loads(captured.out)["results"]
        assert len(rows) == 3
        assert all(math.isfinite(r["value"]) for r in rows)

    def test_some_scores_overflowing_is_allowed(self, tmp_path, capsys):
        # -inf scores with one finite score left are candidates of
        # probability zero
        data = self.write_values(tmp_path, ["0", "5", "10"])
        code = cli.main(["percentile", "--data", data, "--lambda", "10",
                         "--epsilon", "1e308", "--mechanism", "em"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        (row,) = json.loads(captured.out)["results"]
        assert row["value"] == 0.0


class TestLoaderRejections:
    def test_csv_value_outside_domain_is_named(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("A,label\nweird,no\n")
        schema = tmp_path / "bad.schema.json"
        schema.write_text(json.dumps({
            "A": {"categorical": ["x", "y"]},
            "class": "label", "classes": ["no", "yes"],
        }))
        with pytest.raises(InvalidInputError, match="'weird'"):
            load_dataset(str(data), "table", schema=str(schema))

    def test_check_budget_overrun_is_reported(self):
        report = run_checks("core", seed=0, budget_s=1e-9)
        assert not report.passed
        assert any(r.suite == "runtime" and not r.passed for r in report.results)


class TestMalformedInputs:
    """Each malformed input ends in one ``dampen: …`` line naming the file
    and where in it the fault is, with exit code 1 and nothing on
    stdout."""

    TOY_SCHEMA = {"A": {"categorical": ["x", "z"]}, "class": "label"}
    CONTINUOUS = {"min": 0, "max": 1, "bins": 2}
    TWO_BY_TWO = "A,y\n0,a\n1,b\n0,a\n1,b\n"

    @staticmethod
    def write(path, content):
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content if isinstance(content, str)
                            else json.dumps(content))
        return str(path)

    @pytest.mark.parametrize("schema, rows, names", [
        (TOY_SCHEMA, "A\nx\nz\n", ["rows.csv", "'label'"]),
        ({"A": 5, "class": "label"}, "A,label\nx,no\nz,yes\n", ["'A'"]),
        ({"A": {"continuous": {"min": 0, "max": 1}}, "class": "label"},
         "A,label\n0,no\n1,yes\n", ["'A'", '"bins"']),
        ({"A": {"continuous": {**CONTINUOUS, "min": "low"}}, "class": "label"},
         "A,label\n0,no\n1,yes\n", ["'A'", '"min"']),
        ({"A": {"continuous": {**CONTINUOUS, "bins": "many"}}, "class": "label"},
         "A,label\n0,no\n1,yes\n", ["'A'", '"bins"']),
        ("{not json", "A,label\nx,no\nz,yes\n", ["rows.json", "line 1"]),
        ({"A": {"continuous": CONTINUOUS}, "class": "label"},
         "A,label\n0.5,no\nhigh,yes\n", ["rows.csv", "line 3", "'A'", "'high'"]),
        ({"A": {"continuous": {"min": -1e308, "max": 1e308, "bins": 2}},
          "class": "label"}, "A,label\n0,no\n1e308,yes\n", ["finite"]),
        ({"A": {"continuous": {"min": 0, "max": 5e-324, "bins": 2}},
          "class": "label"}, "A,label\n0,no\n5e-324,yes\n", ["width"]),
        (TOY_SCHEMA, b"A,label\nx,no\nz,\xffyes\n", ["rows.csv", "line 3"]),
        (b'{"A": {"categorical": ["x", "z"]},\n"class": "\xfe"}',
         "A,label\nx,no\nz,yes\n", ["rows.json", "line 2"]),
        # a string split into characters, an object read as its keys,
        # bins truncated, a value counted twice: each loaded before
        ({"A": {"categorical": "01"}, "class": "y"}, TWO_BY_TWO,
         ["'A'", '"categorical"']),
        ({"A": {"categorical": [0, 1]}, "class": "y", "classes": "ab"},
         TWO_BY_TWO, ["'y'", '"classes"']),
        ({"A": {"categorical": {"0": 1, "1": 2}}, "class": "y"}, TWO_BY_TWO,
         ["'A'", '"categorical"']),
        ({"A": {"continuous": {**CONTINUOUS, "bins": 2.7}}, "class": "y"},
         TWO_BY_TWO, ["'A'", '"bins"']),
        ({"A": {"continuous": {**CONTINUOUS, "bins": True}}, "class": "y"},
         TWO_BY_TWO, ["'A'", '"bins"']),
        # a boolean or a numeric string read through float()
        ({"A": {"continuous": {"min": True, "max": "5", "bins": 2}},
          "class": "y"}, "A,y\n1,a\n5,b\n1,a\n5,b\n", ["'A'", '"min"']),
        ({"A": {"continuous": {"min": 0, "max": "5", "bins": 2}},
          "class": "y"}, "A,y\n1,a\n5,b\n1,a\n5,b\n", ["'A'", '"max"']),
        ({"A": {"categorical": [0, 1]}, "class": "y",
          "classes": ["a", "b", "a"]}, TWO_BY_TWO, ["'y'", "twice"]),
        ({"A": {"categorical": [0, 1, 0]}, "class": "y"}, TWO_BY_TWO,
         ["'A'", "twice"]),
    ], ids=["class-column-absent", "spec-not-an-object", "no-bins",
            "non-numeric-min", "non-numeric-bins", "schema-not-json",
            "non-numeric-value", "bins-of-infinite-width",
            "bins-of-zero-width", "csv-not-utf8", "schema-not-utf8",
            "categorical-string", "classes-string", "categorical-object",
            "fractional-bins", "boolean-bins", "boolean-min",
            "string-max", "repeated-class",
            "repeated-categorical-value"])
    def test_tree_inputs(self, tmp_path, capsys, schema, rows, names):
        code = cli.main([
            "tree", "--data", self.write(tmp_path / "rows.csv", rows),
            "--schema", self.write(tmp_path / "rows.json", schema),
            "--epsilon", "1", "--folds", "2",
        ])
        self.assert_one_line(code, capsys, names)

    def run_tree_with_bins(self, tmp_path, bins):
        schema = {"A": {"continuous": {**self.CONTINUOUS, "bins": bins}},
                  "class": "label"}
        return cli.main([
            "tree", "--data", self.write(tmp_path / "rows.csv",
                                         "A,label\n0,no\n1,yes\n0.5,no\n"),
            "--schema", self.write(tmp_path / "rows.json", schema),
            "--epsilon", "1", "--folds", "2",
        ])

    @pytest.mark.parametrize("bins", [10_001, 1_000_000, 10 ** 100])
    def test_too_many_bins(self, tmp_path, capsys, bins):
        # every declared bin is a value with its own contingency line and
        # subtable, so a schema's bin count is bounded at load
        code = self.run_tree_with_bins(tmp_path, bins)
        self.assert_one_line(code, capsys, ["at most 10000 bins", str(bins)])

    def test_most_bins_accepted(self, tmp_path, capsys):
        assert self.run_tree_with_bins(tmp_path, 10_000) == 0
        assert json.loads(capsys.readouterr().out)["results"]

    @pytest.mark.parametrize("command, content", [
        ("percentile", b"1\n\xff2\n"),
        ("topk", b"a b\nb \xfec\n"),
    ])
    def test_text_inputs_not_utf8(self, tmp_path, capsys, command, content):
        path = self.write(tmp_path / "input.txt", content)
        if command == "topk":
            argv = ["topk", "--graph", path]
        else:
            argv = ["percentile", "--data", path, "--lambda", "10"]
        code = cli.main(argv + ["--epsilon", "1"])
        self.assert_one_line(code, capsys, ["input.txt", "line 2", "UTF-8"])

    @staticmethod
    def assert_one_line(code, capsys, names):
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("dampen: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        for name in names:
            assert name in captured.err, (name, captured.err)


def _refuse_constant(name):
    raise ValueError(f"{name} in the JSON output")


_epsilons = st.lists(st.floats(1e-320, 1e308), min_size=1, max_size=2)
# value lines: shares of the cap (or more), or tokens that are no number
_share = st.one_of(st.floats(0, 1), st.floats(0, 1), st.floats(0, 2),
                   st.sampled_from(["x", ""]))
_shares = st.one_of(st.lists(_share, min_size=1, max_size=3),
                    st.lists(_share, min_size=1, max_size=3), st.just([]))
_mechanisms = st.lists(st.sampled_from(["em", "pf", "ld", "sld"]),
                       min_size=1, max_size=4, unique=True)
_variants = st.lists(st.sampled_from(["global", "local", "shifted"]),
                     min_size=1, max_size=3, unique=True)
_node = st.sampled_from("abc")
_schemas = st.one_of(
    st.just({"A": {"categorical": ["x", "z"]}, "class": "label"}),
    st.just({"A": {"categorical": ["x", "z"]}, "B": {"continuous": {
        "min": 0, "max": 1, "bins": 2}}, "class": "label",
        "classes": ["no", "yes"]}),
    st.sampled_from([
        {"A": {"categorical": ["x", "z"]}, "class": "other"},
        {"A": 5, "class": "label"},
        {"A": {"continuous": {"min": 0, "max": 1}}, "class": "label"},
        {"A": {"continuous": {"min": "low", "max": 1, "bins": 2}},
         "class": "label"},
        {"A": {"categorical": 5}, "class": "label"},
        {"A": {"categorical": [["x"]]}, "class": "label"},
        {"A": {"categorical": ["x"]}, "class": ["label"]},
        {"A": {"categorical": ["x"]}, "class": "label", "classes": 5},
        {"A": {"categorical": "xz"}, "class": "label"},
        {"A": {"categorical": {"x": 1, "z": 2}}, "class": "label"},
        {"A": {"categorical": ["x", "z", "x"]}, "class": "label"},
        {"A": {"categorical": ["x", "z"]}, "class": "label", "classes": "ny"},
        {"A": {"categorical": ["x", "z"]}, "class": "label",
         "classes": ["no", "yes", "no"]},
        {"A": {"continuous": {"min": 0, "max": 1, "bins": 2.5}},
         "class": "label"},
        {"A": {"continuous": {"min": 0, "max": 1, "bins": True}},
         "class": "label"},
        {"A": {"continuous": {"min": True, "max": "5", "bins": 2}},
         "class": "label"},
        {"A": {"continuous": {"min": 0, "max": "5", "bins": 2}},
         "class": "label"},
        [],
        "{not json",
    ]),
)
_row = st.tuples(st.sampled_from(["x", "z"] * 4 + ["y"]),
                 st.sampled_from(["0", "0.5", "1"] * 3 + ["2", "high"]),
                 st.sampled_from(["no", "yes"]))


@st.composite
def _jobs(draw):
    """One small ``dampen`` run: its argv, which names its inputs by file
    name, and the text of each input file."""
    command = draw(st.sampled_from(
        ["percentile", "mechanism-compare", "topk", "tree"]))
    epsilons = ",".join(map(repr, draw(_epsilons)))
    if command == "tree":
        rows = draw(st.lists(_row, min_size=1, max_size=4))
        schema = draw(_schemas)
        files = {
            "rows.csv": "A,B,label\n" + "".join(f"{a},{b},{c}\n"
                                                 for a, b, c in rows),
            "rows.json": schema if isinstance(schema, str)
            else json.dumps(schema),
        }
        argv = ["tree", "--data", "rows.csv", "--schema", "rows.json",
                "--depth", "1", "--folds", "2", "--runs", "1",
                "--variant", ",".join(draw(_variants))]
    elif command == "topk":
        edges = draw(st.lists(st.tuples(_node, _node), max_size=4))
        files = {"edges.txt": "".join(f"{u} {v}\n" for u, v in edges)}
        argv = ["topk", "--graph", "edges.txt", "--runs", "1",
                "--k", str(draw(st.integers(1, 3))),
                "--mechanism", ",".join(draw(_mechanisms))]
    else:
        cap = draw(st.floats(1e-300, 1e308))
        values = [v * cap if isinstance(v, float) else v
                  for v in draw(_shares)]
        files = {"values.txt": "".join(f"{v!r}\n" for v in values)}
        argv = [command, "--data", "values.txt", "--runs", "1",
                "--lambda", repr(cap),
                "--p", str(draw(st.integers(1, 100))),
                "--mechanism", ",".join(draw(_mechanisms))]
    return argv + ["--epsilon", epsilons], files


@settings(max_examples=150, deadline=None)
@given(job=_jobs())
def test_tiny_inputs_give_json_or_one_error_line(job):
    """Whatever the loaders are handed, a run prints JSON without NaN or
    Infinity and exits 0, or prints one line on stderr and exits 1."""
    argv, files = job
    with tempfile.TemporaryDirectory() as base:
        for name, text in files.items():
            with open(os.path.join(base, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [os.path.join(base, a) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
    else:
        assert code == 1, (code, err.getvalue())
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1, err.getvalue()
        assert err.getvalue().startswith("dampen: ")
