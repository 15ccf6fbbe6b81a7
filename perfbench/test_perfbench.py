"""Self-tests of the benchmark's reference computations and output checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from dampen import fixtures, graphs  # noqa: E402


def _adjacency(graph) -> np.ndarray:
    ix = {v: i for i, v in enumerate(graph.nodes)}
    adj = np.zeros((len(ix), len(ix)), dtype=np.int64)
    for a, b in graph.edges():
        adj[ix[a], ix[b]] = adj[ix[b], ix[a]] = 1
    return adj


def test_ebc_counter_matches_geodesic_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        graph = fixtures.random_graph_instance(
            rng, n=int(rng.integers(4, 9)), edge_prob=float(rng.uniform(0.2, 0.8)))
        mine = ref.ebc_exact(_adjacency(graph))
        for node, score in zip(graph.nodes, mine):
            assert float(score) == pytest.approx(graphs.ebc_oracle(graph, node), abs=1e-12)


def _pf_by_enumeration(u, epsilon, gs):
    """Average over all permutations of the probability that the flip walk
    stops at each candidate."""
    u = np.asarray(u, dtype=float)
    p = np.exp(epsilon * (u - u.max()) / (2 * gs))
    out = np.zeros(len(u))
    perms = list(itertools.permutations(range(len(u))))
    for perm in perms:
        reach = 1.0
        for r in perm:
            out[r] += reach * p[r]
            reach *= 1.0 - p[r]
    return out / len(perms)


@pytest.mark.parametrize("k", [1, 2, 4, 5])
def test_pf_closed_form_matches_permutation_enumeration(k):
    rng = np.random.default_rng(k)
    for _ in range(5):
        u = rng.uniform(-10, 0, k)
        eps, gs = float(rng.uniform(0.1, 5)), float(rng.uniform(0.5, 4))
        assert ref.pf_distribution(u, eps, gs) == pytest.approx(
            _pf_by_enumeration(u, eps, gs), abs=1e-12)


def test_breakpoint_map_hand_worked():
    # widths 1, 0, 2 (n = 3), GS = 2: breakpoints 0, 1, 1, 3
    widths = np.array([[1.0, 0.0, 2.0]])
    got = ref.breakpoint_scores(widths, 2.0, [0.0, 0.5, 1.0, 2.0, 3.0, 7.0, -2.0])
    # 0.5 -> 0.5; 1.0 skips the empty interval [1, 1) -> 2 + 0/2;
    # 2.0 -> 2 + 1/2; 3.0 -> saturated 3 + 0; 7.0 -> 3 + 4/2; mirrored -2.0
    assert got == pytest.approx([0.0, 0.5, 2.0, 2.5, 3.0, 5.0, -2.5], abs=1e-15)


def test_sld_saturated_scores_match_per_candidate_sums():
    # in the tail every shifted score is -(n + (v - B_n(r)) / GS): SLD is EM
    # on u + B_n at the same budget
    rng = np.random.default_rng(3)
    u = rng.uniform(-5, 0, 6)
    widths = rng.uniform(0.1, 2.0, (6, 4))
    gs = 2.0
    sld = ref.sld_expected_error(u, widths, 1.3, gs)
    em_on_sums = ref.expected_regret(
        ref.softmax(1.3 * (u + widths.sum(axis=1)) / (2 * gs)), u)
    assert sld == pytest.approx(em_on_sums, abs=1e-12)


def test_batched_pf_rows_match_single_sets():
    rng = np.random.default_rng(9)
    u = rng.uniform(-8, 0, 7)
    avail = rng.random((4, 7)) < 0.6
    avail[:, 2] = True
    batched = ref.pf_distribution(u, 1.5, 2.0, avail)
    for row, mask in zip(batched, avail):
        alone = ref.pf_distribution(u[mask], 1.5, 2.0)
        assert row[mask] == pytest.approx(alone, abs=1e-12)
        assert not row[~mask].any()


@pytest.mark.parametrize("k", [2, 3])
def test_sequential_accuracy_matches_brute_force(k):
    rng = np.random.default_rng(5)
    w = rng.uniform(0.1, 1.0, 5)
    truth = [0, 3, 4][:k]

    def dist(avail):
        masked = np.where(avail, w, 0.0)
        return masked / masked.sum(axis=1, keepdims=True)

    brute = 0.0
    for picks in itertools.permutations(range(5), k):
        prob, left = 1.0, w.sum()
        for r in picks:
            prob *= w[r] / left
            left -= w[r]
        brute += prob * len(set(picks) & set(truth)) / k
    assert ref.sequential_expected_accuracy(dist, 5, k, truth) == pytest.approx(
        brute, abs=1e-12)


def test_id3_reference_accepts_exact_induction_and_rejects_a_swap(tmp_path):
    from dampen import trees

    table = fixtures.separable_table()
    csv_path, schema_path = tmp_path / "t.csv", tmp_path / "t.json"
    cols = table.schema.attribute_names() + (table.schema.class_attribute,)
    csv_path.write_text("\n".join(
        [",".join(cols)] + [",".join(f"v{v}" if isinstance(v, int) else v for v in row)
                            for row in table.rows]) + "\n")
    schema = {a: {"categorical": ["v0", "v1"]} for a in table.schema.attribute_names()}
    schema.update({"class": "label", "classes": list(table.schema.class_values)})
    schema_path.write_text(json.dumps(schema))
    loaded = trees.load_table(str(csv_path), str(schema_path))
    tree = trees.build_id3(loaded, loaded.schema.attribute_names(), 2)
    rows, attrs, domains, classes = ref.read_table(str(csv_path), str(schema_path))
    assert ref.id3_mismatch(tree, rows, attrs, domains, classes, 2) is None
    other = next(a for a in attrs if a != tree.attribute)
    swapped = trees.Internal(other, tree.children, tree.majority)
    assert ref.id3_mismatch(swapped, rows, attrs, domains, classes, 2) is not None


def _percentile_job(tmp_path, n=8, p=50, shape="uniform"):
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    out_dir.mkdir()
    values = workloads.make_vector(np.random.default_rng(1), n, shape)
    data = in_dir / "v.txt"
    data.write_text("".join(f"{v:.2f}\n" for v in values))
    out = out_dir / "o.json"
    return workloads.Job(
        name="percentile/test",
        argv=("percentile", "--data", str(data), "--lambda", "100", "--p", str(p),
              "--epsilon", "0.1,1,10", "--out", str(out)),
        out=str(out), kind="percentile",
        params={"data": str(data), "p": p, "cap": 100.0},
    )


def test_percentile_checks_pass_on_library_output_and_catch_a_wrong_epsilon(tmp_path):
    import dampen.cli

    job = _percentile_job(tmp_path)
    assert dampen.cli.main(list(job.argv)) == 0
    assert checks.check_job(job) == []

    doc = json.loads(open(job.out).read())
    values = ref.read_values(job.params["data"])
    u = ref.percentile_utilities(values, 50)
    for row in doc["results"]:
        if row["mechanism"] == "em":       # EM scored at twice its budget
            row["value"] = ref.em_expected_error(u, 2 * row["epsilon"], 100.0)
    with open(job.out, "w") as fh:
        json.dump(doc, fh)
    failures = checks.check_job(job)
    assert len(failures) == 3 and all("em eps=" in f for f in failures)


def test_percentile_checks_catch_a_wrong_sld_distribution(tmp_path):
    import dampen.cli

    job = _percentile_job(tmp_path, n=11, p=25, shape="ties")
    assert dampen.cli.main(list(job.argv)) == 0
    doc = json.loads(open(job.out).read())
    for row in doc["results"]:
        if row["mechanism"] == "sld":
            row["value"] *= 1.001
    with open(job.out, "w") as fh:
        json.dump(doc, fh)
    failures = checks.check_job(job)
    assert failures and all("SLD error" in f for f in failures)


def test_topk_checks_catch_accuracy_far_from_expectation(tmp_path):
    import dampen.cli

    jobs = workloads.topk_jobs(2, str(tmp_path), str(tmp_path))
    job = next(j for j in jobs if j.params["runs"] > 1 and "m40" in j.name)
    assert dampen.cli.main(list(job.argv)) == 0
    assert checks.check_job(job) == []
    _, adj = ref.read_graph(job.params["graph"])
    mu = ref.topk_expected_accuracies(adj, job.params["k"], 10.0)["em"]
    doc = json.loads(open(job.out).read())
    for row in doc["results"]:
        if row["mechanism"] == "em" and row["epsilon"] == 10:
            row["value"] = 0.0 if mu > 0.5 else 1.0
    with open(job.out, "w") as fh:
        json.dump(doc, fh)
    failures = checks.check_job(job)
    assert len(failures) == 1 and "em eps=10" in failures[0]


def test_inputs_repeat_per_seed_and_keep_their_size(tmp_path):
    a = workloads.make_graph(np.random.default_rng([4, 3, 1]), 80, "hub")
    b = workloads.make_graph(np.random.default_rng([4, 3, 1]), 80, "hub")
    c = workloads.make_graph(np.random.default_rng([5, 3, 1]), 80, "hub")
    assert a == b and a != c and len(a) == len(c) == 240
    for seed in range(5):
        v = workloads.make_vector(np.random.default_rng(seed), 10, "ties")
        assert len(v) == 10 and (v == 0).sum() == 2 and (v == 100).sum() == 2
