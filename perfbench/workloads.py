"""Seeded inputs and the fixed job list of each workload.

A job is one ``dampen`` command line, exactly as a user would type it after
``dampen``, with ``--out`` pointing into the run's work directory.  Sizes,
shapes and flags are fixed per workload; only the values drawn from the
seed change, and the draws are shaped so that the amount of work does not
depend on the seed (fixed record counts, a fixed number of values at the
caps, fixed node and edge counts, fixed row counts).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

CAP = 100.0

#: (records, shape, p) of each ``dampen percentile`` job.  Up to
#: EXACT_SENSITIVITY_MAX_RECORDS (10) records the library uses the exact
#: cap-forcing closure, above it the pruned candidate chain.  A round costs
#: about 4.5 s, so a run repeats it often enough for its medians to hold
#: through a slow phase of the host.  The 8-record ties job, the 48- and
#: 52-record jobs and the 40-record compare job cost about 0.5 s each,
#: with four cheaper jobs below them and two dearer ones above, so the
#: median job falls among them.
PERCENTILE_VECTORS = (
    (8, "uniform", 50),
    (48, "ties", 50),
    (8, "ties", 50),
    (32, "uniform", 50),
    (48, "uniform", 90),
    (8, "clustered", 75),
    (52, "clustered", 25),
    (16, "clustered", 50),
    (11, "ties", 90),
)

#: (records, shape, p, Monte Carlo runs) of each ``mechanism-compare`` job.
COMPARE_VECTORS = (
    (40, "clustered", 50, 4000),
    (12, "ties", 25, 4000),
)

#: (nodes, structure, EM/PF/LD runs) of each graph, and whether it gets an
#: SLD job; every graph gets one EM/PF/LD job.  SLD's breakpoint walk grows
#: as m², so it runs on the three smaller graphs only and a round costs
#: about 4 s.  The run counts give every EM/PF/LD job about the same cost
#: (about 0.45 s), so the median job sits in that cluster of five.
TOPK_GRAPHS = (
    (80, "hub", 12, False),
    (56, "hub", 20, True),
    (64, "er", 16, False),
    (48, "er", 25, True),
    (40, "hub", 30, True),
)
TOPK_K = 3

#: (rows, attributes, classes, variants) of each table, in job order.  A
#: round costs about 3.5 s.  The median job falls among three local jobs
#: of like cost (about 0.65 s), with two cheap global jobs below and one
#: shifted job (about 1.1 s) above.
TREE_TABLES = (
    (400, 5, 3, ("local",)),
    (240, 5, 3, ("global",)),
    (300, 6, 3, ("local",)),
    (200, 4, 2, ("global", "shifted")),
    (400, 4, 2, ("local",)),
)
TREE_DEPTH = 3
TREE_FOLDS = 5


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple          # arguments of dampen.cli.main, without "dampen"
    out: str             # the --out path
    kind: str            # percentile | compare | topk | tree
    params: dict = field(default_factory=dict)


def _rng(seed: int, *coords) -> np.random.Generator:
    return np.random.default_rng([seed, *coords])


# -- percentile ---------------------------------------------------------------


def make_vector(rng, n: int, shape: str) -> np.ndarray:
    """Values in [0, CAP] with two decimals.

    uniform: spread over (0, CAP); clustered: bunched mid-range; ties: a
    fifth of the records at each cap and the rest on a few shared values.
    Only the ties shape puts values on the caps, and always the same number
    of them, so the exact closure visits the same number of vectors on
    every seed.
    """
    if shape == "uniform":
        values = rng.uniform(0.5, CAP - 0.5, n)
    elif shape == "clustered":
        values = np.clip(rng.normal(CAP / 2, CAP / 16, n), 0.5, CAP - 0.5)
    elif shape == "ties":
        at_cap = n // 5
        rest = n - 2 * at_cap
        pool = rng.uniform(5.0, CAP - 5.0, max(2, rest // 3))
        values = np.concatenate(
            (np.zeros(at_cap), np.full(at_cap, CAP), rng.choice(pool, rest))
        )
        rng.shuffle(values)
    else:
        raise ValueError(f"unknown vector shape {shape!r}")
    return np.round(values, 2)


def _write_vector(path: str, values) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{v:.2f}\n" for v in values)


def percentile_jobs(seed: int, in_dir: str, out_dir: str) -> list[Job]:
    jobs = []
    for ix, (n, shape, p) in enumerate(PERCENTILE_VECTORS):
        path = os.path.join(in_dir, f"vec{ix:02d}_n{n}_{shape}.txt")
        _write_vector(path, make_vector(_rng(seed, 1, ix), n, shape))
        out = os.path.join(out_dir, f"percentile{ix:02d}.json")
        jobs.append(Job(
            name=f"percentile/n{n}-{shape}-p{p}",
            argv=("percentile", "--data", path, "--lambda", f"{CAP:g}",
                  "--p", str(p), "--epsilon", "0.1,1,10", "--out", out),
            out=out, kind="percentile",
            params={"data": path, "p": p, "cap": CAP},
        ))
    for ix, (n, shape, p, runs) in enumerate(COMPARE_VECTORS):
        path = os.path.join(in_dir, f"cmp{ix:02d}_n{n}_{shape}.txt")
        _write_vector(path, make_vector(_rng(seed, 2, ix), n, shape))
        out = os.path.join(out_dir, f"compare{ix:02d}.json")
        jobs.append(Job(
            name=f"mechanism-compare/n{n}-{shape}-p{p}",
            argv=("mechanism-compare", "--data", path, "--lambda", f"{CAP:g}",
                  "--p", str(p), "--epsilon", "1", "--runs", str(runs),
                  "--out", out),
            out=out, kind="compare",
            params={"data": path, "p": p, "cap": CAP},
        ))
    return jobs


# -- topk ---------------------------------------------------------------------


def make_graph(rng, m: int, structure: str) -> list[tuple[int, int]]:
    """Edges of a connected graph on exactly m nodes: 2m edges for "er",
    3m for "hub".

    A random spanning path keeps every node in the edge list.  "er" adds
    uniformly random extra edges (sparse, EBC scores close together);
    "hub" first wires four planted hubs to 30% of the nodes each.
    """
    perm = rng.permutation(m)
    edges = {tuple(sorted((int(a), int(b)))) for a, b in zip(perm, perm[1:])}
    if structure == "hub":
        for hub in range(4):
            for v in rng.choice(m, int(0.3 * m), replace=False):
                if v != hub:
                    edges.add(tuple(sorted((hub, int(v)))))
    elif structure != "er":
        raise ValueError(f"unknown graph structure {structure!r}")
    target = (3 if structure == "hub" else 2) * m
    while len(edges) < target:
        a, b = (int(x) for x in rng.choice(m, 2, replace=False))
        edges.add((min(a, b), max(a, b)))
    ordered = sorted(edges)
    return [ordered[i] for i in rng.permutation(len(ordered))]


def topk_jobs(seed: int, in_dir: str, out_dir: str) -> list[Job]:
    jobs = []
    for ix, (m, structure, runs_em_pf_ld, with_sld) in enumerate(TOPK_GRAPHS):
        path = os.path.join(in_dir, f"graph{ix:02d}_m{m}_{structure}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"n{a} n{b}\n" for a, b in
                          make_graph(_rng(seed, 3, ix), m, structure))
        runs_by_mechs = (("sld", 1),) if with_sld else ()
        for mechs, runs in (*runs_by_mechs, ("em,pf,ld", runs_em_pf_ld)):
            out = os.path.join(out_dir, f"topk{ix:02d}_{mechs.replace(',', '')}.json")
            jobs.append(Job(
                name=f"topk/m{m}-{structure}-{mechs}",
                argv=("topk", "--graph", path, "--k", str(TOPK_K),
                      "--epsilon", "1,10", "--mechanism", mechs,
                      "--runs", str(runs), "--out", out),
                out=out, kind="topk",
                params={"graph": path, "k": TOPK_K, "runs": runs},
            ))
    return jobs


# -- tree ---------------------------------------------------------------------


def _balanced(rng, levels: int, rows: int) -> np.ndarray:
    """Codes 0..levels-1 in equal shares (up to one), in random order."""
    return rng.permutation(np.resize(np.arange(levels), rows))


def make_table(rng, rows: int, attributes: int, classes: int):
    """Schema and CSV rows: x0 continuous on [0, 10] (3 bins), the rest
    categorical with 3 values; the class is a function of x0 and a1 with
    15% of the labels redrawn at random.

    Every attribute has 3 values in equal shares, so each tree is a full
    ternary tree whatever the seed draws, and so is the work of a job.
    """
    schema = {"x0": {"continuous": {"min": 0, "max": 10, "bins": 3}}}
    for a in range(1, attributes):
        schema[f"a{a}"] = {"categorical": ["v0", "v1", "v2"]}
    schema["class"] = "y"
    schema["classes"] = [f"c{c}" for c in range(classes)]
    x_bin = _balanced(rng, 3, rows)
    x0 = np.round((x_bin + rng.uniform(0.05, 0.95, rows)) * 10 / 3, 2)
    cats = {f"a{a}": _balanced(rng, 3, rows) for a in range(1, attributes)}
    label = ((x_bin >= 1).astype(int) + (cats["a1"] == 1)) % classes
    noisy = rng.random(rows) < 0.15
    label[noisy] = rng.integers(0, classes, int(noisy.sum()))
    header = ["x0", *cats, "y"]
    lines = [",".join(header)]
    for i in range(rows):
        lines.append(",".join([f"{x0[i]:.2f}",
                               *(f"v{cats[a][i]}" for a in cats),
                               f"c{label[i]}"]))
    return schema, lines


def tree_jobs(seed: int, in_dir: str, out_dir: str) -> list[Job]:
    jobs = []
    for ix, (rows, attrs, classes, variants) in enumerate(TREE_TABLES):
        schema, lines = make_table(_rng(seed, 4, ix), rows, attrs, classes)
        data = os.path.join(in_dir, f"table{ix:02d}_r{rows}.csv")
        schema_path = os.path.join(in_dir, f"table{ix:02d}_r{rows}.schema.json")
        with open(data, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(schema_path, "w", encoding="utf-8") as fh:
            json.dump(schema, fh)
        for variant in variants:
            out = os.path.join(out_dir, f"tree{ix:02d}_{variant}.json")
            jobs.append(Job(
                name=f"tree/r{rows}-a{attrs}-c{classes}-{variant}",
                argv=("tree", "--data", data, "--schema", schema_path,
                      "--depth", str(TREE_DEPTH), "--folds", str(TREE_FOLDS),
                      "--epsilon", "0.5,5", "--variant", variant,
                      "--out", out),
                out=out, kind="tree",
                params={"data": data, "schema": schema_path,
                        "variant": variant, "depth": TREE_DEPTH},
            ))
    return jobs


def build_jobs(workload: str, seed: int, in_dir: str, out_dir: str) -> list[Job]:
    makers = {"percentile": percentile_jobs, "topk": topk_jobs, "tree": tree_jobs}
    return makers[workload](seed, in_dir, out_dir)
