"""Small built-in datasets: worked examples for the graph application, and
engineered desk-scale instances whose sensitivity structure makes the
mechanism comparisons sharp.  Used by the verification suites, the demos
and the test suite.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .graphs import EdgeGraph
from .percentile import NumericVector
from .trees import Categorical, LabeledTable, TableSchema

EXAMPLE_NODES = ("a", "b", "v0", "v1", "v2", "v3", "v4", "v5")

#: Two well-connected nodes bridging two loosely tied leaf groups; EBC of a
#: and b is 6.5 and one edge flip moves it by at most 3.
EXAMPLE_EDGES = (
    ("a", "b"),
    ("a", "v0"), ("a", "v1"), ("a", "v2"), ("a", "v3"),
    ("b", "v2"), ("b", "v3"), ("b", "v4"), ("b", "v5"),
    ("v0", "v1"), ("v4", "v5"),
)


def example_graph(max_degree_bound: int | None = None) -> EdgeGraph:
    return EdgeGraph(EXAMPLE_NODES, EXAMPLE_EDGES, max_degree_bound)


def shared_neighbors_gadget() -> EdgeGraph:
    """Two hubs adjacent to each other and to six common, mutually
    unconnected leaves: the configuration whose single edge flip moves an
    EBC score the most (7.5 -> 15 for a hub when the hub edge drops)."""
    edges = [("a", f"v{i}") for i in range(6)]
    edges += [("b", f"v{i}") for i in range(6)]
    edges.append(("a", "b"))
    return EdgeGraph(EXAMPLE_NODES, edges)


def trend_graph() -> EdgeGraph:
    """The example graph under a pessimistic public degree bound of 40.

    The bound drives the global sensitivity to 390 while every actual edge
    flip moves EBC by at most a few points, which is the regime where
    locally calibrated dampening visibly beats the exponential mechanism.
    """
    return example_graph(max_degree_bound=40)


def clustered_vector(cap: float = 100.0) -> NumericVector:
    """Values bunched mid-range under a generous cap: element local
    sensitivities sit near cap/2 instead of the full cap."""
    return NumericVector([40, 42, 45, 47, 50, 53, 55], cap)


TOY_TABLE_ATTRIBUTES = ("A", "B", "C", "D")

# Class = A xor flip(B, C, D), with the flip pattern and per-cell counts
# chosen so that, at both tested depths, every attribute selection along the
# induction recursion has a strict utility winner (raw and dampened alike),
# every leaf has a strict majority, and no stopping ratio sits at the
# threshold.  That makes all induction variants collapse to the same tree
# under a near-infinite privacy budget.
_TOY_FLIP_BITS = 156
_TOY_COUNT_SEED = 0


def separable_table() -> LabeledTable:
    """200-row noiseless table on four binary attributes (see module tests
    for the margin properties it was screened for)."""
    schema = TableSchema(
        attributes=tuple((a, Categorical((0, 1))) for a in TOY_TABLE_ATTRIBUTES),
        class_attribute="label",
        class_values=("no", "yes"),
    )
    rnd = random.Random(_TOY_COUNT_SEED)
    cells = list(itertools.product((0, 1), repeat=4))
    counts = {cell: rnd.choice([11, 12, 13, 14]) for cell in cells}
    total = sum(counts.values())
    order = list(cells)
    rnd.shuffle(order)
    i = 0
    while total != 200:
        cell = order[i % len(order)]
        if total > 200 and counts[cell] > 10:
            counts[cell] -= 1
            total -= 1
        elif total < 200 and counts[cell] < 15:
            counts[cell] += 1
            total += 1
        i += 1
    rows = []
    for cell in cells:
        a, b, c, d = cell
        flip = (_TOY_FLIP_BITS >> (b * 4 + c * 2 + d)) & 1
        label = "yes" if (a ^ flip) else "no"
        for _ in range(counts[cell]):
            row = dict(zip(TOY_TABLE_ATTRIBUTES, cell))
            row["label"] = label
            rows.append(row)
    return LabeledTable(schema, rows)


# -- random tiny instances for the brute-force lab ---------------------------


def random_vector_instance(rng: np.random.Generator, n: int = 3,
                           cap: float = 8.0, levels: int = 4) -> NumericVector:
    """Vector with values on a coarse grid, so the grid neighborhood is the
    exact (finite) privacy model."""
    grid = [cap * j / levels for j in range(levels + 1)]
    values = [grid[int(rng.integers(len(grid)))] for _ in range(n)]
    return NumericVector(values, cap)


def random_graph_instance(rng: np.random.Generator, n: int = 4,
                          edge_prob: float = 0.5) -> EdgeGraph:
    nodes = [f"n{i}" for i in range(n)]
    edges = [
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    ]
    return EdgeGraph(nodes, edges)


TINY_TABLE_SCHEMA = TableSchema(
    attributes=(("A", Categorical((0, 1))),),
    class_attribute="y",
    class_values=("c0", "c1"),
)


def random_table_instance(rng: np.random.Generator, max_rows: int = 3) -> LabeledTable:
    n = int(rng.integers(0, max_rows + 1))
    rows = [
        {"A": int(rng.integers(2)), "y": ("c0", "c1")[int(rng.integers(2))]}
        for _ in range(n)
    ]
    return LabeledTable(TINY_TABLE_SCHEMA, rows)


def random_induction_table(rng: np.random.Generator,
                           max_rows: int = 60) -> LabeledTable:
    """Table for tree induction: 1 to 4 categorical attributes of 2 to 4
    values, 2 or 3 classes and up to ``max_rows`` rows.  The class follows
    the first attribute with probability one half, and values are drawn
    with skewed weights, so nodes of one row and empty branches occur."""
    names = [f"a{i}" for i in range(int(rng.integers(1, 5)))]
    domains = [tuple(range(int(rng.integers(2, 5)))) for _ in names]
    classes = ("c0", "c1", "c2")[:int(rng.integers(2, 4))]
    schema = TableSchema(
        attributes=tuple((name, Categorical(dom))
                         for name, dom in zip(names, domains)),
        class_attribute="y",
        class_values=classes,
    )
    weights = [rng.dirichlet(np.ones(len(dom))) for dom in domains]
    rows = []
    for _ in range(int(rng.integers(1, max_rows + 1))):
        row = {name: int(rng.choice(len(dom), p=w))
               for name, dom, w in zip(names, domains, weights)}
        label = (row[names[0]] if rng.random() < 0.5
                 else int(rng.integers(len(classes))))
        row["y"] = classes[label % len(classes)]
        rows.append(row)
    return LabeledTable(schema, rows)
