"""Egocentric betweenness centrality and private top-k node selection.

Undirected simple graphs under edge-level privacy: two graphs are neighbors
when they differ in one edge flip.  The ego betweenness of a node c sums,
over pairs of its neighbors, the fraction of shortest paths between them
(inside the subgraph induced by c and its neighborhood) that pass through c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .core import (
    BudgetAccountant,
    InvalidInputError,
    SearchBudgetError,
    SelectionProblem,
    SensitivityFunction,
    budget_share,
    read_utf8,
)
from . import mechanisms
from .sensitivity import bound_sensitivity


class EdgeGraph:
    """Immutable undirected graph with stable node order, stored as its
    adjacency bitsets alone: bit j of ``_adj[i]`` marks the edge i–j.

    The max degree is resolved once at construction, and ego betweenness
    scores and their exact top-k order are memoised per instance (see
    :meth:`ebc_score` and :func:`true_topk`), so they live and die with the
    graph.  A public ``max_degree_bound`` must be at least the observed max
    degree; graphs one edge flip away keep the bound unchecked.
    """

    __slots__ = ("nodes", "_index", "_adj", "_max_degree_bound",
                 "_max_degree", "_ebc_memo", "_ebc_order")

    def __init__(
        self,
        nodes: Sequence[Hashable],
        edges: Iterable[tuple],
        max_degree_bound: int | None = None,
    ):
        nodes = tuple(nodes)
        if len(set(nodes)) != len(nodes):
            raise InvalidInputError("duplicate node identifiers")
        index = {v: i for i, v in enumerate(nodes)}
        adj = [0] * len(nodes)
        for u, v in edges:
            if u == v:
                raise InvalidInputError(f"self-loop at {u!r}")
            try:
                iu, iv = index[u], index[v]
            except KeyError as exc:
                raise InvalidInputError(
                    f"edge ({u!r}, {v!r}) names unknown node {exc.args[0]!r}"
                ) from None
            adj[iu] |= 1 << iv
            adj[iv] |= 1 << iu
        # a bound below the observed degree would make every sensitivity
        # derived from it too small and the privacy claim false
        if max_degree_bound is not None:
            if max_degree_bound < 0:
                raise InvalidInputError(
                    f"max_degree_bound must be >= 0, got {max_degree_bound}"
                )
            observed = max(map(int.bit_count, adj), default=0)
            if max_degree_bound < observed:
                raise InvalidInputError(
                    f"max_degree_bound {max_degree_bound} is below the "
                    f"observed max degree {observed}"
                )
        EdgeGraph._init_raw(self, nodes, index, tuple(adj), max_degree_bound)

    # -- basic accessors ---------------------------------------------------

    def __contains__(self, node) -> bool:
        return node in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EdgeGraph)
            and self.nodes == other.nodes
            and self._adj == other._adj
        )

    def __hash__(self):
        return hash((self.nodes, self._adj))

    def num_nodes(self) -> int:
        return len(self.nodes)

    def num_edges(self) -> int:
        return sum(map(int.bit_count, self._adj)) // 2

    def edges(self) -> list[tuple]:
        """Every edge once, ``(u, v)`` with u first in node order."""
        nodes = self.nodes
        return [(nodes[i], nodes[j]) for i, mask in enumerate(self._adj)
                for j in _bits(mask) if i < j]

    def degree(self, node) -> int:
        return self._adj[self._index[node]].bit_count()

    def has_edge(self, u, v) -> bool:
        return bool(self._adj[self._index[u]] >> self._index[v] & 1)

    def max_degree(self) -> int:
        """Configured public max-degree bound, or the observed maximum."""
        return self._max_degree

    def ebc_score(self, c) -> float:
        """``ebc(self, c)``, computed once per node of this graph."""
        memo = self._ebc_memo
        value = memo.get(c)
        if value is None:
            value = memo[c] = ebc(self, c)
        return value

    def flip_edge(self, u, v) -> "EdgeGraph":
        """Graph at edge distance one: (u, v) removed if present, else added."""
        if u == v:
            raise InvalidInputError("cannot flip a self-loop")
        iu, iv = self._index[u], self._index[v]
        adj = list(self._adj)
        adj[iu] ^= 1 << iv
        adj[iv] ^= 1 << iu
        out = EdgeGraph.__new__(EdgeGraph)
        EdgeGraph._init_raw(out, self.nodes, self._index, tuple(adj),
                            self._max_degree_bound)
        return out

    @staticmethod
    def _init_raw(obj, nodes, index, adj, bound):
        obj.nodes = nodes
        obj._index = index
        obj._adj = adj
        obj._max_degree_bound = bound
        obj._max_degree = (
            bound if bound is not None
            else max(map(int.bit_count, adj), default=0)
        )
        obj._ebc_memo = {}
        obj._ebc_order = None

    def node_pairs(self) -> int:
        """Number of unordered node pairs; the maximum edge-flip distance."""
        m = len(self.nodes)
        return m * (m - 1) // 2


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def ebc(graph: EdgeGraph, c) -> float:
    """Ego betweenness of ``c`` via neighbor-set intersections.

    Adjacent neighbor pairs contribute nothing (their unique shortest path
    is the direct edge).  A non-adjacent pair's shortest paths inside the
    ego subgraph all have length two, one per common neighbor there, and
    exactly one of those (the one through c) counts.
    """
    if c not in graph:
        raise InvalidInputError(f"unknown node {c!r}")
    ci = graph._index[c]
    adj = graph._adj
    nbr_mask = adj[ci]
    ego_mask = nbr_mask | (1 << ci)
    members = _bits(nbr_mask)
    total = 0.0
    for a in range(len(members)):
        ia = members[a]
        for b in range(a + 1, len(members)):
            ib = members[b]
            if adj[ia] >> ib & 1:
                continue
            q = (adj[ia] & adj[ib] & ego_mask).bit_count()
            total += 1.0 / q
    return total


def ebc_oracle(graph: EdgeGraph, c, max_neighborhood: int = 64) -> float:
    """Independent EBC evaluation by explicit geodesic counting.

    Runs BFS with path counting on the induced ego subgraph and sums
    p_uv / q_uv over neighbor pairs, where q counts all geodesics between
    u and v and p those passing through c.
    """
    if c not in graph:
        raise InvalidInputError(f"unknown node {c!r}")
    neighbors = [v for v in graph.nodes if v != c and graph.has_edge(c, v)]
    if len(neighbors) > max_neighborhood:
        raise SearchBudgetError(
            f"neighborhood of {c!r} exceeds oracle cap {max_neighborhood}"
        )
    members = neighbors + [c]
    member_ix = {v: i for i, v in enumerate(members)}
    adj = [
        [w for w in members if w != v and graph.has_edge(v, w)] for v in members
    ]

    def bfs(src_ix):
        dist = [math.inf] * len(members)
        paths = [0] * len(members)
        dist[src_ix] = 0
        paths[src_ix] = 1
        frontier = [src_ix]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[member_ix[members[v]]]:
                    wi = member_ix[w]
                    if dist[wi] == math.inf:
                        dist[wi] = dist[v] + 1
                        paths[wi] = paths[v]
                        nxt.append(wi)
                    elif dist[wi] == dist[v] + 1:
                        paths[wi] += paths[v]
            frontier = nxt
        return dist, paths

    tables = [bfs(i) for i in range(len(members))]
    c_ix = member_ix[c]
    total = 0.0
    for a in range(len(neighbors)):
        dist_a, paths_a = tables[a]
        for b in range(a + 1, len(neighbors)):
            q = paths_a[b]
            if q == 0:
                continue
            dist_c, paths_c = tables[c_ix]
            if dist_a[c_ix] + dist_c[b] == dist_a[b]:
                p = paths_a[c_ix] * paths_c[b]
            else:
                p = 0
            total += p / q
    return total


def ebc_scores(graph: EdgeGraph) -> dict:
    return {v: graph.ebc_score(v) for v in graph.nodes}


def _degree_bound(d: int) -> float:
    """``max(d * (d - 1) / 4, d)``, increasing in the degree d."""
    return max(d * (d - 1) / 4.0, float(d))


def global_sensitivity_ebc(graph: EdgeGraph) -> float:
    """Worst-case EBC change from one edge flip:
    ``max(D * (D - 1) / 4, D)`` with D the (public) max degree."""
    return _degree_bound(graph.max_degree())


def delta_ebc_value(graph: EdgeGraph, t: int, v) -> float:
    """Degree-based sensitivity bound ``max((d+t)(d+t-1)/4, d+t)``."""
    return _degree_bound(graph.degree(v) + t)


def _degree_table(degrees: Callable[[EdgeGraph], list]) -> Callable:
    """A ``table`` hook with a row ``_degree_bound(d + t)`` per distinct d
    of ``degrees(graph)`` (one per node), in closed form: below 2**53 the
    float product rounds as Python's exact integer product does."""

    def table(graph: EdgeGraph, lo: int, hi: int) -> tuple:
        degs = degrees(graph)
        row = {d: j for j, d in enumerate(sorted(set(degs)))}
        d = np.array(list(row), dtype=float)[:, None] + np.arange(lo, hi)
        return ({v: row[dv] for v, dv in zip(graph.nodes, degs)},
                np.maximum(d * (d - 1) / 4.0, d))

    return table


def delta_ebc() -> SensitivityFunction:
    """The degree-based EBC sensitivity function (admissible, unbounded,
    increasing in t, no declared monotonicity; correlation with EBC is
    checked empirically)."""
    return SensitivityFunction(
        eval=lambda g, t, v: delta_ebc_value(g, t, v),
        declared_admissible=True,
        declared_bounded=False,
        declared_nondecreasing_in_t=True,
        monotonicity="none",
        name="delta_ebc",
        table=_degree_table(lambda g: list(map(int.bit_count, g._adj))),
    )


def flat_delta_ebc() -> SensitivityFunction:
    """Flattened (node-independent) variant of the degree-based bound."""
    return SensitivityFunction(
        eval=lambda g, t, v: _degree_bound(g.max_degree() + t),
        declared_admissible=True,
        declared_bounded=False,
        declared_nondecreasing_in_t=True,
        monotonicity="flat",
        name="flat_delta_ebc",
        table=_degree_table(lambda g: [g.max_degree()] * len(g.nodes)),
    )


def ebc_problem(
    graph: EdgeGraph,
    candidates: Sequence | None = None,
    global_sensitivity: float | None = None,
) -> SelectionProblem:
    """Selection problem 'which node has the top EBC score'.

    The database size is the number of unordered node pairs, the largest
    possible edge-flip distance between graphs on the same vertex set.
    """
    return SelectionProblem(
        database=graph,
        candidates=tuple(candidates if candidates is not None else graph.nodes),
        utility=EdgeGraph.ebc_score,
        global_sensitivity=(
            global_sensitivity
            if global_sensitivity is not None
            else global_sensitivity_ebc(graph)
        ),
        database_size=max(graph.node_pairs(), 1),
    )


@dataclass(frozen=True)
class TopKResult:
    chosen: tuple
    per_iteration_epsilon: float
    accountant_scope: Hashable


def check_k(graph: EdgeGraph, k: int) -> None:
    """Refuse a top-k size outside ``[1, number of nodes]``."""
    if k < 1 or k > graph.num_nodes():
        raise InvalidInputError("k must be in [1, number of nodes]")


def round_budget(epsilon: float, k: int) -> float:
    """The budget ``epsilon / k`` of each round of a top-k draw, refused
    unless it is positive and finite (:func:`~dampen.core.budget_share`)."""
    return budget_share(epsilon, k, "per-round budget epsilon / k")


class TopKSelector:
    """Private EBC top-k on one graph, prepared once and drawn many times.

    The constructor validates the arguments and builds the full-range EBC
    problem, the default sensitivity function and one
    :class:`mechanisms.Prepared` selection over it; no score depends on
    epsilon, so :meth:`draw` takes the budget.  Every round of a draw, for
    every mechanism, reads that one selection over the remaining nodes at
    ``epsilon / k``, so each node's utility is looked up once, each
    dampened score is computed once per value it is dampened at, and a
    round that moves the SLD shift scores a node from its kept breakpoint
    prefix instead of a new walk.  A round draws from those scores
    directly (:meth:`mechanisms.Prepared.select`); the picks are those of
    a fresh selection problem per round.

    The default sensitivity function is the bounded degree-based delta for
    the shifted mechanism and its flattened version for plain local
    dampening; callers may substitute their own.
    """

    def __init__(
        self,
        graph: EdgeGraph,
        k: int,
        mechanism: str,
        delta: SensitivityFunction | None = None,
        global_sensitivity: float | None = None,
    ):
        check_k(graph, k)
        base = ebc_problem(graph, global_sensitivity=global_sensitivity)
        if delta is None and mechanism in ("ld", "sld"):
            raw = delta_ebc() if mechanism == "sld" else flat_delta_ebc()
            delta = bound_sensitivity(
                raw, base.global_sensitivity, base.database_size
            )
        self.k = k
        self.mechanism = mechanism
        self.delta = delta
        self._prepared = mechanisms.Prepared(mechanism, base, delta)

    def draw(
        self,
        rng,
        epsilon: float,
        accountant: BudgetAccountant | None = None,
        scope: Hashable = "priv_topk",
    ) -> TopKResult:
        """Pick k distinct nodes in k rounds at ``epsilon / k`` each, every
        round over the nodes not chosen yet, one spawned generator per
        round; each round is booked in ``accountant`` under ``scope``.
        The per-round budget is checked before any scope is opened."""
        eps_i = round_budget(epsilon, self.k)
        if accountant is None:
            accountant = BudgetAccountant()
        accountant.open_scope(scope, "sequential")
        nodes = self._prepared.problem.candidates
        remaining = np.arange(len(nodes))
        chosen: list = []
        for iter_rng in rng.spawn(self.k):
            pos = self._prepared.select(eps_i, iter_rng, remaining)
            chosen.append(nodes[remaining[pos]])
            remaining = np.delete(remaining, pos)
            accountant.account(scope, eps_i)
        return TopKResult(
            chosen=tuple(chosen),
            per_iteration_epsilon=eps_i,
            accountant_scope=scope,
        )


def priv_topk(
    graph: EdgeGraph,
    epsilon: float,
    k: int,
    mechanism: str,
    rng,
    accountant: BudgetAccountant | None = None,
    delta: SensitivityFunction | None = None,
    global_sensitivity: float | None = None,
    scope: Hashable = "priv_topk",
) -> TopKResult:
    """Pick k nodes by EBC with k sequential mechanism calls at eps/k each.

    Every iteration selects over the not-yet-chosen nodes, so the result is
    duplicate free.  One-shot form of :class:`TopKSelector`; build the
    selector once to draw repeatedly, at any budgets, on the same graph.
    """
    return TopKSelector(
        graph, k, mechanism, delta=delta,
        global_sensitivity=global_sensitivity,
    ).draw(rng, epsilon, accountant=accountant, scope=scope)


def true_topk(graph: EdgeGraph, k: int) -> tuple:
    """Exact EBC top-k with deterministic tie-break by node order.

    The full order is sorted once per graph and kept next to its EBC memo.
    """
    order = graph._ebc_order
    if order is None:
        scores = ebc_scores(graph)
        order = graph._ebc_order = tuple(
            sorted(graph.nodes, key=lambda v: (-scores[v], graph._index[v]))
        )
    return order[:k]


def topk_accuracy(result: TopKResult, graph: EdgeGraph, k: int) -> float:
    """Fraction of the retrieved top-k that is in the exact top-k."""
    truth = set(true_topk(graph, k))
    return len(truth.intersection(result.chosen)) / k


def parse_edge_list(lines: Iterable[str]) -> tuple[EdgeGraph, dict]:
    """Parse whitespace-separated "u v" lines into a graph.

    Lines starting with '#' are comments.  Duplicate undirected edges and
    self-loops are dropped and counted in the ingestion report.
    """
    nodes: list = []
    seen_nodes = set()
    edges: list[tuple] = []
    report = {"edges_kept": 0, "duplicates_dropped": 0, "self_loops_dropped": 0,
              "comment_lines": 0}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            report["comment_lines"] += 1
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidInputError(
                f"line {line_no}: expected 'u v', got {raw.rstrip()!r}"
            )
        u, v = parts
        for w in (u, v):
            if w not in seen_nodes:
                seen_nodes.add(w)
                nodes.append(w)
        if u == v:
            report["self_loops_dropped"] += 1
            continue
        edges.append((u, v))
    graph = EdgeGraph(nodes, edges)
    report["edges_kept"] = graph.num_edges()
    report["duplicates_dropped"] = len(edges) - report["edges_kept"]
    return graph, report


def load_edge_list(path) -> tuple[EdgeGraph, dict]:
    return parse_edge_list(read_utf8(path))
