"""Reference computations the output checks compare against.

Nothing here imports ``dampen``: every quantity is recomputed from the raw
input files with its own parsing, sorting, counting and sampling-free
probability formulas, so a fault in the library cannot hide in both the
output and its reference.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import numpy as np


# -- shared mechanism formulas ----------------------------------------------


def softmax(scores, avail=True) -> np.ndarray:
    """Softmax along the last axis over the entries where ``avail`` holds
    (zero elsewhere); a 2-D ``avail`` gives one distribution per row."""
    s = np.where(avail, scores, -np.inf)
    w = np.exp(s - s.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def pf_distribution(utilities, epsilon: float, gs: float, avail=None) -> np.ndarray:
    """Exact permute-and-flip output distribution (McKenna & Sheldon 2020):
    ``Pr[r] = p_r * int_0^1 prod_{j != r} (1 - p_j u) du`` with
    ``p_j = exp(eps (u_j - u*) / 2GS)``.

    The integrand is a polynomial of degree below k, so Gauss-Legendre with
    ``k // 2 + 1`` nodes integrates it exactly up to rounding.  With a 2-D
    boolean ``avail`` each row is the distribution over that row's
    available candidates.
    """
    u = np.asarray(utilities, dtype=float)
    k = len(u)
    rows = np.ones((1, k), dtype=bool) if avail is None else np.asarray(avail)
    u_star = np.where(rows, u, -np.inf).max(axis=1, keepdims=True)
    p = np.where(rows, np.exp(epsilon * (u - u_star) / (2.0 * gs)), 0.0)
    nodes, weights = np.polynomial.legendre.leggauss(k // 2 + 1)
    x = 0.5 * (nodes + 1.0)                   # nodes mapped onto [0, 1]
    log_f = np.log1p(-p[:, :, None] * x)      # (rows, k, q); finite inside
    others = np.exp(log_f.sum(axis=1, keepdims=True) - log_f)
    probs = p * (others * (0.5 * weights)).sum(axis=2)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs[0] if avail is None else probs


def breakpoint_scores(widths: np.ndarray, gs: float, values) -> np.ndarray:
    """Dampened scores of ``values`` through the breakpoint map of one
    sensitivity row per value.

    ``widths[r, t]`` is the sensitivity at distance t for value r's candidate
    (t < n; every step from n on is ``gs``).  The breakpoints are the prefix
    sums ``B = [0, cumsum(widths)]``; a value v lands in the nonempty interval
    ``[B[i], B[i+1])`` found by ``searchsorted``, scores
    ``i + (v - B[i]) / (B[i+1] - B[i])``, and past ``B[n]`` scores
    ``n + (v - B[n]) / gs``.  Negative values use the mirrored map.
    """
    widths = np.atleast_2d(np.asarray(widths, dtype=float))
    values = np.asarray(values, dtype=float)
    n = widths.shape[1]
    out = np.empty(len(values))
    for r, u in enumerate(values):
        v = abs(u)
        row = widths[r] if len(widths) > 1 else widths[0]
        bounds = np.concatenate(([0.0], np.cumsum(row)))
        if v >= bounds[n]:
            score = n + (v - bounds[n]) / gs
        else:
            i = int(np.searchsorted(bounds, v, side="right")) - 1
            score = i + (v - bounds[i]) / (bounds[i + 1] - bounds[i])
        out[r] = math.copysign(score, u) if u != 0 else 0.0
    return out


# -- percentile -------------------------------------------------------------


def read_values(path: str) -> list[float]:
    with open(path, encoding="utf-8") as fh:
        return [float(line) for line in fh if line.strip()]


def percentile_utilities(values, p: int) -> np.ndarray:
    """Per-record utility ``-|v_(k) - v_i|`` in input order, with the rank
    ``k = ceil(p (n + 1) / 100)`` clamped into [1, n]."""
    n = len(values)
    k = min(max(-(-p * (n + 1) // 100), 1), n)
    pivot = sorted(values)[k - 1]
    return -np.abs(pivot - np.asarray(values, dtype=float))


def expected_regret(probs, utilities) -> float:
    u = np.asarray(utilities, dtype=float)
    return float(np.dot(probs, u.max() - u))


def em_expected_error(utilities, epsilon: float, gs: float) -> float:
    u = np.asarray(utilities, dtype=float)
    return expected_regret(softmax(epsilon * u / (2.0 * gs)), u)


def pf_expected_error(utilities, epsilon: float, gs: float) -> float:
    return expected_regret(pf_distribution(utilities, epsilon, gs), utilities)


def ld_expected_error(utilities, flat_widths, epsilon: float, gs: float) -> float:
    """Local dampening with one candidate-independent sensitivity row."""
    scores = breakpoint_scores(flat_widths, gs, utilities)
    return expected_regret(softmax(epsilon * scores / 2.0), utilities)


def sld_expected_error(utilities, widths, epsilon: float, gs: float) -> float:
    """Shifted local dampening with the downward shift ``n GS + max u``,
    which moves every score into the saturated tail."""
    u = np.asarray(utilities, dtype=float)
    n = np.atleast_2d(widths).shape[1]
    shifted = u - (n * gs + u.max())
    scores = breakpoint_scores(widths, gs, shifted)
    return expected_regret(softmax(epsilon * scores / 2.0), u)


# -- graphs -----------------------------------------------------------------


def read_graph(path: str) -> tuple[list[str], np.ndarray]:
    """Nodes in order of first appearance and the 0/1 adjacency matrix."""
    order: dict[str, int] = {}
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip() or line.startswith("#"):
                continue
            a, b = line.split()
            for v in (a, b):
                order.setdefault(v, len(order))
            if a != b:
                pairs.append((order[a], order[b]))
    adj = np.zeros((len(order), len(order)), dtype=np.int64)
    for i, j in pairs:
        adj[i, j] = adj[j, i] = 1
    return list(order), adj


def ebc_exact(adj: np.ndarray) -> list[Fraction]:
    """Ego betweenness from common-neighbour counts: a non-adjacent pair of
    c's neighbours has ``q`` shortest paths inside the ego network (one per
    common neighbour there, c included) and c lies on exactly one."""
    scores = []
    for c in range(len(adj)):
        nbrs = np.flatnonzero(adj[c])
        ego = np.concatenate((nbrs, [c]))
        sub = adj[np.ix_(ego, ego)]
        common = sub @ sub
        total = Fraction(0)
        d = len(nbrs)
        for a in range(d):
            for b in range(a + 1, d):
                if not sub[a, b]:
                    total += Fraction(1, int(common[a, b]))
        scores.append(total)
    return scores


def true_topk(scores, k: int) -> list[int]:
    """Exact top-k node indices, ties broken by node order."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]


def degree_delta_widths(degrees, t_count: int, gs: float) -> np.ndarray:
    """``min(max((d+t)(d+t-1)/4, d+t), GS)`` for t in [0, t_count)."""
    d = np.asarray(degrees, dtype=float)[:, None] + np.arange(t_count)[None, :]
    return np.minimum(np.maximum(d * (d - 1) / 4.0, d), gs)


def sequential_expected_accuracy(dist_fn, m: int, k: int, truth) -> float:
    """Exact expected ``|picked ∩ truth| / k`` of k sequential selections,
    each over the not-yet-picked candidates.  ``dist_fn`` maps a boolean
    (rows, m) availability matrix to one distribution per row."""
    in_truth = np.zeros(m)
    in_truth[list(truth)] = 1.0

    def hits(avail: np.ndarray, rounds_left: int) -> float:
        probs = dist_fn(avail[None])[0]
        total = float(probs @ in_truth)
        if rounds_left == 1:
            return total
        picks = np.flatnonzero(probs > 1e-15)
        children = np.repeat(avail[None], len(picks), axis=0)
        children[np.arange(len(picks)), picks] = False
        if rounds_left == 2:
            return total + float(probs[picks] @ (dist_fn(children) @ in_truth))
        return total + sum(probs[c] * hits(row, rounds_left - 1)
                           for c, row in zip(picks, children))

    return hits(np.ones(m, dtype=bool), k) / k


def topk_expected_accuracies(adj: np.ndarray, k: int, epsilon: float,
                             mechanisms=("em", "pf", "ld", "sld")) -> dict:
    """Exact expected top-k accuracy of each mechanism at budget epsilon
    split evenly over k rounds, on the graph's exact EBC scores.

    LD uses the flat degree bound at the maximum degree, SLD the per-node
    bound; both are capped at GS and pinned to GS from t = n (node pairs).
    """
    exact = ebc_exact(adj)
    u = np.array([float(e) for e in exact])
    truth = true_topk(exact, k)
    m = len(adj)
    degrees = adj.sum(axis=1)
    d_max = int(degrees.max())
    gs = max(d_max * (d_max - 1) / 4.0, float(d_max))
    n = max(m * (m - 1) // 2, 1)
    eps_i = epsilon / k

    def dist_fn(mech):
        if mech == "pf":
            return lambda avail: pf_distribution(u, eps_i, gs, avail)
        if mech == "em":
            scores = eps_i * u / (2 * gs)
        elif mech == "ld":
            widths = degree_delta_widths([d_max], n, gs)
            scores = eps_i / 2 * breakpoint_scores(widths, gs, u)
        else:
            widths = degree_delta_widths(degrees, n, gs)
            scores = eps_i / 2 * breakpoint_scores(widths, gs, u - (n * gs + u.max()))
        return lambda avail: softmax(scores, avail)

    return {mech: sequential_expected_accuracy(dist_fn(mech), m, k, truth)
            for mech in mechanisms}


# -- trees ------------------------------------------------------------------

STOP_THRESHOLD = math.sqrt(2.0) / 2.0


def read_table(csv_path: str, schema_path: str):
    """Rows as tuples of categorical codes (continuous values binned on
    [min, max] into bins closed on the right), plus attribute domains, the
    class column and class values in declared order."""
    with open(schema_path, encoding="utf-8") as fh:
        schema = json.load(fh)
    attrs = [a for a in schema if a not in ("class", "classes")]
    domains = {}
    for a in attrs:
        spec = schema[a]
        if "categorical" in spec:
            domains[a] = list(spec["categorical"])
        else:
            domains[a] = list(range(spec["continuous"]["bins"]))
    rows = []
    with open(csv_path, encoding="utf-8", newline="") as fh:
        for raw in csv.DictReader(fh):
            row = {}
            for a in attrs:
                spec = schema[a]
                if "categorical" in spec:
                    row[a] = raw[a]
                else:
                    c = spec["continuous"]
                    lo, hi = Fraction(str(c["min"])), Fraction(str(c["max"]))
                    width = (hi - lo) / c["bins"]
                    idx = math.ceil((Fraction(raw[a]) - lo) / width) - 1
                    row[a] = min(max(idx, 0), c["bins"] - 1)
            row["__class__"] = raw[schema["class"]]
            rows.append(row)
    return rows, attrs, domains, list(schema["classes"])


def split_score(rows, attr, domain, classes) -> float:
    """``sum_j sum_c n_jc log2(n_jc / n_j)`` over the attribute's values."""
    total = 0.0
    for value in domain:
        counts = [0] * len(classes)
        for row in rows:
            if row[attr] == value:
                counts[classes.index(row["__class__"])] += 1
        n_j = sum(counts)
        total += sum(c * math.log2(c / n_j) for c in counts if c)
    return total


def id3_mismatch(tree, rows, attrs, domains, classes, depth,
                 tol: float = 1e-7) -> str | None:
    """Compare a tree against exact (non-private) ID3 with the split score
    above and the stopping rule ``n / (max_domain * |classes|) < sqrt(2)/2``.

    Where the exact choice is tied (equal split scores, equal class counts)
    any of the tied options is accepted.  ``tree`` is walked through
    ``.attribute`` / ``.children`` / ``.label``.  Returns None on agreement,
    else the path of the first difference.
    """

    def walk(node, node_rows, remaining, d, path):
        t_max = max((len(domains[a]) for a in remaining), default=1)
        if not remaining or d == 0 or len(node_rows) / (t_max * len(classes)) < STOP_THRESHOLD:
            counts = [sum(r["__class__"] == c for r in node_rows) for c in classes]
            best = {c for c, n in zip(classes, counts) if n == max(counts)}
            label = getattr(node, "label", None)
            if not hasattr(node, "label") or label not in best:
                return f"{path}: expected a leaf in {sorted(best)}, got {node!r}"[:300]
            return None
        scores = {a: split_score(node_rows, a, domains[a], classes) for a in remaining}
        top = max(scores.values())
        tied = {a for a in remaining if scores[a] >= top - tol}
        chosen = getattr(node, "attribute", None)
        if chosen not in tied:
            return f"{path}: expected a split on {sorted(tied)}, got {chosen!r}"
        rest = [a for a in remaining if a != chosen]
        children = dict(node.children)
        for value in domains[chosen]:
            if value not in children:
                return f"{path}/{chosen}={value}: branch missing"
            bad = walk(children[value], [r for r in node_rows if r[chosen] == value],
                       rest, d - 1, f"{path}/{chosen}={value}")
            if bad:
                return bad
        return None

    return walk(tree, rows, list(attrs), depth, "")
