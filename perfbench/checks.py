"""Output checks: each job's output against the reference computations of
``reference.py`` or against a property the method must have.

``check_job`` returns a list of failure messages (empty when the output is
correct).  A few checks call public ``dampen`` constructors on purpose: the
LD/SLD breakpoint-map comparison takes its sensitivity values from the
library's own problem and sensitivity constructors (the mechanism and the
plumbing are what is checked there), the EBC comparison reads
``graphs.ebc_scores``, and the tree checks run ``trees.build_diffp_id3``
directly.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref

#: Monte Carlo means must lie within this many standard errors.
Z = 5.0
EXACT_TOL = 1e-9
#: Vectors at most this long also get the breakpoint-map comparison.
BREAKPOINT_CHECK_MAX_N = 16
#: Budget at which the private tree builders must match exact ID3.
HUGE_EPSILON = 1e12


def _rows(job) -> list[dict]:
    with open(job.out, encoding="utf-8") as fh:
        return json.load(fh)["results"]


def check_job(job) -> list[str]:
    try:
        rows = _rows(job)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{job.name}: unreadable output: {exc}"]
    checker = {"percentile": check_percentile, "compare": check_percentile,
               "topk": check_topk, "tree": check_tree}[job.kind]
    return [f"{job.name}: {msg}" for msg in checker(job, rows)]


# -- percentile ---------------------------------------------------------------


def _library_widths(path: str, cap: float, p: int):
    """Sensitivity rows from the library's public constructors: the bounded
    per-record function (SLD) and its flattened hull (LD), for t < n, in
    label order."""
    from dampen import percentile, sensitivity

    x = percentile.load_vector(path, cap)
    q = percentile.PercentileQuery(p, len(x))
    problem = percentile.percentile_problem(x, q)
    delta = percentile.bounded_ls_percentile(x, q)
    flat = sensitivity.flatten_sensitivity(delta, problem)
    n = len(x)
    labels = problem.candidates
    sld = np.array([[delta(x, t, r) for t in range(n)] for r in labels])
    ld = np.array([flat(x, t, labels[0]) for t in range(n)])
    return ld, sld


def check_percentile(job, rows) -> list[str]:
    p, cap = job.params["p"], job.params["cap"]
    values = ref.read_values(job.params["data"])
    n = len(values)
    u = ref.percentile_utilities(values, p)
    max_regret = float(u.max() - u.min())
    uniform = float(np.mean(u.max() - u))
    # labels follow ascending value, ties by input position
    by_label = u[sorted(range(n), key=lambda i: (values[i], i))]
    widths = None
    if n <= BREAKPOINT_CHECK_MAX_N:
        widths = _library_widths(job.params["data"], cap, p)

    failures = []
    ld_by_eps = []
    for row in rows:
        mech, eps, value = row["mechanism"], row["epsilon"], row["value"]
        where = f"{mech} eps={eps:g}"
        if not (0.0 - EXACT_TOL <= value <= max_regret + EXACT_TOL):
            failures.append(f"{where}: error {value} outside [0, {max_regret}]")
        if mech == "em":
            want = ref.em_expected_error(u, eps, cap)
            if abs(value - want) > EXACT_TOL:
                failures.append(f"{where}: expected error {value}, reference {want}")
        elif mech == "pf":
            want = ref.pf_expected_error(u, eps, cap)
            if row["metric"] == "meanError":
                tol = Z * row["dispersion"] + EXACT_TOL
            else:
                tol = EXACT_TOL
            if abs(value - want) > tol:
                failures.append(f"{where}: PF error {value} vs closed form "
                                f"{want} (tolerance {tol})")
        elif mech == "ld":
            ld_by_eps.append((eps, value))
            if value > uniform + EXACT_TOL:
                failures.append(f"{where}: LD error {value} worse than uniform {uniform}")
            if widths is not None:
                want = ref.ld_expected_error(by_label, widths[0], eps, cap)
                if abs(value - want) > EXACT_TOL:
                    failures.append(f"{where}: LD error {value}, breakpoint map {want}")
        elif mech == "sld" and widths is not None:
            want = ref.sld_expected_error(by_label, widths[1], eps, cap)
            if abs(value - want) > EXACT_TOL:
                failures.append(f"{where}: SLD error {value}, breakpoint map {want}")
    ld_by_eps.sort()
    for (e0, v0), (e1, v1) in zip(ld_by_eps, ld_by_eps[1:]):
        if v1 > v0 + EXACT_TOL:
            failures.append(f"LD error grows from {v0} at eps={e0:g} to {v1} at eps={e1:g}")
    return failures


# -- topk ---------------------------------------------------------------------


def check_topk(job, rows) -> list[str]:
    from dampen import graphs

    nodes, adj = ref.read_graph(job.params["graph"])
    exact = ref.ebc_exact(adj)
    library, _ = graphs.load_edge_list(job.params["graph"])
    lib_scores = graphs.ebc_scores(library)
    failures = []
    for node, score in zip(nodes, exact):
        got = lib_scores.get(node)
        if got is None or abs(got - float(score)) > EXACT_TOL * max(1.0, float(score)):
            failures.append(f"EBC of {node}: library {got}, reference {float(score)}")
            break
    runs, k = job.params["runs"], job.params["k"]
    mechs = sorted({row["mechanism"] for row in rows})
    expected = {}
    for row in rows:
        mech, eps, value = row["mechanism"], row["epsilon"], row["value"]
        if not (0.0 <= value <= 1.0):
            failures.append(f"{mech} eps={eps:g}: accuracy {value} outside [0, 1]")
            continue
        if eps not in expected:
            expected[eps] = ref.topk_expected_accuracies(adj, k, eps, mechs)
        mu = expected[eps][mech]
        # normal tolerance plus one run's worth, for means near 0 or 1
        tol = Z * math.sqrt(max(mu * (1.0 - mu), 0.0) / runs) + 1.0 / runs
        if abs(value - mu) > tol:
            failures.append(f"{mech} eps={eps:g}: mean accuracy {value} over "
                            f"{runs} runs, exact expectation {mu} (tolerance {tol:.4f})")
    return failures


# -- tree ---------------------------------------------------------------------


def _no_repeats(node, path=()) -> bool:
    if not hasattr(node, "attribute"):
        return True
    if node.attribute in path:
        return False
    return all(_no_repeats(child, path + (node.attribute,))
               for _, child in node.children)


def check_tree(job, rows) -> list[str]:
    from dampen import trees

    failures = []
    for row in rows:
        if not (0.0 <= row["value"] <= 1.0):
            failures.append(f"eps={row['epsilon']:g}: accuracy {row['value']} outside [0, 1]")
    params = job.params
    table = trees.discretize_all(trees.load_table(params["data"], params["schema"]))
    attrs = table.schema.attribute_names()
    tree, ledger = trees.build_diffp_id3(
        table, attrs, params["depth"], HUGE_EPSILON, params["variant"],
        np.random.default_rng(0),
    )
    if abs(ledger.total() - HUGE_EPSILON) > EXACT_TOL * HUGE_EPSILON:
        failures.append(f"ledger total {ledger.total()} != epsilon {HUGE_EPSILON:g}")
    if not _no_repeats(tree):
        failures.append("an attribute repeats along a root-to-leaf path")
    if params["variant"] == "global":
        rows_, attrs_, domains, classes = ref.read_table(params["data"], params["schema"])
        bad = ref.id3_mismatch(tree, rows_, attrs_, domains, classes, params["depth"])
        if bad:
            failures.append(f"tree at eps={HUGE_EPSILON:g} differs from exact ID3 at {bad}")
    return failures
