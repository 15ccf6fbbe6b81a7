import dataclasses
import warnings

import numpy as np
import pytest

# hypothesis reports a failing example through hypothesis.extra._patching,
# whose first import (via libcst) raises a DeprecationWarning from
# mypy_extensions; under -W error that aborts the whole session.  Importing
# it once here, with that warning ignored, leaves the failure a plain one.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from dampen.core import SelectionProblem
from dampen.fixtures import example_graph
from dampen.graphs import ebc_problem
from dampen.mechanisms import (
    select_local_dampening,
    select_shifted_local_dampening,
)
from dampen.oracles import BruteForceExplorer, edge_flip_enumerator


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def bridge_graph():
    """Two well-connected nodes over six loosely tied leaves; EBC(a) = 6.5."""
    return example_graph()


@pytest.fixture(scope="session")
def bridge_problem(bridge_graph):
    # 7.5 is the one-flip worst case of the matching shared-neighbor gadget,
    # used as the public sensitivity for this graph family.
    return ebc_problem(bridge_graph, global_sensitivity=7.5)


@pytest.fixture(scope="session")
def bridge_explorer(bridge_problem):
    """Session-wide brute-force ball around the bridge graph (reused by the
    worked-example tests and the deeper sensitivity probes)."""
    return BruteForceExplorer(
        bridge_problem, edge_flip_enumerator(), node_budget=500_000
    )


def make_abstract_problem(utilities, gs, n=4):
    """Selection problem over an explicit utility table."""
    table = tuple(float(u) for u in utilities)
    return SelectionProblem(
        database=table,
        candidates=tuple(range(len(table))),
        utility=lambda db, r: db[r],
        global_sensitivity=gs,
        database_size=n,
    )


def full_walk(delta):
    """The same sensitivity function without the nondecreasing claim, so
    ``dampen`` walks every step up to the database size."""
    return dataclasses.replace(delta, declared_nondecreasing_in_t=False)


def scored_candidates(monkeypatch):
    """Record the candidate of every score that ``dampen`` walks or that
    ``mechanisms._prefixes`` reads from a table, in scoring order."""
    from dampen import mechanisms

    scored = []
    walk, array_pass = mechanisms.dampen, mechanisms._prefixes

    def walked(problem, delta, r, u, *tails):
        scored.append(r)
        return walk(problem, delta, r, u, *tails)

    def passed(table, problems):
        for _, _, candidates, _, _ in problems:
            scored.extend(candidates)
        return array_pass(table, problems)

    monkeypatch.setattr(mechanisms, "dampen", walked)
    monkeypatch.setattr(mechanisms, "_prefixes", passed)
    return scored


def counting(delta):
    """``delta`` with the candidate of every evaluation recorded in the
    returned list."""
    calls = []

    def eval_fn(db, t, r):
        calls.append(r)
        return delta.eval(db, t, r)

    return dataclasses.replace(delta, eval=eval_fn), calls


def assert_same_distributions(problem, delta, epsilons=(0.1, 1.0, 10.0)):
    """LD and SLD under ``delta`` equal the full walk to 1e-12."""
    rng = np.random.default_rng(0)
    for select in (select_local_dampening, select_shifted_local_dampening):
        for eps in epsilons:
            _, fast = select(problem, delta, eps, rng)
            _, slow = select(problem, full_walk(delta), eps, rng)
            gap = np.max(np.abs(fast.probabilities - slow.probabilities))
            assert gap <= 1e-12, (delta.name, select.__name__, eps)
