"""Differentially private selection via local dampening.

Four selection mechanisms over a common problem type (exponential,
permute-and-flip, local dampening and shifted local dampening), a toolkit
for building and verifying sensitivity functions, and three applications:
percentile selection, influential-node top-k by ego betweenness, and
private ID3 decision trees.
"""

from .core import (
    BudgetAccountant,
    ContractViolationError,
    InvalidInputError,
    PreconditionError,
    SearchBudgetError,
    SelectionProblem,
    SensitivityFunction,
    constant_sensitivity,
)
from .mechanisms import (
    SelectionDistribution,
    dampen,
    distribution,
    expected_error,
    select,
    select_exponential,
    select_local_dampening,
    select_permute_and_flip,
    select_shifted_local_dampening,
)
from .sensitivity import bound_sensitivity, flatten_sensitivity


def __getattr__(name):
    # the brute-force references load on first use, never on a CLI run
    if name in ("NeighborEnumerator", "brute_element_ls", "brute_sensitivity",
                "check_admissibility", "check_dominance",
                "check_monotonicity"):
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "BudgetAccountant",
    "ContractViolationError",
    "InvalidInputError",
    "NeighborEnumerator",
    "PreconditionError",
    "SearchBudgetError",
    "SelectionDistribution",
    "SelectionProblem",
    "SensitivityFunction",
    "bound_sensitivity",
    "brute_element_ls",
    "brute_sensitivity",
    "check_admissibility",
    "check_dominance",
    "check_monotonicity",
    "constant_sensitivity",
    "dampen",
    "distribution",
    "expected_error",
    "flatten_sensitivity",
    "select",
    "select_exponential",
    "select_local_dampening",
    "select_permute_and_flip",
    "select_shifted_local_dampening",
]
