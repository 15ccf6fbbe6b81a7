"""Private selection mechanisms with exact output distributions.

Implements the exponential mechanism and permute-and-flip baselines plus the
two dampening mechanisms.  The dampening mechanisms rescale the utility of
each candidate through a piecewise-linear map whose breakpoints are the
cumulative sums of a sensitivity function, which caps the neighbor-to-
neighbor movement of the rescaled score at one.

Except for permute-and-flip (inherently sequential), every mechanism also
returns its full per-candidate output distribution, computed exactly via a
max-stabilized softmax, so expected errors can be derived without sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Hashable, Sequence

import numpy as np

from .core import (
    ContractViolationError,
    InvalidInputError,
    SelectionProblem,
    SensitivityFunction,
)

#: Iteration cap for bracketing a score against a sensitivity function that
#: is not declared bounded; bounded functions switch to a closed-form tail
#: by step ``n`` at the latest.
MAX_BREAKPOINT_STEPS = 100_000


@dataclass(frozen=True)
class SelectionDistribution:
    """Exact per-candidate output probabilities of one mechanism run."""

    mechanism: str
    epsilon: float
    candidates: tuple
    probabilities: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if np.any(p < 0):
            raise ContractViolationError("negative probability")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise ContractViolationError("probabilities do not sum to 1")
        object.__setattr__(self, "probabilities", p)

    def probability_of(self, candidate) -> float:
        return float(self.probabilities[self.candidates.index(candidate)])


def _stable_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    weights = np.exp(shifted)
    return weights / weights.sum()


def _sample(candidates: Sequence, probabilities: np.ndarray, rng) -> Any:
    cdf = np.cumsum(probabilities)
    cdf[-1] = 1.0
    return candidates[int(np.searchsorted(cdf, rng.random(), side="right"))]


def _check_epsilon(epsilon: float) -> None:
    if not (epsilon > 0) or not math.isfinite(epsilon):
        raise InvalidInputError("epsilon must be positive and finite")


def dampen(
    problem: SelectionProblem,
    delta: SensitivityFunction,
    r: Hashable,
    u_value: float,
) -> float:
    """Rescale ``u_value`` through the breakpoint grid of ``delta`` at ``r``.

    Breakpoints are ``b(i) = sum_{t<i} delta(x, t, r)`` for ``i >= 0`` and
    mirrored for ``i < 0``; the result is ``(u - b(i)) / (b(i+1) - b(i)) + i``
    for the smallest ``i`` whose half-open interval contains ``u``.  Empty
    intervals (a zero sensitivity step) contain no point and are skipped.
    For a bounded ``delta`` every step at ``t >= n`` equals the global
    sensitivity, so scores past ``b(n)`` are resolved in closed form instead
    of by iteration.  A bounded ``delta`` that is also nondecreasing in ``t``
    is at most GS everywhere, so its first step equal to GS starts the
    constant tail and the walk stops there; the claim is checked on every
    step taken.  Negative scores go through the mirrored grid, which makes
    ``dampen(-u) == -dampen(u)`` hold exactly.
    """
    if not math.isfinite(u_value):
        raise InvalidInputError(f"utility value {u_value!r} is not finite")
    if u_value == 0:
        return 0.0
    sign = 1.0 if u_value > 0 else -1.0
    v = abs(u_value)

    x = problem.database
    gs = problem.global_sensitivity
    n = problem.database_size
    bounded = delta.declared_bounded
    saturates = bounded and delta.declared_nondecreasing_in_t
    b = 0.0
    i = 0
    previous = 0.0
    while True:
        if bounded and i >= n:
            if gs <= 0:
                raise ContractViolationError(
                    "bounded delta with zero global sensitivity cannot "
                    f"bracket utility {u_value!r}"
                )
            return sign * (i + (v - b) / gs)
        width = delta(x, i, r)
        if saturates:
            if width < previous or width > gs:
                raise ContractViolationError(
                    f"sensitivity function {delta.name} declared bounded and "
                    f"nondecreasing in t returned {width!r} at t={i} after "
                    f"{previous!r} (global sensitivity {gs!r})"
                )
            if width == gs > 0:
                return sign * (i + (v - b) / gs)
            previous = width
        nxt = b + width
        if v < nxt:
            return sign * (i + (v - b) / width)
        b = nxt
        i += 1
        if not bounded and i > MAX_BREAKPOINT_STEPS:
            raise ContractViolationError(
                f"no breakpoint interval brackets utility {u_value!r} "
                f"within {MAX_BREAKPOINT_STEPS} steps"
            )


def _uniform(problem: SelectionProblem, epsilon: float, tag: str, rng):
    k = len(problem.candidates)
    dist = SelectionDistribution(
        mechanism=tag,
        epsilon=epsilon,
        candidates=problem.candidates,
        probabilities=np.full(k, 1.0 / k),
        scores=np.zeros(k),
    )
    return _sample(problem.candidates, dist.probabilities, rng), dist


def select_exponential(problem: SelectionProblem, epsilon: float, rng):
    """Sample a candidate with probability proportional to
    ``exp(epsilon * u / (2 * global_sensitivity))``.

    A zero global sensitivity means the utility carries no private signal;
    the distribution degenerates to uniform.
    """
    _check_epsilon(epsilon)
    if problem.global_sensitivity == 0:
        return _uniform(problem, epsilon, "em", rng)
    u = np.array(problem.utilities())
    scores = epsilon * u / (2.0 * problem.global_sensitivity)
    dist = SelectionDistribution(
        mechanism="em",
        epsilon=epsilon,
        candidates=problem.candidates,
        probabilities=_stable_softmax(scores),
        scores=scores,
    )
    return _sample(problem.candidates, dist.probabilities, rng), dist


def select_permute_and_flip(problem: SelectionProblem, epsilon: float, rng):
    """Permute-and-flip: walk a random permutation of the candidates and
    return the first one whose ``Bernoulli(exp(eps * (u - u*) / 2GS))``
    coin lands heads.  A maximizer flips heads with probability one, so the
    walk always terminates.
    """
    _check_epsilon(epsilon)
    candidates = problem.candidates
    if problem.global_sensitivity == 0:
        return candidates[int(rng.integers(len(candidates)))]
    u = np.array(problem.utilities())
    u_star = u.max()
    rate = epsilon / (2.0 * problem.global_sensitivity)
    for idx in rng.permutation(len(candidates)):
        if rng.random() < math.exp(rate * (u[idx] - u_star)):
            return candidates[int(idx)]
    raise AssertionError("unreachable: some candidate attains u*")


def select_local_dampening(
    problem: SelectionProblem,
    delta: SensitivityFunction,
    epsilon: float,
    rng,
):
    """Sample with probability proportional to ``exp(epsilon * D(u) / 2)``
    where ``D`` is the dampened utility under ``delta``.

    ``delta`` must be declared admissible; that is the hypothesis under
    which the mechanism is differentially private.
    """
    _check_epsilon(epsilon)
    if not delta.declared_admissible:
        raise ContractViolationError(
            f"sensitivity function {delta.name} is not declared admissible"
        )
    if problem.global_sensitivity == 0:
        return _uniform(problem, epsilon, "ld", rng)
    u = problem.utilities()
    damped = np.array(
        [dampen(problem, delta, r, ur) for r, ur in zip(problem.candidates, u)]
    )
    scores = epsilon * damped / 2.0
    dist = SelectionDistribution(
        mechanism="ld",
        epsilon=epsilon,
        candidates=problem.candidates,
        probabilities=_stable_softmax(scores),
        scores=scores,
    )
    return _sample(problem.candidates, dist.probabilities, rng), dist


def shift_constant(problem: SelectionProblem) -> float:
    """Smallest shift beyond which the shifted distribution saturates:
    ``n * GS + max_r u(x, r)``."""
    return problem.database_size * problem.global_sensitivity + max(
        problem.utilities()
    )


def select_shifted_local_dampening(
    problem: SelectionProblem,
    delta: SensitivityFunction,
    epsilon: float,
    rng,
    shift: float | None = None,
):
    """Local dampening applied to a shifted utility.

    For a non-increasing ``delta`` the utilities are raised until they all
    sit at or above ``n * GS``; otherwise they are lowered by the saturation
    constant ``n * GS + max u`` (or any caller-provided ``shift`` at least
    that large), placing every score in the constant-width tail of the
    breakpoint grid.  ``delta`` must be declared admissible and bounded.
    """
    _check_epsilon(epsilon)
    if not delta.declared_admissible:
        raise ContractViolationError(
            f"sensitivity function {delta.name} is not declared admissible"
        )
    if not delta.declared_bounded:
        raise ContractViolationError(
            f"sensitivity function {delta.name} is not declared bounded; "
            "wrap it with bound_sensitivity first"
        )
    if problem.global_sensitivity == 0:
        return _uniform(problem, epsilon, "sld", rng)
    u = problem.utilities()
    n_gs = problem.database_size * problem.global_sensitivity
    if delta.monotonicity == "non_increasing":
        offset = n_gs - min(u) if shift is None else shift
        shifted = [ur + offset for ur in u]
    else:
        offset = n_gs + max(u) if shift is None else shift
        shifted = [ur - offset for ur in u]
    damped = np.array(
        [
            dampen(problem, delta, r, ur)
            for r, ur in zip(problem.candidates, shifted)
        ]
    )
    scores = epsilon * damped / 2.0
    dist = SelectionDistribution(
        mechanism="sld",
        epsilon=epsilon,
        candidates=problem.candidates,
        probabilities=_stable_softmax(scores),
        scores=scores,
    )
    return _sample(problem.candidates, dist.probabilities, rng), dist


def expected_error(dist: SelectionDistribution, problem: SelectionProblem) -> float:
    """Exact expected utility regret ``sum_r Pr[r] * (u* - u(x, r))``."""
    if set(dist.candidates) != set(problem.candidates):
        raise InvalidInputError("distribution does not cover the full range")
    u = {r: problem.utility(problem.database, r) for r in problem.candidates}
    u_star = max(u.values())
    return float(
        sum(
            p * (u_star - u[r])
            for r, p in zip(dist.candidates, dist.probabilities)
        )
    )


def error_tail(
    dist: SelectionDistribution, problem: SelectionProblem, theta: float
) -> float:
    """Exact ``Pr[u* - u(x, M(x)) >= theta]``."""
    u = {r: problem.utility(problem.database, r) for r in problem.candidates}
    u_star = max(u.values())
    return float(
        sum(
            p
            for r, p in zip(dist.candidates, dist.probabilities)
            if u_star - u[r] >= theta
        )
    )


MECHANISMS = ("em", "pf", "ld", "sld")


def select(
    mechanism: str,
    problem: SelectionProblem,
    epsilon: float,
    rng,
    delta: SensitivityFunction | None = None,
):
    """Dispatch by mechanism tag; returns ``(candidate, distribution)`` with
    ``distribution = None`` for permute-and-flip."""
    if mechanism == "em":
        return select_exponential(problem, epsilon, rng)
    if mechanism == "pf":
        return select_permute_and_flip(problem, epsilon, rng), None
    if mechanism == "ld":
        if delta is None:
            raise InvalidInputError("local dampening needs a sensitivity function")
        return select_local_dampening(problem, delta, epsilon, rng)
    if mechanism == "sld":
        if delta is None:
            raise InvalidInputError("shifted dampening needs a sensitivity function")
        return select_shifted_local_dampening(problem, delta, epsilon, rng)
    raise InvalidInputError(f"unknown mechanism {mechanism!r}")
