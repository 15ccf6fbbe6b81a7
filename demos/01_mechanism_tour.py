# A tour of the four private selection mechanisms on one toy problem.
#
# The task: pick one of five options whose (private) quality scores are
# known to the mechanism but must not leak.  We compare how each mechanism
# spreads its output probability and what that costs in expected regret.

import numpy as np

from dampen import (
    SelectionProblem,
    constant_sensitivity,
    distribution,
    expected_error,
    select_exponential,
    select_local_dampening,
    select_permute_and_flip,
    select_shifted_local_dampening,
)
from dampen.core import SensitivityFunction

scores = {"alpha": 9.0, "beta": 7.5, "gamma": 4.0, "delta": 1.0, "zeta": 0.0}
problem = SelectionProblem(
    database=scores,
    candidates=tuple(scores),
    utility=lambda db, r: db[r],
    global_sensitivity=6.0,   # worst-case score movement per record change
    database_size=10,
)
rng = np.random.default_rng(7)
epsilon = 1.0

print("true scores:", scores)
print()

# --- exponential mechanism: noise calibrated to the worst case everywhere
picked, em = select_exponential(problem, epsilon, rng)
print(f"exponential mechanism picked {picked!r}")
for r, p in zip(em.candidates, em.probabilities):
    print(f"  Pr[{r:>5}] = {p:.3f}")
print(f"  expected regret: {expected_error(em, problem):.3f}")
print()

# --- permute-and-flip: walk a random permutation, flipping a coin with
# heads probability exp(eps * (u - u_max) / 2GS) until one lands heads.
# Its distribution has a closed form, an integral of a polynomial.
picked = select_permute_and_flip(problem, epsilon, rng)
pf = distribution("pf", problem, epsilon)
print(f"permute-and-flip picked {picked!r}")
for r, p in zip(pf.candidates, pf.probabilities):
    print(f"  Pr[{r:>5}] = {p:.3f}")
print(f"  expected regret: {expected_error(pf, problem):.3f}")
print()

# --- local dampening: suppose we know the score movement NEAR this
# database is much smaller than the worst case (1.0 at distance zero,
# growing by one per extra edit until it hits the global bound).
flat_local = SensitivityFunction(
    eval=lambda db, t, r: min(1.0 + t, 6.0),
    declared_admissible=True,
    declared_bounded=True,
    monotonicity="flat",
    name="flat_estimate",
)
picked, ld = select_local_dampening(problem, flat_local, epsilon, rng)
print(f"local dampening picked {picked!r}")
for r, p in zip(ld.candidates, ld.probabilities):
    print(f"  Pr[{r:>5}] = {p:.3f}")
print(f"  expected regret: {expected_error(ld, problem):.3f}")
print()

# --- shifted local dampening: pays off when the sensitivity estimate is
# per-candidate.  Here high-scoring options are also the volatile ones
# (think hub nodes in a graph), so their breakpoints are wider.
per_candidate = SensitivityFunction(
    eval=lambda db, t, r: min((1.0 + t) * (0.4 + db[r] / 9.0), 6.0),
    declared_admissible=True,
    declared_bounded=True,
    monotonicity="non_decreasing",
    name="per_candidate_estimate",
)
picked, sld = select_shifted_local_dampening(problem, per_candidate, epsilon, rng)
print(f"shifted local dampening picked {picked!r}")
for r, p in zip(sld.candidates, sld.probabilities):
    print(f"  Pr[{r:>5}] = {p:.3f}")
print(f"  expected regret: {expected_error(sld, problem):.3f}")
print("(with a flat estimate the shifted mechanism is exactly the "
      "exponential mechanism; the spread comes from the per-candidate term)")
print()

# --- sanity: with the sensitivity pinned at the global bound, both
# dampening mechanisms ARE the exponential mechanism.
const = constant_sensitivity(problem.global_sensitivity)
_, ld_const = select_local_dampening(problem, const, epsilon, rng)
print(
    "max |LD(const) - EM| =",
    float(np.max(np.abs(ld_const.probabilities - em.probabilities))),
)
