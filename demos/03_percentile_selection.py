# Privately reporting which record sits at a percentile.
#
# Values are bunched mid-range while the public cap is generous, so the
# exact local sensitivity sits around half the cap: exactly the regime
# where dampening beats worst-case calibration.  We sweep the privacy
# budget and compare exact expected errors.

import numpy as np

from dampen.fixtures import clustered_vector
from dampen.mechanisms import (
    distribution,
    expected_error,
    select_exponential,
    select_local_dampening,
    select_shifted_local_dampening,
)
from dampen.oracles import ls0_percentile
from dampen.percentile import (
    PercentileQuery,
    bounded_ls_percentile,
    percentile_problem,
)
from dampen.sensitivity import flatten_sensitivity

x = clustered_vector()
q = PercentileQuery(50, len(x))
print(f"values: {x.values()}  cap: {x.lambda_cap}  median rank: {q.k}")

print("exact per-record sensitivity at distance 0:")
print("  ", [round(ls0_percentile(x, q, i), 1) for i in range(1, len(x) + 1)])
print(f"(global sensitivity is the cap, {x.lambda_cap})")
print()

problem = percentile_problem(x, q)
delta = bounded_ls_percentile(x, q)
flat = flatten_sensitivity(delta, problem)
rng = np.random.default_rng(1)

print(f"{'epsilon':>8} {'exp-mech':>10} {'perm-flip':>10} "
      f"{'dampening':>10} {'shifted':>10}")
for eps in (0.1, 0.3, 1.0, 3.0, 10.0):
    _, em = select_exponential(problem, eps, rng)
    _, ld = select_local_dampening(problem, flat, eps, rng)
    _, sld = select_shifted_local_dampening(problem, delta, eps, rng)
    pf_err = expected_error(distribution("pf", problem, eps), problem)
    print(f"{eps:8.1f} {expected_error(em, problem):10.4f} "
          f"{pf_err:10.4f} {expected_error(ld, problem):10.4f} "
          f"{expected_error(sld, problem):10.4f}")

print()
print("(exp-mech and perm-flip columns calibrate to the cap; the dampening "
      "columns use the exact local sensitivity, bounded by the cap)")
