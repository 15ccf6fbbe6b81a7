# Building and vetting sensitivity functions with the brute-force lab.
#
# On an 8-node graph small enough for exhaustive search we compute exact
# element local sensitivities, check the admissibility conditions that the
# dampening privacy proof needs, and compare two candidate functions.

from dampen import (
    brute_element_ls,
    bound_sensitivity,
    check_admissibility,
    check_dominance,
    check_monotonicity,
    constant_sensitivity,
    flatten_sensitivity,
)
from dampen.core import SensitivityFunction
from dampen.fixtures import example_graph
from dampen.graphs import delta_ebc, ebc_problem
from dampen.oracles import BruteForceExplorer, edge_flip_enumerator

graph = example_graph()
problem = ebc_problem(graph, global_sensitivity=7.5)
enum = edge_flip_enumerator()

# exact per-node sensitivity at growing edit distances
explorer = BruteForceExplorer(problem, enum, node_budget=500_000)
print("exact element local sensitivity (per node, distances 0..2):")
for v in graph.nodes:
    row = [explorer.element_ls(t, v) for t in (0, 1, 2)]
    print(f"  {v:>3}: {row}")
print()

# the flat (node-independent) hull is what plain local dampening uses
print("flat local sensitivity:",
      [max(explorer.element_ls(t, v) for v in graph.nodes) for t in (0, 1, 2)])
print()

# the degree-based closed form is cheap and provably admissible; verify
# that on this instance against brute force up to distance 2
report = check_admissibility(delta_ebc(), problem, enum, max_t=2)
print("degree-based bound admissible here:", report.passed)

# a broken function is caught with a witness
broken = SensitivityFunction(
    eval=lambda g, t, v: 0.0, declared_admissible=True, name="zero"
)
report = check_admissibility(broken, problem, enum, max_t=1)
print("zero function admissible:", report.passed, "witness:", report.witness)
print()

# monotonicity diagnostics: how does the bound track the utility ordering?
mono = check_monotonicity(delta_ebc(), problem, ts=(0, 1))
print(f"degree bound vs utility: class={mono.classification}, "
      f"rank correlation={mono.rank_correlation:.2f}")
print()

# dominance: gaps against the constant, walked along the utility order
bounded = bound_sensitivity(
    flatten_sensitivity(delta_ebc(), problem),
    problem.global_sensitivity, problem.database_size,
)
const = constant_sensitivity(problem.global_sensitivity)
dom = check_dominance(bounded, const, problem, ts=(0, 1, 2))
print("flattened degree bound dominates the constant:", dom.dominates)
print("gaps at t=0 along the utility order:",
      [round(gap, 2) for gap in dom.gaps[0]])
print()

print("one-call exact sensitivity, distance 1, node v4:",
      brute_element_ls(problem, enum, 1, "v4"))
