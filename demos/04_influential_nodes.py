# Private top-k influential nodes under edge-level privacy.
#
# Influence is ego betweenness: how often a node sits on shortest paths
# between its own neighbors.  The demo graph has two bridge nodes whose
# removal would disconnect two loosely tied groups; a pessimistic public
# degree bound makes the worst-case sensitivity huge, which is where the
# locally calibrated mechanisms shine.

import numpy as np

from dampen.core import BudgetAccountant
from dampen.fixtures import trend_graph
from dampen.graphs import (
    TopKSelector,
    ebc,
    global_sensitivity_ebc,
    priv_topk,
    topk_accuracy,
    true_topk,
)

graph = trend_graph()
print("ego betweenness per node:")
for v in graph.nodes:
    print(f"  {v:>3}: {ebc(graph, v):.1f}")
print("worst-case sensitivity under the public degree bound:",
      global_sensitivity_ebc(graph))
print("exact top-2:", true_topk(graph, 2))
print()

k = 2
runs = 60
print(f"mean top-{k} overlap over {runs} runs:")
print(f"{'epsilon':>8} {'em':>6} {'pf':>6} {'ld':>6} {'sld':>6}")
# one prepared selector per mechanism, drawn at every epsilon: EM and LD
# score every node once here, not once per epsilon, run and round
selectors = [TopKSelector(graph, k, mechanism)
             for mechanism in ("em", "pf", "ld", "sld")]
for eps in (0.5, 2.0, 8.0, 32.0, 128.0):
    row = []
    for mech_ix, selector in enumerate(selectors):
        scores = []
        for run in range(runs):
            rng = np.random.default_rng(1000 * run + mech_ix)
            result = selector.draw(rng, eps)
            scores.append(topk_accuracy(result, graph, k))
        row.append(float(np.mean(scores)))
    print(f"{eps:8.1f} " + " ".join(f"{v:6.2f}" for v in row))

print()
acc = BudgetAccountant()
result = priv_topk(graph, 4.0, 3, "sld", np.random.default_rng(0),
                   accountant=acc)
print("one run at eps=4, k=3:", result.chosen)
print("per-iteration budget:", result.per_iteration_epsilon,
      " ledger total:", acc.total())
