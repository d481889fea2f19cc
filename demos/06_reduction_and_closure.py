"""Tree reduction and transitive closure: two max-lattices.

Reduction publishes partial sums up a combine tree; a node fires once
both children have published.  Closure grows packed reachability rows
under bitwise OR until each row holds the rows of its direct successors.
"""

from llp import SolverConfig, generate, solve
from llp.problems import TransitiveClosure, TreeReduction, adapter_for

total = solve(TreeReduction(list(range(1, 101))), SolverConfig(strategy="swb", threads=4))
print("sum of 1..100 via the combine tree:", int(total[0]), "(closed form 5050)")

inst = generate("closuredag:n=60,p=0.08", 2)
adapter = adapter_for("closure", inst)
words = solve(adapter, SolverConfig(strategy="allpar", threads=4))
reach = adapter.reachability_matrix(words)
print(f"closure of a sparse DAG: {inst.graph.num_edges} edges grow to "
      f"{int(reach.sum())} reachable pairs of {reach.size} possible")

# Idempotence: closing the closure changes nothing.
edges = [(u, v, 1) for u in range(60) for v in range(60) if reach[u, v]]
from llp.instances import CsrGraph

again = TransitiveClosure(CsrGraph.from_edges(60, edges))
assert (solve(again, SolverConfig(strategy="bag")) == words).all()
print("re-closing the closure is a no-op")
