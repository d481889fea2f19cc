"""Unweighted traversal: hop levels as a min-lattice.

BFS is shortest paths with every weight equal to one.  An advance
pushes only the neighbours whose level it lowers, keyed by that new
level, and correctness rests on the same monotone minimum as weighted
SSSP.
"""

from llp import INF, SolverConfig, generate, solve
from llp.baselines import bfs_seq
from llp.problems import adapter_for

chain = generate("chain:6", 0)
print("chain of 6:", solve(adapter_for("bfs", chain), SolverConfig(strategy="bag")).tolist())

inst = generate("randgraph:n=5000,m=9000,wmax=1", 3)
got = solve(adapter_for("bfs", inst), SolverConfig(strategy="ptwb", threads=4))
assert (got == bfs_seq(inst.graph, inst.source)).all()
reached = int((got != INF).sum())
print(f"random graph: {reached} of {inst.graph.num_vertices} vertices reached,")
print(f"deepest level {int(got[got != INF].max())}, unreached vertices stay at INF")
