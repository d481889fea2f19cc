"""Weighted shortest paths: worklist policies and their work counts.

The same relaxation predicate runs under every scheduling policy; what
changes is how much redundant work each policy performs.  An advance
pushes only the neighbours it improves, each keyed by its new tentative
distance; the bucket queue and the per-thread bag schedule on that key,
which keeps threads near the active frontier.
"""

import time

from llp import SolverConfig, generate, run_solver
from llp.baselines import dijkstra_heap
from llp.problems import adapter_for

inst = generate("randgraph:n=20000,m=80000,wmax=50", 7)
adapter = adapter_for("sssp", inst)
oracle = dijkstra_heap(inst.graph, inst.source)

print(f"graph: {inst.graph.num_vertices} vertices, {inst.graph.num_edges} arcs")
print(f"{'solver':10s} {'threads':>7s} {'seconds':>8s} {'evals':>10s} {'advances':>9s}")
for strategy, threads in [("bag", 1), ("swb", 4), ("ptwb", 4), ("ptcf", 4), ("buckets", 4)]:
    t0 = time.perf_counter()
    result = run_solver(adapter, SolverConfig(strategy=strategy, threads=threads, delta=8))
    dt = time.perf_counter() - t0
    assert (result.solution == oracle).all()
    s = result.stats
    print(f"{strategy:10s} {threads:7d} {dt:8.2f} {s.predicate_evals:10d} {s.advances:9d}")

print("\nall outputs matched Dijkstra exactly; the policies differ only in")
print("how many stale work items they re-examine along the way.")
