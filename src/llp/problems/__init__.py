"""Problem adapters and the name -> adapter registry."""

from __future__ import annotations

from ..core import MalformedInstanceError
from .closure import TransitiveClosure, pack_reachability, unpack_reachability
from .knapsack import Knapsack
from .matching import StableMatching
from .reduction import TreeReduction
from .scheduling import JobScheduling
from .shortest_paths import BreadthFirstLevels, ShortestPaths

PROBLEMS = ("sssp", "bfs", "sm", "job", "reduce", "closure", "knapsack")

#: Instance kind expected by each problem.
INSTANCE_KIND = {
    "sssp": "graph",
    "bfs": "graph",
    "sm": "sm",
    "job": "dag",
    "reduce": "reduce",
    "closure": "digraph",
    "knapsack": "knap",
}


def adapter_for(problem: str, instance):
    """Build the adapter for ``problem`` over a generated instance."""
    expected = INSTANCE_KIND.get(problem)
    if expected is None:
        raise ValueError(f"unknown problem {problem!r}")
    kind = getattr(instance, "kind", None)
    if kind != expected and not (problem == "closure" and kind == "graph"):
        raise MalformedInstanceError(
            f"problem {problem!r} needs a {expected!r} instance, got {kind!r}"
        )
    if problem == "sssp":
        return ShortestPaths(instance.graph, instance.source)
    if problem == "bfs":
        return BreadthFirstLevels(instance.graph, instance.source)
    if problem == "sm":
        return StableMatching(instance.mprefs, instance.wprefs)
    if problem == "job":
        return JobScheduling(instance.graph, instance.durations)
    if problem == "reduce":
        return TreeReduction(instance.values)
    if problem == "closure":
        return TransitiveClosure(instance.graph)
    if problem == "knapsack":
        return Knapsack(instance.weights, instance.values, instance.capacity)
    raise ValueError(f"unknown problem {problem!r}")


__all__ = [
    "PROBLEMS",
    "INSTANCE_KIND",
    "adapter_for",
    "ShortestPaths",
    "BreadthFirstLevels",
    "StableMatching",
    "JobScheduling",
    "TreeReduction",
    "TransitiveClosure",
    "Knapsack",
    "pack_reachability",
    "unpack_reachability",
]
