"""Lock-free-style runtime for problems expressible as monotone lattice searches.

Seven built-in problems (shortest paths, BFS levels, stable matching,
job scheduling, parallel reduction, transitive closure, 0/1 knapsack)
share one solver runtime: define when a coordinate is *forbidden* and
how to *advance* it, and every solver strategy and worklist policy in
:mod:`llp.solvers` applies unchanged.
"""

from .core import (
    INF,
    AtomicU64Array,
    FixedVector,
    GlobalState,
    IncompleteSolveError,
    InfeasibleError,
    LlpError,
    MalformedInstanceError,
    Problem,
    Stats,
    Update,
    monotone_update,
    saturating_add,
)
from .instances import CsrGraph, SplitMix64, example_graph, generate, load_graph
from .solvers import (
    PARALLEL_STRATEGIES,
    SEQUENTIAL_STRATEGIES,
    STRATEGIES,
    SolverConfig,
    run_solver,
    solve,
)

__all__ = [
    "INF",
    "AtomicU64Array",
    "FixedVector",
    "GlobalState",
    "IncompleteSolveError",
    "InfeasibleError",
    "LlpError",
    "MalformedInstanceError",
    "Problem",
    "Stats",
    "Update",
    "monotone_update",
    "saturating_add",
    "CsrGraph",
    "SplitMix64",
    "example_graph",
    "generate",
    "load_graph",
    "STRATEGIES",
    "SEQUENTIAL_STRATEGIES",
    "PARALLEL_STRATEGIES",
    "SolverConfig",
    "run_solver",
    "solve",
]

__version__ = "0.1.0"
