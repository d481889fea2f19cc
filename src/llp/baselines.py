"""Reference and competitor implementations.

Sequential baselines double as verification oracles; parallel ones are
benchmark comparison targets shaped like the classical algorithms they
name (including their synchronization bottlenecks).  Every function
returns the same solution shape and dtype as the corresponding problem
adapter so verification is a plain vector comparison.  None of this
module runs through the solver runtime; the two routes stay independent.
"""

from __future__ import annotations

import heapq
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import INF, LlpError, saturating_add
from .instances import (
    CsrGraph,
    DagInstance,
    GraphInstance,
    KnapInstance,
    PrefsInstance,
    ValuesInstance,
)
from .problems.closure import pack_reachability

BASELINES = (
    "dijkstra-heap",
    "delta-stepping",
    "bfs-seq",
    "bfs-mt-queue",
    "gale-shapley-seq",
    "gale-shapley-rounds",
    "topo-sort-seq",
    "topo-levels-par",
    "binary-tree-reduce",
    "floyd-warshall-par",
    "dp-row-knapsack",
)

_SEQUENTIAL = {
    "dijkstra-heap",
    "bfs-seq",
    "gale-shapley-seq",
    "topo-sort-seq",
    "dp-row-knapsack",
}


class MismatchedInstanceError(LlpError):
    """The instance kind does not fit the requested baseline."""


def oracle_for(problem: str) -> str:
    """Sequential oracle used to verify each problem's fixed point."""
    return {
        "sssp": "dijkstra-heap",
        "bfs": "bfs-seq",
        "sm": "gale-shapley-seq",
        "job": "topo-sort-seq",
        "reduce": "binary-tree-reduce",
        "closure": "floyd-warshall-par",
        "knapsack": "dp-row-knapsack",
    }[problem]


def dijkstra_heap(graph: CsrGraph, source: int = 0) -> np.ndarray:
    dist = [INF] * graph.num_vertices
    dist[source] = 0
    adj = graph.adjacency_lists()
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return np.array(dist, dtype=np.uint64)


def default_delta(graph: CsrGraph) -> int:
    """Smallest power of two >= the median edge weight."""
    if graph.num_edges == 0:
        return 1
    median = int(np.median(graph.weights))
    delta = 1
    while delta < median:
        delta *= 2
    return delta


def delta_stepping(graph: CsrGraph, source: int = 0, delta=None, threads: int = 1) -> np.ndarray:
    """Bucket-synchronous relaxation; light edges settle inside a bucket."""
    if delta is None:
        delta = default_delta(graph)
    if delta < 1:
        raise ValueError("delta must be >= 1")
    n = graph.num_vertices
    adj = graph.adjacency_lists()
    light = [[(v, w) for v, w in row if w <= delta] for row in adj]
    heavy = [[(v, w) for v, w in row if w > delta] for row in adj]
    dist = [INF] * n
    buckets: dict = {}
    in_bucket = [None] * n
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None

    def relax(v, d):
        if d < dist[v]:
            old = in_bucket[v]
            if old is not None:
                bucket = buckets.get(old)
                if bucket is not None:
                    bucket.discard(v)
            dist[v] = d
            b = d // delta
            buckets.setdefault(b, set()).add(v)
            in_bucket[v] = b

    def requests(frontier, edges):
        if pool is not None and len(frontier) > 1:
            step = (len(frontier) + threads - 1) // threads
            chunks = [frontier[i : i + step] for i in range(0, len(frontier), step)]
            parts = pool.map(
                lambda ch: [(v, dist[u] + w) for u in ch for v, w in edges[u]], chunks
            )
            return [req for part in parts for req in part]
        return [(v, dist[u] + w) for u in frontier for v, w in edges[u]]

    try:
        relax(source, 0)
        while buckets:
            i = min(buckets)
            settled = []
            while buckets.get(i):
                frontier = sorted(buckets.pop(i))
                for v in frontier:
                    in_bucket[v] = None
                settled.extend(frontier)
                for v, d in requests(frontier, light):
                    relax(v, d)
            buckets.pop(i, None)
            for v, d in requests(settled, heavy):
                relax(v, d)
    finally:
        if pool is not None:
            pool.shutdown()
    return np.array(dist, dtype=np.uint64)


def bfs_seq(graph: CsrGraph, source: int = 0) -> np.ndarray:
    n = graph.num_vertices
    adj = graph.successor_lists()
    level = [INF] * n
    level[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        nxt = level[u] + 1
        for v in adj[u]:
            if nxt < level[v]:
                level[v] = nxt
                queue.append(v)
    return np.array(level, dtype=np.uint64)


def bfs_mt_queue(graph: CsrGraph, source: int = 0, threads: int = 2) -> np.ndarray:
    """The anti-scaling-prone shape: one global FIFO shared by all workers."""
    n = graph.num_vertices
    adj = graph.successor_lists()
    level = [INF] * n
    level[source] = 0
    queue = deque([source])
    lock = threading.Lock()
    outstanding = [1]  # queued or in-process vertices

    def worker():
        while True:
            try:
                u = queue.popleft()
            except IndexError:
                with lock:
                    if outstanding[0] == 0:
                        return
                continue
            nxt = level[u] + 1
            for v in adj[u]:
                with lock:
                    if nxt < level[v]:
                        level[v] = nxt
                        outstanding[0] += 1
                        queue.append(v)
            with lock:
                outstanding[0] -= 1

    pool = [threading.Thread(target=worker) for _ in range(max(1, threads))]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    return np.array(level, dtype=np.uint64)


def gale_shapley_seq(mprefs, wprefs) -> np.ndarray:
    """Man-optimal deferred acceptance; returns each man's proposal index."""
    n = len(mprefs)
    wrank = [[0] * n for _ in range(n)]
    for w, lst in enumerate(wprefs):
        for rank, m in enumerate(lst):
            wrank[w][m] = rank
    index = [0] * n
    holder = [None] * n  # current proposal held by each woman
    free = deque(range(n))
    while free:
        m = free.popleft()
        w = mprefs[m][index[m]]
        cur = holder[w]
        if cur is None:
            holder[w] = m
        elif wrank[w][m] < wrank[w][cur]:
            holder[w] = m
            index[cur] += 1
            free.append(cur)
        else:
            index[m] += 1
            free.append(m)
    return np.array(index, dtype=np.uint64)


def gale_shapley_rounds(mprefs, wprefs, threads: int = 1) -> np.ndarray:
    """Round-synchronous deferred acceptance with a global proposal batch.

    All free men propose once per round; women arbitrate after the whole
    batch lands.  The global round barrier is the point of comparison,
    not a performance recommendation.
    """
    n = len(mprefs)
    wrank = [[0] * n for _ in range(n)]
    for w, lst in enumerate(wprefs):
        for rank, m in enumerate(lst):
            wrank[w][m] = rank
    index = [0] * n
    holder = [None] * n
    free = list(range(n))
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        while free:
            if pool is not None:
                step = (len(free) + threads - 1) // threads
                chunks = [free[i : i + step] for i in range(0, len(free), step)]
                parts = pool.map(lambda ch: [(m, mprefs[m][index[m]]) for m in ch], chunks)
                proposals = [p for part in parts for p in part]
            else:
                proposals = [(m, mprefs[m][index[m]]) for m in free]
            rejected = []
            for m, w in proposals:  # arbitration is the round barrier
                cur = holder[w]
                if cur is None:
                    holder[w] = m
                elif wrank[w][m] < wrank[w][cur]:
                    holder[w] = m
                    index[cur] += 1
                    rejected.append(cur)
                else:
                    index[m] += 1
                    rejected.append(m)
            free = rejected
    finally:
        if pool is not None:
            pool.shutdown()
    return np.array(index, dtype=np.uint64)


def topo_sort_seq(graph: CsrGraph, durations) -> np.ndarray:
    """Kahn's algorithm computing earliest completion times."""
    n = graph.num_vertices
    succ = graph.successor_lists()
    n_pred = graph.in_degrees()
    completion = [0] * n
    ready = deque(j for j in range(n) if n_pred[j] == 0)
    seen = 0
    while ready:
        j = ready.popleft()
        seen += 1
        completion[j] = saturating_add(completion[j], durations[j])
        for c in succ[j]:
            if completion[j] > completion[c]:
                completion[c] = completion[j]  # running max over parents
            n_pred[c] -= 1
            if n_pred[c] == 0:
                ready.append(c)
    if seen != n:
        raise MismatchedInstanceError("prerequisite graph is cyclic")
    return np.array(completion, dtype=np.uint64)


def topo_levels_par(graph: CsrGraph, durations, threads: int = 2) -> np.ndarray:
    """Level-synchronous variant: one topological frontier per round."""
    n = graph.num_vertices
    succ = graph.successor_lists()
    n_pred = graph.in_degrees()
    preds = graph.reversed().successor_lists()
    completion = [0] * n
    frontier = [j for j in range(n) if n_pred[j] == 0]
    seen = 0
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        while frontier:
            seen += len(frontier)

            def settle(chunk):
                return [
                    (j, saturating_add(max((completion[p] for p in preds[j]), default=0), durations[j]))
                    for j in chunk
                ]

            if pool is not None and len(frontier) > 1:
                step = (len(frontier) + threads - 1) // threads
                chunks = [frontier[i : i + step] for i in range(0, len(frontier), step)]
                results = [r for part in pool.map(settle, chunks) for r in part]
            else:
                results = settle(frontier)
            nxt = []
            for j, done in results:
                completion[j] = done
            for j, _ in results:
                for c in succ[j]:
                    n_pred[c] -= 1
                    if n_pred[c] == 0:
                        nxt.append(c)
            frontier = nxt
    finally:
        if pool is not None:
            pool.shutdown()
    if seen != n:
        raise MismatchedInstanceError("prerequisite graph is cyclic")
    return np.array(completion, dtype=np.uint64)


def binary_tree_reduce(values, threads: int = 1) -> np.ndarray:
    """Pairwise (tree-shaped) saturating sum, optionally over thread slabs."""
    values = [int(v) for v in values]

    def tree_sum(xs):
        if not xs:
            return 0
        while len(xs) > 1:
            nxt = [
                saturating_add(xs[i], xs[i + 1]) if i + 1 < len(xs) else xs[i]
                for i in range(0, len(xs), 2)
            ]
            xs = nxt
        return xs[0]

    if threads > 1 and len(values) > threads:
        step = (len(values) + threads - 1) // threads
        slabs = [values[i : i + step] for i in range(0, len(values), step)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(tree_sum, slabs))
        total = tree_sum(partials)
    else:
        total = tree_sum(values)
    return np.array([total], dtype=np.uint64)


def floyd_warshall_par(graph: CsrGraph, threads: int = 1) -> np.ndarray:
    """Transitive closure; the inner sweep of each k is split across rows.

    Returns packed reachability words matching the closure adapter.
    Path lengths are >= 1: the diagonal starts empty.
    """
    n = graph.num_vertices
    reach = np.zeros((n, n), dtype=bool)
    reach[graph.sources(), graph.targets] = True
    if n:
        pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
        try:
            for k in range(n):
                rows = np.nonzero(reach[:, k])[0]
                if len(rows) == 0:
                    continue
                if pool is not None and len(rows) > 1:
                    step = (len(rows) + threads - 1) // threads
                    chunks = [rows[i : i + step] for i in range(0, len(rows), step)]
                    row_k = reach[k].copy()

                    def sweep(chunk, row_k=row_k):
                        reach[chunk] |= row_k

                    list(pool.map(sweep, chunks))
                else:
                    reach[rows] |= reach[k]
        finally:
            if pool is not None:
                pool.shutdown()
    return pack_reachability(reach)


def dp_row_knapsack(weights, values, capacity: int) -> np.ndarray:
    """Classic rolling-row 0/1 knapsack; returns the final table row."""
    row = np.zeros(capacity + 1, dtype=np.uint64)
    for w, v in zip(weights, values):
        w = int(w)
        if w <= capacity:
            np.maximum(row[w:], row[: capacity + 1 - w] + np.uint64(v), out=row[w:])
    return row


def blocking_pairs(mprefs, wprefs, proposal_indices) -> list:
    """Independent stability checker: all (man, woman) blocking pairs.

    Works directly from the preference tables; never consults any
    adapter predicate.
    """
    n = len(mprefs)
    mrank = [[0] * n for _ in range(n)]
    for m, lst in enumerate(mprefs):
        for rank, w in enumerate(lst):
            mrank[m][w] = rank
    wrank = [[0] * n for _ in range(n)]
    for w, lst in enumerate(wprefs):
        for rank, m in enumerate(lst):
            wrank[w][m] = rank
    wife = [mprefs[m][int(k)] for m, k in enumerate(proposal_indices)]
    husband = [0] * n
    for m, w in enumerate(wife):
        husband[w] = m
    pairs = []
    for m in range(n):
        for w in range(n):
            if w == wife[m]:
                continue
            if mrank[m][w] < mrank[m][wife[m]] and wrank[w][m] < wrank[w][husband[w]]:
                pairs.append((m, w))
    return pairs


def run_baseline(instance, baseline_id: str, threads: int = 1, delta=None) -> np.ndarray:
    """Run a baseline on a generated instance."""
    if baseline_id not in BASELINES:
        raise ValueError(f"unknown baseline {baseline_id!r}")
    if baseline_id in _SEQUENTIAL and threads != 1:
        raise ValueError(f"{baseline_id} is sequential; threads must be 1")

    def need(cls, kind=None):
        if not isinstance(instance, cls) or (kind and instance.kind != kind):
            raise MismatchedInstanceError(
                f"baseline {baseline_id!r} cannot run on {type(instance).__name__}"
            )

    if baseline_id == "dijkstra-heap":
        need(GraphInstance)
        return dijkstra_heap(instance.graph, instance.source)
    if baseline_id == "delta-stepping":
        need(GraphInstance)
        return delta_stepping(instance.graph, instance.source, delta=delta, threads=threads)
    if baseline_id == "bfs-seq":
        need(GraphInstance)
        return bfs_seq(instance.graph, instance.source)
    if baseline_id == "bfs-mt-queue":
        need(GraphInstance)
        return bfs_mt_queue(instance.graph, instance.source, threads=threads)
    if baseline_id == "gale-shapley-seq":
        need(PrefsInstance)
        return gale_shapley_seq(instance.mprefs, instance.wprefs)
    if baseline_id == "gale-shapley-rounds":
        need(PrefsInstance)
        return gale_shapley_rounds(instance.mprefs, instance.wprefs, threads=threads)
    if baseline_id == "topo-sort-seq":
        need(DagInstance)
        return topo_sort_seq(instance.graph, instance.durations)
    if baseline_id == "topo-levels-par":
        need(DagInstance)
        return topo_levels_par(instance.graph, instance.durations, threads=threads)
    if baseline_id == "binary-tree-reduce":
        need(ValuesInstance)
        return binary_tree_reduce(instance.values, threads=threads)
    if baseline_id == "floyd-warshall-par":
        need(GraphInstance)
        return floyd_warshall_par(instance.graph, threads=threads)
    if baseline_id == "dp-row-knapsack":
        need(KnapInstance)
        return dp_row_knapsack(instance.weights, instance.values, instance.capacity)
    raise ValueError(baseline_id)
