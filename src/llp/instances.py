"""Deterministic instance generation and graph file loading.

Instances are reproducible from ``(spec, seed)`` alone: the generator
uses splitmix64, which is five lines of pure 64-bit arithmetic and hence
produces identical draws in any implementation language.  Uniform
integer draws use plain modulo reduction; the bias is negligible at the
ranges used here and accepting it keeps the draw sequence trivially
portable.

Spec grammar::

    chain:N
    randgraph:n=..,m=..[,wmax=..]
    dag:n=..,p=..
    closuredag:n=..,p=..
    sm:n=..
    knap:n=..,cap=..[,wmax=..][,vmax=..]
    reduce:n=..
    file:PATH

``chain:N`` is a directed path 0 -> 1 -> ... -> N-1 with unit weights
(N-1 arcs).  ``randgraph`` draws undirected edges stored as symmetric
arc pairs.  ``dag``/``closuredag`` draw each pair (i, j) with i < j
independently with probability p, in lexicographic order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .core import LlpError

_MASK = 0xFFFFFFFFFFFFFFFF


class ParseError(LlpError):
    """Instance spec string does not parse."""


class FormatError(LlpError):
    """Graph file is malformed; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SplitMix64:
    """splitmix64 PRNG; bit-exact across languages for equal seeds."""

    __slots__ = ("_state",)

    GOLDEN = 0x9E3779B97F4A7C15
    MIX1 = 0xBF58476D1CE4E5B9
    MIX2 = 0x94D049BB133111EB

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + self.GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * self.MIX1) & _MASK
        z = ((z ^ (z >> 27)) * self.MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform draw in [0, n); modulo reduction, bias accepted."""
        return self.next_u64() % n

    def uniform(self, lo: int, hi: int) -> int:
        """Uniform draw in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)

    def chance(self, p: float) -> bool:
        """True with probability p (53-bit resolution)."""
        return (self.next_u64() >> 11) * (2.0 ** -53) < p

    def shuffle(self, xs: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


class CsrGraph:
    """Directed graph in compressed sparse row form with uint64 weights."""

    __slots__ = ("num_vertices", "offsets", "targets", "weights")

    def __init__(self, num_vertices: int, offsets, targets, weights):
        self.num_vertices = num_vertices
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.uint64)
        if len(self.offsets) != num_vertices + 1:
            raise ValueError("offsets must have num_vertices + 1 entries")
        if self.offsets[-1] != len(self.targets):
            raise ValueError("last offset must equal the edge count")

    @property
    def num_edges(self) -> int:
        return len(self.targets)

    @staticmethod
    def _from_arcs(num_vertices: int, sources, targets, weights) -> "CsrGraph":
        """Build from parallel arc arrays, stably sorted by source."""
        order = np.argsort(sources, kind="stable")
        offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=num_vertices), out=offsets[1:])
        return CsrGraph(num_vertices, offsets, targets[order], weights[order])

    @staticmethod
    def from_edges(num_vertices: int, edges: List[Tuple[int, int, int]]) -> "CsrGraph":
        """Build from (u, v, w) arcs; duplicates are kept."""
        arr = np.asarray(edges, dtype=np.uint64).reshape(-1, 3)
        return CsrGraph._from_arcs(
            num_vertices, arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr[:, 2]
        )

    def sources(self) -> np.ndarray:
        """Each arc's source vertex, in row order."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64), np.diff(self.offsets))

    def arcs(self) -> List[Tuple[int, int, int]]:
        """All (u, v, w) arcs in row order."""
        return list(zip(self.sources().tolist(), self.targets.tolist(), self.weights.tolist()))

    def reversed(self) -> "CsrGraph":
        return CsrGraph._from_arcs(self.num_vertices, self.targets, self.sources(), self.weights)

    def symmetrized(self) -> "CsrGraph":
        """Every arc and its reverse: row u lists u's own arcs, then the reverses of arcs into u."""
        sources = self.sources()
        return CsrGraph._from_arcs(
            self.num_vertices,
            np.concatenate((sources, self.targets)),
            np.concatenate((self.targets, sources)),
            np.concatenate((self.weights, self.weights)),
        )

    def in_degrees(self) -> List[int]:
        """Each vertex's count of incoming arcs, duplicates included."""
        return np.bincount(self.targets, minlength=self.num_vertices).tolist()

    def successor_lists(self) -> List[List[int]]:
        """Each vertex's arc targets as a plain list, in CSR order."""
        offs = self.offsets.tolist()
        targets = self.targets.tolist()
        return [targets[offs[u] : offs[u + 1]] for u in range(self.num_vertices)]

    # Adjacency in plain Python lists for hot solver loops.
    def adjacency_lists(self) -> List[List[Tuple[int, int]]]:
        offs = self.offsets.tolist()
        pairs = list(zip(self.targets.tolist(), self.weights.tolist()))
        return [pairs[offs[u] : offs[u + 1]] for u in range(self.num_vertices)]


@dataclass
class GraphInstance:
    kind: str  # "graph" (weighted, sssp/bfs) or "digraph" (closure)
    graph: CsrGraph
    source: int = 0
    spec: str = ""


@dataclass
class DagInstance:
    kind: str
    graph: CsrGraph  # arcs i -> j are prerequisites of j
    durations: List[int]
    spec: str = ""


@dataclass
class PrefsInstance:
    kind: str
    mprefs: List[List[int]]
    wprefs: List[List[int]]
    spec: str = ""


@dataclass
class KnapInstance:
    kind: str
    weights: List[int]
    values: List[int]
    capacity: int
    spec: str = ""


@dataclass
class ValuesInstance:
    kind: str
    values: List[int]
    spec: str = ""


def _parse_params(body: str, spec: str) -> dict:
    params = {}
    if not body:
        return params
    for part in body.split(","):
        if "=" not in part:
            raise ParseError(f"bad parameter {part!r} in {spec!r}")
        key, _, val = part.partition("=")
        params[key.strip()] = val.strip()
    return params


def _int_param(params: dict, key: str, spec: str, default: Optional[int] = None) -> int:
    if key not in params:
        if default is None:
            raise ParseError(f"missing parameter {key!r} in {spec!r}")
        return default
    try:
        value = int(params.pop(key))
    except ValueError as exc:
        raise ParseError(f"parameter {key!r} in {spec!r} is not an integer") from exc
    if value <= 0:
        raise ParseError(f"parameter {key!r} in {spec!r} must be positive")
    return value


def _float_param(params: dict, key: str, spec: str) -> float:
    if key not in params:
        raise ParseError(f"missing parameter {key!r} in {spec!r}")
    try:
        value = float(params.pop(key))
    except ValueError as exc:
        raise ParseError(f"parameter {key!r} in {spec!r} is not a number") from exc
    if not 0.0 <= value <= 1.0:
        raise ParseError(f"parameter {key!r} in {spec!r} must be in [0, 1]")
    return value


def _dag_edges(n: int, p: float, rng: SplitMix64) -> List[Tuple[int, int, int]]:
    # One draw per (i, j) pair in lexicographic order.
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.chance(p):
                edges.append((i, j, 1))
    return edges


def _no_leftovers(params: dict, spec: str) -> None:
    if params:
        raise ParseError(f"unknown parameters {sorted(params)} in {spec!r}")


def generate(spec: str, seed: int):
    """Build the instance described by ``spec``, deterministic in (spec, seed)."""
    spec = spec.strip()
    name, sep, body = spec.partition(":")
    rng = SplitMix64(seed)

    if name == "chain":
        if not sep or not body.isdigit():
            raise ParseError(f"chain spec must be chain:N, got {spec!r}")
        n = int(body)
        if n <= 0:
            raise ParseError("chain length must be positive")
        edges = [(i, i + 1, 1) for i in range(n - 1)]
        return GraphInstance("graph", CsrGraph.from_edges(n, edges), source=0, spec=spec)

    if name == "file":
        if not body:
            raise ParseError("file spec must be file:PATH")
        fmt = "dimacs-gr" if body.endswith(".gr") else "edge-list"
        return GraphInstance("graph", load_graph(body, fmt), source=0, spec=spec)

    params = _parse_params(body, spec)

    if name == "randgraph":
        n = _int_param(params, "n", spec)
        m = _int_param(params, "m", spec)
        wmax = _int_param(params, "wmax", spec, default=100)
        _no_leftovers(params, spec)
        edges = []
        for _ in range(m):
            u = rng.below(n)
            v = rng.below(n)
            if u == v:
                v = (v + 1) % n  # deterministic self-loop avoidance
            w = rng.uniform(1, wmax)
            edges.append((u, v, w))
        graph = CsrGraph.from_edges(n, edges).symmetrized()
        return GraphInstance("graph", graph, source=0, spec=spec)

    if name in ("dag", "closuredag"):
        n = _int_param(params, "n", spec)
        if n > 1 and (n * (n - 1)) // 2 > 2**62:
            raise OverflowError("pair count exceeds addressable range")
        p = _float_param(params, "p", spec)
        _no_leftovers(params, spec)
        edges = _dag_edges(n, p, rng)
        graph = CsrGraph.from_edges(n, edges)
        if name == "closuredag":
            return GraphInstance("digraph", graph, source=0, spec=spec)
        durations = [rng.uniform(1, 80) for _ in range(n)]
        return DagInstance("dag", graph, durations, spec=spec)

    if name == "sm":
        n = _int_param(params, "n", spec)
        _no_leftovers(params, spec)
        mprefs = []
        for _ in range(n):
            lst = list(range(n))
            rng.shuffle(lst)
            mprefs.append(lst)
        wprefs = []
        for _ in range(n):
            lst = list(range(n))
            rng.shuffle(lst)
            wprefs.append(lst)
        return PrefsInstance("sm", mprefs, wprefs, spec=spec)

    if name == "knap":
        n = _int_param(params, "n", spec)
        cap = _int_param(params, "cap", spec)
        wmax = _int_param(params, "wmax", spec, default=max(1, cap // 2))
        vmax = _int_param(params, "vmax", spec, default=100)
        _no_leftovers(params, spec)
        weights = [rng.uniform(1, wmax) for _ in range(n)]
        values = [rng.uniform(1, vmax) for _ in range(n)]
        return KnapInstance("knap", weights, values, cap, spec=spec)

    if name == "reduce":
        n = _int_param(params, "n", spec)
        _no_leftovers(params, spec)
        values = [rng.below(2**32) for _ in range(n)]
        return ValuesInstance("reduce", values, spec=spec)

    raise ParseError(f"unknown instance kind {name!r}")


def example_graph() -> GraphInstance:
    """The 4-vertex undirected worked-example graph.

    Edges (weight): v0-v1 (2), v0-v3 (3), v1-v2 (3), v2-v3 (3); distances
    from v0 are [0, 2, 5, 3].
    """
    edges = [(0, 1, 2), (0, 3, 3), (1, 2, 3), (2, 3, 3)]
    graph = CsrGraph.from_edges(4, edges).symmetrized()
    return GraphInstance("graph", graph, source=0, spec="example4")


def load_graph(path: str, fmt: str = "edge-list", symmetrize: bool = False) -> CsrGraph:
    """Load a graph file.

    ``dimacs-gr``: header ``p sp n m`` then arcs ``a u v w`` (1-indexed).
    ``edge-list``: one ``u v [w]`` per line (0-indexed, default weight 1);
    the vertex count is inferred as max index + 1.  Duplicate edges are
    kept; ``symmetrize`` adds the reverse of every arc.
    """
    if fmt not in ("dimacs-gr", "edge-list"):
        raise ValueError(f"unknown graph format {fmt!r}")
    edges: List[Tuple[int, int, int]] = []
    declared_n: Optional[int] = None
    max_index = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(("c", "#", "%")):
                continue
            parts = line.split()
            if fmt == "dimacs-gr":
                if parts[0] == "p":
                    if len(parts) != 4 or parts[1] != "sp":
                        raise FormatError("bad problem line, expected 'p sp n m'", lineno)
                    declared_n = int(parts[2])
                    continue
                if parts[0] == "a":
                    if len(parts) != 4:
                        raise FormatError("bad arc line, expected 'a u v w'", lineno)
                    try:
                        u, v, w = int(parts[1]) - 1, int(parts[2]) - 1, int(parts[3])
                    except ValueError:
                        raise FormatError("non-integer arc field", lineno) from None
                    if u < 0 or v < 0:
                        raise FormatError("vertex ids are 1-indexed", lineno)
                    edges.append((u, v, w))
                    max_index = max(max_index, u, v)
                    continue
                raise FormatError(f"unknown record {parts[0]!r}", lineno)
            # edge-list
            if len(parts) not in (2, 3):
                raise FormatError("expected 'u v [w]'", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
                w = int(parts[2]) if len(parts) == 3 else 1
            except ValueError:
                raise FormatError("non-integer field", lineno) from None
            if u < 0 or v < 0:
                raise FormatError("negative vertex id", lineno)
            edges.append((u, v, w))
            max_index = max(max_index, u, v)
    n = declared_n if declared_n is not None else max_index + 1
    if max_index >= n:
        raise FormatError(f"vertex id {max_index} exceeds declared count {n}", 0)
    graph = CsrGraph.from_edges(n, edges)
    return graph.symmetrized() if symmetrize else graph


_SER_VERSION = 1


def instance_bytes(instance) -> bytes:
    """Canonical binary serialization (versioned; used to check determinism)."""
    out = [struct.pack("<BB", _SER_VERSION, _kind_code(instance.kind))]

    def pack_ints(xs):
        out.append(struct.pack("<q", len(xs)))
        out.append(np.asarray(xs, dtype="<u8").tobytes())

    if instance.kind in ("graph", "digraph"):
        g = instance.graph
        out.append(struct.pack("<qq", g.num_vertices, g.num_edges))
        pack_ints(g.offsets)
        pack_ints(g.targets)
        pack_ints(g.weights)
        out.append(struct.pack("<q", instance.source))
    elif instance.kind == "dag":
        g = instance.graph
        out.append(struct.pack("<qq", g.num_vertices, g.num_edges))
        pack_ints(g.offsets)
        pack_ints(g.targets)
        pack_ints(instance.durations)
    elif instance.kind == "sm":
        out.append(struct.pack("<q", len(instance.mprefs)))
        for lst in instance.mprefs:
            pack_ints(lst)
        for lst in instance.wprefs:
            pack_ints(lst)
    elif instance.kind == "knap":
        out.append(struct.pack("<qq", len(instance.weights), instance.capacity))
        pack_ints(instance.weights)
        pack_ints(instance.values)
    elif instance.kind == "reduce":
        pack_ints(instance.values)
    else:
        raise ValueError(f"unknown instance kind {instance.kind!r}")
    return b"".join(out)


def _kind_code(kind: str) -> int:
    return {"graph": 1, "digraph": 2, "dag": 3, "sm": 4, "knap": 5, "reduce": 6}[kind]
