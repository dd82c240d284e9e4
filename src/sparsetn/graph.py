"""Undirected simple graphs with a fixed neighbor order, plus diagnostics.

Vertices are integers ``0 .. n-1``. Every neighbor list is sorted ascending and
frozen at construction; site tensors elsewhere index their virtual legs by this
order, so it must never change. Directed edges are enumerated canonically:
undirected edges sorted as ``(a, b)`` with ``a < b``, each contributing the
ordered pair ``(a, b)`` immediately followed by ``(b, a)`` (so the reverse of
directed edge ``k`` is ``k ^ 1``).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import numpy.random

__all__ = [
    "Graph",
    "GraphDiagnostics",
    "random_regular",
    "build_tree",
    "cycle_graph",
    "grid_graph",
    "is_connected",
    "is_tree",
    "diameter",
    "count_cycles",
    "expansion_bruteforce",
    "compute_diagnostics",
    "graph_to_json",
    "graph_from_json",
    "save_graph",
    "load_graph",
]


class Graph:
    """Immutable undirected simple graph with deterministic edge enumeration."""

    def __init__(self, n: int, edges):
        if n <= 0:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        canon = []
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError(f"self-loop on vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range for n={n}")
            e = (a, b) if a < b else (b, a)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        canon.sort()
        self._n = n
        self._edges = tuple(canon)
        nbrs = [[] for _ in range(n)]
        for a, b in canon:
            nbrs[a].append(b)
            nbrs[b].append(a)
        self._adjacency = tuple(tuple(sorted(ns)) for ns in nbrs)
        directed = []
        for a, b in canon:
            directed.append((a, b))
            directed.append((b, a))
        self._directed_edges = tuple(directed)
        self._directed_index = {e: k for k, e in enumerate(directed)}
        # leg position of neighbor b within a's sorted neighbor list
        self._leg = {}
        for a in range(n):
            for pos, b in enumerate(self._adjacency[a]):
                self._leg[(a, b)] = pos

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple:
        """Undirected edges as sorted ``(a, b)`` pairs with ``a < b``."""
        return self._edges

    @property
    def adjacency(self) -> tuple:
        return self._adjacency

    @property
    def directed_edges(self) -> tuple:
        return self._directed_edges

    def neighbors(self, a: int) -> tuple:
        return self._adjacency[a]

    def degree(self, a: int) -> int:
        return len(self._adjacency[a])

    def leg(self, a: int, b: int) -> int:
        """Position of neighbor ``b`` in ``a``'s neighbor list (= tensor leg)."""
        return self._leg[(a, b)]

    def has_edge(self, a: int, b: int) -> bool:
        return (a, b) in self._leg

    def directed_edge_index(self, a: int, b: int) -> int:
        return self._directed_index[(a, b)]

    def reverse_edge_index(self, k: int) -> int:
        return k ^ 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._n == other._n and self._edges == other._edges

    def __hash__(self):
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={len(self._edges)})"


@dataclass
class GraphDiagnostics:
    degree_histogram: dict
    cycle_counts: dict
    connected: bool
    diameter: int | None  # None marks a disconnected graph
    expansion: Fraction | None = None


def random_regular(n: int, r: int, seed: int) -> Graph:
    """Draw a uniform-ish random simple r-regular graph on n vertices.

    Uses the pairing (configuration) model: n*r half-edge stubs are matched
    uniformly at random and the whole matching is rejected if it produces a
    self-loop or a repeated edge. Deterministic for a fixed seed.
    """
    if n <= 0 or r <= 0:
        raise ValueError("n and r must be positive")
    if r >= n:
        raise ValueError(f"infeasible: need r < n (got r={r}, n={n})")
    if (n * r) % 2 != 0:
        raise ValueError(f"infeasible: n*r must be even (got n={n}, r={r})")
    rng = np.random.default_rng(seed)
    base = np.repeat(np.arange(n), r)
    for _ in range(1000):
        stubs = base.copy()
        rng.shuffle(stubs)
        pairs = np.sort(stubs.reshape(-1, 2), axis=1)
        if np.all(pairs[:, 0] != pairs[:, 1]) and len(set(map(tuple, pairs.tolist()))) == len(pairs):
            return Graph(n, pairs.tolist())
    raise RuntimeError(f"random regular generation failed after 1000 attempts (n={n}, r={r})")


def build_tree(n: int, branching: int) -> Graph:
    """Complete tree with the given branching factor (1 gives a path)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if branching < 1:
        raise ValueError("branching must be >= 1")
    edges = []
    for child in range(1, n):
        parent = (child - 1) // branching
        edges.append((parent, child))
    return Graph(n, edges)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def grid_graph(rows: int, cols: int) -> Graph:
    """Open-boundary 2-d lattice; vertex (i, j) has id i*cols + j."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def _distances(g: Graph, start: int) -> list:
    """Breadth-first distance from ``start`` to every vertex, -1 where unreachable."""
    dist = [-1] * g.n
    dist[start] = 0
    q = deque([start])
    while q:
        v = q.popleft()
        for w in g.neighbors(v):
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


def is_connected(g: Graph) -> bool:
    return min(_distances(g, 0)) >= 0


def is_tree(g: Graph) -> bool:
    """True iff the graph is connected and has exactly n-1 edges."""
    return is_connected(g) and len(g.edges) == g.n - 1


def diameter(g: Graph) -> int | None:
    """Longest shortest path; None if the graph is disconnected."""
    if not is_connected(g):
        return None
    return max(max(_distances(g, v)) for v in range(g.n))


def count_cycles(g: Graph, max_len: int) -> dict:
    """Exact number of distinct simple cycles per length, up to ``max_len``.

    DFS path enumeration anchored at each cycle's smallest vertex; every cycle
    is generated once per traversal direction, so raw counts are halved.
    """
    if max_len > 12:
        raise ValueError("max_len above 12 is not supported (cost guard)")
    counts = {length: 0 for length in range(3, max_len + 1)}
    if max_len < 3:
        return counts
    adj = g.adjacency

    def dfs(start, v, length, visited):
        for w in adj[v]:
            if w == start and length >= 3:
                counts[length] += 1
            elif w > start and w not in visited and length < max_len:
                visited.add(w)
                dfs(start, w, length + 1, visited)
                visited.remove(w)

    for start in range(g.n):
        dfs(start, start, 1, {start})
    return {length: c // 2 for length, c in counts.items()}


def expansion_bruteforce(g: Graph) -> Fraction:
    """Exact edge expansion h(G): minimum boundary/|S| over nonempty S, |S| <= n/2.

    Scans all 2^n vertex subsets as the bit masks ``0 .. 2^n - 1`` (vertex v
    is in mask s iff bit v is set), building each mask's size and boundary
    from the mask without its top vertex v: v adds one to the size and
    deg(v) - 2 (its lower neighbours inside) to the boundary, the count read
    as the size of the mask's lower-neighbour bits. Guarded to n <= 20. The
    minimum is taken over float ratios, which is exact here: two different
    ratios with denominators <= 10 differ by at least 1/100.
    """
    n = g.n
    if n > 20:
        raise ValueError("expansion_bruteforce supports n <= 20")
    if n < 2:
        raise ValueError("expansion needs at least two vertices")
    size, boundary = np.zeros(1 << n, dtype=np.int64), np.zeros(1 << n, dtype=np.int64)
    for v, nbrs in enumerate(g.adjacency):
        lower = sum(1 << w for w in nbrs if w < v)
        size[1 << v:2 << v] = size[:1 << v] + 1
        boundary[1 << v:2 << v] = boundary[:1 << v] + len(nbrs) - 2 * size[np.arange(1 << v) & lower]
    size, boundary = size[1:], boundary[1:]
    i = np.argmin(np.where(size <= n // 2, boundary / size, np.inf))
    return Fraction(int(boundary[i]), int(size[i]))


def compute_diagnostics(g: Graph, max_cycle_len: int = 8, include_expansion: bool = False) -> GraphDiagnostics:
    hist = {}
    for v in range(g.n):
        d = g.degree(v)
        hist[d] = hist.get(d, 0) + 1
    expansion = None
    if include_expansion and 2 <= g.n <= 20:
        expansion = expansion_bruteforce(g)
    return GraphDiagnostics(
        degree_histogram=hist,
        cycle_counts=count_cycles(g, max_cycle_len),
        connected=is_connected(g),
        diameter=diameter(g),
        expansion=expansion,
    )


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[a, b] for a, b in g.edges]}


def graph_from_json(data: dict) -> Graph:
    """The graph of a ``{"n": ..., "edges": [[a, b], ...]}`` dict; ``n`` and every vertex id must be JSON integers."""
    if type(data) is not dict or "n" not in data or type(data.get("edges")) is not list:
        raise ValueError('graph JSON needs an object with "n" and an "edges" list')
    for e in data["edges"]:
        if type(e) is not list or len(e) != 2:
            raise ValueError(f"graph JSON edge {e!r} is not a 2-element list")
    for x in [data["n"]] + [v for e in data["edges"] for v in e]:
        if type(x) is not int:
            raise ValueError(f"graph JSON value {x!r} is not an integer")
    return Graph(data["n"], [tuple(e) for e in data["edges"]])


def save_graph(g: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(graph_to_json(g)))
        fh.write("\n")


def load_graph(path) -> Graph:
    with open(path) as fh:
        return graph_from_json(json.load(fh))
