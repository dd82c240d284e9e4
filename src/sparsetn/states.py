"""Tensor network states on a graph and their standard constructors.

A state stores one rank-(degree+1) tensor per vertex with axis 0 the physical
index and the remaining axes the virtual legs, ordered by the vertex's sorted
neighbor list. States are unnormalized by construction (observables are taken
as normalized ratios downstream); ``to_statevector`` returns a unit-norm dense
amplitude vector with vertex 0 as the most significant digit.
"""

from __future__ import annotations

import json

import numpy as np

from .graph import Graph, graph_from_json, graph_to_json
from .tensor import symmetric_factor, tensor_from_json, tensor_to_json

__all__ = [
    "TensorNetworkState",
    "generalized_graph_state",
    "square_root_state",
    "graph_state",
    "product_state",
    "random_state",
    "to_statevector",
    "state_to_json",
    "state_from_json",
    "save_state",
    "load_state",
]


class TensorNetworkState:
    """Per-vertex tensors tied to a graph; immutable by convention."""

    def __init__(self, graph: Graph, site_tensors, phys_dim: int):
        if len(site_tensors) != graph.n:
            raise ValueError("one site tensor per vertex required")
        tensors = []
        for v, t in enumerate(site_tensors):
            t = np.asarray(t, dtype=complex)
            if t.ndim != graph.degree(v) + 1:
                raise ValueError(f"site {v}: expected rank {graph.degree(v) + 1}, got {t.ndim}")
            if t.shape[0] != phys_dim:
                raise ValueError(f"site {v}: physical extent {t.shape[0]} != {phys_dim}")
            if not np.all(np.isfinite(t)):
                raise ValueError(f"site {v}: non-finite entries")
            if not np.any(t):
                raise ValueError(f"site {v}: tensor is identically zero")
            tensors.append(t)
        bond_dims = {}
        for a, b in graph.edges:
            chi_a = tensors[a].shape[1 + graph.leg(a, b)]
            chi_b = tensors[b].shape[1 + graph.leg(b, a)]
            if chi_a != chi_b:
                raise ValueError(f"edge ({a}, {b}): bond extents differ ({chi_a} vs {chi_b})")
            bond_dims[(a, b)] = chi_a
        self.graph = graph
        self.site_tensors = tuple(tensors)
        self.phys_dim = phys_dim
        self.bond_dims = bond_dims

    def bond_dim(self, a: int, b: int) -> int:
        return self.bond_dims[(min(a, b), max(a, b))]

    def with_site_tensors(self, site_tensors) -> "TensorNetworkState":
        return TensorNetworkState(self.graph, site_tensors, self.phys_dim)

    def __repr__(self) -> str:
        chis = sorted(set(self.bond_dims.values())) or [1]
        return f"TensorNetworkState(n={self.graph.n}, d={self.phys_dim}, chi={chis})"


def generalized_graph_state(g: Graph, m, factor=None) -> TensorNetworkState:
    """State with amplitudes proportional to the product of ``m[s_a, s_b]`` over edges.

    Built locally: each site tensor is the copy tensor on (physical + degree)
    indices with one factor of the edge matrix's symmetric square root absorbed
    into every virtual leg, so contracting any edge's shared index reproduces
    ``m``. The bond dimension equals the physical dimension.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("edge matrix must be square")
    if not np.allclose(m, m.T, rtol=1e-12, atol=1e-12):
        raise ValueError("edge matrix must be symmetric")
    d = m.shape[0]
    if factor is None:
        a = symmetric_factor(m)
    else:
        a = np.asarray(factor, dtype=complex)
        if not np.allclose(a @ a.T, m, rtol=0, atol=1e-10 * max(1.0, float(np.max(np.abs(m))))):
            raise ValueError("factor does not satisfy factor @ factor.T == m")
    tensors = []
    for v in range(g.n):
        r = g.degree(v)
        if r == 0:
            tensors.append(np.ones(d, dtype=complex))
            continue
        # T[s, k_1..k_r] = prod_l a[s, k_l]
        operands = []
        for l in range(r):
            operands.extend([a, [0, 1 + l]])
        tensors.append(np.einsum(*operands, list(range(r + 1))))
    return TensorNetworkState(g, tensors, d)


def square_root_state(g: Graph, beta: float, j: float = 1.0) -> TensorNetworkState:
    """Square-root state of the classical Ising model on ``g``.

    Amplitudes are exp((beta*j/2) * sum_edges s_a s_b) over spin configurations
    s = +/-1, with basis index 0 mapped to s = +1 so that Z expectation values
    equal classical magnetizations.
    """
    k = 0.5 * beta * j
    m = np.array([[np.exp(k), np.exp(-k)], [np.exp(-k), np.exp(k)]], dtype=complex)
    return generalized_graph_state(g, m)


def graph_state(g: Graph) -> TensorNetworkState:
    """Stabilizer graph state: controlled-Z on every edge applied to |+...+>."""
    m = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    return generalized_graph_state(g, m)


def product_state(g: Graph, local) -> TensorNetworkState:
    """Product state with the same single-site vector on every vertex (chi = 1)."""
    local = np.asarray(local, dtype=complex)
    if local.ndim != 1:
        raise ValueError("local state must be a vector")
    if not np.any(local):
        raise ValueError("local state must be nonzero")
    d = local.shape[0]
    tensors = [local.reshape((d,) + (1,) * g.degree(v)) for v in range(g.n)]
    return TensorNetworkState(g, tensors, d)


def random_state(g: Graph, chi: int, seed: int, phys_dim: int = 2) -> TensorNetworkState:
    """Seeded i.i.d. complex Gaussian site tensors, each scaled to unit norm."""
    if chi < 1:
        raise ValueError("chi must be >= 1")
    rng = np.random.default_rng(seed)
    tensors = []
    for v in range(g.n):
        shape = (phys_dim,) + (chi,) * g.degree(v)
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tensors.append(t / np.linalg.norm(t))
    return TensorNetworkState(g, tensors, phys_dim)


def to_statevector(state: TensorNetworkState):
    """Contract the full network into a unit-norm amplitude vector (n <= 16).

    Absorbs next the vertex with the most absorbed neighbors (lowest id on
    ties), so the open bonds, not the vertex labels, bound the memory.
    """
    g = state.graph
    n = g.n
    if n > 16:
        raise ValueError("to_statevector supports n <= 16")
    # axes of acc: the physical legs of ``done`` in order, then the open ``bonds`` (absorbed, waiting)
    acc, done, bonds = np.ones((), dtype=complex), [], []
    for _ in range(n):
        v = max((u for u in range(n) if u not in done), key=lambda u: (sum(w in done for w in g.neighbors(u)), -u))
        closing = [i for i, (_, w) in enumerate(bonds) if w == v]
        acc = np.tensordot(acc, state.site_tensors[v],
                           axes=([len(done) + i for i in closing], [1 + g.leg(v, bonds[i][0]) for i in closing]))
        bonds = [b for b in bonds if b[1] != v]
        acc = np.moveaxis(acc, len(done) + len(bonds), len(done))
        bonds += [(v, w) for w in g.neighbors(v) if w not in done]
        done.append(v)
    vec = acc.transpose(np.argsort(done)).reshape(-1)
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("state has zero norm")
    return vec / norm


def state_to_json(state: TensorNetworkState) -> dict:
    return {
        "graph": graph_to_json(state.graph),
        "phys_dim": state.phys_dim,
        "bond_dims": {f"{a}-{b}": chi for (a, b), chi in sorted(state.bond_dims.items())},
        "site_tensors": [tensor_to_json(t) for t in state.site_tensors],
    }


def state_from_json(data: dict) -> TensorNetworkState:
    g = graph_from_json(data["graph"])
    tensors = [tensor_from_json(t) for t in data["site_tensors"]]
    return TensorNetworkState(g, tensors, int(data["phys_dim"]))


def save_state(state: TensorNetworkState, path) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_json(state), fh)
        fh.write("\n")


def load_state(path) -> TensorNetworkState:
    with open(path) as fh:
        return state_from_json(json.load(fh))
