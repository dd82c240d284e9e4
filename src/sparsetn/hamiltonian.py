"""Graph-local spin Hamiltonians: two-site edge terms plus one-site vertex terms.

Edge term matrices act on the ordered pair (a, b) with a < b and the smaller id
as the left (most significant) tensor factor, matching the reduced-density-
matrix basis convention used by the contraction engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph
from .tensor import PAULI_X, PAULI_Z

__all__ = [
    "Hamiltonian",
    "mixed_field_ising",
    "transverse_field_ising",
    "sqrt_parent_hamiltonian",
    "MODELS",
    "build_model",
]


@dataclass(frozen=True)
class Hamiltonian:
    graph: Graph
    edge_terms: dict = field(default_factory=dict)  # (a, b) with a < b -> d^2 x d^2 Hermitian
    vertex_terms: dict = field(default_factory=dict)  # a -> d x d Hermitian
    phys_dim: int = 2

    def __post_init__(self):
        d = self.phys_dim
        for e in self.graph.edges:
            if e not in self.edge_terms:
                raise ValueError(f"missing edge term for {e}")
        for (a, b), h in self.edge_terms.items():
            if not self.graph.has_edge(a, b) or a >= b:
                raise ValueError(f"edge term key ({a}, {b}) is not a sorted graph edge")
            h = np.asarray(h)
            if h.shape != (d * d, d * d):
                raise ValueError(f"edge term ({a}, {b}) must be {d * d}x{d * d}")
            if not np.allclose(h, h.conj().T, rtol=0, atol=1e-12):
                raise ValueError(f"edge term ({a}, {b}) is not Hermitian within 1e-12")
        for a, h in self.vertex_terms.items():
            if not isinstance(a, (int, np.integer)) or not 0 <= a < self.graph.n:
                raise ValueError(f"vertex term key {a} is not a vertex of the graph")
            h = np.asarray(h)
            if h.shape != (d, d):
                raise ValueError(f"vertex term {a} must be {d}x{d}")
            if not np.allclose(h, h.conj().T, rtol=0, atol=1e-12):
                raise ValueError(f"vertex term {a} is not Hermitian within 1e-12")


def mixed_field_ising(g: Graph, jzz: float, hx: float, hz: float) -> Hamiltonian:
    """H = sum_edges jzz * Z Z + sum_sites (hx * X + hz * Z)."""
    zz = jzz * np.kron(PAULI_Z, PAULI_Z)
    onsite = hx * PAULI_X + hz * PAULI_Z
    return Hamiltonian(
        graph=g,
        edge_terms={e: zz.copy() for e in g.edges},
        vertex_terms={a: onsite.copy() for a in range(g.n)},
    )


def transverse_field_ising(g: Graph, hx: float) -> Hamiltonian:
    """Ferromagnetic quantum Ising model H = -sum_edges Z Z - hx * sum_sites X."""
    zz = -np.kron(PAULI_Z, PAULI_Z)
    onsite = -hx * PAULI_X
    return Hamiltonian(
        graph=g,
        edge_terms={e: zz.copy() for e in g.edges},
        vertex_terms={a: onsite.copy() for a in range(g.n)},
    )


def sqrt_parent_hamiltonian(g: Graph, beta: float, j: float = 1.0):
    """Star-supported terms whose frustration-free ground state is the square-root state.

    Returns a list of ``(sites, matrix)`` pairs, one per vertex ``a`` with
    ``sites = (a, *sorted(neighbors))``: the operator ``-X_a + exp(-beta*j*
    Z_a * sum_b Z_b)`` on that star, with the exponential of the diagonal part
    taken exactly. Each term is (r+1)-body, so this is intended for the exact-
    diagonalization oracle path rather than the two-body variational machinery.
    """
    terms = []
    for a in range(g.n):
        nbrs = g.neighbors(a)
        r = len(nbrs)
        # Z eigenvalue of each site of (a, b_1..b_r) in each product basis state; column 0 is site a
        spins = 1 - 2 * ((np.arange(2 ** (r + 1))[:, None] >> np.arange(r, -1, -1)) & 1)
        expo = np.diag(np.exp(-beta * j * spins[:, 0] * spins[:, 1:].sum(axis=1))).astype(complex)
        xa = np.kron(PAULI_X, np.eye(2**r, dtype=complex))
        terms.append(((a,) + tuple(nbrs), -xa + expo))
    return terms


# model name -> its builder and the names of the builder's parameters after the graph
MODELS = {"mixed_field_ising": (mixed_field_ising, ("jzz", "hx", "hz")), "tfim": (transverse_field_ising, ("hx",))}


def build_model(name: str, g: Graph, params: dict) -> Hamiltonian:
    """The model ``name`` on ``g``, its parameters read from ``params`` by name."""
    if name not in MODELS:
        raise ValueError(f"unknown model '{name}'")
    builder, keys = MODELS[name]
    return builder(g, *(float(params[k]) for k in keys))

