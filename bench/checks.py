"""Reference values for the benchmark's output checks.

Everything here is computed from the physics, independently of ``sparsetn``:
the r-regular Bethe-lattice cavity magnetization, the mean-field product-state
bound of the transverse-field Ising model, and a dense Pauli-Kronecker
Hamiltonian with an einsum contraction of a saved tensor network state.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def read_csv(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode())))


def check_graph(data: bytes, n: int, r: int) -> None:
    """The graph file holds a simple r-regular graph on n vertices."""
    g = json.loads(data)
    edges = [tuple(e) for e in g["edges"]]
    if g["n"] != n or len(edges) != n * r // 2 or len(set(edges)) != len(edges):
        raise AssertionError(f"graph has n={g['n']}, {len(edges)} edges; expected n={n}, r={r}")
    degree = np.zeros(n, dtype=int)
    for a, b in edges:
        if not 0 <= a < b < n:
            raise AssertionError(f"bad edge ({a}, {b})")
        degree[a] += 1
        degree[b] += 1
    if np.any(degree != r):
        raise AssertionError(f"graph is not {r}-regular")


def bethe_magnetization(beta: float, r: int, j: float = 1.0) -> float:
    """|<Z>| of the ferromagnetic Ising model on the r-regular Bethe lattice.

    The cavity field h solves h = (r - 1) atanh(tanh(beta j) tanh h); iterating
    from a large field reaches the ordered solution above beta_c =
    atanh(1 / (r - 1)) and decays to h = 0 below it.
    """
    t = math.tanh(beta * j)
    h = 10.0
    for _ in range(1_000_000):
        h_new = (r - 1) * math.atanh(t * math.tanh(h))
        done = abs(h_new - h) <= 1e-15
        h = h_new
        if done:
            break
    return abs(math.tanh(r * math.atanh(t * math.tanh(h))))


def tfim_mean_field_minimum(hx: float, r: int) -> float:
    """min over s in [-1, 1] of -(r/2)(1 - s^2) - hx s: the best product state."""
    s = min(1.0, abs(hx) / r)
    return -(r / 2) * (1.0 - s * s) - abs(hx) * s


def _site_op(op, a: int, n: int):
    return sp.kron(sp.kron(sp.identity(2**a), op), sp.identity(2 ** (n - a - 1)), format="csr")


def mixed_field_ising_matrix(n: int, edges, jzz: float, hx: float, hz: float):
    """H = jzz sum_edges Z Z + sum_sites (hx X + hz Z); vertex 0 most significant."""
    z = [_site_op(_Z, a, n) for a in range(n)]
    h = sp.csr_matrix((2**n, 2**n))
    for a, b in edges:
        h = h + jzz * (z[a] @ z[b])
    for a in range(n):
        h = h + hx * _site_op(_X, a, n) + hz * z[a]
    return h


def lowest_eigenpair(h):
    w, v = scipy.sparse.linalg.eigsh(h, k=1, which="SA", tol=0)
    return float(w[0]), v[:, 0] / np.linalg.norm(v[:, 0])


def state_vector(state_json: dict):
    """Contract a saved state (site axes: physical, then sorted neighbours)."""
    n = state_json["graph"]["n"]
    edges = [tuple(e) for e in state_json["graph"]["edges"]]
    nbrs = [sorted([b for a, b in edges if a == v] + [a for a, b in edges if b == v]) for v in range(n)]
    bond = {e: n + k for k, e in enumerate(edges)}
    operands = []
    for v, t in enumerate(state_json["site_tensors"]):
        arr = (np.asarray(t["re"]) + 1j * np.asarray(t["im"])).reshape(t["shape"])
        operands += [arr, [v] + [bond[(min(v, u), max(v, u))] for u in nbrs[v]]]
    psi = np.einsum(*operands, list(range(n)), optimize="greedy").reshape(-1)
    return psi / np.linalg.norm(psi)
