"""Independent ground truth: exact diagonalization, Metropolis Monte Carlo,
exhaustive Gibbs enumeration, and statevector partial traces.

Everything here is deliberately independent of the belief-propagation path so
it can serve as an oracle for it. Basis convention throughout: vertex 0 is the
most significant qubit of the 2^n computational basis, matching
``states.to_statevector``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from .graph import Graph
from .hamiltonian import Hamiltonian
from .states import TensorNetworkState, to_statevector

__all__ = [
    "EdResult",
    "McResult",
    "ClassicalExpectations",
    "hamiltonian_terms",
    "term_list_matrix",
    "hamiltonian_matrix",
    "exact_diagonalize",
    "fidelity",
    "ground_space_overlap",
    "classical_ising_mc",
    "classical_exact_expectations",
    "statevector_rdm",
]


@dataclass
class EdResult:
    e0: float
    e1: float
    v0: np.ndarray
    v1: np.ndarray


@dataclass
class McResult:
    site_means: np.ndarray
    site_errors: np.ndarray
    mean_abs_z: float
    mean_abs_z_error: float
    signed_site_means: np.ndarray
    signed_site_errors: np.ndarray
    mean_signed_z: float
    mean_signed_z_error: float
    sector_flips: int
    edges: tuple
    edge_correlations: np.ndarray
    edge_errors: np.ndarray
    sweeps: int
    burn_in: int
    seed: int
    batches: int


@dataclass
class ClassicalExpectations:
    z: np.ndarray
    x: np.ndarray


def hamiltonian_terms(h: Hamiltonian):
    """Flatten a two-body Hamiltonian into (sites, matrix) pairs."""
    terms = [((a, b), np.asarray(m, dtype=complex)) for (a, b), m in sorted(h.edge_terms.items())]
    terms += [((a,), np.asarray(m, dtype=complex)) for a, m in sorted(h.vertex_terms.items())]
    return terms


def _embed(op, sites, n):
    """Place a d^k x d^k operator on the given qubits of an n-qubit register."""
    k = len(sites)
    others = [v for v in range(n) if v not in sites]
    n_rest = 1 << (n - k)
    rest = np.zeros(n_rest, dtype=np.int64)
    idx = np.arange(n_rest, dtype=np.int64)
    for t, v in enumerate(others):
        rest |= ((idx >> (len(others) - 1 - t)) & 1) << (n - 1 - v)
    place = np.zeros(1 << k, dtype=np.int64)
    pidx = np.arange(1 << k, dtype=np.int64)
    for t, v in enumerate(sites):
        place |= ((pidx >> (k - 1 - t)) & 1) << (n - 1 - v)
    opd = np.asarray(op, dtype=complex)
    rows, cols, vals = [], [], []
    for pp in range(1 << k):
        for p in range(1 << k):
            val = opd[pp, p]
            if val == 0:
                continue
            rows.append(rest + place[pp])
            cols.append(rest + place[p])
            vals.append(np.full(n_rest, val))
    dim = 1 << n
    if not rows:
        return sp.csr_matrix((dim, dim), dtype=complex)
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    ).tocsr()


def term_list_matrix(terms, n) -> sp.csr_matrix:
    """Sparse matrix of a sum of local terms given as (sites, matrix) pairs."""
    dim = 1 << n
    mat = sp.csr_matrix((dim, dim), dtype=complex)
    for sites, op in terms:
        mat = mat + _embed(op, tuple(sites), n)
    return mat


def hamiltonian_matrix(h: Hamiltonian) -> sp.csr_matrix:
    return term_list_matrix(hamiltonian_terms(h), h.graph.n)


def exact_diagonalize(h: Hamiltonian) -> EdResult:
    """Two lowest eigenpairs of the full Hamiltonian matrix (n <= 14).

    Dense Hermitian eigendecomposition up to n = 12; a Lanczos solve from a
    fixed start vector at n = 13, 14. Either pair is orthonormalized (Lanczos
    can return a non-orthogonal pair inside a near-degenerate level) and its
    residuals are verified to 1e-9.
    """
    n = h.graph.n
    if n > 14:
        raise ValueError("exact_diagonalize supports n <= 14")
    mat = hamiltonian_matrix(h)
    if n <= 12:
        w, v = np.linalg.eigh(mat.toarray())
    else:
        start = np.random.default_rng(0).standard_normal(1 << n)
        w, v = scipy.sparse.linalg.eigsh(mat, k=2, which="SA", tol=0, v0=start)
    order = np.argsort(w, kind="stable")[:2]
    q = np.linalg.qr(v[:, order])[0]
    res = float(np.linalg.norm(mat @ q - q * w[order], axis=0).max())
    if res > 1e-9:
        raise RuntimeError(f"eigenpair residual {res:.3e} exceeds 1e-9")
    return EdResult(e0=float(w[order[0]]), e1=float(w[order[1]]), v0=q[:, 0], v1=q[:, 1])


def fidelity(state: TensorNetworkState, v) -> float:
    """|<v|psi>|^2 with both vectors normalized; invariant under global phase."""
    v = np.asarray(v, dtype=complex)
    psi = to_statevector(state)
    if v.shape != psi.shape:
        raise ValueError("statevector dimensions do not match")
    v = v / np.linalg.norm(v)
    return float(abs(np.vdot(v, psi)) ** 2)


def ground_space_overlap(state: TensorNetworkState, ed: EdResult) -> float:
    """Weight of the state inside the span of the two lowest eigenvectors."""
    psi = to_statevector(state)
    return float(abs(np.vdot(ed.v0, psi)) ** 2 + abs(np.vdot(ed.v1, psi)) ** 2)


def classical_ising_mc(
    g: Graph,
    beta: float,
    j: float = 1.0,
    sweeps: int = 6000,
    burn_in: int = 1000,
    seed: int = 0,
    batches: int = 50,
) -> McResult:
    """Single-spin-flip Metropolis sampling of the classical Ising model.

    One sweep proposes n flips at uniformly random sites, starting from the
    all-up configuration. Measurements are taken every sweep after
    ``burn_in``; standard errors come from batch means over ``batches``
    batches. Two magnetization estimators are reported:

    - plain per-site time averages <s_a>, which estimate the symmetric Gibbs
      average (zero in the ordered phase once the chain mixes between the two
      magnetization sectors);
    - sign-referenced averages <s_a * sign(M)> with M the instantaneous total
      magnetization, which are invariant under sector hops and estimate the
      spontaneous (sector) magnetization when the system is ordered.

    ``sector_flips`` counts sign changes of M across the measured window and
    diagnoses which regime the chain was in. The error attached to each
    site-averaged quantity is the mean per-site standard error (the sign-free
    bias of |.| is common to all sites, so averaging over sites does not
    shrink it).
    """
    if burn_in < 0 or sweeps <= burn_in:
        raise ValueError("need sweeps > burn_in >= 0")
    n_meas = sweeps - burn_in
    if n_meas < batches:
        raise ValueError("need at least one measurement sweep per batch")
    rng = np.random.default_rng(seed)
    n = g.n
    nbrs = [np.array(g.neighbors(v), dtype=np.int64) for v in range(n)]
    spins = np.ones(n)
    edges = g.edges
    ea = np.array([a for a, _ in edges], dtype=np.int64)
    eb = np.array([b for _, b in edges], dtype=np.int64)

    site_batch = np.zeros((batches, n))
    signed_batch = np.zeros((batches, n))
    edge_batch = np.zeros((batches, len(edges)))
    batch_counts = np.zeros(batches, dtype=np.int64)
    flips = 0
    last_sign = 1.0

    for sweep in range(sweeps):
        sites = rng.integers(0, n, size=n)
        us = rng.random(size=n)
        for a, u in zip(sites, us):
            delta = 2.0 * j * spins[a] * spins[nbrs[a]].sum()
            if delta <= 0.0 or u < np.exp(-beta * delta):
                spins[a] = -spins[a]
        m = sweep - burn_in
        if m >= 0:
            sign = np.sign(spins.sum())
            if sign != 0.0 and sign != last_sign:
                flips += 1
                last_sign = sign
            b = m * batches // n_meas
            site_batch[b] += spins
            signed_batch[b] += spins * (sign if sign != 0.0 else last_sign)
            if len(edges):
                edge_batch[b] += spins[ea] * spins[eb]
            batch_counts[b] += 1

    def _stats(batch):
        bm = batch / batch_counts[:, None]
        means = batch.sum(axis=0) / n_meas
        errors = bm.std(axis=0, ddof=1) / np.sqrt(batches)
        return means, errors

    site_means, site_errors = _stats(site_batch)
    signed_means, signed_errors = _stats(signed_batch)
    if len(edges):
        edge_means, edge_errors = _stats(edge_batch)
    else:
        edge_means = np.zeros(0)
        edge_errors = np.zeros(0)
    return McResult(
        site_means=site_means,
        site_errors=site_errors,
        mean_abs_z=float(np.mean(np.abs(site_means))),
        mean_abs_z_error=float(np.mean(site_errors)),
        signed_site_means=signed_means,
        signed_site_errors=signed_errors,
        mean_signed_z=float(np.mean(np.abs(signed_means))),
        mean_signed_z_error=float(np.mean(signed_errors)),
        sector_flips=flips,
        edges=edges,
        edge_correlations=edge_means,
        edge_errors=edge_errors,
        sweeps=sweeps,
        burn_in=burn_in,
        seed=seed,
        batches=batches,
    )


def classical_exact_expectations(g: Graph, beta: float, j: float = 1.0) -> ClassicalExpectations:
    """Exhaustive 2^n Gibbs averages for the square-root state (n <= 16).

    ``z[a]`` is the classical magnetization <s_a>; ``x[a]`` is the spin-flip
    overlap sum_s w(s) w(s with spin a flipped) / sum_s w(s)^2 with
    w(s) = exp((beta j / 2) sum_edges s_a s_b), i.e. the X matrix element in
    the square-root state.
    """
    n = g.n
    if n > 16:
        raise ValueError("classical_exact_expectations supports n <= 16")
    idx = np.arange(1 << n, dtype=np.int64)
    spins = 1.0 - 2.0 * ((idx[:, None] >> (n - 1 - np.arange(n))) & 1)
    bond = np.zeros(1 << n)
    for a, b in g.edges:
        bond += spins[:, a] * spins[:, b]
    # subtract the max exponent before exponentiating to stay in range
    expo = 0.5 * beta * j * bond
    w = np.exp(expo - expo.max())
    w2 = w * w
    z_norm = w2.sum()
    z = (spins * w2[:, None]).sum(axis=0) / z_norm
    x = np.zeros(n)
    for a in range(n):
        flipped = idx ^ (1 << (n - 1 - a))
        x[a] = float((w * w[flipped]).sum() / z_norm)
    return ClassicalExpectations(z=z, x=x)


def statevector_rdm(v, n: int, sites):
    """Partial trace of |v><v| onto ``sites`` (first site most significant)."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != 1 << n:
        raise ValueError("statevector length does not match qubit count")
    v = v / np.linalg.norm(v)
    sites = tuple(int(s) for s in sites)
    k = len(sites)
    t = v.reshape((2,) * n)
    t = np.moveaxis(t, sites, range(k))
    m = t.reshape(1 << k, -1)
    return m @ m.conj().T
