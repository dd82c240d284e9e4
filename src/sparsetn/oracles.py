"""Independent ground truth: exact diagonalization, Metropolis Monte Carlo,
exhaustive Gibbs enumeration, and statevector partial traces.

Everything here is deliberately independent of the belief-propagation path so
it can serve as an oracle for it. Basis convention throughout: vertex 0 is the
most significant qubit of the 2^n computational basis, matching
``states.to_statevector``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import numpy.random

from .graph import Graph
from .hamiltonian import Hamiltonian
from .states import TensorNetworkState, to_statevector

__all__ = [
    "EdResult",
    "McResult",
    "ClassicalExpectations",
    "hamiltonian_terms",
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


def _flip_diagonals(terms, n):
    """The sum of the terms as ``(fs, d)``, its nonzeros grouped by the bits they flip: H[i, i ^ fs[p]] = d[p, i].

    Each term is read once. For each local flip pattern ``fl`` whose band ``op[x, x ^ fl]`` has a nonzero
    entry, ``fl`` is spread onto the term's sites and ``band[local]`` is added to that pattern's diagonal,
    where ``local[i]`` is basis state i's bits on those sites (first site most significant). The terms are
    summed in order; ``d`` is real when every imaginary part is zero.
    """
    dim, diagonals = 1 << n, {}
    for sites, op in terms:
        sites, k, op = tuple(sites), len(sites), np.asarray(op, dtype=complex)
        if op.shape != (1 << k, 1 << k) or len({*sites} & {*range(n)}) < k:  # a repeated site is one qubit fewer
            raise ValueError(f"operator on sites {sites} has shape {op.shape}, not that of {k} qubits")
        place, bit = 1 << np.arange(k)[::-1], 1 << (n - 1 - np.array(sites, dtype=np.intp))
        local = (np.arange(dim)[:, None] & bit > 0) @ place
        x = np.arange(1 << k)
        for fl, f in enumerate((x[:, None] & place > 0) @ bit):
            band = op[x, x ^ fl]
            if band.any():
                diagonals[int(f)] = diagonals.get(int(f), 0) + band[local]
    fs = np.array(sorted(diagonals), dtype=np.intp)
    d = np.array([diagonals[f] for f in fs]).reshape(-1, dim)
    return fs, (d if np.any(d.imag) else d.real.copy())


def _apply(h, x):
    """H times each row of ``x``, one gather per flip pattern: (H v)[i] = sum_p d[p, i] v[i ^ fs[p]] for h = (fs, d)."""
    out, index = np.zeros(x.shape, dtype=np.result_type(x, h[1])), np.arange(x.shape[-1])
    for f, d in zip(*h):
        out += d * np.take(x, index ^ f, axis=-1)
    return out


def _block_lanczos(h, dim):
    """Two lowest Ritz pairs of block Lanczos (block size 2, fixed start, full reorthogonalization).

    Every fourth block the Ritz residuals ||b s|| are read from the block-tridiagonal ``t``: ``b`` couples
    the new block, ``s`` is a Ritz vector's last rows. A direction that vanishes, as when a zero or diagonal
    H exhausts the Krylov space, is replaced by a fresh random one with zero coupling.
    """
    rng = np.random.default_rng(0)
    size = min(dim, 1024)  # basis vectors at most; a run not converged by then fails the final residual check
    basis = np.empty((size, dim), dtype=h[1].dtype)  # rows not yet written cost no memory
    basis[:2] = np.linalg.qr(rng.standard_normal((dim, 2)))[0].T
    t = np.zeros((size, size), dtype=h[1].dtype)  # only its lower triangle is filled: all that eigh reads
    for k in range(0, size, 2):
        q = basis[:k + 2]
        reorth = lambda x: x - (q.conj() @ x.T).T @ q  # noqa: E731
        w = _apply(h, basis[k:k + 2])
        t[k:k + 2, k:k + 2] = basis[k:k + 2].conj() @ w.T
        lo = max(k - 2, 0)  # the three-term recurrence first, so the full pass removes only rounding errors
        scale, w = np.linalg.norm(w), reorth(w - t[k:k + 2, lo:k + 2].conj() @ basis[lo:k + 2])
        r, s, u = np.linalg.svd(w, full_matrices=False)
        b, dead = (r * s).T, s <= 1e-12 * scale  # w's rows = b.T @ u's rows
        if k % 8 == 6 or k + 2 == size:
            theta, vecs = np.linalg.eigh(t[:k + 2, :k + 2])
            if k + 2 == size or np.linalg.norm(b @ vecs[k:, :2], axis=0).max() <= 1e-10:  # 1e-9 is checked after
                return theta[:2], q.T @ vecs[:, :2]
        if dead.any():
            b[dead], u[dead] = 0.0, rng.standard_normal((dead.sum(), dim))
            fresh, upper = np.linalg.qr(reorth(u).T)
            u, b = fresh.T, upper @ b
        basis[k + 2:k + 4], t[k + 2:k + 4, k:k + 2] = u, b


def exact_diagonalize(h: Hamiltonian) -> EdResult:
    """Two lowest eigenpairs of the full Hamiltonian (n <= 14), with numpy only.

    H is held as one diagonal per flip pattern, built term by term, and solved by
    block Lanczos from a fixed start at every n. The pair is orthonormalized (a
    near-degenerate level can give a non-orthogonal pair) and its residuals are
    verified to 1e-9. A term that is not 2^k x 2^k on k distinct qubits raises ValueError.
    """
    n = h.graph.n
    if n > 14:
        raise ValueError("exact_diagonalize supports n <= 14")
    op = _flip_diagonals(hamiltonian_terms(h), n)
    w, v = _block_lanczos(op, 1 << n)
    q = np.linalg.qr(v)[0]
    res = float(np.linalg.norm(_apply(op, q.T).T - q * w, axis=0).max())
    if res > 1e-9:
        raise RuntimeError(f"eigenpair residual {res:.3e} exceeds 1e-9")
    return EdResult(e0=float(w[0]), e1=float(w[1]), v0=q[:, 0], v1=q[:, 1])


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


def _proposals(rng, high, count, rounds):
    """``rounds`` rounds of ``count`` proposals: sites in [0, high), then the uniforms that accept them.

    Two numpy calls, ``rng.integers(0, high, size=(rounds, count))`` then ``rng.random((rounds, count))``;
    numpy redraws a rejected half-word itself, so the chain needs no knowledge of the generator's words.
    """
    return rng.integers(0, high, size=(rounds, count)), rng.random((rounds, count))


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
    all-up configuration. Each site's local field (the sum of its neighbours'
    spins) is kept up to date, so a proposal is one table lookup. The spins of
    each sweep after ``burn_in`` are summed once per batch of ``batches``;
    sums of +-1 terms are exact, so the result is bit for bit that of
    per-sweep accumulation. The proposals are drawn per block of
    ``per = max(1, 2^13 // n)`` sweeps (the last block may be shorter) by two
    calls (``_proposals``), ``rng.integers(0, n, size=(rounds, n))`` then
    ``rng.random((rounds, n))``, so ``per`` is part of the definition of the
    chain's random stream. Batch means give the standard errors. Two
    magnetization estimators are reported:

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
    if not 2 <= batches <= n_meas:  # batch-means errors need two batches, and a batch one measurement sweep
        raise ValueError(f"need 2 <= batches <= {n_meas} measurement sweeps, got {batches}")
    rng = np.random.default_rng(seed)
    n = g.n
    nbrs = g.adjacency
    spins = [1] * n
    field = [len(nb) for nb in nbrs]
    # flipping a costs delta = 2 j k with k = s_a field[a]; thr[k] is exp(-beta delta), or 2.0 (above any u)
    # where delta <= 0. k runs 0..r, then -r..-1 so that a negative k indexes from the end
    r = max(map(len, nbrs))
    deltas = [2.0 * j * float(k) for k in (*range(r + 1), *range(-r, 0))]
    thr = [2.0 if d <= 0.0 else p for d, p in zip(deltas, np.exp(-beta * np.maximum(deltas, 0.0)).tolist())]
    edges = g.edges
    ea, eb = np.array(edges, dtype=np.int64).reshape(-1, 2).T

    site_batch = np.zeros((batches, n))
    signed_batch = np.zeros((batches, n))
    edge_batch = np.zeros((batches, len(edges)))
    batch_counts = np.bincount(np.arange(n_meas) * batches // n_meas)
    flips = 0
    held = [1]
    rows = []

    per = max(1, 2**13 // n)  # sweeps per block of about 2^13 proposals
    for start in range(0, sweeps, per):
        rounds = min(per, sweeps - start)
        sites_block, us_block = _proposals(rng, n, n, rounds)
        for sweep, sites, us in zip(range(start, start + rounds), sites_block.tolist(), us_block.tolist()):
            for a, u in zip(sites, us):
                s = spins[a]
                if u < thr[s * field[a]]:
                    spins[a] = -s
                    for k in nbrs[a]:
                        field[k] -= 2 * s
            m = sweep - burn_in
            if m >= 0:
                rows.append(spins[:])
                b = m * batches // n_meas
                if (m + 1) * batches // n_meas == b:
                    continue
                # batch b is complete; a sweep with M = 0 holds the last nonzero sign of M, starting from +1
                block, rows = np.array(rows), []
                held = list(accumulate(np.sign(block.sum(axis=1)).tolist(), lambda h, sign: sign or h, initial=held[-1]))
                flips += sum(x != y for x, y in zip(held, held[1:]))
                site_batch[b] = block.sum(axis=0)
                signed_batch[b] = np.array(held[1:]) @ block
                edge_batch[b] = (block[:, ea] * block[:, eb]).sum(axis=0)

    def _stats(batch):
        bm = batch / batch_counts[:, None]
        means = batch.sum(axis=0) / n_meas
        errors = bm.std(axis=0, ddof=1) / np.sqrt(batches)
        return means, errors

    site_means, site_errors = _stats(site_batch)
    signed_means, signed_errors = _stats(signed_batch)
    edge_means, edge_errors = _stats(edge_batch)
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
