"""Plain-einsum reference kernels for the contraction layer, and the sparse Hamiltonian reference.

These are the package's original message, reduced-density-matrix, energy and
gradient kernels, kept verbatim in logic: every quantity is one labelled
``np.einsum`` (or a labelled ``tensordot`` loop) over the site tensors and
messages, with no shared intermediate. ``test_env`` checks the shared
dressed-site-tensor layer against them. ``init_messages`` is the dict-building
message initialization that ``test_messages`` pins the message stack to.

``term_list_matrix`` and ``hamiltonian_matrix`` build a Hamiltonian as a scipy
CSR matrix from the same flip-grouped nonzeros that ``oracles`` applies
matrix-free, so the tests can check exact diagonalization, energies and
parent Hamiltonians against an explicit matrix. They are the tests' only
scipy code; the package itself depends on numpy alone.
"""

import numpy as np
import scipy.sparse

from sparsetn.oracles import _flip_diagonals, hamiltonian_terms


def term_list_matrix(terms, n) -> scipy.sparse.csr_matrix:
    """Sparse matrix of a sum of local terms given as (sites, matrix) pairs."""
    fs, d = _flip_diagonals(terms, n)
    rows = np.broadcast_to(np.arange(1 << n), d.shape)
    return scipy.sparse.csr_matrix((d.ravel(), (rows.ravel(), (rows ^ fs[:, None]).ravel())), shape=(1 << n, 1 << n))


def hamiltonian_matrix(h) -> scipy.sparse.csr_matrix:
    return term_list_matrix(hamiltonian_terms(h), h.graph.n)


def init_messages(state, init="identity", seed=0):
    """One PSD unit-trace matrix per directed edge, in a dict keyed by directed edge in directed-edge order."""
    edges = state.graph.directed_edges
    chis = [state.bond_dim(a, b) for a, b in edges]
    if init == "identity":
        return {e: np.eye(chi, dtype=complex) / chi for e, chi in zip(edges, chis)}
    sizes = [2 * chi * chi for chi in chis]
    z = np.split(np.random.default_rng(seed).standard_normal(sum(sizes)), np.cumsum(sizes)[:-1])
    msgs = {}
    for chi in set(chis):
        idx = [i for i, c in enumerate(chis) if c == chi]
        gmat = np.array([z[i] for i in idx]).reshape(-1, 2, chi, chi)
        gmat = gmat[:, 0] + 1j * gmat[:, 1]
        m = gmat.conj().transpose(0, 2, 1) @ gmat
        msgs.update(zip(idx, m / np.trace(m, axis1=1, axis2=2).real[:, None, None]))
    return {e: msgs[i] for i, e in enumerate(edges)}


def raw_out_message(t, in_msgs, skip):
    """Unnormalized update: contract ket, bra and all incoming messages but one."""
    r = t.ndim - 1
    operands = [t, [0] + [2 + 2 * l for l in range(r)], t.conj(), [0] + [3 + 2 * l for l in range(r)]]
    for l in range(r):
        if l == skip:
            continue
        operands.extend([in_msgs[l], [2 + 2 * l, 3 + 2 * l]])
    return np.einsum(*operands, [2 + 2 * skip, 3 + 2 * skip])


def site_gate(t, in_msgs, skips):
    """Doubled site tensor with messages absorbed on all legs except ``skips``."""
    r = t.ndim - 1
    operands = [t, [0] + [2 + 2 * l for l in range(r)], t.conj(), [1] + [3 + 2 * l for l in range(r)]]
    skipset = set(skips)
    for l in range(r):
        if l in skipset:
            continue
        operands.extend([in_msgs[l], [2 + 2 * l, 3 + 2 * l]])
    out = [0, 1]
    for l in skips:
        out.extend([2 + 2 * l, 3 + 2 * l])
    return np.einsum(*operands, out)


def bp_step(state, msgs, damping=0.0):
    g = state.graph
    new_msgs = {}
    for i in range(g.n):
        t = state.site_tensors[i]
        nbrs = g.neighbors(i)
        in_msgs = [msgs[(k, i)] for k in nbrs]
        for pos, j in enumerate(nbrs):
            raw = raw_out_message(t, in_msgs, pos)
            raw = 0.5 * (raw + raw.conj().T)
            new = raw / np.trace(raw).real
            if damping:
                new = (1.0 - damping) * new + damping * msgs[(i, j)]
            new_msgs[(i, j)] = new
    return new_msgs


def rdm(state, msgs, sites):
    """Unit-trace density matrix on a connected path of 1-3 sites."""
    g = state.graph
    inset = set(sites)
    acc = None
    labels = []
    for s in sites:
        nbrs = g.neighbors(s)
        skips = [pos for pos, u in enumerate(nbrs) if u in inset]
        in_msgs = [None if u in inset else msgs[(u, s)] for u in nbrs]
        gate = site_gate(state.site_tensors[s], in_msgs, skips)
        g_labels = [("kp", s), ("bp", s)]
        for pos in skips:
            u = nbrs[pos]
            e = (min(s, u), max(s, u))
            g_labels.extend([("kv", e), ("bv", e)])
        if acc is None:
            acc, labels = gate, g_labels
        else:
            pa, pt = [], []
            for pos, lab in enumerate(g_labels):
                if lab in labels:
                    pa.append(labels.index(lab))
                    pt.append(pos)
            acc = np.tensordot(acc, gate, axes=(pa, pt))
            drop_a, drop_t = set(pa), set(pt)
            labels = [lab for i, lab in enumerate(labels) if i not in drop_a] + [
                lab for i, lab in enumerate(g_labels) if i not in drop_t
            ]
    perm = [labels.index(("kp", s)) for s in sites] + [labels.index(("bp", s)) for s in sites]
    d = state.phys_dim
    k = len(sites)
    mat = np.transpose(acc, perm).reshape(d**k, d**k)
    mat = 0.5 * (mat + mat.conj().T)
    return mat / np.trace(mat).real


def run_bp_deltas(state, msgs, steps):
    """Per-step (max edge-RDM trace distance, max message change) of synchronous BP."""

    def trace_distance(m1, m2):
        return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(m1 - m2))))

    edges = state.graph.edges
    prev = {e: rdm(state, msgs, e) for e in edges}
    out = []
    for _ in range(steps):
        new_msgs = bp_step(state, msgs)
        msg_delta = max((float(np.linalg.norm(new - msgs[key])) for key, new in new_msgs.items()), default=0.0)
        msgs = new_msgs
        cur = {e: rdm(state, msgs, e) for e in edges}
        out.append((max((trace_distance(prev[e], cur[e]) for e in edges), default=0.0), msg_delta))
        prev = cur
    return out


def _gather(state, msgs):
    g = state.graph
    gates = {}
    raws = {}
    rho1 = {}
    for i in range(g.n):
        t = state.site_tensors[i]
        nbrs = g.neighbors(i)
        in_msgs = [msgs[(k, i)] for k in nbrs]
        for pos, jv in enumerate(nbrs):
            gate = site_gate(t, in_msgs, (pos,))
            gates[(i, jv)] = gate
            raws[(i, jv)] = np.einsum(gate, [0, 0, 2, 3], [2, 3])
        rho1[i] = site_gate(t, in_msgs, ())
    return gates, raws, rho1


def _edge_value(gates, raws, h4, a, b):
    n_val = complex(
        np.einsum(gates[(a, b)], [0, 1, 4, 5], gates[(b, a)], [2, 3, 4, 5], h4, [1, 3, 0, 2], [])
    )
    d_val = complex(np.einsum(raws[(a, b)], [0, 1], raws[(b, a)], [0, 1], []))
    return n_val.real, d_val.real


def _vertex_value(rho1, h2, a):
    n_val = complex(np.einsum(rho1[a], [0, 1], h2, [1, 0], []))
    d_val = complex(np.trace(rho1[a]))
    return n_val.real, d_val.real


def energy_and_gradient(state, msgs, h):
    """Fixed-message energy and its gradient by the quotient rule, term by term."""
    g = state.graph
    d = state.phys_dim
    gates, raws, rho1 = _gather(state, msgs)
    grads = [np.zeros_like(t) for t in state.site_tensors]
    total = 0.0

    def leg_msgs(i):
        return [msgs[(k, i)] for k in g.neighbors(i)]

    for (a, b), hm in h.edge_terms.items():
        h4 = np.asarray(hm, dtype=complex).reshape(d, d, d, d)
        n_val, d_val = _edge_value(gates, raws, h4, a, b)
        total += n_val / d_val
        for site, other, hsub in ((a, b, [1, 49, 0, 48]), (b, a, [49, 1, 48, 0])):
            t = state.site_tensors[site]
            r = t.ndim - 1
            ly = g.leg(site, other)
            ms = leg_msgs(site)
            ops_n = [t, [0] + [2 + 2 * l for l in range(r)]]
            ops_d = [t, [0] + [2 + 2 * l for l in range(r)]]
            for l in range(r):
                if l == ly:
                    continue
                ops_n.extend([ms[l], [2 + 2 * l, 3 + 2 * l]])
                ops_d.extend([ms[l], [2 + 2 * l, 3 + 2 * l]])
            ops_n.extend([gates[(other, site)], [48, 49, 2 + 2 * ly, 3 + 2 * ly], h4, hsub])
            ops_d.extend([raws[(other, site)], [2 + 2 * ly, 3 + 2 * ly]])
            out_n = [1] + [3 + 2 * l for l in range(r)]
            out_d = [0] + [3 + 2 * l for l in range(r)]
            env_n = np.einsum(*ops_n, out_n)
            env_d = np.einsum(*ops_d, out_d)
            grads[site] += (env_n * d_val - n_val * env_d) / d_val**2

    for a, hm in h.vertex_terms.items():
        h2 = np.asarray(hm, dtype=complex)
        n_val, d_val = _vertex_value(rho1, h2, a)
        total += n_val / d_val
        t = state.site_tensors[a]
        r = t.ndim - 1
        ms = leg_msgs(a)
        ops = [t, [0] + [2 + 2 * l for l in range(r)]]
        for l in range(r):
            ops.extend([ms[l], [2 + 2 * l, 3 + 2 * l]])
        env_n = np.einsum(*(ops + [h2, [1, 0]]), [1] + [3 + 2 * l for l in range(r)])
        env_d = np.einsum(*ops, [0] + [3 + 2 * l for l in range(r)])
        grads[a] += (env_n * d_val - n_val * env_d) / d_val**2

    return total, grads


def classical_ising_mc(g, beta, j=1.0, sweeps=6000, burn_in=1000, seed=0, batches=50):
    """The original Metropolis chain: numpy spins, one ``np.exp`` per proposed uphill flip."""
    from sparsetn.oracles import McResult

    n_meas = sweeps - burn_in
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

    per = max(1, 2**13 // n)  # sweeps per block of draws
    for sweep in range(sweeps):
        if sweep % per == 0:
            rounds = min(per, sweeps - sweep)
            block = rng.integers(0, n, size=(rounds, n)), rng.random((rounds, n))
        sites, us = block[0][sweep % per], block[1][sweep % per]
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
