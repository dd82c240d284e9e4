"""Belief-propagation contraction of tensor network states.

Messages live on directed edges: ``m[(a, b)]`` is a chi x chi Hermitian
positive-semidefinite matrix with unit trace, indexed ``m[x, x']`` where ``x``
is the ket-layer bond index and ``x'`` the bra-layer one. A synchronous step
recomputes every outgoing message of every vertex from the incoming message
set, Hermitizes, normalizes to unit trace, and optionally mixes in the old
message (damping). Unit-trace normalization fixes the scale gauge of the
messages and keeps large graphs free of over/underflow.

Convergence is judged on two-site reduced density matrices, not on raw
messages: message entries can settle into a limit cycle while all local
observables are already stationary, so the message residual is reported as a
diagnostic only. Whole-graph quantities (messages, the one-site and edge blocks
of every site and edge, and the convergence check) come from the batched gates
of ``sparsetn.env``, built once per message set; ``run_bp`` hands on the
environment of its final messages. ``run_bp_stacked`` runs many states on one
graph as the copies of one environment, each exactly as ``run_bp`` would run it
alone; ``run_bp`` is its one-copy case. ``rdm`` on k chosen sites contracts only
those k site tensors and their incoming messages.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from itertools import count

import numpy as np
import numpy.random

from .env import RDM_ERROR, Environment, site_gate, stacked, unit_trace
from .states import TensorNetworkState
from .tensor import PAULI_X, PAULI_Y, PAULI_Z, tensor_from_json, tensor_to_json

__all__ = [
    "BpConfig",
    "BpDiagnostics",
    "Rdm",
    "SiteAverages",
    "init_messages",
    "bp_step",
    "bp_iterate",
    "run_bp",
    "run_bp_stacked",
    "rdm",
    "expectation",
    "entanglement_entropy",
    "rdm_trace_distance",
    "site_averaged_observables",
    "messages_to_json",
    "messages_from_json",
    "bp_diagnostics_to_csv",
    "save_messages",
]


_CHUNK_ENTRIES = 2**16  # padded site-tensor entries per stack of copies: ~40 MB of a sweep descent's arrays at chi=2
_ZZ = np.kron(PAULI_Z, PAULI_Z)


@dataclass
class BpConfig:
    max_steps: int = 100
    rdm_tolerance: float = 1e-8
    damping: float = 0.0
    init: str = "identity"
    init_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.rdm_tolerance <= 0:
            raise ValueError("rdm_tolerance must be positive")
        if not (0.0 <= self.damping < 1.0):
            raise ValueError("damping must lie in [0, 1)")
        if self.init not in ("identity", "random"):
            raise ValueError("init must be 'identity' or 'random'")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class BpDiagnostics:
    """``run_bp``'s record: ``rdm_deltas`` are exact, and ``message_deltas`` kept, unless the run passed
    ``exact_deltas=False``."""

    steps_run: int
    converged: bool
    rdm_deltas: list = field(default_factory=list)
    message_deltas: list = field(default_factory=list)
    env: Environment | None = None


@dataclass
class Rdm:
    """Hermitian, unit-trace reduced density matrix on an ordered site tuple."""

    sites: tuple
    matrix: np.ndarray


@dataclass
class SiteAverages:
    mean_abs_z: float
    mean_x: float
    mean_y: float
    edge_entropy: float
    edge_zz: float


def init_messages(state: TensorNetworkState, init: str = "identity", seed: int = 0) -> dict:
    """One PSD unit-trace matrix per directed edge.

    ``identity`` gives I/chi; ``random`` gives a seeded Gram matrix
    G^dagger G / tr(G^dagger G) of a complex Gaussian G. One
    ``standard_normal`` call draws every edge's entries in edge order (its
    real chi x chi block, then its imaginary one, as a draw per edge would),
    and the Gram matrices of each bond dimension are one batched matmul.
    """
    if init not in ("identity", "random"):
        raise ValueError("init must be 'identity' or 'random'")
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


def bp_step(state: TensorNetworkState, msgs: dict, damping: float = 0.0) -> dict:
    """One synchronous update: all new messages computed from the input set."""
    return Environment(state, msgs).step(damping).msgs


def rdm(state: TensorNetworkState, msgs: dict, sites) -> Rdm:
    """Reduced density matrix on 1-3 sites forming a connected path.

    Site tensors and their conjugates on ``sites`` are contracted exactly over
    all edges internal to the set; every dangling edge is closed with its
    incoming message. Only these k sites are contracted, whatever the size of
    the graph. The result is Hermitized and normalized to unit trace, with the
    first site as the most significant factor of the product basis.
    """
    sites = tuple(int(s) for s in sites)
    k = len(sites)
    if k not in (1, 2, 3):
        raise ValueError("rdm supports 1, 2 or 3 sites")
    g = state.graph
    for s in sites:
        if not 0 <= s < g.n:
            raise ValueError(f"site {s} out of range for n={g.n}")
    if len(set(sites)) != k:
        raise ValueError("sites must be distinct")
    for u, v in zip(sites, sites[1:]):
        if not g.has_edge(u, v):
            raise ValueError("sites must form a connected path in the graph")
    # every edge inside the set is contracted by label, since three sites may close a triangle
    inset = set(sites)
    bonds: dict = {}
    operands = []
    for pos, s in enumerate(sites):
        nbrs = g.neighbors(s)
        inner = [u for u in nbrs if u in inset]
        labels = [pos, k + pos]
        for u in inner:
            bond = bonds.setdefault(frozenset((s, u)), 2 * k + 2 * len(bonds))
            labels += [bond, bond + 1]
        in_msgs = [None if u in inset else msgs[(u, s)] for u in nbrs]
        operands += [site_gate(state.site_tensors[s], in_msgs, [g.leg(s, u) for u in inner]), labels]
    d = state.phys_dim
    mat = np.einsum(*operands, list(range(2 * k))).reshape(d**k, d**k)
    return Rdm(sites=sites, matrix=unit_trace(mat[None], [(sites,)], RDM_ERROR)[0])


def bp_iterate(state: TensorNetworkState, msgs: dict, damping: float = 0.0):
    """Synchronous steps from ``msgs``, without end.

    Yields ``(env, rdm_delta, message_delta)`` after every step: the
    ``Environment`` of the new message set, the largest trace distance between
    a two-site RDM on an edge before and after the step, and the largest
    Frobenius change of a message. Each message set's gates are contracted
    once and give both its edge RDMs and the next messages. A message or edge
    RDM that loses positivity in step k raises ``RuntimeError("BP step k: ...")``;
    so does one of the edge RDMs of ``msgs`` themselves, under step 1.
    """
    edges, env, prev = state.graph.edges, Environment(state, msgs), None
    for k in count(1):
        try:
            new = env.step(damping)
            if prev is None:
                prev = env.edge_rdms()
            cur = new.edge_rdms()
        except RuntimeError as err:
            raise RuntimeError(f"BP step {k}: {err}") from err
        msg_delta = float(np.linalg.norm(new.msg_stack - env.msg_stack, axis=(1, 2)).max(initial=0.0))
        rdm_delta = _trace_distance(prev, cur) if edges else 0.0
        env, prev = new, cur
        yield env, rdm_delta, msg_delta


def run_bp(state: TensorNetworkState, cfg: BpConfig | None = None, msgs: dict | None = None, *, exact_deltas=True):
    """Iterate synchronous BP until two-site RDMs are stationary in trace distance.

    Returns ``(messages, diagnostics)``; ``diagnostics.env`` is the
    ``Environment`` of those messages, so callers take their observables and
    energies from its gates instead of rebuilding them. Non-convergence within
    ``max_steps`` is reported through the diagnostics, not raised. With
    ``exact_deltas=False`` (no reader of ``rdm_deltas`` or ``message_deltas``) BP
    screens at ``rdm_tolerance``: it skips most eigensolves and stops where it would.
    """
    cfg = cfg or BpConfig()
    if msgs is None:
        msgs = init_messages(state, cfg.init, cfg.init_seed)
    return run_bp_stacked([(state, msgs, "")], cfg, exact_deltas=exact_deltas)[0]


def run_bp_stacked(runs, cfg: BpConfig, *, exact_deltas=True) -> list:
    """``run_bp(state, cfg, msgs, exact_deltas=...)`` of each ``(state, msgs, name)`` of ``runs``, bit for bit.

    The states share one graph and one set of tensor shapes. They step as the copies of one environment, in chunks
    of at most ``_CHUNK_ENTRIES`` padded site-tensor entries, and each copy leaves at its own stop step. A stack holds
    copies of one kind: a copy whose messages turn real moves to the real stack at that step, as it would alone. A
    failure raises ``RuntimeError("<name>BP step k: ...")``.
    """
    state = runs[0][0]
    per_chunk = _per_chunk(state.graph, state.phys_dim, max(state.bond_dims.values(), default=1))
    return [out for c in range(0, len(runs), per_chunk) for out in _converge(runs[c:c + per_chunk], cfg, exact_deltas)]


def _per_chunk(g, d: int, chi: int) -> int:
    """How many copies of a state on ``g`` with physical dimension ``d``, padded to bond dimension ``chi``, one stack
    holds under ``_CHUNK_ENTRIES`` (at least one)."""
    return max(1, _CHUNK_ENTRIES // sum(d * chi ** g.degree(v) for v in range(g.n)))


def _converge(runs, cfg: BpConfig, exact_deltas: bool) -> list:
    """``run_bp_stacked`` of one chunk. Each entry of ``live`` is a stack: its environment, its copies' indices into
    ``runs`` and their (copies, m, d^2, d^2) edge RDMs under its previous messages."""
    names, diags = [name for *_, name in runs], [BpDiagnostics(steps_run=0, converged=False) for _ in runs]
    real = np.array([not any(t.imag.any() for t in state.site_tensors) for state, *_ in runs])
    m, dd, screen = len(runs[0][0].graph.edges), runs[0][0].phys_dim ** 2, None if exact_deltas else cfg.rdm_tolerance
    live = _restack([Environment(state, msgs) for state, msgs, _ in runs], list(range(len(runs))), None)
    for k in range(1, cfg.max_steps + 1):
        stepped, live = live, []
        for env, ids, prev in stepped:
            new = _named(k, names, ids, env.step, cfg.damping)
            if prev is None:
                prev = _named(k, names, ids, env.edge_rdms).reshape(len(ids), m, dd, dd)
            if exact_deltas:
                moved = np.linalg.norm(new.msg_stack - env.msg_stack, axis=(1, 2)).reshape(len(ids), -1)
                for i, delta in zip(ids, moved.max(axis=1, initial=0.0).tolist()):
                    diags[i].message_deltas.append(delta)
            # copies of real site tensors whose messages turned real leave a complex stack for a real one
            turned = len(ids) > 1 and new.msg_stack.dtype == complex and np.any(
                real[ids] & ~new.msg_stack.imag.reshape(len(ids), -1).any(1))
            for env, ids, prev in _restack(new.copies(), ids, prev) if turned else [(new, ids, prev)]:
                cur = _named(k, names, ids, env.edge_rdms).reshape(len(ids), m, dd, dd)
                for i, delta in zip(ids, _trace_distances(prev, cur, screen) if m else [0.0] * len(ids)):
                    diags[i].steps_run, diags[i].converged = k, delta <= cfg.rdm_tolerance
                    diags[i].rdm_deltas.append(delta)
                staying = [p for p, i in enumerate(ids) if not diags[i].converged and k < cfg.max_steps]
                if len(staying) == len(ids):
                    live.append((env, ids, cur))
                    continue
                copies = env.copies() if len(ids) > 1 else [env]
                for p, i in enumerate(ids):
                    diags[i].env = copies[p]
                live += _restack([copies[p] for p in staying], [ids[p] for p in staying], cur[staying])
    return [(diag.env.msgs, diag) for diag in diags]


def _named(k, names, ids, fn, *args):
    """``fn(*args)`` in BP step ``k`` of the stack of copies ``ids``; a failure of its copy p is raised again as
    ``RuntimeError("<names[ids[p]]>BP step k: ...")``."""
    try:
        return fn(*args)
    except RuntimeError as err:
        raise RuntimeError(f"{names[ids[err.copy]]}BP step {k}: {err}") from err


def _restack(envs, ids, prev) -> list:
    """``(environment, ids, prev)`` per kind, real or complex, of the unnamed lone ``envs``: the stack of that
    kind's copies, their entries of ``ids`` and their rows of ``prev`` (None stays None)."""
    kinds = {}
    for p, env in enumerate(envs):
        kinds.setdefault(env.msg_stack.dtype, []).append(p)
    return [(envs[ps[0]] if len(ps) == 1 else stacked([envs[p] for p in ps], [""] * len(ps)), [ids[p] for p in ps],
             None if prev is None else prev[ps]) for ps in kinds.values()]


def _trace_distance(m1, m2, screen: float | None = None) -> float:
    """Half the trace norm of ``m1 - m2``; for stacks of matrices, the largest one (see ``_trace_distances``)."""
    return _trace_distances(*(np.reshape(m, (1, -1) + np.shape(m)[-2:]) for m in (m1, m2)), screen)[0]


def _trace_distances(m1, m2, screen: float | None = None) -> list:
    """Per copy (the first axis of the ``(copies, k, D, D)`` stacks), the largest half trace norm of ``m1 - m2``.

    Half the largest Frobenius norm is a lower bound, with sqrt(2) to spare
    against rounding when ``m1 - m2`` is traceless; it is returned, without an
    eigensolve, for each copy where it exceeds ``screen``.
    """
    diff = np.subtract(m1, m2)
    out = 0.5 * np.linalg.norm(diff, axis=(-2, -1)).max(axis=1)
    exact = np.ones(len(out), dtype=bool) if screen is None else ~(out > screen)
    if exact.any():
        out[exact] = 0.5 * np.abs(np.linalg.eigvalsh(diff[exact])).sum(axis=-1).max(axis=1)
    return out.tolist()


def expectation(rho: Rdm, op) -> float:
    """Re tr(rho op) for a Hermitian operator of matching dimension."""
    op = np.asarray(op, dtype=complex)
    if op.shape != rho.matrix.shape:
        raise ValueError(f"operator shape {op.shape} does not match rdm shape {rho.matrix.shape}")
    return float(_expectations(rho.matrix[None], op)[0])


def _expectations(mats, op):
    """Re tr(rho op) for each matrix of a stack; the first value with an imaginary part over 1e-8 raises."""
    vals = np.trace(mats @ op, axis1=1, axis2=2)
    bad = np.flatnonzero(np.abs(vals.imag) > 1e-8)
    if bad.size:
        raise ValueError(f"expectation value has imaginary part {vals[bad[0]].imag:.3e}")
    return vals.real


def entanglement_entropy(rho: Rdm) -> float:
    """Von Neumann entropy (natural log) with small negative eigenvalues clamped."""
    return float(_entropies(rho.matrix[None])[0])


def _entropies(mats):
    """``entanglement_entropy`` of each matrix of a stack, warning once per clamped matrix."""
    w = np.linalg.eigvalsh(mats)
    for worst in -w.min(axis=-1):
        if worst > 1e-6:
            warnings.warn(f"clamping rdm eigenvalue of magnitude {worst:.3e} to zero", stacklevel=3)
    w = np.clip(w, 0.0, None)
    total = w.sum(axis=-1, keepdims=True)
    w = w / np.where(total > 0, total, 1.0)
    w = np.where(w > 1e-12, w, 1.0)  # dropped: 1 log 1 adds an exact zero
    return -(w * np.log(w)).sum(axis=-1)


def rdm_trace_distance(r1: Rdm, r2: Rdm) -> float:
    """Half the trace norm of the difference; lies in [0, 1]."""
    if r1.sites != r2.sites:
        raise ValueError("rdms are defined on different site tuples")
    if r1.matrix.shape != r2.matrix.shape:
        raise ValueError("rdm dimensions do not match")
    return _trace_distance(r1.matrix, r2.matrix)


def site_averaged_observables(state: TensorNetworkState, msgs: dict) -> SiteAverages:
    """Arithmetic means of single-site Pauli expectations and edge quantities."""
    return _site_averages(Environment(state, msgs))


def _site_averages(env: Environment) -> SiteAverages:
    """``site_averaged_observables`` from an environment the caller already holds."""
    if env.lay.phys_dim != 2:
        raise ValueError("site_averaged_observables requires qubits (d = 2)")
    site_rdms, edge_rdms = env.site_rdms(), env.edge_rdms()
    (mean_abs_z, mean_x, edge_zz), = _pauli_means(site_rdms, edge_rdms)
    return SiteAverages(mean_abs_z=mean_abs_z, mean_x=mean_x, mean_y=float(np.mean(_expectations(site_rdms, PAULI_Y))),
                        edge_entropy=float(np.mean(_entropies(edge_rdms))) if len(edge_rdms) else 0.0, edge_zz=edge_zz)


def _pauli_means(sites, edges, copies: int = 1) -> list:
    """Per copy of ``copies`` equal parts of the stacks: mean |<Z>| and <X> over its one-site density matrices and
    mean <ZZ> over its edge ones (0 for none)."""
    z, x = (_expectations(sites, op).reshape(copies, -1) for op in (PAULI_Z, PAULI_X))
    zz = _expectations(edges, _ZZ).reshape(copies, -1).mean(1) if len(edges) else np.zeros(copies)
    return list(zip(np.abs(z).mean(1).tolist(), x.mean(1).tolist(), zz.tolist()))


def messages_to_json(msgs: dict) -> dict:
    return {f"{a}->{b}": tensor_to_json(m) for (a, b), m in sorted(msgs.items())}


def messages_from_json(data: dict) -> dict:
    msgs = {}
    for key, tj in data.items():
        a, b = key.split("->")
        msgs[(int(a), int(b))] = tensor_from_json(tj)
    return msgs


def bp_diagnostics_to_csv(diag: BpDiagnostics, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "max_rdm_trace_distance", "max_message_delta"])
        for i, (rd, md) in enumerate(zip(diag.rdm_deltas, diag.message_deltas), start=1):
            writer.writerow([i, repr(rd), repr(md)])


def save_messages(msgs: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(messages_to_json(msgs)))
        fh.write("\n")
