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
diagnostic only. Messages, one- and two-site RDMs and the convergence check
all come from the gates of ``sparsetn.env``, built once per message set.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .env import Environment, site_gate, unit_trace
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
    "rdm",
    "expectation",
    "entanglement_entropy",
    "rdm_trace_distance",
    "site_averaged_observables",
    "messages_to_json",
    "messages_from_json",
    "bp_diagnostics_to_csv",
]


@dataclass
class BpConfig:
    max_steps: int = 100
    rdm_tolerance: float = 1e-8
    damping: float = 0.0
    schedule: str = "synchronous"
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
        if self.schedule != "synchronous":
            raise ValueError("only the synchronous schedule is supported")
        if self.init not in ("identity", "random"):
            raise ValueError("init must be 'identity' or 'random'")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class BpDiagnostics:
    steps_run: int
    converged: bool
    rdm_deltas: list = field(default_factory=list)
    message_deltas: list = field(default_factory=list)
    final_messages: dict = field(default_factory=dict)


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
    G^dagger G / tr(G^dagger G) of a complex Gaussian G.
    """
    g = state.graph
    rng = np.random.default_rng(seed)
    msgs = {}
    for a, b in g.directed_edges:
        chi = state.bond_dim(a, b)
        if init == "identity":
            m = np.eye(chi, dtype=complex) / chi
        elif init == "random":
            gmat = rng.standard_normal((chi, chi)) + 1j * rng.standard_normal((chi, chi))
            m = gmat.conj().T @ gmat
            m = m / np.trace(m).real
        else:
            raise ValueError("init must be 'identity' or 'random'")
        msgs[(a, b)] = m
    return msgs


def bp_step(state: TensorNetworkState, msgs: dict, damping: float = 0.0, workers: int = 1) -> dict:
    """One synchronous update: all new messages computed from the input set.

    ``workers`` is accepted for compatibility and has no effect: updates run
    in one thread, since a thread pool measured no gain at these tensor sizes.
    """
    return Environment(state, msgs).messages(damping)


def rdm(state: TensorNetworkState, msgs: dict, sites) -> Rdm:
    """Reduced density matrix on 1-3 sites forming a connected path.

    Site tensors and their conjugates on ``sites`` are contracted exactly over
    all edges internal to the set; every dangling edge is closed with its
    incoming message. The result is Hermitized and normalized to unit trace,
    with the first site as the most significant factor of the product basis.
    """
    sites = tuple(int(s) for s in sites)
    k = len(sites)
    if k not in (1, 2, 3):
        raise ValueError("rdm supports 1, 2 or 3 sites")
    if len(set(sites)) != k:
        raise ValueError("sites must be distinct")
    g = state.graph
    for u, v in zip(sites, sites[1:]):
        if not g.has_edge(u, v):
            raise ValueError("sites must form a connected path in the graph")
    if k < 3:
        return Rdm(sites=sites, matrix=Environment(state, msgs).rdm(sites))
    # three sites may close a triangle, so every edge inside the set is contracted by label
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
    return Rdm(sites=sites, matrix=unit_trace(mat, "reduced density matrix on {} has non-positive trace {tr}", sites))


def bp_iterate(state: TensorNetworkState, msgs: dict, damping: float = 0.0):
    """Synchronous steps from ``msgs``, without end.

    Yields ``(messages, rdm_delta, message_delta)`` after every step: the new
    message set, the largest trace distance between a two-site RDM on an edge
    before and after the step, and the largest Frobenius change of a message.
    Each message set's gates are contracted once and give both its edge RDMs
    and the next messages.
    """
    edges = state.graph.edges
    env = Environment(state, msgs)
    prev = [env.rdm(e) for e in edges]
    while True:
        new_msgs = env.messages(damping)
        msg_delta = max((float(np.linalg.norm(new - msgs[key])) for key, new in new_msgs.items()), default=0.0)
        msgs = new_msgs
        env = Environment(state, msgs)
        cur = [env.rdm(e) for e in edges]
        rdm_delta = _trace_distance(prev, cur) if edges else 0.0
        prev = cur
        yield msgs, rdm_delta, msg_delta


def run_bp(state: TensorNetworkState, cfg: BpConfig | None = None, msgs: dict | None = None):
    """Iterate synchronous BP until two-site RDMs are stationary in trace distance.

    Returns ``(messages, diagnostics)``. Non-convergence within ``max_steps``
    is reported through the diagnostics, not raised.
    """
    cfg = cfg or BpConfig()
    if msgs is None:
        msgs = init_messages(state, cfg.init, cfg.init_seed)
    diag = BpDiagnostics(steps_run=0, converged=False)
    for msgs, rdm_delta, msg_delta in islice(bp_iterate(state, msgs, cfg.damping), cfg.max_steps):
        diag.steps_run += 1
        diag.rdm_deltas.append(rdm_delta)
        diag.message_deltas.append(msg_delta)
        if rdm_delta <= cfg.rdm_tolerance:
            diag.converged = True
            break
    diag.final_messages = msgs
    return msgs, diag


def _trace_distance(m1, m2) -> float:
    """Half the trace norm of ``m1 - m2``; for stacks of matrices, the largest one."""
    w = np.linalg.eigvalsh(np.subtract(m1, m2))
    return 0.5 * float(np.abs(w).sum(axis=-1).max())


def expectation(rho: Rdm, op) -> float:
    """Re tr(rho op) for a Hermitian operator of matching dimension."""
    op = np.asarray(op, dtype=complex)
    mat = rho.matrix
    if op.shape != mat.shape:
        raise ValueError(f"operator shape {op.shape} does not match rdm shape {mat.shape}")
    val = complex(np.trace(mat @ op))
    if abs(val.imag) > 1e-8:
        raise ValueError(f"expectation value has imaginary part {val.imag:.3e}")
    return val.real


def entanglement_entropy(rho: Rdm) -> float:
    """Von Neumann entropy (natural log) with small negative eigenvalues clamped."""
    w = np.linalg.eigvalsh(rho.matrix)
    worst = -float(np.min(w)) if w.size else 0.0
    if worst > 1e-6:
        warnings.warn(f"clamping rdm eigenvalue of magnitude {worst:.3e} to zero", stacklevel=2)
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total > 0:
        w = w / total
    w = w[w > 1e-12]
    return float(-np.sum(w * np.log(w)))


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
    if env.state.phys_dim != 2:
        raise ValueError("site_averaged_observables requires qubits (d = 2)")
    g = env.state.graph
    site_rdms = [Rdm(sites=(a,), matrix=env.rdm((a,))) for a in range(g.n)]
    edge_rdms = [Rdm(sites=e, matrix=env.rdm(e)) for e in g.edges]
    zz = np.kron(PAULI_Z, PAULI_Z)
    return SiteAverages(
        mean_abs_z=float(np.mean([abs(expectation(rho, PAULI_Z)) for rho in site_rdms])),
        mean_x=float(np.mean([expectation(rho, PAULI_X) for rho in site_rdms])),
        mean_y=float(np.mean([expectation(rho, PAULI_Y) for rho in site_rdms])),
        edge_entropy=float(np.mean([entanglement_entropy(rho) for rho in edge_rdms])) if edge_rdms else 0.0,
        edge_zz=float(np.mean([expectation(rho, zz) for rho in edge_rdms])) if edge_rdms else 0.0,
    )


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
        json.dump(messages_to_json(msgs), fh)
        fh.write("\n")


def load_messages(path) -> dict:
    with open(path) as fh:
        return messages_from_json(json.load(fh))
