"""Variational ground-state preparation: alternate message updates with
fixed-message gradient descent on the site tensors.

The energy functional is the sum over Hamiltonian terms of normalized local
expectation values computed from the current messages: each term is a quotient
N_t / D_t where N_t inserts the term operator into the local contraction and
D_t is the same contraction with the identity. Gradients are taken with
respect to the conjugated site tensors with the messages held fixed. By the
quotient rule, the gradient of N_t / D_t is the environment of the operator
(h_t - e_t) / D_t with e_t = N_t / D_t, so one contraction per (term, site)
covers both N_t and D_t; because every term is a Hermitian form in each site
tensor, the functional is real and the environment tensors are the exact
gradients. All contractions go through ``sparsetn.env``.

Within one inner descent loop the fixed-message functional must not increase;
a rise beyond tolerance aborts with a step-size diagnostic. The true energy
across outer iterations is not monotone (messages move between loops). Runs on
one graph under one ``VarConfig`` descend together, as copies in one ``Environment``;
``sweep`` then converges their final states as the copies of one BP stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.random

from .bp import BpConfig, _pauli_means, _per_chunk, init_messages, run_bp_stacked
from .env import Environment, Messages, stacked
from .graph import Graph
from .hamiltonian import Hamiltonian, transverse_field_ising
from .states import TensorNetworkState, copy_tensors, product_state, random_state

__all__ = [
    "ProductInit",
    "SqrtInit",
    "RandomInit",
    "VarConfig",
    "VarTrace",
    "SweepPoint",
    "StepSizeError",
    "energy",
    "energy_gradient",
    "variational_prepare",
    "sweep",
]


_DESCENT_TOLERANCE = 1e-8  # relative energy rise within one descent loop that raises StepSizeError


class StepSizeError(RuntimeError):
    """Fixed-message energy increased during an inner descent loop."""


@dataclass(frozen=True)
class ProductInit:
    vector: tuple = (2**-0.5, 2**-0.5)

    def state(self, g: Graph, chi: int, phys_dim: int) -> TensorNetworkState:
        """Every site in ``vector`` (by default |+>), at bond dimension 1; ``chi`` and ``phys_dim`` are unused."""
        return product_state(g, self.vector)


@dataclass(frozen=True)
class SqrtInit:
    beta: float
    j: float = 1.0

    def state(self, g: Graph, chi: int, phys_dim: int) -> TensorNetworkState:
        """Ising square-root state at ``beta`` and ``j``, of bond dimension 2; ``chi`` and ``phys_dim`` are unused.

        Every leg carries the symmetric root r of the edge matrix m = exp(k s_a s_b), k = beta j / 2, so each
        bond splits m evenly (r r = m). The descent depends on its start's bond gauge and scale: from
        ``square_root_state``'s copy gauge (m on one leg, the identity on the other) it ends about ten times
        further from the ground state.
        """
        k = 0.5 * self.beta * self.j
        # m has eigenvalues exp(k) +- exp(-k) on (1, +-1) / sqrt(2); r takes their principal roots
        plus, minus = np.sqrt(np.exp(k) + np.array([1, -1], dtype=complex) * np.exp(-k))
        r = 0.5 * np.array([[plus + minus, plus - minus], [plus - minus, plus + minus]])
        return TensorNetworkState(g, copy_tensors(g, 2, lambda v, u: r), 2)


@dataclass(frozen=True)
class RandomInit:
    seed: int = 0

    def state(self, g: Graph, chi: int, phys_dim: int) -> TensorNetworkState:
        """A random state of bond dimension ``chi`` and physical dimension ``phys_dim``, drawn from ``seed``."""
        return random_state(g, chi, self.seed, phys_dim)


@dataclass
class VarConfig:
    t_var: int = 50
    t_bp: int = 5
    n_gd: int = 10
    gamma: float = 0.01
    chi: int = 2
    init: object = field(default_factory=ProductInit)
    init_noise: float = 1e-2
    noise_seed: int = 0
    bp_damping: float = 0.0

    def __post_init__(self):
        if min(self.t_var, self.t_bp, self.n_gd) < 1:
            raise ValueError("t_var, t_bp and n_gd must all be >= 1")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.chi < 1:
            raise ValueError("chi must be >= 1")
        if self.init_noise < 0:
            raise ValueError("init_noise must be >= 0")


@dataclass
class VarTrace:
    energies: list = field(default_factory=list)
    mean_abs_z: list = field(default_factory=list)
    mean_x: list = field(default_factory=list)
    mean_zz: list = field(default_factory=list)
    final_state: TensorNetworkState | None = None
    final_messages: Messages | None = None


@dataclass
class SweepPoint:
    hx: float
    restart: int
    noise_seed: int
    trace: VarTrace
    mean_abs_z: float
    mean_x: float
    mean_zz: float
    energy: float
    energy_density: float
    bp_converged: bool


def energy(state: TensorNetworkState, msgs: Messages | dict, h: Hamiltonian) -> float:
    """Sum of normalized local term expectations under the given messages."""
    env = Environment(state, msgs)
    return env.energy(env.lay.terms(h))[0][0]


def energy_gradient(state: TensorNetworkState, msgs: Messages | dict, h: Hamiltonian):
    """Gradient of the fixed-message energy with respect to conjugated site tensors."""
    env = Environment(state, msgs)
    return env.lay.unstack(env.energy(env.lay.terms(h), gradient=True)[1])


def _build_initial_state(g: Graph, cfg: VarConfig, noise_seed: int, phys_dim: int) -> TensorNetworkState:
    """The init spec's state, padded to bond dimension ``cfg.chi``, plus complex Gaussian noise from ``noise_seed``."""
    if not isinstance(cfg.init, (ProductInit, SqrtInit, RandomInit)):
        raise ValueError(f"unsupported init spec {cfg.init!r}")
    base = cfg.init.state(g, cfg.chi, phys_dim)
    cur = max(base.bond_dims.values(), default=1)
    if cfg.chi < cur:
        raise ValueError(f"requested chi {cfg.chi} below the initial state's bond dimension {cur}")
    tensors = [np.pad(t, [(0, 0)] + [(0, cfg.chi - s) for s in t.shape[1:]]) for t in base.site_tensors]
    if cfg.init_noise:
        rng = np.random.default_rng(noise_seed)
        tensors = [t + cfg.init_noise * (rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape))
                   for t in tensors]
    return base.with_site_tensors(tensors)


def variational_prepare(g: Graph, h: Hamiltonian, cfg: VarConfig) -> VarTrace:
    """Alternate t_bp message updates with n_gd fixed-message descent steps.

    Messages warm-start across outer iterations. The per-iteration energy in
    the trace is the fixed-message functional evaluated after the inner loop.
    Site tensors and messages stay stacked arrays from step to step, and the
    Hamiltonian's terms are stacked once.
    """
    return _descend(g, cfg, [(h, cfg.noise_seed, "")])[0]


def _descend(g: Graph, cfg: VarConfig, jobs) -> list:
    """Bit for bit, the ``variational_prepare`` trace under ``cfg`` of each ``(h, noise_seed, name)`` job, all
    descending as copies in one environment. A failure names its job; a rise in several at once, the first."""
    names = [name for *_, name in jobs]
    states = [_build_initial_state(g, cfg, seed, h.phys_dim) for h, seed, _ in jobs]
    env = stacked([Environment(state, init_messages(state, "identity")) for state in states], names)
    terms = [np.concatenate(arrays) for arrays in zip(*(env.lay.terms(h) for h, *_ in jobs))]
    traces = [VarTrace() for _ in jobs]
    for _ in range(cfg.t_var):
        for _ in range(cfg.t_bp):
            env = env.step(cfg.bp_damping)
        e_prev = None
        for k in range(cfg.n_gd):
            e_vals, grads = env.energy(terms, gradient=True)
            for name, e_val, e_old in zip(names, e_vals, e_prev or ()):
                if e_val > e_old + _DESCENT_TOLERANCE * (1.0 + abs(e_old)):
                    raise StepSizeError(f"{name}fixed-message energy rose from {e_old:.12g} to {e_val:.12g} "
                                        f"at inner step {k}; reduce gamma (currently {cfg.gamma})")
            e_prev = e_vals
            env = env.with_stacks([t - cfg.gamma * gr for t, gr in zip(env.stacks, grads)])
        for trace, values in zip(traces, _read(env, terms)):
            for series, value in zip((trace.energies, trace.mean_abs_z, trace.mean_x, trace.mean_zz), values):
                series.append(value)
    for trace, copy in zip(traces, env.copies()):
        trace.final_state, trace.final_messages = copy.state, copy.msgs
    return traces


def _read(env: Environment, terms) -> list:
    """Per copy of ``env``: its energy under ``terms``, then its mean |<Z>|, <X> and <ZZ> (NaN unless qubits)."""
    energies, copies = env.energy(terms)[0], len(env.lay.names)
    means = (_pauli_means(env.site_rdms(), env.edge_rdms(), copies) if env.lay.phys_dim == 2
             else [(float("nan"),) * 3] * copies)
    return [(e_val, *obs) for e_val, obs in zip(energies, means)]


def _derived_seed(base_seed: int, i: int, restart: int) -> int:
    return int(np.random.SeedSequence([base_seed, i, restart]).generate_state(1, dtype=np.uint64)[0])


def sweep(g: Graph, hx_values, cfg: VarConfig, restarts: int, base_seed: int = 0, workers: int = 1):
    """Run the variational preparation over a transverse-field grid.

    Each (hx, restart) job perturbs the initial state with its own derived noise seed. The jobs run in ``workers``
    contiguous chunks, or more if a chunk would hold over ``bp._CHUNK_ENTRIES`` padded site-tensor entries, and
    several workers run the chunks in that many processes. A chunk's jobs descend as one stack; then their final
    states, warm-started from their final messages, run BP to convergence as one ``run_bp_stacked`` stack, so the
    summary observables do not depend on where the fixed message count left off. A failure names the hx and restart
    of the first job to fail. The points are the same, in the same order, for every ``workers``.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    jobs = [(float(hx), i, r) for i, hx in enumerate(hx_values) for r in range(restarts)]
    per_chunk = _per_chunk(g, 2, cfg.chi)  # qubit sites
    count = max(workers, -(-len(jobs) // per_chunk))
    chunks = [c for k in range(count) if (c := jobs[k * len(jobs) // count:(k + 1) * len(jobs) // count])]
    if workers > 1 and len(chunks) > 1:
        import multiprocessing  # only a run that starts the pool loads it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(min(workers, len(chunks)), mp_context=multiprocessing.get_context("spawn")) as ex:
            return [pt for pts in ex.map(_sweep_points, *zip(*[(g, cfg, base_seed, c) for c in chunks])) for pt in pts]
    return [pt for c in chunks for pt in _sweep_points(g, cfg, base_seed, c)]


def _sweep_points(g: Graph, cfg: VarConfig, base_seed: int, jobs) -> list:
    """The ``SweepPoint`` of each ``(hx, i_hx, restart)`` job: one stacked descent of them all, one stacked BP run of
    their final states to convergence, and one read of the converged copies restacked."""
    seeds = [_derived_seed(base_seed, i, r) for _, i, r in jobs]
    hs = [transverse_field_ising(g, hx) for hx, *_ in jobs]
    names = [f"hx={hx}, restart={r}: " for hx, _, r in jobs]
    traces = _descend(g, cfg, list(zip(hs, seeds, names)))
    runs = run_bp_stacked([(trace.final_state, trace.final_messages, name) for trace, name in zip(traces, names)],
                          BpConfig(), exact_deltas=False)
    # the jobs share their start, so all their copies are real or all complex, and one stack reads each as it ran
    env = stacked([diag.env for _, diag in runs], names)
    rows = _read(env, [np.concatenate(arrays) for arrays in zip(*(env.lay.terms(h) for h in hs))])
    return [SweepPoint(hx, restart, seed, trace, *means, e_val, e_val / g.n, diag.converged)
            for (hx, _, restart), seed, trace, (_, diag), (e_val, *means) in zip(jobs, seeds, traces, runs, rows)]
