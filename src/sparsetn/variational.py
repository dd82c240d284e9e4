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
across outer iterations is not monotone (messages move between loops).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bp import BpConfig, _site_averages, init_messages, run_bp
from .env import Environment
from .graph import Graph
from .hamiltonian import Hamiltonian, transverse_field_ising
from .states import TensorNetworkState, product_state, random_state, square_root_state

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


@dataclass(frozen=True)
class SqrtInit:
    beta: float
    j: float = 1.0


@dataclass(frozen=True)
class RandomInit:
    seed: int = 0


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
    final_messages: dict | None = None


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


def _energy(env: Environment, h: Hamiltonian, grads=None) -> float:
    """Sum of normalized term values under one environment.

    When ``grads`` is given, each term's fixed-message gradient is added to it
    in place: the environment of the site applied to (h - e) / tr(block).
    """
    total = 0.0
    terms = list(h.edge_terms.items()) + [((a,), hm) for a, hm in h.vertex_terms.items()]
    for sites, hm in terms:
        hm = np.asarray(hm, dtype=complex)
        block = env.block(sites)
        norm = float(np.trace(block).real)
        if norm <= 0:
            where = f"edge {sites}" if len(sites) == 2 else f"site {sites[0]}"
            raise RuntimeError(f"{where}: vanishing local norm")
        e = float(np.einsum("ij,ji->", block, hm).real) / norm
        total += e
        if grads is not None:
            for site, grad in zip(sites, env.gradients(sites, (hm - e * np.eye(len(hm))) / norm)):
                grads[site] += grad
    return total


def energy(state: TensorNetworkState, msgs: dict, h: Hamiltonian) -> float:
    """Sum of normalized local term expectations under the given messages."""
    if h.graph != state.graph:
        raise ValueError("hamiltonian and state live on different graphs")
    return _energy(Environment(state, msgs), h)


def energy_gradient(state: TensorNetworkState, msgs: dict, h: Hamiltonian):
    """Gradient of the fixed-message energy with respect to conjugated site tensors."""
    grads = [np.zeros_like(t) for t in state.site_tensors]
    _energy(Environment(state, msgs), h, grads)
    return grads


def _build_initial_state(g: Graph, cfg: VarConfig, phys_dim: int = 2) -> TensorNetworkState:
    init = cfg.init
    if isinstance(init, ProductInit):
        base = product_state(g, np.asarray(init.vector, dtype=complex))
    elif isinstance(init, SqrtInit):
        base = square_root_state(g, init.beta, init.j)
    elif isinstance(init, RandomInit):
        return _add_noise(random_state(g, cfg.chi, init.seed, phys_dim), cfg)
    else:
        raise ValueError(f"unsupported init spec {init!r}")
    return _add_noise(_embed_chi(base, cfg.chi), cfg)


def _embed_chi(state: TensorNetworkState, chi: int) -> TensorNetworkState:
    """Zero-pad every virtual leg up to bond dimension chi."""
    cur = max(state.bond_dims.values(), default=1)
    if chi < cur:
        raise ValueError(f"requested chi {chi} below the initial state's bond dimension {cur}")
    tensors = []
    for t in state.site_tensors:
        padded = np.zeros((t.shape[0],) + (chi,) * (t.ndim - 1), dtype=complex)
        padded[tuple(slice(0, s) for s in t.shape)] = t
        tensors.append(padded)
    return state.with_site_tensors(tensors)


def _add_noise(state: TensorNetworkState, cfg: VarConfig) -> TensorNetworkState:
    if cfg.init_noise == 0:
        return state
    rng = np.random.default_rng(cfg.noise_seed)
    tensors = []
    for t in state.site_tensors:
        noise = rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape)
        tensors.append(t + cfg.init_noise * noise)
    return state.with_site_tensors(tensors)


def variational_prepare(g: Graph, h: Hamiltonian, cfg: VarConfig) -> VarTrace:
    """Alternate t_bp message updates with n_gd fixed-message descent steps.

    Messages warm-start across outer iterations. The per-iteration energy in
    the trace is the fixed-message functional evaluated after the inner loop.
    """
    if h.graph != g:
        raise ValueError("hamiltonian and state live on different graphs")
    state = _build_initial_state(g, cfg, h.phys_dim)
    msgs = init_messages(state, "identity")
    env = Environment(state, msgs)
    trace = VarTrace()
    for _ in range(cfg.t_var):
        for _ in range(cfg.t_bp):
            msgs = env.messages(cfg.bp_damping)
            env = Environment(state, msgs)
        e_prev = None
        for k in range(cfg.n_gd):
            grads = [np.zeros_like(t) for t in state.site_tensors]
            e_val = _energy(env, h, grads)
            if e_prev is not None and e_val > e_prev + _DESCENT_TOLERANCE * (1.0 + abs(e_prev)):
                raise StepSizeError(
                    f"fixed-message energy rose from {e_prev:.12g} to {e_val:.12g} "
                    f"at inner step {k}; reduce gamma (currently {cfg.gamma})"
                )
            e_prev = e_val
            state = state.with_site_tensors(
                [t - cfg.gamma * gr for t, gr in zip(state.site_tensors, grads)]
            )
            env = Environment(state, msgs)
        trace.energies.append(_energy(env, h))
        if state.phys_dim == 2:
            obs = _site_averages(env)
            trace.mean_abs_z.append(obs.mean_abs_z)
            trace.mean_x.append(obs.mean_x)
            trace.mean_zz.append(obs.edge_zz)
        else:
            trace.mean_abs_z.append(float("nan"))
            trace.mean_x.append(float("nan"))
            trace.mean_zz.append(float("nan"))
    trace.final_state = state
    trace.final_messages = msgs
    return trace


def _derived_seed(base_seed: int, i: int, restart: int) -> int:
    return int(np.random.SeedSequence([base_seed, i, restart]).generate_state(1, dtype=np.uint64)[0])


def sweep(g: Graph, hx_values, cfg: VarConfig, restarts: int, base_seed: int = 0, workers: int = 1):
    """Run the variational preparation over a transverse-field grid.

    Each (hx, restart) job perturbs the initial state with its own derived
    noise seed. Summary observables per job come from running the message
    iteration to convergence on the final state (warm-started from the final
    message set), so they do not depend on where the fixed message count left
    off. With ``workers > 1`` the jobs run in that many processes; the points
    are the same, in the same order.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    jobs = []
    for i, hx in enumerate(hx_values):
        h = transverse_field_ising(g, float(hx))
        jobs.extend((g, h, cfg, float(hx), i, r, base_seed) for r in range(restarts))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as ex:
            return list(ex.map(run_sweep_point, *zip(*jobs)))
    return [run_sweep_point(*job) for job in jobs]


def run_sweep_point(
    g: Graph, h: Hamiltonian, cfg: VarConfig, hx: float, i_hx: int, restart: int, base_seed: int
) -> SweepPoint:
    seed = _derived_seed(base_seed, i_hx, restart)
    trace = variational_prepare(g, h, dataclasses.replace(cfg, noise_seed=seed))
    state = trace.final_state
    msgs, diag = run_bp(state, BpConfig(max_steps=100, rdm_tolerance=1e-8), msgs=dict(trace.final_messages))
    env = Environment(state, msgs)
    obs = _site_averages(env)
    e_val = _energy(env, h)
    return SweepPoint(
        hx=hx,
        restart=restart,
        noise_seed=seed,
        trace=trace,
        mean_abs_z=obs.mean_abs_z,
        mean_x=obs.mean_x,
        mean_zz=obs.edge_zz,
        energy=e_val,
        energy_density=e_val / g.n,
        bp_converged=diag.converged,
    )
