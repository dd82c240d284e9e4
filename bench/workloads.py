"""The benchmark's workloads: pinned inputs, CLI arguments and output checks.

Each workload is one ``sparsetn`` CLI command on a generated graph. Its
inputs are a function of the harness seed alone. ``check`` receives the
command's output files and returns one entry per operation: ``None`` when the
operation's outputs pass, otherwise the reason it failed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

R = 3
SQRT_BETAS = (0.2, 0.4, 0.5, 0.6, 0.8, 1.0)
# BP-vs-MC gate in batch-means standard errors. The seeds are not pinned, so a
# run of the benchmark makes hundreds of these comparisons; at 3 sigma some
# fail by chance (4.2 sigma seen on one of 20 graphs at n=20).
MC_SIGMAS = 5.0
TFIM_HX = (2.5, 3.25, 4.0)
MIXED_FIELD = {"jzz": -1.0, "hx": -2.0, "hz": -0.5}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    graph_seed: Callable[[int], int]
    args: Callable[[int], list]
    ops: int
    check: Callable[[dict], list]


def _sqrt_args(seed):
    return ["sqrt-sweep", "--betas", ",".join(map(str, SQRT_BETAS)), "--mc-sweeps", "2000",
            "--mc-burn-in", "500", "--seed", str(seed)]


def _check_sqrt(files):
    rows = checks.read_csv(files["sqrt_sweep.csv"])
    if [float(r["beta"]) for r in rows] != list(SQRT_BETAS):
        return ["missing beta rows"] * len(SQRT_BETAS)
    out = []
    for row in rows:
        beta = float(row["beta"])
        z = float(row["bp_mean_abs_z"])
        bethe = checks.bethe_magnetization(beta, R)
        ratio_sym = abs(z - float(row["mc_mean_abs_z"])) / float(row["mc_err"])
        ratio_brk = abs(z - float(row["mc_mean_signed_z"])) / float(row["mc_signed_err"])
        if row["bp_converged"] != "1":
            out.append(f"beta={beta}: BP did not converge")
        elif abs(z - bethe) > 1e-6:
            out.append(f"beta={beta}: BP |Z| {z:.9f} vs Bethe cavity {bethe:.9f}")
        elif min(ratio_sym, ratio_brk) > MC_SIGMAS:
            out.append(f"beta={beta}: BP vs MC {min(ratio_sym, ratio_brk):.2f} sigma (> {MC_SIGMAS})")
        else:
            out.append(None)
    return out


def _tfim_args(seed):
    return ["tfim-sweep", "--hx-grid", ",".join(map(str, TFIM_HX)), "--restarts", "1", "--chi", "2",
            "--t-var", "30", "--seed", str(seed)]


def _check_tfim(files):
    rows = checks.read_csv(files["tfim_sweep.csv"])
    if [float(r["hx"]) for r in rows] != list(TFIM_HX):
        return ["missing hx rows"] * len(TFIM_HX)
    n = TFIM.n
    out = []
    for row in rows:
        hx = float(row["hx"])
        z = float(row["mean_abs_z"])
        e = float(row["energy"])
        density = float(row["energy_density"])
        mean_field = checks.tfim_mean_field_minimum(hx, R)
        if density != e / n:
            out.append(f"hx={hx}: energy_density {density!r} != energy / n {e / n!r}")
        elif not -R / 2 - hx < density <= mean_field:
            out.append(f"hx={hx}: energy density {density:.8f} outside ({-R / 2 - hx}, {mean_field:.8f}]")
        elif hx == 4.0 and z > 0.1:
            out.append(f"hx={hx}: mean|Z| {z:.4f} > 0.1 in the paramagnet")
        else:
            out.append(None)
    return out


def _var_args(seed):
    return ["var-prep", "--model", "mixed_field_ising", "--jzz", str(MIXED_FIELD["jzz"]),
            "--hx", str(MIXED_FIELD["hx"]), "--hz", str(MIXED_FIELD["hz"]), "--chi", "4",
            "--t-var", "10", "--oracle", "--save-state", "--seed", str(seed)]


def _check_var(files):
    summary = json.loads(files["var_prep_summary.json"])
    state = json.loads(files["var_prep_state.json"])
    edges = [tuple(e) for e in state["graph"]["edges"]]
    h = checks.mixed_field_ising_matrix(state["graph"]["n"], edges, **MIXED_FIELD)
    e0, v0 = checks.lowest_eigenpair(h)
    psi = checks.state_vector(state)
    rayleigh = float(np.vdot(psi, h @ psi).real)
    e_bp = summary["final_energy"]
    fidelity = abs(np.vdot(v0, psi)) ** 2
    problems = []
    if abs(summary["ed_e0"] - e0) > 1e-9 * abs(e0):
        problems.append(f"ED E0 {summary['ed_e0']!r} vs reference {e0!r}")
    if abs(e_bp - e0) / abs(e0) > 1e-2:
        problems.append(f"relative energy error {abs(e_bp - e0) / abs(e0):.2e} > 1e-2")
    if summary["ground_space_overlap"] < 0.95:
        problems.append(f"ground-space overlap {summary['ground_space_overlap']:.4f} < 0.95")
    if abs(summary["fidelity_ground"] - fidelity) > 1e-6:
        problems.append(f"fidelity {summary['fidelity_ground']:.8f} vs reference {fidelity:.8f}")
    if rayleigh < e0 - 1e-9 * abs(e0):
        problems.append(f"Rayleigh quotient {rayleigh!r} below E0 {e0!r}")
    if abs(rayleigh - e_bp) > 1e-2 * abs(e0):
        problems.append(f"Rayleigh quotient {rayleigh:.6f} far from BP energy {e_bp:.6f}")
    return ["; ".join(problems) if problems else None]


SQRT = Workload("sqrt-sweep", 40, lambda seed: seed, _sqrt_args, len(SQRT_BETAS), _check_sqrt)
TFIM = Workload("tfim-sweep", 16, lambda seed: seed, _tfim_args, len(TFIM_HX), _check_tfim)
# The graph is pinned: the dense statevector contraction's peak memory depends
# on the graph, so only the variational noise seed follows the harness seed.
VAR = Workload("var-prep-chi4", 10, lambda seed: 1, _var_args, 1, _check_var)

WORKLOADS = {w.name: w for w in (SQRT, TFIM, VAR)}
