"""Command line experiment driver.

Every subcommand is deterministic given its resolved configuration. ``main``
creates the output directory, runs the subcommand and, once it succeeds,
writes every parsed option to ``<command>_config.json`` next to the outputs;
re-running with that file reproduces the outputs bit-identically in
single-threaded mode. Curves are emitted as CSV, objects as JSON. Exit codes:
0 success, 2 invalid configuration (including a problem too large for
memory), 3 numerical failure (BP non-convergence is reported in a column, not
treated as failure).

``--threads`` is accepted by every subcommand and must be >= 1. ``tfim-sweep``
runs its (hx, restart) jobs in that many processes; the others only record it.
Importing this module sets ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS``
to 1 where they are unset, so each process runs one BLAS thread; this has no
effect if numpy was imported before this module.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads its BLAS
os.environ.setdefault("OMP_NUM_THREADS", "1")
import numpy as np  # noqa: E402

from . import bp, graph, hamiltonian, oracles, states, variational  # noqa: E402
from .tensor import PAULI_X, PAULI_Z  # noqa: E402

# the variational init spec that each --state or --init name but "graph" stands for, from a seed, a beta and a j
_INIT_SPECS = {"product": lambda seed, beta, j: variational.ProductInit(),
               "sqrt": lambda seed, beta, j: variational.SqrtInit(beta, j),
               "random": lambda seed, beta, j: variational.RandomInit(seed)}
_MAX_GRID = 10**6
_MC_BATCHES = 50  # Monte Carlo batch means, each of at least one measured sweep
_TRACE_HEADER = ["hx", "restart", "iteration", "energy", "energy_density", "mean_abs_z", "mean_x", "mean_zz",
                 "converged"]


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([int(x) if isinstance(x, bool) else repr(float(x)) if isinstance(x, float) else x
                             for x in row])


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _grid(spec: str):
    """Parse '0.1:1.2:0.1' (start:stop:step, inclusive) or a comma list, of finite values."""
    if ":" in spec and spec.count(":") != 2:
        raise ValueError(f"grid '{spec}' is not of the form start:stop:step")
    vals = [float(x) for x in spec.split(":" if ":" in spec else ",")]
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"grid '{spec}' has a value that is not finite")
    if ":" in spec:
        start, stop, step = vals
        if step <= 0:
            raise ValueError("grid step must be positive")
        span = max((stop - start) / step, -1.0)  # can overflow to +-inf, so count before building
        if span >= _MAX_GRID - 0.5:
            raise ValueError(f"grid '{spec}' has {span + 1:.7g} values, more than {_MAX_GRID}")
        vals = [round(v, 12) for v in (start + k * step for k in range(round(span) + 1)) if v <= stop + 1e-9]
        if not vals:
            raise ValueError(f"grid '{spec}' has no values")
    return vals


def cmd_graph_gen(args) -> None:
    if args.tree:
        g = graph.build_tree(args.n, args.branching)
    else:
        if args.r is None:
            raise ValueError("either --tree or --r is required")
        g = graph.random_regular(args.n, args.r, args.seed)
    out = args.out or os.path.join(args.out_dir, "graph.json")
    graph.save_graph(g, out)
    diag = graph.compute_diagnostics(g, max_cycle_len=args.max_cycle_len, include_expansion=True)
    rows = [("n", g.n), ("edges", len(g.edges)), ("connected", diag.connected), ("is_tree", graph.is_tree(g)),
            ("diameter", diag.diameter if diag.diameter is not None else "disconnected")]
    for deg in sorted(diag.degree_histogram):
        rows.append((f"degree_{deg}", diag.degree_histogram[deg]))
    for length in sorted(diag.cycle_counts):
        rows.append((f"cycles_{length}", diag.cycle_counts[length]))
    if diag.expansion is not None:
        rows.append(("expansion", float(diag.expansion)))
    _write_csv(os.path.join(args.out_dir, "graph_diagnostics.csv"), ["key", "value"], rows)


def cmd_bp_run(args) -> None:
    g = graph.load_graph(args.graph)
    state = (states.graph_state(g) if args.state == "graph"
             else _INIT_SPECS[args.state](args.seed, args.beta, args.j).state(g, args.chi, 2))
    cfg = bp.BpConfig(max_steps=args.max_steps, rdm_tolerance=args.tol, damping=args.damping,
                      init=args.init, init_seed=args.seed)
    msgs, diag = bp.run_bp(state, cfg)
    bp.bp_diagnostics_to_csv(diag, os.path.join(args.out_dir, "bp_diagnostics.csv"))
    _write_json(os.path.join(args.out_dir, "bp_observables.json"), {
        "converged": diag.converged,
        "steps_run": diag.steps_run,
        **dataclasses.asdict(bp._site_averages(diag.env)),
    })
    if args.save_messages:
        bp.save_messages(msgs, os.path.join(args.out_dir, "bp_messages.json"))


def cmd_graphstate_check(args) -> None:
    if args.steps < 1:
        raise ValueError("--steps must be >= 1")
    g = graph.load_graph(args.graph)
    state = states.graph_state(g)
    msgs = bp.init_messages(state, args.init, args.seed)
    rows = []
    for step, (env, delta, _) in zip(range(1, args.steps + 1), bp.bp_iterate(state, msgs, args.damping)):
        rows.append((step, *dataclasses.astuple(bp._site_averages(env)), delta))
    observables = [f.name for f in dataclasses.fields(bp.SiteAverages)]
    _write_csv(os.path.join(args.out_dir, "graphstate_check.csv"),
               ["step", *observables, "max_rdm_trace_distance"], rows)


def cmd_sqrt_sweep(args) -> None:
    if args.mc_burn_in < 0 or args.mc_sweeps - args.mc_burn_in < _MC_BATCHES:
        raise ValueError(f"--mc-burn-in must be >= 0 and --mc-sweeps must exceed it by at least {_MC_BATCHES} "
                         f"measured sweeps, got {args.mc_sweeps} and {args.mc_burn_in}")
    g = graph.load_graph(args.graph)
    betas = _grid(args.betas)
    exact = args.exact or (args.exact is None and g.n <= 12)
    if exact and g.n > 16:
        raise ValueError("exact enumeration columns require n <= 16")
    header = ["beta", "bp_mean_abs_z", "mc_mean_abs_z", "mc_err", "bp_mean_x", "bp_edge_entropy",
              "mc_mean_signed_z", "mc_signed_err", "mc_sector_flips", "bp_converged", "bp_steps"]
    if exact:
        header += ["exact_mean_abs_z", "exact_mean_x", "max_dev_z", "max_dev_x"]
    rows = []
    report = []
    sweep = [states.square_root_state(g, beta, args.j) for beta in betas]
    cfg = bp.BpConfig(max_steps=args.max_steps, rdm_tolerance=args.tol, damping=args.damping)
    runs = bp.run_bp_stacked([(state, bp.init_messages(state, args.init, args.seed + i), f"beta={beta}: ")
                              for i, (beta, state) in enumerate(zip(betas, sweep))], cfg, exact_deltas=False)
    for i, (beta, (_, diag)) in enumerate(zip(betas, runs)):
        env, diag.env = diag.env, None  # each beta's arrays go once its row is built
        obs = bp._site_averages(env)
        mc = oracles.classical_ising_mc(g, beta, args.j, sweeps=args.mc_sweeps,
                                        burn_in=args.mc_burn_in, seed=args.seed + 1000 + i, batches=_MC_BATCHES)
        row = [beta, obs.mean_abs_z, mc.mean_abs_z, mc.mean_abs_z_error, obs.mean_x,
               obs.edge_entropy, mc.mean_signed_z, mc.mean_signed_z_error, mc.sector_flips,
               diag.converged, diag.steps_run]
        if exact:
            ex = oracles.classical_exact_expectations(g, beta, args.j)
            rhos = env.site_rdms()
            bp_z = bp._expectations(rhos, PAULI_Z)
            bp_x = bp._expectations(rhos, PAULI_X)
            max_dev_z = float(np.max(np.abs(bp_z - ex.z)))
            max_dev_x = float(np.max(np.abs(bp_x - ex.x)))
            row += [float(np.mean(np.abs(ex.z))), float(np.mean(ex.x)), max_dev_z, max_dev_x]
            report.append({"beta": beta, "max_dev_z": max_dev_z, "max_dev_x": max_dev_x})
        rows.append(tuple(row))
    _write_csv(os.path.join(args.out_dir, "sqrt_sweep.csv"), header, rows)
    if report:
        _write_json(os.path.join(args.out_dir, "sqrt_sweep_deviations.json"), report)


def _var_config(args) -> variational.VarConfig:
    return variational.VarConfig(
        t_var=args.t_var, t_bp=args.t_bp, n_gd=args.n_gd, gamma=args.gamma, chi=args.chi,
        init=_INIT_SPECS[args.init](args.seed, args.init_beta, variational.SqrtInit.j),
        init_noise=args.init_noise, noise_seed=args.seed, bp_damping=args.bp_damping,
    )


def _trace_rows(hx, restart, trace: variational.VarTrace, n: int):
    rows = []
    energies = trace.energies
    for it, e in enumerate(energies, start=1):
        tail = energies[max(0, it - 3):it]
        settled = len(tail) == 3 and max(tail) - min(tail) <= 1e-6 * max(1.0, abs(e))
        rows.append((hx, restart, it, e, e / n, trace.mean_abs_z[it - 1],
                     trace.mean_x[it - 1], trace.mean_zz[it - 1], settled))
    return rows


def _check_oracle(args, g: graph.Graph) -> None:
    if args.oracle and g.n > 14:
        raise ValueError("--oracle requires n <= 14")


def cmd_var_prep(args) -> None:
    g = graph.load_graph(args.graph)
    _check_oracle(args, g)
    params = {k: getattr(args, k) for k in hamiltonian.MODELS[args.model][1]}
    h = hamiltonian.build_model(args.model, g, params)
    cfg = _var_config(args)
    trace = variational.variational_prepare(g, h, cfg)
    _write_csv(os.path.join(args.out_dir, "var_prep.csv"), _TRACE_HEADER, _trace_rows(args.hx, 0, trace, g.n))
    summary = {"model": args.model, "params": params, "final_energy": trace.energies[-1],
               "final_energy_density": trace.energies[-1] / g.n}
    if args.oracle:
        ed = oracles.exact_diagonalize(h)
        psi = states.to_statevector(trace.final_state)
        f0 = float(abs(np.vdot(ed.v0, psi)) ** 2)
        summary.update({
            "ed_e0": ed.e0,
            "ed_e1": ed.e1,
            "relative_energy_error": (trace.energies[-1] - ed.e0) / abs(ed.e0) if ed.e0 else None,
            "fidelity_ground": f0,
            "ground_space_overlap": f0 + float(abs(np.vdot(ed.v1, psi)) ** 2),
        })
    _write_json(os.path.join(args.out_dir, "var_prep_summary.json"), summary)
    if args.save_state:
        states.save_state(trace.final_state, os.path.join(args.out_dir, "var_prep_state.json"))


def cmd_tfim_sweep(args) -> None:
    g = graph.load_graph(args.graph)
    _check_oracle(args, g)
    hxs = _grid(args.hx_grid)
    points = variational.sweep(g, hxs, _var_config(args), args.restarts, args.seed, workers=args.threads)
    trace_rows = [row for pt in points for row in _trace_rows(pt.hx, pt.restart, pt.trace, g.n)]
    _write_csv(os.path.join(args.out_dir, "tfim_sweep_trace.csv"), _TRACE_HEADER, trace_rows)
    columns = [f.name for f in dataclasses.fields(variational.SweepPoint) if f.name != "trace"]
    _write_csv(os.path.join(args.out_dir, "tfim_sweep.csv"), columns,
               [[getattr(pt, c) for c in columns] for pt in points])
    if args.oracle:
        ed_rows = []
        for hx in hxs:
            h = hamiltonian.transverse_field_ising(g, float(hx))
            ed = oracles.exact_diagonalize(h)
            zmean = float(np.mean([abs(np.trace(oracles.statevector_rdm(ed.v0, g.n, (a,)) @ PAULI_Z).real)
                                   for a in range(g.n)]))
            ed_rows.append((hx, ed.e0, ed.e0 / g.n, ed.e1, zmean))
        _write_csv(os.path.join(args.out_dir, "tfim_sweep_ed.csv"),
                   ["hx", "e0", "e0_density", "e1", "ed_mean_abs_z"], ed_rows)


def _add_common(p):
    p.add_argument("--seed", type=int, default=0, help="base seed for all randomness")
    p.add_argument("--threads", type=int, default=1,
                   help="tfim-sweep worker processes, one BLAS thread each; other subcommands only record it")
    p.add_argument("--out-dir", default=".", help="directory for outputs and resolved config")
    p.add_argument("--config", default=None, help="JSON file of argument defaults")


def _add_var_common(p):
    p.add_argument("--chi", type=int, default=variational.VarConfig.chi)
    p.add_argument("--t-var", type=int, default=variational.VarConfig.t_var)
    p.add_argument("--t-bp", type=int, default=variational.VarConfig.t_bp)
    p.add_argument("--n-gd", type=int, default=variational.VarConfig.n_gd)
    p.add_argument("--gamma", type=float, default=variational.VarConfig.gamma)
    p.add_argument("--init", choices=list(_INIT_SPECS), default="product")
    p.add_argument("--init-beta", type=float, default=0.2, help="beta for --init sqrt")
    p.add_argument("--init-noise", type=float, default=variational.VarConfig.init_noise)
    p.add_argument("--bp-damping", type=float, default=variational.VarConfig.bp_damping)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsetn",
                                     description="Tensor networks on sparse graphs via belief propagation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph-gen", help="generate a graph and its diagnostics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=None, help="degree of the random regular graph")
    p.add_argument("--tree", action="store_true", help="build a complete tree instead")
    p.add_argument("--branching", type=int, default=2)
    p.add_argument("--max-cycle-len", type=int, default=8)
    p.add_argument("--out", default=None, help="graph JSON path (default <out-dir>/graph.json)")
    _add_common(p)
    p.set_defaults(func=cmd_graph_gen)

    p = sub.add_parser("bp-run", help="run message iteration on a state and export diagnostics")
    p.add_argument("--graph", required=True)
    p.add_argument("--state", choices=["graph", *_INIT_SPECS], default="graph")
    p.add_argument("--beta", type=float, default=0.4)
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--chi", type=int, default=2)
    p.add_argument("--init", choices=["identity", "random"], default=bp.BpConfig.init)
    p.add_argument("--max-steps", type=int, default=bp.BpConfig.max_steps)
    p.add_argument("--tol", type=float, default=bp.BpConfig.rdm_tolerance)
    p.add_argument("--damping", type=float, default=bp.BpConfig.damping)
    p.add_argument("--save-messages", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_bp_run)

    p = sub.add_parser("graphstate-check", help="observables of the graph state per message step")
    p.add_argument("--graph", required=True)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--init", choices=["identity", "random"], default=bp.BpConfig.init)
    p.add_argument("--damping", type=float, default=bp.BpConfig.damping)
    _add_common(p)
    p.set_defaults(func=cmd_graphstate_check)

    p = sub.add_parser("sqrt-sweep", help="square-root-state observables vs inverse temperature")
    p.add_argument("--graph", required=True)
    p.add_argument("--betas", default="0.1:1.2:0.1", help="start:stop:step or comma list")
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--init", choices=["identity", "random"], default="random")
    p.add_argument("--max-steps", type=int, default=300)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--damping", type=float, default=0.0)
    p.add_argument("--mc-sweeps", type=int, default=6000)
    p.add_argument("--mc-burn-in", type=int, default=1000)
    p.add_argument("--exact", action=argparse.BooleanOptionalAction, default=None,
                   help="add exhaustive-enumeration columns (default: on for n <= 12)")
    _add_common(p)
    p.set_defaults(func=cmd_sqrt_sweep)

    p = sub.add_parser("var-prep", help="variational ground-state preparation")
    p.add_argument("--graph", required=True)
    p.add_argument("--model", choices=list(hamiltonian.MODELS), default="mixed_field_ising")
    p.add_argument("--jzz", type=float, default=-1.0)
    p.add_argument("--hx", type=float, default=-2.0)
    p.add_argument("--hz", type=float, default=-0.5)
    p.add_argument("--oracle", action="store_true", help="compare against exact diagonalization (n <= 14)")
    p.add_argument("--save-state", action="store_true")
    _add_var_common(p)
    _add_common(p)
    p.set_defaults(func=cmd_var_prep)

    p = sub.add_parser("tfim-sweep", help="transverse-field phase diagram with restarts")
    p.add_argument("--graph", required=True)
    p.add_argument("--hx-grid", default="0.5:4.0:0.25")
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--oracle", action="store_true")
    _add_var_common(p)
    _add_common(p)
    p.set_defaults(func=cmd_tfim_sweep)

    return parser


def _apply_config_file(parser, argv):
    """Use --config values as defaults: they go before the command line's flags, and argparse keeps the last."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")  # a --config without a path is left for the full parser to report
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = subparsers.choices.get(argv[0])
    if command is None:
        raise ValueError("--config must follow a subcommand")
    with open(path) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ValueError(f"config file {path} does not hold a JSON object")
    flags = {a.dest: a.option_strings for a in command._actions}
    extra = []
    for key, val in values.items():
        if not flags.get(key):
            raise ValueError(f"config file {path} has key '{key}', which is no option of {argv[0]}")
        if isinstance(val, bool):  # the action's own --flag, or --no-flag where it has one
            extra += [f for f in flags[key] if f.startswith("--no-") != val][:1]
        elif isinstance(val, (int, float, str)):  # one token, so a value such as -0.5,0.5 is not read as a flag
            extra.append(f"{flags[key][0]}={val}")
    return argv[:1] + extra + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise ValueError("--threads must be >= 1")
        os.makedirs(args.out_dir, exist_ok=True)
        args.func(args)
        cfg = {k: v for k, v in vars(args).items() if k not in ("command", "func", "config")}
        _write_json(os.path.join(args.out_dir, f"{args.command.replace('-', '_')}_config.json"), cfg)
        return 0
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory ({str(exc) or 'allocation failed'}); use a smaller graph or bond dimension",
              file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
