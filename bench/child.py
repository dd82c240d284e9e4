"""One fresh process of the benchmark: the set-up, or one round of a workload.

    python3 bench/child.py setup <trace 0|1> graph-gen <args...>
    python3 bench/child.py round <trace 0|1> <sparsetn CLI args...>

``setup`` times the import of ``sparsetn`` plus the CLI command; ``round``
times the CLI command alone, in wall and CPU time, and reports the process's
peak resident set size. Without trace, ``hostspeed.Sampler`` samples the host's
speed over the timed interval, and its report goes under ``host``. With trace 1
the command runs under ``spans.Tracer`` instead, unsampled, and the per-layer
metrics and span table are reported too. ``sparsetn`` must
be importable (the harness puts ``src`` on ``PYTHONPATH``). The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import hostspeed

T_START = time.perf_counter()
SAMPLER = hostspeed.Sampler() if sys.argv[1:3] == ["setup", "0"] else None
if SAMPLER is not None:
    SAMPLER.start()

from sparsetn import cli  # noqa: E402

import spans  # noqa: E402


def layer_metrics(tracer) -> dict:
    step = tracer.by_name("bp.bp_step")
    run_bp = tracer.by_name("bp.run_bp")
    rdm = tracer.by_name("bp.rdm")
    obs = tracer.by_name("bp.site_averaged_observables")
    prep = tracer.by_name("variational.variational_prepare")
    energy = tracer.by_name("variational.energy")
    mc = tracer.by_name("oracles.classical_ising_mc")
    statevector = tracer.by_name("states.to_statevector")
    steps_in_run_bp = tracer.spans.get(("bp.run_bp", "bp.bp_step"), [0, 0.0])[1]
    return {
        "bp.bp_step.calls": step[0],
        "bp.bp_step.s": step[1],
        "bp.bp_step.einsum_calls": step[3],
        "bp.bp_step.updates_per_s": step[4] / step[1] if step[1] else 0.0,
        "bp.run_bp.calls": run_bp[0],
        "bp.run_bp.steps": run_bp[4],
        "bp.run_bp.check_s": run_bp[1] - steps_in_run_bp,
        "bp.rdm.calls": rdm[0],
        "bp.rdm.s": rdm[1],
        "bp.site_averaged_observables.calls": obs[0],
        "bp.site_averaged_observables.s": obs[1],
        "variational.variational_prepare.s": prep[1],
        "variational.descent.s": prep[2],
        "variational.descent.einsum_calls": prep[3],
        "variational.energy.calls": energy[0],
        "variational.energy.s": energy[1],
        "oracles.classical_ising_mc.s": mc[1],
        "oracles.classical_ising_mc.flips_per_s": mc[4] / mc[1] if mc[1] else 0.0,
        "oracles.exact_diagonalize.s": tracer.by_name("oracles.exact_diagonalize")[1],
        "states.to_statevector.calls": statevector[0],
        "states.to_statevector.s": statevector[1],
        "graph.random_regular.s": tracer.by_name("graph.random_regular")[1],
        "cli.main.self_s": sum(rec[2] for (_, name), rec in tracer.spans.items() if name.startswith("cli.")),
    }


def main(argv) -> dict:
    mode, traced, cli_argv = argv[0], argv[1] == "1", argv[2:]
    tracer = spans.Tracer() if traced else None
    sampler = SAMPLER
    if tracer is not None:
        tracer.install()
    elif mode == "round":
        sampler = hostspeed.Sampler()
        sampler.start()
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        rc = cli.main(cli_argv)
    finally:
        elapsed = time.perf_counter() - (T_START if mode == "setup" else t0)
        cpu_s = time.process_time() - c0
        host = sampler.stop() if sampler is not None else None
        if tracer is not None:
            tracer.uninstall()
    return {"seconds": elapsed, "cpu_s": cpu_s, "exit_code": rc, "host": host,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "layers": layer_metrics(tracer) if tracer is not None else None,
            "spans": tracer.table() if tracer is not None else None}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
