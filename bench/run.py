"""Benchmark of the ``sparsetn`` command line.

Run from the repository root:

    python3 bench/run.py --workload sqrt-sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0

One run times the set-up (import plus ``graph-gen`` of the input graph) in
several fresh interpreters, then runs the workload's CLI command as a closed
loop: one round at a time, each in a fresh interpreter as a CLI user would,
at least two rounds and more while the next is expected to end within
``--seconds``. Times are reported at a fixed reference host speed, which
``hostspeed`` samples inside each timed process. Every round's outputs are
checked against references computed apart from the program, and against the
first round's bytes. With ``--trace 1`` plain and traced rounds alternate and
per-layer metrics are reported instead of end-to-end ones. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy
import scipy

import checks
import hostspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "run_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "bp.bp_step.calls": "count",
    "bp.bp_step.s": "s",
    "bp.bp_step.einsum_calls": "count",
    "bp.bp_step.updates_per_s": "1/s",
    "bp.run_bp.calls": "count",
    "bp.run_bp.steps": "count",
    "bp.run_bp.check_s": "s",
    "bp.rdm.calls": "count",
    "bp.rdm.s": "s",
    "bp.site_averaged_observables.calls": "count",
    "bp.site_averaged_observables.s": "s",
    "variational.variational_prepare.s": "s",
    "variational.descent.s": "s",
    "variational.descent.einsum_calls": "count",
    "variational.energy.calls": "count",
    "variational.energy.s": "s",
    "oracles.classical_ising_mc.s": "s",
    "oracles.classical_ising_mc.flips_per_s": "1/s",
    "oracles.exact_diagonalize.s": "s",
    "states.to_statevector.calls": "count",
    "states.to_statevector.s": "s",
    "graph.random_regular.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def _environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    blas_env = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                if k in os.environ}
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "blas_threads": blas_env or "library default", "git_sha": sha}


def _child(mode: str, traced: bool, cli_argv) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its JSON report."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), mode, str(int(traced)), *cli_argv],
                          env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return {"exit_code": proc.returncode or 1}
    return json.loads(lines[-1])


def _read_outputs(out_dir) -> dict:
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


class Bench:
    """One workload at one seed: its set-up, its rounds and their checks."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.dir = os.path.join(OUT, workload.name)
        self.out_dir = os.path.join(self.dir, "out")
        self.graph_path = os.path.join(self.dir, "graph.json")
        self.gen_argv = ["graph-gen", "--n", str(workload.n), "--r", str(workloads.R), "--seed",
                         str(workload.graph_seed(seed)), "--out", self.graph_path, "--out-dir",
                         os.path.join(self.dir, "graph")]
        self.argv = workload.args(seed) + ["--graph", self.graph_path, "--threads", "1",
                                           "--out-dir", self.out_dir]
        self.reference = None  # the first round's output bytes

    def setup(self, traced: bool = False) -> dict:
        report = _child("setup", traced, self.gen_argv)
        if report["exit_code"] != 0:
            raise RuntimeError(f"graph-gen exited with code {report['exit_code']}")
        with open(self.graph_path, "rb") as fh:
            checks.check_graph(fh.read(), self.workload.n, workloads.R)
        return report

    def round(self, traced: bool) -> dict:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        report = _child("round", traced, self.argv)
        ops = self.workload.ops
        if report["exit_code"] != 0:
            report["problems"] = [f"exit code {report['exit_code']}"] * ops
            return report
        files = _read_outputs(self.out_dir)
        try:
            problems = self.workload.check(files)
        except (KeyError, ValueError) as exc:
            problems = [f"unreadable outputs: {exc!r}"] * ops
        if self.reference is None:
            self.reference = files
        elif files != self.reference:
            changed = sorted(k for k in set(files) | set(self.reference) if files.get(k) != self.reference.get(k))
            problems = [f"outputs differ from the first round: {', '.join(changed)}"] * ops
        report["problems"] = problems
        return report


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    bench = Bench(workloads.WORKLOADS[name], seed)
    shutil.rmtree(bench.dir, ignore_errors=True)
    os.makedirs(bench.dir)
    bench.setup()  # untimed: fills the file cache and writes the bytecode caches
    setup = [bench.setup() for _ in range(SETUP_SAMPLES)]
    start = time.perf_counter()
    rounds, walls = [], []
    while True:
        t0 = time.perf_counter()
        rounds.append(bench.round(traced and len(rounds) % 2 == 1))
        walls.append(time.perf_counter() - t0)
        expected_end = time.perf_counter() - start + statistics.median(walls)
        if len(rounds) >= 2 and len(rounds) % (2 if traced else 1) == 0 and expected_end > seconds:
            break
    problems = [p for r in rounds for p in r["problems"]]
    failed = sum(p is not None for p in problems)
    crashed = sum(r["exit_code"] != 0 for r in rounds) * bench.workload.ops
    ran = [r for r in rounds if r["exit_code"] == 0]
    if traced:
        gen = bench.setup(traced=True)
        with_trace = [r for r in ran if r["layers"] is not None]
        plain = [r for r in ran if r["layers"] is None]
        if not with_trace or not plain:
            raise RuntimeError(f"{name}: no traced or no plain round ended")
        values = {k: statistics.median_low(r["layers"][k] for r in with_trace) for k in with_trace[0]["layers"]}
        values["graph.random_regular.s"] = gen["layers"]["graph.random_regular.s"]
        values["trace.overhead_s"] = (statistics.median(r["seconds"] for r in with_trace)
                                      - statistics.median(r["seconds"] - r["host"]["probe_s"] for r in plain))
        units = PER_LAYER
    else:
        if not ran:
            raise RuntimeError(f"{name}: every round failed: {problems[0]}")
        values = {"setup_s": statistics.median(hostspeed.rescale(r["seconds"], r["host"]) for r in setup),
                  "run_ref_s": statistics.median(hostspeed.rescale(r["seconds"], r["host"]) for r in ran),
                  "cpu_ref_s": statistics.median(hostspeed.rescale(r["cpu_s"], r["host"]) for r in ran),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ran)}
        print(f"{name}: unscaled medians: setup_s = {statistics.median(r['seconds'] for r in setup):.4g} s, "
              f"run_s = {statistics.median(r['seconds'] for r in ran):.4g} s, "
              f"cpu_s = {statistics.median(r['cpu_s'] for r in ran):.4g} s; host probe median "
              f"{statistics.median(r['host']['probe_median_s'] for r in ran) * 1e3:.4g} ms "
              f"(reference {hostspeed.PROBE_REF_S * 1e3:.4g} ms)")
        units = END_TO_END
    result = {"correct": failed == crashed, "attempted": len(problems), "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
              "environment": _environment(), "setup": setup, "argv": bench.argv, "rounds": rounds,
              "result": result}
    with open(os.path.join(bench.dir, f"result_trace{int(traced)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for i, p in enumerate(problems):
        if p is not None:
            print(f"{name}: operation {i} failed: {p}", file=sys.stderr)
    return result


def _report(name: str, result: dict) -> None:
    print(f"{name}: {result['attempted']} operations attempted, {result['failed']} failed, "
          f"outputs {'correct' if result['correct'] else 'WRONG'}")
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sparsetn", "cli.py")):
        print(f"error: no sparsetn sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace))
        _report(name, result)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        total["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
