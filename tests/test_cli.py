import csv
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import reference_kernels as ref
from sparsetn import bp, oracles, variational
from sparsetn.cli import _grid, main
from sparsetn.graph import graph_from_json, load_graph, random_regular, save_graph
from sparsetn.hamiltonian import transverse_field_ising
from sparsetn.oracles import exact_diagonalize
from sparsetn.states import graph_state, random_state


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.json"
    save_graph(random_regular(12, 3, seed=4), path)
    return str(path)


class TestGraphGen:
    def test_random_regular_output(self, tmp_path):
        out = tmp_path / "g.json"
        code = main(["graph-gen", "--n", "40", "--r", "3", "--seed", "7",
                     "--out", str(out), "--out-dir", str(tmp_path)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["n"] == 40 and len(data["edges"]) == 60
        rows = {r["key"]: r["value"] for r in read_csv(tmp_path / "graph_diagnostics.csv")}
        assert rows["degree_3"] == "40"
        assert (tmp_path / "graph_gen_config.json").exists()

    def test_tree_mode(self, tmp_path):
        code = main(["graph-gen", "--tree", "--n", "15", "--branching", "2",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        rows = {r["key"]: r["value"] for r in read_csv(tmp_path / "graph_diagnostics.csv")}
        assert rows["is_tree"] == "1"
        assert all(rows.get(f"cycles_{k}", "0") == "0" for k in range(3, 9))

    def test_single_vertex_tree(self, tmp_path):
        assert main(["graph-gen", "--tree", "--n", "1", "--out-dir", str(tmp_path)]) == 0
        rows = {r["key"]: r["value"] for r in read_csv(tmp_path / "graph_diagnostics.csv")}
        assert rows["n"] == "1" and rows["edges"] == "0"
        assert "expansion" not in rows

    def test_parity_error_exit_code(self, tmp_path, capsys):
        code = main(["graph-gen", "--n", "5", "--r", "3", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "even" in capsys.readouterr().err

    def test_needs_tree_or_degree(self, tmp_path, capsys):
        assert main(["graph-gen", "--n", "6", "--out-dir", str(tmp_path)]) == 2
        assert "error: either --tree or --r is required" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestBpRun:
    def test_graph_state_observables(self, tmp_path, graph_file):
        code = main(["bp-run", "--graph", graph_file, "--state", "graph",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        obs = json.loads((tmp_path / "bp_observables.json").read_text())
        assert obs["converged"]
        assert abs(obs["edge_entropy"] - 2 * np.log(2)) < 1e-8
        rows = read_csv(tmp_path / "bp_diagnostics.csv")
        assert len(rows) == obs["steps_run"]

    def test_save_messages(self, tmp_path, graph_file):
        code = main(["bp-run", "--graph", graph_file, "--state", "sqrt", "--beta", "0.3",
                     "--save-messages", "--out-dir", str(tmp_path)])
        assert code == 0
        msgs = json.loads((tmp_path / "bp_messages.json").read_text())
        assert len(msgs) == 2 * 18  # one message per directed edge

    def test_product_state_is_x_polarized(self, tmp_path, graph_file):
        assert main(["bp-run", "--graph", graph_file, "--state", "product", "--out-dir", str(tmp_path)]) == 0
        obs = json.loads((tmp_path / "bp_observables.json").read_text())
        assert obs["converged"]
        assert abs(obs["mean_x"] - 1.0) < 1e-12 and abs(obs["mean_abs_z"]) < 1e-12

    def test_random_state_matches_library(self, tmp_path, graph_file):
        assert main(["bp-run", "--graph", graph_file, "--state", "random", "--chi", "3", "--seed", "5",
                     "--out-dir", str(tmp_path)]) == 0
        obs = json.loads((tmp_path / "bp_observables.json").read_text())
        _, diag = bp.run_bp(random_state(load_graph(graph_file), 3, 5), bp.BpConfig(init_seed=5))
        assert (obs["converged"], obs["steps_run"]) == (diag.converged, diag.steps_run)
        expected = dataclasses.asdict(bp._site_averages(diag.env))
        assert {k: obs[k] for k in expected} == expected

    @pytest.mark.parametrize("kind,spec", [
        ("product", variational.ProductInit()),
        ("sqrt", variational.SqrtInit(beta=0.3, j=1.5)),
        ("random", variational.RandomInit(seed=5)),
    ])
    def test_states_are_the_library_init_specs(self, tmp_path, graph_file, monkeypatch, kind, spec):
        built, run_bp = [], bp.run_bp
        monkeypatch.setattr(bp, "run_bp", lambda state, cfg: built.append(state) or run_bp(state, cfg))
        assert main(["bp-run", "--graph", graph_file, "--state", kind, "--beta", "0.3", "--j", "1.5", "--chi", "3",
                     "--seed", "5", "--out-dir", str(tmp_path)]) == 0
        expected = spec.state(load_graph(graph_file), 3, 2)
        assert built[0].phys_dim == expected.phys_dim == 2
        assert ([(t.shape, t.tobytes()) for t in built[0].site_tensors]
                == [(t.shape, t.tobytes()) for t in expected.site_tensors])

    @pytest.mark.parametrize("kind", ["sqrt", "graph"])
    def test_diagnostics_are_the_exact_deltas(self, tmp_path, graph_file, kind):
        assert main(["bp-run", "--graph", graph_file, "--state", kind, "--beta", "0.6", "--init", "random",
                     "--seed", "3", "--max-steps", "300", "--tol", "1e-9", "--out-dir", str(tmp_path)]) == 0
        g = load_graph(graph_file)
        state = variational.SqrtInit(beta=0.6).state(g, 2, 2) if kind == "sqrt" else graph_state(g)
        rows = read_csv(tmp_path / "bp_diagnostics.csv")
        assert len(rows) > 2
        for row, (rdm_delta, msg_delta) in zip(rows, ref.run_bp_deltas(state, bp.init_messages(state, "random", 3),
                                                                        len(rows)), strict=True):
            assert abs(float(row["max_rdm_trace_distance"]) - rdm_delta) <= 1e-12
            assert abs(float(row["max_message_delta"]) - msg_delta) <= 1e-12


class TestGraphstateCheck:
    def test_columns_and_fixed_point(self, tmp_path, graph_file):
        code = main(["graphstate-check", "--graph", graph_file, "--steps", "6",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "graphstate_check.csv")
        assert len(rows) == 6
        last = rows[-1]
        assert abs(float(last["edge_entropy"]) - 2 * np.log(2)) < 1e-8
        for col in ("mean_abs_z", "mean_x", "mean_y"):
            assert abs(float(last[col])) < 1e-8

    def test_trace_distances_are_exact(self, tmp_path, graph_file):
        assert main(["graphstate-check", "--graph", graph_file, "--init", "random", "--seed", "3", "--steps", "6",
                     "--out-dir", str(tmp_path)]) == 0
        state = graph_state(load_graph(graph_file))
        rows = read_csv(tmp_path / "graphstate_check.csv")
        for row, (rdm_delta, _) in zip(rows, ref.run_bp_deltas(state, bp.init_messages(state, "random", 3), 6),
                                       strict=True):
            assert abs(float(row["max_rdm_trace_distance"]) - rdm_delta) <= 1e-12


class TestSqrtSweep:
    def test_exact_columns_at_small_size(self, tmp_path, graph_file):
        code = main(["sqrt-sweep", "--graph", graph_file, "--betas", "0.1,0.8",
                     "--mc-sweeps", "800", "--mc-burn-in", "200",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "sqrt_sweep.csv")
        assert [r["beta"] for r in rows] == ["0.1", "0.8"]
        assert "exact_mean_abs_z" in rows[0]
        assert float(rows[0]["bp_mean_x"]) > 0.9
        assert (tmp_path / "sqrt_sweep_deviations.json").exists()

    def test_exact_above_16_sites_rejected_before_any_work(self, tmp_path, capsys, monkeypatch):
        gpath = tmp_path / "g18.json"
        save_graph(random_regular(18, 3, seed=0), gpath)
        calls = []
        monkeypatch.setattr(bp, "run_bp", lambda *args, **kwargs: calls.append("run_bp"))
        monkeypatch.setattr(oracles, "classical_ising_mc", lambda *args, **kwargs: calls.append("mc"))
        code = main(["sqrt-sweep", "--graph", str(gpath), "--betas", "0.4", "--exact", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "error: exact enumeration columns require n <= 16" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "sqrt_sweep.csv").exists()

    def test_beta_zero_row_is_fully_x_polarized(self, tmp_path, graph_file):
        code = main(["sqrt-sweep", "--graph", graph_file, "--betas", "0.0",
                     "--mc-sweeps", "300", "--mc-burn-in", "100", "--no-exact",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        row = read_csv(tmp_path / "sqrt_sweep.csv")[0]
        assert abs(float(row["bp_mean_x"]) - 1.0) <= 1e-8

    def test_rerun_is_bit_identical(self, tmp_path, graph_file):
        args = ["sqrt-sweep", "--graph", graph_file, "--betas", "0.2,0.5",
                "--mc-sweeps", "400", "--mc-burn-in", "100", "--seed", "3"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(d1)]) == 0
        assert main(args + ["--out-dir", str(d2)]) == 0
        assert (d1 / "sqrt_sweep.csv").read_bytes() == (d2 / "sqrt_sweep.csv").read_bytes()

    def test_config_file_reproduces_run(self, tmp_path, graph_file):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["sqrt-sweep", "--graph", graph_file, "--betas", "0.4",
                     "--mc-sweeps", "400", "--mc-burn-in", "100", "--seed", "5",
                     "--out-dir", str(d1)]) == 0
        cfg_path = d1 / "sqrt_sweep_config.json"
        assert cfg_path.exists()
        assert main(["sqrt-sweep", "--config", str(cfg_path), "--out-dir", str(d2)]) == 0
        assert (d1 / "sqrt_sweep.csv").read_bytes() == (d2 / "sqrt_sweep.csv").read_bytes()


    def test_one_beta_per_chunk_is_byte_identical(self, tmp_path, graph_file, monkeypatch):
        """The BP driver's memory budget splits the betas into chunks without moving a bit of the output."""
        args = ["sqrt-sweep", "--graph", graph_file, "--betas", "0.2,0.5,0.8", "--mc-sweeps", "400", "--mc-burn-in",
                "100", "--seed", "3"]
        sizes, converge = [], bp._converge
        monkeypatch.setattr(bp, "_converge", lambda runs, *rest: sizes.append(len(runs)) or converge(runs, *rest))
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        monkeypatch.setattr(bp, "_CHUNK_ENTRIES", 1)
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        assert sizes == [3, 1, 1, 1]
        assert (tmp_path / "a" / "sqrt_sweep.csv").read_bytes() == (tmp_path / "b" / "sqrt_sweep.csv").read_bytes()

    def test_failure_names_its_beta(self, tmp_path, graph_file, capsys, monkeypatch):
        init = bp.init_messages

        def dead_second_beta(state, kind, seed):
            msgs = init(state, kind, seed)
            return {key: np.zeros_like(m) for key, m in msgs.items()} if seed == 4 else msgs

        monkeypatch.setattr(bp, "init_messages", dead_second_beta)
        assert main(["sqrt-sweep", "--graph", graph_file, "--betas", "0.2,0.5,0.8", "--mc-sweeps", "400",
                     "--mc-burn-in", "100", "--seed", "3", "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"numerical failure: beta=0\.5: BP step 1: message 0->\d+ lost positivity \(trace=0\.0\)\n",
                            err), err
        assert not (tmp_path / "sqrt_sweep.csv").exists()

    def test_blas_threads_preserve_output(self, tmp_path, graph_file):
        """The stacked betas' real matmuls give the same bits under one and two BLAS threads."""
        src = os.path.dirname(os.path.dirname(bp.__file__))
        outs = [tmp_path / f"blas{t}" for t in ("1", "2")]
        for t, out in zip(("1", "2"), outs):
            argv = ["sqrt-sweep", "--graph", graph_file, "--betas", "0.2,0.5,0.8", "--mc-sweeps", "300",
                    "--mc-burn-in", "100", "--out-dir", str(out)]
            code = f"import sys; from sparsetn.cli import main; sys.exit(main({argv!r}))"
            subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                           env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=t, OMP_NUM_THREADS=t))
        assert (outs[0] / "sqrt_sweep.csv").read_bytes() == (outs[1] / "sqrt_sweep.csv").read_bytes()


class TestVarPrep:
    def test_zero_hamiltonian_flat_trace(self, tmp_path, graph_file):
        code = main(["var-prep", "--graph", graph_file, "--model", "mixed_field_ising",
                     "--jzz", "0", "--hx", "0", "--hz", "0", "--t-var", "3",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "var_prep.csv")
        assert len(rows) == 3
        assert all(float(r["energy"]) == 0.0 for r in rows)

    def test_numerical_failure_exit_code(self, tmp_path, graph_file, capsys):
        # an absurd step size makes the inner descent rise, which is a
        # numerical failure (exit 3), not a configuration error
        code = main(["var-prep", "--graph", graph_file, "--model", "tfim", "--hx", "1.0",
                     "--t-var", "5", "--gamma", "5.0", "--out-dir", str(tmp_path)])
        assert code == 3
        assert "step" in capsys.readouterr().err

    def test_oracle_summary(self, tmp_path):
        gpath = tmp_path / "g10.json"
        save_graph(random_regular(10, 3, seed=1), gpath)
        code = main(["var-prep", "--graph", str(gpath), "--model", "mixed_field_ising",
                     "--jzz", "-1", "--hx", "-2", "--hz", "-0.5", "--t-var", "60",
                     "--chi", "2", "--oracle", "--save-state", "--out-dir", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "var_prep_summary.json").read_text())
        assert summary["relative_energy_error"] < 0.02
        assert summary["ground_space_overlap"] > 0.9
        assert (tmp_path / "var_prep_state.json").exists()

    def test_sqrt_init_reaches_the_ground_state(self, tmp_path):
        # from square_root_state's copy gauge the error was 4.3e-3 and the fidelity 0.76
        gpath = tmp_path / "g12.json"
        save_graph(random_regular(12, 3, seed=1), gpath)
        assert main(["var-prep", "--graph", str(gpath), "--init", "sqrt", "--oracle", "--seed", "1",
                     "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "var_prep_summary.json").read_text())
        assert abs(summary["relative_energy_error"]) < 1e-3
        assert summary["fidelity_ground"] > 0.99


    @pytest.mark.parametrize("init,flags,spec", [
        ("sqrt", ["--init-beta", "0.3"], variational.SqrtInit(beta=0.3)),
        ("random", [], variational.RandomInit(seed=4)),
        ("product", [], variational.ProductInit()),
    ])
    def test_init_kinds_match_library(self, tmp_path, graph_file, init, flags, spec):
        code = main(["var-prep", "--graph", graph_file, "--model", "tfim", "--hx", "1.5", "--t-var", "3",
                     "--init", init, *flags, "--seed", "4", "--out-dir", str(tmp_path)])
        assert code == 0
        g = load_graph(graph_file)
        trace = variational.variational_prepare(g, transverse_field_ising(g, 1.5),
                                                variational.VarConfig(t_var=3, init=spec, noise_seed=4))
        rows = read_csv(tmp_path / "var_prep.csv")
        assert [float(r["energy"]) for r in rows] == trace.energies
        assert [float(r["mean_abs_z"]) for r in rows] == trace.mean_abs_z


class TestTfimSweep:
    def test_trace_and_summary_files(self, tmp_path):
        gpath = tmp_path / "g8.json"
        save_graph(random_regular(8, 3, seed=2), gpath)
        code = main(["tfim-sweep", "--graph", str(gpath), "--hx-grid", "0.5,4.0",
                     "--restarts", "2", "--t-var", "12", "--out-dir", str(tmp_path)])
        assert code == 0
        summary = read_csv(tmp_path / "tfim_sweep.csv")
        assert [(r["hx"], r["restart"]) for r in summary] == [
            ("0.5", "0"), ("0.5", "1"), ("4.0", "0"), ("4.0", "1")]
        trace = read_csv(tmp_path / "tfim_sweep_trace.csv")
        assert len(trace) == 4 * 12
        assert set(trace[0]) == {"hx", "restart", "iteration", "energy", "energy_density",
                                 "mean_abs_z", "mean_x", "mean_zz", "converged"}
        para = [r for r in summary if r["hx"] == "4.0"]
        assert all(float(r["mean_x"]) > 0.85 for r in para)

    def test_uneven_thread_chunks_preserve_output(self, tmp_path):
        gpath = tmp_path / "g8.json"
        save_graph(random_regular(8, 3, seed=5), gpath)
        args = ["tfim-sweep", "--graph", str(gpath), "--hx-grid", "0.5,2.0,3.5", "--restarts", "1", "--t-var", "4"]
        outs = [tmp_path / f"t{n}" for n in (1, 2, 3)]
        for n, out in zip((1, 2, 3), outs):
            assert main(args + ["--out-dir", str(out), "--threads", str(n)]) == 0
        for name in ("tfim_sweep.csv", "tfim_sweep_trace.csv"):
            assert len({(out / name).read_bytes() for out in outs}) == 1

    def test_step_size_failure_names_its_job(self, tmp_path, graph_file, capsys):
        code = main(["tfim-sweep", "--graph", graph_file, "--hx-grid", "1.0,3.0", "--t-var", "5",
                     "--gamma", "5.0", "--out-dir", str(tmp_path)])
        assert code == 3
        assert "numerical failure: hx=1.0, restart=0: fixed-message energy rose" in capsys.readouterr().err

    def test_oracle_writes_exact_diagonalization(self, tmp_path):
        g = random_regular(8, 3, seed=2)
        save_graph(g, tmp_path / "g8.json")
        code = main(["tfim-sweep", "--graph", str(tmp_path / "g8.json"), "--hx-grid", "1.0,3.0", "--t-var", "2",
                     "--oracle", "--out-dir", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "tfim_sweep_ed.csv")
        assert list(rows[0]) == ["hx", "e0", "e0_density", "e1", "ed_mean_abs_z"]
        assert [float(r["hx"]) for r in rows] == [1.0, 3.0]
        for r in rows:
            e0 = float(r["e0"])
            assert e0 == exact_diagonalize(transverse_field_ising(g, float(r["hx"]))).e0
            assert float(r["e0_density"]) == e0 / g.n
            assert float(r["e1"]) >= e0
            assert 0.0 <= float(r["ed_mean_abs_z"]) <= 1.0

    def test_summary_columns_are_sweep_point_fields(self, tmp_path, graph_file):
        code = main(["tfim-sweep", "--graph", graph_file, "--hx-grid", "1.0,3.0", "--t-var", "2",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "tfim_sweep.csv") as fh:
            header = next(csv.reader(fh))
        assert header == ["hx", "restart", "noise_seed", "mean_abs_z", "mean_x", "mean_zz", "energy",
                          "energy_density", "bp_converged"]
        assert {r["bp_converged"] for r in read_csv(tmp_path / "tfim_sweep.csv")} <= {"0", "1"}

    def test_summary_failure_names_its_job(self, tmp_path, graph_file, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("BP step 1: message is not positive semidefinite")

        monkeypatch.setattr(variational, "run_bp", fail)
        code = main(["tfim-sweep", "--graph", graph_file, "--hx-grid", "1.0,3.0", "--t-var", "1",
                     "--out-dir", str(tmp_path)])
        assert code == 3
        assert "numerical failure: hx=1.0, restart=0: BP step 1: message" in capsys.readouterr().err

    def test_threads_preserve_output(self, tmp_path):
        gpath = tmp_path / "g6.json"
        save_graph(random_regular(6, 3, seed=3), gpath)
        args = ["tfim-sweep", "--graph", str(gpath), "--hx-grid", "1.0,3.0",
                "--restarts", "1", "--t-var", "5"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(d1), "--threads", "1"]) == 0
        assert main(args + ["--out-dir", str(d2), "--threads", "2"]) == 0
        assert (d1 / "tfim_sweep.csv").read_bytes() == (d2 / "tfim_sweep.csv").read_bytes()

    def test_blas_threads_preserve_output(self, tmp_path):
        """The chi = 2 layer's real matmuls give the same bits under one and two BLAS threads."""
        gpath = tmp_path / "g8.json"
        save_graph(random_regular(8, 3, seed=1), gpath)
        src = os.path.dirname(os.path.dirname(variational.__file__))
        outs = [tmp_path / f"blas{t}" for t in ("1", "2")]
        for t, out in zip(("1", "2"), outs):
            argv = ["tfim-sweep", "--graph", str(gpath), "--hx-grid", "1.0,3.0", "--restarts", "2", "--t-var", "5",
                    "--chi", "2", "--out-dir", str(out)]
            code = f"import sys; from sparsetn.cli import main; sys.exit(main({argv!r}))"
            subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                           env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=t, OMP_NUM_THREADS=t))
        for name in ("tfim_sweep.csv", "tfim_sweep_trace.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("spec,values", [
    ("0.1:1.2:0.1", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2]),
    ("0.5:4.0:0.25", [0.5 + 0.25 * k for k in range(15)]),
    ("-1:1:0.5", [-1.0, -0.5, 0.0, 0.5, 1.0]),
    ("0:1:0.3", [0.0, 0.3, 0.6, 0.9]),
    ("0.3:0.3:0.1", [0.3]),
])
def test_grid_spans_start_to_stop_inclusive(spec, values):
    assert _grid(spec) == values
