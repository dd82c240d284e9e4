"""CLI failure paths, config round trips and CSV number formatting."""

import csv
import json

import numpy as np
import pytest

from sparsetn import cli, states
from sparsetn.cli import main
from sparsetn.graph import random_regular, save_graph


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.json"
    save_graph(random_regular(12, 3, seed=4), path)
    return str(path)


@pytest.fixture
def small_graph_file(tmp_path):
    path = tmp_path / "g6.json"
    save_graph(random_regular(6, 3, seed=3), path)
    return str(path)


def test_no_exact_round_trips_through_config(tmp_path, graph_file):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["sqrt-sweep", "--graph", graph_file, "--betas", "0.4", "--mc-sweeps", "300",
                 "--mc-burn-in", "100", "--no-exact", "--out-dir", str(d1)]) == 0
    cfg_path = d1 / "sqrt_sweep_config.json"
    assert json.loads(cfg_path.read_text())["exact"] is False
    assert main(["sqrt-sweep", "--config", str(cfg_path), "--out-dir", str(d2)]) == 0
    assert (d1 / "sqrt_sweep.csv").read_bytes() == (d2 / "sqrt_sweep.csv").read_bytes()
    assert not any(col.startswith("exact_") for col in read_csv(d2 / "sqrt_sweep.csv")[0])


@pytest.mark.parametrize("command,output", [("var-prep", "var_prep.csv"), ("tfim-sweep", "tfim_sweep.csv")])
def test_oracle_rejected_before_the_run(tmp_path, capsys, command, output):
    gpath = tmp_path / "g16.json"
    save_graph(random_regular(16, 3, seed=0), gpath)
    code = main([command, "--graph", str(gpath), "--oracle", "--t-var", "1", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "n <= 14" in capsys.readouterr().err
    assert not (tmp_path / output).exists()


def test_oracle_contracts_the_statevector_once(tmp_path, small_graph_file, monkeypatch):
    calls = []
    contract = states.to_statevector

    def counted(state):
        calls.append(state)
        return contract(state)

    monkeypatch.setattr(states, "to_statevector", counted)
    assert main(["var-prep", "--graph", small_graph_file, "--t-var", "2", "--oracle",
                 "--out-dir", str(tmp_path)]) == 0
    assert len(calls) == 1
    summary = json.loads((tmp_path / "var_prep_summary.json").read_text())
    assert 0.0 <= summary["fidelity_ground"] <= summary["ground_space_overlap"] <= 1.0 + 1e-12


def test_memory_error_exits_2(tmp_path, small_graph_file, monkeypatch, capsys):
    def out_of_memory(state):
        raise MemoryError("Unable to allocate 1.00 TiB")

    monkeypatch.setattr(states, "to_statevector", out_of_memory)
    code = main(["var-prep", "--graph", small_graph_file, "--t-var", "1", "--oracle",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "memory" in err


def test_numpy_floats_are_written_as_plain_numbers(tmp_path):
    path = tmp_path / "x.csv"
    cli._write_csv(str(path), ["a", "b"], [(np.float64(0.1), 0.25)])
    assert path.read_text().splitlines() == ["a,b", "0.1,0.25"]


def test_tfim_sweep_rejects_zero_threads(tmp_path, small_graph_file):
    code = main(["tfim-sweep", "--graph", small_graph_file, "--hx-grid", "1.0", "--t-var", "1",
                 "--threads", "0", "--out-dir", str(tmp_path)])
    assert code == 2
