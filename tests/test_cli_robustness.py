"""CLI failure paths, config round trips and CSV number formatting."""

import csv
import json
import os
import re

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


# one run per subcommand, each with a non-default value, plus its flags that write extra files
ROUND_TRIPS = [
    ["graph-gen", "--tree", "--n", "13", "--branching", "3", "--max-cycle-len", "6"],
    ["bp-run", "--graph", "{graph}", "--state", "sqrt", "--beta", "0.3", "--init", "random", "--seed", "2",
     "--save-messages"],
    ["graphstate-check", "--graph", "{graph}", "--steps", "4", "--damping", "0.2", "--init", "random"],
    ["var-prep", "--graph", "{graph}", "--model", "tfim", "--hx", "1.5", "--t-var", "3", "--chi", "3",
     "--oracle", "--save-state"],
    ["tfim-sweep", "--graph", "{graph}", "--hx-grid", "1.0,3.0", "--restarts", "2", "--t-var", "3",
     "--init-noise", "0.05"],
    ["sqrt-sweep", "--graph", "{graph}", "--betas=-0.5,0.5", "--mc-sweeps", "200", "--mc-burn-in", "50"],
]


@pytest.mark.parametrize("argv", ROUND_TRIPS, ids=lambda argv: argv[0])
def test_config_round_trips(tmp_path, small_graph_file, argv):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main([small_graph_file if a == "{graph}" else a for a in argv] + ["--out-dir", str(d1)]) == 0
    name = f"{argv[0].replace('-', '_')}_config.json"
    assert main([argv[0], "--config", str(d1 / name), "--out-dir", str(d2)]) == 0
    assert sorted(os.listdir(d1)) == sorted(os.listdir(d2))
    for out in os.listdir(d1):
        if out != name:
            assert (d1 / out).read_bytes() == (d2 / out).read_bytes(), out
    cfg1, cfg2 = (json.loads((d / name).read_text()) for d in (d1, d2))
    assert {k for k in cfg1 if cfg1[k] != cfg2[k]} == {"out_dir"}


def test_negative_exponent_float_round_trips(tmp_path, small_graph_file):
    # argparse takes a lone -1e-05 for a flag, so the replay must keep the value in the option's token
    argv = ["var-prep", "--graph", "{graph}", "--hz=-1e-05", "--t-var", "2"]
    test_config_round_trips(tmp_path, small_graph_file, argv)


def test_config_key_that_is_no_option_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 7, "tree": True, "max_cycle_length": 6}))
    assert main(["graph-gen", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config file") and "'max_cycle_length'" in err


def test_config_with_equals_sign_is_read(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["graph-gen", "--tree", "--n", "7", "--branching", "3", "--out-dir", str(d1)]) == 0
    assert main(["graph-gen", f"--config={d1 / 'graph_gen_config.json'}", "--out-dir", str(d2)]) == 0
    assert (d1 / "graph.json").read_bytes() == (d2 / "graph.json").read_bytes()
    assert json.loads((d2 / "graph_gen_config.json").read_text())["branching"] == 3


def test_config_without_path_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["graph-gen", "--config"])
    assert exc.value.code == 2
    assert "--config: expected one argument" in capsys.readouterr().err


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]\n")
    assert main(["graph-gen", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "error: config file" in capsys.readouterr().err


def test_failed_run_writes_no_config(tmp_path):
    assert main(["graph-gen", "--n", "5", "--r", "3", "--out-dir", str(tmp_path)]) == 2
    assert os.listdir(tmp_path) == []


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


def test_oracle_with_zero_ground_energy_has_no_relative_error(tmp_path, small_graph_file):
    assert main(["var-prep", "--graph", small_graph_file, "--jzz", "0", "--hx", "0", "--hz", "0", "--oracle",
                 "--t-var", "2", "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "var_prep_summary.json").read_text())
    assert summary["ed_e0"] == 0.0
    assert summary["relative_energy_error"] is None


@pytest.mark.parametrize("sweeps,burn_in", [("20", "5"), ("149", "100"), ("6000", "-1")])
def test_monte_carlo_flags_rejected_before_the_run(tmp_path, capsys, small_graph_file, sweeps, burn_in):
    code = main(["sqrt-sweep", "--graph", small_graph_file, "--mc-sweeps", sweeps, "--mc-burn-in", burn_in,
                 "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--mc-sweeps" in err and "--mc-burn-in" in err
    assert not list(tmp_path.glob("sqrt_sweep*"))


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


@pytest.mark.parametrize("tail", [[], ["graph-gen"]], ids=["alone", "before-subcommand"])
def test_config_before_subcommand_exits_2(tmp_path, capsys, tail):
    assert main(["graph-gen", "--tree", "--n", "7", "--out-dir", str(tmp_path)]) == 0
    assert main(["--config", str(tmp_path / "graph_gen_config.json")] + tail) == 2
    assert "error: --config must follow a subcommand" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["graph-gen", "--tree", "--n", "7"],
    ["bp-run", "--graph", "{graph}"],
    ["graphstate-check", "--graph", "{graph}", "--steps", "1"],
    ["sqrt-sweep", "--graph", "{graph}", "--betas", "0.4", "--mc-sweeps", "300", "--mc-burn-in", "100"],
    ["var-prep", "--graph", "{graph}", "--t-var", "1"],
], ids=lambda argv: argv[0])
def test_zero_threads_exits_2(tmp_path, capsys, small_graph_file, argv):
    out = tmp_path / "out"
    code = main([small_graph_file if a == "{graph}" else a for a in argv] + ["--threads", "0", "--out-dir", str(out)])
    assert code == 2
    assert "error: --threads must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_graphstate_check_rejects_steps_below_one(tmp_path, capsys, small_graph_file, steps):
    code = main(["graphstate-check", "--graph", small_graph_file, "--steps", steps, "--out-dir", str(tmp_path)])
    assert code == 2
    assert "error: --steps must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("graphstate_check*"))


@pytest.mark.parametrize("argv,spec", [
    (["sqrt-sweep", "--betas", "1:0:0.1", "--mc-sweeps", "300", "--mc-burn-in", "100"], "1:0:0.1"),
    (["tfim-sweep", "--hx-grid", "4:1:0.5", "--t-var", "1"], "4:1:0.5"),
], ids=["sqrt-sweep", "tfim-sweep"])
def test_empty_grid_exits_2(tmp_path, capsys, small_graph_file, argv, spec):
    code = main(argv[:1] + ["--graph", small_graph_file] + argv[1:] + ["--out-dir", str(tmp_path)])
    assert code == 2
    assert f"error: grid '{spec}' has no values" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_config.json"))


def test_non_integer_graph_json_exits_2(tmp_path, capsys):
    for data, error in [
        ({"n": 4.7, "edges": [[0.9, 1], [1, 2.2], [2, 3]]}, "graph JSON value 4.7 is not an integer"),
        ({"edges": [[0, 1]]}, 'graph JSON needs an object with "n" and an "edges" list'),
        ({"n": 4, "edges": [5]}, "graph JSON edge 5 is not a 2-element list"),
    ]:
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["bp-run", "--graph", str(gpath), "--out-dir", str(out)]) == 2
        assert f"error: {error}" in capsys.readouterr().err
        assert not list(out.glob("*_config.json"))


@pytest.mark.parametrize("spec,error", [
    ("1:2", "grid '1:2' is not of the form start:stop:step"),
    ("1:2:3:4", "grid '1:2:3:4' is not of the form start:stop:step"),
    ("1:2:0", "grid step must be positive"),
    ("1:2:-0.5", "grid step must be positive"),
])
def test_malformed_grid_exits_2(tmp_path, capsys, small_graph_file, spec, error):
    code = main(["tfim-sweep", "--graph", small_graph_file, "--hx-grid", spec, "--t-var", "1",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"error: {error}" in capsys.readouterr().err
    assert not list(tmp_path.glob("tfim_sweep*"))


def test_bools_are_written_as_0_and_1(tmp_path):
    path = tmp_path / "x.csv"
    cli._write_csv(str(path), ["a", "b", "c"], [(True, False, 1)])
    assert path.read_text().splitlines() == ["a,b,c", "1,0,1"]


@pytest.mark.parametrize("spec", ["1:inf:1", "1:nan:1", "-inf:2:1", "1:2:inf", "1:2:-inf", "nan,inf", "1,inf",
                                  "-inf"])
def test_non_finite_grid_exits_2(tmp_path, capsys, small_graph_file, spec):
    code = main(["tfim-sweep", "--graph", small_graph_file, f"--hx-grid={spec}", "--t-var", "1",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"error: grid '{spec}' has a value that is not finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("tfim_sweep*"))


@pytest.mark.parametrize("spec,count", [("0:2e6:1", "2000001"), ("0:1000000:1", "1000001"),
                                        ("1:2:1e-300", "1e+300"), ("-1e308:1e308:1", "inf")])
def test_grid_too_large_is_refused_before_it_is_built(spec, count):
    with pytest.raises(ValueError, match=re.escape(f"grid '{spec}' has {count} values, more than 1000000")):
        cli._grid(spec)


def test_grid_at_the_value_limit_is_built(monkeypatch):
    monkeypatch.setattr(cli, "_MAX_GRID", 10)
    assert cli._grid("0:0.9:0.1") == [round(0.1 * k, 12) for k in range(10)]
    with pytest.raises(ValueError, match="grid '0:1:0.1' has 11 values, more than 10"):
        cli._grid("0:1:0.1")


def test_grid_too_large_exits_2(tmp_path, capsys, small_graph_file):
    code = main(["sqrt-sweep", "--graph", small_graph_file, "--betas", "1:2:1e-300", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "error: grid '1:2:1e-300' has 1e+300 values, more than 1000000" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_config.json"))
