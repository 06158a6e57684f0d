import argparse
import ast
import logging
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import efs
import efs.cli
from efs import ParticleSet, PotentialParams, interaction_energy
from efs.cli import build_parser, load_config_file, main, parse_args
from efs.persist import read_csv, read_efsb, write_csv, write_efsb


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, dict(line.split("=", 1) for line in out.splitlines() if "=" in line)


@pytest.fixture()
def mixture_file(tmp_path, capsys):
    path = tmp_path / "mix.efsb"
    code, _ = run(capsys, "dataset", "--kind", "mixture", "--n", "120",
                  "--seed", "7", "--out", str(path))
    assert code == 0
    return path


@pytest.fixture()
def trajectory_file(tmp_path, capsys, mixture_file):
    path = tmp_path / "traj.efsb"
    code, _ = run(capsys, "forward", "--data", str(mixture_file), "--gamma", "0.1",
                  "--k", "5", "--s", "1", "--epsilon", "0.001", "--out", str(path))
    assert code == 0
    return path


# ---------------------------------------------------------------- config files

def test_config_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\ngamma = 0.1\nk=31   # trailing comment\n\ns = d-2\n")
    parsed = load_config_file(cfg)
    assert parsed == {"gamma": "0.1", "k": "31", "s": "d-2"}


def test_config_malformed(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma 0.1\n")
    with pytest.raises(ValueError, match="line 1"):
        load_config_file(cfg)
    cfg.write_text("k = 2\n = 3\n")
    with pytest.raises(ValueError, match="line 2: empty key"):
        load_config_file(cfg)


def test_flags_override_config(tmp_path, capsys, mixture_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 0.5\nk = 2\ns = 1\nepsilon = 0.001\n")
    out_a = tmp_path / "a.efsb"
    code, _ = run(capsys, "forward", "--config", str(cfg),
                  "--data", str(mixture_file), "--out", str(out_a))
    assert code == 0
    assert len(read_efsb(out_a).snapshots) == 3  # k from the config file
    out_b = tmp_path / "b.efsb"
    code, _ = run(capsys, "forward", "--config", str(cfg), "--k", "4",
                  "--data", str(mixture_file), "--out", str(out_b))
    assert code == 0
    assert len(read_efsb(out_b).snapshots) == 5  # flag wins


def test_config_malformed_value_names_option(tmp_path, capsys, mixture_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 0.1\nk = many\ns = 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["forward", "--config", str(cfg), "--data", str(mixture_file),
              "--out", str(tmp_path / "t.efsb")])
    assert exc.value.code == 2
    assert "argument --k: invalid int value: 'many'" in capsys.readouterr().err


def test_one_config_serves_forward_and_sample(tmp_path, capsys, mixture_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 0.1\nk = 3\ns = 1\nbeta = 0.1\nT = 50\n")
    traj = tmp_path / "t.efsb"
    code, kv = run(capsys, "forward", "--config", str(cfg), "--data", str(mixture_file),
                   "--out", str(traj))
    assert code == 0
    assert kv["snapshots"] == "4"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code, kv = run(capsys, "sample", "--config", str(cfg), "--traj", str(traj),
                   "--m", "2", "--out", str(a))
    assert code == 0
    assert kv["m"] == "2"
    code, _ = run(capsys, "sample", "--traj", str(traj), "--m", "2",
                  "--beta", "0.1", "--T", "50", "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_ignores_keys_that_are_not_options(tmp_path, capsys, mixture_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("func = x\ncommand = x\ncolour = blue\ngamma = 0.1\nk = 2\ns = 1\n")
    code, _ = run(capsys, "forward", "--config", str(cfg), "--data", str(mixture_file),
                  "--out", str(tmp_path / "t.efsb"))
    assert code == 0


@pytest.mark.parametrize("case", ["metrics_s_epsilon", "sample_seed_on_a_path",
                                  "sample_path_without_interp", "dataset_mixture_noise",
                                  "dataset_swiss_std", "sample_replay_on_a_path",
                                  "sample_j_without_i", "metrics_epsilon"])
def test_config_values_a_run_would_drop_are_ignored(tmp_path, capsys, trajectory_file, case):
    # as config keys these options are ignored; as flags they still exit 2
    out = str(tmp_path / "out.csv")
    sample = ["sample", "--traj", str(trajectory_file), "--beta", "0.1", "--T", "50",
              "--out", out]
    seeds_csv = str(tmp_path / "seeds.csv")
    config, argv, flags, message = {
        "metrics_s_epsilon": ("s = 1\nepsilon = 0.001\n",
                              ["metrics", "--points", str(trajectory_file)],
                              ["--s", "1"], "--s applies only to --mmd"),
        "sample_seed_on_a_path": ("seed = 3\n",
                                  sample + ["--mode", "interp", "--i", "0", "--j", "1",
                                            "--m", "3"],
                                  ["--seed", "3"], "--seed cannot be combined with --i"),
        "sample_path_without_interp": ("i = 0\nj = 1\n", sample + ["--m", "2", "--seed", "5"],
                                       ["--i", "0", "--j", "1"],
                                       "--i/--j requires --mode interp"),
        "dataset_mixture_noise": ("noise = 0.2\n",
                                  ["dataset", "--kind", "mixture", "--n", "50", "--out", out],
                                  ["--noise", "0.2"], "--noise applies only to --kind swiss"),
        "dataset_swiss_std": ("std = 0.3\n",
                              ["dataset", "--kind", "swiss", "--n", "50", "--out", out],
                              ["--std", "0.3"], "--std applies only to --kind mixture"),
        "sample_replay_on_a_path": (f"replay = {seeds_csv}\n",
                                    sample + ["--mode", "interp", "--i", "0", "--j", "1",
                                              "--m", "3"],
                                    ["--replay", seeds_csv], "--replay cannot be combined with --i"),
        "sample_j_without_i": ("j = 1\n", sample + ["--mode", "interp", "--m", "2"],
                               ["--j", "1"], "--j requires --i"),
        "metrics_epsilon": ("epsilon = 0.001\n", ["metrics", "--points", str(trajectory_file)],
                            ["--epsilon", "0.001"], "--epsilon applies only to --mmd"),
    }[case]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    outputs = []
    for extra in ([], ["--config", str(cfg)]):
        assert main(argv + extra) == 0
        outputs.append((capsys.readouterr().out, Path(out).read_bytes() if "--out" in argv
                        else None))
        Path(out).unlink(missing_ok=True)
    assert outputs[0] == outputs[1]
    assert main(argv + ["--config", str(cfg)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert not Path(out).exists()


def test_config_values_meet_the_choices_of_their_flags(tmp_path, capsys, monkeypatch,
                                                      trajectory_file):
    def read(path):
        raise AssertionError(f"{path} was read before the config values were checked")

    monkeypatch.setattr(efs.cli.persist, "read_efsb", read)
    monkeypatch.setattr(efs.cli, "load_points", read)
    out = tmp_path / "out.csv"
    cfg = tmp_path / "run.cfg"
    sample = ["sample", "--traj", str(trajectory_file), "--beta", "0.1", "--T", "50"]
    forward = ["forward", "--data", str(trajectory_file), "--gamma", "0.1", "--s", "1"]
    for argv, key, value, error in ((sample, "mode", "interpolation", "invalid choice"),
                                    (sample, "mode", "banana", "invalid choice"),
                                    (sample, "snapshot_mode", "banana", "invalid choice"),
                                    (["dataset", "--n", "10"], "kind", "banana",
                                     "invalid choice"),
                                    (forward, "k", "many", "invalid int value")):
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out), flag, value])
        assert exc.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1].split(": error: ", 1)[1]
        assert message.startswith(f"argument {flag}: {error}: '{value}'")
        cfg.write_text(f"{key} = {value}\n")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out), "--config", str(cfg)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {message}" in captured.err
        assert not out.exists()


def test_config_mode_ball(tmp_path, capsys, trajectory_file):
    # mode = ball is a single-value option, so a config file can choose it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = ball\nbeta = 0.1\nT = 50\nseed = 4\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code, kv = run(capsys, "sample", "--config", str(cfg), "--traj", str(trajectory_file),
                   "--m", "3", "--out", str(a))
    assert code == 0
    assert kv["mode"] == "ball"
    code, _ = run(capsys, "sample", "--traj", str(trajectory_file), "--mode", "ball",
                  "--m", "3", "--beta", "0.1", "--T", "50", "--seed", "4", "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_every_option_is_read_by_its_command():
    # an option its command never reads is accepted and dropped without a word
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    # one read of the file, so each function's text and position come from the same source
    text = Path(efs.cli.__file__).read_text()
    sources = {node.name: ast.get_source_segment(text, node) for node in ast.parse(text).body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")}
    unread, count = [], 0
    for name, p in sub.choices.items():
        source = sources[p.get_default("func").__name__]
        for action in p._actions:
            if action.dest == "help":
                continue
            count += 1
            # parse_args reads --config; the benchmark's sample argv passes --threads
            if action.dest == "config" or (name, action.dest) == ("sample", "threads"):
                continue
            if not re.search(rf"\bargs\.{action.dest}\b", source):
                unread.append(f"{name} {action.option_strings[0]}")
    assert unread == []
    assert count == 40


def test_benchmark_argv_parses():
    for argv in (["dataset", "--kind", "swiss", "--n", "500", "--seed", "1", "--out", "d.efsb",
                  "--noise", "0.2"],
                 ["forward", "--data", "d.efsb", "--gamma", "0.1", "--k", "31", "--s", "1.0",
                  "--epsilon", "0.001", "--out", "t.efsb"],
                 ["sample", "--traj", "t.efsb", "--mode", "sphere", "--m", "50", "--beta", "0.1",
                  "--T", "300", "--seed", "1", "--threads", "1", "--out", "s.csv",
                  "--replay", "r.csv"]):
        assert parse_args(argv).command == argv[0]


@pytest.mark.parametrize("argv", [
    ["-v", "dataset", "--kind", "mixture", "--n", "10", "--out", "d.efsb"],
    ["forward", "--data", "d.efsb", "--gamma", "0.1", "--k", "2", "--s", "1", "--out", "t.efsb",
     "--energy-out", "e.csv"],
    ["sample", "--traj", "t.efsb", "--beta", "0.1", "--T", "10", "--out", "s.csv",
     "--grad-tol", "1e-9"],
    ["roundtrip", "--traj", "t.efsb", "--tol", "0.1"],
    ["metrics", "--points", "t.efsb", "--snapshot", "0"],
])
def test_removed_options_are_unknown(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("value, code", [("-1", 2), (str(2**64), 2), (str(2**64 - 1), 0)])
@pytest.mark.parametrize("command", ["dataset", "sample"])
def test_seed_must_fit_64_bits(tmp_path, capsys, trajectory_file, command, value, code):
    # the library reduces a seed mod 2**64, so -1 would draw what 2**64 - 1 draws
    out = tmp_path / "out.csv"
    options = {"dataset": ["--kind", "mixture", "--n", "10"],
               "sample": ["--traj", str(trajectory_file), "--beta", "0.1", "--T", "10"]}[command]
    try:
        got = main([command, *options, "--seed", value, "--out", str(out)])
    except SystemExit as e:
        got = e.code
    assert got == code
    assert out.exists() == (code == 0)
    if code:
        assert "argument --seed: must be in [0, 2**64)" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; keep scipy from creeping back
    src = str(Path(efs.__file__).resolve().parents[1])
    code = "import sys, efs.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------- dataset

def test_dataset_mixture(tmp_path, capsys):
    out = tmp_path / "mix.efsb"
    code, kv = run(capsys, "dataset", "--kind", "mixture", "--n", "400",
                   "--seed", "7", "--out", str(out))
    assert code == 0
    assert (kv["n"], kv["d"]) == ("400", "2")
    blob = read_efsb(out)
    assert blob.snapshots[0].shape == (400, 2)
    assert blob.labels is not None


def test_dataset_swiss_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code, kv = run(capsys, "dataset", "--kind", "swiss", "--n", "500",
                   "--noise", "0.2", "--seed", "7", "--out", str(a))
    assert code == 0
    assert kv["d"] == "2"
    code, _ = run(capsys, "dataset", "--kind", "swiss", "--n", "500",
                  "--noise", "0.2", "--seed", "7", "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_dataset_swiss_rejects_std(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main(["dataset", "--kind", "swiss", "--n", "50", "--std", "0.3", "--out", str(out)])
    assert code == 2
    assert "--std" in capsys.readouterr().err
    assert not out.exists()


def test_dataset_unknown_kind(tmp_path, capsys):
    # a config value meets the choices of its flag, through argparse
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = spiral\nn = 10\n")
    with pytest.raises(SystemExit) as exc:
        main(["dataset", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


# ---------------------------------------------------------------- forward

def test_forward_reference_settings_snapshot_count(tmp_path, capsys):
    data = tmp_path / "mix.efsb"
    run(capsys, "dataset", "--kind", "mixture", "--n", "400", "--seed", "0",
        "--out", str(data))
    out = tmp_path / "traj.efsb"
    code, kv = run(capsys, "forward", "--data", str(data), "--gamma", "0.1",
                   "--k", "31", "--s", "1", "--epsilon", "0.001", "--out", str(out))
    assert code == 0
    assert kv["snapshots"] == "32"
    assert len(read_efsb(out).snapshots) == 32
    # energy trace emitted alongside, strictly decreasing first-to-last
    energy = (str(out) + ".energy.csv")
    rows = open(energy).read().splitlines()
    assert rows[0] == "iteration,energy"
    values = [float(r.split(",")[1]) for r in rows[1:]]
    assert len(values) == 32
    assert values[-1] < values[0]


def test_forward_energy_csv_matches_recomputation(trajectory_file):
    blob = read_efsb(trajectory_file)
    p = PotentialParams(blob.s, blob.epsilon)
    rows = open(str(trajectory_file) + ".energy.csv").read().splitlines()[1:]
    assert len(rows) == len(blob.snapshots)
    for row, snap in zip(rows, blob.snapshots):
        assert float(row.split(",")[1]) == interaction_energy(ParticleSet(snap), p)


def test_forward_rejects_gamma_zero(tmp_path, capsys, mixture_file):
    code, _ = run(capsys, "forward", "--data", str(mixture_file), "--gamma", "0",
                  "--k", "3", "--s", "1", "--out", str(tmp_path / "t.efsb"))
    assert code == 2


def test_forward_symbolic_exponent(tmp_path, capsys, mixture_file):
    out = tmp_path / "t.efsb"
    code, _ = run(capsys, "forward", "--data", str(mixture_file), "--gamma", "0.05",
                  "--k", "2", "--s", "d-2", "--out", str(out))
    assert code == 0
    assert read_efsb(out).s == 0.0  # d=2 resolves d-2 to 0


def test_forward_missing_data_file(tmp_path, capsys):
    code, _ = run(capsys, "forward", "--data", str(tmp_path / "nope.efsb"),
                  "--gamma", "0.1", "--k", "2", "--s", "1",
                  "--out", str(tmp_path / "t.efsb"))
    assert code == 4


def test_forward_label_outside_int32_is_io_error(tmp_path, capsys):
    data = tmp_path / "big.csv"
    data.write_text("x0,x1,label\n0.0,0.0,1\n1.0,0.5,99999999999\n2.0,1.0,0\n")
    code = main(["forward", "--data", str(data), "--gamma", "0.1", "--k", "2",
                 "--s", "1", "--out", str(tmp_path / "t.efsb")])
    assert code == 4
    assert "line 3: label 99999999999 is outside int32" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["forward"])
def test_exponent_outside_window_warns_once(tmp_path, capsys, caplog, mixture_file, command):
    options = ["--gamma", "0.01", "--s", "5", "--out", str(tmp_path / "t.efsb")]
    with caplog.at_level(logging.WARNING, logger="efs"):
        code = main([command, "--data", str(mixture_file), "--k", "2"] + options)
    assert code == 0
    assert sum("cited limit-law theory" in r.message for r in caplog.records) == 1


def test_forward_singularity_exit_code(tmp_path, capsys):
    data = tmp_path / "dup.csv"
    write_csv(data, np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
    code, _ = run(capsys, "forward", "--data", str(data), "--gamma", "0.1",
                  "--k", "2", "--s", "1", "--epsilon", "0",
                  "--out", str(tmp_path / "t.efsb"))
    assert code == 3


def test_forward_divergence_exit_code(tmp_path, capsys):
    data, out = tmp_path / "d.efsb", tmp_path / "g.efsb"
    assert main(["dataset", "--kind", "mixture", "--n", "60", "--seed", "1",
                 "--out", str(data)]) == 0
    capsys.readouterr()
    # at k = 51 the last step is finite and only the final snapshot's energy overflows
    for k in ("51", "200"):
        code = main(["forward", "--data", str(data), "--gamma", "1e3", "--k", k, "--s", "1",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == ("error: forward iteration 51: the step left the finite range "
                                "(gamma=1000.0); reduce gamma\n")
        assert not out.exists()
        assert not Path(str(out) + ".energy.csv").exists()


def test_forward_logs_the_energy_verdict_once_from_the_forward_run(tmp_path, capsys, caplog):
    # two particles at distance 1 sit at the equilibrium of W at s = 1, where E_n = 1.5
    data = tmp_path / "pair.csv"
    write_csv(data, np.array([[0.0, 0.0], [1.0, 0.0]]))
    with caplog.at_level(logging.WARNING, logger="efs"):
        code, out = run(capsys, "forward", "--data", str(data), "--s", "1", "--epsilon", "0",
                        "--gamma", "0.1", "--k", "2", "--out", str(tmp_path / "t.efsb"))
    assert code == 0
    assert out["energy_initial"] == out["energy_final"] == "1.5"
    verdicts = [r for r in caplog.records if "energy did not decrease" in r.message]
    assert [(r.name, r.message) for r in verdicts] == [
        ("efs.forward", "energy did not decrease over the run (1.5 -> 1.5)")]


@pytest.mark.parametrize("argv", [
    ["roundtrip", "--snapshot-mode", "paper", "--indices", "2", "--T", "20"],
    ["sample", "--mode", "interp", "--i", "0", "--j", "1", "--m", "2", "--beta", "0.1",
     "--T", "20", "--out", "s.csv"],
])
def test_backward_from_a_particle_at_zero_epsilon_exits_3(tmp_path, capsys, monkeypatch,
                                                           mixture_file, argv):
    # each run starts on a final-snapshot particle, where one pair of W is singular
    monkeypatch.chdir(tmp_path)
    code, _ = run(capsys, "forward", "--data", str(mixture_file), "--gamma", "0.01",
                  "--k", "3", "--s", "1", "--epsilon", "0", "--out", "t.efsb")
    assert code == 0
    code = main(argv + ["--traj", "t.efsb"])
    err = capsys.readouterr().err
    assert code == 3
    assert "backward step j=3: coincident points: zero separation with epsilon=0" in err
    assert "step size" not in err
    assert not (tmp_path / "s.csv").exists()


# ---------------------------------------------------------------- sample

def test_sample_sphere_mode(tmp_path, capsys, trajectory_file):
    out = tmp_path / "samples.csv"
    code, kv = run(capsys, "sample", "--traj", str(trajectory_file),
                   "--mode", "sphere", "--m", "5", "--beta", "0.1", "--T", "200",
                   "--seed", "3", "--out", str(out))
    assert code == 0
    assert kv["m"] == "5"
    raw = out.read_text().splitlines()
    assert raw[0].endswith(",seed")
    assert len(raw) == 6


def test_sample_replay_bit_identical(tmp_path, capsys, trajectory_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code, _ = run(capsys, "sample", "--traj", str(trajectory_file),
                  "--mode", "sphere", "--m", "4", "--beta", "0.1", "--T", "200",
                  "--seed", "5", "--out", str(a))
    assert code == 0
    code, _ = run(capsys, "sample", "--traj", str(trajectory_file),
                  "--replay", str(a), "--beta", "0.1", "--T", "200", "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_ball_mode_and_replay(tmp_path, capsys, trajectory_file):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    options = ["--m", "4", "--beta", "0.1", "--T", "200", "--seed", "5"]
    code, kv = run(capsys, "sample", "--traj", str(trajectory_file), "--mode", "ball",
                   *options, "--out", str(a))
    assert code == 0
    assert kv["mode"] == "ball"
    code, kv = run(capsys, "sample", "--traj", str(trajectory_file), "--mode", "ball",
                   "--replay", str(a), "--beta", "0.1", "--T", "200", "--out", str(b))
    assert code == 0
    assert kv["mode"] == "ball"
    assert a.read_bytes() == b.read_bytes()
    code, kv = run(capsys, "sample", "--traj", str(trajectory_file), "--mode", "sphere",
                   *options, "--out", str(c))
    assert code == 0
    assert kv["mode"] == "sphere"
    # same seeds, different draws
    assert read_csv(a)[2].tolist() == read_csv(c)[2].tolist()
    assert not np.array_equal(read_csv(a)[0], read_csv(c)[0])


@pytest.mark.parametrize("options, flag", [
    (["--mode", "sphere", "--i", "1"], "--i"),
    (["--mode", "ball", "--j", "2"], "--j"),
    (["--mode", "interp", "--i", "1", "--j", "2", "--m", "3", "--seed", "4"], "--seed"),
    (["--mode", "interp", "--j", "2"], "--j"),
    (["--mode", "interp", "--i", "1", "--m", "3"], "--j"),
    (["--mode", "interp", "--i", "1", "--j", "2", "--m", "3", "--replay"], "--replay"),
    (["--mode", "interp", "--i", "1", "--j", "2"], "--m"),
    (["--mode", "interp", "--i", "1", "--j", "2", "--m", "1"], "--m >= 2"),
])
def test_sample_rejects_options_it_would_drop(tmp_path, capsys, trajectory_file, options, flag):
    seeds_file = tmp_path / "seeds.csv"
    write_csv(seeds_file, np.zeros((2, 2)), seeds=np.array([1, 2], dtype=np.uint64))
    if options[-1] == "--replay":
        options = options + [str(seeds_file)]
    out = tmp_path / "s.csv"
    code = main(["sample", "--traj", str(trajectory_file), "--beta", "0.1", "--T", "50",
                 "--out", str(out)] + options)
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_sample_threads_flag_accepted_and_inert(tmp_path, capsys, trajectory_file):
    outs = []
    for threads in ("1", "3"):
        out = tmp_path / f"t{threads}.csv"
        code, _ = run(capsys, "sample", "--traj", str(trajectory_file),
                      "--mode", "sphere", "--m", "4", "--beta", "0.1", "--T", "200",
                      "--seed", "5", "--threads", threads, "--out", str(out))
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_sample_reports_capped_inversions(tmp_path, capsys, trajectory_file):
    def capped(T):
        code, kv = run(capsys, "sample", "--traj", str(trajectory_file),
                       "--mode", "sphere", "--m", "3", "--beta", "0.1", "--T", T,
                       "--seed", "3", "--out", str(tmp_path / "s.csv"))
        assert code == 0
        return int(kv["inner_capped"])

    assert capped("2") > 0
    assert capped("2000") == 0


def test_sample_zero_snapshot_trajectory_is_io_error(tmp_path, capsys):
    path = tmp_path / "empty.efsb"
    write_efsb(path, [np.zeros((3, 2))], gamma=0.1, s=1.0, epsilon=1e-3)
    raw = bytearray(path.read_bytes())
    raw[14:18] = (0).to_bytes(4, "little")  # snapshot_count
    path.write_bytes(bytes(raw[:42]) + b"\x00")  # the 42-byte header, no labels
    code, _ = run(capsys, "sample", "--traj", str(path), "--beta", "0.1", "--T", "10",
                  "--out", str(tmp_path / "s.csv"))
    assert code == 4


def test_sample_rejects_a_nan_gamma_header(tmp_path, capsys, trajectory_file):
    raw = bytearray(trajectory_file.read_bytes())
    raw[18:26] = struct.pack("<d", float("nan"))  # gamma follows the 18-byte preamble
    trajectory_file.write_bytes(bytes(raw))
    code = main(["sample", "--traj", str(trajectory_file), "--beta", "0.1", "--T", "10",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 4
    assert "gamma is nan" in capsys.readouterr().err


def test_sample_interpolation_path(tmp_path, capsys, trajectory_file):
    out = tmp_path / "interp.csv"
    code, kv = run(capsys, "sample", "--traj", str(trajectory_file),
                   "--mode", "interp", "--i", "3", "--j", "17", "--m", "20",
                   "--beta", "0.1", "--T", "200", "--out", str(out))
    assert code == 0
    assert kv["m"] == "20"
    assert len(out.read_text().splitlines()) == 21


def test_sample_path_file_has_no_seeds_and_cannot_be_replayed(tmp_path, capsys,
                                                              trajectory_file):
    path = tmp_path / "path.csv"
    code, _ = run(capsys, "sample", "--traj", str(trajectory_file),
                  "--mode", "interp", "--i", "3", "--j", "17", "--m", "4",
                  "--beta", "0.1", "--T", "50", "--out", str(path))
    assert code == 0
    assert path.read_text().splitlines()[0] == "x0,x1"
    code = main(["sample", "--traj", str(trajectory_file), "--replay", str(path),
                 "--beta", "0.1", "--T", "50", "--out", str(tmp_path / "r.csv")])
    assert code == 4
    assert "trailing seed column" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_sample_replay_of_binary_file_is_io_error(tmp_path, capsys, trajectory_file):
    code = main(["sample", "--traj", str(trajectory_file), "--replay", str(trajectory_file),
                 "--beta", "0.1", "--T", "50", "--out", str(tmp_path / "r.csv")])
    assert code == 4
    assert "not a text file" in capsys.readouterr().err


def test_sample_file_is_a_metrics_input(tmp_path, capsys, mixture_file, trajectory_file):
    samples = tmp_path / "samples.csv"
    code, _ = run(capsys, "sample", "--traj", str(trajectory_file), "--m", "10",
                  "--beta", "0.1", "--T", "50", "--seed", "3", "--out", str(samples))
    assert code == 0
    code, kv = run(capsys, "metrics", "--points", str(samples))
    assert code == 0 and "radial_ks" in kv
    code, kv = run(capsys, "metrics", "--mmd", str(samples), str(mixture_file),
                   "--nn", str(samples), str(mixture_file))
    assert code == 0
    assert float(kv["mmd2"]) > 0.0
    assert float(kv["min_nn"]) > 0.0


def test_sample_interp_needs_steps(tmp_path, capsys, trajectory_file):
    code, _ = run(capsys, "sample", "--traj", str(trajectory_file),
                  "--mode", "interp", "--i", "3", "--beta", "0.1", "--T", "50",
                  "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_sample_svg_output(tmp_path, capsys, trajectory_file):
    out = tmp_path / "s.csv"
    pic = tmp_path / "s.svg"
    code, kv = run(capsys, "sample", "--traj", str(trajectory_file),
                   "--mode", "sphere", "--m", "3", "--beta", "0.1", "--T", "100",
                   "--out", str(out), "--svg", str(pic))
    assert code == 0
    assert kv["svg"] == str(pic)
    body = pic.read_text()
    assert body.startswith("<svg")
    assert body.count("<polygon") == 3  # one star per generated sample
    assert body.count("<circle") == 120  # one dot per training point


def test_sample_converged_replay_bit_identical(tmp_path, capsys, trajectory_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code, kv = run(capsys, "sample", "--traj", str(trajectory_file),
                   "--mode", "sphere", "--m", "4", "--beta", "0.1", "--T", "2000",
                   "--seed", "5", "--out", str(a))
    assert code == 0
    assert kv["inner_capped"] == "0"
    code, kv = run(capsys, "sample", "--traj", str(trajectory_file), "--replay", str(a),
                   "--beta", "0.1", "--T", "2000", "--out", str(b))
    assert code == 0
    assert kv["inner_capped"] == "0"
    assert a.read_bytes() == b.read_bytes()


def test_sample_svg_one_dimensional(tmp_path, capsys):
    data = tmp_path / "line.csv"
    write_csv(data, np.linspace(-1.0, 1.0, 30)[:, None] ** 3)
    traj = tmp_path / "line.efsb"
    code, _ = run(capsys, "forward", "--data", str(data), "--gamma", "0.01", "--k", "2",
                  "--s", "0.5", "--out", str(traj))
    assert code == 0
    pic = tmp_path / "line.svg"
    code, kv = run(capsys, "sample", "--traj", str(traj), "--mode", "interp", "--m", "2",
                   "--beta", "0.1", "--T", "50", "--out", str(tmp_path / "s.csv"),
                   "--svg", str(pic))
    assert code == 0
    assert kv["svg"] == str(pic)
    body = pic.read_text()
    assert body.count("<circle") == 30
    assert body.count("<polygon") == 2



@pytest.mark.parametrize("pic", ["s.csv", "s.png", "s", ""])
def test_sample_svg_must_be_a_svg_file_before_any_file_is_read(capsys, monkeypatch, pic):
    # a .svg path cannot be the .csv --out, which it would otherwise overwrite
    def read(path):
        raise AssertionError(f"{path} was read before the options were checked")

    monkeypatch.setattr(efs.persist, "read_efsb", read)
    assert main(["sample", "--traj", "missing.efsb", "--beta", "0.1", "--T", "5",
                 "--out", "s.csv", "--svg", pic]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: --svg must be a .svg file, got {pic!r}" in captured.err


def test_sample_svg_named_as_the_out_file_leaves_it_unwritten(tmp_path, capsys, trajectory_file):
    out = tmp_path / "b.csv"
    code, _ = run(capsys, "sample", "--traj", str(trajectory_file), "--m", "2",
                  "--beta", "0.1", "--T", "50", "--out", str(out), "--svg", str(out))
    assert code == 2
    assert not out.exists()


# ---------------------------------------------------------------- metrics

def test_metrics_uniformity_snapshots(capsys, mixture_file, trajectory_file):
    # a trajectory is measured at its last snapshot; its snapshot 0 is the dataset file
    blob = read_efsb(trajectory_file)
    code, kv_final = run(capsys, "metrics", "--points", str(trajectory_file))
    assert code == 0
    assert "radial_ks" in kv_final and "angular_ks" in kv_final
    code, kv_first = run(capsys, "metrics", "--points", str(mixture_file))
    assert code == 0
    assert 0.0 <= float(kv_final["radial_ks"]) <= 1.0
    assert float(kv_first["radial_ks"]) != float(kv_final["radial_ks"])
    for kv, snapshot in ((kv_first, blob.snapshots[0]), (kv_final, blob.snapshots[-1])):
        assert float(kv["radial_ks"]) == efs.uniformity_report(ParticleSet(snapshot)).radial_ks


def test_metrics_mmd_halves(tmp_path, capsys, mixture_file):
    blob = read_efsb(mixture_file)
    pts = blob.snapshots[0]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, pts[: len(pts) // 2])
    write_csv(b, pts[len(pts) // 2:])
    code, kv = run(capsys, "metrics", "--mmd", str(a), str(b))
    assert code == 0
    assert float(kv["mmd2"]) >= -1e-12


def test_metrics_nn_fields(tmp_path, capsys, mixture_file):
    code, kv = run(capsys, "metrics", "--nn", str(mixture_file), str(mixture_file))
    assert code == 0
    assert float(kv["min_nn"]) == 0.0
    assert set(kv) >= {"min_nn", "mean_nn", "self_nn_mean"}


def test_metrics_nothing_to_do(capsys):
    code, _ = run(capsys, "metrics")
    assert code == 2


@pytest.mark.parametrize("case", ["metrics_mmd_epsilon_0", "metrics_nn_missing_file",
                                  "sample_beta_nan", "forward_gamma_nan", "forward_gamma_inf",
                                  "dataset_n_negative", "dataset_std_nan", "dataset_noise_inf",
                                  "metrics_s_without_mmd", "metrics_epsilon_without_mmd",
                                  "metrics_s_epsilon_without_mmd"])
def test_failing_command_writes_nothing_to_stdout(tmp_path, capsys, mixture_file,
                                                  trajectory_file, case):
    out = str(tmp_path / "out.csv")
    argv, code, message = {
        "metrics_mmd_epsilon_0": (["metrics", "--points", str(trajectory_file), "--mmd",
                                   str(mixture_file), str(mixture_file), "--epsilon", "0"],
                                  2, "epsilon > 0"),
        "metrics_nn_missing_file": (["metrics", "--points", str(trajectory_file), "--nn",
                                     str(tmp_path / "missing.csv"), str(mixture_file)],
                                    4, "missing.csv"),
        "sample_beta_nan": (["sample", "--traj", str(trajectory_file), "--beta", "nan",
                             "--T", "10", "--out", out], 2, "beta must be finite"),
        "forward_gamma_nan": (["forward", "--data", str(mixture_file), "--gamma", "nan",
                               "--k", "2", "--s", "1", "--out", str(tmp_path / "t.efsb")],
                              2, "--gamma must be finite and > 0, got nan"),
        "forward_gamma_inf": (["forward", "--data", str(mixture_file), "--gamma", "inf",
                               "--k", "2", "--s", "1", "--out", str(tmp_path / "t.efsb")],
                              2, "--gamma must be finite and > 0, got inf"),
        "dataset_n_negative": (["dataset", "--kind", "swiss", "--n", "-3", "--out", out],
                               2, "n must be >= 1"),
        "dataset_std_nan": (["dataset", "--kind", "mixture", "--n", "10", "--std", "nan",
                             "--out", out], 2, "stds must be finite and >= 0"),
        "dataset_noise_inf": (["dataset", "--kind", "swiss", "--n", "10", "--noise", "inf",
                               "--out", out], 2, "noise must be finite and >= 0, got inf"),
        "metrics_s_without_mmd": (["metrics", "--points", str(trajectory_file), "--s", "-3"],
                                  2, "--s applies only to --mmd"),
        "metrics_epsilon_without_mmd": (["metrics", "--points", str(trajectory_file),
                                         "--epsilon", "nan"], 2, "--epsilon applies only to --mmd"),
        "metrics_s_epsilon_without_mmd": (["metrics", "--points", str(trajectory_file), "--s", "1",
                                           "--epsilon", "0.1"],
                                          2, "--s/--epsilon applies only to --mmd"),
    }[case]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_metrics_mmd_parameters_are_checked_before_any_file_is_read(capsys, monkeypatch,
                                                                    trajectory_file):
    def read(path):
        raise AssertionError(f"{path} was read before the MMD parameters were checked")

    monkeypatch.setattr(efs.cli.persist, "read_efsb", read)
    monkeypatch.setattr(efs.cli, "load_points", read)
    for flag, value, message in (("--epsilon", "0", "epsilon > 0"), ("--s", "0", "s > 0")):
        code = main(["metrics", "--points", str(trajectory_file), "--mmd", "a.csv", "b.csv",
                     flag, value])
        assert code == 2
        assert message in capsys.readouterr().err


def test_metrics_mmd_kernel_defaults(tmp_path, capsys, mixture_file):
    a = tmp_path / "a.csv"
    write_csv(a, read_efsb(mixture_file).snapshots[0][:40])
    _, default = run(capsys, "metrics", "--mmd", str(a), str(mixture_file))
    _, explicit = run(capsys, "metrics", "--mmd", str(a), str(mixture_file),
                      "--s", "1", "--epsilon", "1e-3")
    _, other = run(capsys, "metrics", "--mmd", str(a), str(mixture_file), "--s", "0.5")
    assert default["mmd2"] == explicit["mmd2"] != other["mmd2"]


# ---------------------------------------------------------------- roundtrip

def test_roundtrip_gamma_zero_degenerate(tmp_path, capsys):
    # a gamma = 0 run leaves every snapshot where it started
    x0 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 2.0]])
    path = tmp_path / "t.efsb"
    write_efsb(path, [x0] * 3, gamma=0.0, s=1.0, epsilon=1e-3)
    code, kv = run(capsys, "roundtrip", "--traj", str(path), "--T", "10", "--indices", "5")
    assert code == 0
    assert float(kv["max_recovery_error"]) == 0.0
    assert kv["status"] == "pass"


def test_roundtrip_paper_mode_reports_only(capsys, trajectory_file):
    code, kv = run(capsys, "roundtrip", "--traj", str(trajectory_file), "--T", "100",
                   "--snapshot-mode", "paper", "--indices", "4")
    assert code == 0
    assert kv["status"] == "reported"
    assert float(kv["max_recovery_error"]) >= 0.0


def test_roundtrip_warns_convexity_guard_once(capsys, caplog, trajectory_file):
    with caplog.at_level(logging.WARNING, logger="efs"):
        code, kv = run(capsys, "roundtrip", "--traj", str(trajectory_file), "--T", "100",
                       "--indices", "4")
    assert code == 0
    assert kv["indices"] == "4"
    assert sum("convexity guard" in r.message for r in caplog.records) == 1


@pytest.mark.parametrize("gamma, lines", [(0.01, 1), (0.0, 0)])
def test_roundtrip_at_zero_epsilon_warns_convexity_guard_when_gamma_is_positive(
        tmp_path, capsys, caplog, gamma, lines):
    # at eps = 0 L_W is unbounded, so every gamma > 0 is above the guard
    x0 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 2.0]])
    path = tmp_path / "t.efsb"
    write_efsb(path, [x0, x0 + 0.25], gamma=gamma, s=1.0, epsilon=0.0)
    with caplog.at_level(logging.WARNING, logger="efs"):
        code, _ = run(capsys, "roundtrip", "--traj", str(path), "--T", "20", "--indices", "5")
    assert code == 0
    assert sum("convexity guard" in r.message for r in caplog.records) == lines


def test_roundtrip_reports_inner_capped(capsys, trajectory_file):
    capped = {}
    for T in ("20", "100"):
        code, kv = run(capsys, "roundtrip", "--traj", str(trajectory_file), "--T", T,
                       "--indices", "4")
        assert code == 0
        capped[T] = int(kv["inner_capped"])
    # 4 indices x 5 inversions; a larger cap leaves fewer inversions capped
    assert 20 >= capped["20"] > capped["100"] >= 1


@pytest.mark.parametrize("count", ["0", "-2"])
def test_roundtrip_rejects_indices_below_one(capsys, monkeypatch, trajectory_file, count):
    def read(path):
        raise AssertionError("the trajectory was read before --indices was checked")

    monkeypatch.setattr(efs.persist, "read_efsb", read)
    code = main(["roundtrip", "--traj", str(trajectory_file), "--T", "10", "--indices", count])
    assert code == 2
    assert "--indices" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["forward", "--data", "missing.efsb", "--gamma", "nan", "--k", "3", "--s", "1",
      "--out", "t.efsb"], "--gamma"),
    (["sample", "--traj", "missing.efsb", "--beta", "nan", "--T", "10", "--out", "s.csv"],
     "beta"),
    (["sample", "--traj", "missing.efsb", "--beta", "0.1", "--T", "0", "--out", "s.csv"], "T"),
    (["roundtrip", "--traj", "missing.efsb", "--beta", "nan"], "beta"),
    (["roundtrip", "--traj", "missing.efsb", "--T", "0"], "T"),
    (["forward", "--data", "missing.efsb", "--gamma", "0.1", "--k", "0", "--s", "1",
      "--out", "t.efsb"], "--k"),
    (["forward", "--data", "missing.efsb", "--gamma", "0.1", "--k", "3", "--s", "1",
      "--epsilon", "-1", "--out", "t.efsb"], "epsilon"),
    (["sample", "--traj", "missing.efsb", "--beta", "0.1", "--T", "5", "--m", "0",
      "--out", "s.csv"], "--m"),
    (["forward", "--data", "missing.efsb", "--gamma", "0.1", "--k", "3", "--s", "1",
      "--out", "t.csv"], "--out"),
    (["sample", "--traj", "missing.efsb", "--beta", "0.1", "--T", "5", "--out", "s.efsb"],
     "--out"),
    (["sample", "--traj", "missing.efsb", "--beta", "0.1", "--T", "5", "--out", "s.txt"],
     "--out"),
    (["sample", "--traj", "missing.efsb", "--mode", "interp", "--i", "1", "--j", "1",
      "--m", "3", "--beta", "0.1", "--T", "5", "--out", "s.csv"], "--i/--j"),
    (["sample", "--traj", "missing.efsb", "--mode", "interp", "--i", "-1", "--j", "2",
      "--m", "3", "--beta", "0.1", "--T", "5", "--out", "s.csv"], "--i"),
], ids=["forward_gamma_nan", "sample_beta_nan", "sample_T_0", "roundtrip_beta_nan",
        "roundtrip_T_0", "forward_k_0", "forward_epsilon_negative", "sample_m_0",
        "forward_out_csv", "sample_out_efsb", "sample_out_txt", "sample_i_equals_j",
        "sample_i_negative"])
def test_bad_options_exit_2_before_any_file_is_read(capsys, monkeypatch, argv, option):
    # a missing file would exit 4 and mask the bad option
    def read(path):
        raise AssertionError(f"{path} was read before the options were checked")

    monkeypatch.setattr(efs.persist, "read_efsb", read)
    monkeypatch.setattr(efs.cli, "load_points", read)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(rf"error: {option} must be", captured.err)


@pytest.mark.parametrize("argv, message", [
    (["forward", "--data", "missing.efsb", "--gamma", "0", "--k", "3", "--s", "1",
      "--out", "t.efsb"], "--gamma must be finite and > 0, got 0.0"),
    (["forward", "--data", "missing.efsb", "--gamma", "inf", "--k", "3", "--s", "1",
      "--out", "t.efsb"], "--gamma must be finite and > 0, got inf"),
    (["forward", "--data", "missing.efsb", "--gamma", "0.1", "--k", "-4", "--s", "1",
      "--out", "t.efsb"], "--k must be >= 1, got -4"),
    (["sample", "--traj", "missing.efsb", "--beta", "0.1", "--T", "5", "--m", "0",
      "--out", "s.csv"], "--m must be >= 1, got 0"),
    (["sample", "--traj", "missing.efsb", "--mode", "interp", "--i", "-1", "--j", "2",
      "--m", "3", "--beta", "0.1", "--T", "5", "--out", "s.csv"], "--i must be >= 0, got -1"),
    (["sample", "--traj", "missing.efsb", "--mode", "interp", "--i", "1", "--j", "-2",
      "--m", "3", "--beta", "0.1", "--T", "5", "--out", "s.csv"], "--j must be >= 0, got -2"),
    (["roundtrip", "--traj", "missing.efsb", "--indices", "0"], "--indices must be >= 1, got 0"),
], ids=["forward_gamma_0", "forward_gamma_inf", "forward_k_negative", "sample_m_0",
        "sample_i_negative", "sample_j_negative", "roundtrip_indices_0"])
def test_bound_options_exit_2_with_their_full_message(capsys, monkeypatch, argv, message):
    def read(path):
        raise AssertionError(f"{path} was read before the options were checked")

    monkeypatch.setattr(efs.persist, "read_efsb", read)
    monkeypatch.setattr(efs.cli, "load_points", read)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["sample", "roundtrip"])
def test_dataset_file_is_not_a_trajectory(tmp_path, capsys, mixture_file, command):
    out = tmp_path / "s.csv"
    options = {"sample": ["--m", "3", "--beta", "0.1", "--T", "10", "--out", str(out)],
               "roundtrip": ["--T", "10"]}[command]
    code = main([command, "--traj", str(mixture_file), *options])
    captured = capsys.readouterr()
    assert code == 4
    assert f"{mixture_file}: holds 1 snapshot" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_forward_without_gamma_exits_2(tmp_path, capsys, mixture_file):
    out = tmp_path / "t.efsb"
    code = main(["forward", "--data", str(mixture_file), "--k", "2", "--s", "1",
                 "--out", str(out)])
    assert code == 2
    assert "missing required option --gamma" in capsys.readouterr().err
    assert not out.exists()


def test_dataset_mixture_rejects_noise(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = main(["dataset", "--kind", "mixture", "--n", "50", "--noise", "0.9",
                 "--out", str(out)])
    assert code == 2
    assert "--noise" in capsys.readouterr().err
    assert not out.exists()
    # the Swiss roll still defaults to noise 0.2
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["dataset", "--kind", "swiss", "--n", "50", "--out", str(a)]) == 0
    assert main(["dataset", "--kind", "swiss", "--n", "50", "--noise", "0.2",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
