import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdsim.cli import main
from lrdsim.config import RunConfig, from_dict
from lrdsim.logio import read_log

from loghash import config_dict


@pytest.fixture
def cfg_path(tmp_path):
    def write(overrides=None, name="config.yaml"):
        path = tmp_path / name
        path.write_text(yaml.safe_dump(config_dict("small", **(overrides or {}))))
        return str(path)

    return write


def test_run_writes_log_and_exits_zero(cfg_path, tmp_path, capsys):
    out = tmp_path / "run.log"
    assert main(["run", "--config", cfg_path(), "--out", str(out)]) == 0
    header, steps = read_log(str(out))
    assert header["kind"] == "header"
    assert len(steps) == 8
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 9  # header + T
    assert steps[-1]["mean_loss"] < steps[0]["mean_loss"]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_run_threads_must_be_positive(cfg_path, tmp_path, capsys, threads):
    out = tmp_path / "x.log"
    assert main(["run", "--config", cfg_path(), "--out", str(out), "--threads", threads]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and "--threads" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, message", [("--seed", "invalid int value:"), ("--threads", "invalid positive integer")])
def test_unparsable_int_option_is_echoed_cut(cfg_path, tmp_path, capsys, flag, message):
    out = tmp_path / "x.log"
    assert main(["run", "--config", cfg_path(), "--out", str(out), flag, "x" * 5000]) == 1
    *usage, error = capsys.readouterr().err.splitlines()
    assert usage[0].startswith("usage: ")
    assert error == f"error: argument {flag}: {message} '{'x' * 20}...'"
    assert not out.exists()


LONG = "x" * 5000
CUT = "x" * 20 + "..."
AXES = "'rank', 'K', 'batch_and_workers', 'omega'"


# argparse's own messages, each echoing an argument, or the part after its '=', cut as config values are
@pytest.mark.parametrize(
    "args, error",
    [
        (["sweep", "--axis", LONG], f"argument --axis: invalid choice: '{CUT}' (choose from {AXES})"),
        (["sweep", f"--axis={LONG}"], f"argument --axis: invalid choice: '{CUT}' (choose from {AXES})"),
        (["run", LONG], f"unrecognized arguments: {CUT}"),
        (["run", f"--seed={LONG}"], f"argument --seed: invalid int value: '{CUT}'"),
        (["run", f"--help={LONG}"], f"argument -h/--help: ignored explicit argument '{CUT}'"),
        (["costs", f"--k-={LONG}"], f"ambiguous option: --k-={'x' * 15}... could match --k-x, --k-u, --k-v"),
        ([LONG], f"argument command: invalid choice: '{CUT}' (choose from 'run', 'sweep', 'costs', 'analyze')"),
    ],
    ids=["invalid_choice", "invalid_choice_after_equals", "unrecognized", "seed_after_equals", "explicit_argument",
         "ambiguous_option", "invalid_command"],
)
def test_usage_error_echoes_long_argument_cut(cfg_path, tmp_path, capsys, no_engine, args, error):
    out, out_dir = tmp_path / "x.log", tmp_path / "sweep"
    given = {"run": ["--config", cfg_path(), "--out", str(out)],
             "sweep": ["--config", cfg_path(), "--values", "2", "--out-dir", str(out_dir)],
             "costs": ["--p", "8", "--q", "8", "--r", "2"]}
    assert main(args[:1] + given.get(args[0], []) + args[1:]) == 1
    *usage, last = capsys.readouterr().err.splitlines()
    assert usage[0].startswith("usage: lrdsim")
    assert last == f"error: {error}"
    assert all(len(line.encode()) < 200 for line in usage + [last])
    assert not out.exists() and not out_dir.exists()


def test_negative_seed_override_exit_one(cfg_path, tmp_path, capsys):
    assert main(["run", "--config", cfg_path(), "--out", str(tmp_path / "x.log"), "--seed", "-1"]) == 1
    assert "master_seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"workers": True}, "workers"),  # a bool would silently run one worker
        ({"schedule": {"k_x": 2.5}}, "schedule.k_x"),
        ({"problem": {"batch_size": 32.0}}, "problem.batch_size"),
        ({"hyperparams": {"clip_radius": float("inf")}}, "hyperparams.clip_radius"),
        ({"problem": {"rows": "64"}}, "problem.rows"),
        ({"hyperparams": {"lr": "fast"}}, "hyperparams.lr"),
        # echoed as its first 20 characters
        ({"problem": {"shard_policy": "x" * 5000}}, "problem.shard_policy"),
    ],
)
def test_mistyped_config_value_exit_one_naming_key(cfg_path, tmp_path, capsys, overrides, key):
    bad = cfg_path(overrides, name="typed.yaml")
    out = tmp_path / "x.log"
    assert main(["run", "--config", bad, "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert len(err.encode()) < 200
    assert err.startswith(f"config error: {key} must be ")
    assert not out.exists()


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe\n",
        b"[" * 1000 + b"]" * 1000 + b"\n",
        b"{a: " * 1000 + b"}" * 1000 + b"\n",
        b"? [1, 2]\n: 3\n",
        b"1: 2\nfoo: 3\n",
        b"problem: {1: 2, foo: 3}\n",
        b'"a\\nb": 1\n',
        b'problem: {type: "a\\nb"}\n',
        b"steps: " + b"9" * 5000 + b"\n",
    ],
    ids=["not_utf8", "nested_lists", "nested_mappings", "unhashable_key", "mixed_keys", "mixed_section_keys",
         "newline_key", "newline_value", "int_past_str_digit_limit"],
)
def test_bad_config_file_exit_one_with_one_line(tmp_path, capsys, content):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(content)
    out = tmp_path / "x.log"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_int_accepted_for_float_field(cfg_path, tmp_path):
    out = tmp_path / "x.log"
    assert main(["run", "--config", cfg_path({"hyperparams": {"lr": 1}}), "--out", str(out)]) == 0
    header, _ = read_log(str(out))
    assert header["config"]["hyperparams"]["lr"] == 1


def test_header_config_reproduces_run(cfg_path, tmp_path):
    first = tmp_path / "first.log"
    assert main(["run", "--config", cfg_path(), "--out", str(first)]) == 0
    header, _ = read_log(str(first))
    echo = tmp_path / "echo.yaml"
    echo.write_text(yaml.safe_dump(header["config"]))
    second = tmp_path / "second.log"
    assert main(["run", "--config", str(echo), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_seed_override_changes_log(cfg_path, tmp_path):
    a, b = tmp_path / "a.log", tmp_path / "b.log"
    assert main(["run", "--config", cfg_path(), "--out", str(a)]) == 0
    assert main(["run", "--config", cfg_path(), "--out", str(b), "--seed", "5"]) == 0
    assert a.read_bytes() != b.read_bytes()
    header, _ = read_log(str(b))
    assert header["config"]["master_seed"] == 5


def test_rank_too_large_exits_one_naming_field(cfg_path, tmp_path, capsys):
    bad = cfg_path({"rank": 100}, name="bad.yaml")
    code = main(["run", "--config", bad, "--out", str(tmp_path / "x.log")])
    assert code == 1
    assert "rank" in capsys.readouterr().err


def test_unknown_key_is_hard_error(cfg_path, tmp_path, capsys):
    bad = cfg_path({"learning_rate_typo": 3}, name="bad2.yaml")
    code = main(["run", "--config", bad, "--out", str(tmp_path / "x.log")])
    assert code == 1
    assert "learning_rate_typo" in capsys.readouterr().err


# deleted settings: the strategy alone fixes the starting basis, and a sync averages dense pseudo-gradients
@pytest.mark.parametrize("overrides, key", [({"projection": {"init": "identity"}}, "projection.init"),
                                            ({"flags": {"sparsify_keep": 0.25}}, "flags.sparsify_keep")],
                         ids=["projection.init", "flags.sparsify_keep"])
def test_deleted_key_is_an_unknown_key(cfg_path, tmp_path, capsys, overrides, key):
    out = tmp_path / "x.log"
    assert main(["run", "--config", cfg_path(overrides), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: unknown key '{key}'\n"
    assert not out.exists()


def test_deleted_sparsity_axis_is_an_invalid_choice(cfg_path, tmp_path, capsys, no_engine):
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--config", cfg_path(), "--axis", "sparsity", "--values", "0.5", "--out-dir", str(out_dir)]
    assert main(argv) == 1
    *usage, error = capsys.readouterr().err.splitlines()
    assert usage[0].startswith("usage: lrdsim")
    assert error == f"error: argument --axis: invalid choice: 'sparsity' (choose from {AXES})"
    assert not out_dir.exists()


def test_unknown_nested_key_is_hard_error(cfg_path, tmp_path, capsys):
    bad = cfg_path({"flags": {"rotate_momenta": True}}, name="bad3.yaml")
    code = main(["run", "--config", bad, "--out", str(tmp_path / "x.log")])
    assert code == 1
    assert "flags.rotate_momenta" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, key, lineno",
    [
        ("steps: 4\nrank: 8\nrank: 4\n", "rank", 3),
        ("steps: 4\nproblem:\n  rows: 16\n  cols: 12\n  rows: 32\n", "rows", 5),
    ],
    ids=["top_level", "nested"],
)
def test_repeated_config_key_exit_one_naming_key_and_line(tmp_path, capsys, text, key, lineno):
    # safe_load would keep the last value and run
    path = tmp_path / "repeat.yaml"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.log")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot parse config file: repeated key '{key}'")
    assert f"line {lineno}," in err
    assert err.count("\n") == 1


def test_omega_required_with_qhm(cfg_path, tmp_path, capsys):
    bad = cfg_path({"qhm": {"mode": "low_rank"}}, name="bad4.yaml")
    assert main(["run", "--config", bad, "--out", str(tmp_path / "x.log")]) == 1
    assert "omega" in capsys.readouterr().err


def test_divergence_exit_code_two(cfg_path, tmp_path, capsys):
    bad = cfg_path(
        {"hyperparams": {"lr": 1e200, "beta1": 0.0, "beta2": 0.0}, "steps": 50},
        name="div.yaml",
    )
    out = tmp_path / "div.log"
    assert main(["run", "--config", bad, "--out", str(out)]) == 2
    _, steps = read_log(str(out))
    assert steps[-1]["diverged"] is True


# lr 1e200 overflows the first step; with K = 1 that step also refreshes the
# basis from a ~1e200 signal, which still logs a finite subspace entry
DIVERGING = {
    "clip": {"hyperparams": {"lr": 1e200, "clip_radius": 1e9, "beta1": 0.0, "beta2": 0.0}},
    "unclipped": {"hyperparams": {"lr": 1e200, "beta1": 0.0, "beta2": 0.0}},
    "refresh_k1": {
        "hyperparams": {"lr": 1e200, "clip_radius": 1e9, "beta1": 0.0, "beta2": 0.0},
        "schedule": {"k_x": 1, "k_u": 1, "k_v": 1},
    },
}


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_divergence_at_a_refresh_logs_finite_subspace(cfg_path, tmp_path, capsys, command):
    bad = cfg_path(DIVERGING["refresh_k1"], name="div.yaml")
    if command == "run":
        out = tmp_path / "div.log"
        assert main(["run", "--config", bad, "--out", str(out)]) == 2
    else:
        out = tmp_path / "sweep" / "K1.log"
        assert main(["sweep", "--config", bad, "--axis", "K", "--values", "1", "--out-dir", str(out.parent)]) == 2
    _, steps = read_log(str(out))
    assert steps[-1]["diverged"] is True
    [entry] = steps[-1]["subspace"]
    assert 0.0 <= entry["mssv"] <= 1.0 and entry["stable_rank"] >= 1.0
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 0
    assert "diverged: true" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(DIVERGING))
def test_divergence_prints_one_stderr_line(cfg_path, tmp_path, name):
    # a subprocess, because pytest's warning capture hides numpy's
    # RuntimeWarning lines from capsys
    out = tmp_path / "div.log"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "lrdsim.cli", "run", "--config", cfg_path(DIVERGING[name]), "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"run diverged after 1 steps; log at {out}"]


# lr 1.7e308 from step 0 overflows the first pseudo-gradient to -inf, so
# the K = 1 global refresh at step 0 gets a non-finite signal
INF_REFRESH = {
    "hyperparams": {"lr": 1.7e308, "warmup_steps": 0},
    "qhm": {"mode": "full_rank", "omega": 0.95, "start_step": 0},
    "schedule": {"k_x": 1},
}


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_non_finite_refresh_signal_logs_divergence(cfg_path, tmp_path, command):
    cfg = cfg_path(INF_REFRESH)
    if command == "run":
        out = tmp_path / "inf.log"
        args = ["run", "--config", cfg, "--out", str(out)]
        stderr = [f"run diverged after 1 steps; log at {out}"]
    else:
        out = tmp_path / "sweep" / "K1.log"
        args = ["sweep", "--config", cfg, "--axis", "K", "--values", "1", "--out-dir", str(out.parent)]
        stderr = [f"sweep point K1 diverged after 1 steps; log at {out}"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "lrdsim.cli", *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == stderr
    _, steps = read_log(str(out))
    assert len(steps) == 1
    assert steps[-1]["diverged"] is True
    assert steps[-1]["subspace"] is None


def test_missing_argument_usage_exit_one(capsys):
    assert main(["run", "--config", "whatever.yaml"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_missing_config_file_exit_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.yaml"), "--out", "x.log"]) == 1


def test_sweep_rank_axis(cfg_path, tmp_path):
    out_dir = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--config",
            cfg_path(),
            "--axis",
            "rank",
            "--values",
            "2,4,8",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    summary = (out_dir / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == "axis,value,final_loss,diverged,log"
    assert len(summary) == 4
    logs = sorted(p.name for p in out_dir.glob("*.log"))
    assert logs == ["rank2.log", "rank4.log", "rank8.log"]
    for line in summary[1:]:
        parts = line.split(",")
        assert parts[0] == "rank"
        assert parts[3] == "false"
        assert float(parts[2]) > 0


def test_sweep_summary_quotes_a_comma_in_the_log_path(cfg_path, tmp_path):
    # summary.csv is CSV: a field holding a comma is quoted, so every row keeps the header's 5 fields
    out_dir = tmp_path / "sw,eep"
    assert main(["sweep", "--config", cfg_path(), "--axis", "rank", "--values", "2,4", "--out-dir", str(out_dir)]) == 0
    with open(out_dir / "summary.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["axis", "value", "final_loss", "diverged", "log"]
    assert [row[:2] for row in rows[1:]] == [["rank", "2"], ["rank", "4"]]
    assert [row[4] for row in rows[1:]] == [str(out_dir / "rank2.log"), str(out_dir / "rank4.log")]


def test_sweep_batch_and_workers_axis(cfg_path, tmp_path):
    out_dir = tmp_path / "sweepm"
    code = main(
        [
            "sweep",
            "--config",
            cfg_path({"workers": 1, "problem": {"batch_size": 16, "design_rows": 128}}),
            "--axis",
            "batch_and_workers",
            "--values",
            "1,2,4",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    for m in (1, 2, 4):
        header, _ = read_log(str(out_dir / f"M{m}.log"))
        assert header["config"]["workers"] == m
        assert header["config"]["workers"] * header["config"]["problem"]["batch_size"] == 16


def test_sweep_invalid_point_aborts_before_running(cfg_path, tmp_path, capsys):
    out_dir = tmp_path / "sweepbad"
    code = main(
        [
            "sweep",
            "--config",
            cfg_path(),
            "--axis",
            "rank",
            "--values",
            "2,4,999",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 1
    assert not out_dir.exists() or not list(out_dir.glob("*.log"))
    # a value that does not parse names its axis
    cfg = cfg_path({"qhm": {"mode": "low_rank", "omega": 0.9}})
    for axis, values, message in [("K", "2,2.5", "sweep axis K needs an integer, got '2.5'"),
                                  ("omega", "0.5,abc", "sweep axis omega needs a number, got 'abc'"),
                                  # past the int-from-str digit limit, echoed as a prefix
                                  ("rank", "2," + "9" * 5000, f"sweep axis rank needs an integer, got '{'9' * 20}...'"),
                                  ("batch_and_workers", "1" + "0" * 4000,
                                   f"global batch 16 does not divide across 1{'0' * 19}... workers")]:
        capsys.readouterr()
        assert main(["sweep", "--config", cfg, "--axis", axis, "--values", values, "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out_dir.exists() or not list(out_dir.glob("*.log"))


QHM_ON = {"qhm": {"mode": "low_rank", "omega": 0.9}}


# label -> the fields each point sets, by hand; the small config's global batch is 2 workers x 8
@pytest.mark.parametrize(
    "axis, values, points",
    [
        ("rank", "2,3", {"rank2": {"rank": 2}, "rank3": {"rank": 3}}),
        ("K", "2,8", {f"K{k}": {"schedule": {"k_x": k, "k_u": k, "k_v": k}} for k in (2, 8)}),
        ("batch_and_workers", "1,4", {"M1": {"workers": 1, "problem": {"batch_size": 16}},
                                      "M4": {"workers": 4, "problem": {"batch_size": 4}}}),
        ("omega", "0.5,1", {"omega0.5": {"qhm": {"mode": "low_rank", "omega": 0.5}},
                            "omega1.0": {"qhm": {"mode": "low_rank", "omega": 1.0}}}),
    ],
    ids=["rank", "K", "batch_and_workers", "omega"],
)
def test_sweep_axis_sets_its_fields_and_label(cfg_path, tmp_path, axis, values, points):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path(QHM_ON), "--axis", axis, "--values", values,
                 "--out-dir", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.glob("*.log")) == sorted(f"{label}.log" for label in points)
    for label, fields in points.items():
        header, _ = read_log(str(out_dir / f"{label}.log"))
        assert header["config"] == from_dict(config_dict("small", **{**QHM_ON, **fields})).to_dict()


def test_sweep_zero_workers_exit_one(cfg_path, tmp_path, capsys):
    out_dir = tmp_path / "sweep0"
    code = main(["sweep", "--config", cfg_path(), "--axis", "batch_and_workers", "--values", "0",
                 "--out-dir", str(out_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: workers")
    assert err.count("\n") == 1
    assert not out_dir.exists() or not list(out_dir.glob("*.log"))


@pytest.fixture
def no_engine(monkeypatch):
    """Fail the test if the CLI builds an Engine, which allocates the run's arrays."""

    def refuse(cfg):
        raise AssertionError("the CLI built an Engine")

    monkeypatch.setattr("lrdsim.cli.Engine", refuse)


def test_run_unwritable_out_exit_one(cfg_path, tmp_path, capsys, no_engine):
    assert main(["run", "--config", cfg_path(), "--out", str(tmp_path / "missing" / "run.log")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error: ")
    assert err.count("\n") == 1


def test_sweep_out_dir_under_file_exit_one(cfg_path, tmp_path, capsys, no_engine):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["sweep", "--config", cfg_path(), "--axis", "rank", "--values", "2",
                 "--out-dir", str(blocker / "sweep")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("output error: ")
    assert err.count("\n") == 1


def test_sweep_unwritable_point_log_exit_one(cfg_path, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    (out_dir / "rank4.log").mkdir(parents=True)
    code = main(["sweep", "--config", cfg_path(), "--axis", "rank", "--values", "2,4", "--out-dir", str(out_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("output error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "overrides",
    [
        {"problem": {"design_rows": 2**30}},
        {"problem": {"rows": 2**30}},
        {"problem": {"cols": 2**30}},
        {"workers": 2**18, "problem": {"design_rows": 2**18, "batch_size": 1}},
        # past the float range, where a float GiB figure would overflow
        {"problem": {"design_rows": 4096 * 10**400}},
        {"problem": {"rows": 10**400}},
        {"problem": {"cols": 10**400}},
        {"workers": 10**400, "problem": {"design_rows": 10**400, "batch_size": 1}},
        # a byte count longer than the interpreter's int-to-str digit limit
        {"problem": {"rows": 10**4000, "cols": 10**4000}},
    ],
    ids=["design_rows", "rows", "cols", "workers", "design_rows_huge", "rows_huge", "cols_huge", "workers_huge",
         "rows_cols_4000_digits"],
)
def test_over_budget_sizes_exit_one_without_allocating(cfg_path, tmp_path, capsys, no_engine, overrides):
    out = tmp_path / "x.log"
    assert main(["run", "--config", cfg_path(overrides, name="big.yaml"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: problem.design_rows, problem.rows, problem.cols, workers and rank need ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "axis, values, label",
    [("K", "4,04", "K4"), ("omega", "0.5,.5", "omega0.5"),
     # each raw value and the label echoed as its first 20 characters
     ("omega", "0.5,0.5" + "0" * 10000, "omega0.5"),
     ("K", f"1{'0' * 4000},01{'0' * 4000}", f"K1{'0' * 18}...")],
    ids=["K", "omega", "omega_long", "K_long"],
)
def test_sweep_colliding_labels_exit_one(cfg_path, tmp_path, capsys, no_engine, axis, values, label):
    out_dir = tmp_path / "sweepdup"
    code = main(["sweep", "--config", cfg_path({"qhm": {"mode": "low_rank", "omega": 0.9}}), "--axis", axis,
                 "--values", values, "--out-dir", str(out_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: sweep values ")
    assert err.endswith(f"both name point {label}\n")
    assert err.count("\n") == 1
    assert len(err.encode()) < 200
    assert not out_dir.exists()


# any positive K is a valid period, but a point's log "K<digits>.log" must fit in a 255-byte file name
@pytest.mark.parametrize("digits", [251, 4001], ids=["one_past_the_limit", "4001_digits"])
def test_sweep_label_too_long_for_a_file_name_exit_one(cfg_path, tmp_path, capsys, no_engine, digits):
    out_dir = tmp_path / "sweep"
    values = "2," + "1" + "0" * (digits - 1)
    assert main(["sweep", "--config", cfg_path(), "--axis", "K", "--values", values, "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: sweep point K1{'0' * 18}... needs a file name of over 255 bytes\n"
    assert len(err.encode()) < 200
    assert not out_dir.exists()


def test_sweep_label_at_the_file_name_limit_runs(cfg_path, tmp_path):
    out_dir = tmp_path / "sweep"
    value = "1" + "0" * 249
    assert main(["sweep", "--config", cfg_path(), "--axis", "K", "--values", value, "--out-dir", str(out_dir)]) == 0
    assert len(f"K{value}.log") == 255 and (out_dir / f"K{value}.log").exists()


def test_sweep_threads_do_not_change_bytes(cfg_path, tmp_path):
    seq_dir = tmp_path / "seq"
    thr_dir = tmp_path / "thr"
    for out_dir, extra in ((seq_dir, []), (thr_dir, ["--threads", "3"])):
        assert (
            main(
                ["sweep", "--config", cfg_path(), "--axis", "K", "--values", "2,4,8",
                 "--out-dir", str(out_dir)] + extra
            )
            == 0
        )
    for name in ("K2.log", "K4.log", "K8.log"):
        assert (seq_dir / name).read_bytes() == (thr_dir / name).read_bytes()


def test_sweep_parallel_is_a_usage_error(cfg_path, tmp_path, capsys):
    argv = ["sweep", "--config", cfg_path(), "--axis", "K", "--values", "2", "--out-dir", str(tmp_path)]
    assert main(argv + ["--parallel", "3"]) == 1
    usage, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: lrdsim") and error == "error: unrecognized arguments: --parallel 3"


def test_stray_argument_holding_a_newline_is_shown_as_its_repr(cfg_path, tmp_path, capsys, no_engine):
    out = tmp_path / "x.log"
    assert main(["run", "--config", cfg_path(), "--out", str(out), "a\nb"]) == 1
    usage, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: lrdsim") and error == "error: unrecognized arguments: 'a\\nb'"
    assert not out.exists()


# a path the file system refuses is echoed cut, as config values are, after the errno text
@pytest.mark.parametrize("command, flag, prefix", [("run", "--out", "output error"), ("run", "--config", "config error"),
                                                   ("sweep", "--out-dir", "output error")],
                         ids=["run_out", "run_config", "sweep_out_dir"])
def test_os_error_echoes_long_path_cut(cfg_path, tmp_path, capsys, command, flag, prefix):
    given = {"run": {"--config": cfg_path(), "--out": str(tmp_path / "x.log")},
             "sweep": {"--config": cfg_path(), "--axis": "K", "--values": "2", "--out-dir": str(tmp_path / "sweep")}}
    args = dict(given[command], **{flag: str(tmp_path / ("y" * 5000))})
    assert main([command] + [part for pair in args.items() for part in pair]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{prefix}: [Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: '")
    assert err.endswith("...'\n") and err.count("\n") == 1 and len(err.encode()) < 200
    assert not any(tmp_path.glob("*.log")) and not (tmp_path / "sweep").exists()


def test_costs_table_contains_headline_numbers(capsys):
    assert main(["costs", "--p", "2048", "--q", "2048", "--r", "256", "--k", "32"]) == 0
    out = capsys.readouterr().out
    assert "10.24" in out
    assert "23.27" in out
    assert "8.00" in out


def test_costs_flags_no_benefit_region(capsys):
    assert main(["costs", "--p", "64", "--q", "64", "--r", "64", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "(no benefit)" in out


def test_costs_invalid_dims_exit_one(capsys):
    assert main(["costs", "--p", "4", "--q", "4", "--r", "9", "--k", "2"]) == 1


def test_costs_missing_periods_exit_one(capsys):
    assert main(["costs", "--p", "4", "--q", "4", "--r", "2"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--p", str(10**200), "--q", str(10**200), "--r", "1", "--k", "1"],
        ["--p", str(10**400), "--q", "1", "--r", "1", "--k", "1"],
        ["--p", "64", "--q", "64", "--r", "8", "--k", str(10**400)],
    ],
    ids=["pq", "p", "k"],
)
def test_costs_sizes_past_float_range_exit_one(capsys, argv):
    assert main(["costs", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("costs: ")
    assert err.count("\n") == 1


def test_analyze_stagnating_global_run(cfg_path, tmp_path, capsys):
    out = tmp_path / "g.log"
    assert main(["run", "--config", cfg_path({"steps": 16}), "--out", str(out)]) == 0
    assert main(["analyze", str(out)]) == 0
    text = capsys.readouterr().out
    assert "mean MSSV at projection updates: 1.000000" in text
    assert "final mean loss" in text


def test_analyze_local_run_reports_refresh(cfg_path, tmp_path, capsys):
    out = tmp_path / "l.log"
    cfg = cfg_path({"projection": {"strategy": "local"}, "steps": 16}, name="local.yaml")
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["analyze", str(out)]) == 0
    text = capsys.readouterr().out
    mssv_line = [l for l in text.split("\n") if "mean MSSV" in l][0]
    value = float(mssv_line.split(":")[-1].split("(")[0])
    assert value < 1.0
    assert "inconsistent" in text  # local with M > 1 averages across bases


# without refresh every local worker keeps the identity start; one worker has no other basis to average with
@pytest.mark.parametrize("workers, refresh, inconsistent", [(2, True, True), (2, False, False), (1, True, False)],
                         ids=["refresh", "no_refresh", "one_worker"])
def test_basis_inconsistent_only_when_local_bases_refresh_apart(cfg_path, tmp_path, capsys, workers, refresh,
                                                                inconsistent):
    out = tmp_path / "l.log"
    cfg = cfg_path({"workers": workers, "projection": {"strategy": "local", "refresh": refresh}}, name="local.yaml")
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, _ = read_log(str(out))
    assert header["basis_inconsistent"] is inconsistent
    assert main(["analyze", str(out)]) == 0
    assert ("note: moments averaged across inconsistent worker bases" in capsys.readouterr().out) is inconsistent


def test_analyze_empty_file_exit_one(tmp_path, capsys):
    empty = tmp_path / "empty.log"
    empty.write_text("")
    assert main(["analyze", str(empty)]) == 1


def test_analyze_malformed_log_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.log"
    bad.write_text('{"kind": "header", "config": {}, "version": "0"}\nnot json\n')
    assert main(["analyze", str(bad)]) == 1
    assert "line 2" in capsys.readouterr().err


def _two_line_log(step: dict, **header) -> str:
    header = dict({"kind": "header", "config": {}, "version": "0"}, **header)
    return json.dumps(header) + "\n" + json.dumps(dict({"kind": "step", "step": 0}, **step)) + "\n"


@pytest.mark.parametrize(
    "step, header, lineno",
    [
        ({"subspace": None}, {}, 2),  # no mean_loss
        ({"mean_loss": 1.0, "subspace": [{"mssv": 1.0}]}, {}, 2),  # no stable_rank
        ({"mean_loss": 1.0, "subspace": "abc"}, {}, 2),
        # flags read by truthiness would turn "false" into true and 1 into true
        ({"mean_loss": 1.0, "diverged": "false"}, {}, 2),
        ({"mean_loss": 1.0, "diverged": 1}, {}, 2),
        ({"mean_loss": 1.0}, {"basis_inconsistent": "no"}, 1),
        # MSSV lies in [0, 1]: a mean over huge values would overflow to inf
        ({"mean_loss": 1.0, "subspace": [{"mssv": 1.7e308, "stable_rank": 1.0}]}, {}, 2),
        ({"mean_loss": 1.0, "subspace": [{"mssv": -3.0, "stable_rank": 1.0}]}, {}, 2),
        # `run` never writes a non-finite number, but `json.loads` reads NaN and Infinity as floats
        ({"mean_loss": math.nan}, {}, 2),
        ({"mean_loss": math.inf}, {}, 2),
        ({"mean_loss": 1.0, "subspace": [{"mssv": 1.0, "stable_rank": math.nan}]}, {}, 2),
        ({"mean_loss": 1.0, "subspace": [{"mssv": 1.0, "stable_rank": 1e999}]}, {}, 2),
        # a stable rank is at least 1
        ({"mean_loss": 1.0, "subspace": [{"mssv": 1.0, "stable_rank": 0.5}]}, {}, 2),
        ({"mean_loss": 1.0, "subspace": [{"mssv": 1.0, "stable_rank": 0.0}]}, {}, 2),
        ({"mean_loss": 1.0, "subspace": [{"mssv": 1.0, "stable_rank": -3.0}]}, {}, 2),
    ],
    ids=["no_mean_loss", "no_stable_rank", "subspace_string", "diverged_string", "diverged_int",
         "basis_inconsistent_string", "mssv_huge", "mssv_negative",
         "mean_loss_nan", "mean_loss_inf", "stable_rank_nan", "stable_rank_1e999",
         "stable_rank_below_one", "stable_rank_zero", "stable_rank_negative"],
)
def test_analyze_malformed_step_fields_exit_one(tmp_path, capsys, step, header, lineno):
    bad = tmp_path / "bad.log"
    bad.write_text(_two_line_log(step, **header))
    assert main(["analyze", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"analyze: line {lineno}:")
    assert err.count("\n") == 1


def test_analyze_accepts_mssv_rounded_past_one(tmp_path, capsys):
    # the stagnation_demo log reaches this value: an MSSV of 1 plus rounding
    log = tmp_path / "rounded.log"
    log.write_text(_two_line_log({"mean_loss": 1.0, "subspace": [{"mssv": 1.000000000000002, "stable_rank": 1.0}]}))
    assert main(["analyze", str(log)]) == 0
    assert "mean MSSV at projection updates: 1.000000" in capsys.readouterr().out


def test_analyze_header_is_first_non_blank_line(tmp_path, capsys):
    log = tmp_path / "blank_first.log"
    log.write_text("\n" + _two_line_log({"mean_loss": 1.5, "subspace": None}))
    assert main(["analyze", str(log)]) == 0
    assert "final mean loss: 1.5" in capsys.readouterr().out
    log.write_text("\n" + _two_line_log({}).split("\n", 1)[1])  # the step record alone
    assert main(["analyze", str(log)]) == 1
    assert capsys.readouterr().err == "analyze: line 2: expected a header record\n"


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe\n",
        b'{"kind": "header"}\n' + b"[" * 100_000 + b"]" * 100_000 + b"\n",
        b'{"kind": "header"}\n{"kind": "step", "mean_loss": ' + b"9" * 5000 + b"}\n",
    ],
    ids=["not_utf8", "nested_too_deep", "int_past_str_digit_limit"],
)
def test_analyze_undecodable_log_exit_one(tmp_path, capsys, content):
    bad = tmp_path / "bad.log"
    bad.write_bytes(content)
    assert main(["analyze", str(bad)]) == 1
    assert capsys.readouterr().err.count("\n") == 1


@pytest.fixture(scope="module")
def short_run_log(tmp_path_factory):
    root = tmp_path_factory.mktemp("short_run")
    cfg = root / "config.yaml"
    cfg.write_text(yaml.safe_dump(config_dict("small")))
    log = root / "run.log"
    assert main(["run", "--config", str(cfg), "--out", str(log)]) == 0
    return [json.loads(line) for line in log.read_text().splitlines()]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_analyze_never_raises_on_mutated_log(short_run_log, tmp_path_factory, data):
    records = json.loads(json.dumps(short_run_log))
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(records) - 1))
        target = records[i]
        sub = target.get("subspace") if isinstance(target, dict) else None
        if isinstance(sub, list) and sub and isinstance(sub[0], dict) and data.draw(st.booleans()):
            target = sub[0]
        action = data.draw(st.sampled_from(["drop", "swap", "replace_record"]))
        if action == "replace_record" or not isinstance(target, dict) or not target:
            records[i] = data.draw(JSON_VALUES)
            continue
        key = data.draw(st.sampled_from(sorted(target)))
        if action == "drop":
            del target[key]
        else:
            target[key] = data.draw(JSON_VALUES)
    log = tmp_path_factory.mktemp("mutated") / "run.log"
    log.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    assert main(["analyze", str(log)]) in (0, 1)


# ints stay small so that any config that validates builds at most a 64x64
# design and runs at most 64 steps
SMALL_INTS = st.integers(-2, 64)
CONFIG_WORDS = st.sampled_from(["local", "global", "low_rank", "full_rank", "nesterov", "identity",
                                "random", "feature_blocks", "scalar"])
CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | SMALL_INTS | st.floats() | st.text(max_size=5) | CONFIG_WORDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5) | SMALL_INTS, inner, max_size=3),
    max_leaves=6,
)
SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)
            if dataclasses.is_dataclass(f.default_factory)}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_run_never_raises_on_mutated_config(tmp_path_factory, data):
    cfg = config_dict("small")
    for _ in range(data.draw(st.integers(1, 3))):
        action = data.draw(st.sampled_from(["replace", "add_unknown", "non_mapping"]))
        name = data.draw(st.sampled_from(sorted(SECTIONS)))
        if action == "non_mapping":
            cfg[name] = data.draw(CONFIG_VALUES.filter(lambda v: not isinstance(v, dict)))
            continue
        target, cls = cfg, RunConfig
        if data.draw(st.booleans()):
            if not isinstance(cfg.get(name), dict):
                cfg[name] = {}
            target, cls = cfg[name], SECTIONS[name]
        if action == "replace":
            keys = st.sampled_from([f.name for f in dataclasses.fields(cls)])
        else:
            keys = st.text(min_size=1, max_size=5) | SMALL_INTS
        for key in data.draw(st.lists(keys, min_size=1, max_size=3)):
            target[key] = data.draw(CONFIG_VALUES)
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "config.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path), "--out", str(root / "run.log")])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().count("\n") == 1, err.getvalue()
