import ast
import csv
import dataclasses
import io
import json
import sys
import warnings
from typing import Literal, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrdsim
from lrdsim.config import ConfigError, RunConfig, from_dict
from lrdsim.distsim import Engine
from lrdsim.logio import write_log

import loghash


# every allowed-value and digit-limit rule of the schema and every range and
# cross-field rule of `validate`, each broken on its own;
# `prefix` is how the message starts, naming the field
RULES = [
    pytest.param({"master_seed": -1}, "master_seed", id="master_seed"),
    pytest.param({"master_seed": 10**5000}, "master_seed must be an integer, got an integer of more than",
                 id="master_seed_past_str_digit_limit"),
    pytest.param({"workers": 0}, "workers", id="workers"),
    pytest.param({"steps": 0}, "steps", id="steps"),
    pytest.param({"steps": 10**5000}, "steps must be an integer, got an integer of more than",
                 id="steps_past_str_digit_limit"),
    pytest.param({"problem": {"type": "logistic"}}, "problem.type", id="problem.type"),
    pytest.param({"problem": {"rows": 0}}, "problem.rows and problem.cols", id="problem.rows"),
    pytest.param({"problem": {"cols": 0}}, "problem.rows and problem.cols", id="problem.cols"),
    pytest.param({"rank": 0}, "rank must lie in", id="rank_low"),
    pytest.param({"rank": 13}, "rank must lie in", id="rank_high"),
    pytest.param({"problem": {"design_rows": 1}}, "problem.design_rows", id="design_rows_below_workers"),
    pytest.param({"problem": {"design_rows": 65}}, "problem.design_rows", id="design_rows_uneven"),
    pytest.param({"problem": {"noise_std": -0.1}}, "problem.noise_std", id="problem.noise_std"),
    pytest.param({"problem": {"shard_policy": "random"}}, "problem.shard_policy", id="problem.shard_policy"),
    pytest.param({"problem": {"shard_policy": "feature_blocks", "rows": 15}}, "problem.rows",
                 id="feature_blocks_rows"),
    pytest.param({"problem": {"batch_size": 0}}, "problem.batch_size", id="batch_size_low"),
    pytest.param({"problem": {"batch_size": 33}}, "problem.batch_size", id="batch_size_high"),
    pytest.param({"problem": {"design_rows": 2**30}}, "problem.design_rows, problem.rows", id="array_bytes"),
    pytest.param({"problem": {"design_rows": 10**5000 + 1}},
                 "problem.design_rows must be an integer, got an integer of more than",
                 id="design_rows_past_str_digit_limit"),
    pytest.param({"problem": {"target_rank": 13}}, "problem.target_rank", id="problem.target_rank"),
    pytest.param({"problem": {"target_rank": 2, "target_alpha": 0.0}}, "problem.target_alpha",
                 id="problem.target_alpha"),
    pytest.param({"schedule": {"k_x": 0}}, "schedule periods", id="schedule.k_x"),
    pytest.param({"schedule": {"k_u": 0}}, "schedule periods", id="schedule.k_u"),
    pytest.param({"schedule": {"k_v": 0}}, "schedule periods", id="schedule.k_v"),
    pytest.param({"projection": {"strategy": "mixed"}}, "projection.strategy", id="projection.strategy"),
    pytest.param({"qhm": {"mode": "full"}}, "qhm.mode", id="qhm.mode"),
    pytest.param({"qhm": {"omega": 0.5}}, "qhm.omega must be omitted", id="omega_without_mode"),
    pytest.param({"qhm": {"mode": "low_rank"}}, "qhm.omega is required", id="omega_missing"),
    pytest.param({"qhm": {"mode": "low_rank", "omega": 1.5}}, "qhm.omega must lie in", id="omega_high"),
    pytest.param({"qhm": {"mode": "full_rank", "omega": -0.1}}, "qhm.omega must lie in", id="omega_low"),
    pytest.param({"qhm": {"start_step": 9}}, "qhm.start_step", id="qhm.start_step"),
    pytest.param({"hyperparams": {"beta1": 1.0}}, "hyperparams.beta1", id="beta1_high"),
    pytest.param({"hyperparams": {"beta1": -0.1}}, "hyperparams.beta1", id="beta1_low"),
    pytest.param({"hyperparams": {"beta2": 1.0}}, "hyperparams.beta2", id="beta2_high"),
    pytest.param({"hyperparams": {"beta2": -0.1}}, "hyperparams.beta2", id="beta2_low"),
    pytest.param({"hyperparams": {"eps": 0.0}}, "hyperparams.eps", id="hyperparams.eps"),
    pytest.param({"hyperparams": {"clip_radius": 0.0}}, "hyperparams.clip_radius", id="hyperparams.clip_radius"),
    pytest.param({"hyperparams": {"lr": 0.0}}, "hyperparams.lr", id="hyperparams.lr"),
    pytest.param({"hyperparams": {"lr": 10**5000}}, "hyperparams.lr", id="lr_past_str_digit_limit"),
    pytest.param({"hyperparams": {"warmup_steps": -1}}, "hyperparams.warmup_steps", id="warmup_steps_low"),
    pytest.param({"hyperparams": {"warmup_steps": 8}}, "hyperparams.warmup_steps", id="warmup_steps_high"),
]


def _schema_fields(cls, prefix=()):
    """(key path, annotation) of every schema field, nested sections included."""
    for name, hint in get_type_hints(cls).items():
        if dataclasses.is_dataclass(hint):
            yield from _schema_fields(hint, prefix + (name,))
        else:
            yield prefix + (name,), hint


SCHEMA_FIELDS = list(_schema_fields(RunConfig))
INT_FIELDS = sorted(path for path, hint in SCHEMA_FIELDS if int in (hint, *get_args(hint)))
FLOAT_FIELDS = sorted(path for path, hint in SCHEMA_FIELDS if float in (hint, *get_args(hint)))
# the string settings; each RULES case breaking one gives the field's path as its prefix
ENUM_FIELDS = {"problem.type", "problem.shard_policy", "projection.strategy", "qhm.mode"}


@pytest.mark.parametrize("overrides, prefix", RULES)
def test_validate_rejects_each_rule_naming_its_field(overrides, prefix):
    with pytest.raises(ConfigError) as exc:
        from_dict(loghash.config_dict("small", **overrides))
    assert str(exc.value).startswith(prefix), str(exc.value)
    if prefix in ENUM_FIELDS:
        section, key = prefix.split(".")
        assert repr(overrides[section][key]) in str(exc.value), str(exc.value)


def test_no_schema_field_is_a_plain_string():
    # a string setting is a Literal of its allowed values, which `_check_type` enforces
    assert [path for path, hint in SCHEMA_FIELDS if str in (hint, *get_args(hint))] == []
    assert {".".join(path) for path, hint in SCHEMA_FIELDS if get_origin(hint) is Literal} == ENUM_FIELDS


def test_config_imports_no_other_lrdsim_module():
    # config defines the string settings' values, so every module that branches on one imports config, never the reverse
    src = loghash.ROOT / "src" / "lrdsim"
    tree = ast.parse((src / "config.py").read_text(encoding="utf-8"))
    assert [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level > 0] == []
    assert [path.name for path in sorted(src.glob("*.py")) if "TYPE_CHECKING" in path.read_text(encoding="utf-8")] == []


@pytest.mark.parametrize("section", [None, "problem"], ids=["top_level", "in_section"])
def test_unknown_key_past_str_digit_limit_is_named_by_its_length(section):
    cfg = loghash.config_dict("small")
    (cfg[section] if section else cfg)[10**5000] = 1
    with pytest.raises(ConfigError) as exc:
        from_dict(cfg)
    where = f"{section}." if section else ""
    assert str(exc.value) == f"unknown key '{where}an integer of more than {sys.get_int_max_str_digits()} digits'"


def test_float_field_written_as_an_integer_is_the_same_run():
    # every float field written as an integer: the config and the log match its float twin byte for byte
    ints = {("problem", "noise_std"): 1, ("problem", "target_alpha"): 1, ("qhm", "omega"): 1,
            ("hyperparams", "beta1"): 0, ("hyperparams", "beta2"): 0, ("hyperparams", "eps"): 1,
            ("hyperparams", "clip_radius"): 1, ("hyperparams", "lr"): 1}
    assert sorted(ints) == FLOAT_FIELDS
    twins = []
    for kind in (int, float):
        sections = {"problem": {"target_rank": 2}, "qhm": {"mode": "low_rank"}, "hyperparams": {}}
        for (section, key), value in ints.items():
            sections[section][key] = kind(value)
        cfg = from_dict(loghash.config_dict("small", **sections))
        log = io.StringIO()
        write_log(log, cfg, Engine(cfg).records())
        twins.append((json.dumps(cfg.to_dict()), log.getvalue()))
    assert twins[0] == twins[1]


# validation alone, so ints of any size cost no allocation: a config that
# passes is never built into an Engine
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_from_dict_raises_only_config_error_on_huge_ints(data):
    cfg = loghash.config_dict("small")
    for path in data.draw(st.lists(st.sampled_from(INT_FIELDS), min_size=1, max_size=3, unique=True)):
        *sections, key = path
        target = cfg
        for name in sections:
            target = target.setdefault(name, {})
        target[key] = data.draw(st.integers(-(10**1000), 10**1000))
    try:
        from_dict(cfg)
    except ConfigError:
        pass


# a schema change that orphans a byte-identity variant fails here, without running it
@pytest.mark.parametrize("name", list(loghash.VARIANTS))
def test_loghash_variant_builds(name):
    base, overrides = loghash.VARIANTS[name]
    from_dict(loghash.config_dict(base, **overrides))


def test_loghash_compare_says_when_only_the_header_differs():
    recorded = {"sha256": "h0", "steps_sha256": "s0", "exit": 0, "stderr_lines": 0}
    want = {"header_only": recorded, "steps_too": recorded, "no_steps_hash": dict(recorded, steps_sha256=None)}
    got = {"header_only": dict(recorded, sha256="h1"), "steps_too": dict(recorded, sha256="h1", steps_sha256="s1"),
           "no_steps_hash": dict(recorded, sha256="h1")}
    assert loghash.compare(got, want) == [
        "header_only: sha256 'h1', recorded 'h0'; its step records match, so only the header differs",
        "steps_too: sha256 'h1', recorded 'h0'",
        "steps_too: steps_sha256 's1', recorded 's0'",
        "no_steps_hash: sha256 'h1', recorded 'h0'",
    ]


def test_loghash_summary_digest_ignores_a_log_path_holding_a_comma():
    # the CSV writer quotes such a path; cutting the raw line at its last comma would cut inside it
    def digest(path):
        text = io.StringIO()
        out = csv.writer(text, lineterminator="\n")
        out.writerow(("axis", "value", "final_loss", "diverged", "log"))
        out.writerow(("batch_and_workers", "1", "0.5", "false", path))
        return loghash.summary_sha256(text.getvalue())

    assert digest("/tmp/t,mp/sweep/M1.log") == digest("/tmp/tmp/sweep/M1.log")


def test_readme_byte_gate_names_newest_bench_file():
    # the gate the README gives must check every variant against the latest recorded hashes
    newest = max(loghash.ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
    readme = (loghash.ROOT / "README.md").read_text(encoding="utf-8")
    assert f"python3 tests/loghash.py --compare {newest.name}" in readme
    assert f"python3 tests/loghash.py --compare {newest.name}" in loghash.__doc__
    recorded = json.loads(newest.read_text(encoding="utf-8"))["log_hashes"]["configs"]
    assert sorted(set(loghash.VARIANTS) - set(recorded)) == []


def test_package_version_is_lrdsim_version():
    # pyproject.toml reads its version from lrdsim.__version__, which the log header records
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=r"Support for `\[tool\.setuptools\]`", category=UserWarning)
        project = pyprojecttoml.read_configuration(loghash.ROOT / "pyproject.toml")["project"]
    assert project["version"] == lrdsim.__version__
