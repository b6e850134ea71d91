import dataclasses
import json
import warnings
from typing import get_args, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrdsim
from lrdsim.config import ConfigError, RunConfig, from_dict

import loghash

BASE = {
    "master_seed": 0,
    "workers": 2,
    "steps": 8,
    "rank": 4,
    "problem": {"rows": 16, "cols": 12, "design_rows": 64, "batch_size": 8, "noise_std": 0.1},
    "schedule": {"k_x": 4, "k_u": 4, "k_v": 4},
}


# every range and cross-field rule of `validate`, each broken on its own;
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
    pytest.param({"problem": {"design_rows": 10**5000 + 1}}, "problem.design_rows, problem.rows",
                 id="design_rows_past_str_digit_limit"),
    pytest.param({"problem": {"target_rank": 13}}, "problem.target_rank", id="problem.target_rank"),
    pytest.param({"problem": {"target_rank": 2, "target_alpha": 0.0}}, "problem.target_alpha",
                 id="problem.target_alpha"),
    pytest.param({"schedule": {"k_x": 0}}, "schedule periods", id="schedule.k_x"),
    pytest.param({"schedule": {"k_u": 0}}, "schedule periods", id="schedule.k_u"),
    pytest.param({"schedule": {"k_v": 0}}, "schedule periods", id="schedule.k_v"),
    pytest.param({"projection": {"strategy": "mixed"}}, "projection.strategy", id="projection.strategy"),
    pytest.param({"projection": {"init": "zeros"}}, "projection.init", id="projection.init"),
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
    pytest.param({"outer": {"kind": "adam"}}, "outer.kind", id="outer.kind"),
    pytest.param({"outer": {"outer_lr": 0.0}}, "outer.outer_lr", id="outer.outer_lr"),
    pytest.param({"outer": {"outer_momentum": 1.0}}, "outer.outer_momentum", id="outer.outer_momentum"),
    pytest.param({"flags": {"sparsify_keep": 0.0}}, "flags.sparsify_keep", id="sparsify_keep_low"),
    pytest.param({"flags": {"sparsify_keep": 1.5}}, "flags.sparsify_keep", id="sparsify_keep_high"),
    pytest.param({"flags": {"mu_semantics": "median"}}, "flags.mu_semantics", id="flags.mu_semantics"),
]


@pytest.mark.parametrize("overrides, prefix", RULES)
def test_validate_rejects_each_rule_naming_its_field(overrides, prefix):
    data = json.loads(json.dumps(BASE))
    for key, value in overrides.items():
        if isinstance(value, dict):
            data.setdefault(key, {}).update(value)
        else:
            data[key] = value
    with pytest.raises(ConfigError) as exc:
        from_dict(data)
    assert str(exc.value).startswith(prefix), str(exc.value)


def _int_fields(cls, prefix=()):
    """Key paths of the schema's integer fields, nested sections included."""
    for name, hint in get_type_hints(cls).items():
        if dataclasses.is_dataclass(hint):
            yield from _int_fields(hint, prefix + (name,))
        elif int in (hint, *get_args(hint)):
            yield prefix + (name,)


INT_FIELDS = sorted(_int_fields(RunConfig))


# validation alone, so ints of any size cost no allocation: a config that
# passes is never built into an Engine
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_from_dict_raises_only_config_error_on_huge_ints(data):
    cfg = json.loads(json.dumps(BASE))
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
    from_dict(loghash.variant_dict(name))


def test_package_version_is_lrdsim_version():
    # pyproject.toml reads its version from lrdsim.__version__, which the log header records
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=r"Support for `\[tool\.setuptools\]`", category=UserWarning)
        project = pyprojecttoml.read_configuration(loghash.ROOT / "pyproject.toml")["project"]
    assert project["version"] == lrdsim.__version__
