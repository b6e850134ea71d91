"""Guard for the benchmark's outside-in tracer (`lrdbench/tracing.py`).

The tracer wraps library functions by name; a refactor that renames or
removes one of them breaks the traced benchmark without failing any
library test. This loads the tracer from its file, unchanged, and traces
short global and local reference runs through the CLI.
"""

import collections
import importlib.util
from pathlib import Path

import yaml

import lrdsim.linalg
import lrdsim.optimizer
from lrdsim.cli import main

from loghash import config_dict

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("lrdbench_tracing", ROOT / "lrdbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace_reference(tracing, tmp_path, name: str):
    """(config dict, tracer) of a traced 40-step run of configs/<name>.yaml."""
    data = config_dict(name, steps=40)
    cfg = tmp_path / "ref40.yaml"
    cfg.write_text(yaml.safe_dump(data))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run.log")]) == 0
    finally:
        tracer.uninstall()
    return data, tracer


def test_tracer_resolves_every_target_over_a_reference_run(tmp_path, capsys):
    tracing = _load_tracing()
    data, tracer = _trace_reference(tracing, tmp_path, "reference_global")
    assert tracer.absent == []
    assert [span for span in tracer.spans if span[5] is not None] == []
    assert set(tracer.counts) == {f"{name}.{counter}" for name, (counter, _) in tracing.COUNTERS.items()}
    assert all(total > 0 for total in tracer.counts.values())
    # one 2-D gradient and one compression per worker and step keep the
    # counters' meaning: 84,869,120 flop and 44,564,480 bytes here
    steps, m, b, r = data["steps"], data["workers"], data["problem"]["batch_size"], data["rank"]
    p, q = data["problem"]["rows"], data["problem"]["cols"]
    assert tracer.counts["problems.stoch_gradient.flops_computed"] == steps * m * (4 * b * p * q + b * q + p * q)
    assert tracer.counts["optimizer.compress_gradient.bytes_computed"] == steps * m * 8 * (
        8 * p * q + 2 * p * r + 2 * r * q
    )
    # the benchmark's self-test reads this binding
    assert lrdsim.optimizer.as_matrix is lrdsim.linalg.as_matrix


def test_tracer_resolves_every_target_over_a_local_run(tmp_path, capsys):
    tracing = _load_tracing()
    _data, tracer = _trace_reference(tracing, tmp_path, "reference_local")
    assert tracer.absent == []
    assert [span for span in tracer.spans if span[5] is not None] == []
    calls = collections.Counter(span[0] for span in tracer.spans)
    # refreshes at t = 1 and 33 on each of the 4 workers, one SVD and one R each
    for name in ("linalg.svd", "projection.projection_with_spectrum", "projection.rotation_matrix"):
        assert calls[name] == 8, name
    # each refresh validates its signal (svd), R (mssv) and sin-theta's residual once
    assert calls["linalg.as_matrix"] == 24
