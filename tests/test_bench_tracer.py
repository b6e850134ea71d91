"""Guard for the benchmark's outside-in tracer (`lrdbench/tracing.py`).

The tracer wraps library functions by name; a refactor that renames or
removes one of them breaks the traced benchmark without failing any
library test. This loads the tracer from its file, unchanged, and traces
a short reference run through the CLI.
"""

import importlib.util
from pathlib import Path

import yaml

import lrdsim.linalg
import lrdsim.optimizer
from lrdsim.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("lrdbench_tracing", ROOT / "lrdbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_target_over_a_reference_run(tmp_path, capsys):
    tracing = _load_tracing()
    data = yaml.safe_load((ROOT / "configs" / "reference_global.yaml").read_text())
    data["steps"] = 40
    cfg = tmp_path / "ref40.yaml"
    cfg.write_text(yaml.safe_dump(data))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run.log")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert [span for span in tracer.spans if span[5] is not None] == []
    assert set(tracer.counts) == {f"{name}.{counter}" for name, (counter, _) in tracing.COUNTERS.items()}
    assert all(total > 0 for total in tracer.counts.values())
    # the benchmark's self-test reads this binding
    assert lrdsim.optimizer.as_matrix is lrdsim.linalg.as_matrix
