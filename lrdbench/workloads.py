"""What the benchmark measures: its workloads and the names of its metrics.

Every later performance claim in this repository is stated against these
names. BENCHMARK.json is generated from this module (`run.py --all`), and
the self-test checks that the committed file still matches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

# How long one invocation launches measured runs, and the command and
# directories BENCHMARK.json names.
RUN_SECONDS = 40
COMMAND = ["python3", "lrdbench/run.py"]
PATHS = ["lrdbench"]

# Every run is serial: `lrdsim run --threads 1` and one BLAS thread.
BLAS_THREADS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # a repo-relative YAML path used as committed, or a config mapping the
    # benchmark writes out itself
    config: Union[str, dict]
    # steps of the shortened copy used by the determinism check: enough to
    # cover a parameter sync and, for the local strategy, a refresh
    short_steps: int
    # the paper's exploration claim: every parameter sync logs an MSSV in [0, 1]
    # and their mean is below 1
    check_mssv: bool = False
    # listed in BENCHMARK.json, so a regression beyond the bounds fails a change
    gated: bool = True


# p x q = 1024 x 1024 float64 is 8 MiB per array. With projection.refresh off
# the SVD is never called, so time goes to full-size temporaries, validation
# passes and parameter averaging: the bypass workload for SVD and projection work.
WIDE_FIXED = {
    "master_seed": 0,
    "workers": 2,
    "steps": 140,
    "rank": 32,
    "problem": {
        "type": "matrix_regression",
        "rows": 1024,
        "cols": 1024,
        "design_rows": 2048,
        "noise_std": 0.5,
        "shard_policy": "iid",
        "batch_size": 32,
        "target_rank": 64,
        "target_alpha": 0.25,
    },
    "schedule": {"k_x": 4, "k_u": 4, "k_v": 4},
    "projection": {"strategy": "global", "refresh": False},
    "qhm": {"mode": "full_rank", "omega": 0.95, "start_step": 8},
    "hyperparams": {
        "beta1": 0.9,
        "beta2": 0.999,
        "eps": 1.0e-8,
        "clip_radius": 1.0,
        "lr": 0.01,
        "warmup_steps": 8,
    },
}

WORKLOADS = (
    Workload(
        "ref_global",
        "The paper's headline config: one aggregated SVD per parameter sync (20) plus moment "
        "rotation on every worker; per-step Python overhead is the rest.",
        "configs/reference_global.yaml",
        short_steps=40,
        check_mssv=True,
    ),
    Workload(
        "ref_local",
        "Each worker refreshes its own basis (80 SVDs) with low-rank QHM, so the linalg layer "
        "does most of the work and refresh and rotation run per worker.",
        "configs/reference_local.yaml",
        short_steps=40,
    ),
    Workload(
        "wide_fixed",
        "1024x1024 with a fixed basis: no SVD at all, so 8 MiB temporaries, validation passes "
        "and parameter averaging dominate; the bypass for SVD and projection changes.",
        WIDE_FIXED,
        short_steps=12,
        # Runnable, but not gated: its 15 s runs leave two or three per
        # invocation, and at 25 s per invocation its timings spread 20-22%
        # over ten seeds against the 0.25 bound.
        gated=False,
    ),
)

# (name, unit, better, bound): `bound` is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
#
# Timings come from a shared host whose vCPUs each switch, for seconds to
# minutes at a time, between an uncontended speed and one 1.5-2x slower.
# Medians mix the two speeds and spread 20-30% between invocations; the
# 90th percentiles sit inside the slow cluster, which nearly every
# invocation visits, and spread 4-10% at 40 s per invocation. So the gated
# timings are 90th percentiles, with the widest allowed bound; the medians
# are printed.
END_TO_END = (
    # from just before `import lrdsim` until the Engine is constructed; median over runs
    ("setup_s", "s", "lower", 0.25),
    # from the first step until `cli.main` returns with the log closed; 90th percentile over runs
    ("run_s_p90", "s", "lower", 0.25),
    # wall time between consecutive records of Engine.records(), all runs pooled
    ("plain_step_ms_p90", "ms", "lower", 0.25),
    ("sync_step_ms_p90", "ms", "lower", 0.25),
    # ru_maxrss of the child process; median over runs
    ("peak_rss_mb", "MiB", "lower", 0.05),
)

# Printed with the metrics above but not listed in BENCHMARK.json. fail_frac
# is 0 on a healthy commit, and listed metrics must never read 0; the
# result's `attempted` and `failed` counts carry it.
INFORMATIONAL = (
    ("run_s", "s"),
    ("plain_step_ms_p50", "ms"),
    ("sync_step_ms_p50", "ms"),
    ("fail_frac", "1"),
)

# (name, unit, better) from the traced run. `<span>.calls|self_s|total_s`
# come from spans around the named function; the rest are counts.
PER_LAYER = (
    ("linalg.svd.calls", "count", "lower"),
    ("linalg.svd.self_s", "s", "lower"),
    ("linalg.as_matrix.calls", "count", "lower"),
    ("linalg.as_matrix.self_s", "s", "lower"),
    ("linalg.clip_frobenius.calls", "count", "lower"),
    ("linalg.clip_frobenius.self_s", "s", "lower"),
    ("optimizer.compress_gradient.calls", "count", "lower"),
    ("optimizer.compress_gradient.self_s", "s", "lower"),
    ("optimizer.compress_gradient.bytes_computed", "bytes", "lower"),
    ("optimizer.update_moments.calls", "count", "lower"),
    ("optimizer.update_moments.self_s", "s", "lower"),
    ("optimizer.compute_update.calls", "count", "lower"),
    ("optimizer.compute_update.self_s", "s", "lower"),
    ("projection.projection_with_spectrum.self_s", "s", "lower"),
    ("projection.rotation_matrix.self_s", "s", "lower"),
    ("projection.rotate_first_moment.self_s", "s", "lower"),
    ("projection.rotate_second_moment.self_s", "s", "lower"),
    ("projection.subspace_metrics_from_update.self_s", "s", "lower"),
    ("projection.refresh_degenerate", "count", "lower"),
    ("projection.refresh_applied_ratio", "ratio", "higher"),
    ("problems.sample_batch.calls", "count", "lower"),
    ("problems.sample_batch.self_s", "s", "lower"),
    ("problems.stoch_gradient.calls", "count", "lower"),
    ("problems.stoch_gradient.self_s", "s", "lower"),
    ("problems.stoch_gradient.flops_computed", "flop", "lower"),
    ("problems.loss.calls", "count", "lower"),
    ("problems.loss.self_s", "s", "lower"),
    ("problems.MatrixRegression.init.self_s", "s", "lower"),
    ("distsim.Engine.init.self_s", "s", "lower"),
    ("distsim.engine.self_s", "s", "lower"),
    ("distsim.sparsify_topk.self_s", "s", "lower"),
    ("distsim.bytes_uplink_total", "bytes", "lower"),
    ("distsim.bytes_downlink_total", "bytes", "lower"),
    ("distsim.sync_events", "count", "lower"),
    ("logio.dump_line.calls", "count", "lower"),
    ("logio.dump_line.self_s", "s", "lower"),
    ("logio.log_bytes", "bytes", "lower"),
    ("config.load_file.total_s", "s", "lower"),
    ("cli.cmd_run.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(name)


def spec() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS if w.gated],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
