"""Checks applied to the log of every measured run.

They test properties of the output, never stored bytes or hashes: fixes
that legitimately change trajectories must still pass.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

from lrdsim import cli, costs
from lrdsim.config import RunConfig
from lrdsim.logio import LogFormatError, read_log

ELEMENT_BYTES = 8  # float64 on the wire

# MSSV = ||Q_new^T Q_old||_F^2 / r is at most 1 in exact arithmetic; when the
# basis does not move, the float64 sum of squares rounds a few ulps above it.
MSSV_ROUNDING = 1e-12


def fired_syncs(cfg: RunConfig, t: int) -> tuple[bool, bool, bool]:
    """(first moment, second moment, parameters) sync fired at step t."""
    s = cfg.schedule
    return (t + 1) % s.k_u == 0, (t + 1) % s.k_v == 0, (t + 1) % s.k_x == 0


def is_sync_step(cfg: RunConfig, t: int) -> bool:
    """A step at which any sync fires or, for the local strategy, a refresh fires."""
    refresh = (
        cfg.projection.strategy == costs.STRATEGY_LOCAL
        and cfg.projection.refresh
        and (t - 1) % cfg.schedule.k_x == 0
    )
    return refresh or any(fired_syncs(cfg, t))


def expected_traffic(cfg: RunConfig, steps: int) -> tuple[int, int, int]:
    """(uplink bytes, downlink bytes, sync events) the cost formulas give for `steps` steps."""
    pay = costs.per_payload(
        cfg.projection.strategy,
        cfg.qhm.mode,
        costs.CostInputs(p=cfg.problem.rows, q=cfg.problem.cols, r=cfg.rank),
    )
    up = down = events = 0
    for t in range(steps):
        first, second, params = fired_syncs(cfg, t)
        if first:
            up, down, events = up + pay.up_first, down + pay.down_first, events + 1
        if second:
            up, down, events = up + pay.up_second, down + pay.down_second, events + 1
        if params:
            up += pay.up_params + pay.up_projection
            down += pay.down_params + pay.down_projection
            events += 1
    return up * ELEMENT_BYTES, down * ELEMENT_BYTES, events


def check_log(path: str, cfg: RunConfig, check_mssv: bool) -> tuple[list, dict]:
    """(problems found, facts about the log). An empty problem list means the run passed."""
    try:
        _header, steps = read_log(path)
    except (LogFormatError, OSError) as exc:
        return [f"log does not parse: {exc}"], {}
    problems = []
    if len(steps) != cfg.steps:
        problems.append(f"log has {len(steps)} step records, expected {cfg.steps}")
    if any(s["diverged"] for s in steps):
        problems.append("run diverged")
    if problems:
        return problems, {}

    first, final = steps[0]["mean_loss"], steps[-1]["mean_loss"]
    if not (math.isfinite(final) and final < first):
        problems.append(f"final mean_loss {final} is not finite and below the first step's {first}")

    up = sum(s["bytes_uplink"] for s in steps)
    down = sum(s["bytes_downlink"] for s in steps)
    want_up, want_down, events = expected_traffic(cfg, len(steps))
    if (up, down) != (want_up, want_down):
        problems.append(f"logged bytes up/down {up}/{down}, cost formulas give {want_up}/{want_down}")

    if check_mssv:
        values = []
        for s in steps:
            if fired_syncs(cfg, s["step"])[2]:
                sub = s["subspace"]
                values.append(sub[0]["mssv"] if sub and sub[0] else None)
        if not values or any(v is None or not 0.0 <= v <= 1.0 + MSSV_ROUNDING for v in values):
            problems.append(f"parameter syncs must each log an MSSV in [0, 1], got {values}")
        elif sum(values) / len(values) >= 1.0:
            problems.append(f"mean MSSV {sum(values) / len(values)} is not below 1")

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["analyze", path])
    if code != 0:
        problems.append(f"lrdsim analyze exited {code}")

    facts = {
        "log_bytes": os.path.getsize(path),
        "bytes_uplink_total": up,
        "bytes_downlink_total": down,
        "sync_events": events,
    }
    return problems, facts
