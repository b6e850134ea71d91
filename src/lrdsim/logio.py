"""Newline-delimited JSON metric logs.

The first line is a header record carrying the fully resolved config and
artifact version; each subsequent line is one step record. Readers skip
blank lines, so the header is the first non-blank line. Logs are
append-only and parseable line by line. Serialization is deterministic
(sorted keys, no NaN) so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, TextIO

from . import __version__
from .config import STRATEGY_LOCAL, RunConfig


class LogFormatError(ValueError):
    """Malformed log; message carries the 1-based line number."""


def header_record(config: RunConfig) -> dict:
    """`basis_inconsistent` marks runs whose workers average moments across bases that refresh apart."""
    proj = config.projection
    return {
        "kind": "header",
        "version": __version__,
        "config": config.to_dict(),
        "basis_inconsistent": proj.strategy == STRATEGY_LOCAL and proj.refresh and config.workers > 1,
    }


def dump_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, allow_nan=False)


def write_log(fh: TextIO, config: RunConfig, records: Iterable[dict]) -> dict:
    """Write the header, then each record as given, to `fh`; returns summary {steps, diverged, mean_loss}.

    `mean_loss` is the final record's (None when it diverged or no step ran).
    """
    steps = 0
    diverged = False
    mean_loss = None
    fh.write(dump_line(header_record(config)) + "\n")
    for rec in records:
        fh.write(dump_line(rec) + "\n")
        steps += 1
        diverged = diverged or rec["diverged"]
        mean_loss = rec["mean_loss"]
    return {"steps": steps, "diverged": diverged, "mean_loss": mean_loss}


def _is_number(value) -> bool:
    """A JSON number that converts to a finite float, as `dump_line` writes; booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_step(obj: dict, lineno: int) -> None:
    """Check the step fields that `lrdsim analyze` reads."""
    if "mean_loss" not in obj or not (obj["mean_loss"] is None or _is_number(obj["mean_loss"])):
        raise LogFormatError(f"line {lineno}: mean_loss must be a finite number or null")
    subspace = obj.get("subspace")
    if subspace is not None and not isinstance(subspace, list):
        raise LogFormatError(f"line {lineno}: subspace must be a list or null")
    entry = subspace[0] if subspace else None
    if entry is not None and not (
        isinstance(entry, dict) and _is_number(entry.get("mssv")) and _is_number(entry.get("stable_rank"))
    ):
        raise LogFormatError(f"line {lineno}: subspace entry needs finite numeric mssv and stable_rank")
    # MSSV lies in [0, 1]; rounding takes real logs a few ulps past 1
    if entry is not None and not 0.0 <= entry["mssv"] <= 1.0 + 1e-9:
        raise LogFormatError(f"line {lineno}: mssv must lie in [0, 1], got {entry['mssv']}")
    # ||A||_F^2 / sigma_1^2 >= 1, exactly so in float64: the sum of squares includes sigma_1^2
    if entry is not None and entry["stable_rank"] < 1.0:
        raise LogFormatError(f"line {lineno}: stable_rank must be at least 1, got {entry['stable_rank']}")
    if not isinstance(obj.get("diverged", False), bool):
        raise LogFormatError(f"line {lineno}: diverged must be true or false")


def read_log(path: str) -> tuple[dict, list]:
    """Parse a log file into (header, step dicts). Validates structure."""
    header = None
    steps = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LogFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            except ValueError as exc:  # an int longer than the interpreter's int-from-str digit limit
                raise LogFormatError(f"line {lineno}: {exc}") from exc
            if header is None:
                if not isinstance(obj, dict) or obj.get("kind") != "header":
                    raise LogFormatError(f"line {lineno}: expected a header record")
                if not isinstance(obj.get("basis_inconsistent", False), bool):
                    raise LogFormatError(f"line {lineno}: basis_inconsistent must be true or false")
                header = obj
            else:
                if not isinstance(obj, dict) or obj.get("kind") != "step":
                    raise LogFormatError(f"line {lineno}: expected a step record")
                _check_step(obj, lineno)
                steps.append(obj)
    if header is None:
        raise LogFormatError("line 1: log is empty")
    return header, steps
