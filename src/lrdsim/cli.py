"""Command-line surface: run, sweep, costs, analyze.

Exit codes: 0 success, 1 configuration or usage error, 2 run completed
but diverged (sweeps also exit 2 when any point diverges).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import costs as costs_mod
from .config import QHM_MODES, STRATEGY_GLOBAL, STRATEGY_LOCAL, ConfigError, RunConfig, _shown, from_dict, load_file
from .distsim import Engine
from .logio import LogFormatError, read_log, write_log

# axis -> (value type, label prefix, config paths the value sets); batch_and_workers is computed in _sweep_config
SWEEP_AXES = {"rank": (int, "rank", ("rank",)),
              "K": (int, "K", ("schedule.k_x", "schedule.k_u", "schedule.k_v")),
              "batch_and_workers": (int, "M", ("workers", "problem.batch_size")),
              "omega": (float, "omega", ("qhm.omega",))}
NAME_MAX = 255  # bytes in a file name on common file systems; a point's log is "<label>.log"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the CLI contract reserves
    # 2 for divergence, so usage problems are remapped to exit 1
    def parse_known_args(self, args=None, namespace=None):
        self._args = sys.argv[1:] if args is None else list(args)  # each subparser records its own share
        return super().parse_known_args(args, namespace)

    def error(self, message):
        # argparse echoes an argument, or the part after its '=', as given or as its repr: cut each as `_shown` does
        texts = {part for arg in self._args for part in (arg, arg.partition("=")[2])
                 if len(part) > 20 or not part.isprintable()}
        for text in sorted(texts, key=len, reverse=True):  # an argument before the part after its '='
            show = str if text.isprintable() else repr  # a raw newline would split the one-line message
            message = message.replace(repr(text), _shown(text)[1]).replace(text, _shown(text, show)[1])
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid positive integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {_shown(value)[1]}")
    return value


THREADS_HELP = "accepted for compatibility; does not change output"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lrdsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write a metric log")
    p_run.add_argument("--config", required=True, help="YAML config path")
    p_run.add_argument("--out", required=True, help="output log path")
    p_run.add_argument("--threads", type=_positive_int, default=None, help=THREADS_HELP)
    p_run.add_argument("--seed", type=int, default=None, help="override master_seed")

    p_sweep = sub.add_parser("sweep", help="run one config across an axis of values")
    p_sweep.add_argument("--config", required=True, help="base YAML config path")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--out-dir", required=True, help="directory for per-point logs and summary.csv")
    p_sweep.add_argument("--threads", type=_positive_int, default=None, help=THREADS_HELP)
    p_sweep.add_argument("--seed", type=int, default=None, help="override master_seed for every point")

    p_costs = sub.add_parser("costs", help="print per-variant payload/memory counts and reduction ratios")
    p_costs.add_argument("--p", type=int, required=True)
    p_costs.add_argument("--q", type=int, required=True)
    p_costs.add_argument("--r", type=int, required=True)
    p_costs.add_argument("--k", type=int, default=None, help="sets k-x, k-u and k-v together")
    p_costs.add_argument("--k-x", type=int, default=None)
    p_costs.add_argument("--k-u", type=int, default=None)
    p_costs.add_argument("--k-v", type=int, default=None)

    p_an = sub.add_parser("analyze", help="summarize a metric log")
    p_an.add_argument("log", help="metric log path")
    return parser


def _derived(cfg: RunConfig, changes: dict) -> RunConfig:
    """`cfg` with each dotted config path in `changes` set to its value, built and checked by `from_dict`."""
    data = cfg.to_dict()
    for path, value in changes.items():
        section, _, key = path.rpartition(".")
        (data[section] if section else data)[key] = value
    return from_dict(data)


def _apply_seed(cfg: RunConfig, seed) -> RunConfig:
    return cfg if seed is None else _derived(cfg, {"master_seed": seed})


def _error_text(exc: Exception) -> str:
    """`exc`'s message; an OSError's path is cut as `_shown` cuts an echoed value, its errno text kept."""
    path = exc.filename if isinstance(exc, OSError) else None
    return str(exc) if path is None else f"[Errno {exc.errno}] {exc.strerror}: {_shown(path)[1]}"


def _write_run(cfg: RunConfig, path: str | Path) -> dict:
    """Run `cfg`, streaming its log to `path`; returns `write_log`'s summary."""
    # the log opens first, so an unwritable path fails before any allocation;
    # a diverging run's overflow is reported by its `diverged` record and exit 2
    with open(path, "w", encoding="utf-8") as fh, np.errstate(over="ignore", invalid="ignore"):
        return write_log(fh, cfg, Engine(cfg).records())


def cmd_run(args) -> int:
    try:
        cfg = _apply_seed(load_file(args.config), args.seed)
    except (ConfigError, OSError) as exc:
        print(f"config error: {_error_text(exc)}", file=sys.stderr)
        return 1
    try:
        summary = _write_run(cfg, args.out)
    except OSError as exc:
        print(f"output error: {_error_text(exc)}", file=sys.stderr)
        return 1
    if summary["diverged"]:
        print(f"run diverged after {summary['steps']} steps; log at {args.out}", file=sys.stderr)
        return 2
    print(f"wrote {summary['steps']} steps to {args.out}")
    return 0


def _sweep_config(base: RunConfig, axis: str, raw_value: str) -> tuple[RunConfig, str]:
    """Resolved config for one sweep point plus a filename-safe label."""
    kind, prefix, paths = SWEEP_AXES[axis]
    try:
        value = kind(raw_value)
    except ValueError:
        kind_name = "a number" if kind is float else "an integer"
        raise ConfigError(f"sweep axis {axis} needs {kind_name}, got {_shown(raw_value)[1]}") from None
    changes = dict.fromkeys(paths, value)
    if axis == "batch_and_workers" and value >= 1:  # below 1 worker, from_dict reports the workers rule
        global_batch = base.workers * base.problem.batch_size
        if global_batch % value != 0:
            raise ConfigError(f"global batch {global_batch} does not divide across {_shown(value)[1]} workers")
        changes["problem.batch_size"] = global_batch // value
    return _derived(base, changes), f"{prefix}{value}"


def cmd_sweep(args) -> int:
    try:
        base = _apply_seed(load_file(args.config), args.seed)
        values = [v.strip() for v in args.values.split(",") if v.strip()]
        if not values:
            raise ConfigError("no sweep values given")
        points = {}  # label -> (raw value, config)
        for raw in values:
            cfg, label = _sweep_config(base, args.axis, raw)
            if label in points:
                raise ConfigError(f"sweep values {_shown(points[label][0])[1]} and {_shown(raw)[1]} both name point "
                                  f"{_shown(label, str)[1]}")
            points[label] = (raw, cfg)
        longest = max(points, key=len)
        if len(longest) + len(".log") > NAME_MAX:
            raise ConfigError(f"sweep point {_shown(longest, str)[1]} needs a file name of over {NAME_MAX} bytes")
    except (ConfigError, OSError) as exc:
        print(f"config error: {_error_text(exc)}", file=sys.stderr)
        return 1
    out_dir = Path(args.out_dir)
    summary_path = out_dir / "summary.csv"
    rows = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for label, (raw, cfg) in points.items():
            path = out_dir / f"{label}.log"
            summary = _write_run(cfg, path)
            if summary["diverged"]:
                print(f"sweep point {label} diverged after {summary['steps']} steps; log at {path}", file=sys.stderr)
            rows.append((raw, str(path), summary["mean_loss"], summary["diverged"]))
        with open(summary_path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("axis", "value", "final_loss", "diverged", "log"))
            for raw, path, final, diverged in rows:
                out.writerow((args.axis, raw, "" if final is None else repr(final), str(diverged).lower(), path))
    except OSError as exc:
        print(f"output error: {_error_text(exc)}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} runs and {summary_path}")
    return 2 if any(r[3] for r in rows) else 0


def _fmt_ratio(value: float) -> str:
    flag = "" if value > 1.0 else "  (no benefit)"
    return f"{value:.2f}{flag}"


def _costs_lines(inputs: costs_mod.CostInputs) -> list:
    """The `costs` report; raises OverflowError when a ratio falls outside the float range."""
    strategies = (STRATEGY_GLOBAL, STRATEGY_LOCAL)
    rows = [(variant, mode) for variant in strategies for mode in QHM_MODES]
    rows += [(costs_mod.BASELINE_LOCAL_ADAM, None), (costs_mod.BASELINE_DDP, None)]
    lines = [
        f"per-payload element counts (p={inputs.p}, q={inputs.q}, r={inputs.r}, "
        f"K_x={inputs.k_x}, K_u={inputs.k_u}, K_v={inputs.k_v})",
        f"{'variant':<22}{'uplink':>12}{'downlink':>12}{'memory':>12}",
    ]
    for variant, mode in rows:
        pay = costs_mod.per_payload(variant, mode, inputs)
        if variant in strategies:
            mem = costs_mod.memory_overhead(inputs)
        elif variant == costs_mod.BASELINE_LOCAL_ADAM:
            mem = costs_mod.adam_memory(inputs)
        else:
            mem = ""
        label = variant if mode is None else f"{variant}/{mode}"
        lines.append(f"{label:<22}{pay.uplink_total:>12}{pay.downlink_total:>12}{str(mem):>12}")
    return lines + [
        "",
        f"reduction vs low-rank DDP:   {_fmt_ratio(costs_mod.reduction_vs_lowrank_ddp(inputs))}",
        f"reduction vs full-rank DDP:  {_fmt_ratio(costs_mod.reduction_vs_fullrank_ddp(inputs))}",
        f"reduction vs full-rank local (global): {_fmt_ratio(costs_mod.reduction_vs_fullrank_local(inputs, STRATEGY_GLOBAL))}",
        f"reduction vs full-rank local (local):  {_fmt_ratio(costs_mod.reduction_vs_fullrank_local(inputs, STRATEGY_LOCAL))}",
        f"optimizer-state memory ratio p/r: {costs_mod.optimizer_state_memory_ratio(inputs):.2f}",
    ]


def cmd_costs(args) -> int:
    k_x, k_u, k_v = (args.k if k is None else k for k in (args.k_x, args.k_u, args.k_v))
    if None in (k_x, k_u, k_v):
        print("costs: provide --k or all of --k-x/--k-u/--k-v", file=sys.stderr)
        return 1
    try:
        # the whole report is formed before any of it prints
        lines = _costs_lines(costs_mod.CostInputs(p=args.p, q=args.q, r=args.r, k_x=k_x, k_u=k_u, k_v=k_v))
    except (ValueError, OverflowError) as exc:
        print(f"costs: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


def cmd_analyze(args) -> int:
    try:
        header, steps = read_log(args.log)
    except (LogFormatError, OSError, UnicodeDecodeError, RecursionError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 1
    if not steps:
        print("analyze: log has a header but no step records", file=sys.stderr)
        return 1
    final = steps[-1]
    diverged = any(s.get("diverged") for s in steps)
    # the engine models one parameter tensor, so each subspace list holds one entry
    updates = [s["subspace"][0] for s in steps if s.get("subspace") and s["subspace"][0]]
    print(f"steps: {len(steps)}")
    print(f"final mean loss: {final['mean_loss']}")
    print(f"diverged: {str(diverged).lower()}")
    if header.get("basis_inconsistent"):
        print("note: moments averaged across inconsistent worker bases")
    if updates:
        mssv = [m["mssv"] for m in updates]
        ranks = [m["stable_rank"] for m in updates]
        print(f"layer 0: mean MSSV at projection updates: {np.mean(mssv):.6f} ({len(mssv)} updates)")
        print(f"stable rank of projection signals: min {min(ranks):.3f}, max {max(ranks):.3f}")
    else:
        print("no projection updates logged")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    handlers = {"run": cmd_run, "sweep": cmd_sweep, "costs": cmd_costs, "analyze": cmd_analyze}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
