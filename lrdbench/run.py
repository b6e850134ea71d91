"""The lrdsim benchmark: end-to-end run metrics and an outside-in layer trace.

    python3 lrdbench/run.py --workload ref_global --seed 0 --seconds 40 --trace 0
    python3 lrdbench/run.py --all      # every workload, then writes BENCHMARK.json
    python3 lrdbench/selftest.py       # self-tests, smoke runs of every workload

Each measured run is `lrdsim.cli.main(["run", ...])` in a fresh child
process (child.py), serial, with the workload seed passed as `--seed`.
Runs are launched until `--seconds` have passed; the last one started
always completes. Every run's log is checked (checks.py), and a shortened
copy of the workload must give byte-identical logs from two serial runs
and one `--threads 2` run. Run-level metrics are taken over the runs
(workloads.py says which statistic); step percentiles pool the steps of
all runs.

With `--trace 1` one more run is traced (tracing.py) and the per-layer
metrics are reported instead, with the tracing overhead: traced run_s
minus the median untraced run_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (with --all, one such object per
workload). The benchmark exits 0 only when every run, check and the
determinism check passed, and exits 2 without a result when the checkout
holds no lrdsim source. checks.py imports lrdsim, so it is imported only
once that source is on the path.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".lrdbench"
CHILD_TIMEOUT_S = 150

# Pin BLAS threads before numpy is imported here or in any child.
BLAS_ENV = {
    var: str(min(wl.BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(BLAS_ENV)


# ---- configs -----------------------------------------------------------------


def prepare_config(work: wl.Workload, seed: int, workdir: Path, steps=None):
    """(config path, resolved RunConfig with the seed applied); `steps` shortens it."""
    import yaml
    from lrdsim.config import load_file

    if isinstance(work.config, str):
        path = ROOT / work.config
    else:
        path = workdir / f"{work.name}.yaml"
        path.write_text(yaml.safe_dump(work.config), encoding="utf-8")
    cfg = load_file(str(path))
    if steps is not None:
        path = workdir / f"{work.name}-{steps}steps.yaml"
        path.write_text(yaml.safe_dump(dict(cfg.to_dict(), steps=steps)), encoding="utf-8")
        cfg = load_file(str(path))
    return path, dataclasses.replace(cfg, master_seed=seed)


# ---- one run -----------------------------------------------------------------


def run_child(workdir: Path, tag: str, config: Path, seed: int, threads: int = 1,
              trace: bool = False, result_path=None) -> dict:
    """Run child.py once; {"ok": bool, "reason": ..., "log": ..., timings...}."""
    log = workdir / f"{tag}.log"
    result_path = result_path or workdir / f"{tag}.result.json"
    request = workdir / f"{tag}.request.json"
    request.write_text(json.dumps({
        "root": str(ROOT), "config": str(config), "log": str(log), "seed": seed,
        "threads": threads, "trace": trace, "result": str(result_path),
    }), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(request)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "reason": f"{tag}: no result within {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no message"])[-1]
        return {"ok": False, "reason": f"{tag}: exit code {proc.returncode}: {tail}"}
    result = json.loads(Path(result_path).read_text(encoding="utf-8"))
    return dict(result, ok=True, tag=tag, log=str(log))


def checked(run: dict, cfg, check_mssv: bool) -> dict:
    """The run with its log's facts added, or failed when an output check fails."""
    import checks

    if not run["ok"]:
        return run
    problems, facts = checks.check_log(run["log"], cfg, check_mssv)
    if problems:
        return {"ok": False, "reason": f"{run['tag']}: " + "; ".join(problems)}
    return dict(run, **facts)


def check_determinism(work: wl.Workload, seed: int, workdir: Path):
    """None when two serial runs and one --threads 2 run of the short copy match byte for byte."""
    config, _cfg = prepare_config(work, seed, workdir, work.short_steps)
    logs = []
    for tag, threads in (("det-serial-a", 1), ("det-serial-b", 1), ("det-threads2", 2)):
        run = run_child(workdir, tag, config, seed, threads=threads)
        if not run["ok"]:
            return run["reason"]
        logs.append(Path(run["log"]).read_bytes())
    if any(log != logs[0] for log in logs[1:]):
        return f"logs of the {work.short_steps}-step copy differ between runs"
    return None


# ---- aggregation -------------------------------------------------------------


def percentile(values: list, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(runs: list, cfg) -> tuple[dict, dict]:
    """(metric values, sample counts) over the successful runs."""
    import checks

    ok = [r for r in runs if r["ok"]]
    counts = {"runs": len(ok), "attempted": len(runs)}
    values = {"fail_frac": (len(runs) - len(ok)) / len(runs)}
    if not ok:
        return values, counts
    plain, sync = [], []
    for r in ok:
        for t, dt in enumerate(r["step_s"]):
            (sync if checks.is_sync_step(cfg, t) else plain).append(dt * 1e3)
    counts.update(plain_steps=len(plain), sync_steps=len(sync))
    run_s = [r["run_s"] for r in ok]
    values.update(
        setup_s=statistics.median(r["setup_s"] for r in ok),
        run_s=statistics.median(run_s),
        run_s_p90=percentile(run_s, 90),
        plain_step_ms_p50=statistics.median(plain),
        plain_step_ms_p90=percentile(plain, 90),
        sync_step_ms_p50=statistics.median(sync),
        sync_step_ms_p90=percentile(sync, 90),
        peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in ok),
    )
    return values, counts


def per_layer(traced: dict, untraced_run_s: float) -> tuple[dict, list]:
    """(per-layer metric values, absent span names) from one traced run."""
    stats = tracing.summarize(traced["spans"])
    values = {}
    for name, _module, _path in tracing.TARGETS:
        stat = stats.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": {}})
        for field in ("calls", "self_s", "total_s"):
            values[f"{name}.{field}"] = stat[field]
    for span, (counter, _amount) in tracing.COUNTERS.items():
        values[f"{span}.{counter}"] = traced["counts"].get(f"{span}.{counter}", 0)
    attempts = values["projection.projection_with_spectrum.calls"]
    skipped = stats.get("projection.projection_with_spectrum", {"errors": {}})["errors"].get(
        "DegenerateSignalError", 0
    )
    values["projection.refresh_degenerate"] = skipped
    # 1 when no refresh was attempted: nothing was wasted
    values["projection.refresh_applied_ratio"] = (attempts - skipped) / attempts if attempts else 1.0
    for fact in ("bytes_uplink_total", "bytes_downlink_total", "sync_events"):
        values[f"distsim.{fact}"] = traced[fact]
    values["logio.log_bytes"] = traced["log_bytes"]
    values["trace.overhead_s"] = traced["run_s"] - untraced_run_s
    return values, traced["absent"]


# ---- provenance --------------------------------------------------------------


def _git_commit() -> str:
    # read .git directly: the benchmark may run in a checkout that is not a repository
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _llc_bytes():
    # the largest cache level cpu0 reports, e.g. "107520K"
    best = None
    for size in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = size.read_text().strip()
        scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
        value = int(text.rstrip("KM")) * scale
        best = value if best is None else max(best, value)
    return best


def provenance() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 2 has no mode="dicts"
        blas_id = "unknown"
    src = ROOT / "src" / "lrdsim"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py"))
    wide = wl.WIDE_FIXED["problem"]
    llc = _llc_bytes()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_id,
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        "git_commit": _git_commit(),
        "src_lrdsim_lines": lines,
        "wide_fixed_array_mib": wide["rows"] * wide["cols"] * 8 / 2**20,
        "llc_mib": None if llc is None else llc / 2**20,
    }


# ---- one workload ------------------------------------------------------------


def measure(work: wl.Workload, seed: int, seconds: float, trace: bool, steps=None) -> dict:
    """Run one workload for `seconds`; `steps` shortens it (smoke test)."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{work.name}-", dir=OUT_DIR))
    try:
        determinism = check_determinism(work, seed, workdir)
        config, cfg = prepare_config(work, seed, workdir, steps)
        runs = []
        started = time.perf_counter()
        while not runs or time.perf_counter() - started < seconds:
            run = checked(run_child(workdir, f"run{len(runs)}", config, seed), cfg, work.check_mssv)
            if run["ok"]:
                os.remove(run["log"])
            runs.append(run)
        values, counts = end_to_end(runs, cfg)
        out = {"workload": work.name, "seed": seed, "determinism": determinism,
               "runs": counts, "failures": [r["reason"] for r in runs if not r["ok"]],
               "end_to_end": values,
               "run_detail": [{k: r[k] for k in ("setup_s", "run_s", "peak_rss_mb", "step_s")}
                              for r in runs if r["ok"]]}
        if trace:
            traced = run_child(workdir, "traced", config, seed, trace=True,
                               result_path=OUT_DIR / f"trace-{work.name}-seed{seed}.json")
            traced = checked(traced, cfg, work.check_mssv)
            if not traced["ok"]:
                out["failures"].append(traced["reason"])
            elif "run_s" in values:
                out["per_layer"], out["absent"] = per_layer(traced, values["run_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["correct"] = determinism is None and not out["failures"]
    return out


def report(out: dict, trace: bool) -> dict:
    """Print the human-readable table; return the result object for the last output line."""
    counts, e2e = out["runs"], out["end_to_end"]
    failed = counts["attempted"] - counts["runs"]
    print(f"workload {out['workload']}  seed {out['seed']}")
    print(f"  determinism: {out['determinism'] or 'ok (2 serial + 1 --threads 2 run, byte-identical)'}")
    for reason in out["failures"]:
        print(f"  FAILED {reason}")
    plain = f"over {counts.get('plain_steps')} plain steps"
    sync = f"over {counts.get('sync_steps')} sync steps"
    samples = {"plain_step_ms_p50": plain, "plain_step_ms_p90": plain,
               "sync_step_ms_p50": sync, "sync_step_ms_p90": sync,
               "fail_frac": f"{failed} of {counts['attempted']} runs failed"}
    for name, unit, *_ in wl.END_TO_END + wl.INFORMATIONAL:
        if name in e2e:
            note = samples.get(name, f"over {counts['runs']} runs")
            print(f"  {name:<20} {e2e[name]:>14.6f} {unit:<5} {note}")
    if trace:
        for name, unit, _better in wl.PER_LAYER:
            if name in out.get("per_layer", {}):
                print(f"  {name:<48} {out['per_layer'][name]:>18} {unit}")
        if out.get("absent"):
            print(f"  absent (no longer in lrdsim): {', '.join(out['absent'])}")
    specs = wl.PER_LAYER if trace else wl.END_TO_END
    source = out.get("per_layer", {}) if trace else e2e
    return {
        "correct": out["correct"],
        "attempted": counts["attempted"],
        "failed": failed,
        "metrics": {m[0]: {"value": source[m[0]], "unit": m[1]} for m in specs if m[0] in source},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=[w.name for w in wl.WORKLOADS])
    which.add_argument("--all", action="store_true", help="every workload, then write BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=wl.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lrdsim" / "__init__.py").is_file():
        print(f"lrdbench: no lrdsim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    prov = provenance()
    print("machine: " + ", ".join(f"{k} {v}" for k, v in prov.items()))
    chosen = wl.WORKLOADS if args.all else (wl.workload(args.workload),)
    results = {}
    for work in chosen:
        out = measure(work, args.seed, args.seconds, bool(args.trace))
        out["provenance"] = prov
        (OUT_DIR / f"result-{work.name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(out, indent=1), encoding="utf-8")
        results[work.name] = report(out, bool(args.trace))
    if args.all:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(wl.spec(), indent=2) + "\n", encoding="utf-8")
        print("wrote BENCHMARK.json")
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
