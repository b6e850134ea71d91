"""The byte-identity gate: sha256 of the logs of a fixed set of run variants.

    python3 tests/loghash.py                            # this checkout's src
    python3 tests/loghash.py --tree ../parent           # another checkout's src
    python3 tests/loghash.py --compare BENCH_35.json    # exit 1 on any difference

Each variant is a base config file plus a dict of overrides, named as in
the `log_hashes` of the BENCH_<n>.json files; `config_dict` merges them, and
the test suite builds its configs with it too. Each runs through
`lrdsim.cli.main(["run", ..., "--threads", "1"])` in a fresh process with
one BLAS thread; the `batch_and_workers` sweep of `reference_local` runs
the same way through `sweep`. The output is one JSON object,
`{name: {sha256, steps_sha256, exit, stderr_lines}}`. `steps_sha256`
hashes a log's bytes after its header line, so it shows whether the
step records moved when the header's version changes; it is null for the
sweep's `summary.csv`, which is hashed without its log-path column.

Hashes hold per machine and per BLAS build only: compare two trees on one
host, or a tree against a BENCH file written on the same host and build.
`--compare` checks each variant against the file's `change` side; it reads
the `log_hashes` layout of BENCH_12.json and later files, and compares
`steps_sha256` only where the file records it (BENCH_21.json and later).
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BASES = {
    "reference_global": "configs/reference_global.yaml",
    "reference_local": "configs/reference_local.yaml",
    "stagnation_demo": "configs/stagnation_demo.yaml",
}

# the tests' small run: 2 workers, 8 steps, a 16 x 12 problem at rank 4
SMALL = {
    "master_seed": 0,
    "workers": 2,
    "steps": 8,
    "rank": 4,
    "problem": {"rows": 16, "cols": 12, "design_rows": 64, "batch_size": 8, "noise_std": 0.1},
    "schedule": {"k_x": 4, "k_u": 4, "k_v": 4},
}

# name -> (base, overrides); an override mapping merges into the base's section.
_DIVERGE = {"lr": 1e200, "clip_radius": 1e9, "beta1": 0.0, "beta2": 0.0}
VARIANTS = {
    "reference_global": ("reference_global", {}),
    "reference_local": ("reference_local", {}),
    "stagnation_demo": ("stagnation_demo", {}),
    "low_rank": ("reference_global", {"qhm": {"mode": "low_rank", "omega": 0.95}}),
    "ef_off": ("reference_global", {"flags": {"error_feedback": False}}),
    "rot_off": ("reference_global", {"flags": {"rotate_moments": False}}),
    "local_full": ("reference_global", {"projection": {"strategy": "local"}}),
    "feature_blocks": ("reference_global", {"problem": {"shard_policy": "feature_blocks"}}),
    # the two starting bases, never refreshed: the local identity and the global seeded random basis
    "identity_norefresh": ("reference_global", {"projection": {"strategy": "local", "refresh": False}}),
    "random_norefresh": ("reference_global", {"projection": {"refresh": False}}),
    "clip_small": ("reference_global", {"hyperparams": {"clip_radius": 0.01}}),
    "local_ef_off": ("reference_global", {"projection": {"strategy": "local"}, "flags": {"error_feedback": False}}),
    "local_m1": ("reference_global", {"projection": {"strategy": "local"}, "workers": 1}),
    "ref_local_feature_blocks": ("reference_local", {"problem": {"shard_policy": "feature_blocks"}}),
    "ref_global_m1": ("reference_global", {"workers": 1}),
    "ref_local_m1": ("reference_local", {"workers": 1}),
    "diverge": ("reference_global", {"hyperparams": _DIVERGE, "steps": 200}),
    "diverge_b1": ("reference_global", {"hyperparams": {"lr": 1e200, "beta1": 0.0, "beta2": 0.0},
                                        "problem": {"batch_size": 1}, "steps": 50}),
    "ref_local_k1": ("reference_local", {"schedule": {"k_x": 1, "k_u": 1, "k_v": 1}}),
    # the global refresh after step 0 rotates moments that have taken one update (t = 1)
    "ref_global_k1": ("reference_global", {"schedule": {"k_x": 1, "k_u": 1, "k_v": 1}}),
    "diverge_k1": ("reference_global", {"hyperparams": _DIVERGE,
                                        "schedule": {"k_x": 1, "k_u": 1, "k_v": 1}, "steps": 200}),
    "full_shard_b1024": ("reference_global", {"problem": {"batch_size": 1024}}),
    "ref_local_129_b7": ("reference_local", {"steps": 129, "problem": {"batch_size": 7}}),
    "tail_shuffle": ("reference_global", {"workers": 1, "problem": {"design_rows": 20480, "batch_size": 512}}),
    # every local signal has rank <= 4 < r = 8, so every refresh is skipped and logs `subspace: null`
    "local_degenerate": ("reference_local", {"flags": {"error_feedback": False}, "problem": {"batch_size": 4}}),
    # the step-0 pseudo-gradient overflows to -inf, so the K = 1 refresh's signal is non-finite
    "diverge_inf_refresh": ("reference_global", {"hyperparams": {"lr": 1.7e308, "warmup_steps": 0},
                                                 "qhm": {"start_step": 0}, "schedule": {"k_x": 1}, "steps": 50}),
    # step 0 leaves non-finite parameters inside and outside every worker's feature block:
    # the held-out losses alone mark it diverged
    "diverge_inf_feature_blocks": ("reference_global", {"problem": {"shard_policy": "feature_blocks"},
                                                        "hyperparams": {"lr": 1.7e308, "warmup_steps": 0},
                                                        "qhm": {"start_step": 0}, "steps": 50}),
    # set-up paths of `MatrixRegression`: no label noise, a dense target, and a last noise block of 4 rows
    "noise_free": ("reference_global", {"problem": {"noise_std": 0.0}}),
    "dense_target": ("reference_global", {"problem": {"target_rank": None}}),
    "ragged_rows": ("reference_local", {"problem": {"design_rows": 4100}}),
    "ragged_feature_blocks": ("reference_global", {"problem": {"design_rows": 4100,
                                                               "shard_policy": "feature_blocks"}}),
    # M = 3: x / M and x * (1 / M) round differently, so a worker mean computed by a reciprocal shows
    "ref_global_m3": ("reference_global", {"workers": 3, "problem": {"design_rows": 3072}}),
    "ref_local_m3": ("reference_local", {"workers": 3, "problem": {"design_rows": 3072}}),
    # every refresh signal's sigma_1 lies far below 1e-154, where its raw square underflows to 0
    "tiny_lr": ("reference_global", {"hyperparams": {"lr": 1.0e-170}}),
    "tiny_clip_local": ("reference_local", {"hyperparams": {"clip_radius": 1.0e-170}}),
}

SWEEP = ("reference_local", "batch_and_workers", "1,2")
SWEEP_FILES = ("M1.log", "M2.log", "summary.csv")

_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); from lrdsim.cli import main; sys.exit(main(sys.argv[2:]))"


def config_dict(base: str, **overrides) -> dict:
    """A fresh config mapping: `base` ("small" or a BASES name) with each override mapping merged into its section."""
    if base == "small":
        data = copy.deepcopy(SMALL)
    else:
        import yaml

        data = yaml.safe_load((ROOT / BASES[base]).read_text(encoding="utf-8"))
    for key, value in overrides.items():
        data[key] = dict(data.get(key, {}), **value) if isinstance(value, dict) else value
    return data


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _log_digests(path: Path) -> dict:
    """{sha256, steps_sha256} of a log: all its bytes, and those after the header line; None when absent."""
    if not path.exists():
        return {"sha256": None, "steps_sha256": None}
    data = path.read_bytes()
    return {"sha256": _sha256(data), "steps_sha256": _sha256(data.partition(b"\n")[2])}


def summary_sha256(text: str) -> str:
    """sha256 of a sweep's summary.csv without its last column, the log's path, which differs between checkouts."""
    # a path holding a comma is a quoted field, which only a CSV reader splits whole
    return _sha256("\n".join(",".join(row[:-1]) for row in csv.reader(io.StringIO(text))).encode())


def _cli(src: Path, args: list) -> tuple[int, int]:
    """Run `lrdsim.cli.main(args)` from `src` in a fresh process; (exit code, stderr lines)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _CHILD, str(src), *args],
                          env=env, capture_output=True, text=True, check=False)
    return done.returncode, len(done.stderr.splitlines())


def run_all(tree: Path) -> dict:
    """{name: {sha256, exit, stderr_lines}} for every variant and sweep file, run from `tree`/src."""
    import yaml

    src = tree / "src"
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, (base, overrides) in VARIANTS.items():
            cfg, log = tmp / f"{name}.yaml", tmp / f"{name}.log"
            cfg.write_text(yaml.safe_dump(config_dict(base, **overrides)), encoding="utf-8")
            code, lines = _cli(src, ["run", "--config", str(cfg), "--out", str(log), "--threads", "1"])
            results[name] = dict(_log_digests(log), exit=code, stderr_lines=lines)
        base, axis, values = SWEEP
        out_dir = tmp / "sweep"
        code, lines = _cli(src, ["sweep", "--config", str(ROOT / BASES[base]), "--axis", axis,
                                 "--values", values, "--out-dir", str(out_dir), "--threads", "1"])
        for fname in SWEEP_FILES:
            path = out_dir / fname
            if fname == "summary.csv" and path.exists():
                digests = {"sha256": summary_sha256(path.read_text(encoding="utf-8")), "steps_sha256": None}
            else:
                digests = _log_digests(path)
            results[f"sweep/{fname}"] = dict(digests, exit=code, stderr_lines=lines)
    return results


def expected_from(bench: dict) -> dict:
    """The `change` side of a BENCH file's log hashes, keyed as `run_all` keys its results."""
    hashes = bench["log_hashes"]
    want = {}
    for name, entry in hashes.get("configs", {}).items():
        want[name] = {"sha256": entry["change"],
                      "steps_sha256": (entry.get("steps_sha256") or {}).get("change"),
                      "exit": entry.get("exit", {}).get("change"),
                      "stderr_lines": entry.get("stderr_lines", {}).get("change")}
    sweep = hashes.get("sweep", {})
    for fname in SWEEP_FILES:
        if fname in sweep:
            want[f"sweep/{fname}"] = {"sha256": sweep[fname]["change"],
                                      "steps_sha256": (sweep[fname].get("steps_sha256") or {}).get("change"),
                                      "exit": sweep.get("exit", {}).get("change"),
                                      "stderr_lines": sweep.get("stderr_lines", {}).get("change")}
    return want


def compare(got: dict, want: dict) -> list:
    """One line per difference between `got` and the recorded `want`; fields recorded as None are not compared.

    A log whose sha256 differs while its recorded steps_sha256 matches says
    so: only its header moved, as it does when the version changes.
    """
    problems = []
    for name, expected in want.items():
        if name not in got:
            problems.append(f"{name}: recorded in the BENCH file but not run here")
            continue
        same_steps = expected["steps_sha256"] is not None and got[name]["steps_sha256"] == expected["steps_sha256"]
        for field, value in expected.items():
            if value is not None and got[name][field] != value:
                note = "; its step records match, so only the header differs" if field == "sha256" and same_steps else ""
                problems.append(f"{name}: {field} {got[name][field]!r}, recorded {value!r}{note}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout whose src runs (default: this one)")
    parser.add_argument("--compare", type=Path, default=None, help="BENCH_<n>.json whose change hashes must match")
    args = parser.parse_args(argv)
    want = None
    if args.compare is not None:  # read before the runs, so a wrong file fails at once
        try:
            want = expected_from(json.loads(args.compare.read_text(encoding="utf-8")))
        except KeyError:
            print(f"loghash: {args.compare.name} does not record log hashes as BENCH_12.json does", file=sys.stderr)
            return 2
    results = run_all(args.tree.resolve())
    print(json.dumps(results, indent=1, sort_keys=True))
    if want is None:
        return 0
    problems = compare(results, want)
    for line in problems:
        print(f"loghash: {line}", file=sys.stderr)
    unrecorded = sorted(set(results) - set(want))
    if unrecorded:
        print(f"loghash: not in {args.compare.name}, not compared: {', '.join(unrecorded)}", file=sys.stderr)
    print(f"loghash: {len(want)} recorded, {len(problems)} differences", file=sys.stderr)
    return 1 if problems or not want else 0


if __name__ == "__main__":
    sys.exit(main())
