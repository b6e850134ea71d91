"""Self-tests for the benchmark: python3 lrdbench/selftest.py

The smoke test measures every workload once on its shortened copy, traced,
and checks that every named metric is present with a unit.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import tracing
import workloads as wl

sys.path.insert(0, str(run.ROOT / "src"))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@contextlib.contextmanager
def scratch_dir():
    """A temporary directory inside the checkout's benchmark output directory."""
    run.OUT_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=run.OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path)


class SpecTest(unittest.TestCase):
    def test_committed_benchmark_json_matches_workloads(self):
        committed = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(committed, wl.spec())

    def test_spec_within_contract(self):
        spec = wl.spec()
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        self.assertTrue(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in spec["end_to_end"]:
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))
        for w in spec["workloads"]:
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])


# Long enough for the output checks: the loss falls below the first step's,
# and ref_global's second parameter sync moves the basis (mean MSSV below 1).
SMOKE_STEPS = {"ref_global": 64, "ref_local": 64, "wide_fixed": 32}


class SmokeTest(unittest.TestCase):
    """Every workload, shortened, measured once with tracing."""

    @classmethod
    def setUpClass(cls):
        cls.outs = {
            w.name: run.measure(w, seed=0, seconds=0, trace=True, steps=SMOKE_STEPS[w.name])
            for w in wl.WORKLOADS
        }

    def test_runs_pass_their_checks(self):
        for name, out in self.outs.items():
            self.assertTrue(out["correct"], f"{name}: {out['determinism']} {out['failures']}")

    def test_every_metric_present_with_unit(self):
        for name, out in self.outs.items():
            for trace, specs in ((False, wl.END_TO_END), (True, wl.PER_LAYER)):
                with contextlib.redirect_stdout(io.StringIO()):
                    metrics = run.report(out, trace)["metrics"]
                self.assertEqual(list(metrics), [m[0] for m in specs], name)
                for metric in metrics.values():
                    self.assertIsInstance(metric["value"], (int, float))
                    self.assertRegex(metric["unit"], UNIT)
            for metric_name, _unit in wl.INFORMATIONAL:
                self.assertIn(metric_name, out["end_to_end"])
            self.assertEqual(out["absent"], [])

    def test_svd_calls_and_traffic_match_the_formulas(self):
        import checks

        for w in wl.WORKLOADS:
            layer = self.outs[w.name]["per_layer"]
            with scratch_dir() as workdir:
                _, cfg = run.prepare_config(w, 0, workdir, SMOKE_STEPS[w.name])
            up, down, events = checks.expected_traffic(cfg, cfg.steps)
            self.assertEqual(layer["distsim.bytes_uplink_total"], up)
            self.assertEqual(layer["distsim.bytes_downlink_total"], down)
            self.assertEqual(layer["distsim.sync_events"], events)
        # 64 steps hold 2 parameter syncs; the local strategy refreshes 4 workers at t=1 and 33
        self.assertEqual(self.outs["ref_global"]["per_layer"]["linalg.svd.calls"], 2)
        self.assertEqual(self.outs["ref_local"]["per_layer"]["linalg.svd.calls"], 8)
        self.assertEqual(self.outs["wide_fixed"]["per_layer"]["linalg.svd.calls"], 0)

    def test_self_times_sum_to_no_more_than_totals(self):
        for name in self.outs:
            trace_file = run.OUT_DIR / f"trace-{name}-seed0.json"
            spans = json.loads(trace_file.read_text(encoding="utf-8"))["spans"]
            stats = tracing.summarize(spans)
            for span, stat in stats.items():
                self.assertGreaterEqual(stat["self_s"], -1e-9, span)
                self.assertLessEqual(stat["self_s"], stat["total_s"] + 1e-9, span)
            roots = sum(end - start for _n, start, end, parent, _t, _e in spans if parent < 0)
            self.assertLessEqual(sum(s["self_s"] for s in stats.values()), roots + 1e-9)


class FailureTest(unittest.TestCase):
    def test_fail_frac_counts_a_rejected_config(self):
        work = wl.workload("ref_global")
        with scratch_dir() as workdir:
            config, cfg = run.prepare_config(work, 0, workdir, SMOKE_STEPS[work.name])
            good = run.checked(run.run_child(workdir, "good", config, 0), cfg, work.check_mssv)
            rejected = workdir / "rejected.yaml"
            rejected.write_text(config.read_text(encoding="utf-8") + "no_such_key: 1\n", encoding="utf-8")
            bad = run.checked(run.run_child(workdir, "bad", rejected, 0), cfg, work.check_mssv)
        self.assertTrue(good["ok"])
        self.assertFalse(bad["ok"])
        values, counts = run.end_to_end([good, bad], cfg)
        self.assertEqual(values["fail_frac"], 0.5)
        self.assertEqual((counts["attempted"], counts["runs"]), (2, 1))

    def test_no_result_without_the_source_tree(self):
        with scratch_dir() as bare:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / run.HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "ref_global",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class TraceRobustnessTest(unittest.TestCase):
    def _bindings(self):
        import lrdsim  # noqa: F401  (loads every lrdsim module)

        snapshot = {}
        for mod_name, mod in sys.modules.items():
            if mod_name == "lrdsim" or mod_name.startswith("lrdsim."):
                for key, value in vars(mod).items():
                    snapshot[(mod_name, key)] = value
                    if isinstance(value, type) and value.__module__ == mod_name:
                        for attr, member in vars(value).items():
                            snapshot[(mod_name, key, attr)] = member
        return snapshot

    def test_missing_names_are_absent_and_wrappers_are_removed(self):
        import lrdsim.distsim
        import lrdsim.optimizer

        before = self._bindings()
        tracer = tracing.Tracer()
        tracer.install(tracing.TARGETS + (
            ("linalg.gone", "lrdsim.linalg", "_no_such_function"),
            ("nowhere.f", "lrdsim.no_such_module", "f"),
            ("distsim.Gone.init", "lrdsim.distsim", "NoSuchClass.__init__"),
        ))
        try:
            self.assertEqual(tracer.absent, ["linalg.gone", "nowhere.f", "distsim.Gone.init"])
            self.assertIsNot(lrdsim.distsim.compress_gradient, before[("lrdsim.optimizer", "compress_gradient")])
            self.assertIsNot(lrdsim.optimizer.as_matrix, before[("lrdsim.linalg", "as_matrix")])
        finally:
            tracer.uninstall()
        self.assertEqual(self._bindings(), before)


if __name__ == "__main__":
    unittest.main()
