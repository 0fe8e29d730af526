"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke tests build the benchmark binaries (as run.py does) and run every
workload at a tiny size, untraced and traced.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (the driver, imported for its paths and build step)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# Sites per workload for the smoke runs: enough for every layer to see work.
TINY_SITES = {"paper-2w": 24, "poison-1w": 24, "eras-lineage": 3}


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


BENCH = load(os.path.join(run.ROOT, "BENCHMARK.json"))
SPEC = load(os.path.join(HERE, "workloads.json"))


def driver(*args):
    """Runs run.py; returns (exit code, parsed last stdout line)."""
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=run.ROOT, capture_output=True, text=True,
                          timeout=600)
    last = done.stdout.strip().splitlines()[-1]
    return done.returncode, json.loads(last)


class Declarations(unittest.TestCase):
    def test_every_name_and_unit_is_well_formed(self):
        names = [w["name"] for w in BENCH["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for metric in BENCH[group]:
                names.append(metric["name"])
                self.assertFullMatch(UNIT, metric["unit"])
        for name in names:
            self.assertFullMatch(NAME, name)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def assertFullMatch(self, pattern, text):
        self.assertIsNotNone(pattern.fullmatch(text), f"bad name or unit: {text!r}")

    def test_workloads_and_layers_agree_with_the_spec(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]],
                         list(SPEC["workloads"]))
        for w in BENCH["workloads"]:
            self.assertEqual(w["why"], SPEC["workloads"][w["name"]]["why"])
        self.assertEqual([m["name"] for m in BENCH["per_layer"]],
                         list(SPEC["metric_map"]))
        workloads = set(SPEC["workloads"])
        end_to_end = {m["name"] for m in BENCH["end_to_end"]}
        for name, entry in SPEC["metric_map"].items():
            self.assertLessEqual(set(entry["on"]), workloads, name)
            self.assertLessEqual(set(entry["moves"]), end_to_end, name)

    def test_setup_time_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


class Smoke(unittest.TestCase):
    """Every workload, tiny, through the real driver."""

    def check(self, workload, trace):
        group = "per_layer" if trace else "end_to_end"
        code, out = driver("--workload", workload, "--seed", "7",
                           "--seconds", "0", "--trace", str(trace),
                           "--sites", str(TINY_SITES[workload]))
        self.assertEqual(code, 0, out)
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        self.assertEqual(list(out["metrics"]), [m["name"] for m in BENCH[group]])
        for metric in BENCH[group]:
            self.assertEqual(out["metrics"][metric["name"]]["unit"], metric["unit"])
        return out["metrics"]

    def test_every_workload_emits_every_end_to_end_metric(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 0)
                for name, value in metrics.items():
                    self.assertGreater(value["value"], 0, name)

    def test_every_workload_emits_every_per_layer_metric(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 1)
                coverage = metrics["trace.coverage"]["value"]
                self.assertAlmostEqual(coverage, 1.0, delta=0.1)


class OutputGate(unittest.TestCase):
    """A wrong snapshot must fail the output check."""

    @classmethod
    def setUpClass(cls):
        exe_dir = run.build()
        cls.run_exe = os.path.join(exe_dir, "perfbench-run")
        cls.trace_exe = os.path.join(exe_dir, "perfbench-trace")
        scratch = os.path.join(run.ROOT, ".perfbench_work")
        os.makedirs(scratch, exist_ok=True)
        cls.work = tempfile.mkdtemp(prefix="gate-", dir=scratch)
        cls.args = ["run", "--sites", "12", "--save", "snapshot.json"]
        cls.good = run.child(cls.run_exe, [], cls.args, cls.work)
        assert cls.good["ok"], cls.good
        with open(os.path.join(cls.work, "snapshot.json"), "rb") as f:
            cls.snapshot = f.read()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def corrupted_copy(self):
        bad = bytearray(self.snapshot)
        bad[len(bad) // 2] ^= 0x01
        path = os.path.join(self.work, "corrupted.json")
        with open(path, "wb") as f:
            f.write(bad)
        return path

    def fresh_dir(self):
        return tempfile.mkdtemp(dir=self.work)

    def test_recorded_crc_passes_and_a_wrong_one_fails(self):
        crc = f"{int(self.good['snapshot_crc32']):08X}"
        length = str(len(self.snapshot))
        ok = run.child(self.run_exe, ["--expect-crc", "0x" + crc, "--expect-len", length],
                       self.args, self.fresh_dir())
        self.assertTrue(ok["ok"], ok)
        wrong = f"{int(crc, 16) ^ 1:08X}"
        bad = run.child(self.run_exe, ["--expect-crc", "0x" + wrong, "--expect-len", length],
                        self.args, self.fresh_dir())
        self.assertFalse(bad["ok"])
        self.assertIn("crc32", bad["error"])

    def test_traced_run_rejects_a_corrupted_snapshot(self):
        path = os.path.join(self.work, "snapshot.json")
        ok = run.child(self.trace_exe, ["--expect-snapshot", path], self.args,
                       self.fresh_dir())
        self.assertTrue(ok["ok"], ok)
        bad = run.child(self.trace_exe, ["--expect-snapshot", self.corrupted_copy()],
                        self.args, self.fresh_dir())
        self.assertFalse(bad["ok"])
        self.assertIn("differs", bad["error"])


if __name__ == "__main__":
    unittest.main()
