#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny inputs.

    python3 perfbench/test_perfbench.py      (from the repository root)

For each workload, an untraced and a traced tiny run must print every metric
BENCHMARK.json names, with its unit, and report every output verified; the
traced run's span file must pass tools/trace_check. A run with an injected
fault must count it as a failure and still print its result. A copy of the
benchmark without the repository must exit non-zero without a result.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, "no output; stderr:\n" + proc.stderr[-2000:]
    return json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    def check_metrics(self, res, defs):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(sorted(res["metrics"]), sorted(d["name"] for d in defs))
        for d in defs:
            m = res["metrics"][d["name"]]
            self.assertEqual(m["unit"], d["unit"], d["name"])
            self.assertTrue(math.isfinite(m["value"]), d["name"])

    def test_every_workload_emits_every_metric(self):
        for wl in (w["name"] for w in SPEC["workloads"]):
            for trace, defs in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=wl, trace=trace):
                    proc = run(wl, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    res = result_of(proc)
                    self.check_metrics(res, defs)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreater(res["attempted"], 0)
                    if trace == 0:
                        self.assertEqual(res["metrics"]["ok_share"]["value"], 1.0)
                    else:
                        self.check_trace(wl)

    def check_trace(self, workload):
        build_dir = os.path.join(BUILD, "perfbench")
        subprocess.run(["cmake", "--build", build_dir, "--target", "trace_check"],
                       check=True, capture_output=True)
        trace = os.path.join(BUILD, "trace-%s-7.json" % workload)
        proc = subprocess.run([os.path.join(build_dir, "tools", "trace_check"), trace],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_injected_fault_is_counted_not_fatal(self):
        for wl in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=wl):
                proc = run(wl, 0, "--inject-fault")
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                res = result_of(proc)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], 1)
                self.assertLess(res["metrics"]["ok_share"]["value"], 1.0)

    def test_without_the_repository_fails_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                                                     "--seed", "1", "--seconds", "1",
                                                     "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=180,
                                  env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
