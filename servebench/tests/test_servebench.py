"""Self-tests of the serving benchmark.

Run from the root of a checkout (builds servebench first if needed):

    python3 -m unittest discover -s servebench/tests -v
"""

import filecmp
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (servebench/run.py)

ROOT = run.ROOT
BINARY = os.path.join(ROOT, run.BUILD_DIR, "servebench")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def setUpModule():
    if not run.build():
        raise RuntimeError("servebench build failed")


class PercentileTest(unittest.TestCase):
    def test_refuses_percentile_with_fewer_than_ten_samples_beyond(self):
        # The C++ self-test checks nearest-rank values and refusals at
        # the 10-samples-beyond boundary for p50, p90 and p99.
        result = subprocess.run([BINARY, "selftest"], capture_output=True,
                                text=True)
        self.assertEqual(result.returncode, 0, result.stderr)


class BenchmarkJsonTest(unittest.TestCase):
    def test_every_metric_has_a_unit_and_a_valid_name(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        metrics = spec["end_to_end"] + spec["per_layer"]
        names = [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)), "duplicate metric name")
        for metric in metrics:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT, metric["name"])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         run.WORKLOADS)


class SeedDeterminismTest(unittest.TestCase):
    def generate(self, workload, seed, out):
        subprocess.run([BINARY, "gen", "--workload", workload, "--seed",
                        str(seed), "--out", out], check=True)
        return sorted(os.listdir(out))

    def test_same_seed_gives_byte_identical_inputs(self):
        for workload in run.WORKLOADS + run.REPRODUCERS:
            scratch = os.path.join(ROOT, run.WORK_DIR)
            os.makedirs(scratch, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                a, b, c = (os.path.join(tmp, x) for x in "abc")
                files = self.generate(workload, 5, a)
                self.assertEqual(files, self.generate(workload, 5, b))
                _, mismatch, errors = filecmp.cmpfiles(a, b, files,
                                                       shallow=False)
                self.assertEqual(mismatch + errors, [], workload)
                self.generate(workload, 6, c)
                self.assertFalse(
                    filecmp.cmp(os.path.join(a, "graph.nt"),
                                os.path.join(c, "graph.nt"), shallow=False),
                    f"{workload}: seeds 5 and 6 gave the same graph")


if __name__ == "__main__":
    unittest.main()
