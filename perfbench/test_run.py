"""Self-test of the benchmark command.

Every metric BENCHMARK.json names must appear in the output with its unit,
no end-to-end metric may read 0, and the checker must pass at this commit.
Run from the repository root:

    python3 -m unittest perfbench/test_run.py

(The checker's own test, a set that drops inserts, is `cargo test` in this
directory.)
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench(*args):
    return subprocess.run([sys.executable, RUN, *args], capture_output=True, text=True, cwd=ROOT)


class RunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.declared = json.load(f)

    def test_every_declared_metric_is_printed_with_its_unit(self):
        for workload in self.declared["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    out = bench("--workload", workload["name"], "--seed", "3",
                                "--seconds", "1", "--trace", str(trace))
                    self.assertEqual(out.returncode, 0, out.stderr)
                    lines = out.stdout.strip().splitlines()
                    env, result = json.loads(lines[-2])["env"], json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    printed = {name: m["unit"] for name, m in result["metrics"].items()}
                    wanted = {m["name"]: m["unit"] for m in self.declared[kind]}
                    self.assertEqual(printed, wanted)
                    if kind == "end_to_end":
                        for name, m in result["metrics"].items():
                            self.assertNotEqual(m["value"], 0, name)
                    self.assertEqual(env["seed"], 3)
                    self.assertIn("scaling beyond", env["label"])

    def test_unknown_workload_fails_without_a_result(self):
        out = bench("--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
