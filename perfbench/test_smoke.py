#!/usr/bin/env python3
"""Smoke test of the benchmark on tiny graphs.

    python3 perfbench/test_smoke.py

For every workload, untraced and traced, on two seeds, it checks that every
metric named in BENCHMARK.json prints with its unit, that no operation
failed, and that another seed changes the drawn inputs but not the set of
metric names. Builds like run.py does ($CARGO_TARGET_DIR or .bench_build).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
TINY = ["--seconds", "1", "--scale-shift", "-6"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--trace",
               str(trace)] + TINY,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        timeout=600)
    if done.returncode != 0:
        raise AssertionError("%s seed %d trace %d exited %d:\n%s" % (
            workload, seed, trace, done.returncode, done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    printed = {}
    digest = None
    for line in lines:
        words = line.split()
        if words[:1] == ["metric"] and len(words) == 4:
            printed[words[1]] = (float(words[2]), words[3])
        elif words[:1] == ["inputs"]:
            digest = words[1]
    return json.loads(lines[-1]), printed, digest


class SmokeTest(unittest.TestCase):
    def check_workload(self, workload):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec()[key]}
            names = []
            digests = []
            for seed in (1, 2):
                result, printed, digest = run(workload, seed, trace)
                for name, unit in want.items():
                    self.assertIn(name, printed, name)
                    self.assertEqual(printed[name][1], unit, name)
                    self.assertEqual(result["metrics"][name]["unit"], unit, name)
                self.assertEqual(sorted(result["metrics"]), sorted(want))
                self.assertEqual(printed["fail_ratio"], (0.0, "1"))
                self.assertEqual(result["failed"], 0)
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                names.append(sorted(result["metrics"]))
                digests.append(digest)
            self.assertEqual(names[0], names[1])
            self.assertIsNotNone(digests[0])
            self.assertNotEqual(digests[0], digests[1])

    def test_batch(self):
        self.check_workload("batch-rmat18")

    def test_serve(self):
        self.check_workload("serve-rmat16-rw")

    def test_socket(self):
        self.check_workload("socket-rmat16")


if __name__ == "__main__":
    unittest.main()
