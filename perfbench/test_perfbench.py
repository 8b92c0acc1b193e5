"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of the repository; the first run builds the benchmark.
"""

import json
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spread  # noqa: E402


class BuiltBenchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = run.build()

    def test_selftest(self):
        """Quantile maths and the seeded op stream (perfbench_selftest.cpp)."""
        out = subprocess.run([str(self.build / "perfbench_selftest")], capture_output=True,
                             text=True)
        self.assertEqual(out.returncode, 0, out.stdout)

    def test_metric_names_match_benchmark_json(self):
        """Every metric the result line carries is listed, with its unit."""
        out = subprocess.run([str(self.build / "kvbench"), "--list-metrics"],
                             capture_output=True, text=True, check=True)
        emitted = {"end_to_end": {}, "per_layer": {}}
        for line in out.stdout.splitlines():
            kind, name, unit = line.split()
            emitted[kind][name] = unit
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for kind in emitted:
            listed = {m["name"]: m["unit"] for m in bench[kind]}
            self.assertEqual(emitted[kind], listed, kind)

    def test_unknown_workload_is_refused(self):
        out = subprocess.run([str(self.build / "kvbench"), "--workload", "nope", "--seed", "1",
                              "--seconds", "1", "--trace", "0"], capture_output=True)
        self.assertNotEqual(out.returncode, 0)


class SpreadMaths(unittest.TestCase):
    def test_quartile_spread_matches_statistics(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 14.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(spread.spread(values), (med, (q3 - q1) / med))
        # Exclusive method on 1..10: quartiles 2.75, 5.5, 8.25.
        self.assertEqual(spread.spread(list(range(1, 11))), (5.5, 1.0))

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(spread.worse_by(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(spread.worse_by(100, 110, "higher"), -0.10)
        self.assertAlmostEqual(spread.worse_by(2.0, 1.5, "higher"), 0.25)


class ResultLine(unittest.TestCase):
    def test_parse_result(self):
        good = {"correct": True, "attempted": 5, "failed": 0, "metrics": {}}
        self.assertEqual(run.parse_result(json.dumps(good)), good)
        self.assertIsNone(run.parse_result(json.dumps({**good, "attempted": 0})))
        self.assertIsNone(run.parse_result(json.dumps({**good, "extra": 1})))
        self.assertIsNone(run.parse_result("not json"))


if __name__ == "__main__":
    unittest.main()
