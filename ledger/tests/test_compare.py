"""Tests of ledger/compare.py verdicts (python3 -m unittest test_compare)."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
import compare  # noqa: E402

BENCH = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rps", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def write_runs(path, values):
    """values: [(lat, rps)] -> one untraced record per seed."""
    with open(path, "w") as f:
        for seed, (lat, rps) in enumerate(values):
            metrics = {"lat": {"value": lat, "unit": "ms"},
                       "rps": {"value": rps, "unit": "1/s"}}
            f.write(json.dumps({
                "workload": "w", "seed": seed, "trace": 0,
                "fingerprint": {"nproc": 4},
                "result": {"correct": True, "attempted": 10, "failed": 0,
                           "metrics": metrics}}) + "\n")


class CompareTest(unittest.TestCase):
    def verdicts(self, old, new):
        with tempfile.TemporaryDirectory() as d:
            a, b = os.path.join(d, "a.jsonl"), os.path.join(d, "b.jsonl")
            write_runs(a, old)
            write_runs(b, new)
            rows, problems = compare.compare(compare.load(a)[0],
                                             compare.load(b)[0], BENCH)
        self.assertEqual(problems, [])
        return {r[1]: r[6] for r in rows}

    def test_identical_sets_are_unchanged(self):
        runs = [(10 + 0.01 * i, 100 - 0.01 * i) for i in range(10)]
        self.assertEqual(self.verdicts(runs, runs),
                         {"lat": "unchanged", "rps": "unchanged"})

    def test_direction_of_better_is_respected(self):
        old = [(10 + 0.01 * i, 100 + 0.01 * i) for i in range(10)]
        slower = [(12 + 0.01 * i, 80 + 0.01 * i) for i in range(10)]
        faster = [(8 + 0.01 * i, 120 + 0.01 * i) for i in range(10)]
        self.assertEqual(self.verdicts(old, slower),
                         {"lat": "worse", "rps": "worse"})
        self.assertEqual(self.verdicts(old, faster),
                         {"lat": "improved", "rps": "improved"})

    def test_wide_spread_is_unresolved(self):
        old = [(10, 100), (14, 100), (10, 100), (14, 100), (12, 100)]
        new = [(11, 100), (15, 100), (11, 100), (15, 100), (13, 100)]
        self.assertEqual(self.verdicts(old, new)["lat"], "unresolved")

    def test_small_gain_within_noise_is_unchanged(self):
        old = [(10 + 0.1 * (i % 3), 100) for i in range(10)]
        new = [(10 - 0.01 + 0.1 * (i % 3), 100) for i in range(10)]
        self.assertEqual(self.verdicts(old, new)["lat"], "unchanged")

    def test_missing_workload_is_a_problem(self):
        rows, problems = compare.compare({}, {}, BENCH)
        self.assertEqual(rows, [])
        self.assertEqual(len(problems), 1)


if __name__ == "__main__":
    unittest.main()
