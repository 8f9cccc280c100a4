"""Tests of run.py's result parsing and of BENCHMARK.json against the
benchmark's own metric catalog. Run: python3 perfbench/run.py --selftest
(or, from perfbench/, python3 -m unittest test_run)."""

import json
import os
import subprocess
import unittest

import run

GOOD = ('{"correct": true, "attempted": 1000, "failed": 0, "metrics": '
        '{"latency_ms": {"value": 1.2034, "unit": "ms"}, '
        '"setup_s": {"value": 0.8127, "unit": "s"}}}')


class ParseResult(unittest.TestCase):
    def test_accepts_the_contract_example(self):
        obj = run.parse_result(GOOD)
        self.assertTrue(obj["correct"])
        self.assertEqual(obj["attempted"], 1000)
        self.assertEqual(obj["metrics"]["setup_s"]["unit"], "s")

    def test_keeps_all_digits(self):
        line = GOOD.replace("1.2034", "0.30000000000000004")
        self.assertEqual(run.parse_result(line)["metrics"]["latency_ms"]["value"],
                         0.1 + 0.2)

    def reject(self, line):
        with self.assertRaises(run.ResultError):
            run.parse_result(line)

    def test_rejects_non_json(self):
        self.reject("metrics: latency 1.2 ms")
        self.reject("")

    def test_rejects_missing_or_extra_keys(self):
        obj = json.loads(GOOD)
        del obj["failed"]
        self.reject(json.dumps(obj))
        obj = json.loads(GOOD)
        obj["extra"] = 1
        self.reject(json.dumps(obj))

    def test_rejects_bad_counts(self):
        for attempted, failed in ((0, 0), (5, 6), (1.5, 0), (True, 0), (3, -1)):
            obj = json.loads(GOOD)
            obj["attempted"], obj["failed"] = attempted, failed
            self.reject(json.dumps(obj))

    def test_rejects_bad_metrics(self):
        for metrics in ({},
                        {"bad name": {"value": 1, "unit": "s"}},
                        {".x": {"value": 1, "unit": "s"}},
                        {"x": {"value": "1", "unit": "s"}},
                        {"x": {"value": 1}},
                        {"x": {"value": 1, "unit": "s", "n": 3}},
                        {"x": {"value": float("nan"), "unit": "s"}}):
            obj = json.loads(GOOD)
            obj["metrics"] = metrics
            self.reject(json.dumps(obj))


class Catalog(unittest.TestCase):
    """BENCHMARK.json must list exactly the metrics the binary reports."""

    def test_benchmark_json_matches_the_binary(self):
        binary = os.path.join(run.BUILD_DIR, "perfbench")
        if not os.path.exists(binary):
            self.skipTest("perfbench is not built")
        listed = subprocess.run([binary, "--list-metrics"], check=True,
                                capture_output=True, text=True).stdout.split("\n")
        have = {"end_to_end": [], "per_layer": []}
        for line in filter(None, listed):
            kind, name, unit = line.split()
            have[kind].append((name, unit))
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual([(m["name"], m["unit"]) for m in bench[kind]], have[kind])
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
