#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Builds the harness like run.py does, then checks that the serving probe's
key stream and arrival schedule are pure functions of the seed, that
metric names and units are well formed and match BENCHMARK.json, that
refused or failed jobs count as failures and as over the latency limit,
that the committed sweep_big golden rows are the BENCH_big.json rows, and
that the traced sweep decomposition reproduces FlowEngine rows bit for
bit.
"""

import json
import os
import re
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import keys  # noqa: E402
import serve  # noqa: E402
import sweep  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class StreamTest(unittest.TestCase):
    def test_pure_function_of_seed(self):
        self.assertEqual(keys.key_stream(7, 600), keys.key_stream(7, 600))
        self.assertEqual(keys.arrival_schedule(7, 50.0, 600),
                         keys.arrival_schedule(7, 50.0, 600))
        self.assertNotEqual(keys.key_stream(7, 600), keys.key_stream(8, 600))
        self.assertNotEqual(keys.arrival_schedule(7, 50.0, 600),
                            keys.arrival_schedule(8, 50.0, 600))

    def test_longer_stream_extends_shorter(self):
        warm, short = keys.key_stream(3, 300)
        warm_long, long = keys.key_stream(3, 900)
        self.assertEqual((warm, short), (warm_long, long[:300]))

    def test_repeats_never_race_their_first_computation(self):
        warm, stream = keys.key_stream(5, 2000)
        first = {}
        for i, key in enumerate(stream):
            first.setdefault(key, i)
        for i, key in enumerate(stream):
            if key not in warm and first[key] != i:
                self.assertGreaterEqual(i - first[key], keys.GAP)
        misses = keys.first_occurrences(warm, stream)
        self.assertEqual(len(misses), 2000 // keys.MISS_EVERY)


class MetricTableTest(unittest.TestCase):
    def test_names_and_units(self):
        for table in (common.END_TO_END, common.PER_LAYER):
            for name, unit in table.items():
                self.assertRegex(name, NAME)
                self.assertRegex(unit, UNIT)
        self.assertFalse(set(common.END_TO_END) & set(common.PER_LAYER))

    def test_benchmark_json_matches(self):
        path = os.path.join(common.ROOT, "BENCHMARK.json")
        with open(path) as fh:
            doc = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]},
                         common.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]},
                         common.PER_LAYER)
        self.assertLessEqual({w["name"] for w in doc["workloads"]},
                             set(common.WORKLOADS))
        self.assertIn("setup_s", common.END_TO_END)


def fake_observation(n_ok, refused, failed):
    """An open-loop phase of 10 ms jobs plus refused and failed ones."""
    reqs = []
    for i in range(n_ok + refused + failed):
        req = serve.Request(i, ("c1908", 1 + i % 3))
        req.due = req.sent = 100.0 + i
        req.events = {"running": req.sent, "row": req.sent + 0.004}
        if i < n_ok:
            req.ok = True
            req.done = req.due + 0.010
            req.payloads = ['"index":0,"x":%d}' % (i % 3),
                            '"index":1,"x":%d}' % (i % 3)]
        elif i < n_ok + refused:
            req.done = req.due + 0.001
            req.error = "queue full"
        else:
            req.error = "no sweep_done"
        reqs.append(req)
    return {"warm": [], "reqs": reqs, "n_open": len(reqs),
            "misses": {0, 1, 2}, "stats": {}, "spans": []}


class FailureAccountingTest(unittest.TestCase):
    def test_refused_and_failed_jobs_count(self):
        obs = fake_observation(n_ok=197, refused=2, failed=1)
        attempted, failed, problems = serve.check(obs)
        self.assertEqual((attempted, failed), (200, 3))
        self.assertEqual(len(problems), 3)
        lat_ms = [r.latency_s() * 1e3 for r in obs["reqs"]]
        # 3 of 200 are over the limit, so p99 is the limit, p50 is not.
        self.assertEqual(common.percentile(lat_ms, 99),
                         serve.JOB_LIMIT_S * 1e3)
        self.assertAlmostEqual(common.percentile(lat_ms, 50), 10.0, places=6)
        self.assertEqual(serve.per_layer(obs)["jobs.hit_p50_ms"],
                         common.percentile(lat_ms[3:], 50))

    def test_mismatched_repeat_counts(self):
        obs = fake_observation(n_ok=300, refused=0, failed=0)
        obs["reqs"][5].payloads = ['"index":0,"x":9}', '"index":1,"x":9}']
        _, failed, _ = serve.check(obs)
        self.assertEqual(failed, 1)

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(common.percentile(values, 99), 990)
        self.assertEqual(common.percentile(values, 50), 500)
        self.assertEqual(common.percentile([3.0], 99), 3.0)


class GoldenTest(unittest.TestCase):
    def test_sweep_big_golden_is_bench_big(self):
        with open(os.path.join(common.BENCH_DIR, "golden",
                               "sweep_big.json")) as fh:
            golden = json.load(fh)
        with open(os.path.join(common.ROOT, "BENCH_big.json")) as fh:
            bench = {r["circuit"]: r for r in json.load(fh)["rows"]}
        for evo, std in zip(golden[0::2], golden[1::2]):
            want = dict(bench[evo["circuit"]])
            del want["seconds"]
            got = {
                "circuit": evo["circuit"],
                "gates": evo["gates"],
                "modules": evo["modules"],
                "sensor_area_evolution": evo["sensor_area"],
                "sensor_area_standard": std["sensor_area"],
                "std_area_overhead_pct":
                    (std["sensor_area"] / evo["sensor_area"] - 1.0) * 100.0,
                "delay_overhead_evolution": evo["delay_overhead"],
                "delay_overhead_standard": std["delay_overhead"],
                "test_overhead_evolution": evo["test_overhead"],
                "test_overhead_standard": std["test_overhead"],
                "cost_evolution": evo["cost"],
                "evaluations": evo["evaluations"],
            }
            self.assertEqual(got, want)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        common.build()

    def test_decomposition_reproduces_run_methods(self):
        with tempfile.TemporaryDirectory(dir=common.BUILD_DIR) as scratch:
            lines, _ = sweep.harness(["selftest"], scratch)
        self.assertEqual(lines, [{"kind": "selftest", "ok": True}])

    def test_traced_rows_equal_untraced(self):
        with tempfile.TemporaryDirectory(dir=common.BUILD_DIR) as scratch:
            obs = sweep.run("search_probe", 3, 2, True, scratch)
        traced = {r["traced"] for r in obs["lines"]["row"]}
        self.assertEqual(traced, {True, False})
        attempted, failed, problems = sweep.check(obs, [])
        self.assertEqual((failed, problems), (0, []))
        self.assertGreater(attempted, 0)


if __name__ == "__main__":
    unittest.main()
