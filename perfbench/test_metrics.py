"""Tests for the benchmark's own helpers (metrics.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import unittest

import metrics

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")


def request(due_ms, sent_ms, done_ms, ok=True, queue_ms=1.0, search_ms=5.0,
            plans=10, scenario=0):
    return [due_ms * 1e6, sent_ms * 1e6, done_ms * 1e6, 1.0 if ok else 0.0,
            queue_ms * 1e6, search_ms * 1e6, plans, scenario]


def fake_raw(workload, requests=200):
    """A raw benchmark-binary output with every field the metrics read."""
    cache = {"rounds": 1000.0, "empty_hits": 100.0, "hits": 800.0,
             "misses": 100.0, "warm_rebinds": 50.0, "cross_plan_hits": 300.0}
    rate = [[request(25.0 * i, 25.0 * i + 0.1, 25.0 * i + 20.0 + i % 7 + p,
                     scenario=i % 2) for i in range(requests)]
            for p in range(3)]
    burst = [request(0.0, 0.01 * i, 10.0 * (i + 1)) for i in range(50)]
    return {
        "workload": workload, "seed": 1, "seconds": 20, "trace": 1, "nproc": 4,
        "service_shards": 2, "service_workers_per_shard": 2,
        "build": {"git": "x", "compiler": "g++", "build_type": "Release",
                  "sanitizer": ""},
        "parameters": {},
        "setup_s": [0.5, 0.4, 0.45],
        "setup_scenario_ms": [4.0, 3.0, 3.5],
        "setup_recloud_ms": [2.0, 1.5, 1.0],
        "search": {"serial_s": [[0.4, 0.5, 0.45], [0.41, 0.4, 0.6]],
                   "parallel_s": [[0.9, 0.8, 1.0], [0.8, 0.85, 0.9]],
                   "iter_ms": [1.0 + i % 5 for i in range(400)],
                   "recloud_ms": [1.0], "evaluate_ms": [3.0, 4.0],
                   "searches": 2.0, "plans_generated": 200.0,
                   "plans_evaluated": 150.0, "symmetric_skips": 50.0,
                   "accepted": 40.0, "cache": cache,
                   "trace": {"spans_ms": {}, "dropped": 0.0,
                             "counters": {"sample.rounds": 20000.0}}},
        "assess": {"parallel_s": [1.7, 1.8, 1.9], "engine_s": [2.0, 2.1, 2.2],
                   "ciw_s": [0.2, 0.4], "rounds_to_ciw": [2e5, 4e5],
                   "parallel_rounds": 1e5, "serial_equivalent_s": 5.0,
                   "parallel_cache": cache, "engine_rounds": 1e5,
                   "engine_dispatches": 100.0, "engine_retries": 0.0,
                   "engine_degraded": 0.0, "engine_bytes": 1e6,
                   "trace": {"spans_ms": {}, "dropped": 0.0,
                             "counters": {"sample.rounds": 1e5}}},
        "service": {"rate_rps": 40.0, "rate": rate, "burst": burst,
                    "peak_queue_depth": 40.0, "shed": 0.0},
        "units": {"neighbor_ns": 350.0, "symmetry_ns": 1000.0,
                  "sample_round_ns": 1000.0, "failed_per_round": 20.0,
                  "routing_check_ns": 800.0, "judge_micro_round_ns": 9000.0,
                  "cache_lookup_ns": 100.0, "cache_lookup_micro_ns": 200.0,
                  "topology_ms": 1.0, "overhead_untraced_s": 0.40,
                  "overhead_traced_s": 0.42},
        "attempted": 500, "failed": 0,
        "checks": [{"name": "search.deterministic", "ok": True, "detail": ""}],
    }


class PercentileRule(unittest.TestCase):
    def test_reports_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(metrics.highest_percentile(list(range(1, 101))),
                         (90.0, 90, 100))
        self.assertEqual(metrics.highest_percentile(list(range(1, 201))),
                         (95.0, 190, 200))
        self.assertEqual(metrics.highest_percentile(list(range(1, 1001))),
                         (99.0, 990, 1000))

    def test_nothing_qualifies_below_eleven_samples(self):
        self.assertIsNone(metrics.highest_percentile(list(range(10))))
        self.assertEqual(metrics.highest_percentile(list(range(20)))[0], 50.0)

    def test_refuses_a_percentile_without_enough_tail(self):
        with self.assertRaises(ValueError):
            metrics.reported_percentile(list(range(199)), 95.0)
        self.assertEqual(metrics.reported_percentile(list(range(1, 201)), 95.0),
                         190)

    def test_misses_sort_last(self):
        values = [1.0] * 190 + [math.inf] * 10
        self.assertEqual(metrics.reported_percentile(values, 95.0), 1.0)
        self.assertEqual(metrics.percentile(values + [math.inf], 95.0),
                         math.inf)


class OpenLoopClock(unittest.TestCase):
    def test_latency_runs_from_the_due_instant(self):
        # Due at 10 ms, sent 4 ms late, done at 30 ms: the request waited
        # 20 ms for the user although the service saw it for 16 ms.
        records = [request(10.0, 14.0, 30.0)]
        self.assertAlmostEqual(metrics.open_loop_latencies_ms(records)[0], 20.0)
        self.assertAlmostEqual(metrics.send_lags_ms(records)[0], 4.0)

    def test_a_stalled_generator_charges_every_late_request(self):
        # The generator stalls for 50 ms at 0: the three requests due at 0,
        # 10 and 20 ms all go out at 50 ms and take 1 ms each.
        records = [request(due, 50.0, 51.0) for due in (0.0, 10.0, 20.0)]
        self.assertEqual(metrics.open_loop_latencies_ms(records),
                         [51.0, 41.0, 31.0])

    def test_a_failed_request_is_a_miss(self):
        records = [request(0.0, 0.0, 5.0, ok=False)]
        self.assertEqual(metrics.open_loop_latencies_ms(records), [math.inf])

    def test_burst_capacity_counts_completions_per_second(self):
        records = [request(0.0, 0.0, 100.0 * (i + 1)) for i in range(40)]
        self.assertAlmostEqual(metrics.burst_capacity_rps(records), 10.0)

    def test_failed_burst_requests_are_not_completions(self):
        records = [request(0.0, 0.0, 100.0 * (i + 1), ok=i % 2 == 0)
                   for i in range(40)]
        self.assertAlmostEqual(metrics.burst_capacity_rps(records), 5.0)


class PooledSamples(unittest.TestCase):
    def test_pools_every_input_and_pass(self):
        self.assertEqual(metrics.pooled([[0.5, 0.3], [0.2]]), [0.5, 0.3, 0.2])

    def test_end_to_end_takes_medians_over_the_whole_run(self):
        raw = fake_raw("search")
        raw["search"]["serial_s"] = [[0.5, 0.3], [0.4, 0.9], [0.8, 0.6]]
        values = metrics.end_to_end(raw)
        self.assertAlmostEqual(values["search_s"], 0.55)
        self.assertAlmostEqual(values["assess_s"], 1.8)
        self.assertAlmostEqual(values["assess_to_ciw_s"], 0.3)
        self.assertAlmostEqual(values["setup_s"], 0.45)

    def test_failed_requests_of_every_pass_are_misses(self):
        raw = fake_raw("search")
        for r in raw["service"]["rate"][0][:40]:
            r[metrics.OK] = 0.0
        # 40 misses of 600 pooled samples: more than 5%, so p95 is a miss.
        self.assertEqual(metrics.end_to_end(raw)["request_p95_ms"], math.inf)


class OutputSchema(unittest.TestCase):
    def setUp(self):
        with open(SPEC_PATH) as f:
            self.spec = json.load(f)

    def check(self, out, declared):
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(out["correct"], True)
        self.assertIsInstance(out["attempted"], int)
        self.assertIsInstance(out["failed"], int)
        self.assertEqual(list(out["metrics"]), [m["name"] for m in declared])
        for m in declared:
            entry = out["metrics"][m["name"]]
            self.assertEqual(set(entry), {"value", "unit"})
            self.assertEqual(entry["unit"], m["unit"])
            self.assertTrue(math.isfinite(entry["value"]), m["name"])
        json.loads(json.dumps(out, allow_nan=False))

    def test_every_end_to_end_metric_on_every_workload(self):
        for workload in ("search", "assess"):
            out = metrics.result(fake_raw(workload), self.spec, trace=False)
            self.check(out, self.spec["end_to_end"])

    def test_every_per_layer_metric_on_every_workload(self):
        for workload in ("search", "assess"):
            out = metrics.result(fake_raw(workload), self.spec, trace=True)
            self.check(out, self.spec["per_layer"])
            ledger = [v["value"] for k, v in out["metrics"].items()
                      if k.startswith("ledger.")]
            self.assertAlmostEqual(sum(ledger), 1.0)

    def test_a_failed_check_makes_the_run_incorrect(self):
        raw = fake_raw("search")
        raw["checks"].append({"name": "x", "ok": False, "detail": ""})
        raw["failed"] = 1
        out = metrics.result(raw, self.spec, trace=False)
        self.assertIs(out["correct"], False)
        self.assertEqual(out["failed"], 1)

    def test_too_few_requests_for_p95_is_refused(self):
        # Three passes of 60 requests: 180 samples, p95 needs 200.
        with self.assertRaises(ValueError):
            metrics.result(fake_raw("assess", requests=60), self.spec,
                           trace=False)


if __name__ == "__main__":
    unittest.main()
