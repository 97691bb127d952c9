"""Tests of the benchmark's own statistics and result-file code.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import tempfile
import unittest

import benchstats

HOST = {"nproc": 4, "cpu": "test cpu", "compiler": "GNU 12.2.0",
        "build_type": "Release"}


def raw_record(**overrides):
    record = {
        "trace": 0,
        "attempted": 12,
        "failed": 0,
        "failures": [],
        "batch_ms": [float(i) for i in range(1, 41)],
        "workers": 1000.0,
        "wall_s": 2.0,
        "score": 90.0,
        "upper": 100.0,
        "setup_s": [0.3, 0.1, 0.2],
        "peak_rss_mb": 12.5,
    }
    record.update(overrides)
    return record


class TailPercentileTest(unittest.TestCase):

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(benchstats.tail_percentile(20), 50.0)
        self.assertEqual(benchstats.tail_percentile(30), 65.0)
        self.assertEqual(benchstats.tail_percentile(40), 75.0)
        self.assertEqual(benchstats.tail_percentile(80), 85.0)
        self.assertEqual(benchstats.tail_percentile(100), 90.0)
        self.assertEqual(benchstats.tail_percentile(199), 90.0)
        self.assertEqual(benchstats.tail_percentile(200), 95.0)
        self.assertEqual(benchstats.tail_percentile(1000), 99.0)
        self.assertEqual(benchstats.tail_percentile(10000), 99.9)

    def test_every_choice_leaves_ten_beyond(self):
        for count in range(20, 3000, 7):
            pct = benchstats.tail_percentile(count)
            self.assertGreaterEqual(count * (100.0 - pct) / 100.0, 9.999)

    def test_too_few_samples(self):
        self.assertIsNone(benchstats.tail_percentile(19))
        self.assertIsNone(benchstats.tail_percentile(0))

    def test_summary_uses_the_sample_count(self):
        raw = raw_record(batch_ms=[float(i) for i in range(30)])
        self.assertEqual(benchstats.summarize(raw)["tail_pct"], 65.0)

    def test_percentile_matches_statistics_quantiles(self):
        samples = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        cuts = statistics.quantiles(samples, n=20, method="inclusive")
        for i, cut in enumerate(cuts, start=1):
            self.assertAlmostEqual(benchstats.percentile(samples, 5.0 * i),
                                   cut)


class SummarizeTest(unittest.TestCase):

    def test_end_to_end_metrics(self):
        result = benchstats.summarize(raw_record())
        metrics = result["metrics"]
        self.assertTrue(result["correct"])
        self.assertEqual(set(metrics), set(benchstats.END_TO_END_UNITS))
        self.assertEqual(metrics["batch_p50_ms"]["value"], 20.5)
        self.assertEqual(result["tail_pct"], 75.0)
        self.assertAlmostEqual(metrics["batch_tail_ms"]["value"], 30.25)
        self.assertEqual(metrics["workers_per_s"]["value"], 500.0)
        self.assertEqual(metrics["score_upper"]["value"], 0.9)
        self.assertEqual(metrics["setup_s"]["value"], 0.2)
        self.assertEqual(metrics["batch_p50_ms"]["unit"], "ms")

    def test_traced_run_reports_layers(self):
        raw = raw_record(trace=1, layers={"algo.solve_ms": 3.0,
                                          "algo.gt_rounds": 2.0,
                                          "trace.covered_frac": 0.99})
        metrics = benchstats.summarize(raw)["metrics"]
        self.assertEqual(metrics["algo.solve_ms"],
                         {"value": 3.0, "unit": "ms"})
        self.assertEqual(metrics["algo.gt_rounds"]["unit"], "count")
        self.assertEqual(metrics["trace.covered_frac"]["unit"], "ratio")


class FailureAccountingTest(unittest.TestCase):

    def test_failed_batches_make_the_run_incorrect(self):
        result = benchstats.summarize(raw_record(failed=2))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)
        self.assertEqual(result["attempted"], 12)

    def test_a_run_that_timed_nothing_fails(self):
        result = benchstats.summarize(raw_record(batch_ms=[]))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_attempted_is_at_least_one(self):
        result = benchstats.summarize(raw_record(attempted=0, failed=0))
        self.assertEqual(result["attempted"], 1)


class ResultFileTest(unittest.TestCase):

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.dir.name, "results.json")

    def tearDown(self):
        self.dir.cleanup()

    def run_entry(self, seed):
        result = benchstats.summarize(raw_record())
        return dict(result, workload="table2-m5k", seed=seed, trace=0,
                    seconds=8.0, failures=[])

    def test_round_trip(self):
        runs = [self.run_entry(1), self.run_entry(2)]
        for run in runs:
            self.assertTrue(benchstats.append_run(self.path, HOST, run))
        data = benchstats.load_result_file(self.path)
        self.assertEqual(data["schema"], benchstats.SCHEMA)
        self.assertEqual(data["host"], HOST)
        self.assertEqual(data["runs"], json.loads(json.dumps(runs)))

    def test_refuses_another_host(self):
        benchstats.append_run(self.path, HOST, self.run_entry(1))
        with open(self.path) as handle:
            before = handle.read()
        other = dict(HOST, nproc=1)
        self.assertFalse(benchstats.append_run(self.path, other,
                                               self.run_entry(2)))
        with open(self.path) as handle:
            self.assertEqual(handle.read(), before)

    def test_rejects_foreign_files(self):
        with open(self.path, "w") as handle:
            json.dump({"schema": "other", "runs": []}, handle)
        with self.assertRaises(ValueError):
            benchstats.load_result_file(self.path)

    def test_rejects_incomplete_runs(self):
        with open(self.path, "w") as handle:
            json.dump({"schema": benchstats.SCHEMA, "host": HOST,
                       "runs": [{"workload": "x"}]}, handle)
        with self.assertRaises(ValueError):
            benchstats.load_result_file(self.path)


class VerdictTest(unittest.TestCase):

    def test_delta_inside_the_spread_is_unresolved(self):
        base = [100.0, 104.0, 96.0, 110.0, 90.0]
        new = [98.0, 101.0, 95.0, 108.0, 92.0]
        self.assertEqual(benchstats.verdict(base, new, "lower"),
                         "unresolved")

    def test_delta_beyond_the_spread_is_resolved(self):
        base = [100.0, 101.0, 99.0, 100.5]
        new = [80.0, 81.0, 79.0, 80.5]
        self.assertEqual(benchstats.verdict(base, new, "lower"), "better")
        self.assertEqual(benchstats.verdict(base, new, "higher"), "worse")

    def test_disjoint_runs_are_resolved(self):
        base = [100.0, 130.0, 101.0, 129.0]
        new = [90.0, 99.0, 91.0, 98.0]
        self.assertEqual(benchstats.verdict(base, new, "lower"), "better")

    def test_single_runs_stay_unresolved(self):
        self.assertEqual(benchstats.verdict([1.0], [2.0], "lower"),
                         "unresolved")
        self.assertEqual(benchstats.verdict([1.0], [1.0], "lower"), "same")


if __name__ == "__main__":
    unittest.main()
