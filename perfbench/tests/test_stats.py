"""Unit tests of perfbench/stats.py.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import stats  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(100000), 99.99)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)

    def test_too_few_samples_for_any_percentile(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertIsNone(stats.tail_percentile(0))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.5], 99), 7.5)

    def test_no_values(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class SummarizeTest(unittest.TestCase):
    def test_median_and_quartiles_across_runs(self):
        runs = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 14.0]
        summary = stats.summarize(runs)
        q1, _, q3 = statistics.quantiles(runs, n=4)
        self.assertEqual(summary["n"], 10)
        self.assertEqual(summary["median"], statistics.median(runs))
        self.assertEqual((summary["q1"], summary["q3"]), (q1, q3))
        self.assertAlmostEqual(summary["spread"],
                               (q3 - q1) / statistics.median(runs))

    def test_single_run_has_no_spread(self):
        summary = stats.summarize([4.0])
        self.assertEqual(summary["median"], 4.0)
        self.assertEqual(summary["spread"], 0.0)

    def test_accepts_generators(self):
        self.assertEqual(stats.summarize(x for x in (1, 2, 3))["median"], 2)


class SliceTest(unittest.TestCase):
    def test_slices_of_a_thousand_operations(self):
        latencies = ([1.0] * 900 + [3.0] * 90 + [5.0] * 10 + [2.0] * 1000
                     + [9.0] * 500)
        slices = stats.sliced_percentiles(latencies)
        # The partial last slice (500 operations) is dropped.
        self.assertEqual(slices, [(1.0, 1.0, 3.0), (2.0, 2.0, 2.0)])
        # Each slice's p99 has ten samples beyond it.
        self.assertEqual(stats.tail_percentile(stats.OP_SLICE), 99.0)

    def test_rates_over_slices_of_completions(self):
        # Three slices of two completions; the odd one out is dropped.
        events = [(0.5, 100), (1.0, 100), (1.5, 50), (3.0, 50), (3.5, 400),
                  (4.0, 200), (9.0, 1)]
        self.assertEqual(stats.sliced_rates(events, size=2),
                         [200.0, 50.0, 600.0])
        # Order of the events does not matter.
        self.assertEqual(stats.sliced_rates(events[::-1], size=2),
                         [200.0, 50.0, 600.0])


class PassTest(unittest.TestCase):
    def test_ingest_latency_counts_from_the_send(self):
        rows = [[0.5, 0.502, 256], [0.0, 0.001, 100]]
        rows += [[1.0 + i, 1.0 + i + 0.003, 256] for i in range(1998)]
        load = {"ingest_s": 2000.0, "ingest_rows": rows}
        summary = stats.summarize_pass(load)
        self.assertEqual([round(x, 6) for x in summary["op_ms"][:3]],
                         [1.0, 2.0, 3.0])
        # Two slices of 1000 acks: 0 to the 1000th ack, then to the last.
        first = (100 + 256 * 999) / (1.003 + 997)
        self.assertEqual([round(r, 6) for r in summary["rates"]],
                         [round(first, 6), round(256 * 1000 / 1000, 6)])

    def test_run_metrics_are_medians_over_slices_and_windows(self):
        slices = [(1.0, 2.0, 9.0), (3.0, 4.0, 9.0), (2.0, 3.0, 9.0)]
        metrics = stats.pass_metrics(slices, [10.0, 30.0, 20.0, 40.0])
        self.assertEqual(metrics, {"receipts_per_s": 25.0, "op_p50_ms": 2.0,
                                   "op_p90_ms": 3.0})


if __name__ == "__main__":
    unittest.main()
