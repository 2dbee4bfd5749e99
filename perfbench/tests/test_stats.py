"""Unit tests for perfbench/stats.py.

    python3 -m unittest discover -s perfbench/tests
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertEqual(stats.percentile([7.0], 90), 7.0)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 50), 3)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 0)
        with self.assertRaises(ValueError):
            stats.percentile([1], 101)


class TailRuleTest(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(99, 90), 9)
        self.assertEqual(stats.samples_beyond(1000, 99), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(stats.tail_percentile(3))
        self.assertIsNone(stats.tail_percentile(99))
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)


class RatioTest(unittest.TestCase):
    def test_failures_count_against_attempts(self):
        r = stats.failure_fraction(3, 12)
        self.assertEqual((r.num, r.den), (3, 12))
        self.assertAlmostEqual(r.value, 0.25)
        self.assertEqual(stats.failure_fraction(0, 5).value, 0.0)

    def test_failure_fraction_rejects_bad_counts(self):
        with self.assertRaises(ValueError):
            stats.failure_fraction(0, 0)
        with self.assertRaises(ValueError):
            stats.failure_fraction(6, 5)
        with self.assertRaises(ValueError):
            stats.failure_fraction(-1, 5)

    def test_ratio_carries_its_base(self):
        r = stats.Ratio(931, 1000)
        self.assertEqual(str(r), "0.9310 (931 of 1000)")
        self.assertEqual(str(stats.Ratio(1.5, 4)), "0.3750 (1.5 of 4)")

    def test_empty_base_reads_zero(self):
        self.assertEqual(stats.Ratio(0, 0).value, 0.0)
        self.assertEqual(str(stats.Ratio(0, 0)), "0.0000 (0 of 0)")


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 0.8, 1.0, 1.02, 0.98]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.quartile_spread(xs), (q3 - q1) / statistics.median(xs))

    def test_constant_sample_has_no_spread(self):
        self.assertEqual(stats.quartile_spread([2.0] * 5), 0.0)


if __name__ == "__main__":
    unittest.main()
