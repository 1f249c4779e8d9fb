"""Unit tests for the benchmark's arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import harness  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_uses_target_when_ten_samples_lie_beyond(self):
        samples = list(range(1, 1001))  # 1..1000
        value, q, n = harness.percentile(samples, 0.99)
        self.assertEqual((value, q, n), (990, 0.99, 1000))
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_falls_back_to_highest_percentile_with_ten_beyond(self):
        samples = list(range(1, 501))
        value, q, n = harness.percentile(samples, 0.99)
        self.assertAlmostEqual(q, 0.98)
        self.assertEqual(n, 500)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_never_below_the_median(self):
        value, q, n = harness.percentile([5, 1, 4, 2, 3], 0.99)
        self.assertEqual((value, q, n), (3, 0.5, 5))

    def test_order_of_samples_does_not_matter(self):
        samples = [float(x) for x in range(200)]
        self.assertEqual(harness.percentile(samples, 0.95),
                         harness.percentile(list(reversed(samples)), 0.95))

    def test_empty(self):
        self.assertEqual(harness.percentile([], 0.5), (0.0, 0.5, 0))


class Teps(unittest.TestCase):
    def test_hmean_is_total_edges_over_total_seconds(self):
        self.assertAlmostEqual(harness.teps_hmean([100, 100], [1.0, 3.0]), 50.0)
        self.assertAlmostEqual(harness.teps_hmean([100, 300], [1.0, 1.0]), 200.0)

    def test_hmean_is_the_harmonic_mean_for_equal_edge_counts(self):
        edges, seconds = [1000] * 3, [1.0, 2.0, 4.0]
        rates = [e / s for e, s in zip(edges, seconds)]
        self.assertAlmostEqual(harness.teps_hmean(edges, seconds),
                               statistics.harmonic_mean(rates))

    def test_median_of_per_traversal_rates(self):
        self.assertAlmostEqual(harness.teps_median([10, 10, 90], [1, 2, 1]), 10.0)

    def test_no_time_reads_zero(self):
        self.assertEqual(harness.teps_hmean([], []), 0.0)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(harness.self_times([(1, 0, 1, "a", 5, 25)]), {1: 20})

    def test_children_are_subtracted_once_and_clipped_to_the_parent(self):
        spans = [
            (1, 0, 1, "run", 0, 100),
            (2, 1, 1, "level", 10, 30),
            (3, 1, 1, "level", 20, 50),     # overlaps the first child
            (4, 1, 1, "level", 90, 120),    # runs past the parent's end
            (5, 2, 1, "grandchild", 10, 20),
        ]
        own = harness.self_times(spans)
        self.assertEqual(own[1], 100 - 40 - 10)
        self.assertEqual(own[2], 10)
        self.assertEqual(own[3], 30)
        self.assertEqual(own[4], 30)

    def test_summary_groups_by_name(self):
        spans = [(1, 0, 1, "q", 0, 10), (2, 1, 1, "exec", 2, 8),
                 (3, 0, 2, "q", 20, 30), (4, 3, 2, "exec", 20, 30)]
        summary = harness.span_summary(spans)
        self.assertEqual(summary["q"], {"count": 2, "total_ns": 20, "self_ns": 4})
        self.assertEqual(summary["exec"], {"count": 2, "total_ns": 16, "self_ns": 16})


class ServiceOvershoot(unittest.TestCase):
    def test_busy_over_modeled_service_time(self):
        modeled = 1000 * 220e-6 + 4096000 / 270e6
        self.assertAlmostEqual(
            harness.service_overshoot(2 * modeled, 1000, 4096000, 220.0, 270e6, 1.0), 2.0)

    def test_time_scale_shrinks_the_model(self):
        self.assertAlmostEqual(
            harness.service_overshoot(0.01, 100, 0, 100.0, 0.0, 0.5), 2.0)

    def test_no_modeled_time_reads_zero(self):
        self.assertEqual(harness.service_overshoot(0.0, 0, 0, 0.0, 0.0, 1.0), 0.0)


class RiderShare(unittest.TestCase):
    def test_riders_are_batched_answers_beyond_one_per_lane(self):
        # Ten batched answers over six lanes: four rode another's lane.
        self.assertAlmostEqual(harness.rider_frac(6, 10), 0.4)
        self.assertEqual(harness.rider_frac(10, 10), 0.0)
        self.assertEqual(harness.rider_frac(0, 0), 0.0)


class HarnessFaults(unittest.TestCase):
    def test_a_reader_that_waited_for_the_checker_is_a_fault(self):
        report = serve_report()
        self.assertEqual(harness.harness_faults(report), [])
        report["values"].update({"reader_blocked_ms": 12.5, "check.pending_peak": 256})
        (fault,) = harness.harness_faults(report)
        self.assertIn("12.5 ms", fault)
        self.assertIn("256", fault)


class Spread(unittest.TestCase):
    def test_interquartile_range_over_median(self):
        q1, _, q3 = statistics.quantiles([1, 2, 3, 4, 5], n=4)
        self.assertAlmostEqual(harness.spread([1, 2, 3, 4, 5]), (q3 - q1) / 3)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(harness.spread([7.0] * 10), 0.0)


def traversal_report(traced):
    ops = 8
    return {
        "workload": "g500_ssd", "seed": 1, "attempted": ops, "failed": 0,
        "setup_s": [3.0, 1.0, 2.0],
        "values": {"rss_mib": 200.0, "checker_mib": 50.0, "traversals": ops / 2,
                   "graph500.bfs_s": 2.0, "bfs.td_s": 0.5, "bfs.bu_s": 1.0,
                   "nvm.requests": 400, "nvm.bytes": 1638400, "nvm.busy_s": 0.2,
                   "nvm.read_latency_us": 220.0, "nvm.read_bandwidth_bps": 270e6,
                   "nvm.time_scale": 1.0, "teps_edges": 4e6},
        "series": {"op_seconds": [0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 2.0, 0.5],
                   "op_edges": [1e6] * ops,
                   "op_traced": [i % 2 if traced else 0 for i in range(ops)],
                   "op_root": [i % 4 for i in range(ops)]},
        "obs_counters": {"pool.regions": 40}, "obs_histograms": {},
    }


def serve_report(lengths=(2.0,)):
    """Four answers, two of them full traversals, all in window 0."""
    return {
        "workload": "serve_rw", "seed": 1, "attempted": 4, "failed": 0,
        "setup_s": [1.0],
        "values": {"rss_mib": 80.0, "checker_mib": 30.0, "window_s": sum(lengths),
                   "window.traced_s": 1.0},
        "series": {"window.length_s": list(lengths),
                   "latency_ms": [10.0, 20.0, 30.0, 40.0], "answer_done": [1, 1, 1, 1],
                   "answer_window": [0, 0, 0, 0], "answer_traced": [0, 0, 0, 1],
                   "full_edges": [100, 100], "full_latency_s": [0.01, 0.03],
                   "full_window": [0, 0]},
    }


class Assembly(unittest.TestCase):
    def setUp(self):
        bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        self.end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        self.per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    def test_end_to_end_names_and_units_match_the_benchmark_file(self):
        metrics = harness.end_to_end(traversal_report(False))
        self.assertEqual({k: u for k, (_, u, _) in metrics.items()}, self.end_to_end)
        self.assertEqual(metrics["setup_s"][0], 2.0)
        self.assertEqual(metrics["rss_mib"][0], 150.0)
        # Each of the four roots at its fastest traversal: 0.5 s for 1e6 edges.
        self.assertAlmostEqual(metrics["teps_hmean"][0], 2.0)
        self.assertAlmostEqual(metrics["goodput_qps"][0], 2.0)
        self.assertAlmostEqual(metrics["latency_ms_p50"][0], 500.0)
        # One sample per root: the four per-root minima, not the eight traversals.
        self.assertEqual(metrics["teps_hmean"][2], 4)
        self.assertEqual(metrics["latency_ms_p50"][2], 4)

    def test_serve_metrics_use_every_answer_of_the_window(self):
        metrics = harness.end_to_end(serve_report())
        self.assertEqual({k: u for k, (_, u, _) in metrics.items()}, self.end_to_end)
        self.assertAlmostEqual(metrics["goodput_qps"][0], 2.0)
        self.assertAlmostEqual(metrics["teps_hmean"][0], 200 / 0.04 / 1e6)
        self.assertEqual(metrics["latency_ms_p50"][0], 20.0)
        # Three answers in the 1 s untraced window, one in the 1 s traced one.
        self.assertAlmostEqual(harness.trace_overhead(serve_report()), 2.0)

    def test_goodput_divides_by_the_window_held_open_for_late_writes(self):
        report = serve_report(lengths=(2.5,))
        self.assertAlmostEqual(harness.end_to_end(report)["goodput_qps"][0], 4 / 2.5)

    def test_serve_metrics_are_medians_over_the_windows(self):
        report = serve_report(lengths=(2.0, 1.0, 1.0))
        s = report["series"]
        # Window 1: one slow answer; window 2: two fast ones, one a full traversal.
        s["answer_window"] += [1, 2, 2]
        s["latency_ms"] += [90.0, 5.0, 5.0]
        s["answer_done"] += [1, 1, 1]
        s["answer_traced"] += [0, 0, 0]
        s["full_window"] += [2]
        s["full_edges"] += [100]
        s["full_latency_s"] += [0.005]
        rows = harness.window_metrics(report)
        self.assertEqual([r["goodput_qps"] for r in rows], [2.0, 1.0, 2.0])
        self.assertEqual([r["latency_ms_p50"] for r in rows], [20.0, 90.0, 5.0])
        metrics = harness.end_to_end(report)
        self.assertEqual(metrics["goodput_qps"], (2.0, "1/s", 7))
        self.assertEqual(metrics["latency_ms_p50"], (20.0, "ms", 7))
        # Window TEPS: 5e-3, none (0) and 2e-2 MTEPS; the median is window 0's.
        self.assertAlmostEqual(metrics["teps_hmean"][0], 200 / 0.04 / 1e6)
        self.assertEqual(metrics["teps_hmean"][2], 3)

    def test_best_per_root_keeps_each_roots_fastest_traversal(self):
        report = {"series": {"op_root": [0, 1, 0, 1, 2], "op_edges": [10, 20, 10, 20, 30],
                             "op_seconds": [2.0, 1.0, 1.5, 3.0, 4.0]}}
        self.assertEqual(sorted(harness.best_per_root(report)),
                         [(10, 1.5), (20, 1.0), (30, 4.0)])

    def test_per_layer_names_and_units_match_the_benchmark_file(self):
        metrics = harness.per_layer(traversal_report(True))
        self.assertEqual({k: u for k, (_, u, _) in metrics.items()}, self.per_layer)
        self.assertAlmostEqual(metrics["bfs.unattributed_s"][0], 0.125)
        self.assertAlmostEqual(metrics["bfs.unattributed_frac"][0], 0.25)
        self.assertAlmostEqual(metrics["nvm.requests"][0], 100.0)
        self.assertAlmostEqual(metrics["parallel.regions_per_bfs"][0], 10.0)
        # Untraced traversals took 4.0 s and traced ones 2.5 s for equal edges.
        self.assertAlmostEqual(metrics["obs.trace_overhead"][0], 2.5 / 4.0 - 1.0)
        self.assertTrue(all(math.isfinite(v) for v, _, _ in metrics.values()))


if __name__ == "__main__":
    unittest.main()
