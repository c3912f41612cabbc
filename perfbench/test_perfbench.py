#!/usr/bin/env python3
"""Tests of the benchmark's own logic.

    python3 perfbench/test_perfbench.py

The seed tests build perfbench_driver first (as perfbench/run.py does).
"""

import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402

MS = 1_000_000  # ns


class PercentileTest(unittest.TestCase):
    def test_refuses_without_ten_samples_beyond(self):
        with self.assertRaises(metrics.InsufficientSamples):
            metrics.percentile(list(range(19)), 50)
        with self.assertRaises(metrics.InsufficientSamples):
            metrics.percentile(list(range(99)), 90)

    def test_reports_with_ten_samples_beyond(self):
        self.assertEqual(metrics.percentile(list(range(20)), 50), 9)
        self.assertEqual(metrics.percentile(list(range(100)), 90), 89)
        self.assertEqual(metrics.percentile(list(range(100, 0, -1)), 50), 50)

    def test_end_to_end_refuses_a_thin_run(self):
        raw = synthetic_raw(requests=15)
        with self.assertRaises(metrics.InsufficientSamples):
            metrics.end_to_end(raw, raw["phases"][0])


class SteadyWindowTest(unittest.TestCase):
    def test_counts_only_tokens_inside_the_window(self):
        requests = [
            {"token_ns": [1 * MS, 5 * MS, 9 * MS]},
            {"token_ns": [4 * MS, 10 * MS, 12 * MS]},  # 10 and 12 drain.
            {"token_ns": []},
        ]
        self.assertEqual(metrics.steady_tokens(requests, 2 * MS, 10 * MS), 3)

    def test_throughput_excludes_ramp_and_drain(self):
        raw = synthetic_raw(requests=40)
        phase = raw["phases"][0]
        # One token per ms per request, but only the window [2 s, 10 s)
        # counts and the drain tail after 10 s adds nothing.
        start, end = metrics.window(raw, phase)
        self.assertEqual((start, end), (2000 * MS, 10000 * MS))
        expected = metrics.steady_tokens(phase["requests"], start, end) / 8.0
        self.assertAlmostEqual(metrics.output_tok_per_s(raw, phase), expected)
        late = {"token_ns": [10000 * MS + i for i in range(1000)],
                "due_ns": 9999 * MS, "error": ""}
        phase["requests"].append(late)
        self.assertAlmostEqual(metrics.output_tok_per_s(raw, phase), expected)


class TpotTest(unittest.TestCase):
    def test_per_request_mean_absorbs_a_prefill_stall(self):
        # Four 5 ms decode gaps and one 200 ms gap waiting out another
        # session's prefill in the same round.
        times = [0, 5, 10, 210, 215, 220]
        self.assertAlmostEqual(
            metrics.request_tpot_ms([t * MS for t in times]), 44.0)
        # Pooled gaps are bimodal (5 ms vs 200 ms); the per-request value
        # is their mean, one sample per request.
        gaps = [b - a for a, b in zip(times, times[1:])]
        self.assertEqual(sorted(set(gaps)), [5, 200])

    def test_single_token_has_no_tpot(self):
        self.assertIsNone(metrics.request_tpot_ms([3 * MS]))


class RoundIdleTest(unittest.TestCase):
    def test_idle_share_counts_uncovered_thread_time(self):
        rounds = [{"ts": 0.0, "dur": 10.0}, {"ts": 10.0, "dur": 10.0}]
        steps = [{"ts": 0.0, "dur": 10.0}, {"ts": 1.0, "dur": 4.0},
                 {"ts": 10.0, "dur": 5.0}]
        # Capacity 2 threads * 20 us; covered 10 + 4 + 5.
        self.assertAlmostEqual(metrics.round_idle_share(rounds, steps),
                               (40 - 19) / 40)


class SeedTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise unittest.SkipTest("perfbench_driver does not build here")

    def plan(self, workload, seed):
        return subprocess.run(
            [str(run.DRIVER), "--workload", workload, "--seed", str(seed),
             "--seconds", "25", "--dump-plan", "40"],
            check=True, capture_output=True, text=True).stdout

    def test_same_seed_same_schedule_and_prompts(self):
        for workload in ("longdoc_qa", "rag_prefill", "tenant_chat"):
            with self.subTest(workload=workload):
                first = self.plan(workload, 7)
                self.assertEqual(first, self.plan(workload, 7))
                self.assertGreater(len(first.splitlines()), 40)

    def test_other_seed_other_schedule_and_prompts(self):
        for workload in ("longdoc_qa", "rag_prefill", "tenant_chat"):
            with self.subTest(workload=workload):
                self.assertNotEqual(self.plan(workload, 7),
                                    self.plan(workload, 8))


def synthetic_raw(requests):
    """A closed-loop record: request i sent at 2 s + 0.15 s * i, 20 tokens."""
    reqs = []
    for i in range(requests):
        sent = 2000 * MS + i * 150 * MS
        tokens = [sent + 30 * MS + j * MS for j in range(20)]
        reqs.append({"due_ns": sent, "sent_ns": sent, "token_ns": tokens,
                     "tenant": "t", "error": ""})
    return {
        "ramp_s": 2.0,
        "setup_s": [1.0, 3.0, 2.0],
        "peak_rss_kb": 2048,
        "phases": [{"start_ns": 0, "end_ns": 10000 * MS, "requests": reqs}],
    }


if __name__ == "__main__":
    unittest.main()
