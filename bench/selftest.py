"""Self-test of the benchmark: its checks count wrong outputs as failed, its
tracer times what it claims to, and it reports the metrics BENCHMARK.json
names.

    python3 bench/selftest.py

Runs in a few seconds on small inputs; latsim is imported from ``src/``.
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import latsim  # noqa: E402
import latsim.arith  # noqa: E402
import latsim.census  # noqa: E402
import latsim.classes  # noqa: E402
import latsim.modular  # noqa: E402
import latsim.verify  # noqa: E402
from latsim.census import ClassSetId  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class CensusChecks(unittest.TestCase):
    def test_right_counts_pass(self):
        tally = workloads.run_census(0, heights=(400,))
        self.assertEqual((tally.attempted, tally.failed), (3, 0))

    def test_wrong_count_is_failed(self):
        count_fast = latsim.census.count_fast

        def off_by_one(set_id, T, *args, **kwargs):
            n = count_fast(set_id, T, *args, **kwargs)
            return n + 1 if set_id is ClassSetId.WELL_ROUNDED else n

        with mock.patch.object(latsim.census, "count_fast", off_by_one):
            tally = workloads.run_census(0, heights=(400,))
        self.assertEqual((tally.attempted, tally.failed), (3, 1))
        self.assertEqual(len(tally.unexpected), 1)
        self.assertIn("--set wr", tally.unexpected[0])


class ClassifyChecks(unittest.TestCase):
    def test_only_the_known_defects_fail(self):
        tally = workloads.run_classify(0, height=3)
        self.assertEqual(tally.attempted,
                         latsim.count_bruteforce(ClassSetId.ALL, 3) + 2)
        self.assertEqual((tally.failed, tally.j_mismatches), (2, 2))
        self.assertEqual(tally.unexpected, [])

    def test_wrong_j_verdict_is_failed(self):
        classify_by_j = latsim.modular.classify_by_j

        def inverted(q, *args, **kwargs):
            return not classify_by_j(q, *args, **kwargs)

        with mock.patch.object(latsim.modular, "classify_by_j", inverted):
            tally = workloads.run_classify(0, height=3)
        # Every class is now wrong except the two near-arc ones.
        self.assertEqual(tally.failed, tally.attempted - 2)
        self.assertEqual(len(tally.unexpected), tally.failed)

    def test_wrong_kind_is_failed(self):
        def always_wr(q):
            return latsim.classes.ClassKind.WELL_ROUNDED

        with mock.patch.object(latsim.classes, "classify", always_wr):
            tally = workloads.run_classify(0, height=3)
        self.assertGreater(len(tally.unexpected), 0)
        self.assertTrue(all(label.startswith("class (")
                            for label in tally.unexpected))


class VerifyChecks(unittest.TestCase):
    def test_failing_check_is_failed(self):
        with mock.patch.object(latsim.verify, "verify_haar",
                               lambda: [("volume", False, "wrong")]):
            tally = workloads.run_verify(0, suites={"haar"})
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertEqual(len(tally.unexpected), 1)

    def test_known_red_check_is_failed_but_expected(self):
        red = "N1 relative deviation strictly decreases"
        self.assertIn(red, workloads.KNOWN_FAILING_CHECKS)
        with mock.patch.object(latsim.verify, "verify_asymptotics",
                               lambda: [(red, False, "oscillates")]):
            tally = workloads.run_verify(0, suites={"asymptotics"})
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertEqual(tally.unexpected, [])


class TracerTests(unittest.TestCase):
    def test_every_binding_is_patched_and_restored(self):
        original = latsim.arith.build_sieve
        self.assertIs(latsim.census.build_sieve, original)
        with Tracer():
            self.assertIsNot(latsim.arith.build_sieve, original)
            self.assertIs(latsim.census.build_sieve, latsim.arith.build_sieve)
            self.assertIs(latsim.build_sieve, latsim.arith.build_sieve)
        self.assertIs(latsim.arith.build_sieve, original)
        self.assertIs(latsim.census.build_sieve, original)
        self.assertIs(latsim.build_sieve, original)

    def test_nested_spans_give_self_time(self):
        with Tracer() as tracer:
            # count_fast builds its own sieve through census.build_sieve.
            latsim.count_fast(ClassSetId.ALL, 30)
        summary = tracer.summary()
        fast = summary["census.count_fast.all.T30"]
        sieve = summary["arith.build_sieve"]
        self.assertEqual((fast["calls"], sieve["calls"]), (1, 1))
        self.assertGreater(sieve["s"], 0)
        self.assertAlmostEqual(fast["self_s"], fast["s"] - sieve["s"],
                               places=12)

    def test_generator_is_timed_across_next_calls(self):
        pause = 0.01
        with Tracer() as tracer:
            with tracer.span("consumer"):
                n = 0
                for _ in latsim.census.enumerate_classes(
                        ClassSetId.WELL_ROUNDED, 5):
                    time.sleep(pause)
                    n += 1
            brute = latsim.census.count_bruteforce(ClassSetId.ALL, 4)
        summary = tracer.summary()
        classes = summary["census.enumerate_classes"]
        self.assertEqual(classes["calls"], 2)
        self.assertEqual(classes["items"], n + brute)
        # one span per next(), the last one ending the generator
        self.assertEqual(classes["spans"], n + brute + 2)
        self.assertLess(classes["s"], pause)
        self.assertGreater(summary["consumer"]["self_s"], n * pause)
        outer = summary["census.count_bruteforce"]
        self.assertLess(outer["self_s"], outer["s"])


class ReportedNames(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        setup = {"setup_s": 1.0, "import_s": 0.9, "build_sieve_s": 0.1}
        one_pass = {"wall_s": 2.0, "attempted": 4, "failed": 1,
                    "step_s": [0.5, 0.7], "unexpected": []}
        run_child = {"setup": setup, "pass": one_pass, "peak_rss_mb": 50.0}
        e2e = run.end_to_end_metrics([setup], [run_child])
        self.assertEqual(list(e2e), [m["name"] for m in spec["end_to_end"]])

        with Tracer() as tracer:
            pass
        traced = dict(run_child,
                      per_layer=worker.per_layer_metrics(tracer, setup, 0))
        layers = run.per_layer_metrics(run_child, traced)
        self.assertEqual(list(layers), [m["name"] for m in spec["per_layer"]])
        for metric in spec["end_to_end"]:
            self.assertEqual(e2e[metric["name"]]["unit"], metric["unit"])
        for metric in spec["per_layer"]:
            self.assertEqual(layers[metric["name"]]["unit"], metric["unit"])


if __name__ == "__main__":
    unittest.main()
