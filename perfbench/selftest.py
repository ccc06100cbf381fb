#!/usr/bin/env python3
"""Self-test of the benchmark's checks (no build, no timing):

  python3 perfbench/selftest.py

- a perturbed label vector fails the digest check and counts as a
  failed call;
- a failed durability (restore) check counts as a failed call;
- the comparison flags a 10x slowdown on a doctored copy of a recorded
  result, and flags nothing on the unchanged result;
- BENCHMARK.json names only workloads run.py runs, and exactly the
  metrics it reports.
"""

import copy
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SAMPLE = os.path.join(run.HERE, "testdata", "sample_results.jsonl")


def label_digest(labels, merges):
    """FNV-1a over labels and merge sequence; mirrors Digest() in
    hera_e2e_bench.cc."""
    h = 1469598103934665603

    def mix(x):
        nonlocal h
        for b in range(4):
            h ^= (x >> (8 * b)) & 0xFF
            h = (h * 1099511628211) & 0xFFFFFFFFFFFFFFFF

    mix(len(labels))
    for label in labels:
        mix(label)
    mix(len(merges))
    for i, j in merges:
        mix(i)
        mix(j)
    return "%016x" % h


def batch_round(corpus_seed, digest, ms=5000.0):
    return {"corpus_seed": corpus_seed, "setup_s": 0.01, "f1": 0.94,
            "records": 2000,
            "calls": [{"ms": ms, "ok": True, "outcome": "completed",
                       "digest": digest, "error": ""}]}


class DigestCheck(unittest.TestCase):
    def setUp(self):
        self.labels = [r // 3 * 3 for r in range(300)]
        self.merges = [(r // 3 * 3, r) for r in range(300) if r % 3]
        self.good = label_digest(self.labels, self.merges)
        self.digests = {"movies-batch": {"11": self.good}}

    def evaluate(self, digest):
        result = {"rounds": [batch_round(11, digest)]}
        return run.evaluate_e2e("movies-batch", result, 80.0, self.digests)

    def test_recorded_digest_passes(self):
        correct, attempted, failed, metrics, _ = self.evaluate(self.good)
        self.assertTrue(correct)
        self.assertEqual((attempted, failed), (1, 0))
        self.assertEqual(metrics["success_rate"], 1.0)

    def test_perturbed_labels_fail(self):
        labels = list(self.labels)
        labels[7] = 0  # Record 7 moved into another entity.
        bad = label_digest(labels, self.merges)
        self.assertNotEqual(bad, self.good)
        correct, attempted, failed, metrics, notes = self.evaluate(bad)
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertEqual(metrics["success_rate"], 0.0)
        self.assertTrue(any("recorded" in n for n in notes))

    def test_perturbed_merge_order_fails(self):
        merges = list(reversed(self.merges))
        self.assertNotEqual(label_digest(self.labels, merges), self.good)

    def test_unrecorded_seed_checks_outcome_only(self):
        result = {"rounds": [batch_round(12, "0" * 16)]}
        correct, _, failed, _, notes = run.evaluate_e2e(
            "movies-batch", result, 80.0, self.digests)
        self.assertTrue(correct)
        self.assertEqual(failed, 0)
        self.assertTrue(any("no recorded digest" in n for n in notes))

    def test_incomplete_outcome_fails(self):
        rnd = batch_round(11, self.good)
        rnd["calls"][0]["outcome"] = "truncated_deadline"
        correct, _, failed, _, _ = run.evaluate_e2e(
            "movies-batch", {"rounds": [rnd]}, 80.0, self.digests)
        self.assertFalse(correct)
        self.assertEqual(failed, 1)

    def test_failed_restore_counts(self):
        calls = [{"ms": 200.0 + i, "ok": True, "outcome": "completed",
                  "digest": "%016x" % i, "error": ""} for i in range(50)]
        rnd = {"corpus_seed": 3, "setup_s": 4.0, "f1": 0.97, "records": 500,
               "calls": calls,
               "restore": {"ok": False, "ms": 150.0, "error": "labels differ"}}
        digests = {"movies-stream": {"3": [c["digest"] for c in calls]}}
        correct, attempted, failed, metrics, _ = run.evaluate_e2e(
            "movies-stream", {"rounds": [rnd]}, 90.0, digests)
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (51, 1))
        # 50 samples: p80 has ten samples beyond it.
        self.assertEqual(metrics["latency_ms_tail"], 239.0)


class Tail(unittest.TestCase):
    def test_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail(list(range(1, 101))), (90, 90.0, 100))
        self.assertEqual(run.tail(list(range(1, 51))), (40, 80.0, 50))

    def test_few_samples_give_max(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))


class Compare(unittest.TestCase):
    def setUp(self):
        self.base = run.read_results(SAMPLE)
        self.assertGreaterEqual(len(self.base), 2)

    def test_unchanged_is_not_flagged(self):
        self.assertEqual(run.compare(self.base, copy.deepcopy(self.base)), [])

    def test_ten_times_slower_is_flagged(self):
        slow = copy.deepcopy(self.base)
        for r in slow:
            m = r["metrics"]
            m["latency_ms_p50"]["value"] *= 10
            m["latency_ms_tail"]["value"] *= 10
            m["records_per_s"]["value"] /= 10
        flagged = {f[0] for f in run.compare(self.base, slow)}
        self.assertEqual(flagged,
                         {"latency_ms_p50", "latency_ms_tail", "records_per_s"})

    def test_within_bound_is_not_flagged(self):
        slightly = copy.deepcopy(self.base)
        for r in slightly:
            r["metrics"]["latency_ms_p50"]["value"] *= 1.05
        self.assertEqual(run.compare(self.base, slightly), [])

    def test_compare_cli_exit_code(self):
        slow = copy.deepcopy(self.base)
        for r in slow:
            r["metrics"]["setup_s"]["value"] *= 10
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "slow.jsonl")
            with open(path, "w") as f:
                for r in slow:
                    f.write(json.dumps(r) + "\n")
            self.assertEqual(run.main(["--compare", SAMPLE, SAMPLE]), 0)
            self.assertEqual(run.main(["--compare", SAMPLE, path]), 1)


class BenchmarkJson(unittest.TestCase):
    def test_matches_run_py(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to perfbench/")
        with open(path) as f:
            b = json.load(f)
        gated = [w["name"] for w in b["workloads"]]
        self.assertEqual(gated, [w for w in run.WORKLOADS if w in gated])
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in b["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in b["per_layer"]], run.PER_LAYER)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in b["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
