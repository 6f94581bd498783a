#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py

- the C++ arithmetic (percentiles, per-slice percentiles, span
  self-time, the unattributed residual, RMSE) through the
  perfbench_arith_test binary;
- the compare helper's quartiles, pairs-rule verdicts and side order;
- a one-second smoke run of every workload, untraced and traced, checking
  the result line against BENCHMARK.json, the answer check and the
  descriptors, and on hbar-default and ltilde-bulk that the traced layers
  and the residual account for the live CPU cost;
- that the benchmark refuses to report without the sources it measures.
"""

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TESTS = Path(__file__).resolve().parent
BENCH_DIR = TESTS.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seconds=1, seed=7):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


class ArithTest(unittest.TestCase):
    def test_arith_binary(self):
        out_dir = run.build_dir()
        self.assertTrue(run.build("perfbench_arith_test", out_dir))
        proc = subprocess.run([str(out_dir / "perfbench_arith_test")],
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)


class CompareTest(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, med, q3 = compare.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertAlmostEqual(compare.spread_share(values), (q3 - q1) / med)

    def test_verdicts(self):
        parent = {s: 100.0 + s % 3 for s in range(10)}  # spread 2%
        faster = {s: 120.0 + s % 3 for s in range(10)}
        self.assertEqual(compare.verdict(parent, faster, "higher", 0.1)[0],
                         "improved")
        self.assertEqual(compare.verdict(parent, faster, "lower", 0.1)[0],
                         "regressed")
        same = {s: 100.0 + (s + 1) % 3 for s in range(10)}
        self.assertEqual(compare.verdict(parent, same, "higher", 0.1)[0],
                         "unchanged")
        noisy = {s: 100.0 * (1 + (s % 5) / 5) for s in range(10)}  # ~40%
        slight = {s: v * 1.02 for s, v in noisy.items()}
        result, won, pairs = compare.verdict(noisy, slight, "higher", 0.1)
        self.assertEqual((won, pairs), (10, 10))
        self.assertEqual(result, "unresolved")
        # Per-layer metrics have no bound: the pairs rule in both directions.
        self.assertEqual(compare.verdict(parent, faster, "lower", None)[0],
                         "worsened")
        self.assertEqual(compare.verdict(parent, same, "lower", None)[0],
                         "unchanged")

    def test_parse_seeds(self):
        self.assertEqual(compare.parse_seeds("1-3,7"), [1, 2, 3, 7])

    def test_sides_alternate(self):
        sides = ["parent", "change"]
        firsts = [compare.side_order(sides, i)[0] for i in range(4)]
        self.assertEqual(firsts, ["parent", "change", "parent", "change"])
        self.assertEqual(compare.side_order(["only"], 1), ["only"])


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        code, lines = run_bench(workload, trace)
        self.assertEqual(code, 0, lines[-2:] if lines else "no output")
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        key = "per_layer" if trace else "end_to_end"
        names = [m["name"] for m in BENCHMARK[key]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        units = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name])
        counts = detail["counts"]
        self.assertGreater(counts["answer_checks"], 0)
        self.assertEqual(counts["answer_check_failures"], 0)
        # Every episode contributes at least one slice with batches in it.
        self.assertGreaterEqual(counts["batch_slices"], counts["episodes"])
        self.assertGreater(counts["batch_samples_min_per_slice"], 0)
        for field in ("cpu_model", "cores", "kernel", "compiler",
                      "build_type", "git_sha", "engine_kernel"):
            self.assertIn(field, detail["provenance"])
        descriptors = detail["descriptors"]
        for field in ("repeat_share", "shard_spanning_share",
                      "mean_range_length", "reuse_distance_ranges",
                      "cycle_seconds"):
            self.assertIn(field, descriptors)
        # Even a smoke run cycles every pool, so the ranges it sent repeat
        # more than one cycle of them does.
        self.assertGreater(
            descriptors["repeat_share"],
            descriptors["within_cycle_repeat_share"])
        return result["metrics"]

    def check_layers_add_up(self, layers):
        """The layers plus the residual rebuild the live CPU cost, and the
        replayed layers explain most of it without exceeding it by much: a
        broken replay or span tree leaves the residual outside that band."""
        value = {name: metric["value"] for name, metric in layers.items()}
        cpu = value["runtime.cpu_ns_per_query"]
        unattributed = value["runtime.unattributed_ns_per_query"]
        parts = ["runtime.wire.decode_ns_per_query",
                 "runtime.wire.encode_ns_per_query",
                 "runtime.session.parse_ns_per_query",
                 "runtime.session.format_ns_per_query",
                 "service.query_service.batch_ns_per_query"]
        self.assertAlmostEqual(unattributed + sum(value[p] for p in parts),
                               cpu, places=6)
        self.assertGreater(cpu, 0)
        self.assertGreaterEqual(unattributed, -0.25 * cpu)
        self.assertLess(unattributed, cpu)

    def test_hbar_default(self):
        e2e = self.check("hbar-default", 0)
        for name in ("qps", "setup_s", "answer_rmse", "publish_p50_ms"):
            self.assertGreater(e2e[name]["value"], 0)
        layers = self.check("hbar-default", 1)
        # ROADMAP item 1's fall-off: the default config never reaches the
        # engine.
        self.assertEqual(layers["engine.query_share"]["value"], 0)
        self.assertGreater(layers["service.answer_cache.hit_ratio"]["value"],
                           0)
        self.check_layers_add_up(layers)

    def test_ltilde_bulk(self):
        self.check("ltilde-bulk", 0)
        layers = self.check("ltilde-bulk", 1)
        self.assertAlmostEqual(layers["engine.query_share"]["value"], 1,
                               places=2)
        self.check_layers_add_up(layers)

    def test_replan_durable(self):
        self.check("replan-durable", 0)
        layers = self.check("replan-durable", 1)
        self.assertGreater(
            layers["runtime.epoch_manager.republishes"]["value"], 1)
        self.assertEqual(layers["runtime.epoch_manager.failures"]["value"], 0)


class WithoutSourcesTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        out_dir = run.build_dir()
        out_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "hbar-default", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
