"""The benchmark's own tests; kept out of the package's pytest suite.

Run from the repository root: python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest

import checks
import run

TINY = ["--seconds", "0.5", "--scale", "0.01"]


def _bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class TinyRunTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            expected = {m["name"]: m["unit"] for m in benchmark[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    out = _bench("--workload", workload, "--seed", "3", "--trace", trace, *TINY)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual({name: m["unit"] for name, m in metrics.items()}, expected)
                    if trace == "0":
                        self.assertTrue(all(m["value"] > 0 for m in metrics.values()), metrics)
                    elif workload == "small_cities":
                        # Every layer is exercised here, so every span is wired to a metric.
                        idle = {"ingest.rows_excluded", "trace.overhead_s"}
                        zero = [name for name, m in metrics.items() if m["value"] == 0 and name not in idle]
                        self.assertEqual(zero, [])

    def test_fails_without_the_package_source(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            out = _bench("--workload", "big_city", "--seed", "1", "--trace", "0", *TINY, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


class CorruptedPlanTest(unittest.TestCase):
    def test_check_rejects_a_moved_or_lost_kit(self):
        weights = checks.rank_weights(30)
        plan = [2 + q for q in checks.hamilton(weights, 1000 - 60)]
        checks.check_quotas(plan, weights, 1000, 2)
        moved = [plan[0] + 1] + plan[1:-1] + [plan[-1] - 1]
        lost = plan[:-1] + [plan[-1] - 1]
        for bad in (moved, lost):
            with self.assertRaises(checks.CheckFailed):
                checks.check_quotas(bad, weights, 1000, 2)

    def test_corrupted_plan_counts_as_failed(self):
        spawn = run.Runner.spawn

        def corrupting_spawn(runner, argv):
            result = spawn(runner, argv)
            if "allocate" in argv:
                doc = json.loads(result.stdout)
                allocations = doc["allocations"]
                allocations[0]["kits"] += 1
                allocations[-1]["kits"] -= 1
                result.stdout = json.dumps(doc).encode()
            return result

        run.Runner.spawn = corrupting_spawn
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.run("ranked_alloc", 5, 0.3, False, 0.01)
        finally:
            run.Runner.spawn = spawn
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 2)
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
