#!/usr/bin/env python3
"""The benchmark's own test. Builds perfbench like run.py does, then checks
per workload that a corrupted round counts as failed, that the exact
counters repeat on one seed, and that a second seed passes the oracle and
prints the same metric names.

    python3 perfbench/test_perfbench.py [-v]

Run from the repository root; takes about two minutes on four cores.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORKLOADS = ("cholesky", "stencil_fine", "multisort_nested")
# Per-layer metrics the benchmark labels [exact]: they must repeat bit for
# bit on one seed (0 where the workload does not exercise them).
EXACT = ("runtime.tasks_per_round", "runtime.taskwaits_per_round",
         "dep.region_accesses_per_task", "blas.gemm_calls")
SECONDS = "0.5"
BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build(run.build_dir())


def perfbench(workload, seed, trace, *extra):
    """Runs one workload; returns (result object, metric lines)."""
    out = subprocess.run(
        [str(BINARY), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace), *extra],
        capture_output=True, text=True, check=True).stdout.splitlines()
    lines = [l for l in out if l.startswith(workload + " ")]
    return json.loads(out[-1]), lines


class PerfbenchTest(unittest.TestCase):
    def test_corrupted_round_counts_as_failed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r, lines = perfbench(w, 1, 0, "--corrupt-round", "0")
                self.assertFalse(r["correct"])
                self.assertEqual(r["failed"], 1)
                self.assertGreater(r["attempted"], 1)
                self.assertTrue(any("first failure: oracle mismatch" in l
                                    for l in lines))

    def test_exact_counters_repeat_on_one_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, _ = perfbench(w, 7, 1)
                b, _ = perfbench(w, 7, 1)
                self.assertTrue(a["correct"] and b["correct"])
                for name in EXACT:
                    self.assertEqual(a["metrics"][name], b["metrics"][name],
                                     name)
                self.assertGreater(
                    a["metrics"]["runtime.tasks_per_round"]["value"], 0)
        # The gemm count is the Cholesky one: sum over j of j*(nb-1-j).
        r, _ = perfbench("cholesky", 8, 1)
        nb = 2048 // 128
        self.assertEqual(r["metrics"]["blas.gemm_calls"]["value"],
                         sum(j * (nb - 1 - j) for j in range(nb)))

    def test_second_seed_passes_with_same_metric_names(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, la = perfbench(w, 1, 0)
                b, lb = perfbench(w, 2, 0)
                self.assertTrue(a["correct"] and b["correct"])
                self.assertEqual(a["failed"], 0)
                self.assertEqual(sorted(a["metrics"]), sorted(b["metrics"]))
                self.assertEqual([l.split()[1] for l in la],
                                 [l.split()[1] for l in lb])
                self.assertIn("failed_ratio", [l.split()[1] for l in la])


if __name__ == "__main__":
    unittest.main()
