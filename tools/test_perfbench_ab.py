#!/usr/bin/env python3
"""Unit tests for perfbench_ab.py (run from ctest as `perfbench_ab_unit`).

Every case runs on canned perfbench output, so nothing is built or timed:
a planted 10% `run_s` gain reads as a gain, the parent against itself reads
as neither a gain nor a regression, a planted 30% `peak_rss_mb` rise over a
tight parent reads as a regression, and a metric whose parent IQR exceeds
its bound reads as unresolved, also when the change is 30% worse. The steal
share is parsed from canned /proc/stat text. A last case drives the whole
tool over two stub checkouts and checks the alternation, the run length,
the steal shares and the --out file.
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import perfbench_ab  # noqa: E402

BENCHMARK = os.path.join(HERE, "..", "BENCHMARK.json")
SECONDS, WORKLOADS, SPECS = perfbench_ab.load_benchmark(BENCHMARK)

BASE = {"run_s": 0.05, "run_s_tail": 0.06, "tasks_per_s": 2.0e4,
        "setup_s": 0.1, "peak_rss_mb": 63.0}


def canned(values, commit="parent", failed=0, attempted=200):
    """The stdout of one perfbench run that measured `values`."""
    stamp = {"workload": "cholesky", "seed": 1, "seconds": SECONDS,
             "nproc": 4, "cpu": "test cpu", "compiler": "gcc 12.2",
             "build_type": "Release", "commit": commit}
    lines = ["stamp " + json.dumps(stamp)]
    lines += [f"cholesky {k} {v} s note" for k, v in values.items()]
    lines.append(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}))
    return "\n".join(lines) + "\n"


def draws(rng, pairs, spread=0.02, scale=None):
    """`pairs` parsed runs, each metric drawn uniformly within +-spread of
    BASE (times scale[metric] where given)."""
    scale = scale or {}
    out = []
    for _ in range(pairs):
        values = {k: v * scale.get(k, 1.0) * rng.uniform(1 - spread, 1 + spread)
                  for k, v in BASE.items()}
        out.append(perfbench_ab.parse_output(canned(values)))
    return out


def verdicts(parent, change):
    summary = perfbench_ab.summarize(parent, change, SPECS)
    return {k: m["verdict"] for k, m in summary["metrics"].items()}


class Verdicts(unittest.TestCase):
    def test_planted_run_s_gain_reads_as_gain(self):
        rng = random.Random(1)
        v = verdicts(draws(rng, 10), draws(rng, 10, scale={"run_s": 0.9}))
        self.assertEqual(v["run_s"], "gain")
        self.assertNotIn("regression", v.values())

    def test_parent_against_itself_is_neither_gain_nor_regression(self):
        for seed in range(20):
            rng = random.Random(seed)
            v = verdicts(draws(rng, 10), draws(rng, 10))
            for name, verdict in v.items():
                self.assertNotIn(verdict, ("gain", "regression"),
                                 f"seed {seed}, {name}")

    def test_planted_peak_rss_rise_reads_as_regression(self):
        rng = random.Random(2)
        v = verdicts(draws(rng, 10),
                     draws(rng, 10, scale={"peak_rss_mb": 1.3}))
        self.assertEqual(v["peak_rss_mb"], "regression")
        self.assertEqual(v["run_s"], "unchanged")

    def test_parent_iqr_wider_than_bound_reads_as_unresolved(self):
        # The same ten wide-spread runs in another order: equal medians, so
        # only the parent's spread can decide the verdict.
        parent = draws(random.Random(3), 10, spread=0.6)
        change = parent[::-1]
        summary = perfbench_ab.summarize(parent, change, SPECS)
        tail = summary["metrics"]["run_s_tail"]
        self.assertGreater(tail["parent_iqr_frac"], tail["bound"])
        self.assertEqual(tail["verdict"], "unresolved")

    def test_wide_parent_spread_is_unresolved_even_when_change_is_worse(self):
        # Parent IQR 0.5 of its median; every change run 30% worse.
        spread = [0.5 + i / 9 for i in range(10)]
        parent = [perfbench_ab.parse_output(canned(
            {k: v * f for k, v in BASE.items()})) for f in spread]
        change = [perfbench_ab.parse_output(canned(
            {k: v * f * 1.3 for k, v in BASE.items()})) for f in spread]
        run_s = perfbench_ab.summarize(parent, change, SPECS)["metrics"]["run_s"]
        self.assertAlmostEqual(run_s["parent_iqr_frac"], 0.5)
        self.assertAlmostEqual(run_s["ratio"], 1.3)
        self.assertEqual(run_s["verdict"], "unresolved")

    def test_wins_count_strictly_better_pairs_only(self):
        same = draws(random.Random(4), 10, spread=0.0)
        m = perfbench_ab.summarize(same, same, SPECS)["metrics"]["run_s"]
        self.assertEqual((m["wins"], m["verdict"]), (0, "unchanged"))


STAT = """cpu  {user} 0 1000 {idle} 50 0 20 {steal} 300 0
cpu0 100 0 10 2000 5 0 2 {steal} 0 0
intr 12345
"""


class Steal(unittest.TestCase):
    def test_parses_the_cpu_line_of_proc_stat(self):
        text = STAT.format(user=5000, idle=90000, steal=400)
        # user + nice + system + idle + iowait + irq + softirq + steal;
        # guest (300) is already inside user.
        self.assertEqual(perfbench_ab.cpu_jiffies(text),
                         (400, 5000 + 1000 + 90000 + 50 + 20 + 400))

    def test_share_is_steal_over_all_jiffies_between_samples(self):
        before = perfbench_ab.cpu_jiffies(
            STAT.format(user=5000, idle=90000, steal=400))
        after = perfbench_ab.cpu_jiffies(
            STAT.format(user=5600, idle=90300, steal=500))
        self.assertAlmostEqual(perfbench_ab.steal_share(before, after),
                               100 / (600 + 300 + 100))

    def test_missing_proc_stat_reads_as_none(self):
        with mock.patch.object(perfbench_ab, "PROC_STAT",
                               os.path.join(HERE, "no-such-stat")):
            self.assertIsNone(perfbench_ab.stat_sample())
        self.assertIsNone(perfbench_ab.steal_share(None, (1, 2)))
        self.assertEqual(perfbench_ab.median_steal([None, None]), "n/a")


STUB = """import os, sys
here = os.path.dirname(os.path.abspath(__file__))
with open(os.environ["AB_LOG"], "a") as f:
    f.write(os.path.basename(os.path.dirname(here)) + " "
            + " ".join(sys.argv[1:]) + "\\n")
with open(os.path.join(here, "canned.txt")) as f:
    sys.stdout.write(f.read())
"""


class EndToEnd(unittest.TestCase):
    def test_alternates_sides_and_writes_both_stamps(self):
        with tempfile.TemporaryDirectory() as tmp:
            for side, run_s in (("parent", 0.05), ("change", 0.04)):
                d = os.path.join(tmp, side, "perfbench")
                os.makedirs(d)
                with open(os.path.join(d, "run.py"), "w") as f:
                    f.write(STUB)
                with open(os.path.join(d, "canned.txt"), "w") as f:
                    f.write(canned(dict(BASE, run_s=run_s), commit=side))
            log = os.path.join(tmp, "log")
            out = os.path.join(tmp, "BENCH_perfbench.json")
            argv = ["--parent", os.path.join(tmp, "parent"),
                    "--change", os.path.join(tmp, "change"),
                    "--workload", "cholesky", "--pairs", "4", "--seed", "7",
                    "--out", out]
            printed = io.StringIO()
            # Each run reads the stat twice; every run here sees 10% steal.
            samples = [(10 * i, 100 * i) for i in range(16)]
            with mock.patch.dict(os.environ, {"AB_LOG": log}), \
                    mock.patch.object(perfbench_ab, "stat_sample",
                                      side_effect=samples), \
                    contextlib.redirect_stdout(printed), \
                    contextlib.redirect_stderr(io.StringIO()):
                self.assertEqual(perfbench_ab.main(argv), 0)

            with open(log) as f:
                calls = [l.split() for l in f]
            self.assertEqual([c[0] for c in calls],
                             ["parent", "change", "change", "parent"] * 2)
            for c in calls:
                self.assertEqual(c[1:9], ["--workload", "cholesky", "--seed",
                                          "7", "--seconds", str(SECONDS),
                                          "--trace", "0"])
            self.assertIn("| cholesky | run_s |", printed.getvalue())
            self.assertIn("cholesky: median steal share per run, parent "
                          "0.100, change 0.100", printed.getvalue())

            with open(out) as f:
                doc = json.load(f)
            (res,) = doc["results"]
            self.assertEqual((res["workload"], res["seed"], res["pairs"]),
                             ("cholesky", 7, 4))
            self.assertEqual(res["stamps"]["parent"]["commit"], "parent")
            self.assertEqual(res["stamps"]["change"]["commit"], "change")
            self.assertEqual(res["metrics"]["run_s"]["verdict"], "gain")
            self.assertEqual(res["rounds"]["change"],
                             {"failed": 0, "attempted": 800})
            self.assertEqual(res["steal"], {"parent": [0.1] * 4,
                                            "change": [0.1] * 4})


if __name__ == "__main__":
    unittest.main()
