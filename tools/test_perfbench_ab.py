#!/usr/bin/env python3
"""Unit tests for perfbench_ab.py (run from ctest as `perfbench_ab_unit`).

Every case runs on canned perfbench or Google Benchmark output, so nothing
is built or timed. perfbench: a planted 10% `run_s` gain reads as a gain,
the parent against itself reads as neither a gain nor a regression, a
planted 30% `peak_rss_mb` rise over a tight parent reads as a regression,
and a metric whose parent IQR exceeds its bound reads as unresolved, also
when the change is 30% worse. The steal share is parsed from canned
/proc/stat text. Google Benchmark: canned JSON parses to the gated rows, a
planted 30% slowdown exits 1, a 30% worse median without 9 of 10 worse
pairs exits 3, and 42 rows drawn at the spreads measured on the gated
binaries pass the parent against itself in at least 19 of 20 seeds. Two
cases drive the whole tool over stub checkouts, one per mode, and check the
alternation, the arguments, the steal shares, the --out file and the step
summary.
"""

import contextlib
import io
import json
import math
import os
import random
import stat
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



def gbench_json(rows):
    """Google Benchmark JSON output: one iteration entry per (name, fields)."""
    return json.dumps({"context": {"num_cpus": 4}, "benchmarks": [
        dict({"name": name, "run_name": name, "run_type": "iteration",
              "repetitions": 1, "iterations": 10, "time_unit": "ns"}, **fields)
        for name, fields in rows]})


def one_row_runs(values, field="real_time"):
    """Parsed one-row runs of `BM_Row`: values[i] is its `field` in run i."""
    return [perfbench_ab.parse_gbench(gbench_json([("BM_Row", {field: v})]))
            for v in values]


def gate(parent, change):
    """(summary, exit status) of one binary's paired parsed runs."""
    specs = perfbench_ab.gbench_specs(parent + change)
    summary = perfbench_ab.summarize(parent, change, specs)
    return summary, perfbench_ab.exit_status([summary])


class GbenchRows(unittest.TestCase):
    def test_canned_json_parses_to_the_gated_rows(self):
        text = gbench_json([
            ("BM_Spawn/4", {"real_time": 90.0, "tasks_per_s": 2.0e6}),
            ("BM_Overhead/Independent", {"real_time": 50.0}),
            ("OpenLoop/4", {"real_time": 1e6, "tasks_per_s": 5.0e4,
                            "p99_ns": 3.0e5}),
            ("ClosedLoop/4", {"real_time": 1e6, "tasks_per_s": 6.0e4,
                              "p99_ns": 0.0}),
        ])
        doc = json.loads(text)
        # An aggregate entry (a --benchmark_repetitions>1 run) is not a row.
        doc["benchmarks"].append({"name": "BM_Spawn/4_median",
                                  "run_name": "BM_Spawn/4",
                                  "run_type": "aggregate",
                                  "aggregate_name": "median",
                                  "tasks_per_s": 1.0})
        r = perfbench_ab.parse_gbench(json.dumps(doc))
        self.assertEqual(r["metrics"], {
            "BM_Spawn/4": 2.0e6,  # tasks_per_s before real_time
            "BM_Overhead/Independent": 50.0,
            "OpenLoop/4": 5.0e4,
            "OpenLoop/4::p99_ns": 3.0e5,
            "ClosedLoop/4": 6.0e4,  # a zero p99 gives no row
        })
        self.assertEqual(r["better"], {
            "BM_Spawn/4": "higher", "BM_Overhead/Independent": "lower",
            "OpenLoop/4": "higher", "OpenLoop/4::p99_ns": "lower",
            "ClosedLoop/4": "higher"})
        self.assertEqual((r["attempted"], r["failed"]), (1, 0))

    def test_an_error_occurred_entry_fails_the_round(self):
        r = perfbench_ab.parse_gbench(gbench_json([
            ("BM_Row", {"real_time": 5.0, "error_occurred": True,
                        "error_message": "ranks diverged"})]))
        self.assertEqual(r["failed"], 1)
        summary, status = gate(one_row_runs([5.0]), [r])
        self.assertEqual(summary["metrics"]["BM_Row"]["verdict"], "unchanged")
        self.assertEqual(status, 1)


class GbenchVerdicts(unittest.TestCase):
    def test_planted_30_percent_slowdown_reads_regression_and_exits_1(self):
        rng = random.Random(5)
        parent = one_row_runs([100 * rng.uniform(0.95, 1.05)
                               for _ in range(10)])
        change = one_row_runs([130 * rng.uniform(0.95, 1.05)
                               for _ in range(10)])
        summary, status = gate(parent, change)
        m = summary["metrics"]["BM_Row"]
        self.assertLessEqual(m["parent_iqr_frac"], 0.05)
        self.assertEqual((m["verdict"], m["bound"]), ("regression", 0.20))
        self.assertEqual(status, 1)

    def test_worse_median_in_only_7_of_10_pairs_is_unresolved_and_exits_3(self):
        parent = one_row_runs([100.0] * 10)
        change = one_row_runs([130.0] * 7 + [90.0] * 3)
        summary, status = gate(parent, change)
        m = summary["metrics"]["BM_Row"]
        self.assertAlmostEqual(m["ratio"], 1.3)
        self.assertEqual((m["losses"], m["verdict"]), (7, "unresolved"))
        self.assertEqual(status, 3)

    @staticmethod
    def measured_rows(rng):
        """42 row shapes at the spreads measured on the six gated binaries
        (one repetition per run, 4-vCPU VM): (field, relative IQR, outlier
        draw or None). 21 rows have an IQR up to 0.10, 12 between 0.10 and
        0.20 and 9 above 0.20: five throughput rows whose runs sometimes
        collapse to 0.2-0.4x of their median, and four p99 rows with
        occasional runs hundreds of times their median."""
        rows = [("tasks_per_s", rng.uniform(0.02, 0.10), None)
                for _ in range(21)]
        rows += [("tasks_per_s", rng.uniform(0.10, 0.20), None)
                 for _ in range(12)]
        rows += [("tasks_per_s", rng.uniform(0.20, 0.40),
                  lambda r: r.uniform(0.2, 0.4)) for _ in range(5)]
        rows += [("p99_ns", rng.uniform(0.20, 0.60),
                  lambda r: r.uniform(2.0, 700.0)) for _ in range(4)]
        return rows

    @staticmethod
    def draw_runs(rng, rows, pairs=10):
        """`pairs` parsed runs of one binary reporting every row of `rows`:
        each value log-normal around 1000 at the row's IQR, one in ten
        replaced by the row's outlier draw. A p99 row rides on the entry of
        a throughput row, as the service benches report it."""
        runs = []
        for _ in range(pairs):
            entries, tails = [], []
            for field, iqr, outlier in rows:
                v = 1000 * math.exp(rng.gauss(0, iqr / 1.349))
                if outlier and rng.random() < 0.1:
                    v = 1000 * outlier(rng)
                if field == "p99_ns":
                    tails.append(v)
                else:
                    entries.append((f"BM_R{len(entries)}", {field: v}))
            for (_, fields), v in zip(entries, tails):
                fields["p99_ns"] = v
            runs.append(perfbench_ab.parse_gbench(gbench_json(entries)))
        return runs

    def test_parent_against_itself_passes_in_19_of_20_seeds(self):
        statuses = []
        for seed in range(20):
            rng = random.Random(seed)
            rows = self.measured_rows(rng)
            summary, status = gate(self.draw_runs(rng, rows),
                                   self.draw_runs(rng, rows))
            self.assertEqual(len(summary["metrics"]), 42)
            statuses.append(status)
        # Exit 3 (an unresolved row) is a pass: CI fails on exit 1 only.
        self.assertGreaterEqual(sum(s != 1 for s in statuses), 19, statuses)

    def test_quiet_rows_against_themselves_exit_0_in_19_of_20_seeds(self):
        statuses = []
        for seed in range(20):
            rng = random.Random(seed)
            rows = self.measured_rows(rng)[:21]
            _, status = gate(self.draw_runs(rng, rows),
                             self.draw_runs(rng, rows))
            statuses.append(status)
        self.assertGreaterEqual(statuses.count(0), 19, statuses)


GB_STUB = """#!{python}
import json, os, sys
here = os.path.dirname(os.path.abspath(__file__))
name = os.path.basename(sys.argv[0])
side = os.path.basename(os.path.dirname(os.path.dirname(here)))
with open(os.environ["AB_LOG"], "a") as f:
    f.write(" ".join([side, name, os.getcwd()] + sys.argv[1:]) + "\\n")
count = os.path.join(here, name + ".count")
i = int(open(count).read()) if os.path.exists(count) else 0
with open(count, "w") as f:
    f.write(str(i + 1))
with open(os.path.join(here, name + ".runs.json")) as f:
    runs = json.load(f)
out = [a for a in sys.argv[1:] if a.startswith("--benchmark_out=")]
with open(out[0].split("=", 1)[1], "w") as f:
    f.write(runs[i])
"""


class GbenchEndToEnd(unittest.TestCase):
    def stub(self, tmp, side, name, runs):
        """A stub build/bench/NAME in checkout tmp/side that logs its side,
        name, working directory and arguments, and writes runs[i] as its
        JSON output on its i-th call."""
        d = os.path.join(tmp, side, "build", "bench")
        os.makedirs(d, exist_ok=True)
        exe = os.path.join(d, name)
        with open(exe, "w") as f:
            f.write(GB_STUB.replace("{python}", sys.executable))
        os.chmod(exe, os.stat(exe).st_mode | stat.S_IXUSR)
        with open(exe + ".runs.json", "w") as f:
            json.dump(runs, f)

    def test_alternates_per_binary_and_writes_out_and_summary(self):
        with tempfile.TemporaryDirectory() as tmp:
            # alpha: BM_A is 30% slower in 3 of 4 pairs (unresolved);
            # BM_Gone is the parent's only. beta exists on the change only.
            self.stub(tmp, "parent", "alpha", [gbench_json(
                [("BM_A", {"real_time": 100.0}),
                 ("BM_Gone", {"real_time": 7.0})])] * 4)
            self.stub(tmp, "change", "alpha", [
                gbench_json([("BM_A", {"real_time": v})])
                for v in (130.0, 130.0, 90.0, 130.0)])
            self.stub(tmp, "change", "beta", [gbench_json(
                [("BM_B", {"tasks_per_s": 5.0e4, "p99_ns": 2.0e5})])] * 4)
            log = os.path.join(tmp, "log")
            out = os.path.join(tmp, "BENCH_gate.json")
            step_summary = os.path.join(tmp, "summary.md")
            argv = ["--parent", os.path.join(tmp, "parent"),
                    "--change", os.path.join(tmp, "change"),
                    "--bench", "alpha", "--bench", "beta", "--pairs", "4",
                    "--out", out]
            printed = io.StringIO()
            samples = [(10 * i, 100 * i) for i in range(24)]
            with mock.patch.dict(os.environ, {"AB_LOG": log,
                                              "GITHUB_STEP_SUMMARY":
                                              step_summary}), \
                    mock.patch.object(perfbench_ab, "stat_sample",
                                      side_effect=samples), \
                    contextlib.redirect_stdout(printed), \
                    contextlib.redirect_stderr(io.StringIO()):
                self.assertEqual(perfbench_ab.main(argv), 3)

            with open(log) as f:
                calls = [l.split() for l in f]
            self.assertEqual([c[:2] for c in calls],
                             [["parent", "alpha"], ["change", "alpha"],
                              ["change", "alpha"], ["parent", "alpha"]] * 2
                             + [["change", "beta"]] * 4)
            for side, name, cwd, *args in calls:
                self.assertNotEqual(os.path.realpath(cwd),
                                    os.path.realpath(os.getcwd()))
                self.assertEqual(args, [
                    "--benchmark_repetitions=1",
                    f"--benchmark_out={os.path.join(cwd, 'out.json')}",
                    "--benchmark_out_format=json"])
            text = printed.getvalue()
            self.assertIn("| alpha | BM_A |", text)
            self.assertIn("alpha: median steal share per run, parent "
                          "0.100, change 0.100", text)

            with open(out) as f:
                doc = json.load(f)
            self.assertEqual(doc["benchmark"], "google-benchmark")
            alpha, beta = doc["results"]
            self.assertEqual((alpha["bench"], alpha["pairs"]), ("alpha", 4))
            verdicts = {k: m["verdict"] for k, m in alpha["metrics"].items()}
            self.assertEqual(verdicts, {"BM_A": "unresolved",
                                        "BM_Gone": "removed"})
            self.assertEqual(alpha["metrics"]["BM_A"]["losses"], 3)
            self.assertEqual(alpha["rounds"]["parent"],
                             {"failed": 0, "attempted": 4})
            self.assertEqual(alpha["steal"], {"parent": [0.1] * 4,
                                              "change": [0.1] * 4})
            self.assertEqual({k: m["verdict"]
                              for k, m in beta["metrics"].items()},
                             {"BM_B": "new", "BM_B::p99_ns": "new"})
            self.assertEqual(beta["steal"]["parent"], [])

            with open(step_summary) as f:
                md = f.read()
            self.assertIn("| alpha | BM_A |", md)
            self.assertIn("- alpha BM_A: parent IQR 0.000 of its median",
                          md)

    def test_bench_does_not_combine_with_workload_or_seed(self):
        for extra in (["--workload", "cholesky"], ["--seed", "2"]):
            with contextlib.redirect_stderr(io.StringIO()), \
                    self.assertRaises(SystemExit) as cm:
                perfbench_ab.main(["--parent", HERE, "--change", HERE,
                                   "--bench", "task_overhead", *extra])
            self.assertEqual(cm.exception.code, 2)


if __name__ == "__main__":
    unittest.main()
