#!/usr/bin/env python3
"""A/B two checkouts in alternating pairs and decide with one rule.

    perfbench_ab.py --parent DIR --change DIR --workload W --pairs N \
        --seed S [--out BENCH_perfbench.json]
    perfbench_ab.py --parent DIR --change DIR --bench NAME [--bench NAME ...] \
        --pairs N [--out BENCH_gate.json]

Without ``--bench`` it runs the repository benchmark: ``python3
perfbench/run.py`` in each checkout (each builds into its own
``.bench_build/``) at ``BENCHMARK.json``'s ``run_seconds``. ``--workload``
may repeat; without it every workload of ``BENCHMARK.json`` runs. The metric
names, their better direction and their bounds come from its ``end_to_end``
list (this checkout's ``BENCHMARK.json``, next to ``tools/``).

With ``--bench NAME`` (repeatable; not with ``--workload`` or ``--seed``) it
runs the Google Benchmark binary ``DIR/build/bench/NAME`` once per side and
pair, with one repetition; both checkouts must already be built. Each
benchmark gives one row: its ``tasks_per_s`` counter (higher is better), else
its ``real_time`` (lower is better). One whose ``p99_ns`` counter is above 0
also gives a ``NAME::p99_ns`` row (lower is better). Every row's bound is
GBENCH_BOUND. A row that only one side reports reads ``new`` or ``removed``
and never fails; a binary missing on one side reports no rows. A run that
reports an ``error_occurred`` benchmark counts as a failed round.

Each pair alternates which side goes first, per workload or binary, so a
noise burst falls inside one pair. For each workload or binary and metric it
prints both sides' median [q1, q3], the change/parent ratio, the pairs the
change won and lost (ties count for neither), failed/attempted rounds per
side, and one verdict:

- ``gain``: the change wins at least 9/10 of the pairs, the medians differ
  by more than the parent's IQR in the better direction, and no larger
  share of the change's rounds failed;
- ``unresolved``: the parent's IQR exceeds the bound (relative to its
  median), unless every change run beats every parent run; or the change's
  median is worse by more than the bound without the evidence a regression
  needs. Such a set decides nothing and must be run again;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound, the change loses at least 9/10 of the pairs, and
  the medians differ by more than the parent's IQR (a gain's evidence,
  mirrored);
- ``unchanged``: none of the above.

The verdicts are checked in that order. Around each run the tool reads the
``cpu`` line of ``/proc/stat`` and records the run's steal share (steal
jiffies over all jiffies, host-wide); under the table it prints each side's
median, since a noisy neighbour shows there before it shows as a verdict.

``--out PATH`` also writes the results as JSON, with per-run steal shares
(``null`` where ``/proc/stat`` is missing) and, for perfbench, both sides'
``stamp`` lines (nproc, CPU, compiler, build type, commit). An existing file
keeps its entries for other workloads, seeds or binaries, so one file can
collect a change's whole trajectory. When ``GITHUB_STEP_SUMMARY`` names a
file, the table and the unresolved rows with their parent IQR are appended
to it.

Exit status: 1 when any metric reads ``regression`` or any round failed,
else 3 when any reads ``unresolved``, else 0 (2 is a usage error).
"""

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROC_STAT = "/proc/stat"
GBENCH_BOUND = 0.20  # every Google Benchmark row's bound


def load_benchmark(path):
    """(run_seconds, workload names, end-to-end metric specs) of a
    BENCHMARK.json; each spec has name, better ("lower"/"higher") and bound."""
    with open(path) as f:
        spec = json.load(f)
    return (float(spec["run_seconds"]),
            [w["name"] for w in spec["workloads"]],
            spec["end_to_end"])


def parse_output(text):
    """One perfbench run's stdout -> {stamp, attempted, failed, metrics:
    {name: value}}. The stamp is its own line; the result object
    is the last line."""
    stamp = None
    lines = [l for l in text.splitlines() if l.strip()]
    for line in lines:
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
            break
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    return {
        "stamp": stamp,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: float(v["value"]) for k, v in result["metrics"].items()},
    }


def parse_gbench(text):
    """One Google Benchmark JSON output of a one-repetition run ->
    {attempted: 1, failed, metrics: {row: value}, better: {row:
    "higher"/"lower"}}. Aggregate entries are ignored."""
    metrics, direction, failed = {}, {}, 0
    for b in json.loads(text).get("benchmarks", []):
        name = b.get("run_name") or b.get("name", "")
        if not name or b.get("run_type") == "aggregate":
            continue
        failed = failed or int(bool(b.get("error_occurred")))
        if "tasks_per_s" in b:
            metrics[name], direction[name] = float(b["tasks_per_s"]), "higher"
        else:
            metrics[name] = float(b.get("real_time", 0.0))
            direction[name] = "lower"
        if float(b.get("p99_ns", 0.0)) > 0:
            metrics[f"{name}::p99_ns"] = float(b["p99_ns"])
            direction[f"{name}::p99_ns"] = "lower"
    return {"attempted": 1, "failed": failed, "metrics": metrics,
            "better": direction}


def quartiles(values):
    """(q1, median, q3), linearly interpolated between order statistics."""
    v = sorted(values)
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, med, q3


def better(a, b, direction):
    """True when value a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound, failed_share):
    """Compares paired runs (parent[i] with change[i]) of one metric.
    Returns a dict with both sides' quartiles, the ratio, the wins and
    losses and the verdict. `failed_share` is (parent, change) failed/
    attempted rounds."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    pairs = len(parent)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    losses = sum(better(p, c, direction) for p, c in zip(parent, change))
    iqr = pq3 - pq1
    # Worsening of the change's median relative to the parent's, > 0 = worse.
    worse = ((cmed - pmed) if direction == "lower" else (pmed - cmed)) / pmed \
        if pmed else 0.0
    every_run_better = all(better(c, p, direction)
                           for c in change for p in parent)
    if (10 * wins >= 9 * pairs and better(cmed, pmed, direction)
            and abs(cmed - pmed) > iqr and failed_share[1] <= failed_share[0]):
        v = "gain"
    elif pmed and iqr / abs(pmed) > bound and not every_run_better:
        v = "unresolved"
    elif worse > bound:
        v = ("regression" if 10 * losses >= 9 * pairs
             and abs(cmed - pmed) > iqr else "unresolved")
    else:
        v = "unchanged"
    return {
        "parent": {"median": pmed, "q1": pq1, "q3": pq3, "runs": parent},
        "change": {"median": cmed, "q1": cq1, "q3": cq3, "runs": change},
        "ratio": cmed / pmed if pmed else None,
        "wins": wins,
        "losses": losses,
        "pairs": pairs,
        "parent_iqr_frac": iqr / abs(pmed) if pmed else None,
        "verdict": v,
    }


def one_sided(name, parent_runs, change_runs):
    """The entry of a metric that only one side reports: `new` with the
    change's quartiles, or `removed` with the parent's."""
    side = ("change" if any(name in r["metrics"] for r in change_runs)
            else "parent")
    runs = [r["metrics"][name]
            for r in (change_runs if side == "change" else parent_runs)
            if name in r["metrics"]]
    q1, med, q3 = quartiles(runs)
    return {side: {"median": med, "q1": q1, "q3": q3, "runs": runs},
            "verdict": "new" if side == "change" else "removed"}


def summarize(parent_runs, change_runs, specs):
    """Per-metric verdicts and per-side round counts for one workload or
    binary. parent_runs[i] and change_runs[i] are the parsed runs of pair i;
    a metric is compared over the pairs whose runs both report it."""
    rounds = {}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        rounds[side] = {"failed": sum(r["failed"] for r in runs),
                        "attempted": sum(r["attempted"] for r in runs)}
    share = tuple(r["failed"] / r["attempted"] if r["attempted"] else 1.0
                  for r in (rounds["parent"], rounds["change"]))
    metrics = {}
    for spec in specs:
        name = spec["name"]
        both = [(p["metrics"][name], c["metrics"][name])
                for p, c in zip(parent_runs, change_runs)
                if name in p["metrics"] and name in c["metrics"]]
        if not both:
            metrics[name] = one_sided(name, parent_runs, change_runs)
            continue
        metrics[name] = verdict([p for p, _ in both], [c for _, c in both],
                                spec["better"], float(spec["bound"]), share)
        metrics[name]["unit"] = spec.get("unit", "")
        metrics[name]["bound"] = float(spec["bound"])
    return {"rounds": rounds, "metrics": metrics}


def gbench_specs(runs):
    """One spec per row any of `runs` reports, in first-seen order."""
    direction = {}
    for r in runs:
        for row, d in r["better"].items():
            direction.setdefault(row, d)
    return [{"name": row, "better": d, "bound": GBENCH_BOUND}
            for row, d in direction.items()]


def fmt(x):
    return f"{x:.4g}"


def quart(side):
    """`median [q1, q3]` of one side's entry, or a dash when it is absent."""
    if side is None:
        return "—"
    return f"{fmt(side['median'])} [{fmt(side['q1'])}, {fmt(side['q3'])}]"


def table(unit, summary):
    """Markdown rows of one workload's or binary's summary."""
    rows = []
    for name, m in summary["metrics"].items():
        ratio = f"{m['ratio']:.3f}" if m.get("ratio") is not None else "n/a"
        pairs = (f"{m['wins']}/{m['losses']}/{m['pairs']}" if "pairs" in m
                 else "")
        rows.append(f"| {unit} | {name} | {quart(m.get('parent'))} | "
                    f"{quart(m.get('change'))} | {ratio} | {pairs} | "
                    f"{m['verdict']} |")
    r = summary["rounds"]
    rows.append(f"| {unit} | failed/attempted rounds | "
                f"{r['parent']['failed']}/{r['parent']['attempted']} | "
                f"{r['change']['failed']}/{r['change']['attempted']} | | | |")
    return rows


def exit_status(results):
    """1 on a regression or a failed round, else 3 on an unresolved
    metric, else 0."""
    verdicts = {m["verdict"] for r in results for m in r["metrics"].values()}
    if "regression" in verdicts or any(
            r["rounds"][s]["failed"] for r in results
            for s in ("parent", "change")):
        return 1
    return 3 if "unresolved" in verdicts else 0


def cpu_jiffies(text):
    """(steal, total) jiffies of the `cpu` line of /proc/stat text. The total
    sums user through steal; guest time is already inside user and nice."""
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            v = [int(x) for x in fields[1:9]]
            v += [0] * (8 - len(v))
            return v[7], sum(v)
    raise ValueError("no cpu line in /proc/stat")


def stat_sample():
    """cpu_jiffies() of PROC_STAT now, or None where it cannot be read."""
    try:
        with open(PROC_STAT) as f:
            return cpu_jiffies(f.read())
    except OSError:
        return None


def steal_share(before, after):
    """The steal share of the jiffies between two samples, or None."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def median_steal(shares):
    known = [s for s in shares if s is not None]
    return f"{statistics.median(known):.3f}" if known else "n/a"


def run_side(checkout, workload, seed, seconds):
    """Runs perfbench once in `checkout` and returns parse_output()'s dict,
    plus the run's steal share under "steal"."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each side builds in its own checkout
    before = stat_sample()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    after = stat_sample()
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {checkout} "
                           f"(exit {proc.returncode})")
    return dict(parse_output(proc.stdout), steal=steal_share(before, after))


def bench_path(checkout, name):
    return os.path.abspath(os.path.join(checkout, "build", "bench", name))


def run_bench(checkout, name):
    """Runs `checkout`'s build/bench/NAME once, with one repetition, in a
    scratch directory (benches write their artifacts into the working
    directory), and returns parse_gbench()'s dict plus the run's steal share
    under "steal"."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        before = stat_sample()
        proc = subprocess.run(
            [bench_path(checkout, name), "--benchmark_repetitions=1",
             f"--benchmark_out={out}", "--benchmark_out_format=json"],
            cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        after = stat_sample()
        if proc.returncode != 0:
            raise RuntimeError(f"{bench_path(checkout, name)} failed "
                               f"(exit {proc.returncode}):\n{proc.stderr}")
        with open(out) as f:
            return dict(parse_gbench(f.read()),
                        steal=steal_share(before, after))


def result_key(r):
    """What an --out entry is merged and sorted on."""
    return (r.get("bench", ""), r.get("workload", ""), r.get("seed", 0))


def write_out(path, results, benchmark):
    """Merges this invocation's results into the JSON file at `path`."""
    doc = {"benchmark": benchmark, "results": []}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    fresh = {result_key(r) for r in results}
    doc["results"] = [r for r in doc.get("results", [])
                      if result_key(r) not in fresh] + results
    doc["results"].sort(key=result_key)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent's checkout")
    ap.add_argument("--change", required=True, help="the change's checkout")
    ap.add_argument("--workload", action="append",
                    help="perfbench workload to run (repeatable; default: all)")
    ap.add_argument("--bench", action="append",
                    help="Google Benchmark binary under DIR/build/bench to "
                         "run instead of perfbench (repeatable)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, help="perfbench seed (default 1)")
    ap.add_argument("--out", help="write the results as JSON to this file")
    args = ap.parse_args(argv)

    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"parent": args.parent, "change": args.change}
    if args.bench:
        if args.workload or args.seed is not None:
            ap.error("--bench cannot be combined with --workload or --seed")
        for b in args.bench:
            if not any(os.path.isfile(bench_path(d, b))
                       for d in sides.values()):
                ap.error(f"neither checkout has build/bench/{b}")
        units, benchmark = args.bench, "google-benchmark"
        title = (f"Google Benchmark A/B, {args.pairs} alternating pairs, one "
                 f"repetition per run, bound {GBENCH_BOUND:g}")
        run = run_bench
        shown = None  # a run's progress line lists every row it reports
    else:
        seed = 1 if args.seed is None else args.seed
        seconds, known, specs = load_benchmark(ROOT / "BENCHMARK.json")
        units, benchmark = args.workload or known, "perfbench"
        for w in units:
            if w not in known:
                ap.error(f"unknown workload {w} (BENCHMARK.json has "
                         f"{', '.join(known)})")
        title = (f"perfbench A/B, seed {seed}, {args.pairs} alternating "
                 f"pairs, {seconds:g} s per run")
        run = functools.partial(run_side, seed=seed, seconds=seconds)
        shown = [s["name"] for s in specs]

    results, rows, notes = [], [], []
    for u in units:
        # A binary missing on one side runs on the other only; its rows
        # then read new or removed.
        present = [s for s in sides
                   if not args.bench or os.path.isfile(bench_path(sides[s], u))]
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in (s for s in order if s in present):
                r = run(sides[side], u)
                runs[side].append(r)
                print(f"{u} pair {i + 1}/{args.pairs} {side}: "
                      + ", ".join(f"{k}={fmt(r['metrics'][k])}"
                                  for k in (shown or r["metrics"]))
                      + f", failed {r['failed']}/{r['attempted']}",
                      file=sys.stderr, flush=True)
        if args.bench:
            specs = gbench_specs(runs["parent"] + runs["change"])
        summary = summarize(runs["parent"], runs["change"], specs)
        rows += table(u, summary)
        steal = {s: [r["steal"] for r in runs[s]] for s in sides}
        notes.append(f"{u}: median steal share per run, parent "
                     f"{median_steal(steal['parent'])}, change "
                     f"{median_steal(steal['change'])}")
        entry = ({"bench": u} if args.bench else
                 {"workload": u, "seed": seed, "run_seconds": seconds,
                  "stamps": {s: runs[s][0]["stamp"] for s in sides}})
        results.append({**entry, "pairs": args.pairs, "steal": steal,
                        **summary})

    # An unresolved metric has a non-zero parent median (see verdict()).
    unresolved = [f"- {r.get('bench') or r['workload']} {name}: parent IQR "
                  f"{m['parent_iqr_frac']:.3f} of its median, change/parent "
                  f"{m['ratio']:.3f}"
                  for r in results for name, m in r["metrics"].items()
                  if m["verdict"] == "unresolved"]
    report = [f"{title}; parent {args.parent}, change {args.change}", "",
              f"| {'bench' if args.bench else 'workload'} | metric | "
              "parent median [q1, q3] | change median "
              "[q1, q3] | change/parent | change won/lost/pairs | verdict |",
              "|---|---|---|---|---|---|---|", *rows, "", *notes]
    if unresolved:
        report += ["", "Unresolved (run the set again):", *unresolved]
    text = "\n".join(report) + "\n"
    print(text, end="")
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as f:
            f.write(f"## {text}")
    if args.out:
        write_out(args.out, results, benchmark)
    return exit_status(results)


if __name__ == "__main__":
    sys.exit(main())
