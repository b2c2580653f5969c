#!/usr/bin/env python3
"""A/B the repository benchmark between two checkouts in alternating pairs.

    perfbench_ab.py --parent DIR --change DIR --workload W --pairs N \
        --seed S [--out BENCH_perfbench.json]

Runs ``python3 perfbench/run.py`` in each checkout (each builds into its
own ``.bench_build/``) for every pair, alternating which side goes first,
at ``BENCHMARK.json``'s ``run_seconds``. ``--workload`` may repeat; without
it every workload of ``BENCHMARK.json`` runs. The metric names, their
better direction and their bounds come from its ``end_to_end`` list (this
checkout's ``BENCHMARK.json``, next to ``tools/``).

For each workload and end-to-end metric it prints both sides' median
[q1, q3], the change/parent ratio, the pairs the change won (ties count
for neither), failed/attempted rounds per side, and one verdict:

- ``gain``: the change wins at least 9/10 of the pairs, the medians differ
  by more than the parent's IQR in the better direction, and no larger
  share of the change's rounds failed;
- ``unresolved``: the parent's IQR exceeds the bound (relative to its
  median), unless every change run beats every parent run. Such a spread
  decides nothing, so the set must be run again; it never counts as a pass;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unchanged``: none of the above.

The verdicts are checked in that order. Around each run the tool reads the
``cpu`` line of ``/proc/stat`` and records the run's steal share (steal
jiffies over all jiffies, host-wide); under the table it prints each side's
median, since a noisy neighbour shows there before it shows as a verdict.

``--out PATH`` also writes the results as JSON, with both sides' perfbench
``stamp`` lines (nproc, CPU, compiler, build type, commit) and per-run steal
shares (``null`` where ``/proc/stat`` is missing). An existing file keeps
its entries for other (workload, seed) pairs, so one file can collect a
change's whole trajectory. The exit status is 1 when any metric reads as a
regression or as unresolved, or any round failed, else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROC_STAT = "/proc/stat"


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
    Returns a dict with both sides' quartiles, the ratio, the wins and the
    verdict. `failed_share` is (parent, change) failed/attempted rounds."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    pairs = len(parent)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
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
        v = "regression"
    else:
        v = "unchanged"
    return {
        "parent": {"median": pmed, "q1": pq1, "q3": pq3, "runs": parent},
        "change": {"median": cmed, "q1": cq1, "q3": cq3, "runs": change},
        "ratio": cmed / pmed if pmed else None,
        "wins": wins,
        "pairs": pairs,
        "parent_iqr_frac": iqr / abs(pmed) if pmed else None,
        "verdict": v,
    }


def summarize(parent_runs, change_runs, specs):
    """Per-metric verdicts and per-side round counts for one workload.
    parent_runs[i] and change_runs[i] are parse_output() results of pair i."""
    rounds = {}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        rounds[side] = {"failed": sum(r["failed"] for r in runs),
                        "attempted": sum(r["attempted"] for r in runs)}
    share = tuple(r["failed"] / r["attempted"] if r["attempted"] else 1.0
                  for r in (rounds["parent"], rounds["change"]))
    metrics = {}
    for spec in specs:
        name = spec["name"]
        p = [r["metrics"][name] for r in parent_runs]
        c = [r["metrics"][name] for r in change_runs]
        metrics[name] = verdict(p, c, spec["better"], float(spec["bound"]),
                                share)
        metrics[name]["unit"] = spec.get("unit", "")
        metrics[name]["bound"] = float(spec["bound"])
    return {"rounds": rounds, "metrics": metrics}


def fmt(x):
    return f"{x:.4g}"


def table(workload, summary):
    """Markdown rows of one workload's summary."""
    rows = []
    for name, m in summary["metrics"].items():
        p, c = m["parent"], m["change"]
        ratio = f"{m['ratio']:.3f}" if m["ratio"] is not None else "n/a"
        rows.append(
            f"| {workload} | {name} | {fmt(p['median'])} [{fmt(p['q1'])}, "
            f"{fmt(p['q3'])}] | {fmt(c['median'])} [{fmt(c['q1'])}, "
            f"{fmt(c['q3'])}] | {ratio} | {m['wins']}/{m['pairs']} | "
            f"{m['verdict']} |")
    r = summary["rounds"]
    rows.append(f"| {workload} | failed/attempted rounds | "
                f"{r['parent']['failed']}/{r['parent']['attempted']} | "
                f"{r['change']['failed']}/{r['change']['attempted']} | | | |")
    return rows


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


def write_out(path, results):
    """Merges this invocation's results into the JSON file at `path`."""
    doc = {"benchmark": "perfbench", "results": []}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    fresh = {(r["workload"], r["seed"]) for r in results}
    doc["results"] = [r for r in doc.get("results", [])
                      if (r["workload"], r["seed"]) not in fresh] + results
    doc["results"].sort(key=lambda r: (r["workload"], r["seed"]))
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent's checkout")
    ap.add_argument("--change", required=True, help="the change's checkout")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", help="write the results as JSON to this file")
    args = ap.parse_args(argv)

    seconds, known, specs = load_benchmark(ROOT / "BENCHMARK.json")
    workloads = args.workload or known
    for w in workloads:
        if w not in known:
            ap.error(f"unknown workload {w} (BENCHMARK.json has "
                     f"{', '.join(known)})")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"parent": args.parent, "change": args.change}

    results, rows, notes, bad = [], [], [], False
    for w in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                r = run_side(sides[side], w, args.seed, seconds)
                runs[side].append(r)
                print(f"{w} pair {i + 1}/{args.pairs} {side}: "
                      + ", ".join(f"{s['name']}={fmt(r['metrics'][s['name']])}"
                                  for s in specs)
                      + f", failed {r['failed']}/{r['attempted']}",
                      file=sys.stderr, flush=True)
        summary = summarize(runs["parent"], runs["change"], specs)
        rows += table(w, summary)
        steal = {s: [r["steal"] for r in runs[s]] for s in sides}
        notes.append(f"{w}: median steal share per run, parent "
                     f"{median_steal(steal['parent'])}, change "
                     f"{median_steal(steal['change'])}")
        bad = bad or any(m["verdict"] in ("regression", "unresolved")
                         for m in summary["metrics"].values())
        bad = bad or any(summary["rounds"][s]["failed"] for s in sides)
        results.append({
            "workload": w, "seed": args.seed, "pairs": args.pairs,
            "run_seconds": seconds,
            "stamps": {s: runs[s][0]["stamp"] for s in sides},
            "steal": steal,
            **summary,
        })

    print(f"perfbench A/B, seed {args.seed}, {args.pairs} alternating pairs, "
          f"{seconds:g} s per run; parent {args.parent}, change {args.change}")
    print()
    print("| workload | metric | parent median [q1, q3] | change median "
          "[q1, q3] | change/parent | change better | verdict |")
    print("|---|---|---|---|---|---|---|")
    print("\n".join(rows))
    print()
    print("\n".join(notes))
    if args.out:
        write_out(args.out, results)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
