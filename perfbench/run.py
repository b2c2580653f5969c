#!/usr/bin/env python3
"""Build the repository benchmark from this checkout's sources, then run it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and its output to stderr, so the last line
of stdout is the benchmark's result object. Any further flags are passed to
the perfbench executable (see perfbench/README.md).
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(out):
    """Configure (once) and build the perfbench target in `out`; returns the
    binary. Exits when the runtime's sources are not next to the benchmark."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: no runtime sources next to %s; run it from a "
                 "full checkout" % HERE.name)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release", *gen], check=True, **quiet)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", jobs], check=True, **quiet)
    return out / "perfbench"


def commit_id():
    """The checkout's git commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id()]
    if args.trace:
        cmd += ["--spans", str(out / "spans")]
    sys.stdout.flush()
    return subprocess.run(cmd + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
