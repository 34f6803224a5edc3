#!/usr/bin/env python3
"""Build and run the PSN monitoring-pipeline benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid_behavioral --seed 2026 \
        --seconds 10 --trace 0

The first run configures and builds a Release tree of src/ plus the
psnt_perfbench program under .bench_build/perfbench (later runs rebuild
incrementally). Build output goes to standard error, so the last line of
standard output is psnt_perfbench's JSON result. The exit status is
psnt_perfbench's: 0 on success, non-zero when a correctness check fails,
and non-zero without a result when the checkout has no src/ to build.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "psnt_perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT / 'src'} is missing; run from a full checkout")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j",
                  str(min(4, os.cpu_count() or 1))])
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False,
                                  env=env)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {step[:2]} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {step[:2]} exited with {done.returncode}")


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest():
    """SHA-256 over the program and benchmark sources, path and content."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR / "src"):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    if args.trace == "1":
        command += ["--trace-out",
                    str(BUILD_DIR / f"trace-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", code=3)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
