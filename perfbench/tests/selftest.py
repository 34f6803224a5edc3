#!/usr/bin/env python3
"""Self-test of the pipeline benchmark.

Run from the root of a checkout (it builds the benchmark first, then runs
every workload briefly, untraced and traced; about two minutes):

    python3 perfbench/tests/selftest.py

It checks that
  1. every metric name in BENCHMARK.json fits [A-Za-z0-9_.-]+;
  2. each workload prints every end-to-end metric untraced and every
     per-layer metric traced, under BENCHMARK.json's names and units, and
     BENCHMARK.json lists every metric the benchmark's documentation names;
  3. no benchmark source names an option scheduled for deletion.
Exits non-zero on the first failure.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Metrics the benchmark is specified to report (README.md, "Metrics").
REQUIRED_END_TO_END = {
    "samples_per_s", "setup_s", "peak_rss_mb", "rail_err_mv_mean",
    "in_range_share", "delivered_share",
}
REQUIRED_PER_LAYER = {
    "calib.fit_ms", "cut.scenario_solve_ms",
    "core.capture_ns_per_sample", "core.capture_calls_per_sample",
    "core.structural_build_ms_per_site", "core.structural_us_per_measure",
    "sim.events_per_measure", "sim.allocs_per_measure",
    "core.enc_ns_per_sample", "core.decode_ns_per_sample",
    "grid.ring_stalls_per_ksample", "grid.ring_ns_per_sample",
    "grid.drain_residual_ns_per_sample", "grid.scaling_2w_vs_1w",
    "grid.retries_per_ksample", "grid.vote_overrides_per_ksample",
    "grid.faults_per_ksample", "grid.quarantined_sites",
    "serve.ingest_ns", "serve.publish_us", "serve.publishes_per_ksample",
    "serve.refresh_us", "serve.latest_us", "serve.top_droop_us",
    "serve.quantile_us", "serve.query_late_us_p99",
    "net.frame_encode_ns_per_sample", "net.frame_parse_ns_per_sample",
    "net.socket_ns_per_sample", "net.bytes_per_sample",
    "fleet.span_p50_us", "fleet.frames_per_ksample", "fleet.frame_errors",
    "trace.overhead_share", "trace.coverage_share",
}
# Context lines every untraced run prints before its result.
REQUIRED_LINES = ("provenance:", "calibration:", "digest:", "failed_share:",
                  "accuracy:")

# Spelled in pieces so this file does not name them either.
FORBIDDEN = [
    "structural" + "_compile", "structural" + "_banks", "decode" + "_path",
    "batch" + "_capture", "PSNT" + "_COMPILE", "sim/" + "lower", "lower" + ".h",
    "Compiled" + "Kernel",
]


def fail(message):
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def check_names(bench):
    for group in ("end_to_end", "per_layer"):
        for metric in bench[group]:
            if not NAME.fullmatch(metric["name"]):
                fail(f"metric name {metric['name']!r} is not [A-Za-z0-9_.-]+")
    names = {m["name"] for m in bench["end_to_end"]}
    if names != REQUIRED_END_TO_END:
        fail(f"end_to_end lists {sorted(names ^ REQUIRED_END_TO_END)} wrongly")
    names = {m["name"] for m in bench["per_layer"]}
    if names != REQUIRED_PER_LAYER:
        fail(f"per_layer lists {sorted(names ^ REQUIRED_PER_LAYER)} wrongly")
    print("selftest: metric names ok")


def check_sources():
    files = [p for p in BENCH_DIR.rglob("*")
             if p.is_file() and p.suffix in (".cpp", ".h", ".py", ".txt", ".md")]
    files.append(ROOT / "BENCHMARK.json")
    for path in files:
        text = path.read_text(errors="replace")
        for word in FORBIDDEN:
            if word in text:
                fail(f"{path.relative_to(ROOT)} names {word}")
    print(f"selftest: {len(files)} benchmark files name no option "
          "scheduled for deletion")


def run(workload, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "2026", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    if done.returncode != 0:
        fail(f"{workload} trace={trace} exited {done.returncode}:\n"
             f"{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_result(workload, trace, expected, lines, result):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail(f"{workload}: result not correct or nothing attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit:
            fail(f"{workload}: {name} unit {metrics[name]['unit']} != {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{workload}: {name} = {value!r} is not a finite number")
    if trace == 0:
        for prefix in REQUIRED_LINES:
            if not any(line.startswith(prefix) for line in lines):
                fail(f"{workload}: no '{prefix}' line")
        if workload == "grid_behavioral" and not any(
                line.startswith("queries:") for line in lines):
            fail("grid_behavioral: no query latency line")
    print(f"selftest: {workload} trace={trace}: {len(metrics)} metrics ok")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_names(bench)
    check_sources()
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            lines, result = run(workload, trace)
            check_result(workload, trace, expected, lines, result)
    print("selftest: PASS")


if __name__ == "__main__":
    main()
