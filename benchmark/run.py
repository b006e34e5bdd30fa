#!/usr/bin/env python3
"""Build ccbench in Release and run one workload (or all of them).

    python3 benchmark/run.py --workload W --seed S --seconds N --trace 0|1
    python3 benchmark/run.py --workload all --seed S     # the whole sweep

Run from anywhere; paths are taken relative to this file. The build lands
in .bench_build/ at the repository root, trace files in
.bench_build/trace/. Every workload runs in its own ccbench process.

For each workload the script prints ccbench's full record (stamped with
host_cores, build type and git describe; an untraced record also holds the
unbounded "host_times") and then, as the last line, the result:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1 the
per_layer ones; a record whose metric names or units differ from
BENCHMARK.json is an error. Exit status: 0 when every check passed, 1 when
a build, run or check failed.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
SPEC = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds (both near no-ops once built); all tool output
    goes to stderr so the last stdout line stays the result."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "ccbench"


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_record(record, spec, trace):
    """Returns the list of schema problems of one ccbench record."""
    want = expected_metrics(spec, trace)
    got = record.get("metrics", {})
    problems = [f"missing metric {n}" for n in want if n not in got]
    problems += [f"unnamed metric {n}" for n in got if n not in want]
    problems += [f"metric {n} has unit {got[n]['unit']}, want {u}"
                 for n, u in want.items() if n in got and got[n]["unit"] != u]
    return problems


def run_ccbench(binary, spec, workload, seed, seconds, trace):
    """Runs one ccbench process and returns its record. "valid" in the
    record is false when a check inside ccbench failed or the process
    exited non-zero; a timeout, a missing record, or a valid record whose
    metrics differ from BENCHMARK.json end the script."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd += ["--trace", str(BUILD / "trace")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: ccbench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: ccbench printed nothing (exit {proc.returncode})")
    record = json.loads(lines[-1])
    record["valid"] = record["valid"] and proc.returncode == 0
    if record["valid"]:
        problems = check_record(record, spec, trace)
        if problems:
            fail(f"{workload}: " + "; ".join(problems))
    return record


def run_workload(binary, spec, workload, seed, seconds, trace):
    record = run_ccbench(binary, spec, workload, seed, seconds, trace)
    print(json.dumps(record))
    print(json.dumps({"correct": record["valid"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}), flush=True)
    return record["valid"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    spec = json.loads(SPEC.read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload} (want one of {names} or all)")
    ok = True
    for w in names if args.workload == "all" else [args.workload]:
        ok = run_workload(binary, spec, w, args.seed, seconds,
                          args.trace == 1) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
