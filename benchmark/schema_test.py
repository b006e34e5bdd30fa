#!/usr/bin/env python3
"""Schema self-test of ccbench (registered with ctest as ccbench_schema).

    python3 benchmark/schema_test.py path/to/ccbench path/to/BENCHMARK.json

Checks BENCHMARK.json's own limits, then runs every workload with --smoke
(inputs shrunk about 20x) untraced and traced. It fails when a run exits
non-zero, a validity check inside ccbench fails, a metric named in
BENCHMARK.json is missing or has another unit, an unnamed metric is
emitted, or a traced run writes no trace file. Traces go to schema_trace/
under the current directory.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import check_record  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def spec_problems(spec):
    problems = []
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in metrics]
    problems += [f"bad name {n}" for n in names if not NAME.fullmatch(n)]
    problems += [f"name {n} used twice" for n in set(names) if names.count(n) > 1]
    problems += [f"bad unit {m['unit']}" for m in metrics if not UNIT.fullmatch(m["unit"])]
    problems += [f"bound of {m['name']} outside 0..0.25" for m in spec["end_to_end"]
                 if not 0 <= m["bound"] <= 0.25]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be an end-to-end metric in s, lower is better")
    return problems


def main():
    binary, spec_path = sys.argv[1], Path(sys.argv[2])
    spec = json.loads(spec_path.read_text())
    problems = spec_problems(spec)
    trace_dir = Path.cwd() / "schema_trace"
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            cmd = [binary, "--workload", w, "--seed", "1", "--seconds", "1",
                   "--smoke"]
            trace_file = trace_dir / f"{w}.trace.json"
            if trace:
                cmd += ["--trace", str(trace_dir)]
                trace_file.unlink(missing_ok=True)
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=120)
            label = f"{w}{' (traced)' if trace else ''}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}")
                continue
            record = json.loads(lines[-1])
            if not record["valid"]:
                problems.append(f"{label}: invalid: {record['errors']}")
                continue
            problems += [f"{label}: {p}" for p in check_record(record, spec, trace)]
            if trace and (not trace_file.is_file() or
                          not json.loads(trace_file.read_text())["traceEvents"]):
                problems.append(f"{label}: no trace events written")
            print(f"ok {label}")
    for p in problems:
        print(f"FAIL {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
