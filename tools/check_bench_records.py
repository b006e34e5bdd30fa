#!/usr/bin/env python3
"""Diffs a tiny bench sweep against the committed bench trajectory.

    tools/run_benches.sh build BENCH_ci.json
    python3 tools/check_bench_records.py BENCH_active.json BENCH_ci.json

Records are matched by (bench, dataset, engine, threads), and
both files must hold exactly the same set of them. Each matched record
must keep its simulated fields: `cycles` and `cell_visits` exactly, and
`energy_uj` to a relative 1e-12 (a float written by two builds may differ
in its last digit). Host fields (`wall_ms`, `rss_kb`, `host_cores`) are
not compared. Prints every difference and exits 1 if there is any.

A change that moves a simulated cost regenerates the committed file in
the same commit (`tools/run_benches.sh build BENCH_active.json`), so the
move is visible in the diff. Python stdlib only.
"""
import json
import sys

KEY = ("bench", "dataset", "engine", "threads")
EXACT = ("cycles", "cell_visits")
ENERGY_RTOL = 1e-12


def load(path):
    with open(path, encoding="utf-8") as f:
        records = json.load(f)
    by_key = {}
    for record in records:
        key = tuple(record[k] for k in KEY)
        if key in by_key:
            sys.exit(f"{path}: duplicate record {key}")
        by_key[key] = record
    return by_key


def diff(want, got):
    problems = [f"missing record {k}" for k in sorted(want.keys() - got.keys())]
    problems += [f"extra record {k}" for k in sorted(got.keys() - want.keys())]
    for key in sorted(want.keys() & got.keys()):
        a, b = want[key], got[key]
        for field in EXACT:
            if a.get(field) != b.get(field):
                problems.append(f"{key}: {field} {a.get(field)} -> {b.get(field)}")
        ea, eb = a["energy_uj"], b["energy_uj"]
        if abs(ea - eb) > ENERGY_RTOL * max(abs(ea), abs(eb)):
            problems.append(f"{key}: energy_uj {ea!r} -> {eb!r}")
    return problems


def main(argv):
    if len(argv) != 3:
        sys.exit(f"usage: {argv[0]} COMMITTED_JSON SWEEP_JSON")
    want, got = load(argv[1]), load(argv[2])
    problems = diff(want, got)
    for p in problems:
        print(p)
    if problems:
        print(f"{len(problems)} difference(s) from {argv[1]}")
        return 1
    print(f"{len(got)} records match {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
