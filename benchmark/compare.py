#!/usr/bin/env python3
"""A/B comparison of two ccbench builds, or the baseline of one.

    # baseline: N runs of one build, seeds 1..N
    python3 benchmark/compare.py --a .bench_build --runs 10

    # A/B: N pairs, pair i runs both sides on seed i, and the side that
    # goes first alternates from pair to pair
    python3 benchmark/compare.py --a build-parent --b build-change --runs 10

--a/--b name build directories holding a ccbench binary (configure each with
`cmake -S benchmark -B DIR -DCMAKE_BUILD_TYPE=Release` in its own
checkout); give the same directory twice to measure run-to-run agreement.
Every workload runs untraced for run_seconds of BENCHMARK.json. Each run
goes through run.py's runner, so a record that fails a check or differs
from BENCHMARK.json stops the comparison. Python stdlib only.

Two tables per workload: the end_to_end metrics of BENCHMARK.json, which
carry a bound, and the host times of the same runs (the record's
"host_times"), which do not. Each row gives each side's median and
quartiles, and for A/B the pairs B won, and a verdict:
  gain        at least 10 pairs, B won >= 9/10 of them, and the medians
              differ by more than A's quartile distance
  regression  B's median is worse than A's by more than the metric's bound
  loss        (host times) at least 10 pairs, A won >= 9/10 of them, and
              the medians differ by more than A's quartile distance
  unresolved  A's quartile distance exceeds the bound (as a share of its
              median), unless every B run beats, or loses to, every A run;
              for host times, neither gain nor loss
  same        none of the above
A metric with bound 0 (the modelled sim_cycles and sim_energy_uj) is a
regression as soon as B's median is worse at all.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

MIN_PAIRS = 10


def run_once(build_dir, spec, workload, seed):
    """Returns the run's end-to-end and host-time values in one dict."""
    record = bench.run_ccbench(Path(build_dir) / "ccbench", spec, workload,
                               seed, spec["run_seconds"], trace=False)
    if not record["valid"]:
        sys.exit(f"compare.py: {build_dir} {workload} seed {seed} failed: "
                 f"{record['errors']}")
    values = {**record["metrics"], **record["host_times"]}
    return {k: v["value"] for k, v in values.items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(metric, x, y):
    """True when x is strictly better than y for this metric."""
    return x > y if metric["better"] == "higher" else x < y


def verdict(metric, a, b):
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    # Fewer than MIN_PAIRS pairs decide no gain or loss: with 5 pairs of
    # equal builds, one side wins all five by chance in one metric of 16.
    apart = len(a) >= MIN_PAIRS and abs(med_b - med_a) > q3 - q1
    if sum(better(metric, y, x) for x, y in zip(a, b)) >= 0.9 * len(a) and apart:
        return "gain"
    if "bound" not in metric:
        lost = sum(better(metric, x, y) for x, y in zip(a, b)) >= 0.9 * len(a)
        return "loss" if lost and apart else "unresolved"
    spread = (q3 - q1) / med_a if med_a else 0.0
    separated = (all(better(metric, y, x) for x in a for y in b) or
                 all(better(metric, x, y) for x in a for y in b))
    if spread > metric["bound"] and not separated:
        return "unresolved"
    worse = med_a - med_b if metric["better"] == "higher" else med_b - med_a
    return "regression" if worse > metric["bound"] * med_a else "same"


def report(metrics, raw, ab):
    if ab:
        print(f"{'metric':<18} {'A median':>12} {'A q1..q3':>25} "
              f"{'B median':>12} {'B q1..q3':>25} {'B wins':>7}  verdict")
    else:
        print(f"{'metric':<18} {'median':>12} {'q1..q3':>25} "
              f"{'iqr/med':>8} {'bound':>6}  verdict")
    for m in metrics:
        a = [r[m["name"]] for r in raw["a"]]
        qa = quartiles(a)
        ra = f"{qa[0]:.5g}..{qa[2]:.5g}"
        if ab:
            b = [r[m["name"]] for r in raw["b"]]
            qb = quartiles(b)
            rb = f"{qb[0]:.5g}..{qb[2]:.5g}"
            wins = f"{sum(better(m, y, x) for x, y in zip(a, b))}/{len(a)}"
            print(f"{m['name']:<18} {qa[1]:>12.5g} {ra:>25} {qb[1]:>12.5g} "
                  f"{rb:>25} {wins:>7}  {verdict(m, a, b)}")
            continue
        spread = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
        bound = m.get("bound")
        state = ("-" if bound is None else "steady" if spread <= bound / 3
                 else "ok" if spread <= bound else "unresolved")
        print(f"{m['name']:<18} {qa[1]:>12.5g} {ra:>25} {spread:>8.3f} "
              f"{'-' if bound is None else bound:>6}  {state}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="build directory A")
    ap.add_argument("--b", help="build directory B (omit for a baseline)")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    spec = json.loads(bench.SPEC.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    sides = ["a", "b"] if args.b else ["a"]
    dirs = {"a": args.a, "b": args.b}

    raw = {}
    for w in workloads:
        raw[w] = {s: [] for s in sides}
        for i in range(args.runs):
            order = sides if i % 2 == 0 else sides[::-1]
            for s in order:
                raw[w][s].append(run_once(dirs[s], spec, w, seed=i + 1))
            print(f"# {w}: run {i + 1}/{args.runs} done", file=sys.stderr)

    host = [m for m in spec["per_layer"] if m["name"] in raw[workloads[0]]["a"][0]]
    for w in workloads:
        print(f"\n## {w} ({args.runs} {'pairs' if args.b else 'runs'}, "
              f"{spec['run_seconds']} s each)")
        report(spec["end_to_end"], raw[w], bool(args.b))
        print("host times (no bound):")
        report(host, raw[w], bool(args.b))


if __name__ == "__main__":
    main()
