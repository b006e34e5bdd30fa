#!/usr/bin/env bash
# Runs every bench executable at CCASTREAM_SCALE=tiny and aggregates their
# JSON records (one headline record per bench, emitted via the harness
# JsonReporter) into a single BENCH_*.json array.
#
# Usage: tools/run_benches.sh [BUILD_DIR] [OUTPUT_JSON]
#   BUILD_DIR    defaults to build
#   OUTPUT_JSON  defaults to BENCH_active.json (in the current directory),
#                the committed trajectory CI diffs every sweep against
#
# CCASTREAM_THREADS selects the simulator backend for the whole sweep
# (default 1 = serial engine), CCASTREAM_PARTITION its mesh partition
# (rows|rows+rebalance, default rows), and CCASTREAM_ENGINE
# its cycle engine (scan|active, default active — the simulator's default
# bitmap engine); every emitted record carries
# matching "threads", "partition", and "engine" fields, so sweeps from
# different backends can be aggregated and compared side by side, e.g.:
#   tools/run_benches.sh build BENCH_active.json   # regenerate the trajectory
#   tools/run_benches.sh build /tmp/BENCH_ci.json && \
#     python3 tools/check_bench_records.py BENCH_active.json /tmp/BENCH_ci.json
#   CCASTREAM_THREADS=4 CCASTREAM_PARTITION=rows+rebalance \
#     tools/run_benches.sh build /tmp/BENCH_rebal.json
#   CCASTREAM_ENGINE=scan tools/run_benches.sh build /tmp/BENCH_scan.json
# (bench_active_set runs both engines explicitly whatever the env, emitting
# per-engine records with "cell_visits" — the scan-vs-active comparison is
# in every sweep.)
set -euo pipefail

BUILD_DIR=${1:-build}
OUTPUT=${2:-BENCH_active.json}
export CCASTREAM_THREADS=${CCASTREAM_THREADS:-1}
export CCASTREAM_PARTITION=${CCASTREAM_PARTITION:-rows}
export CCASTREAM_ENGINE=${CCASTREAM_ENGINE:-active}

if [[ ! -d "$BUILD_DIR/bench" ]]; then
  echo "error: $BUILD_DIR/bench not found — build first:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

OUTPUT_ABS=$(cd "$(dirname "$OUTPUT")" && pwd)/$(basename "$OUTPUT")

# Benches write their CSV/JSONL side outputs to cwd; keep them out of the
# source tree.
SCRATCH="$BUILD_DIR/bench-out"
mkdir -p "$SCRATCH"
SCRATCH_ABS=$(cd "$SCRATCH" && pwd)
RECORDS="$SCRATCH_ABS/records.jsonl"
: > "$RECORDS"

export CCASTREAM_SCALE=tiny
export CCASTREAM_BENCH_JSON="$RECORDS"

shopt -s nullglob
BENCHES=("$BUILD_DIR"/bench/bench_*)
if [[ ${#BENCHES[@]} -eq 0 ]]; then
  echo "error: no bench executables under $BUILD_DIR/bench" >&2
  exit 1
fi

ran=0
for bench in "${BENCHES[@]}"; do
  [[ -f "$bench" && -x "$bench" ]] || continue
  name=$(basename "$bench")
  ran=$((ran + 1))
  args=()
  # Keep the google-benchmark binary quick: the headline record comes from
  # its one-shot ingest, not from long calibration runs.
  [[ "$name" == bench_micro ]] && args=(--benchmark_min_time=0.01)
  echo "=== running $name (CCASTREAM_SCALE=tiny, CCASTREAM_THREADS=$CCASTREAM_THREADS, CCASTREAM_PARTITION=$CCASTREAM_PARTITION, CCASTREAM_ENGINE=$CCASTREAM_ENGINE) ==="
  bench_abs=$(cd "$(dirname "$bench")" && pwd)/$name
  (cd "$SCRATCH_ABS" && "$bench_abs" "${args[@]}")
done

# Wrap the JSONL records into a JSON array: one object per line, indented.
{
  echo "["
  awk 'NR > 1 { print prev "," } { prev = "  " $0 } END { if (NR > 0) print prev }' "$RECORDS"
  echo "]"
} > "$OUTPUT_ABS"

count=$(wc -l < "$RECORDS")
echo "wrote $OUTPUT_ABS ($count records)"
if (( count < ran )); then
  echo "error: only $count records for $ran benches — a reporter write failed" >&2
  exit 1
fi
