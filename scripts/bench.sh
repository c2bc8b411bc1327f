#!/usr/bin/env bash
# Runs the kernel benchmark suite and distills its output into
# BENCH_kernel.json: one entry per criterion measurement (seconds per
# iteration) plus the formation speedup ratios the PR's acceptance
# criterion tracks. Also replays the full pipeline with a telemetry
# recorder attached and stores the per-stage breakdown as
# BENCH_pipeline.json. Run from anywhere; writes into the workspace
# root.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="BENCH_kernel.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# Engine worker count for this run: ROLECLASS_THREADS (parsed here, at
# the script/binary layer — the engine crates take it via EngineConfig),
# else one worker per CPU core.
WORKERS="${ROLECLASS_THREADS:-$(nproc)}"
export ROLECLASS_THREADS="$WORKERS"
echo "==> engine: $WORKERS worker(s)"

echo "==> cargo bench -p bench --bench kernel_bench"
cargo bench -p bench --bench kernel_bench 2>&1 | tee "$RAW"

# Criterion-stub lines:      <name>: mean <duration> over <n> iterations
# Speedup lines (one-shot):  formation_speedup/<n>: kernel <a>s legacy <b>s ratio <r>x
awk '
function dur_to_secs(d) {
    if (d ~ /ns$/) return substr(d, 1, length(d) - 2) / 1e9
    if (d ~ /µs$/) return substr(d, 1, length(d) - 3) / 1e6
    if (d ~ /us$/) return substr(d, 1, length(d) - 2) / 1e6
    if (d ~ /ms$/) return substr(d, 1, length(d) - 2) / 1e3
    if (d ~ /s$/)  return substr(d, 1, length(d) - 1) + 0
    return d + 0
}
BEGIN { nb = 0; ns = 0 }
/: mean .* over .* iterations$/ {
    name = $1; sub(/:$/, "", name)
    bench_name[nb] = name
    bench_secs[nb] = dur_to_secs($3)
    nb++
}
/^formation_speedup\// {
    name = $1; sub(/:$/, "", name)
    speed_name[ns] = name
    speed_kernel[ns] = substr($3, 1, length($3) - 1) + 0
    speed_legacy[ns] = substr($5, 1, length($5) - 1) + 0
    speed_ratio[ns] = substr($7, 1, length($7) - 1) + 0
    ns++
}
END {
    printf "{\n  \"benchmarks\": {\n"
    for (i = 0; i < nb; i++)
        printf "    \"%s\": %.9f%s\n", bench_name[i], bench_secs[i], (i < nb - 1 ? "," : "")
    printf "  },\n  \"formation_speedup\": {\n"
    for (i = 0; i < ns; i++)
        printf "    \"%s\": {\"kernel_secs\": %.3f, \"legacy_secs\": %.3f, \"ratio\": %.2f}%s\n", \
            speed_name[i], speed_kernel[i], speed_legacy[i], speed_ratio[i], (i < ns - 1 ? "," : "")
    printf "  }\n}\n"
}
' "$RAW" | sed "1s/{/{\\n  \"workers\": $WORKERS,/" > "$OUT"

echo "==> wrote $OUT"
cat "$OUT"

# Per-stage pipeline breakdown, measured through the telemetry registry.
# The binary prints a human-readable table, then the JSON document after
# a marker line; keep the table on the terminal and store the JSON.
PIPE_OUT="BENCH_pipeline.json"
echo "==> cargo run --release -p bench --bin pipeline_stages"
PIPE_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$PIPE_RAW"' EXIT
cargo run --release -q -p bench --bin pipeline_stages | tee "$PIPE_RAW"
awk '/^===BENCH_PIPELINE_JSON===$/ { found = 1; next } found' "$PIPE_RAW" > "$PIPE_OUT"

echo "==> wrote $PIPE_OUT"

# Data-plane build + end-to-end window times at 1k/10k/100k hosts, with
# the pre-refactor (map-based) baseline recorded inside the binary for
# comparison. Same marker convention as the pipeline bench.
DP_OUT="BENCH_dataplane.json"
echo "==> cargo run --release -p bench --bin dataplane_bench"
DP_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$PIPE_RAW" "$DP_RAW"' EXIT
cargo run --release -q -p bench --bin dataplane_bench | tee "$DP_RAW"
awk '/^===BENCH_DATAPLANE_JSON===$/ { found = 1; next } found' "$DP_RAW" > "$DP_OUT"

echo "==> wrote $DP_OUT"
