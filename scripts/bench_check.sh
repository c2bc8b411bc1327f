#!/usr/bin/env bash
# Advisory bench regression gate: re-runs the cheap benchmark modes and
# diffs fresh per-stage timings against the committed BENCH_*.json
# artifacts, flagging anything >25% slower. Exits 1 when a regression is
# flagged so callers can decide how loud to be — ci.sh wires it in as
# advisory (prints a warning, never fails the build), because wall-clock
# numbers on shared hardware are evidence, not verdicts.
#
# Scope: the dataplane bench runs in --quick mode (1k/5k/10k hosts; the
# committed 100k row is compared only when a fresh row exists for it),
# and the pipeline bench runs in full mode so its ~5k-host row matches
# the committed artifact. ROLECLASS_THREADS is pinned to 1 to match how
# the committed artifacts were measured.
set -uo pipefail
cd "$(dirname "$0")/.."

THRESHOLD_PCT="${BENCH_CHECK_THRESHOLD_PCT:-25}"
# Stages whose committed total is below this floor are skipped: tens of
# milliseconds swing far more than 25% run to run and would drown the
# signal in noise.
MIN_SECS="${BENCH_CHECK_MIN_SECS:-0.1}"
export ROLECLASS_THREADS=1

echo "==> bench_check: building bench binaries (release)"
cargo build --release -q -p bench --bin dataplane_bench --bin pipeline_stages

DP_RAW="$(mktemp)"
PIPE_RAW="$(mktemp)"
trap 'rm -f "$DP_RAW" "$PIPE_RAW"' EXIT

echo "==> bench_check: dataplane_bench --quick"
./target/release/dataplane_bench --quick 2>/dev/null \
    | awk '/^===BENCH_DATAPLANE_JSON===$/ { found = 1; next } found' > "$DP_RAW"

echo "==> bench_check: pipeline_stages"
./target/release/pipeline_stages 2>/dev/null \
    | awk '/^===BENCH_PIPELINE_JSON===$/ { found = 1; next } found' > "$PIPE_RAW"

python3 - "$DP_RAW" "$PIPE_RAW" "$THRESHOLD_PCT" "$MIN_SECS" <<'PY'
import json
import sys

dp_fresh_path, pipe_fresh_path = sys.argv[1], sys.argv[2]
threshold, min_secs = float(sys.argv[3]), float(sys.argv[4])
flagged = []


def compare(label, name, committed, fresh):
    """Flags `fresh` when it is more than `threshold` percent above `committed`."""
    if committed < min_secs or fresh <= 0.0:
        return
    delta_pct = (fresh / committed - 1.0) * 100.0
    if delta_pct > threshold:
        flagged.append(
            f"{label} {name}: {committed:.6f}s -> {fresh:.6f}s (+{delta_pct:.0f}%)"
        )


# Per-unit costs: which stage time divides by which work counter. These
# normalize away scenario-size drift, so they compare meaningfully even
# where raw stage times are too small for the min_secs floor — the work
# floor below keeps tiny denominators from amplifying noise instead.
UNIT_COSTS = [
    ("ns_per_candidate", "engine.correlate", "correlate_candidates"),
    ("ns_per_eval", "engine.correlate", "correlate_similarity_evals"),
    ("ns_per_pop", "merge.agglomerate", "merge_heap_pops"),
    ("ns_per_pair", "kernel.count", "kernel_two_paths"),
]
MIN_UNITS = 1000


def compare_unit_costs(label, committed, fresh):
    """Diffs ns-per-unit stage costs where both rows carry the counters."""
    for name, stage, counter in UNIT_COSTS:
        base_units = committed.get("counters", {}).get(counter, 0)
        fresh_units = fresh.get("counters", {}).get(counter, 0)
        base_secs = committed.get("stages", {}).get(stage, 0.0)
        fresh_secs = fresh.get("stages", {}).get(stage, 0.0)
        if min(base_units, fresh_units) < MIN_UNITS or base_secs <= 0.0 or fresh_secs <= 0.0:
            continue
        base_ns = base_secs * 1e9 / base_units
        fresh_ns = fresh_secs * 1e9 / fresh_units
        delta_pct = (fresh_ns / base_ns - 1.0) * 100.0
        if delta_pct > threshold:
            flagged.append(
                f"{label} {name}: {base_ns:.0f}ns -> {fresh_ns:.0f}ns (+{delta_pct:.0f}%)"
            )


# Dataplane: match fresh rows to committed rows by nearest host count
# (populations land slightly under their nominal size).
dp_fresh = json.load(open(dp_fresh_path))
dp_committed = json.load(open("BENCH_dataplane.json"))
for row in dp_fresh["current"]:
    base = min(
        dp_committed["current"], key=lambda r: abs(r["hosts"] - row["hosts"])
    )
    if abs(base["hosts"] - row["hosts"]) > 0.2 * row["hosts"]:
        continue
    label = f"dataplane[{base['hosts']} hosts]"
    compare(label, "build_secs", base["build_secs"], row["build_secs"])
    compare(label, "window_secs", base["window_secs"], row["window_secs"])
    for stage, secs in row.get("stages", {}).items():
        if stage in base.get("stages", {}):
            compare(label, stage, base["stages"][stage], secs)
    compare_unit_costs(label, base, row)

# Pipeline: stage totals are comparable only when the scenario shape
# (hosts and window count) matches the committed run.
pipe_fresh = json.load(open(pipe_fresh_path))
pipe_committed = json.load(open("BENCH_pipeline.json"))
if (pipe_fresh["hosts"], pipe_fresh["windows"]) == (
    pipe_committed["hosts"],
    pipe_committed["windows"],
):
    label = f"pipeline[{pipe_fresh['hosts']} hosts]"
    for stage, info in pipe_fresh["stages"].items():
        if stage in pipe_committed["stages"]:
            compare(label, stage, pipe_committed["stages"][stage]["total_secs"], info["total_secs"])
    stab = pipe_fresh.get("stability")
    if stab is not None and stab["overhead_pct"] > 3.0:
        flagged.append(
            f"pipeline stability overhead {stab['overhead_pct']:.2f}% exceeds the 3% budget"
        )
    prof = pipe_fresh.get("profile")
    if prof is not None and prof["overhead_pct"] > prof.get("budget_pct", 5.0):
        flagged.append(
            f"pipeline profiler overhead {prof['overhead_pct']:.2f}% exceeds "
            f"the {prof.get('budget_pct', 5.0):.0f}% budget"
        )
else:
    print(
        "bench_check: pipeline scenario shape differs from the committed "
        f"artifact ({pipe_fresh['hosts']}x{pipe_fresh['windows']} vs "
        f"{pipe_committed['hosts']}x{pipe_committed['windows']}); skipping stage diff"
    )

if flagged:
    print(f"bench_check: {len(flagged)} timing(s) more than {threshold:.0f}% over the committed baseline:")
    for line in flagged:
        print(f"  {line}")
    sys.exit(1)
print(f"bench_check: all fresh timings within {threshold:.0f}% of the committed BENCH_*.json")
PY
