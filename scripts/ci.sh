#!/usr/bin/env bash
# Repo CI gate: formatting, lints (warnings are errors), full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# Data-plane lint: host-keyed ordered maps/sets must not reappear in the
# hot path. The columnar plane keys everything by dense row/HostId;
# the dev-only spec crate (crates/spec/src/connsets.rs) is the one
# allowed home of the map-based connection sets.
# Boundary types (Grouping members, diffs, synth ground truth) keep
# their BTree collections *of* HostAddr values, but no new code may key
# a BTreeMap/BTreeSet container declaration on HostAddr outside the
# allowlist below. crates/core/src/correlate.rs is listed only for the
# public `Correlation` host sets (added/removed hosts, H_same), a
# boundary type; the correlation algorithm itself runs on dense rows.
echo "==> data-plane lint (no BTreeMap<HostAddr/BTreeSet<HostAddr outside the spec connection sets)"
DATAPLANE_ALLOW='crates/spec/src/connsets.rs|crates/flow/src/connset.rs|crates/core/src/group.rs|crates/core/src/diff.rs|crates/core/src/correlate.rs|crates/core/src/services.rs|crates/core/src/stability.rs|crates/synth/src/model.rs|crates/cluster/src/metrics.rs|crates/aggregator/src/profile.rs|crates/aggregator/src/alerts.rs|crates/bench/src/bin/dataplane_bench.rs'
if grep -rnE 'BTree(Map|Set)<HostAddr' crates/*/src --include='*.rs' \
    | grep -vE "^($DATAPLANE_ALLOW):" ; then
  echo "ERROR: new host-keyed BTree container outside the data-plane allowlist." >&2
  echo "Use dense rows/HostId (flow::ConnectionSets) instead, or extend the" >&2
  echo "allowlist in scripts/ci.sh with a justification." >&2
  exit 1
fi

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc warnings are errors too: a doc link left pointing at a
# renamed or deleted item fails here instead of rendering as dead text.
echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test -q"
cargo test --workspace -q

# The benchmark harness is a separate crate built against this
# workspace's public API; its own tests catch an API trim that would
# otherwise only surface when the benchmark runs.
echo "==> perfbench harness tests"
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Telemetry must stay a pure observer: registry/span/event unit suites
# (incl. the Prometheus exposition conformance and event-journal ring
# property tests), the recorder-attached-vs-detached parity test, the
# metric/event-name lint (unique, snake_case, layer-prefixed), and the
# end-to-end decision-provenance test (every declared event type fires
# and every flight-recorder journal line parses).
echo "==> telemetry suite + name lint + provenance coverage"
cargo test -q -p telemetry
cargo test -q --test telemetry_parity --test metric_names --test event_journal

# Profiling must also stay a pure observer: the collapsed-stack
# exporter round-trips hostile span names (`;`, spaces, unicode) under
# proptest, profiler-attached outcomes are pinned bit-identical to
# detached runs across worker counts (inside telemetry_parity above),
# and the rcctl profile / serve /profile surfaces ride the facade's
# unit tests.
echo "==> profile suite (collapsed-stack round-trip + CLI/HTTP surfaces)"
cargo test -q --test profile_collapsed
cargo test -q -p role-classification --lib -- cli::tests serve::tests

# The storage layer must honor its durability contract on every
# backend: the shared conformance suite pins memory and segment to one
# behavioral spec, the crash suite tears the tail off live files and
# requires recovery to lose at most the final record, and the
# schedules proptest drives random append/flush/crash/reopen
# interleavings against an in-memory model. On the aggregator side the
# run store is the only durable history and the checkpoint holds resume
# state (host table + window cursor) beside it on one backend; the
# restart tests below restore from both: crash_recovery (flat checkpoint
# size, crash between run append and checkpoint, small retention) plus
# the checkpoint, store, and restore unit tests.
echo "==> storage backend conformance + crash-recovery + schedules"
cargo test -q -p storage
cargo test -q -p aggregator --test crash_recovery
cargo test -q -p aggregator --lib -- checkpoint:: store:: restore

# Wire transport must shrug off a hostile network: the chaos suite runs
# the loopback-TCP pipeline through the deterministic fault proxy on a
# fixed seed matrix ([11, 23, 47], pinned inside the test) — lossy runs
# must produce outcomes bit-identical to the in-process baseline, and a
# blackholed probe must degrade the window and quarantine, never hang.
# The codec property tests fuzz the frame parser the same way the flow
# parsers are fuzzed.
echo "==> wire chaos suite (fixed seed matrix) + frame codec properties"
cargo test -q -p aggregator --test wire_chaos --test frame_codec_properties

# The kernel must be a pure throughput knob: its counts, the Engine's
# classifications, and every correlation (whole, scores to the bit) are
# identical at any worker count. The worker matrix (1, 2, 8 workers)
# runs in-process via EngineConfig — the engine crates no longer read
# ROLECLASS_THREADS, so one invocation covers the whole grid (see
# classification_is_bit_identical_across_worker_matrix and the pruned_*
# kernel properties). The formation sweep is pinned trace by trace to
# the recounting sweep of the dev-only spec crate (roleclass-spec),
# whose own suite pins the Literal SIMILARITY reading on Mazu.
#
# The dense correlation path is pinned to the map-based oracle in
# correlation_reference: whole Correlation, counters and id events, on
# random window pairs, churned department windows, Figure 5 and a
# churned BigCompany step. It runs in release because the BigCompany
# case is skipped in debug builds; the scenario cases also print the
# measured pre-filter deviation (DESIGN §5 note 10).
#
# The merging oracle compares the whole merge trace (both sides'
# members, similarity to the bit) against a naive from-scratch
# reference; its Mazu and churned-department cases are release-only
# too.
echo "==> kernel + engine equivalence across the worker matrix + spec crate + correlation and merging oracles"
cargo test -q -p netgraph --test kernel_properties
cargo test -q -p roleclass --test engine_equivalence
cargo test -q -p roleclass-spec
cargo test -q --release -p roleclass --test correlation_reference
cargo test -q --release -p roleclass --test merging_reference

# Advisory bench regression gate: fresh per-stage timings vs the
# committed BENCH_*.json artifacts, >25% slower gets flagged. Timing on
# shared hardware is noisy, so a flag warns but never fails the build;
# skip it entirely with CI_SKIP_BENCH_CHECK=1 when iterating.
if [ "${CI_SKIP_BENCH_CHECK:-0}" != "1" ]; then
  echo "==> bench regression check (advisory)"
  scripts/bench_check.sh \
    || echo "WARNING: bench_check flagged timings >25% over the committed baseline (advisory, not failing CI)"
fi

echo "CI OK"
