#!/usr/bin/env bash
# Tier-1 gate: build, test, docs — fully offline.
#
# The workspace is hermetic: every external dependency is a vendored
# stand-in under vendor/ and the lockfile is committed, so `--locked
# --offline` must always succeed. A failure here means a path
# dependency or the lockfile drifted, not that the network is down.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release (workspace, offline)"
cargo build --release --workspace --locked --offline

echo "==> cargo build --examples (offline)"
cargo build --release --examples --locked --offline

echo "==> cargo test (workspace, offline)"
cargo test --workspace --locked --offline -q

echo "==> cargo doc (no deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked --offline

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> poat-analyze (architectural invariants, see docs/ANALYZER.md)"
cargo run -p poat-analyzer --bin poat-analyze --locked --offline -- --deny-warnings
# Machine-readable findings artifact for downstream CI consumers (a
# clean tree yields an empty findings list with zeroed counters).
mkdir -p target
cargo run -p poat-analyzer --bin poat-analyze --locked --offline -- \
  --json --deny-warnings > target/poat-analyze.json
test -s target/poat-analyze.json
grep -q '"findings"' target/poat-analyze.json

echo "==> repro --trace smoke (offline)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
ledger="$trace_dir/ledger.poatlgr"
cargo run --release -p poat-harness --bin repro --locked --offline -- \
  fig9a --quick --trace "$trace_dir/trace.json" --ledger "$ledger" >/dev/null
test -s "$trace_dir/trace.json"
grep -q '"traceEvents"' "$trace_dir/trace.json"
grep -q '"polb_miss"' "$trace_dir/trace.json"
grep -q '"pot_walk"' "$trace_dir/trace.json"

echo "==> repro report smoke (offline)"
# Second run into the same ledger, then the cross-run loop must close:
# `repro report` sees both records (docs/OBSERVABILITY.md).
cargo run --release -p poat-harness --bin repro --locked --offline -- \
  fig9a --quick --ledger "$ledger" >/dev/null
cargo run --release -p poat-harness --bin repro --locked --offline -- \
  report --ledger "$ledger" | tee "$trace_dir/report.txt"
grep -q '2 records in' "$trace_dir/report.txt"
grep -q 'run000002' "$trace_dir/report.txt"
# `report` is a reader: a missing ledger is an error, and nothing (not
# the file, not its parent directory) is created.
missing="$trace_dir/absent/none.poatlgr"
if cargo run --release -p poat-harness --bin repro --locked --offline -- \
  report --ledger "$missing" >/dev/null 2>&1; then
  echo "repro report on a missing ledger exited 0" >&2
  exit 1
fi
test ! -e "$trace_dir/absent"

echo "==> repro trace-roundtrip smoke (offline)"
# Quick-scale trace save -> load -> simulate round trip: the loaded
# trace must equal the recorded one, both must simulate bit-identically
# on every core, and the encoding must stay within its 12 B/op budget
# (DESIGN.md "Trace encoding"). Exits non-zero on any mismatch.
cargo run --release -p poat-harness --bin repro --locked --offline -- \
  trace-roundtrip --scale quick --dir "$trace_dir"

echo "==> repro all per-op totals golden (offline)"
# The quick run's per-op totals (NVM device, oid_direct, POLB and POT
# counters, plus count and sum of their histograms) are deterministic.
# Each layer counts locally and publishes once when it drops, so an
# exact match against the committed golden file checks that every
# count reaches the registry exactly once (docs/METRICS.md).
cargo run --release -p poat-harness --bin repro --locked --offline -- \
  all --quick --no-ledger --metrics "$trace_dir/all.json" >/dev/null
python3 scripts/op_totals.py "$trace_dir/all.json" scripts/golden/op_totals_quick.tsv

echo "==> repro crash-sweep smoke (offline)"
# Quick-scale crash campaign over every enumerated point (a few seconds
# on two cores), with the drop-clwb negative control alongside clean and
# torn crashes; exits non-zero on any clean/torn recovery-invariant
# violation (EXPERIMENTS.md, "Crash-point sweep").
cargo run --release -p poat-harness --bin repro --locked --offline -- \
  crash-sweep --scale quick --inject all --ledger "$ledger"

echo "==> perfbench pin smoke (offline)"
# One pass of each gated benchmark workload (BENCHMARK.json) at salt 0,
# the paper's inputs: matrix_quick checks every cell's cycles,
# instructions and POLB counts exactly against
# perfbench/pins/matrix_quick.tsv, and crash_sweep checks zero recovery
# violations over the full enumerated point set (perfbench/README.md,
# "Correctness checks"). The last stdout line is the run's JSON summary;
# any failed check fails the step.
for workload in matrix_quick crash_sweep; do
  cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 0 --seconds 1 --trace 0 > "$trace_dir/perfbench.txt"
  summary="$(tail -n 1 "$trace_dir/perfbench.txt")"
  echo "$workload: ${summary%%, \"metrics\"*}}"
  grep -q '"correct": true' <<<"$summary"
  grep -q '"failed": 0,' <<<"$summary"
done

echo "==> ci.sh: all green"
