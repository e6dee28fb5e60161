#!/usr/bin/env sh
# Runs every benchmark binary with `--json`, then merges the per-bench documents
# (schema "tock-bench-v1", see bench/bench_json.h) into one machine-readable
# results file:
#
#   {"schema":"tock-bench-results-v1","results":[ <per-bench doc>, ... ]}
#
# Usage: scripts/bench_collect.sh [output.json]
#   BUILD_DIR=build-foo scripts/bench_collect.sh    # non-default build tree
#
# The merge is plain concatenation — no jq/python dependency.
set -eu

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${1:-BENCH_results.json}"

BENCHES="fig5_trusted_loc tab_syscall_sequences fig_energy_dutycycle \
tab_grant_exhaustion tab_allow_semantics tab_overlap_checks \
tab_process_loading tab_timer_virtualization tab_scheduler_policies \
tab_isolation_cost fig4_subslice tab_register_dsl tab_callbacks_vs_futures \
tab_fleet_scaling tab_ota_throughput tab_telemetry_overhead"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT INT TERM

for b in $BENCHES; do
  bin="$BUILD_DIR/bench/$b"
  if [ ! -x "$bin" ]; then
    echo "error: $bin not found — build first (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
  echo "==== running $b ===="
  "$bin" --json "$tmpdir/$b.json"
  if [ ! -s "$tmpdir/$b.json" ]; then
    echo "error: $b produced no JSON output" >&2
    exit 1
  fi
done

{
  printf '{"schema":"tock-bench-results-v1","results":[\n'
  first=1
  for b in $BENCHES; do
    if [ "$first" = 1 ]; then first=0; else printf ',\n'; fi
    # Strip the trailing newline so the separator placement stays tidy.
    printf '%s' "$(cat "$tmpdir/$b.json")"
  done
  printf '\n]}\n'
} >"$OUT"

echo "wrote $OUT ($(wc -c <"$OUT") bytes, $(echo "$BENCHES" | wc -w) benches)"
