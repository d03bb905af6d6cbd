#!/usr/bin/env bash
# Guards the committed BENCH_engine.json baseline against silently
# losing measurements. The bench binary already aborts at *generation*
# time when a manifest row has no measurement (see `render_json` in
# crates/bench/benches/bench_engine.rs), but a workload renamed in the
# bench source and committed without regenerating the baseline would
# only surface at the next full bench run — this script makes the gap
# CI-checkable. The expected list mirrors the bench manifests
# (`json_workloads`, `HANDOFF_WORKLOAD`, `IMPLICIT_CLIQUE_WORKLOAD`,
# `count_workloads`, `COMPILE_WORKLOAD` and the campaign rows); update
# both together.
#
# BENCH.md's recorded-baseline tables are copied from the JSON by hand,
# so the script also fails when a copied speedup no longer matches its
# row.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=BENCH_engine.json
expected=(
  "engine/election/clique_1000"
  "engine/election/cycle_1000"
  "engine/election/identifier_cycle_1000"
  "engine/election/identifier_star_1000"
  "engine/election/identifier_torus_1024"
  "engine/election/identifier_cycle_80000"
  "engine/steps/clique_1000"
  "engine/steps/cycle_1000"
  "engine/steps/cycle_120000"
  "engine/steps/fast_cycle_120000"
  "engine/steps/generic_clique_4000"
  "engine/count/fast_clique_1e7"
  "engine/count/fast_clique_1e8"
  "engine/count/token_clique_1e9"
  "engine/compile/fast_torus_4000"
  "sweep/campaign/grid_32shards"
  "sweep/campaign/checkpoint_1000"
)

fail=0
for w in "${expected[@]}"; do
  if ! grep -q "\"workload\": \"$w\"" "$baseline"; then
    echo "missing workload row in $baseline: $w" >&2
    fail=1
  fi
done

# A row count mismatch catches the inverse failure: a workload added to
# the bench (or left behind by a rename) without extending this list.
rows=$(grep -c '"workload"' "$baseline")
if [ "$rows" -ne "${#expected[@]}" ]; then
  echo "$baseline has $rows workload rows, expected ${#expected[@]}" >&2
  fail=1
fi

while IFS= read -r row; do
  w=$(sed -n 's/.*"workload": "\([^"]*\)".*/\1/p' <<<"$row")
  speedup=$(sed -n 's/.*"speedup": \([0-9.]*\).*/\1/p' <<<"$row")
  [ -n "$speedup" ] || continue
  if ! grep -F "| \`$w\`" BENCH.md | grep -qF "**${speedup}×**"; then
    echo "BENCH.md has no table row for $w with its recorded speedup ${speedup}×" >&2
    fail=1
  fi
done < <(grep '"workload"' "$baseline")

if [ "$fail" -eq 0 ]; then
  echo "BENCH_engine.json: all ${#expected[@]} workload rows present, BENCH.md speedups match"
fi
exit "$fail"
