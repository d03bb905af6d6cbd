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
# both together. BENCH.md's tables are rendered from the JSON, and a
# unit test of crates/bench fails when they differ from it.
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
  "engine/count/new_token_clique_1e9"
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

if [ "$fail" -eq 0 ]; then
  echo "BENCH_engine.json: all ${#expected[@]} workload rows present"
fi
exit "$fail"
