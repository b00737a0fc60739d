#!/usr/bin/env bash
# Records one set of runs for -compare: RUNS untraced runs of every workload
# (or of the workloads named after the run count), each with its own seed,
# appended to OUT as JSON lines.
#
#   bash benchmark/set.sh out/a.jsonl 10
#   bash benchmark/set.sh out/b.jsonl 10
#   bash benchmark/run.sh -compare out/a.jsonl out/b.jsonl
#
# Run it from the repository root. SECONDS_PER_RUN overrides the timed
# window (default: BENCHMARK.json's run_seconds, 20).
set -euo pipefail

out="${1:?usage: set.sh OUT.jsonl [RUNS] [WORKLOAD...]}"
runs="${2:-10}"
workloads=("${@:3}")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(wire_small mlp_serial mlp_batched vision_frag)
fi
seconds="${SECONDS_PER_RUN:-20}"
here="$(dirname "$0")"

mkdir -p "$(dirname "$out")"
for ((seed = 1; seed <= runs; seed++)); do
	for w in "${workloads[@]}"; do
		bash "$here/run.sh" -workload "$w" -seed "$seed" -seconds "$seconds" -record "$out" | tail -n 1 | cut -c1-60
	done
done
