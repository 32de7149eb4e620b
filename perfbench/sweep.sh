#!/usr/bin/env bash
# Runs the benchmark once per seed on each named workload (all four when
# none is named). Each run's report goes to standard error, and one JSON
# line per run is appended to OUT, the result-set format of
# "perfbench compare":
#
#   {"workload": "...", "seed": N, "result": <the run's last output line>}
#
# usage (from the checkout root):
#   bash perfbench/sweep.sh OUT FIRST_SEED LAST_SEED [WORKLOAD...]
# The measuring time is run_seconds from BENCHMARK.json.
set -euo pipefail
if [ $# -lt 3 ]; then
	echo "usage: $0 OUT FIRST_SEED LAST_SEED [WORKLOAD...]" >&2
	exit 2
fi
out=$1 first=$2 last=$3
shift 3
if [ $# -eq 0 ]; then
	set -- flash_ckpt array_yx meta_8k serial_array
fi
root=$(cd "$(dirname "$0")/.." && pwd)
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")
for w in "$@"; do
	for s in $(seq "$first" "$last"); do
		report=$(bash "$root/perfbench/run.sh" --workload "$w" --seed "$s" --seconds "$secs" --trace 0)
		printf '%s\n\n' "$report" >&2
		printf '{"workload":"%s","seed":%d,"result":%s}\n' "$w" "$s" "$(tail -n 1 <<<"$report")" >>"$out"
	done
done
