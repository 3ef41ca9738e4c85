#!/usr/bin/env bash
# Run every user path of the repro package under the reach hook.
#
#   tools/reach/paths.sh [RECORDS_DIR]      (default .reach, from the repo root)
#   python tools/reach/report.py --records RECORDS_DIR
#
# The paths: every experiment id (traced), the sharded ids on two
# workers, --list, every --policy, --scenario and --rtt-profile value, a
# cold and a warm --cache-dir run, repro-simulate to pcap with --log and
# to npz, every repro-analyze subcommand, the repository benchmark and
# every example.  Any path exiting non-zero fails the script.
set -euo pipefail

cd "$(dirname "$0")/../.."
records="$(realpath -m "${1:-.reach}")"
rm -rf "$records"
mkdir -p "$records"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

export REACH_DIR="$records"
export PYTHONPATH="$PWD/tools/reach:$PWD/src"
run() { python -m repro.experiments.runner "$@"; }
analyze() { python -m repro.obs "$@"; }

run --seed 0 --trace-dir "$work/all" > /dev/null
run --workers 2 --trace-dir "$work/sharded" facilitynet fleet matchmaking churn > /dev/null
run --list > /dev/null

# each value of every choice flag at least once
policies=(capacity_aware latency_aware least_loaded lowest_rtt random sticky)
scenarios=(flash_crowd patch_day regional_outage)
profiles=(continental global uniform)
for i in "${!policies[@]}"; do
  run matchmaking churn --policy "${policies[$i]}" \
    --scenario "${scenarios[$((i % 3))]}" \
    --rtt-profile "${profiles[$((i % 3))]}" > /dev/null
done

run matchmaking --cache-dir "$work/cache" > /dev/null
run matchmaking --cache-dir "$work/cache" > /dev/null

python -m repro.cli --end 60 --slots 6 -o "$work/w.pcap" --log "$work/w.log"
python -m repro.cli --end 60 --slots 6 --format npz -o "$work/w.npz"

analyze summary "$work/all" > /dev/null
analyze spans "$work/all" --limit 10 > /dev/null
analyze heatmap "$work/sharded" --bins 8 > /dev/null
analyze export "$work/all" -o "$work/trace.json" > /dev/null
analyze compare "$work/all" "$work/sharded" > /dev/null

python -m benchmarks.perf --workload all --seconds 5 --trace 1 > /dev/null

for example in examples/*.py; do
  python "$example" > /dev/null
done
echo "records in $records"
