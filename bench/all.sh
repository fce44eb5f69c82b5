#!/bin/sh
# Every workload, end to end and then traced, for one seed:
#     sh bench/all.sh [SEED] [SECONDS]
# Prints each run's metric lines and result line in turn.
set -e
cd "$(dirname "$0")/.."
for workload in abi-ablate oci-pipeline scene-infer; do
    for trace in 0 1; do
        echo "== $workload trace $trace"
        python3 bench/run.py --workload "$workload" --seed "${1:-1}" \
            --seconds "${2:-30}" --trace "$trace"
    done
done
