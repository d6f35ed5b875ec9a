#!/usr/bin/env bash
# Runs every workload untraced and traced (the traced runs include the
# layer microbenchmarks) and prints every metric; exits non-zero if any
# run fails a correctness check or cannot complete.
#
#   bash perfbench/all.sh [seconds] [seed]
set -uo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seconds="${1:-25}"
seed="${2:-1}"
status=0
for w in read-mostly write-replicated txn-cross-shard; do
  for trace in 0 1; do
    echo "== $w trace=$trace"
    bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
  done
done
exit "$status"
