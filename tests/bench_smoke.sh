#!/usr/bin/env bash
# Benchmark smoke runs: every workload for one second, untraced and traced.
# Only outputs are checked: the last stdout line of each run must report a
# correct run with no failed operations. Timings are not gated. The traced
# runs wrap tagnet's functions to time each layer and read what
# bench/spans.py counts (is_dense, .islands, iter_pairs, ownership), so they
# fail when tagnet drops one of them.
# Run from the repository root: bash tests/bench_smoke.sh
set -euo pipefail

for trace in 0 1; do
  for workload in tag-tree user-tree user-diversity; do
    last=$(python bench/run.py --workload "$workload" --seed 1 --seconds 1 --trace "$trace" | tail -n 1)
    echo "$workload --trace $trace: $last"
    python -c "import json, sys; r = json.loads(sys.argv[1]); sys.exit(not (r['correct'] is True and r['failed'] == 0))" "$last"
  done
done
