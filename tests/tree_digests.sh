#!/usr/bin/env bash
# Tree digests: `tagnet tree` over the benchmark's seed-1 tag corpus (T, 600
# tags) and user corpus (U, 4,500 users), with the benchmark's arguments at
# the default grid, must write the pinned bytes: the sha256 of the JSON file
# followed by the DOT file. The island sums are exact, so the bytes do not
# depend on the numpy version. The corpora come from bench/corpus.py.
# Run from the repository root: bash tests/tree_digests.sh
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
python - "$work" <<'PY'
import sys
sys.path.insert(0, "bench")
import corpus, run
for name, spec in (("T", run.TAG_SPEC), ("U", run.USER_SPEC)):
    corpus.generate(corpus.CorpusSpec(**spec), 1).write(f"{sys.argv[1]}/{name}.tsv")
PY

status=0
check() {  # corpus, family, top-n, pinned digest
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m tagnet tree --input "$work/$1.tsv" \
    --family "$2" --top-n "$3" --out-json "$work/$1.json" --out-dot "$work/$1.dot"
  local digest
  digest=$(cat "$work/$1.json" "$work/$1.dot" | sha256sum | cut -d ' ' -f 1)
  echo "$1 --family $2 --top-n $3: $digest"
  if [ "$digest" != "$4" ]; then
    echo "  expected $4" >&2
    status=1
  fi
}
check T tags 600 34e16992fe4041dcdc8af280841d03290ab4d54ba470dfab3d6c174537b700de
check U users 4500 deb101797e66dbb1a9996c60ef79ca674f17310d76dc4eb82dc243170bcbefd6
exit "$status"
