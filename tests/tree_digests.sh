#!/usr/bin/env bash
# Tree digests: `tagnet tree` over the benchmark's seed-1 tag corpus (T, 600
# tags) and user corpus (U, 4,500 users), with the benchmark's arguments at
# the default grid and at the fine grid (--phi-step 0.002, 500 levels, with
# singletons), and U at --phi-start 0.3, where the links at or below start
# are summed but never hooked, must write the pinned bytes: the sha256 of the
# JSON file followed by the DOT file. So must `tagnet diversity u0` on T at
# the default and the fine grid, whose files carry u0's activity report. The
# island sums are exact, so the bytes do not depend on the numpy version or on
# the column order of the stored cosines.
# The corpora come from bench/corpus.py.
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
check() {  # pinned digest, corpus, tagnet command and its arguments
  local expected=$1 name=$2
  shift 2
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m tagnet "$@" --input "$work/$name.tsv" \
    --out-json "$work/$name.json" --out-dot "$work/$name.dot" > /dev/null
  local digest
  digest=$(cat "$work/$name.json" "$work/$name.dot" | sha256sum | cut -d ' ' -f 1)
  echo "$name $*: $digest"
  if [ "$digest" != "$expected" ]; then
    echo "  expected $expected" >&2
    status=1
  fi
}
check 34e16992fe4041dcdc8af280841d03290ab4d54ba470dfab3d6c174537b700de T tree --family tags --top-n 600
check deb101797e66dbb1a9996c60ef79ca674f17310d76dc4eb82dc243170bcbefd6 U tree --family users --top-n 4500
check 3260edd265680c69d24984498f5689acd73754e97e92d3f2bc7602f0a28b424f T tree --family tags --top-n 600 \
  --phi-step 0.002 --include-singletons
check 53352d8f3eb5f9a0a52539584dfafd834a946e333d5d1693e369e13d4948b396 U tree --family users --top-n 4500 \
  --phi-step 0.002 --include-singletons
check e1e6c9754d7605867b6ecc1a6e0415130b0dfc0ef9e7c040282d461ac0e8f650 U tree --family users --top-n 4500 \
  --phi-start 0.3
check 77a86b03926a4c8cbf77e2adc96239cfed8e4390015d1e9c865c6b4987fd061b T diversity u0
check 3cd8777eae8c4e7fbbbdb5e717c1f92b53e8ae6ff02f04cee6befc31dcc429a6 T diversity u0 \
  --phi-step 0.002 --include-singletons
exit "$status"
