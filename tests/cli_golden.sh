#!/usr/bin/env bash
# The installed tagnet console script reproduces the golden files and stdout,
# and fails with the right exit code on bad outputs and input.
# Run from the repository root with tagnet installed:
#   bash -eo pipefail tests/cli_golden.sh
# It writes its outputs into the current directory.

# Installed tagnet reproduces the golden diversity files.
tagnet diversity ann --input tests/golden/triples.tsv --phi-step 0.25 --out-dot d.dot --out-json d.json
cmp d.dot tests/golden/diversity-ann.dot
cmp d.json tests/golden/diversity-ann.json

# Installed tagnet reproduces the golden tree files.
tagnet tree --input tests/golden/triples.tsv --phi-step 0.25 --out-json t.json --out-dot t.dot
cmp t.json tests/golden/tree-tags.json
cmp t.dot tests/golden/tree-tags.dot
# A rerun into the same files replaces them with the same bytes.
tagnet tree --input tests/golden/triples.tsv --phi-step 0.25 --out-json t.json --out-dot t.dot
cmp t.json tests/golden/tree-tags.json
cmp t.dot tests/golden/tree-tags.dot
tagnet tree --input tests/golden/triples.tsv --family users --phi-step 0.2 --include-singletons --out-json u.json --out-dot u.dot
cmp u.json tests/golden/tree-users.json
cmp u.dot tests/golden/tree-users.dot
tagnet tree --input tests/golden/triples.tsv --family items --view items-via-tags --phi-step 0.2 --out-json i.json --out-dot i.dot
cmp i.json tests/golden/tree-items.json
cmp i.dot tests/golden/tree-items.dot
# Two outputs naming one file are a usage error, and nothing is written.
status=0
tagnet tree --input tests/golden/triples.tsv --out-json same.out --out-dot same.out || status=$?
test "$status" -eq 1
test ! -e same.out
# An output that names the input is a usage error, and the input is kept.
cp tests/golden/triples.tsv in.tsv
status=0
tagnet tree --input in.tsv --out-json in.tsv --out-dot in.dot || status=$?
test "$status" -eq 1
cmp in.tsv tests/golden/triples.tsv
test ! -e in.dot
# A phi step that is not finite is a usage error, and nothing is written.
status=0
tagnet tree --input tests/golden/triples.tsv --phi-step inf --out-json inf.json --out-dot inf.dot || status=$?
test "$status" -eq 1
test ! -e inf.json
# An empty output path is a usage error, and nothing is written.
status=0
tagnet tree --input tests/golden/triples.tsv --out-json "" --out-dot empty.dot || status=$?
test "$status" -eq 1
test ! -e empty.dot
# A fully quoted CSV copy with CRLF line ends gives the same stats and tree.
python -c "import csv; rows = list(csv.reader(open('tests/golden/triples.tsv', newline=''), delimiter='\t')); f = open('q.csv', 'w', newline=''); csv.writer(f, quoting=csv.QUOTE_ALL).writerows(rows); f.close()"
tagnet stats --input tests/golden/triples.tsv > s-tsv.out
tagnet stats --input q.csv --format csv > s-csv.out
diff s-tsv.out s-csv.out
tagnet tree --input q.csv --format csv --phi-step 0.25 --out-json q.json --out-dot q.dot
cmp q.json tests/golden/tree-tags.json
cmp q.dot tests/golden/tree-tags.dot
# The header, 2,000 copies of the body, then the body fully quoted with
# CRLF line ends (about 464 KB): str.split reads the unquoted blocks and
# csv.reader the rest, and stats and tree are the golden file's.
python -c "import csv; lines = open('tests/golden/triples.tsv', newline='').readlines(); f = open('big.tsv', 'w', newline=''); f.write(lines[0] + ''.join(lines[1:]) * 2000); csv.writer(f, delimiter='\t', quoting=csv.QUOTE_ALL, lineterminator='\r\n').writerows(csv.reader(lines[1:], delimiter='\t')); f.close()"
tagnet stats --input big.tsv > s-big.out
diff s-tsv.out s-big.out
tagnet tree --input big.tsv --phi-step 0.25 --out-json big.json --out-dot big.dot
cmp big.json tests/golden/tree-tags.json
cmp big.dot tests/golden/tree-tags.dot

# Installed tagnet reproduces the golden stats, compare and synth output.
# stdout as test_golden_stats and test_golden_compare pin it.
tagnet stats --input tests/golden/triples.tsv > s.out
printf 'users: 5\nitems: 6\ntags: 6\nitems per user: 3.000000\nusers per item: 2.500000\n' | diff - s.out
tagnet compare ann bob --input tests/golden/triples.tsv > c.out
printf 'cosine: 0.666667\ndistance: 1.162708\n' | diff - c.out
printf 'communities = 2\ntags_per_community = 3\nusers_per_community = 2\nitems_per_community = 3\nseed = 5\n' > planted.cfg
tagnet synth --config planted.cfg --out p1.tsv
tagnet synth --config planted.cfg --out p2.tsv
cmp p1.tsv p2.tsv
# A truth file in a missing directory is a data error, and nothing is written.
status=0
tagnet synth --config planted.cfg --out p3.tsv --truth-out nodir/t.tsv || status=$?
test "$status" -eq 2
test ! -e p3.tsv
# An input that ends inside its byte-order mark is a data error.
python -c "open('cut.tsv', 'wb').write(b'\xef\xbb')"
status=0
tagnet stats --input cut.tsv 2> cut.err || status=$?
test "$status" -eq 2
grep -q "undecodable byte at offset 0" cut.err
