"""Deterministic readers and writers for triples files and trees."""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import stat
from io import StringIO, TextIOWrapper
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from typing import Iterable

import numpy as np

from .diversity import ActivityReport
from .model import DataError, TaggingEvent, Triples, _reject
from .percolation import IslandTree

logger = logging.getLogger(__name__)

_HEADER = ("user", "item", "tag")
_DELIMITERS = {"tsv": "\t", "csv": ","}

#: DOT node width in inches per sqrt(member count).
DOT_WIDTH_SCALE = 0.5

#: Bytes that read_triples reads per block. Larger is slower: at 1 MiB a
#: block, its text and its fields pass malloc's 128 KiB mmap threshold and a
#: 1 MiB L2 cache, and reading a 2.4 MB file took 54-56 ms, not 30-36 ms.
BLOCK_BYTES = 32 * 1024

#: Rows that read_triples tokenizes per step with csv.reader. It stays below
#: the cyclic GC's first threshold (700 allocations), so a chunk's row lists
#: are freed before they can set off a collection.
CHUNK_ROWS = 512

#: Island records that write_tree_json formats and joins per write.
CHUNK_ISLANDS = 1024


def read_triples(path, fmt: str = "tsv", strict: bool = False) -> Triples:
    """Read a user/item/tag triples file into interned Triples columns.

    The file is decoded as UTF-8 (a leading byte-order mark is dropped) and
    read BLOCK_BYTES at a time: str.split splits blocks while they are _plain,
    then csv.reader the rest, CHUNK_ROWS rows at a time, to the same fields
    and lines. Fields are stripped and blank lines ignored; a 'user item tag'
    header row is auto-detected and skipped. Malformed lines are skipped with
    a warning, or abort the read in strict mode; a line that csv.reader
    cannot tokenize aborts it in either mode. The file is read in full before
    this returns, and build_network takes the columns as they are.
    """
    delimiter = _delimiter(fmt)
    codes_of, columns, header = _Interner(), [], True
    lines = 0  # line count after the split blocks; start is the file offset after them
    with open(path, "rb") as fh:
        start = fh.seek(3 if fh.read(3) == b"\xef\xbb\xbf" else 0)  # past a byte-order mark
        try:
            while block := _plain(fh.read(BLOCK_BYTES), delimiter):
                fh.seek(start + len(block))  # the next block starts after this one
                text = block.decode("utf-8").replace("\n", delimiter)
                codes = codes_of.codes(text.split(delimiter), block.count(b"\n"))
                if not codes.all():  # csv.reader reports the empty fields' lines
                    break
                skip = header and tuple(codes_of.names[c] for c in codes[:, 0].tolist()) == _HEADER
                columns.append(codes[:, skip:])
                header, start, lines = False, start + len(block), lines + codes.shape[1]
            fh.seek(start)
            tail = TextIOWrapper(fh, "utf-8", newline="")
            reader = csv.reader(tail, delimiter=delimiter)
            while rows := list(islice(reader, CHUNK_ROWS)):
                n = len(rows)
                lengths = np.fromiter(map(len, rows), np.intp, n)
                full, blank = lengths == 3, lengths == 0
                for k in np.flatnonzero(lengths == 1).tolist():
                    blank[k] = not rows[k][0].strip()
                # A row without three fields is coded as three empty ones (code 0).
                fields = rows if full.all() else [r if len(r) == 3 else ("", "", "") for r in rows]
                codes = codes_of.codes(chain.from_iterable(fields), n)
                keep = full & codes.all(axis=0)
                bad = ~(keep | blank)
                if header and not blank.all():  # the first non-blank row
                    k, header = np.argmin(blank), False
                    keep[k] &= tuple(codes_of.names[c] for c in codes[:, k].tolist()) != _HEADER
                if bad.any():
                    _report(rows, bad, lines + reader.line_num, path, strict)
                columns.append(codes[:, keep])
        except UnicodeDecodeError as exc:
            offset = fh.tell() - len(exc.object) + exc.start  # the failed input ends at fh
            raise DataError(f"{path}: undecodable byte at offset {offset}") from exc
        except csv.Error as exc:
            raise DataError(f"{path}:{lines + reader.line_num}: {exc}") from exc
    users, items, tags = np.concatenate([np.zeros((3, 0), np.int32), *columns], axis=1)
    return Triples(codes_of.names, users, items, tags)


def _plain(data: bytes, delimiter: str) -> bytes:
    """data through its last newline, or b"" unless csv.reader reads its lines as
    str.split does: two delimiters each, no quote, CR or NUL, none over the limit."""
    block = data[:data.rfind(b"\n") + 1]
    b = np.frombuffer(block, np.uint8)
    ends, seps = np.flatnonzero(b == 10), np.flatnonzero(b == ord(delimiter))
    # Delimiters 2k and 2k + 1 lie between the ends of lines k - 1 and k.
    return block if (len(block) <= csv.field_size_limit() and len(seps) == 2 * len(ends)
                     and not any(c in block for c in (b'"', b"\r", b"\0"))
                     and (seps[1::2] < ends).all() and (seps[2::2] > ends[:-1]).all()) else b""


class _Interner(dict):
    """Field -> code of its stripped name in names, interned on first use."""

    def __init__(self) -> None:
        super().__init__({"": 0})
        self.names = [""]

    def __missing__(self, field: str) -> int:
        name = field.strip()
        if name not in self:
            self[name] = len(self.names)
            self.names.append(name)
        self[field] = self[name]
        return self[field]

    def codes(self, fields: Iterable[str], n: int) -> np.ndarray:
        """(3, n) codes of the first n rows of fields, given row by row."""
        return np.fromiter(map(self.__getitem__, fields), np.int32, 3 * n).reshape(n, 3).T


def _report(rows: list[list[str]], bad: np.ndarray, line_num: int, path, strict: bool) -> None:
    """Reject the malformed rows of a chunk, naming the line csv.reader was
    on when it returned each; line_num is where it ended the chunk."""
    # A row spans one line, plus one per line break inside its quoted fields.
    spans = [1 + sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row) for row in rows]
    ends = line_num - sum(spans) + np.cumsum(spans)
    for k in np.flatnonzero(bad).tolist():
        _reject(f"{path}:{ends[k]}: malformed record {rows[k]!r}", strict, logger)


def _delimiter(fmt: str) -> str:
    try:
        return _DELIMITERS[fmt]
    except KeyError:
        raise ValueError(f"unknown triples format: {fmt!r}") from None


def _create(path):
    """Open path to write UTF-8 text, newlines untranslated, as a new file.

    An existing regular file is unlinked first: on ext4, truncating (or
    renaming over) a file written moments ago waits until its old data
    reaches the disk, and unlinking does not. So hard links to the old file
    keep its bytes, and the new file gets the umask's mode. Symlinks,
    devices, FIFOs and files that cannot be unlinked are written in place.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except OSError:
        pass  # absent or not removable: open() truncates it or reports the error
    return open(path, "w", encoding="utf-8", newline="")


def write_triples(events: Iterable[TaggingEvent], path, fmt: str = "tsv") -> None:
    """Write one user/item/tag line per attribution, in event order.

    Every line is formatted and encoded before _create unlinks the old file,
    so a name that cannot be encoded (or a failing events iterable) leaves
    the old file, or none, in place.
    """
    text = StringIO()
    writer = csv.writer(text, delimiter=_delimiter(fmt), lineterminator="\n")
    writer.writerows((event.user, event.item, tag) for event in events for tag in event.tags)
    document = text.getvalue().encode("utf-8")
    with _create(path) as fh:
        fh.buffer.write(document)


def write_tree_json(tree: IslandTree, path, report: ActivityReport | None = None) -> None:
    """JSON document of the sweep: levels plus one record per island.

    Islands appear in (level, smallest member id) order with the virtual
    root first; singletons are kept and carry a rendering-hint marker. The
    bytes are json.dump(doc, indent=2, sort_keys=True)'s plus a final newline:
    sorted keys, a two-space indent, ASCII with \\uXXXX escapes (surrogate
    pairs above U+FFFF), floats as Python's shortest repr and null for None.
    The islands of one node share its members and, in a report, its shares
    (see _check_report), so each node's text is formatted once.
    """
    _check_report(tree, report)
    names = [tree.names[m] for m in tree.ids.tolist()]
    by_name = sorted(range(len(names)), key=names.__getitem__)
    quoted = np.array([encode_basestring_ascii(names[k]) for k in by_name], object)
    rank = np.argsort(by_name)[tree.node_ranks]  # each node entry's place by name
    entries = quoted[tree.sorted_in_nodes(rank)].tolist()
    bounds, sizes = tree.node_start.tolist(), np.diff(tree.node_start).tolist()
    # A record is 7 pieces, its keys in sorted order: its node's head, id, level
    # text, node's middle, parent, phi text and node's tail. A head closes the
    # record before.
    close, key = "\n    },", ",\n      "
    color = shares = ratio = [""] * len(sizes)
    if report is not None:
        activity = [report.records[k] for k in tree.node_first.tolist()]
        color = [f'{key}"color": {_array(list(map(str, a.color)), 6)}' for a in activity]
        shares = [f'{key}"p_sample": {json.dumps(a.p_sample)}{key}"p_user": {json.dumps(a.p_user)}'
                  for a in activity]
        ratio = [f'{key}"r": {json.dumps(a.ratio)}' for a in activity]
    chars = quoted[rank[tree.node_start[:-1]]].tolist()
    head = np.array([f'{close}\n    {{\n      "characteristic": {c}{k}{key}"id": '
                     for c, k in zip(chars, color)], object)
    middle = np.array([f'{key}"members": {_array(entries[lo:hi], 6)}{s}{key}"parent": '
                       for lo, hi, s in zip(bounds, bounds[1:], shares)], object)
    tail = np.array([f'{r}{key}"singleton": {"true" if n == 1 else "false"}{key}"size": {n}'
                     for r, n in zip(ratio, sizes)], object)
    del entries
    phi = [json.dumps(p) for p in tree.levels]
    level_text = np.array([f'{key}"level": {t}' for t in [*range(len(phi)), -1]], object)
    phi_text = np.array([f'{key}"phi": {p}' for p in [*phi, "null"]], object)
    # Never held whole: CHUNK_ISLANDS records at a time, beside the texts. The
    # level texts are indexed by level: the root's, -1, reads the last entry.
    with _create(path) as fh:
        fh.write(f'{{\n  "family": {encode_basestring_ascii(tree.family)},\n  "islands": [')
        for lo in range(0, tree.node.size, CHUNK_ISLANDS):
            hi = min(lo + CHUNK_ISLANDS, tree.node.size)
            at, level = tree.node[lo:hi], tree.level[lo:hi]
            texts = [None] * (7 * (hi - lo))
            texts[0::7] = head[at].tolist()
            texts[1::7] = map(str, range(lo, hi))
            texts[2::7] = level_text[level].tolist()
            texts[3::7] = middle[at].tolist()
            texts[4::7] = map(str, tree.parent[lo:hi].tolist())
            texts[5::7] = phi_text[level].tolist()
            texts[6::7] = tail[at].tolist()
            if lo == 0:  # the root opens the list and has no parent
                texts[0], texts[4] = texts[0][len(close):], "null"
            fh.write("".join(texts))
        fh.write(f'\n    }}\n  ],\n  "levels": {_array(phi, 2)},\n  "root": 0\n}}\n')


def _array(items: list[str], indent: int) -> str:
    """JSON array of item texts, laid out as json.dump(indent=2) does at indent."""
    pad = "\n" + " " * indent
    return f"[{pad}  " + f",{pad}  ".join(items) + f"{pad}]" if items else "[]"


def write_tree_dot(
    tree: IslandTree,
    path,
    report: ActivityReport | None = None,
    include_singletons: bool = False,
) -> None:
    """DOT digraph of the island forest, edges parent -> child.

    Nodes are squares with width proportional to sqrt(member count) and the
    characteristic name as label. Singleton islands are omitted unless
    include_singletons is set; the root is always drawn. Activity colors
    fill the nodes when a report is given.
    """
    _check_report(tree, report)
    size = np.diff(tree.node_start).tolist()
    member = tree.ids[tree.node_ranks[tree.node_start[:-1]]].tolist()
    drawn = (np.arange(tree.node.size) if include_singletons  # a drawn island's parent is drawn
             else np.flatnonzero((np.diff(tree.node_start)[tree.node] > 1) | (tree.level < 0)))
    ks, js = drawn.tolist(), tree.node[drawn].tolist()
    attrs = dict.fromkeys(js)  # each drawn node's attributes, formatted once
    for j in attrs:
        width = DOT_WIDTH_SCALE * math.sqrt(size[j])
        label = tree.names[member[j]].replace("\\", "\\\\").replace('"', '\\"')
        attrs[j] = f'label="{label}", width={width:.3f}, height={width:.3f}'
        if report is not None:
            color = report.records[tree.node_first[j]].color
            attrs[j] += f', style=filled, fillcolor="#{color[0]:02x}{color[1]:02x}{color[2]:02x}"'
    lines = ["digraph islands {", "  rankdir=TB;", "  node [shape=square, fixedsize=true];"]
    lines += [f"  n{k} [{attrs[j]}];" for k, j in zip(ks, js)]
    lines += [f"  n{p} -> n{k};" for k, p in zip(ks, tree.parent[drawn].tolist()) if p >= 0]
    lines.append("}")
    document = ("\n".join(lines) + "\n").encode("utf-8")  # fails before _create unlinks
    with _create(path) as fh:
        fh.buffer.write(document)


def _check_report(tree: IslandTree, report: ActivityReport | None) -> None:
    """Reject a report that does not cover the tree, holds a share or a ratio
    p_user / p_sample that is NaN, infinite or negative (JSON has no text for
    the first two), or whose shares differ between the islands of one node: the
    writers format one text per node. Shares compare bit for bit, since 0.0 and
    -0.0 print apart. island_activity gives each node one set of shares."""
    if report is None:
        return
    shares = np.stack([report.p_sample, report.p_user]).astype(float)
    ratios = [u / s for s, u in shares.T.tolist() if s > 0]  # checked before records divides
    if not ((0.0 <= shares) & (shares < np.inf)).all() or math.inf in ratios:
        raise ValueError("activity shares and ratios must be finite and nonnegative")
    if report.records.keys() != set(range(len(tree.level))):
        raise ValueError("activity report does not cover this tree")
    bits = shares.view(np.int64)
    if not np.array_equal(bits, bits[:, tree.node_first[tree.node]]):
        raise ValueError("activity shares differ between islands of one node")
