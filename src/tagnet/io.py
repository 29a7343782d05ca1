"""Deterministic readers and writers for triples files, matrices, and trees."""

from __future__ import annotations

import csv
import json
import logging
import math
from itertools import compress, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable

import numpy as np

from .diversity import ActivityReport
from .model import DataError, TaggingEvent, Triples, _reject
from .percolation import IslandTree
from .projection import CorrelationMatrix

logger = logging.getLogger(__name__)

_HEADER = ("user", "item", "tag")
_DELIMITERS = {"tsv": "\t", "csv": ","}

#: DOT node width in inches per sqrt(member count).
DOT_WIDTH_SCALE = 0.5

#: Rows that read_triples tokenizes per step. It stays below the cyclic
#: GC's first threshold (700 allocations), so a chunk's row lists are freed
#: before they can set off a collection.
CHUNK_ROWS = 512


def read_triples(path, fmt: str = "tsv", strict: bool = False) -> Triples:
    """Read a user/item/tag triples file into interned Triples columns.

    The file is decoded as UTF-8 (a leading byte-order mark is dropped) and
    tokenized by csv.reader CHUNK_ROWS rows at a time, so its whole text is
    never held at once. Fields are stripped and blank lines ignored; a
    'user item tag' header row is auto-detected and skipped. Malformed lines
    are skipped with a warning, or abort the read in strict mode. The file
    is read in full before this returns, not lazily: iterating the result
    yields the lines grouped by (user, item), tags in first-use order, as
    TaggingEvents, and build_network takes it without that iteration.
    """
    delimiter = _delimiter(fmt)
    codes_of, columns, header = _Interner(), [], True
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            while rows := list(islice(reader, CHUNK_ROWS)):
                lengths = np.fromiter(map(len, rows), np.intp, len(rows))
                full = lengths == 3
                codes = np.zeros((3, len(rows)), np.int32)  # code 0: empty field
                for column, fields in zip(codes, zip(*compress(rows, full.tolist()))):
                    column[full] = np.fromiter(
                        map(codes_of.__getitem__, fields), np.int32, len(fields)
                    )
                blank = lengths == 0
                for k in np.flatnonzero(lengths == 1).tolist():
                    blank[k] = not rows[k][0].strip()
                keep = full & codes.all(axis=0)
                bad = ~(keep | blank)
                if header and not blank.all():  # the first non-blank row
                    k, header = np.argmin(blank), False
                    fields = tuple(codes_of.names[c] for c in codes[:, k].tolist())
                    keep[k] &= fields != _HEADER
                if bad.any():
                    _report(rows, bad, reader.line_num, path, strict)
                columns.append(codes[:, keep])
    except UnicodeDecodeError as exc:
        offset = _undecodable(path)
        raise DataError(f"{path}: undecodable byte at offset {offset}") from exc
    users, items, tags = np.concatenate([np.zeros((3, 0), np.int32), *columns], axis=1)
    return Triples(codes_of.names, users, items, tags)


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


def _report(
    rows: list[list[str]], bad: np.ndarray, line_num: int, path, strict: bool
) -> None:
    """Reject the malformed rows of a chunk, naming the line csv.reader was
    on when it returned each; line_num is where it ended the chunk."""
    # a row spans one line plus the line breaks inside its quoted fields
    ends = np.cumsum([
        1 + sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row)
        for row in rows
    ])
    for k in np.flatnonzero(bad).tolist():
        line = line_num - ends[-1] + ends[k]
        _reject(f"{path}:{line}: malformed record {rows[k]!r}", strict, logger)


def _undecodable(path) -> int:
    """File offset of the first byte that is not UTF-8."""
    try:
        Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        return exc.start


def _delimiter(fmt: str) -> str:
    try:
        return _DELIMITERS[fmt]
    except KeyError:
        raise ValueError(f"unknown triples format: {fmt!r}") from None


def write_triples(events: Iterable[TaggingEvent], path, fmt: str = "tsv") -> None:
    """Write one user/item/tag line per attribution, in event order."""
    delimiter = _delimiter(fmt)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        for event in events:
            for tag in event.tags:
                writer.writerow([event.user, event.item, tag])


def write_matrix(C: CorrelationMatrix, path) -> None:
    """CSV with a member-name header row and column; 6 decimal places."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([""] + list(C.names))
        for name, row in zip(C.names, C.dense()):
            writer.writerow([name] + [f"{float(v):.6f}" for v in row])


def read_matrix(path) -> tuple[list[str], np.ndarray]:
    """Read back a matrix written by write_matrix; returns (names, values).
    A malformed, non-finite or asymmetric row is a DataError naming its path:line."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty matrix file")
        names, values = header[1:], []
        for k, row in enumerate(reader):
            where = f"{path}:{reader.line_num}"
            if row[:1] != names[k:k + 1]:
                raise DataError(f"{where}: row {row[:1]}, expected {names[k:k + 1]}")
            if len(row) != len(header):
                raise DataError(f"{where}: {len(row) - 1} cells, expected {len(names)}")
            try:
                values.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise DataError(f"{where}: {exc}") from None
            if not all(map(math.isfinite, values[k])):
                raise DataError(f"{where}: non-finite value in row {names[k]!r}")
            for j in range(k):
                if values[k][j] != values[j][k]:
                    raise DataError(f"{where}: {names[k]!r},{names[j]!r} is asymmetric")
        if len(values) < len(names):
            where = f"{path}:{reader.line_num + 1}"
            raise DataError(f"{where}: no row for {names[len(values)]!r}")
    return names, np.array(values)


def write_tree_json(tree: IslandTree, path, report: ActivityReport | None = None) -> None:
    """JSON document of the sweep: levels plus one record per island.

    Islands appear in (level, smallest member id) order with the virtual
    root first; singletons are kept and carry a rendering-hint marker. The
    bytes are json.dump(doc, indent=2, sort_keys=True)'s plus a final newline:
    sorted keys, a two-space indent, ASCII with \\uXXXX escapes (surrogate
    pairs above U+FFFF), floats as Python's shortest repr and null for None.
    """
    _check_report(tree, report)
    by_name = sorted(tree.names, key=tree.names.__getitem__)
    rank = dict(zip(by_name, range(len(by_name))))
    quoted = [encode_basestring_ascii(tree.names[m]) for m in by_name]
    island, sizes, characteristic = tree.layout
    ranks = np.array([rank[m] for m in tree.members.tolist()])
    texts = [quoted[r] for r in ranks[np.lexsort((ranks, island))].tolist()]
    bounds, levels, sizes = tree.start.tolist(), tree.level.tolist(), sizes.tolist()
    phi = [json.dumps(p) for p in tree.levels]
    columns = {
        "characteristic": [quoted[rank[m]] for m in characteristic.tolist()],
        "id": range(len(levels)),
        "level": levels,
        "members": (_array(texts[lo:hi], 6) for lo, hi in zip(bounds, bounds[1:])),
        "parent": ["null" if p < 0 else p for p in tree.parent.tolist()],
        "phi": ["null" if level < 0 else phi[level] for level in levels],
        "singleton": ["true" if size == 1 else "false" for size in sizes],
        "size": sizes,
    }
    if report is not None:
        activity = [report.records[k] for k in range(len(levels))]
        columns["color"] = [_array(list(map(str, a.color)), 6) for a in activity]
        columns["p_sample"] = [json.dumps(a.p_sample) for a in activity]
        columns["p_user"] = [json.dumps(a.p_user) for a in activity]
        columns["r"] = [json.dumps(a.ratio) for a in activity]
    keys = sorted(columns)
    record = "{\n" + ",\n".join(f'      "{key}": %s' for key in keys) + "\n    }"
    islands = (record % row for row in zip(*(columns[key] for key in keys)))
    with open(path, "w", encoding="utf-8", newline="") as fh:  # never held whole
        fh.write(f'{{\n  "family": {encode_basestring_ascii(tree.family)},\n')
        fh.write(f'  "islands": [\n    {next(islands)}')  # the root
        fh.writelines(",\n    " + text for text in islands)
        fh.write(f'\n  ],\n  "levels": {_array(phi, 2)},\n  "root": 0\n}}\n')


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
    lines = [
        "digraph islands {",
        "  rankdir=TB;",
        "  node [shape=square, fixedsize=true];",
    ]
    # A drawn island's parent is drawn too: it holds at least as many members.
    edges = []
    sizes, characteristic = (a.tolist() for a in tree.layout[1:])
    for k, (level, parent) in enumerate(zip(tree.level.tolist(), tree.parent.tolist())):
        if level >= 0 and sizes[k] == 1 and not include_singletons:
            continue
        if parent >= 0:
            edges.append(f"  n{parent} -> n{k};")
        width = DOT_WIDTH_SCALE * math.sqrt(sizes[k])
        label = tree.names[characteristic[k]].replace("\\", "\\\\").replace('"', '\\"')
        attrs = [f'label="{label}"', f"width={width:.3f}", f"height={width:.3f}"]
        if report is not None:
            color = report.records[k].color
            attrs.append("style=filled")
            attrs.append(f'fillcolor="#{color[0]:02x}{color[1]:02x}{color[2]:02x}"')
        lines.append(f"  n{k} [{', '.join(attrs)}];")
    lines += edges
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_report(tree: IslandTree, report: ActivityReport | None) -> None:
    if report is not None and report.records.keys() != set(range(len(tree.level))):
        raise ValueError("activity report does not cover this tree")
