"""Deterministic readers and writers for triples files, matrices, and trees."""

from __future__ import annotations

import csv
import json
import logging
import math
from itertools import compress, islice
from pathlib import Path
from typing import Iterable

import numpy as np

from .diversity import ActivityReport
from .model import DataError, TaggingEvent, Triples
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
        message = f"{path}:{line}: malformed record {rows[k]!r}"
        if strict:
            raise DataError(message)
        logger.warning("skipping %s", message)


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
    A row that does not fit the header is a DataError naming its path:line."""
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
        if len(values) < len(names):
            where = f"{path}:{reader.line_num + 1}"
            raise DataError(f"{where}: no row for {names[len(values)]!r}")
    return names, np.array(values)


def write_tree_json(tree: IslandTree, path, report: ActivityReport | None = None) -> None:
    """JSON document of the sweep: levels plus one record per island.

    Islands appear in (level, smallest member id) order with the virtual
    root first; singletons are kept and carry a rendering-hint marker.
    """
    _check_report(tree, report)
    islands = []
    for island in tree.islands:
        entry = {
            "id": island.id,
            "level": island.level,
            "phi": island.phi,
            "members": sorted(tree.names[m] for m in island.members),
            "size": island.size,
            "parent": island.parent,
            "characteristic": tree.names[island.characteristic],
            "singleton": island.is_singleton,
        }
        if report is not None:
            record = report.records[island.id]
            entry["p_sample"] = record.p_sample
            entry["p_user"] = record.p_user
            entry["r"] = record.ratio
            entry["color"] = list(record.color)
        islands.append(entry)
    doc = {
        "family": tree.family,
        "levels": tree.levels,
        "root": tree.root.id,
        "islands": islands,
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    # A parent is drawn before its children, so each edge is known at its child.
    rendered, edges = set(), []
    for island in tree.islands:
        if island.level >= 0 and island.is_singleton and not include_singletons:
            continue
        rendered.add(island.id)
        if island.parent in rendered:
            edges.append(f"  n{island.parent} -> n{island.id};")
        width = DOT_WIDTH_SCALE * math.sqrt(island.size)
        label = _dot_escape(tree.names[island.characteristic])
        attrs = [f'label="{label}"', f"width={width:.3f}", f"height={width:.3f}"]
        if report is not None:
            color = report.records[island.id].color
            attrs.append("style=filled")
            attrs.append(f'fillcolor="#{color[0]:02x}{color[1]:02x}{color[2]:02x}"')
        lines.append(f"  n{island.id} [{', '.join(attrs)}];")
    lines += edges
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_report(tree: IslandTree, report: ActivityReport | None) -> None:
    if report is None:
        return
    if set(report.records) != {island.id for island in tree.islands}:
        raise ValueError("activity report does not cover this tree")


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')
