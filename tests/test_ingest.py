"""Columnar ingest: read_triples and build_network against a line-by-line
reference, chunk boundaries, line numbers and the byte-order mark."""

import csv
import io
import logging
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import tagnet.io as tio
from tagnet import DataError, TaggingEvent, build_network, read_triples
from tagnet.model import NORMALIZERS, EntityRegistry, TripartiteNetwork

from conftest import pair_arrays


# -- line-by-line reference ---------------------------------------------------

def reference_events(path, fmt, strict, warnings):
    """Grouped TaggingEvents as a per-line reader yields them."""
    text = Path(path).read_bytes().decode("utf-8-sig")
    reader = csv.reader(io.StringIO(text, newline=""), delimiter={"tsv": "\t", "csv": ","}[fmt])
    groups, saw_first_row = {}, False
    for row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        fields = [f.strip() for f in row]
        if not saw_first_row:
            saw_first_row = True
            if tuple(fields) == ("user", "item", "tag"):
                continue
        if len(fields) != 3 or not all(fields):
            message = f"{path}:{reader.line_num}: malformed record {row!r}"
            if strict:
                raise DataError(message)
            warnings.append(f"skipping {message}")
            continue
        group = groups.setdefault((fields[0], fields[1]), [])
        if fields[2] not in group:
            group.append(fields[2])
    return [TaggingEvent(u, i, tuple(tags)) for (u, i), tags in groups.items()]


def reference_network(events, norm, strict, warnings):
    """Registries and pair map built one event and one tag at a time."""
    users, items, tags, pairs = {}, {}, {}, {}
    for pos, event in enumerate(events):
        if not event.user or not event.item:
            message = f"event #{pos}: empty user or item name"
        else:
            kept = [t for t in dict.fromkeys(norm(t) for t in event.tags) if t]
            if kept:
                uid = users.setdefault(event.user, len(users))
                iid = items.setdefault(event.item, len(items))
                group = pairs.setdefault((uid, iid), [])
                for name in kept:
                    tid = tags.setdefault(name, len(tags))
                    if tid not in group:
                        group.append(tid)
                continue
            message = (f"event #{pos} ({event.user!r}, {event.item!r}): "
                       "no tags left after normalization")
        if strict:
            raise DataError(message)
        warnings.append(f"skipping {message}")
    registries = [EntityRegistry(kind, list(names), dict(names))
                  for kind, names in (("user", users), ("item", items), ("tag", tags))]
    return TripartiteNetwork(*registries, pair_arrays(pairs))


@contextmanager
def captured_warnings():
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("tagnet")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def assert_same_network(net, ref):
    for kind in ("users", "items", "tags"):
        assert getattr(net, kind).names == getattr(ref, kind).names
        assert getattr(net, kind).indices == getattr(ref, kind).indices
    assert list(net.iter_pairs()) == list(ref.iter_pairs())
    # Each matrix read on both sides: a network builds its matrices on first
    # use, so it may hold none yet.
    keys = [("user", "item"), ("item", "user"), ("item", "tag"), ("tag", "item")]
    assert list(net.INCIDENCE) == list(ref.INCIDENCE) == keys
    for key in keys:
        m, r = net.incidence(*key), ref.incidence(*key)
        assert m.shape == r.shape
        assert np.array_equal(m.indptr, r.indptr) and np.array_equal(m.indices, r.indices)
        assert np.array_equal(m.data, r.data)


# -- messy files ----------------------------------------------------------------

def drop_x(tag):
    """Case-fold, and drop tags starting with 'x' entirely."""
    tag = tag.strip().casefold()
    return "" if tag.startswith("x") else tag


def name(prefix, k, case, pad):
    text = f"{prefix}{k}"
    return pad + (text.upper() if case else text) + pad


@st.composite
def messy_files(draw):
    fmt = draw(st.sampled_from(["tsv", "csv"]))
    sep = {"tsv": "\t", "csv": ","}[fmt]
    pads = st.sampled_from(["", " ", "  "])
    valid = st.builds(
        lambda u, i, t, cu, ci, ct, p: sep.join(
            [name("u", u, cu, p), name("i", i, ci, p), name(t[0], t[1], ct, p)]),
        st.integers(0, 3), st.integers(0, 3),
        st.tuples(st.sampled_from(["t", "x"]), st.integers(0, 4)),
        st.booleans(), st.booleans(), st.booleans(), pads,
    )
    malformed = st.sampled_from([
        "broken", f"u1{sep}i1", f"u1{sep}i1{sep}t1{sep}extra", f"u1{sep}{sep}t1",
        f"u1{sep}i1{sep}  ", f" {sep}i1{sep}t1",
    ])
    blank = st.sampled_from(["", "   "])
    lines = draw(st.lists(st.one_of(valid, valid, valid, malformed, blank), max_size=30))
    if lines and draw(st.booleans()):  # duplicate lines
        lines += draw(st.lists(st.sampled_from(lines), max_size=6))
    if fmt == "csv" and draw(st.booleans()):  # a quoted tag across lines
        lines.insert(draw(st.integers(0, len(lines))), 'u9,i9,"t\nq"')
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, 2)) if lines else 0,
                     draw(st.sampled_from(["user", " user "])) + f"{sep}item{sep}tag")
    plain = draw(st.integers(0, len(lines)))  # lines ending in LF alone, then a mix
    endings = ["\n"] * plain + draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                                            min_size=len(lines) - plain,
                                            max_size=len(lines) - plain))
    text = "".join(line + end for line, end in zip(lines, endings))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return fmt, bom + text


@given(
    data=messy_files(),
    normalize=st.sampled_from(["default", "exact", drop_x]),
    strict=st.booleans(),
    chunk=st.sampled_from([1, 2, 3, tio.CHUNK_ROWS]),
    # Small blocks split a plain prefix of the file and leave csv.reader the
    # rest from its first quote, CRLF, blank or malformed line; one byte
    # leaves csv.reader the whole file.
    block=st.sampled_from([1, 16, 64, tio.BLOCK_BYTES]),
)
# Only well-formed lines, in one chunk, with the lines of pair (u1, i1) apart.
@example(data=("tsv", "u1\ti1\tt1\nu2\ti2\tt2\nu1\ti1\tt3\nu2\ti1\tt1\n"),
         normalize="default", strict=False, chunk=tio.CHUNK_ROWS, block=tio.BLOCK_BYTES)
# A malformed line, then in its chunk a quoted field over two lines.
@example(data=("csv", 'u1,i1\nu2,i2,"t\nq"\n'),
         normalize="default", strict=False, chunk=tio.CHUNK_ROWS, block=tio.BLOCK_BYTES)
# A split header row, then a malformed line that csv.reader reads from line 3.
@example(data=("tsv", "user\titem\ttag\nu1\ti1\tt1\nu2\t\tt2\n"),
         normalize="default", strict=False, chunk=tio.CHUNK_ROWS, block=16)
def test_columnar_ingest_matches_line_by_line_reference(data, normalize, strict, chunk, block):
    fmt, text = data
    norm = NORMALIZERS.get(normalize, normalize)
    old_chunk, old_block = tio.CHUNK_ROWS, tio.BLOCK_BYTES
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"data.{fmt}"
        path.write_bytes(text.encode("utf-8"))
        expected_warnings = []
        try:
            events = reference_events(path, fmt, strict, expected_warnings)
            ref = reference_network(events, norm, strict, expected_warnings)
        except DataError as exc:
            events, ref, error = None, None, str(exc)
        tio.CHUNK_ROWS, tio.BLOCK_BYTES = chunk, block
        try:
            with captured_warnings() as got:
                if ref is None:
                    with pytest.raises(DataError) as raised:
                        build_network(read_triples(path, fmt, strict), normalize, strict)
                    assert str(raised.value) == error
                    return
                triples = read_triples(path, fmt, strict)
                net = build_network(triples, normalize, strict)
            assert got == expected_warnings
            assert list(triples) == events
            assert_same_network(net, ref)
            # other iterables take the same columnar path
            assert_same_network(build_network(iter(events), normalize, strict), ref)
        finally:
            tio.CHUNK_ROWS, tio.BLOCK_BYTES = old_chunk, old_block


@given(
    events=st.lists(
        st.builds(
            TaggingEvent,
            st.sampled_from(["a", "b", "", " a"]),
            st.sampled_from(["x", "y", ""]),
            st.lists(st.sampled_from(["T", "t", " ", "", "xs", "u"]), max_size=3).map(tuple),
        ),
        max_size=12,
    ),
    normalize=st.sampled_from(["default", "exact", drop_x]),
)
# Pair (a, x) is rejected at its first event and kept at its second, so it is
# numbered after (b, y): users ["b", "a"], pairs (0, 0, (0,)) and (1, 1, (1,)).
@example(events=[TaggingEvent("a", "x", ("",)), TaggingEvent("b", "y", ("t",)),
                 TaggingEvent("a", "x", ("u",))], normalize="default")
def test_event_stream_matches_reference_with_rejections(events, normalize):
    norm = NORMALIZERS.get(normalize, normalize)
    expected_warnings = []
    ref = reference_network(events, norm, False, expected_warnings)
    with captured_warnings() as got:
        net = build_network(events, normalize)
    assert got == expected_warnings
    assert_same_network(net, ref)
    if expected_warnings:
        with pytest.raises(DataError) as raised:
            build_network(events, normalize, strict=True)
        assert f"skipping {raised.value}" == expected_warnings[0]


# -- regressions ----------------------------------------------------------------

def test_byte_order_mark_is_not_part_of_the_header(tmp_path):
    path = tmp_path / "bom.tsv"
    path.write_bytes("\ufeffuser\titem\ttag\nu\ti\tt\n".encode("utf-8"))
    assert list(read_triples(path)) == [TaggingEvent("u", "i", ("t",))]
    net = build_network(read_triples(path))
    assert net.users.names == ["u"] and net.items.names == ["i"] and net.tags.names == ["t"]


def test_a_file_of_a_byte_order_mark_alone_is_empty(tmp_path):
    path = tmp_path / "bom.tsv"
    path.write_bytes(b"\xef\xbb\xbf")
    assert list(read_triples(path)) == []


def _lines(n):
    return [f"u{k % 7}\ti{k % 11}\tt{k % 5}" for k in range(n)]


def test_malformed_line_after_first_chunk_reports_its_line(tmp_path, caplog):
    lines = _lines(2 * tio.CHUNK_ROWS + 10)
    bad = tio.CHUNK_ROWS + 3  # 0-based: line bad + 1 of the file
    lines[bad] = "u1\ti1"
    path = tmp_path / "data.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        triples = read_triples(path)
    assert f"{path}:{bad + 1}: malformed record" in caplog.text
    assert len(triples.users) == len(lines) - 1
    with pytest.raises(DataError, match=f":{bad + 1}: "):
        read_triples(path, strict=True)


def test_quoted_newlines_keep_csv_line_numbers(tmp_path):
    lines = _lines(tio.CHUNK_ROWS + 40)
    lines = [line.replace("\t", ",") for line in lines]
    lines[5] = 'q1,r1,"two\nlines"'
    lines[tio.CHUNK_ROWS - 1] = 'u2,i2,"three\r\nphysical\rlines"'
    lines[tio.CHUNK_ROWS + 20] = "u3,,t"
    text = "\n".join(lines) + "\n"
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    reader = csv.reader(io.StringIO(text, newline=""))
    expected = next(reader.line_num for row in reader if row == ["u3", "", "t"])
    assert expected == tio.CHUNK_ROWS + 21 + 3  # three extra physical lines
    with pytest.raises(DataError, match=f":{expected}: malformed"):
        read_triples(path, fmt="csv", strict=True)
    events = list(read_triples(path, fmt="csv"))
    assert TaggingEvent("q1", "r1", ("two\nlines",)) in events


def test_header_after_a_blank_first_chunk_is_skipped(tmp_path, monkeypatch):
    monkeypatch.setattr(tio, "CHUNK_ROWS", 2)
    path = tmp_path / "data.tsv"
    path.write_text("\n  \n\nuser\titem\ttag\nu\ti\tt\n", encoding="utf-8")
    assert list(read_triples(path)) == [TaggingEvent("u", "i", ("t",))]


# -- the split prefix and the csv.reader tail -----------------------------------

@pytest.fixture
def tail_at(monkeypatch):
    """File offsets at which read_triples handed the rest of a file to
    csv.reader; the bytes before each took the split path."""
    offsets = []

    def wrapper(fh, *args, **kwargs):
        offsets.append(fh.tell())
        return io.TextIOWrapper(fh, *args, **kwargs)

    monkeypatch.setattr(tio, "TextIOWrapper", wrapper)
    return offsets


def _outcome(path, fmt="tsv", strict=False):
    """read_triples' events and warnings, or the message of its DataError."""
    with captured_warnings() as warnings:
        try:
            return list(read_triples(path, fmt, strict)), warnings
        except DataError as exc:
            return str(exc), None


def _expected(path, fmt="tsv", strict=False):
    """The line-by-line reference's events and warnings, or its error."""
    warnings = []
    try:
        return reference_events(path, fmt, strict, warnings), warnings
    except DataError as exc:
        return str(exc), None
    except csv.Error as exc:  # csv.reader rejects NUL before Python 3.11
        return f"{path}:{_csv_error_line(path, fmt)}: {exc}", None


def _csv_error_line(path, fmt):
    """The line csv.reader is on when it fails on the file."""
    reader = csv.reader(io.StringIO(Path(path).read_text("utf-8-sig"), newline=""),
                        delimiter={"tsv": "\t", "csv": ","}[fmt])
    try:
        for _ in reader:
            pass
    except csv.Error:
        return reader.line_num


@pytest.mark.parametrize("block, head", [
    (16, ""),  # one line a block
    (64, "\ufeffuser\titem\ttag\n"),
    (tio.BLOCK_BYTES, "\ufeff user \titem\tTag\n"),
])
def test_split_path_gives_the_csv_paths_triples(tmp_path, monkeypatch, tail_at, block, head):
    monkeypatch.setattr(tio, "BLOCK_BYTES", block)
    body = "".join(f" u{k % 7}\tí{k % 11} \tT{k % 5}é\n" for k in range(3000))
    path = tmp_path / "data.tsv"
    path.write_text(head + body, encoding="utf-8")
    split = read_triples(path)
    assert tail_at == [path.stat().st_size]  # every line took the split path
    monkeypatch.setattr(tio, "_plain", lambda data, delimiter: (b"", 0))
    tail = read_triples(path)
    assert tail_at[1] == (3 if head.startswith("\ufeff") else 0)  # just past a byte-order mark
    # Names in first use, row by row, whatever the path, block or chunk size.
    rows = (head.lstrip("\ufeff") + body).splitlines()
    assert split.names == tail.names == ["", *dict.fromkeys(
        field.strip() for row in rows for field in row.split("\t"))]
    for column in ("users", "items", "tags"):
        a, b = getattr(split, column), getattr(tail, column)
        assert a.dtype == b.dtype == np.int32 and np.array_equal(a, b)
    assert split.events is None and tail.events is None
    assert list(split) == list(tail)


@pytest.mark.parametrize("block", [64, tio.BLOCK_BYTES])
@pytest.mark.parametrize("line", ["u1\ti1", "u1\t \tt1"])
def test_malformed_line_after_the_split_prefix_keeps_its_line(
    tmp_path, monkeypatch, tail_at, block, line
):
    monkeypatch.setattr(tio, "BLOCK_BYTES", block)
    lines = _lines(3 * block // 12)
    bad = len(lines) - 5  # 0-based: line bad + 1 of the file
    lines[bad] = line
    path = tmp_path / "data.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = f"{path}:{bad + 1}: malformed record {line.split(chr(9))!r}"
    with captured_warnings() as warnings:
        triples = read_triples(path)
    assert warnings == [f"skipping {message}"]
    assert len(triples.users) == len(lines) - 1
    assert 0 <= len("\n".join(lines[:bad])) + 1 - tail_at[0] < block  # split up to its block
    with pytest.raises(DataError) as raised:
        read_triples(path, strict=True)
    assert str(raised.value) == message


@pytest.mark.parametrize("block", [64, tio.BLOCK_BYTES])
@pytest.mark.parametrize("fmt, line", [
    ("tsv", 'u9\ti9\t"a\tb"'),
    ("csv", 'u9,i9,"a\nb",'),
    ("csv", 'u9,"i9",t9'),
    ("tsv", "u9\ti9\tt\r9"),  # a lone CR ends a csv row
    ("tsv", "u9\ti9\tt9\r\nu8\ti8\tt8\r"),
    ("tsv", "u9\ti9\tt\x009"),
    ("tsv", "u9\ti9\tt9\tx9\nu8\ti8"),  # three delimiters, then one
    ("tsv", "u8\ti8\nu9\ti9\tt9\tx9"),
    ("tsv", "u9\t \tt9"),
    ("tsv", "\nu9\ti9\tt9"),
])
def test_lines_that_are_not_plain_after_the_first_block_give_csvs_fields(
    tmp_path, monkeypatch, tail_at, block, fmt, line
):
    monkeypatch.setattr(tio, "BLOCK_BYTES", block)
    sep = {"tsv": "\t", "csv": ","}[fmt]
    lines = [row.replace("\t", sep) for row in _lines(3 * block // 12)]
    lines.insert(len(lines) - 10, line)
    path = tmp_path / f"data.{fmt}"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    assert _outcome(path, fmt) == _expected(path, fmt)
    assert _outcome(path, fmt, strict=True) == _expected(path, fmt, strict=True)
    # split up to the block of the inserted line, then csv.reader
    assert 0 <= len("\n".join(lines[:-11])) + 1 - tail_at[0] < block


@pytest.mark.parametrize("block", [16, 64, tio.BLOCK_BYTES])
def test_byte_order_mark_is_dropped_only_at_the_start_of_the_file(tmp_path, monkeypatch,
                                                                    block):
    # With 16-byte blocks, csv.reader takes over at the second line's U+FEFF.
    monkeypatch.setattr(tio, "BLOCK_BYTES", block)
    path = tmp_path / "data.tsv"
    path.write_text('\ufeffu\ti\tt\n\ufeffv\tj\t"q"\n', encoding="utf-8")
    assert _outcome(path) == _expected(path)
    assert list(read_triples(path))[1].user == "\ufeffv"


@pytest.mark.parametrize("block", [16, 64, tio.BLOCK_BYTES])
@pytest.mark.parametrize("text", [
    "u\ti\ta\nu\tj\tb",
    "u\ti\ta\nu\tj\tb\nbroken",
    "user\titem\ttag",
    "u\ti\ta\n\nv\tj\tb",
    "u\ti\ta\nu\tj\tb\r",
])
def test_last_line_without_a_newline(tmp_path, monkeypatch, block, text):
    monkeypatch.setattr(tio, "BLOCK_BYTES", block)
    path = tmp_path / "data.tsv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(path) == _expected(path)


def test_overlong_line_without_a_newline_raises_csvs_field_limit_error(tmp_path, tail_at):
    path = tmp_path / "data.tsv"
    path.write_text("u\ti\t" + "x" * 200_000, encoding="utf-8")
    with pytest.raises(DataError) as raised:
        read_triples(path)
    limit = csv.field_size_limit()
    assert str(raised.value) == f"{path}:1: field larger than field limit ({limit})"
    # A read with no newline in it hands the whole file to csv.reader.
    assert tail_at == [0]


def test_lower_field_size_limit_is_csvs_after_the_split_prefix(tmp_path, monkeypatch, tail_at):
    monkeypatch.setattr(tio, "BLOCK_BYTES", 64)
    old = csv.field_size_limit(100)
    try:
        lines = _lines(500)
        lines[400] = "u\ti\t" + "x" * 101
        path = tmp_path / "data.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError) as raised:
            read_triples(path)
        assert str(raised.value) == f"{path}:401: field larger than field limit (100)"
        assert tail_at[0] > 0
        # Blocks above the limit are left to csv.reader, which reads short lines
        # and rejects a long field inside such a block.
        monkeypatch.setattr(tio, "BLOCK_BYTES", 4096)
        del lines[400]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert len(read_triples(path).users) == 499
        lines[5] = "u\ti\t" + "x" * 101
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=":6: field larger than field limit"):
            read_triples(path)
    finally:
        csv.field_size_limit(old)


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
@pytest.mark.parametrize("switch, bad", [
    (None, 3), (None, 15_000),  # in the first and a later split block
    (3000, 2000), (3000, 3000), (3000, 3001), (3000, 19_999),  # before and after the switch
])
def test_undecodable_byte_offset_in_the_split_prefix_and_the_csv_tail(tmp_path, bom, switch, bad):
    lines = [f"u{k % 7}\tié{k % 11}\tt{k % 5}".encode("utf-8") for k in range(20_000)]
    if switch is not None:
        lines[switch] = b'u\ti\t"q"'  # csv.reader reads on from this line's block
    lines[bad] += b"\xff"
    path = tmp_path / "bad.tsv"
    data = bom + b"\n".join(lines) + b"\n"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as decode:
        data.decode("utf-8")
    with pytest.raises(DataError) as raised:
        read_triples(path)
    assert str(raised.value) == f"{path}: undecodable byte at offset {decode.value.start}"


@pytest.mark.parametrize("data", [b"u\ti\tt\xc3", b"u\ti\tt\n\xe2\x82", b"\xef\xbb\xbfu\ti\t\xe2",
                                  b"\xef", b"\xef\xbb"])  # the last two: a cut byte-order mark
def test_truncated_character_at_the_end_is_undecodable(tmp_path, data):
    path = tmp_path / "bad.tsv"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as decode:
        data.decode("utf-8")
    with pytest.raises(DataError) as raised:
        read_triples(path)
    assert str(raised.value) == f"{path}: undecodable byte at offset {decode.value.start}"


def test_tag_ids_follow_grouped_first_use_order(tmp_path):
    # line order uses b before c; grouped by (user, item), c comes first
    path = tmp_path / "data.tsv"
    path.write_text("u\ti\ta\nv\tj\tb\nu\ti\tc\n", encoding="utf-8")
    assert build_network(read_triples(path)).tags.names == ["a", "c", "b"]
    events = [TaggingEvent("u", "i", ("a",)), TaggingEvent("v", "j", ("b",)),
              TaggingEvent("u", "i", ("c",))]
    assert build_network(events).tags.names == ["a", "b", "c"]


def test_user_links_are_one_slice_in_item_order():
    events = [TaggingEvent("v", "x", ("c",)), TaggingEvent("u", "y", ("a", "b")),
              TaggingEvent("u", "x", ("c", "a")), TaggingEvent("w", "y", ("b",))]
    net = build_network(events)
    # u owns x (item 0) with tags c a, and y (item 1) with tags a b
    tag_ids, sizes = net.user_links(1)
    assert tag_ids.tolist() == [0, 1, 1, 2] and sizes.tolist() == [2, 2, 2, 2]
    assert [t.tolist() for t in net.user_links(2)] == [[2], [1]]
    tag_ids, sizes = net.user_links()
    assert tag_ids.tolist() == [0, 1, 2, 0, 1, 2] and sizes.tolist() == [1, 2, 2, 2, 2, 1]
    pairs = {(uid, iid): tag_ids for uid, iid, tag_ids in net.iter_pairs()}
    assert pairs[1, 0] == (0, 1) and (0, 1) not in pairs
