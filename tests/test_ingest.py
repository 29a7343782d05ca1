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
from hypothesis import given
from hypothesis import strategies as st

import tagnet.io as tio
from tagnet import DataError, TaggingEvent, build_network, read_triples
from tagnet.model import NORMALIZERS, EntityRegistry, TripartiteNetwork


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
    return TripartiteNetwork(*registries, {key: tuple(g) for key, g in pairs.items()})


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
    assert net.incidence.keys() == ref.incidence.keys()
    for key, m in net.incidence.items():
        r = ref.incidence[key]
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
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                            max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, endings))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return fmt, bom + text


@given(
    data=messy_files(),
    normalize=st.sampled_from(["default", "exact", drop_x]),
    strict=st.booleans(),
    chunk=st.sampled_from([1, 2, 3, tio.CHUNK_ROWS]),
)
def test_columnar_ingest_matches_line_by_line_reference(data, normalize, strict, chunk):
    fmt, text = data
    norm = NORMALIZERS.get(normalize, normalize)
    old_chunk = tio.CHUNK_ROWS
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"data.{fmt}"
        path.write_bytes(text.encode("utf-8"))
        expected_warnings = []
        try:
            events = reference_events(path, fmt, strict, expected_warnings)
            ref = reference_network(events, norm, strict, expected_warnings)
        except DataError as exc:
            events, ref, error = None, None, str(exc)
        tio.CHUNK_ROWS = chunk
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
            tio.CHUNK_ROWS = old_chunk


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
    assert net.pair_tag_ids(1, 0) == (0, 1) and net.pair_tag_ids(0, 1) == ()
    assert net.pair_tag_ids(-1, 0) == net.pair_tag_ids(1, 5) == ()
