import json
import math
import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import tagnet.cli
import tagnet.io
from tagnet import (
    ActivityReport,
    CorrelationMatrix,
    DataError,
    FilterGrid,
    build_tree,
    island_activity,
    read_triples,
    write_tree_dot,
    write_tree_json,
    write_triples,
)
from tagnet.diversity import TagSpectrum

from conftest import ev


def write(tmp_path, text, name="data.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# -- read_triples -------------------------------------------------------------

def test_lines_group_by_user_item(tmp_path):
    path = write(tmp_path, "u1\ti1\trock\nu1\ti1\tpop\n")
    events = list(read_triples(path))
    assert len(events) == 1
    assert events[0].user == "u1" and events[0].item == "i1"
    assert events[0].tags == ("rock", "pop")


def test_empty_file_yields_nothing(tmp_path):
    assert list(read_triples(write(tmp_path, ""))) == []


def test_header_row_is_skipped(tmp_path):
    path = write(tmp_path, "user\titem\ttag\nu\ti\tt\n")
    events = list(read_triples(path))
    assert len(events) == 1 and events[0].tags == ("t",)


def test_crlf_and_blank_lines_tolerated(tmp_path):
    path = write(tmp_path, "u\ti\ta\r\n\r\nu\tj\tb\r\n")
    events = list(read_triples(path))
    assert [(e.user, e.item, e.tags) for e in events] == [
        ("u", "i", ("a",)), ("u", "j", ("b",)),
    ]


def test_csv_format_with_quoting(tmp_path):
    path = write(tmp_path, 'u,i,"tag, with comma"\n', name="data.csv")
    events = list(read_triples(path, fmt="csv"))
    assert events[0].tags == ("tag, with comma",)


def test_malformed_line_skipped_with_warning(tmp_path, caplog):
    path = write(tmp_path, "u\ti\ta\nbroken line\nu\tj\tb\n")
    with caplog.at_level("WARNING"):
        events = list(read_triples(path))
    assert len(events) == 2
    assert ":2:" in caplog.text


def test_malformed_line_warning_comes_from_the_io_logger(tmp_path, caplog):
    # The CLI prints it as "WARNING tagnet.io: skipping <path>:<line>: ...".
    path = write(tmp_path, "u\ti\ta\nu\tj\n")
    with caplog.at_level("WARNING"):
        read_triples(path)
    assert [(r.name, r.getMessage()) for r in caplog.records] == [
        ("tagnet.io", f"skipping {path}:2: malformed record ['u', 'j']")
    ]


def test_malformed_line_aborts_in_strict_mode(tmp_path):
    path = write(tmp_path, "u\ti\ta\nu\tj\n")
    with pytest.raises(DataError, match=":2"):
        list(read_triples(path, strict=True))


def test_empty_tag_field_strict_aborts_with_line_number(tmp_path):
    path = write(tmp_path, "u\ti\ta\nu\tj\t  \n")
    with pytest.raises(DataError, match=":2"):
        list(read_triples(path, strict=True))


def test_undecodable_bytes_abort_with_offset(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"u\ti\ta\nu\tj\t\xff\xfe\n")
    with pytest.raises(DataError, match="offset 10"):
        list(read_triples(path))


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        list(read_triples(write(tmp_path, ""), fmt="xml"))


def test_write_then_read_roundtrip(tmp_path):
    events = [ev("u1", "i1", "a", "b"), ev("u2", "i2", "c")]
    path = tmp_path / "out.tsv"
    write_triples(events, path)
    back = list(read_triples(path))
    assert {(e.user, e.item, e.tags) for e in back} == {
        ("u1", "i1", ("a", "b")), ("u2", "i2", ("c",)),
    }


# -- tree exports -------------------------------------------------------------

def _identity_tree(n=3):
    return build_tree(CorrelationMatrix.from_dense(np.eye(n), family="tag"))


def _two_block_tree():
    c = np.full((6, 6), 0.1)
    c[:3, :3] = 0.75
    c[3:, 3:] = 0.75
    np.fill_diagonal(c, 1.0)
    return build_tree(CorrelationMatrix.from_dense(c, family="tag"))


def test_identity_tree_json_root_plus_singletons(tmp_path):
    path = tmp_path / "t.json"
    write_tree_json(_identity_tree(), path)
    doc = json.loads(path.read_text())
    assert doc["levels"] == [0.0]
    root = doc["islands"][0]
    assert root["level"] == -1 and root["phi"] is None and root["parent"] is None
    leaves = [i for i in doc["islands"] if i["level"] == 0]
    assert len(leaves) == 3
    assert all(i["singleton"] and i["size"] == 1 for i in leaves)


def test_two_block_tree_json_structure(tmp_path):
    path = tmp_path / "t.json"
    write_tree_json(_two_block_tree(), path)
    doc = json.loads(path.read_text())
    mids = [i for i in doc["islands"]
            if i["level"] >= 0 and 0.1 <= i["phi"] < 0.75 and not i["singleton"]]
    by_level = {}
    for entry in mids:
        by_level.setdefault(entry["level"], []).append(entry)
    assert by_level and all(len(v) == 2 for v in by_level.values())
    assert all(sorted(e["members"]) == e["members"] for e in doc["islands"])


def test_tree_json_stable_and_sorted(tmp_path):
    tree = _two_block_tree()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_tree_json(tree, p1)
    write_tree_json(tree, p2)
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert list(doc) == sorted(doc)
    islands = doc["islands"]
    order = [(i["level"], min(i["members"])) for i in islands]
    assert order == sorted(order)


def test_tree_json_report_mismatch_rejected(tmp_path):
    tree = _identity_tree()
    sample = TagSpectrum("sample", {0: 1, 1: 1, 2: 1})
    user = TagSpectrum(0, {0: 1})
    report = island_activity(tree, user, sample)
    del report.records[max(report.records)]
    with pytest.raises(ValueError):
        write_tree_json(tree, tmp_path / "t.json", report=report)


def test_tree_json_includes_activity_fields(tmp_path):
    tree = _identity_tree()
    sample = TagSpectrum("sample", {0: 2, 1: 1, 2: 1})
    user = TagSpectrum(0, {0: 1})
    report = island_activity(tree, user, sample)
    path = tmp_path / "t.json"
    write_tree_json(tree, path, report=report)
    doc = json.loads(path.read_text())
    root = doc["islands"][0]
    assert root["p_sample"] == 1.0 and root["p_user"] == 1.0 and root["r"] == 1.0
    assert root["color"] == [0, 100, 110]


def test_dot_default_omits_singletons(tmp_path):
    path = tmp_path / "t.dot"
    write_tree_dot(_identity_tree(), path)
    text = path.read_text()
    assert text.count("[label=") == 1  # root only
    assert "->" not in text


def test_dot_include_singletons_flag(tmp_path):
    path = tmp_path / "t.dot"
    write_tree_dot(_identity_tree(), path, include_singletons=True)
    text = path.read_text()
    assert text.count("[label=") == 4
    assert text.count("->") == 3


def test_dot_two_block_fork(tmp_path):
    path = tmp_path / "t.dot"
    write_tree_dot(_two_block_tree(), path)
    text = path.read_text()
    # the level before the split has one island with two children
    lines = [l for l in text.splitlines() if "->" in l]
    targets = {}
    for line in lines:
        src = line.strip().split(" -> ")[0]
        targets[src] = targets.get(src, 0) + 1
    assert 2 in targets.values()


def test_dot_width_scales_with_sqrt_size(tmp_path):
    tree = _identity_tree(4)
    path = tmp_path / "t.dot"
    write_tree_dot(tree, path, include_singletons=True)
    text = path.read_text()
    widths = {}
    for line in text.splitlines():
        if "[label=" in line:
            node = line.strip().split(" ", 1)[0]
            width = float(line.split("width=")[1].split(",")[0])
            widths[node] = width
    assert widths["n0"] == pytest.approx(2 * widths["n1"], abs=1e-3)


def test_dot_fillcolor_from_report(tmp_path):
    tree = _identity_tree()
    sample = TagSpectrum("sample", {0: 1, 1: 1, 2: 1})
    user = TagSpectrum(0, {0: 1})
    report = island_activity(tree, user, sample)
    path = tmp_path / "t.dot"
    write_tree_dot(tree, path, report=report)
    text = path.read_text()
    assert 'fillcolor="#00646e"' in text  # (0, 100, 110) at the root


def test_dot_escapes_label_quotes(tmp_path):
    c = CorrelationMatrix.from_dense([[1.0]], names=['say "hi"'], family="tag")
    path = tmp_path / "t.dot"
    write_tree_dot(build_tree(c), path)
    assert 'label="say \\"hi\\""' in path.read_text()


# -- replacing output files ---------------------------------------------------
# Each writer creates its output as a new file, so a stale copy is never
# truncated in place; paths that are not regular files are written through.

PLANTED = ("communities = 2\ntags_per_community = 3\nusers_per_community = 2\n"
           "items_per_community = 3\nseed = 5\n")


def write_truth(path):
    """tagnet synth's --truth-out file, from a config beside path."""
    config = path.parent / "planted.cfg"
    config.write_text(PLANTED, encoding="utf-8")
    argv = ["synth", "--config", str(config), "--out", str(path.parent / "planted.tsv"),
            "--truth-out", str(path)]
    assert tagnet.cli.main(argv) == 0


WRITERS = [
    pytest.param(lambda path: write_tree_json(_two_block_tree(), path), id="tree-json"),
    pytest.param(lambda path: write_tree_dot(_two_block_tree(), path), id="tree-dot"),
    pytest.param(write_truth, id="truth"),
    pytest.param(lambda path: write_triples([ev("u", "i", "a", "b")], path), id="triples"),
]
STALE = "stale line, longer than every output\n" * 100


def fresh_bytes(tmp_path, write):
    write(tmp_path / "fresh.out")
    return (tmp_path / "fresh.out").read_bytes()


@pytest.mark.parametrize("write", WRITERS)
def test_rewrite_replaces_the_file_a_hard_link_keeps(tmp_path, write):
    path, link = tmp_path / "t.out", tmp_path / "link.out"
    path.write_text(STALE)
    os.link(path, link)
    write(path)
    assert link.read_text() == STALE
    assert path.read_bytes() == fresh_bytes(tmp_path, write)


@pytest.mark.parametrize("write", WRITERS)
def test_symlinked_output_stays_a_symlink(tmp_path, write):
    path, target = tmp_path / "t.out", tmp_path / "target.out"
    target.write_text(STALE)
    path.symlink_to(target)
    write(path)
    assert path.is_symlink() and path.resolve() == target
    assert target.read_bytes() == fresh_bytes(tmp_path, write)


@pytest.mark.parametrize("write", WRITERS)
def test_output_that_cannot_be_unlinked_is_written_in_place(tmp_path, monkeypatch, write):
    expected = fresh_bytes(tmp_path, write)
    path, link = tmp_path / "t.out", tmp_path / "link.out"
    path.write_text(STALE)
    os.link(path, link)

    def refuse(target, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(target))

    monkeypatch.setattr(os, "unlink", refuse)
    write(path)
    assert path.read_bytes() == link.read_bytes() == expected


# -- the JSON tree writer's bytes ----------------------------------------------

def json_dump_text(tree, report=None):
    """The tree document as json.dump wrote it from one dict per Island."""
    islands = []
    for isl in tree.islands:
        entry = {
            "id": isl.id,
            "level": isl.level,
            "phi": isl.phi,
            "members": sorted(tree.names[m] for m in isl.members),
            "size": isl.size,
            "parent": isl.parent,
            "characteristic": tree.names[isl.characteristic],
            "singleton": isl.is_singleton,
        }
        if report is not None:
            record = report.records[isl.id]
            entry["p_sample"] = record.p_sample
            entry["p_user"] = record.p_user
            entry["r"] = record.ratio
            entry["color"] = list(record.color)
        islands.append(entry)
    doc = {"family": tree.family, "levels": tree.levels, "root": 0, "islands": islands}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Quotes, backslashes, control characters, non-ASCII text, a lone surrogate
# and text beyond U+FFFF (written as a surrogate pair), plus any character.
NAME_CHARS = st.characters() | st.sampled_from(
    '"\\\t\n\r\x00\x1f\x7f/\u00e9\u2028\ud800\U0001f600'
)
SHARES = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def trees_and_reports(draw):
    """A tag tree over drawn names and grid, with or without a report of drawn
    shares, one per node and the same for each of its islands, as
    island_activity's; zeros in p_sample leave those islands' ratios undefined."""
    n = draw(st.integers(min_value=1, max_value=6))
    c = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            c[i, j] = c[j, i] = draw(st.sampled_from([0.0, 0.1, 0.24, 0.5, 0.9]))
    names = draw(st.lists(st.text(NAME_CHARS, max_size=5), min_size=n, max_size=n))
    members = draw(st.permutations(range(0, 2 * n, 2)))
    grid = draw(st.sampled_from([FilterGrid(), FilterGrid(0.1, 0.07),
                                 FilterGrid(0.25, 0.25)]))
    tree = build_tree(CorrelationMatrix("tag", "direct", members, names, c), grid)
    if not draw(st.booleans()):
        return tree, None
    k = tree.node_start.size - 1
    p_sample = draw(st.lists(st.just(0.0) | SHARES, min_size=k, max_size=k))
    p_user = draw(st.lists(SHARES, min_size=k, max_size=k))
    return tree, ActivityReport("u", np.array(p_sample)[tree.node], np.array(p_user)[tree.node])


def ratio_overflows(report):
    """Whether some ratio p_user / p_sample of the report, divided as its records
    divide it, is infinite: the writers refuse such a report."""
    shares = [] if report is None else zip(report.p_sample.tolist(), report.p_user.tolist())
    return any(u / s == math.inf for s, u in shares if s > 0)


def _sparse_sample_report(tree):
    """Activity of a user of tag 0 against a sample that never used tag 1,
    so every island holding only tag 1 has an undefined ratio."""
    sample = TagSpectrum("sample", {m: 0 if m == 1 else m + 1 for m in tree.names})
    return island_activity(tree, TagSpectrum(0, {0: 3}), sample)


LINKLESS = build_tree(CorrelationMatrix.from_dense(np.eye(2), names=["b", "a"]))
# phi values 0.1, 0.17, 0.24000000000000002, ... have long reprs
LONG_PHI = build_tree(CorrelationMatrix.from_dense([[1.0, 0.9], [0.9, 1.0]]),
                      FilterGrid(0.1, 0.07))
# {0, 1} splits off the root at phi = 0, keeps its members through three
# levels, and splits at phi = 0.2, so those three reuse the text written at 0.
CHAIN = build_tree(CorrelationMatrix.from_dense([[1.0, 0.2, 0.0], [0.2, 1.0, 0.0],
                                                 [0.0, 0.0, 1.0]]))


@given(case=trees_and_reports())
@example(case=(LINKLESS, None))
@example(case=(LINKLESS, _sparse_sample_report(LINKLESS)))
@example(case=(LONG_PHI, None))
@example(case=(LONG_PHI, _sparse_sample_report(LONG_PHI)))
@example(case=(CHAIN, None))
@example(case=(CHAIN, _sparse_sample_report(CHAIN)))
def test_tree_json_bytes_equal_json_dump(tmp_path_factory, case):
    tree, report = case
    path = tmp_path_factory.mktemp("json") / "t.json"
    if ratio_overflows(report):
        with pytest.raises(ValueError, match="ratios"):
            write_tree_json(tree, path, report=report)
        return
    expected = json_dump_text(tree, report).encode("ascii")
    # Chunks of one and two records put record boundaries on chunk boundaries.
    for chunk in (1, 2, tagnet.io.CHUNK_ISLANDS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tagnet.io, "CHUNK_ISLANDS", chunk)
            write_tree_json(tree, path, report=report)
        assert path.read_bytes() == expected, chunk


# -- the DOT tree writer's bytes -----------------------------------------------

def dot_text(tree, report=None, include_singletons=False):
    """The DOT document as a loop over every island wrote it, skipping the
    singletons one at a time."""
    lines = ["digraph islands {", "  rankdir=TB;", "  node [shape=square, fixedsize=true];"]
    edges = []
    sizes = [isl.size for isl in tree.islands]
    characteristic = [isl.characteristic for isl in tree.islands]
    for k, (level, parent) in enumerate(zip(tree.level.tolist(), tree.parent.tolist())):
        if level >= 0 and sizes[k] == 1 and not include_singletons:
            continue
        if parent >= 0:
            edges.append(f"  n{parent} -> n{k};")
        width = tagnet.io.DOT_WIDTH_SCALE * math.sqrt(sizes[k])
        label = tree.names[characteristic[k]].replace("\\", "\\\\").replace('"', '\\"')
        attrs = [f'label="{label}"', f"width={width:.3f}", f"height={width:.3f}"]
        if report is not None:
            color = report.records[k].color
            attrs.append("style=filled")
            attrs.append(f'fillcolor="#{color[0]:02x}{color[1]:02x}{color[2]:02x}"')
        lines.append(f"  n{k} [{', '.join(attrs)}];")
    return "\n".join(lines + edges + ["}"]) + "\n"


@given(case=trees_and_reports())
@example(case=(LINKLESS, None))
@example(case=(LINKLESS, _sparse_sample_report(LINKLESS)))
@example(case=(CHAIN, None))
@example(case=(CHAIN, _sparse_sample_report(CHAIN)))
def test_tree_dot_bytes_equal_the_every_island_loop(tmp_path_factory, case):
    tree, report = case
    path = tmp_path_factory.mktemp("dot") / "t.dot"
    if ratio_overflows(report):
        with pytest.raises(ValueError, match="ratios"):
            write_tree_dot(tree, path, report)
        return
    for include_singletons in (False, True):
        text = dot_text(tree, report, include_singletons)
        try:
            expected = text.encode("utf-8")
        except UnicodeEncodeError:  # a drawn label holds a lone surrogate
            with pytest.raises(UnicodeEncodeError):
                write_tree_dot(tree, path, report, include_singletons)
            continue
        write_tree_dot(tree, path, report, include_singletons)
        assert path.read_bytes() == expected, include_singletons


def test_long_phi_and_undefined_ratio_examples_hold_what_they_name():
    assert "0.24000000000000002" in json_dump_text(LONG_PHI)
    ratios = [record.ratio for record in _sparse_sample_report(LINKLESS).records.values()]
    assert None in ratios and any(r is not None for r in ratios)
    assert [isl.size for isl in CHAIN.islands if 0 in isl.members] == [3, 2, 2, 2, 2, 1]


@pytest.mark.parametrize("old", [b"OLD CONTENT\n", None])
def test_dot_name_that_cannot_be_encoded_leaves_the_old_file_alone(tmp_path, old):
    C = CorrelationMatrix.from_dense([[1, 0.9], [0.9, 1]], names=["a", "\ud800"])
    path = tmp_path / "t.dot"
    if old is not None:
        path.write_bytes(old)
    with pytest.raises(UnicodeEncodeError):
        write_tree_dot(build_tree(C), path, include_singletons=True)
    assert (path.read_bytes() if path.exists() else None) == old


# -- write_triples keeps the old file until every line is encoded ---------------

@pytest.mark.parametrize("old", [b"OLD CONTENT\n", None])
def test_triples_name_that_cannot_be_encoded_leaves_the_old_file_alone(tmp_path, old):
    path = tmp_path / "t.tsv"
    if old is not None:
        path.write_bytes(old)
    before = sorted(os.listdir(tmp_path))
    with pytest.raises(UnicodeEncodeError):
        write_triples([ev("a", "b", "x"), ev("\ud800", "b", "y")], path)
    assert (path.read_bytes() if path.exists() else None) == old
    assert sorted(os.listdir(tmp_path)) == before  # no stray file


def test_triples_are_written_through_a_fifo(tmp_path):
    path = tmp_path / "t.fifo"
    os.mkfifo(path)
    received = []
    reader = threading.Thread(target=lambda: received.append(path.read_bytes()))
    reader.start()
    write_triples([ev("u", "i", "a", "b")], path)
    reader.join(timeout=10)
    assert received == [b"u\ti\ta\nu\ti\tb\n"]
    assert stat.S_ISFIFO(os.lstat(path).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["t.fifo"]


# -- the writers format one text per node -------------------------------------
# So a report must give every island of a node the same shares, bit for bit;
# island_activity's do. JSON has no text for NaN or infinity.

TREE_WRITERS = [pytest.param(write_tree_json, id="json"), pytest.param(write_tree_dot, id="dot")]


def _refused(write, tmp_path, report):
    """The error with which write refuses report over CHAIN, leaving the old
    file's bytes."""
    path = tmp_path / "t.out"
    path.write_bytes(b"OLD CONTENT\n")
    with pytest.raises(ValueError) as raised:
        write(CHAIN, path, report=report)
    assert path.read_bytes() == b"OLD CONTENT\n"
    return str(raised.value)


@pytest.mark.parametrize("write", TREE_WRITERS)
def test_writers_reject_a_report_whose_shares_differ_within_a_node(tmp_path, write):
    half = np.full(len(CHAIN.level), 0.5)
    islands = np.flatnonzero(CHAIN.node == np.bincount(CHAIN.node).argmax())
    assert islands.size > 1
    for within, first in [(0.25, 0.5), (-0.0, 0.0), (0.0, -0.0)]:
        shares = half.copy()
        shares[islands] = within
        shares[islands[0]] = first
        for report in (ActivityReport("u", shares, half), ActivityReport("u", half, shares)):
            assert "differ" in _refused(write, tmp_path, report)


@pytest.mark.parametrize("write", TREE_WRITERS)
@pytest.mark.parametrize("share", [np.nan, np.inf, -np.inf, -0.5, -5e-324])
def test_writers_reject_a_share_that_json_cannot_hold_or_is_negative(tmp_path, write, share):
    half, bad = np.full(len(CHAIN.level), 0.5), np.full(len(CHAIN.level), share)
    for report in (ActivityReport("u", bad, half), ActivityReport("u", half, bad)):
        assert "finite and nonnegative" in _refused(write, tmp_path, report)


@pytest.mark.parametrize("write", TREE_WRITERS)
def test_writers_reject_a_report_whose_ratio_overflows(tmp_path, write):
    ones = np.ones(len(CHAIN.level))
    report = ActivityReport("u", np.full(len(CHAIN.level), 5e-324), ones)
    assert [r.ratio for r in report.records.values()] == [math.inf] * len(CHAIN.level)
    assert "finite and nonnegative" in _refused(write, tmp_path, report)
    # The largest ratio below the overflow is written, as a finite number.
    report = ActivityReport("u", np.full(len(CHAIN.level), 2.0 ** -1023), ones)
    write(CHAIN, tmp_path / "t.out", report=report)
    if write is write_tree_json:
        doc = json.loads((tmp_path / "t.out").read_text(), parse_constant=_no_constant)
        assert {isl["r"] for isl in doc["islands"]} == {2.0 ** 1023}


def _no_constant(name):
    raise ValueError(f"not strict JSON: {name}")
