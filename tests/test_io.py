import dataclasses
import json
import math

import numpy as np
import pytest

from tagnet import (
    CorrelationMatrix,
    DataError,
    build_network,
    build_tree,
    correlation_matrix,
    island_activity,
    read_matrix,
    read_triples,
    tag_spectrum,
    write_matrix,
    write_tree_dot,
    write_tree_json,
    write_triples,
)
from tagnet.diversity import TagSpectrum

from conftest import ev, net_of


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


# -- write_matrix -------------------------------------------------------------

def test_one_by_one_matrix_writes_two_lines(tmp_path):
    C = CorrelationMatrix.from_dense([[1.0]], names=["solo"])
    path = tmp_path / "m.csv"
    write_matrix(C, path)
    lines = path.read_text().splitlines()
    assert lines == [",solo", "solo,1.000000"]


def test_matrix_roundtrip_within_tolerance(tmp_path):
    values = np.array([[1.0, 0.1234567], [0.1234567, 1.0]])
    C = CorrelationMatrix.from_dense(values, names=["a", "b"])
    path = tmp_path / "m.csv"
    write_matrix(C, path)
    names, back = read_matrix(path)
    assert names == ["a", "b"]
    assert np.all(np.abs(back - values) < 5e-7)
    assert np.array_equal(back, back.T)


def test_matrix_bytes_stable_across_runs(tmp_path):
    C = CorrelationMatrix.from_dense([[1.0, 0.5], [0.5, 1.0]])
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_matrix(C, p1)
    write_matrix(C, p2)
    assert p1.read_bytes() == p2.read_bytes()


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


# -- read_matrix input checks and write_matrix storage -------------------------

@pytest.mark.parametrize("text, line", [
    (",a,b\na,1,0.5\nb,0.5\n", 3),
    (",a,b\na,1,0.5\nb,0.5,1,0\n", 3),
    (",a,b\na,1,x\nb,0.5,1\n", 2),
    (",a,b\na,1,0.5\nc,0.5,1\n", 3),
    (",a,b\nb,0.5,1\na,1,0.5\n", 2),
    (",a,b\na,1,0.5\nb,0.5,1\nc,0,0\n", 4),
    (",a,b\na,1,0.5\n", 3),
], ids=["short-row", "long-row", "non-numeric", "renamed-row", "swapped-rows",
        "extra-row", "missing-row"])
def test_malformed_matrix_is_data_error_at_its_line(tmp_path, text, line):
    path = write(tmp_path, text, name="m.csv")
    with pytest.raises(DataError, match=f"m.csv:{line}: "):
        read_matrix(path)


@pytest.mark.parametrize("text, where", [
    (",a,b\na,1,nan\nb,inf,1\n", "m.csv:2: non-finite value in row 'a'"),
    (",a,b\na,1,0.5\nb,-inf,1\n", "m.csv:3: non-finite value in row 'b'"),
    (",a,b\na,NaN,0.5\nb,0.5,1\n", "m.csv:2: non-finite value in row 'a'"),
    (",a,b\na,1,0.5\nb,0.5,Infinity\n", "m.csv:3: non-finite value in row 'b'"),
    (",a,b\na,1,0.5\nb,0.4,1\n", "m.csv:3: 'b','a' is asymmetric"),
    (",a,b,c\na,1,0,0.2\nb,0,1,0.3\nc,0.2,0.4,1\n", "m.csv:4: 'c','b' is asymmetric"),
], ids=["nan-and-inf", "minus-inf", "nan-on-diagonal", "infinity", "asymmetric",
        "asymmetric-later-column"])
def test_nonfinite_or_asymmetric_matrix_is_data_error_at_its_line(tmp_path, text, where):
    path = write(tmp_path, text, name="m.csv")
    with pytest.raises(DataError, match=f"{where}$"):
        read_matrix(path)


def test_matrix_bytes_same_dense_or_sparse(tmp_path):
    net = net_of(ev("a", "x", "T", "U"), ev("b", "x", "T"), ev("b", "y", "T", "V"),
                 ev("c", "y", "V", "W"), ev("c", "z", "X"), ev("d", "w", "Y"))
    sparse = correlation_matrix(net, "tags")
    dense = dataclasses.replace(sparse, values=sparse.dense())
    assert dense.is_dense and not sparse.is_dense
    assert 0 < sparse.values.nnz < sparse.size ** 2
    write_matrix(dense, tmp_path / "dense.csv")
    write_matrix(sparse, tmp_path / "sparse.csv")
    assert (tmp_path / "dense.csv").read_bytes() == (tmp_path / "sparse.csv").read_bytes()
