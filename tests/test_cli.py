from pathlib import Path

import pytest

import tagnet.cli
from tagnet.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main

TRIPLES = "".join(
    f"{user}\t{item}\t{tag}\n"
    for user, item, tag in [
        ("ann", "x", "jazz"), ("ann", "y", "blues"), ("bob", "x", "jazz"),
        ("bob", "z", "rock"), ("cat", "y", "blues"), ("cat", "z", "rock"),
    ]
)


@pytest.fixture
def triples(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text(TRIPLES, encoding="utf-8")
    return path


def tree_argv(tmp_path, input_path, *extra):
    return ["tree", "--input", str(input_path), "--out-json", str(tmp_path / "t.json"),
            "--out-dot", str(tmp_path / "t.dot"), *extra]


def test_tree_runs_end_to_end(tmp_path, triples):
    assert main(tree_argv(tmp_path, triples)) == EXIT_OK
    assert (tmp_path / "t.json").exists() and (tmp_path / "t.dot").exists()


@pytest.mark.parametrize("grid", [["--phi-step", "0"], ["--phi-step", "1e-4"],
                                  ["--phi-start", "1.0"]])
def test_bad_grid_is_usage_error_before_ingest(tmp_path, capsys, grid):
    # The input does not exist: reading it would be a data error (exit 2).
    missing = tmp_path / "missing.tsv"
    assert main(tree_argv(tmp_path, missing, *grid)) == EXIT_USAGE
    assert "phi grid" in capsys.readouterr().err
    argv = ["diversity", "ann", "--input", str(missing),
            "--out-dot", str(tmp_path / "d.dot"), *grid]
    assert main(argv) == EXIT_USAGE


def test_unknown_user_is_data_error(triples, capsys):
    assert main(["compare", "ann", "nobody", "--input", str(triples)]) == EXIT_DATA
    assert "unknown user: 'nobody'" in capsys.readouterr().err


def test_programmer_key_error_is_not_masked(tmp_path, triples, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(tagnet.cli, "top_n", broken)
    with pytest.raises(KeyError):
        main(tree_argv(tmp_path, triples))


@pytest.mark.parametrize("command", [["tree"], ["diversity", "ann"]])
@pytest.mark.parametrize("bad", ["--out-json", "--out-dot"])
@pytest.mark.parametrize("parent", ["missing", "triples.tsv"])
def test_unwritable_output_fails_before_ingest(tmp_path, triples, capsys, monkeypatch,
                                               command, bad, parent):
    def ingest(*args, **kwargs):
        raise AssertionError("the input was read before the outputs were checked")

    monkeypatch.setattr(tagnet.cli, "read_triples", ingest)
    outputs = {"--out-json": tmp_path / "t.json", "--out-dot": tmp_path / "t.dot"}
    outputs[bad] = tmp_path / parent / "t.out"
    argv = [*command, "--input", str(triples)]
    for flag, path in outputs.items():
        argv += [flag, str(path)]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"cannot write {outputs[bad]}: no directory {tmp_path / parent}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["triples.tsv"]


@pytest.mark.parametrize("command", [["tree"], ["diversity", "ann"]])
@pytest.mark.parametrize("bad", ["--out-json", "--out-dot"])
def test_directory_output_fails_before_ingest(tmp_path, triples, capsys, monkeypatch,
                                              command, bad):
    def ingest(*args, **kwargs):
        raise AssertionError("the input was read before the outputs were checked")

    monkeypatch.setattr(tagnet.cli, "read_triples", ingest)
    (tmp_path / "adir").mkdir()
    outputs = {"--out-json": tmp_path / "t.json", "--out-dot": tmp_path / "t.dot"}
    outputs[bad] = tmp_path / "adir"
    argv = [*command, "--input", str(triples)]
    for flag, path in outputs.items():
        argv += [flag, str(path)]
    assert main(argv) == EXIT_DATA
    assert f"cannot write {outputs[bad]}: it is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "triples.tsv"]


# -- golden end-to-end runs ---------------------------------------------------
# tests/golden holds a small triples file and the exact files each command
# wrote for it; stdout is pinned here. A deliberate change of output rewrites
# both.

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_INPUT = str(GOLDEN / "triples.tsv")


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def assert_golden(tmp_path, *names):
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_golden_stats(capsys):
    assert run_cli(capsys, "stats", "--input", GOLDEN_INPUT) == (EXIT_OK, (
        "users: 5\nitems: 6\ntags: 6\n"
        "items per user: 3.000000\nusers per item: 2.500000\n"
    ))


@pytest.mark.parametrize("stem, args", [
    ("tree-tags", ["--phi-step", "0.25"]),
    ("tree-users", ["--family", "users", "--phi-step", "0.2", "--include-singletons"]),
    ("tree-items", ["--family", "items", "--view", "items-via-tags", "--phi-step", "0.2"]),
])
def test_golden_tree(tmp_path, capsys, stem, args):
    argv = ["tree", "--input", GOLDEN_INPUT, *args,
            "--out-json", str(tmp_path / f"{stem}.json"),
            "--out-dot", str(tmp_path / f"{stem}.dot")]
    assert run_cli(capsys, *argv) == (EXIT_OK, "")
    assert_golden(tmp_path, f"{stem}.json", f"{stem}.dot")


def test_golden_diversity(tmp_path, capsys):
    argv = ["diversity", "ann", "--input", GOLDEN_INPUT, "--phi-step", "0.25",
            "--out-dot", str(tmp_path / "diversity-ann.dot"),
            "--out-json", str(tmp_path / "diversity-ann.json")]
    assert run_cli(capsys, *argv) == (
        EXIT_OK, "user: ann\nentropy: 0.693147\ndiversity: 7.556975\n"
    )
    assert_golden(tmp_path, "diversity-ann.json", "diversity-ann.dot")


def test_single_tag_user_prints_positive_zero_entropy(tmp_path, capsys):
    path = tmp_path / "one.tsv"
    path.write_text("ann\tx\tjazz\nbob\ty\tjazz\n", encoding="utf-8")
    argv = ["diversity", "ann", "--input", str(path), "--out-dot", str(tmp_path / "d.dot")]
    assert run_cli(capsys, *argv) == (
        EXIT_OK, "user: ann\nentropy: 0.000000\ndiversity: 0.000000\n"
    )


@pytest.mark.parametrize("argv, out", [
    (["ann", "bob"], "cosine: 0.666667\ndistance: 1.162708\n"),
    (["ann", "eve", "--weighted-tau"], "cosine: 0.666667\ndistance: 1.362334\n"),
    (["dan", "eve"], "cosine: 0.333333\ndistance: 1.483956\n"),
])
def test_golden_compare(capsys, argv, out):
    assert run_cli(capsys, "compare", *argv, "--input", GOLDEN_INPUT) == (EXIT_OK, out)


SYNTH_CONFIG = """\
# two planted communities
communities = 2
tags_per_community = 3

users_per_community = 2
items_per_community = 3
seed = 5
"""


def test_synth_output_is_a_function_of_the_seed(tmp_path, capsys):
    config = tmp_path / "planted.cfg"
    config.write_text(SYNTH_CONFIG, encoding="utf-8")
    outputs = []
    for name, extra in [("a.tsv", []), ("b.tsv", []), ("c.tsv", ["--seed", "6"])]:
        out = tmp_path / name
        argv = ["synth", "--config", str(config), "--out", str(out), *extra]
        assert run_cli(capsys, *argv) == (EXIT_OK, f"wrote 12 events to {out}\n")
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[2] != outputs[0]


def test_out_of_range_synth_config_is_data_error(tmp_path, capsys):
    config = tmp_path / "planted.cfg"
    config.write_text(SYNTH_CONFIG.replace("communities = 2", "communities = 0"),
                      encoding="utf-8")
    argv = ["synth", "--config", str(config), "--out", str(tmp_path / "out.tsv")]
    assert main(argv) == EXIT_DATA
    assert "need at least one community" in capsys.readouterr().err
    assert not (tmp_path / "out.tsv").exists()
