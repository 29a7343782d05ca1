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
