"""Pinned bytes of mid-size CLI outputs.

A planted corpus of 6,000 events (its tag tree has 274 islands) runs through
`tagnet tree` and `tagnet diversity`, and every file they write must keep the
sha256 recorded here. The digests were taken while the tree was still built
as one Island record per island, so a change to the sweep, the tree's arrays
or the writers that moves a single byte fails here. Every run also patches
IslandTree.islands to raise: the CLI reads the tree's arrays and never builds
Island records.
"""

import dataclasses
import hashlib

import pytest

import tagnet.cli
from tagnet import IslandTree, PlantedConfig, build_tree, generate, write_triples
from tagnet.cli import EXIT_OK, main

CONFIG = PlantedConfig(6, 12, 40, 25, seed=3)
USER = "u2_7"

DIGESTS = {
    "tags.json": "47bcaa2b7a7a88b16d52660bd079fd7affd2547a147a10d439c87bcfec3a3e37",
    "tags.dot": "b7733902e1dc5fb8c522831353e0042a2a670cbf716d61d310770e3be63cbc9d",
    "items.json": "08192c10da05fea01bdf8ac281a91e2129a9522b3ff8318835e4d6f0f76f1e51",
    "items.dot": "28ca2eee7650d6d645127355a7502cf83807bb5aaaaa5c715cdd07e3b4b67581",
    "user.json": "930582c98d67b1638c90057789fb4f7b05349cf799e5c70386728e631d7ea9f7",
    "user.dot": "c8f28e6f06e85fb14d1af930e8d340d93412ae9b92d2a8935f5fa81f9674578f",
}
USER_STDOUT = "user: u2_7\nentropy: 2.729459\ndiversity: 1503.297009\n"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("planted") / "triples.tsv"
    write_triples(generate(CONFIG)[0], path)
    return str(path)


@pytest.fixture(autouse=True)
def no_island_records(monkeypatch):
    def refuse(tree):
        raise AssertionError("the CLI built Island records")

    monkeypatch.setattr(IslandTree, "islands", property(refuse))


def run(capsys, *argv):
    assert main(list(argv)) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    return out


def assert_pinned(tmp_path, *names):
    for name in names:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == DIGESTS[name], name


def test_tag_tree_is_pinned_and_same_dense_or_sparse(corpus, tmp_path, capsys,
                                                     monkeypatch):
    dense_flags = []

    def sweep(matrix, grid):
        if dense_flags:  # the second run sweeps the same matrix stored dense
            matrix = dataclasses.replace(matrix, values=matrix.dense())
        dense_flags.append(matrix.is_dense)
        return build_tree(matrix, grid)

    monkeypatch.setattr(tagnet.cli, "build_tree", sweep)
    run(capsys, "tree", "--input", corpus, "--out-json", str(tmp_path / "tags.json"),
        "--out-dot", str(tmp_path / "tags.dot"))
    run(capsys, "tree", "--input", corpus, "--out-json", str(tmp_path / "dense.json"),
        "--out-dot", str(tmp_path / "dense.dot"))
    assert dense_flags == [False, True]
    for suffix in ("json", "dot"):
        csr, dense = tmp_path / f"tags.{suffix}", tmp_path / f"dense.{suffix}"
        assert dense.read_bytes() == csr.read_bytes()
    assert_pinned(tmp_path, "tags.json", "tags.dot")


def test_items_via_tags_tree_is_pinned(corpus, tmp_path, capsys):
    run(capsys, "tree", "--input", corpus, "--family", "items", "--view",
        "items-via-tags", "--include-singletons",
        "--out-json", str(tmp_path / "items.json"),
        "--out-dot", str(tmp_path / "items.dot"))
    assert_pinned(tmp_path, "items.json", "items.dot")


def test_diversity_is_pinned(corpus, tmp_path, capsys):
    out = run(capsys, "diversity", USER, "--input", corpus,
              "--out-json", str(tmp_path / "user.json"),
              "--out-dot", str(tmp_path / "user.dot"))
    assert out == USER_STDOUT
    assert_pinned(tmp_path, "user.json", "user.dot")
