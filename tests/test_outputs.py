"""Pinned bytes of mid-size CLI outputs.

A planted corpus of 6,000 events (its tag tree has 274 islands) runs through
`tagnet tree` and `tagnet diversity`, and every file they write must keep the
sha256 recorded here. The digests were taken while the tree was still built
as one Island record per island, so a change to the sweep, the tree's arrays
or the writers that moves a single byte fails here. Every run also patches
IslandTree.islands to raise, and every CLI run makes the per-island members,
start and layout views raise too: the CLI reads the tree's nodes and never
builds Island records or per-island member arrays.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

import tagnet.cli
from tagnet import (
    CorrelationMatrix,
    FilterGrid,
    IslandTree,
    PlantedConfig,
    build_network,
    build_tree,
    correlation_matrix,
    generate,
    read_triples,
    write_triples,
)
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
# `tagnet tree --phi-step 0.01 --include-singletons` per family, recorded while
# every island still had its own member entries.
FINE_DIGESTS = {
    "users.json": "b534ffcdf88eda2b0a817371cba679cd18b9e57c099a777fea7f1a0d8974e863",
    "users.dot": "9d64c07a9197dcd97a2fe8dccb1b9a0abede405b42512689829c59abac6f9f83",
    "tags.json": "601d6dd47d7c36b41d97f6a8893172d34254335148e5332e7d43feaf2f830585",
    "tags.dot": "0f8bd4a68bd26c86600261b09c2f32b27d3e57d0d85f154270f3bb5c36caa993",
}

# No file pins the order of an island's members after the first (JSON sorts
# them by name, DOT shows the characteristic element only), so the sweep's
# arrays are pinned too, as int64 bytes, on a fine grid (100 levels over
# users, 92 over tags).
FINE_GRID = FilterGrid(0.0, 0.01)
ARRAY_DIGESTS = {
    "users": {
        "level": "f3b70973424ded2702a7929cc81f900b045b2b1f0256beabc831a561d2ecb6c1",
        "parent": "a2b6ed0656c3b6edecb08fbdcadfe58c44125cbfb79d96b6b69e89ee46edf003",
        "members": "93caa9a94ef64184a2794b22ef69b9e7825ba52d377d0b6dc7c85d12a78ea93a",
        "start": "0912b53a9060d503141029ff6a3099ec8d0a6d152a4dd57b59f55178b8a0b103",
    },
    "tags": {
        "level": "0e5ce7f8851760afd5bcfcd7a44e3f9ad21c1133b4285334497135ab10387c78",
        "parent": "25060f810237f31711ea002de670922930512138ec64ee94fd7678954d49d043",
        "members": "3fed00664b2c6ee7ad7b16ce572e702473b7c4669520579b8218fc44a96f1659",
        "start": "eec7fff38cbf308343c381a5a934f4502073a02a487c428fd38579a661b619f8",
    },
}


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


def refuse_island_views(patch):
    """Make the per-island views raise: the CLI reads the tree's nodes."""
    for view in ("members", "start", "layout"):
        def refuse(tree, view=view):
            raise AssertionError(f"the CLI built IslandTree.{view}")

        patch.setattr(IslandTree, view, property(refuse))


def run(capsys, *argv):
    with pytest.MonkeyPatch.context() as patch:  # the sweep's own tests read the views
        refuse_island_views(patch)
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


@pytest.mark.parametrize("family", sorted(ARRAY_DIGESTS))
def test_sweep_arrays_are_pinned(corpus, family):
    net = build_network(read_triples(corpus))
    tree = build_tree(correlation_matrix(net, family), FINE_GRID)
    digests = {
        name: hashlib.sha256(np.asarray(getattr(tree, name), np.int64).tobytes()).hexdigest()
        for name in ARRAY_DIGESTS[family]
    }
    assert digests == ARRAY_DIGESTS[family]


@pytest.mark.parametrize("family", ["users", "tags"])
def test_fine_grid_tree_with_singletons_is_pinned(corpus, tmp_path, capsys, family):
    run(capsys, "tree", "--input", corpus, "--family", family, "--phi-step", "0.01",
        "--include-singletons", "--out-json", str(tmp_path / f"{family}.json"),
        "--out-dot", str(tmp_path / f"{family}.dot"))
    for name in (f"{family}.json", f"{family}.dot"):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == FINE_DIGESTS[name]


def test_island_view_guard_refuses_what_it_names():
    tree = build_tree(CorrelationMatrix.from_dense(np.eye(2)))
    with pytest.MonkeyPatch.context() as patch:
        refuse_island_views(patch)
        for view in ("members", "start", "layout"):
            with pytest.raises(AssertionError, match=view):
                getattr(tree, view)
    assert tree.members.tolist() == [0, 1, 0, 1]
