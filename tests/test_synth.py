import pytest

from tagnet import (
    DataError,
    FilterGrid,
    PlantedConfig,
    build_network,
    build_tree,
    correlation_matrix,
    generate,
    load_config,
    pair_agreement,
)


# -- pair_agreement -----------------------------------------------------------

def test_identical_partitions_agree_fully():
    parts = [{1, 2}, {3}, {4, 5, 6}]
    assert pair_agreement(parts, parts) == 1.0
    assert pair_agreement(parts, [{6, 5, 4}, {2, 1}, {3}]) == 1.0


def test_partial_agreement_counts_pairs():
    # pairs 12, 13, 23: only 13 is apart in both
    assert pair_agreement([{1, 2}, {3}], [{1}, {2, 3}]) == pytest.approx(1 / 3)


def test_partitions_of_different_elements_raise():
    with pytest.raises(ValueError, match="different element sets"):
        pair_agreement([{1, 2}], [{1, 3}])


# -- load_config --------------------------------------------------------------

def write(tmp_path, text):
    path = tmp_path / "planted.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_config_skips_comments_and_blank_lines(tmp_path):
    path = write(tmp_path, (
        "# planted corpus\n\ncommunities = 3\n  # indented comment\n"
        "tags_per_community=4\nusers_per_community = 5\n"
        "items_per_community = 6\np_intra = 0.8\n\n"
    ))
    assert load_config(path) == PlantedConfig(3, 4, 5, 6, p_intra=0.8)


FULL = ("communities = 2\ntags_per_community = 2\n"
        "users_per_community = 2\nitems_per_community = 2\n")


@pytest.mark.parametrize("text, message", [
    (FULL + "colour = blue\n", "unknown key 'colour'"),
    (FULL + "seed = one\n", "bad value for seed"),
    (FULL + "p_inter\n", "expected key = value"),
    ("communities = 2\n", "incomplete config"),
    (FULL + "p_intra = 0.1\np_inter = 0.2\n", "p_intra must exceed p_inter"),
], ids=["unknown-key", "bad-value", "no-equals", "incomplete", "out-of-range"])
def test_bad_config_is_data_error(tmp_path, text, message):
    with pytest.raises(DataError, match=message):
        load_config(write(tmp_path, text))


# -- planted recovery ---------------------------------------------------------

@pytest.mark.parametrize("seed", range(1, 9))
def test_tag_tree_recovers_planted_communities(seed):
    events, truth = generate(PlantedConfig(5, 8, 20, 10, seed=seed))
    net = build_network(events)
    tree = build_tree(correlation_matrix(net, "tags"), FilterGrid(0.0, 0.05))
    planted = {}
    for name, community in truth.items():
        planted.setdefault(community, set()).add(net.tags.id_of(name))
    best = max(
        pair_agreement([isl.members for isl in tree.islands_at(level)],
                       planted.values())
        for level in range(len(tree.levels))
    )
    assert best >= 0.99
