import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagnet import DataError, TaggingEvent, build_network, degree_stats

from conftest import ev, net_of


def test_two_tags_split_weight_in_half():
    net = net_of(ev("mu", "i1", "I1", "I2"))
    weights = [w for _, _, _, w in net.links()]
    assert weights == [Fraction(1, 2), Fraction(1, 2)]


def test_single_tag_carries_full_weight():
    net = net_of(ev("mu", "i", "I"))
    assert [w for *_, w in net.links()] == [Fraction(1)]


def test_duplicate_events_merge_by_tag_union():
    # two separate events on the same pair act as one event with both tags
    net = net_of(ev("mu", "i", "I1"), ev("mu", "i", "I2"))
    links = net.links()
    assert len(links) == 2
    assert all(w == Fraction(1, 2) for *_, w in links)
    assert sum(w for *_, w in links) == Fraction(1)


def test_merge_unions_overlapping_tag_sets():
    net = net_of(ev("mu", "i", "A", "B"), ev("mu", "i", "B", "C"))
    pair = net.pair_tag_ids(0, 0)
    assert len(pair) == 3
    assert all(net.link_weight(0, 0, t) == Fraction(1, 3) for t in pair)


def test_weight_sums_are_exactly_one_per_pair():
    rng = random.Random(11)
    tags = [f"t{k}" for k in range(9)]
    events = [
        ev(f"u{rng.randrange(6)}", f"i{rng.randrange(8)}",
           *rng.sample(tags, rng.randint(1, 3)))
        for _ in range(60)
    ]
    net = build_network(events)
    for uid, iid, tag_ids in net.iter_pairs():
        total = sum(net.link_weight(uid, iid, t) for t in tag_ids)
        assert total == Fraction(1)


def test_ownership_matches_link_projection():
    net = net_of(ev("a", "x", "A"), ev("a", "y", "B"), ev("b", "x", "A", "C"))
    from_links = {(u, i) for u, i, _, _ in net.links()}
    assert net.ownership == from_links


def test_default_normalization_trims_and_casefolds():
    net = net_of(ev("u", "i", " Rock "), ev("v", "i", "rock"))
    assert len(net.tags) == 1
    assert net.tags.names == ["rock"]


def test_exact_normalization_keeps_strings():
    net = build_network([ev("u", "i", " Rock "), ev("v", "i", "rock")],
                        normalize="exact")
    assert len(net.tags) == 2


def test_event_with_only_blank_tags_is_skipped(caplog):
    with caplog.at_level("WARNING"):
        net = net_of(ev("u", "i", "  "), ev("v", "j", "ok"))
    assert len(net.users) == 1
    assert "no tags left" in caplog.text


def test_strict_mode_rejects_blank_tag_events():
    with pytest.raises(DataError):
        build_network([ev("u", "i", "  ")], strict=True)


def test_unknown_normalization_policy_rejected():
    with pytest.raises(ValueError):
        build_network([ev("u", "i", "t")], normalize="nope")


def test_event_tags_deduplicate_preserving_order():
    event = TaggingEvent("u", "i", ("b", "a", "b"))
    assert event.tags == ("b", "a")


def test_registry_ids_are_dense_first_seen():
    net = net_of(ev("u2", "i1", "B"), ev("u1", "i2", "A"), ev("u2", "i2", "A"))
    assert net.users.names == ["u2", "u1"]
    assert net.users.id_of("u2") == 0
    assert net.items.name_of(1) == "i2"
    with pytest.raises(KeyError):
        net.tags.id_of("missing")
    with pytest.raises(KeyError):
        net.users.name_of(99)


@st.composite
def event_lists(draw):
    users = [f"u{k}" for k in range(4)]
    items = [f"i{k}" for k in range(4)]
    tags = [f"t{k}" for k in range(5)]
    n = draw(st.integers(min_value=1, max_value=12))
    events = []
    for _ in range(n):
        tag_set = draw(st.lists(st.sampled_from(tags), min_size=1, max_size=3,
                                unique=True))
        events.append(TaggingEvent(draw(st.sampled_from(users)),
                                   draw(st.sampled_from(items)),
                                   tuple(tag_set)))
    return events


def _by_name(net):
    """Name-keyed view of the link structure, insensitive to id assignment."""
    out = {}
    for uid, iid, tid, w in net.links():
        key = (net.users.name_of(uid), net.items.name_of(iid),
               net.tags.name_of(tid))
        out[key] = w
    return out


@settings(deadline=None, max_examples=60)
@given(events=event_lists(), seed=st.integers(min_value=0, max_value=2**16))
def test_build_is_order_insensitive_up_to_ids(events, seed):
    shuffled = list(events)
    random.Random(seed).shuffle(shuffled)
    assert _by_name(build_network(events)) == _by_name(build_network(shuffled))


def test_degree_stats_shared_items():
    net = net_of(
        ev("a", "x", "T"), ev("a", "y", "T"), ev("a", "z", "T"),
        ev("b", "x", "T"), ev("b", "y", "T"), ev("b", "z", "T"),
    )
    stats = degree_stats(net)
    assert stats.items_per_user == 3.0
    assert stats.users_per_item == 2.0


def test_degree_stats_empty_network():
    stats = degree_stats(build_network([]))
    assert stats.n_users == stats.n_items == stats.n_tags == 0
    assert stats.items_per_user == 0.0
    assert stats.users_per_item == 0.0
    assert stats.tag_usage == {}


def test_degree_stats_tag_usage_counts_links():
    net = net_of(ev("mu", "i", "I1", "I2"))
    stats = degree_stats(net)
    assert stats.tag_usage == {0: 1, 1: 1}


def test_incidence_matrices_hold_ownership_and_weight_sums():
    net = net_of(ev("a", "x", "A", "B"), ev("b", "x", "A"),
                 ev("b", "y", "B", "C", "D"))
    B = net.incidence["user", "item"]
    W = net.incidence["item", "tag"]
    assert B.toarray().tolist() == [[1.0, 0.0], [1.0, 1.0]]
    assert W.toarray().tolist() == [[1.5, 0.5, 0.0, 0.0],
                                    [0.0, 1 / 3, 1 / 3, 1 / 3]]
    assert (net.incidence["item", "user"] != B.T).nnz == 0
    assert (net.incidence["tag", "item"] != W.T).nnz == 0
    for m in net.incidence.values():
        assert m.indices.dtype == m.indptr.dtype == np.int32
        assert m.has_sorted_indices


def test_attribution_sums_match_exact_weights():
    rng = random.Random(5)
    tags = [f"t{k}" for k in range(6)]
    events = [ev(f"u{rng.randrange(40)}", f"i{rng.randrange(3)}",
                 *rng.sample(tags, rng.randint(1, 5))) for _ in range(300)]
    net = build_network(events)
    exact = {}
    for _, iid, tid, w in net.links():
        exact[iid, tid] = exact.get((iid, tid), 0) + w
    W = net.incidence["item", "tag"].toarray()
    assert np.count_nonzero(W) == len(exact)
    # one rounding per addition, at most len(links) additions per entry
    rel = len(net.links()) * 2.0**-53
    for (iid, tid), total in exact.items():
        assert W[iid, tid] == pytest.approx(float(total), rel=rel, abs=0)


def test_adjacency_lists_are_in_ascending_id_order():
    # u owns item 1 before item 0
    net = net_of(ev("v", "x", "T"), ev("u", "y", "T"), ev("u", "x", "T"))
    assert net.user_items(1) == (0, 1)
    assert net.item_users(0) == (0, 1)
    assert net.user_items(0) == (0,)
