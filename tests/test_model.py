import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tagnet import (DataError, TaggingEvent, build_network, correlation_matrix,
                    read_triples)

from conftest import ev, net_of


def attribution(net):
    return net.incidence("item", "tag").toarray().tolist()


def test_two_tags_split_weight_in_half():
    net = net_of(ev("mu", "i1", "I1", "I2"))
    assert list(net.iter_pairs()) == [(0, 0, (0, 1))]
    assert attribution(net) == [[0.5, 0.5]]


def test_single_tag_carries_full_weight():
    net = net_of(ev("mu", "i", "I"))
    assert np.diff(net.pair_ptr).tolist() == [1]
    assert attribution(net) == [[1.0]]


def test_duplicate_events_merge_by_tag_union():
    # two separate events on the same pair act as one event with both tags
    net = net_of(ev("mu", "i", "I1"), ev("mu", "i", "I2"))
    assert list(net.iter_pairs()) == [(0, 0, (0, 1))]
    assert attribution(net) == [[0.5, 0.5]]


def test_merge_unions_overlapping_tag_sets():
    net = net_of(ev("mu", "i", "A", "B"), ev("mu", "i", "B", "C"))
    assert list(net.iter_pairs()) == [(0, 0, (0, 1, 2))]
    assert attribution(net) == [[1 / 3, 1 / 3, 1 / 3]]


def test_weight_sums_are_exactly_one_per_pair():
    rng = random.Random(11)
    tags = [f"t{k}" for k in range(9)]
    events = [
        ev(f"u{rng.randrange(6)}", f"i{rng.randrange(8)}",
           *rng.sample(tags, rng.randint(1, 3)))
        for _ in range(60)
    ]
    net = build_network(events)
    merged = {}
    for e in events:
        merged.setdefault((e.user, e.item), set()).update(e.tags)
    k = np.diff(net.pair_ptr)
    for (uid, iid, tag_ids), size in zip(net.iter_pairs(), k.tolist()):
        names = {net.tags.name_of(t) for t in tag_ids}
        assert len(tag_ids) == size == len(names)
        assert names == merged[net.users.name_of(uid), net.items.name_of(iid)]
    # k distinct tags per pair, so its k links of 1/k sum to exactly 1; in W
    # each owned pair adds 1 to its item's row, one rounding per link
    audience = np.diff(net.incidence("item", "user").indptr)
    row_sums = net.incidence("item", "tag").sum(axis=1).A1
    assert row_sums == pytest.approx(audience, rel=len(net.link_tags) * 2.0**-52)


def test_ownership_matches_link_projection():
    net = net_of(ev("a", "x", "A"), ev("a", "y", "B"), ev("b", "x", "A", "C"))
    from_incidence = set(zip(*net.incidence("user", "item").nonzero()))
    assert net.ownership == from_incidence


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
    for uid, iid, tag_ids in net.iter_pairs():
        for tid in tag_ids:
            key = (net.users.name_of(uid), net.items.name_of(iid),
                   net.tags.name_of(tid))
            out[key] = len(tag_ids)  # each link weighs 1/k
    return out


@settings(deadline=None, max_examples=60)
@given(events=event_lists(), seed=st.integers(min_value=0, max_value=2**16))
def test_build_is_order_insensitive_up_to_ids(events, seed):
    shuffled = list(events)
    random.Random(seed).shuffle(shuffled)
    assert _by_name(build_network(events)) == _by_name(build_network(shuffled))


def test_tag_link_counts_count_links():
    net = net_of(ev("mu", "i", "I1", "I2"), ev("nu", "i", "I1"))
    assert net.tag_link_counts.tolist() == [2, 1]


def test_incidence_matrices_hold_ownership_and_weight_sums():
    net = net_of(ev("a", "x", "A", "B"), ev("b", "x", "A"),
                 ev("b", "y", "B", "C", "D"))
    B = net.incidence("user", "item")
    W = net.incidence("item", "tag")
    assert B.toarray().tolist() == [[1.0, 0.0], [1.0, 1.0]]
    assert W.toarray().tolist() == [[1.5, 0.5, 0.0, 0.0],
                                    [0.0, 1 / 3, 1 / 3, 1 / 3]]
    assert (net.incidence("item", "user") != B.T).nnz == 0
    assert (net.incidence("tag", "item") != W.T).nnz == 0
    for key in net.INCIDENCE:
        m = net.incidence(*key)
        assert m.indices.dtype == m.indptr.dtype == np.int32
        assert m.has_sorted_indices


GOLDEN = Path(__file__).parent / "golden" / "triples.tsv"
MATRICES = {"user": {"_pair_at", "_b", "_bt"}, "tag": {"_w", "_wt"}}


def eager_incidence(net):
    """B, B^T, W and W^T built as the constructor once built them, eagerly."""
    k = np.diff(net.pair_ptr)
    pair_at = sp.csr_matrix(
        (np.arange(len(k), dtype=np.int32), (net.pair_users, net.pair_items)),
        shape=(len(net.users), len(net.items)))
    b = sp.csr_matrix((np.ones(len(k)), pair_at.indices, pair_at.indptr), shape=pair_at.shape)
    w = sp.csr_matrix((np.repeat(1.0 / k, k), (np.repeat(net.pair_items, k), net.link_tags)),
                      shape=(len(net.items), len(net.tags)))
    return {("user", "item"): b, ("item", "user"): b.T.tocsr(),
            ("item", "tag"): w, ("tag", "item"): w.T.tocsr()}


@pytest.mark.parametrize("kind, other", [("tag", "user"), ("user", "tag")])
def test_a_view_builds_only_its_own_incidence_matrices(kind, other):
    net = build_network(read_triples(GOLDEN))
    assert not (MATRICES["user"] | MATRICES["tag"]) & vars(net).keys()
    correlation_matrix(net, kind)
    assert MATRICES[kind] <= vars(net).keys()
    assert not MATRICES[other] & vars(net).keys()


def many_weights():
    """A network whose W entries each add many 1/k weights, so the order of
    the additions shows in their last bits."""
    rng = random.Random(5)
    tags = [f"t{k}" for k in range(6)]
    return build_network([ev(f"u{rng.randrange(40)}", f"i{rng.randrange(3)}",
                             *rng.sample(tags, rng.randint(1, 5))) for _ in range(300)])


@pytest.mark.parametrize("network", [lambda: build_network(read_triples(GOLDEN)), many_weights],
                         ids=["golden", "many-weights"])
def test_incidence_matrices_equal_the_eager_construction_bit_for_bit(network):
    net = network()
    eager = eager_incidence(net)
    assert list(net.INCIDENCE) == list(eager)
    for key, expected in eager.items():
        m = net.incidence(*key)
        assert net.incidence(*key) is m  # built once, then kept
        assert m.shape == expected.shape
        for part in ("indptr", "indices", "data"):
            got, want = getattr(m, part), getattr(expected, part)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_attribution_sums_match_exact_weights():
    rng = random.Random(5)
    tags = [f"t{k}" for k in range(6)]
    events = [ev(f"u{rng.randrange(40)}", f"i{rng.randrange(3)}",
                 *rng.sample(tags, rng.randint(1, 5))) for _ in range(300)]
    net = build_network(events)
    exact = {}
    for _, iid, tag_ids in net.iter_pairs():
        for tid in tag_ids:
            exact[iid, tid] = exact.get((iid, tid), 0) + Fraction(1, len(tag_ids))
    W = net.incidence("item", "tag").toarray()
    assert np.count_nonzero(W) == len(exact)
    # one rounding per addition, at most len(link_tags) additions per entry
    rel = len(net.link_tags) * 2.0**-53
    for (iid, tid), total in exact.items():
        assert W[iid, tid] == pytest.approx(float(total), rel=rel, abs=0)


def test_adjacency_lists_are_in_ascending_id_order():
    # u owns item 1 before item 0
    net = net_of(ev("v", "x", "T"), ev("u", "y", "T"), ev("u", "x", "T"))
    B, Bt = net.incidence("user", "item"), net.incidence("item", "user")
    assert B.indices[B.indptr[1]:B.indptr[2]].tolist() == [0, 1]
    assert Bt.indices[Bt.indptr[0]:Bt.indptr[1]].tolist() == [0, 1]
    assert B.indices[B.indptr[0]:B.indptr[1]].tolist() == [0]
