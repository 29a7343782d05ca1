import dataclasses
import math
import random

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tagnet.projection
from tagnet import (
    CorrelationMatrix,
    EntityRegistry,
    FilterGrid,
    PlantedConfig,
    SignatureVector,
    SineMatrix,
    TaggingEvent,
    TripartiteNetwork,
    build_network,
    build_tree,
    correlation_matrix,
    cosine,
    generate,
    item_tag_signature,
    item_user_signature,
    tag_item_signature,
    top_n,
    user_item_signature,
)

from conftest import ev, net_of


# -- independent oracle -------------------------------------------------------

def oracle_vectors(events, view):
    """Recompute signature entries straight from grouped raw events."""
    groups = {}
    for e in events:
        groups.setdefault((e.user, e.item), []).extend(
            t for t in e.tags if t not in groups.get((e.user, e.item), [])
        )
    vecs = {}
    for (user, item), tags in groups.items():
        w = 1.0 / len(tags)
        if view == "users-via-items":
            vecs.setdefault(user, {})[item] = 1.0
        elif view == "items-via-users":
            vecs.setdefault(item, {})[user] = 1.0
        elif view == "items-via-tags":
            for t in tags:
                d = vecs.setdefault(item, {})
                d[t] = d.get(t, 0.0) + w
        elif view == "tags-via-items":
            for t in tags:
                d = vecs.setdefault(t, {})
                d[item] = d.get(item, 0.0) + w
    return vecs


def oracle_cosine(e1, e2):
    dot = sum(v * e2[k] for k, v in sorted(e1.items()) if k in e2)
    n1 = math.sqrt(sum(v * v for v in e1.values()))
    n2 = math.sqrt(sum(v * v for v in e2.values()))
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return dot / (n1 * n2)


def random_events(rng, n_users=5, n_items=6, n_tags=5, n_events=25):
    tags = [f"t{k}" for k in range(n_tags)]
    return [
        TaggingEvent(
            f"u{rng.randrange(n_users)}",
            f"i{rng.randrange(n_items)}",
            tuple(rng.sample(tags, rng.randint(1, 3))),
        )
        for _ in range(n_events)
    ]


# -- signatures ---------------------------------------------------------------

def test_user_signature_is_binary_over_items():
    net = net_of(ev("mu", "i1", "A"), ev("mu", "i2", "B", "C"))
    sig = user_item_signature(net, 0)
    assert sig.entries == {0: 1.0, 1: 1.0}
    assert sig.axis == "item"


def test_user_signature_sums_fractional_weights_to_one():
    net = net_of(ev("mu", "i", "A", "B", "C"))
    assert user_item_signature(net, 0).entries == {0: 1.0}


def test_item_tag_signature_single_event():
    net = net_of(ev("mu", "i", "I1", "I2"))
    assert item_tag_signature(net, 0).entries == {0: 0.5, 1: 0.5}


def test_item_tag_signature_three_users():
    net = net_of(ev("a", "i", "I1"), ev("b", "i", "I1"), ev("c", "i", "I1"))
    assert item_tag_signature(net, 0).entries == {0: 3.0}


def test_tag_item_signature_is_transpose_view():
    net = net_of(ev("a", "i1", "I", "J"), ev("b", "i2", "I"))
    sig = tag_item_signature(net, 0)
    assert sig.entries == {0: 0.5, 1: 1.0}
    assert sig.axis == "item"


def test_binary_attribution_flag():
    net = net_of(ev("a", "i", "I", "J"))
    assert item_tag_signature(net, 0, binary=True).entries == {0: 1.0, 1: 1.0}


def test_unowned_entities_give_empty_signatures():
    # construct directly so a registered user owns nothing
    users = EntityRegistry("user", ["ghost"], {"ghost": 0})
    items = EntityRegistry("item", ["dust"], {"dust": 0})
    tags = EntityRegistry("tag", ["x"], {"x": 0})
    net = TripartiteNetwork(users, items, tags, {})
    assert user_item_signature(net, 0).is_empty
    assert item_user_signature(net, 0).is_empty
    assert item_tag_signature(net, 0).is_empty
    assert tag_item_signature(net, 0).is_empty


def test_unknown_ids_rejected():
    net = net_of(ev("u", "i", "t"))
    with pytest.raises(KeyError):
        user_item_signature(net, 5)
    with pytest.raises(KeyError):
        tag_item_signature(net, -1)


def test_signature_drops_zeros_and_rejects_negatives():
    sig = SignatureVector("tag", 0, "item", {1: 0.0, 2: 3.0})
    assert sig.entries == {2: 3.0}
    with pytest.raises(ValueError):
        SignatureVector("tag", 0, "item", {1: -0.5})


# -- cosine -------------------------------------------------------------------

def _vec(entries):
    return SignatureVector("tag", 0, "item", entries)


def test_cosine_identical_vectors_is_one():
    v = _vec({1: 2.0, 2: 1.5})
    assert cosine(v, v) == 1.0


def test_cosine_disjoint_supports_is_zero():
    assert cosine(_vec({1: 1.0}), _vec({2: 1.0})) == 0.0


def test_cosine_half_overlap():
    u = _vec({0: 1.0, 1: 1.0})
    v = _vec({1: 1.0, 2: 1.0})
    assert cosine(u, v) == pytest.approx(0.5, abs=1e-12)


def test_cosine_empty_vector_is_zero_even_against_itself():
    empty = _vec({})
    assert cosine(empty, _vec({1: 1.0})) == 0.0
    assert cosine(empty, empty) == 0.0


def test_cosine_axis_mismatch_raises():
    u = SignatureVector("user", 0, "item", {0: 1.0})
    v = SignatureVector("item", 0, "tag", {0: 1.0})
    with pytest.raises(ValueError):
        cosine(u, v)


sparse_vectors = st.dictionaries(
    st.integers(min_value=0, max_value=8),
    st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
    max_size=6,
)


@given(a=sparse_vectors, b=sparse_vectors)
def test_cosine_symmetry_and_bounds(a, b):
    u, v = _vec(a), _vec(b)
    assert cosine(u, v) == cosine(v, u)
    assert 0.0 <= cosine(u, v) <= 1.0


@given(a=sparse_vectors, b=sparse_vectors,
       c=st.floats(min_value=0.01, max_value=100.0))
def test_cosine_scale_invariance(a, b, c):
    u, v = _vec(a), _vec(b)
    scaled = _vec({k: c * x for k, x in a.items()})
    assert cosine(scaled, v) == pytest.approx(cosine(u, v), abs=1e-12)


# -- correlation matrices -----------------------------------------------------

def test_identical_libraries_correlate_one():
    net = net_of(ev("a", "x", "T"), ev("a", "y", "T"),
                 ev("b", "x", "T"), ev("b", "y", "T"))
    C = correlation_matrix(net, "users")
    assert C.value(0, 1) == pytest.approx(1.0, abs=1e-12)
    assert C.value(0, 0) == 1.0  # diagonal is pinned exactly


def test_disjoint_tags_give_identity_matrix():
    net = net_of(ev("a", "x", "T1"), ev("b", "y", "T2"), ev("c", "z", "T3"))
    C = correlation_matrix(net, "tags")
    assert np.array_equal(C.dense(), np.eye(3))


@pytest.mark.parametrize("view", ["users-via-items", "items-via-users",
                                  "items-via-tags", "tags-via-items"])
def test_matrix_matches_bruteforce_oracle(view):
    rng = random.Random(hash(view) % 1000)
    for trial in range(8):
        events = random_events(rng)
        net = build_network(events)
        C = correlation_matrix(net, view.split("-")[0], view=view)
        vecs = oracle_vectors(events, view)
        by_name = {"users-via-items": net.users, "items-via-users": net.items,
                   "items-via-tags": net.items, "tags-via-items": net.tags}[view]
        axis_reg = {"users-via-items": net.items, "items-via-users": net.users,
                    "items-via-tags": net.tags, "tags-via-items": net.items}[view]
        for a in C.members:
            for b in C.members:
                e1 = {axis_reg.id_of(k): v
                      for k, v in vecs.get(by_name.name_of(a), {}).items()}
                e2 = {axis_reg.id_of(k): v
                      for k, v in vecs.get(by_name.name_of(b), {}).items()}
                expected = 1.0 if a == b and e1 else oracle_cosine(e1, e2)
                assert C.value(a, b) == pytest.approx(expected, abs=1e-12)
        assert np.array_equal(C.dense(), C.dense().T)


def test_zero_signature_members_are_flagged():
    users = EntityRegistry("user", ["a", "ghost"], {"a": 0, "ghost": 1})
    items = EntityRegistry("item", ["x"], {"x": 0})
    tags = EntityRegistry("tag", ["t"], {"t": 0})
    net = TripartiteNetwork(users, items, tags, {(0, 0): (0,)})
    C = correlation_matrix(net, "users")
    assert C.zero_members == {1}
    assert C.value(1, 1) == 0.0
    assert C.value(0, 1) == 0.0
    assert C.value(0, 0) == 1.0


def test_sparse_storage_at_every_size():
    net = net_of(ev("a", "x", "T"), ev("a", "y", "T"),
                 ev("b", "x", "T"), ev("c", "z", "U"))
    for members in ([0], [0, 2], None):
        sparse = correlation_matrix(net, "users", members=members)
        dense = dataclasses.replace(sparse, values=sparse.dense())
        assert not sparse.is_dense and dense.is_dense
        assert sp.issparse(sparse.values)
        for a in dense.members:
            for b in dense.members:
                assert sparse.value(a, b) == dense.value(a, b)


def test_member_subset_and_view_validation():
    net = net_of(ev("a", "x", "T"), ev("b", "y", "U"))
    C = correlation_matrix(net, "tags", members=[1])
    assert C.members == [1] and C.names == ["u"]
    with pytest.raises(ValueError):
        correlation_matrix(net, "tags", view="users-via-items")
    with pytest.raises(KeyError):
        correlation_matrix(net, "tags", members=[7])
    with pytest.raises(ValueError):
        correlation_matrix(net, "tags", members=[0, 0])


def test_members_come_out_in_ascending_id_order():
    net = net_of(ev("a", "x", "T", "U"), ev("b", "x", "T"), ev("b", "y", "V", "W"),
                 ev("c", "y", "U", "W"))
    full = correlation_matrix(net, "tags")
    shuffled = [3, 0, 2, 1]
    C = correlation_matrix(net, "tags", members=shuffled)
    assert C.members == full.members == [0, 1, 2, 3]
    assert C.names == full.names == ["t", "u", "v", "w"]
    assert (C.values != full.values).nnz == 0
    # Hand-built matrices are put in the same order, names and values along.
    names = [C.names[m] for m in shuffled]
    values = C.dense()[np.ix_(shuffled, shuffled)]
    for stored in (values, sp.csr_matrix(values)):
        by_hand = CorrelationMatrix("tag", "v", list(shuffled), names, stored)
        assert by_hand.members == C.members and by_hand.names == C.names
        assert np.array_equal(by_hand.dense(), C.dense())
    sine = SineMatrix(list(shuffled), names, values)
    assert sine.members == C.members and np.array_equal(sine.values, C.dense())


# -- top_n --------------------------------------------------------------------

def test_top_n_larger_than_family_returns_all():
    net = net_of(ev("a", "x", "T"), ev("b", "y", "U"))
    assert top_n(net, "tags", 10) == [0, 1]


def test_top_n_breaks_ties_by_first_seen():
    # tag usage counts: T:5, A:3, B:3, C:1 (A seen before B)
    events = []
    for k in range(5):
        events.append(ev(f"u{k}", f"i{k}", "T"))
    events += [ev("u0", "j0", "A"), ev("u1", "j1", "A"), ev("u2", "j2", "A")]
    events += [ev("u0", "k0", "B"), ev("u1", "k1", "B"), ev("u2", "k2", "B")]
    events += [ev("u0", "l0", "C")]
    net = build_network(events)
    ids = top_n(net, "tags", 2)
    assert [net.tags.name_of(t) for t in ids] == ["t", "a"]


def test_top_n_matches_sort_oracle():
    rng = random.Random(3)
    events = random_events(rng, n_users=8, n_items=10, n_tags=7, n_events=60)
    net = build_network(events)
    counts = {t: net.tag_link_count(t) for t in range(len(net.tags))}
    expected = sorted(counts, key=lambda t: (-counts[t], t))[:4]
    assert top_n(net, "tags", 4) == expected
    audiences = {i: len(net.item_users(i)) for i in range(len(net.items))}
    expected_items = sorted(audiences, key=lambda i: (-audiences[i], i))[:5]
    assert top_n(net, "items", 5) == expected_items


def test_top_n_rejects_nonpositive_n():
    net = net_of(ev("a", "x", "T"))
    with pytest.raises(ValueError):
        top_n(net, "tags", 0)


def test_half_overlap_of_six_item_libraries_is_exactly_half():
    shared = [ev(u, f"s{k}", "T") for u in ("a", "b") for k in range(3)]
    own = [ev(u, f"{u}{k}", "T") for u in ("a", "b") for k in range(3)]
    net = net_of(*shared, *own)
    C = correlation_matrix(net, "users")
    assert C.value(0, 1) == 0.5
    # the filter is strict, so an exact 0.5 does not link at phi = 0.5
    tree = build_tree(C, FilterGrid(0.0, 0.5))
    assert [isl.size for isl in tree.islands_at(1)] == [1, 1]


def test_half_overlap_of_two_item_libraries_is_exactly_half():
    net = net_of(ev("a", "x", "T"), ev("a", "y", "T"),
                 ev("b", "x", "T"), ev("b", "z", "T"))
    assert correlation_matrix(net, "users").value(0, 1) == 0.5


def test_cosine_agrees_with_matrix_on_exact_half():
    net = net_of(ev("a", "x", "T"), ev("a", "y", "T"),
                 ev("b", "x", "T"), ev("b", "z", "T"))
    pair = cosine(user_item_signature(net, 0), user_item_signature(net, 1))
    assert pair == 0.5 == correlation_matrix(net, "users").value(0, 1)


@pytest.mark.parametrize("family", ["tagss", "usersss", "s", ""])
def test_family_names_strip_one_plural_s(family):
    net = net_of(ev("a", "x", "T"))
    with pytest.raises(ValueError, match="unknown family"):
        correlation_matrix(net, family)
    with pytest.raises(ValueError, match="unknown family"):
        top_n(net, family, 1)


@pytest.mark.parametrize("family", ["tags", "tag"])
def test_family_names_accept_singular_and_plural(family):
    net = net_of(ev("a", "x", "T"), ev("b", "x", "U"))
    assert correlation_matrix(net, family).family == "tag"
    assert top_n(net, family, 1) == [0]


# -- input validation ---------------------------------------------------------

def test_from_dense_rejects_non_finite_values():
    with pytest.raises(ValueError, match="finite"):
        CorrelationMatrix.from_dense([[1.0, float("nan")], [float("nan"), 1.0]])
    with pytest.raises(ValueError, match="finite"):
        CorrelationMatrix.from_dense([[1.0, float("inf")], [float("inf"), 1.0]])


def test_from_dense_rejects_asymmetric_values():
    with pytest.raises(ValueError, match="symmetric"):
        CorrelationMatrix.from_dense([[1.0, 0.2], [0.9, 1.0]])


# -- dense and sparse storage -------------------------------------------------

corpora = st.lists(
    st.tuples(
        st.sampled_from([f"u{k}" for k in range(6)]),
        st.sampled_from([f"i{k}" for k in range(7)]),
        st.lists(st.sampled_from([f"t{k}" for k in range(6)]), min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=30,
)


@given(rows=corpora, view=st.sampled_from(sorted(tagnet.projection.VIEWS)))
def test_sparse_storage_equals_dense_exactly(rows, view):
    net = build_network([TaggingEvent(u, i, tuple(t)) for u, i, t in rows])
    family = view.split("-")[0]
    sparse = correlation_matrix(net, family, view=view)
    dense = dataclasses.replace(sparse, values=sparse.dense())
    assert dense.is_dense and not sparse.is_dense
    assert np.array_equal(dense.values, dense.values.T)
    assert (sparse.values != sparse.values.T).nnz == 0
    pairs = [(a, b) for a in sparse.members for b in sparse.members]
    assert [sparse.value(a, b) for a, b in pairs] == [dense.value(a, b) for a, b in pairs]
    assert sparse.zero_members == dense.zero_members
    for m in dense.members:
        assert dense.value(m, m) == (0.0 if m in dense.zero_members else 1.0)


def test_sparse_correlation_keeps_int32_indices():
    net = net_of(ev("a", "x", "T"), ev("b", "x", "U"), ev("b", "y", "T"))
    for family in ("users", "items", "tags"):
        values = correlation_matrix(net, family).values
        assert values.indices.dtype == values.indptr.dtype == np.int32


@pytest.mark.parametrize("view", ["items-via-tags", "tags-via-items"])
def test_binary_matrix_matches_binary_signatures(view):
    rng = random.Random(7)
    net = build_network(random_events(rng, n_events=40))
    family = view.split("-")[0]
    weighted = correlation_matrix(net, family, view=view)
    C = correlation_matrix(net, family, view=view, binary=True)
    sigs = {m: tagnet.projection.signature_for_view(net, view, m, binary=True)
            for m in C.members}
    for a in C.members:
        for b in C.members:
            assert C.value(a, b) == pytest.approx(cosine(sigs[a], sigs[b]), abs=1e-12)
    # the binary copy leaves the network's weights alone
    again = correlation_matrix(net, family, view=view)
    assert np.array_equal(again.dense(), weighted.dense())
    assert not np.array_equal(C.dense(), weighted.dense())


@pytest.mark.parametrize("make", [
    lambda values: CorrelationMatrix("tag", "v", [0, 1], ["a", "b"], values),
    lambda values: SineMatrix([0, 1], ["a", "b"], values),
], ids=["correlation", "sine"])
def test_values_must_fit_the_members(make):
    for values in (np.eye(3), np.ones((2, 3)), np.ones(2), sp.csr_matrix(np.eye(3))):
        with pytest.raises(ValueError, match="do not fit 2 members"):
            make(values)
    assert make(np.eye(2)).value(1, 1) == 1.0


# -- the cached grid ------------------------------------------------------------

def _request(net, view, members, binary):
    """What correlation_matrix gives: the exception type, or the bytes of the
    values and the member, name and zero-member lists."""
    try:
        C = correlation_matrix(net, view.split("-")[0], view=view,
                               members=members, binary=binary)
    except (KeyError, ValueError) as exc:
        return type(exc)
    dense = C.values.toarray()
    return dense.shape, dense.tobytes(), C.members, C.names, sorted(C.zero_members)


member_lists = st.one_of(
    st.none(),                                       # the whole family
    st.just([]),
    st.just([7]),                                    # unknown in every family
    st.integers(0, 3).map(lambda m: [m, m]),         # duplicate
    st.lists(st.integers(0, 6), unique=True, max_size=6),
)
requests = st.lists(
    st.tuples(st.sampled_from(sorted(tagnet.projection.VIEWS)), member_lists,
              st.booleans()),
    min_size=1,
    max_size=6,
)
SHARED_TAGS = [("u0", "i0", ["t0", "t1"]), ("u1", "i0", ["t1", "t2"]),
               ("u1", "i1", ["t0"]), ("u2", "i1", ["t2", "t3"])]


@given(rows=corpora, calls=requests)
@example(rows=SHARED_TAGS, calls=[("tags-via-items", [], False),
                                  ("tags-via-items", [0, 2], False),
                                  ("tags-via-items", None, False),
                                  ("tags-via-items", [], False)])
@example(rows=SHARED_TAGS, calls=[("tags-via-items", [1, 3], False),
                                  ("tags-via-items", [0, 1, 2, 3], False),
                                  ("tags-via-items", [1, 3], False)])
@example(rows=SHARED_TAGS, calls=[("tags-via-items", [2, 3], True),
                                  ("tags-via-items", [0, 3], True),
                                  ("tags-via-items", [1, 2], True),
                                  ("tags-via-items", [0, 1, 2], True)])
def test_cached_grid_gives_what_a_fresh_network_gives(rows, calls):
    def network():
        return build_network([TaggingEvent(u, i, tuple(t)) for u, i, t in rows])

    net = network()
    for view, members, binary in calls:
        assert _request(net, view, members, binary) == _request(
            network(), view, members, binary)


def test_whole_cached_grid_is_returned_uncopied_and_read_only():
    net = net_of(ev("a", "x", "T", "U"), ev("b", "x", "T"), ev("b", "y", "V"))
    full = correlation_matrix(net, "tags")
    part = correlation_matrix(net, "tags", members=[0, 1])
    again = correlation_matrix(net, "tags", members=[2, 0, 1])
    assert again.values is full.values
    assert not np.shares_memory(part.values.data, full.values.data)
    for array in (full.values.data, full.values.indices, full.values.indptr):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_a_request_computes_only_its_uncached_rows(monkeypatch):
    grown = []
    grow = tagnet.projection._CosineRows._grow
    monkeypatch.setattr(tagnet.projection._CosineRows, "_grow",
                        lambda self, new: grown.append(new.tolist()) or grow(self, new))
    net = net_of(ev("a", "x", "T", "U"), ev("b", "x", "T"), ev("b", "y", "V", "W"))
    for members in ([0, 1], [1, 2], [0, 2], [0, 1, 2, 3], [3, 1]):
        correlation_matrix(net, "tags", members=members)
    assert grown == [[0, 1], [2], [3]]


def test_an_empty_request_gives_an_empty_matrix_before_and_after_others():
    net = net_of(ev("a", "x", "T", "U"), ev("b", "x", "T"))
    for members in ([], [0, 1], [], [1], []):
        C = correlation_matrix(net, "tags", members=members)
        assert C.values.shape == (len(members),) * 2 and C.members == members


def _ascending_in_every_row(csr):
    return all(np.all(np.diff(csr.indices[lo:hi]) > 0)
               for lo, hi in zip(csr.indptr, csr.indptr[1:]))


@pytest.mark.parametrize("family", ["users", "items", "tags"])
def test_grids_come_back_with_ascending_indices_in_every_row(family):
    # _gather and the sweep read each row's entries in ascending column order.
    net = build_network(generate(PlantedConfig(4, 6, 12, 8, seed=2))[0])
    n = len({"users": net.users, "items": net.items, "tags": net.tags}[family])
    first = correlation_matrix(net, family, members=range(0, n, 2))
    later = correlation_matrix(net, family, members=range(n // 2))  # odd ones new
    assert _ascending_in_every_row(first.values)
    assert _ascending_in_every_row(later.values)
    rows = net._grids[tagnet.projection.DEFAULT_VIEW[family[:-1]], False]
    assert all(np.all(np.diff(rows.cols[m]) > 0) for m in range(1, n // 2, 2))
