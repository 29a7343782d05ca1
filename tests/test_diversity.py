import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tagnet.diversity
from tagnet import (
    CorrelationMatrix,
    EntityRegistry,
    IslandActivity,
    PlantedConfig,
    SignatureVector,
    SineMatrix,
    TagSpectrum,
    TripartiteNetwork,
    activity_color,
    build_network,
    build_tree,
    correlation_matrix,
    entropy,
    generate,
    island_activity,
    pairwise_distance,
    sine_matrix,
    tag_spectrum,
)

from tagnet.diversity import diversity

from conftest import ev, net_of, pair_arrays


def spec_of(counts, owner=0):
    return TagSpectrum(owner, dict(counts))


def sine_of(values, members=None):
    arr = np.array(values, dtype=float)
    members = members or list(range(arr.shape[0]))
    return SineMatrix(members, [f"t{m}" for m in members], arr)


def oracle_diversity(counts, S):
    total = 0.0
    for i, ci in counts.items():
        for j, cj in counts.items():
            total += S.value(i, j) * ci * cj
    return total


def oracle_cross(c1, c2, S):
    return sum(S.value(i, j) * vi * vj
               for i, vi in c1.items() for j, vj in c2.items())


# -- tag spectra --------------------------------------------------------------

def test_user_spectrum_counts_attributions():
    net = net_of(ev("mu", "i", "I1", "I2"))
    spec = tag_spectrum(net, 0)
    assert spec.counts == {0: 1, 1: 1}
    assert spec.total == 2


def test_userless_user_has_empty_spectrum():
    users = EntityRegistry("user", ["ghost"], {"ghost": 0})
    items = EntityRegistry("item", [], {})
    tags = EntityRegistry("tag", [], {})
    net = TripartiteNetwork(users, items, tags, pair_arrays({}))
    spec = tag_spectrum(net, 0)
    assert spec.counts == {} and spec.total == 0


def test_sample_spectrum_adds_user_totals():
    net = net_of(ev("a", "x", "T", "U"), ev("b", "x", "T"), ev("b", "y", "V"))
    sample = tag_spectrum(net)
    users_total = sum(tag_spectrum(net, u).total for u in range(len(net.users)))
    assert sample.total == users_total
    assert sample.counts == {0: 2, 1: 1, 2: 1}


def test_weighted_spectrum_uses_link_weights():
    net = net_of(ev("a", "x", "T", "U"))
    spec = tag_spectrum(net, 0, weighted=True)
    assert spec.counts == {0: 0.5, 1: 0.5}
    assert spec.total == pytest.approx(1.0)


def test_spectrum_unknown_user_rejected():
    net = net_of(ev("a", "x", "T"))
    with pytest.raises(KeyError):
        tag_spectrum(net, 4)


# -- entropy ------------------------------------------------------------------

def test_entropy_single_tag_is_zero():
    assert entropy(spec_of({0: 5})) == 0.0


def test_entropy_single_tag_is_positive_zero():
    e = entropy(spec_of({0: 5}))
    assert e == 0.0 and math.copysign(1.0, e) == 1.0


@pytest.mark.parametrize("k", [2, 3, 7])
def test_entropy_uniform_is_log_k(k):
    spec = spec_of({t: 4 for t in range(k)})
    assert entropy(spec) == pytest.approx(math.log(k), abs=1e-12)


def test_entropy_frozen_example():
    # -(0.5 ln 0.5 + 2 * 0.25 ln 0.25)
    assert entropy(spec_of({0: 2, 1: 1, 2: 1})) == pytest.approx(
        1.0397207708399179, abs=1e-12
    )


def test_entropy_empty_spectrum_rejected():
    with pytest.raises(ValueError):
        entropy(spec_of({}))


def test_float_sums_add_one_term_at_a_time_from_zero():
    # Added in order, ten 0.1s give 0.9999999999999999; correctly rounded, as
    # math.fsum or the compensated sum() of Python 3.12+ gives, they are 1.0.
    tenths = dict.fromkeys(range(10), 0.1)
    assert spec_of(tenths).total == 0.9999999999999999
    u = SignatureVector("tag", 0, "item", tenths)
    v = SignatureVector("tag", 1, "item", dict.fromkeys(range(10), 1.0))
    assert u.dot(v) == v.dot(u) == 0.9999999999999999
    # These terms give -1.6398230881290614 in order, -1.6398230881290616 by fsum.
    spec = spec_of(enumerate([3, 2, 5, 2, 8, 8]))
    assert entropy(spec) == 1.6398230881290614


@given(counts=st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                       max_size=8))
def test_entropy_permutation_invariant_and_bounded(counts):
    spec = spec_of(dict(enumerate(counts)))
    rng = random.Random(0)
    shuffled = list(enumerate(counts))
    rng.shuffle(shuffled)
    permuted = spec_of({k + 100: v for k, v in shuffled})
    assert entropy(permuted) == pytest.approx(entropy(spec), abs=1e-12)
    assert entropy(spec) <= math.log(len(counts)) + 1e-12


# -- sine matrix --------------------------------------------------------------

def test_sine_endpoint_values():
    S = sine_matrix(CorrelationMatrix.from_dense([[1.0, 0.0], [0.0, 1.0]]))
    assert S.value(0, 0) == 0.0
    assert S.value(0, 1) == 1.0


def test_sine_of_06_is_08():
    S = sine_matrix(CorrelationMatrix.from_dense([[1.0, 0.6], [0.6, 1.0]]))
    assert S.value(0, 1) == pytest.approx(0.8, abs=1e-12)


def test_sine_complements_indicator_matrices():
    c = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    S = sine_matrix(CorrelationMatrix.from_dense(c))
    assert np.array_equal(S.values, 1.0 - c)


# -- diversity ----------------------------------------------------------------

def test_single_tag_user_has_zero_diversity():
    S = sine_of([[0.0]])
    assert diversity(spec_of({0: 7}), S) == 0.0


def test_two_tag_diversity_counts_ordered_pairs():
    S = sine_of([[0.0, 0.8], [0.8, 0.0]])
    assert diversity(spec_of({0: 1, 1: 1}), S) == pytest.approx(1.6, abs=1e-12)


def test_diversity_scales_quadratically():
    S = sine_of([[0.0, 0.8, 0.3], [0.8, 0.0, 0.5], [0.3, 0.5, 0.0]])
    counts = {0: 1, 1: 2, 2: 1}
    base = diversity(spec_of(counts), S)
    scaled = diversity(spec_of({t: 3 * c for t, c in counts.items()}), S)
    assert scaled == pytest.approx(9 * base, rel=1e-9)


def test_diversity_matches_double_sum_oracle():
    rng = random.Random(8)
    n = 5
    a = np.array([[rng.random() for _ in range(n)] for _ in range(n)])
    s = (a + a.T) / 2
    np.fill_diagonal(s, 0.0)
    S = sine_of(s)
    counts = {t: rng.randint(1, 6) for t in range(n) if rng.random() < 0.8}
    counts = counts or {0: 1}
    assert diversity(spec_of(counts), S) == pytest.approx(
        oracle_diversity(counts, S), rel=1e-9
    )


def test_diversity_is_bilinear():
    rng = random.Random(21)
    s = np.array([[0.0, 0.4, 0.9], [0.4, 0.0, 0.7], [0.9, 0.7, 0.0]])
    S = sine_of(s)
    c1 = {0: 2, 1: 1}
    c2 = {1: 3, 2: 2}
    both = {t: c1.get(t, 0) + c2.get(t, 0) for t in {*c1, *c2}}
    lhs = diversity(spec_of(both), S)
    rhs = (diversity(spec_of(c1), S) + diversity(spec_of(c2), S)
           + 2 * oracle_cross(c1, c2, S))
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_diversity_missing_tags_listed():
    S = sine_of([[0.0]])
    with pytest.raises(ValueError, match="3, 9"):
        diversity(spec_of({0: 1, 3: 2, 9: 1}), S)


# -- pairwise distance --------------------------------------------------------

def test_self_distance_is_one():
    S = sine_of([[0.0, 0.8], [0.8, 0.0]])
    spec = spec_of({0: 2, 1: 3})
    assert pairwise_distance(spec, spec, S) == pytest.approx(1.0, abs=1e-9)


def test_distance_hand_expanded_fixture():
    # tags A,B,C,D: S_AB=0.6, S_CD=0.3, every cross pair 1.0
    s = np.ones((4, 4))
    np.fill_diagonal(s, 0.0)
    s[0, 1] = s[1, 0] = 0.6
    s[2, 3] = s[3, 2] = 0.3
    S = sine_of(s)
    spec1 = spec_of({0: 2, 1: 1})
    spec2 = spec_of({2: 1, 3: 3})
    # d1 = 2*0.6*2*1 = 2.4, d2 = 2*0.3*1*3 = 1.8, cross = 12
    assert pairwise_distance(spec1, spec2, S) == pytest.approx(
        12.0 / math.sqrt(2.4 * 1.8), abs=1e-9
    )
    assert pairwise_distance(spec1, spec2, S) == pytest.approx(
        5.773502691896258, abs=1e-9
    )


def test_distance_symmetric_under_swap():
    s = np.array([[0.0, 0.5, 0.9], [0.5, 0.0, 0.2], [0.9, 0.2, 0.0]])
    S = sine_of(s)
    a, b = spec_of({0: 1, 1: 4}), spec_of({1: 2, 2: 5})
    assert pairwise_distance(a, b, S) == pytest.approx(
        pairwise_distance(b, a, S), abs=1e-12
    )


def test_distance_undefined_for_zero_diversity():
    S = sine_of([[0.0, 1.0], [1.0, 0.0]])
    single = spec_of({0: 3})
    wide = spec_of({0: 1, 1: 1})
    with pytest.raises(ValueError):
        pairwise_distance(single, wide, S)


# -- island activity ----------------------------------------------------------

def _tag_tree(corr):
    return build_tree(CorrelationMatrix.from_dense(corr, family="tag"))


def test_full_coverage_island_has_ratio_one():
    tree = _tag_tree(np.array([[1.0, 0.9], [0.9, 1.0]]))
    sample = spec_of({0: 3, 1: 1}, owner="sample")
    user = spec_of({0: 1, 1: 2}, owner=1)
    report = island_activity(tree, user, sample)
    root = report.records[0]
    assert root.p_sample == 1.0 and root.p_user == 1.0 and root.ratio == 1.0


def test_user_concentrated_in_one_island():
    corr = np.eye(4)
    corr[0, 1] = corr[1, 0] = 0.8
    corr[2, 3] = corr[3, 2] = 0.8
    tree = _tag_tree(corr)
    sample = spec_of({0: 2, 1: 2, 2: 2, 3: 2}, owner="sample")
    user = spec_of({0: 1, 1: 3}, owner=0)
    report = island_activity(tree, user, sample)
    for isl in tree.islands:
        if isl.members == frozenset({0, 1}):
            assert report.records[isl.id].p_user == 1.0
            assert report.records[isl.id].ratio == pytest.approx(2.0)
        if isl.members == frozenset({2, 3}):
            assert report.records[isl.id].p_user == 0.0
            assert report.records[isl.id].ratio == 0.0


def test_activity_frozen_example():
    tree = _tag_tree(np.array([[1.0, 0.9], [0.9, 1.0]]))
    sample = spec_of({0: 3, 1: 1}, owner="sample")
    user = spec_of({0: 1, 1: 1}, owner=0)
    report = island_activity(tree, user, sample)
    for isl in tree.islands:
        if isl.members == frozenset({0}):
            rec = report.records[isl.id]
            assert rec.p_sample == pytest.approx(0.75)
            assert rec.p_user == pytest.approx(0.5)
            assert rec.ratio == pytest.approx(2 / 3)


def test_sibling_sample_shares_sum_to_one():
    rng = random.Random(13)
    n = 8
    a = np.array([[rng.random() for _ in range(n)] for _ in range(n)])
    corr = (a + a.T) / 2
    np.fill_diagonal(corr, 1.0)
    tree = _tag_tree(corr)
    sample = spec_of({t: rng.randint(1, 9) for t in range(n)}, owner="sample")
    user = spec_of({0: 1}, owner=0)
    report = island_activity(tree, user, sample)
    for level in range(len(tree.levels)):
        share = sum(report.records[isl.id].p_sample
                    for isl in tree.islands_at(level))
        assert share == pytest.approx(1.0, abs=1e-9)


def _added_in_order(counts, ids):
    total = 0
    for m in ids:
        total += counts.get(m, 0)
    return total


def test_weighted_island_shares_add_members_in_ascending_id_order():
    # Weighted spectra count fractions 1/k, whose float sum depends on the order
    # of addition. Each share is the island's members added one at a time in
    # ascending id order from 0, over the spectrum's total.
    net = build_network(generate(PlantedConfig(4, 10, 15, 20, seed=5))[0])
    tree = build_tree(correlation_matrix(net, "tags"))
    sample = tag_spectrum(net, weighted=True)
    user = tag_spectrum(net, 3, weighted=True)
    report = island_activity(tree, user, sample)
    order_shows = False
    for isl in tree.islands:
        record = report.records[isl.id]
        for spec, share in ((sample, record.p_sample), (user, record.p_user)):
            ids = sorted(isl.members)
            assert share == _added_in_order(spec.counts, ids) / spec.total
            backwards = _added_in_order(spec.counts, ids[::-1]) / spec.total
            order_shows |= backwards != share
    assert order_shows  # some island's sum differs when added in another order


def _weighted_planted_activity():
    net = build_network(generate(PlantedConfig(4, 10, 15, 20, seed=5))[0])
    tree = build_tree(correlation_matrix(net, "tags"))
    sample = tag_spectrum(net, weighted=True)
    user = tag_spectrum(net, 3, weighted=True)
    return tree, user, sample


def test_diversity_name_is_the_module():
    import tagnet.diversity as D

    assert D.diversity is diversity and D.tag_spectrum is tag_spectrum


def test_island_activity_builds_no_records(monkeypatch):
    tree, user, sample = _weighted_planted_activity()

    def refuse(*args):
        raise AssertionError("a record view was built")

    monkeypatch.setattr(tagnet.diversity, "IslandActivity", refuse)
    monkeypatch.setattr(tagnet.diversity, "activity_color", refuse)
    report = island_activity(tree, user, sample)
    assert len(report.p_sample) == len(report.p_user) == len(tree.islands)
    with pytest.raises(AssertionError, match="record view"):
        report.records


def test_records_view_matches_per_island_formula():
    tree, user, sample = _weighted_planted_activity()
    report = island_activity(tree, user, sample)
    expected = {}
    for isl in tree.islands:
        ids = sorted(isl.members)
        p_sample = _added_in_order(sample.counts, ids) / sample.total
        p_user = _added_in_order(user.counts, ids) / user.total
        ratio = p_user / p_sample if p_sample > 0 else None
        expected[isl.id] = IslandActivity(isl.id, p_sample, p_user, ratio,
                                          activity_color(ratio))
    assert report.records == expected
    assert report.records is report.records


def test_activity_requires_nonempty_spectra_and_tag_family():
    tree = _tag_tree(np.array([[1.0, 0.5], [0.5, 1.0]]))
    sample = spec_of({0: 1, 1: 1}, owner="sample")
    with pytest.raises(ValueError):
        island_activity(tree, spec_of({}), sample)
    with pytest.raises(ValueError):
        island_activity(tree, spec_of({0: 1}), spec_of({}))
    item_tree = build_tree(
        CorrelationMatrix.from_dense(np.eye(2), family="item")
    )
    with pytest.raises(ValueError):
        island_activity(item_tree, spec_of({0: 1}), sample)


# -- colors -------------------------------------------------------------------

def test_color_midpoint_at_ratio_one():
    assert activity_color(1.0) == (0, 100, 110)


def test_color_clamps_to_blue():
    assert activity_color(4.0) == (0, 0, 220)
    assert activity_color(1000.0) == (0, 0, 220)


def test_color_at_ratio_two():
    assert activity_color(2.0) == (0, 50, 165)


def test_color_clamps_to_green():
    assert activity_color(0.25) == (0, 200, 0)
    assert activity_color(0.0) == (0, 200, 0)
    assert activity_color(1e-9) == (0, 200, 0)


def test_color_undefined_is_gray():
    assert activity_color(None) == (128, 128, 128)


def test_color_rejects_negative_ratio():
    with pytest.raises(ValueError):
        activity_color(-0.5)
