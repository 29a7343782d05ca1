import contextlib
import dataclasses
import functools
import importlib.util
import json
import math
import operator
import pathlib
import random
import signal
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tagnet.percolation
from tagnet import (
    CorrelationMatrix,
    FilterGrid,
    build_network,
    build_tree,
    correlation_matrix,
    read_triples,
    write_tree_json,
)

from conftest import ev, net_of


# -- brute-force oracle -------------------------------------------------------

def oracle_edges(C, phi):
    """Edges straight from the filter definition: C > phi, strictly."""
    out = set()
    for a in C.members:
        for b in C.members:
            if a < b and C.value(a, b) > phi:
                out.add((a, b))
    return out


def oracle_components(members, edges):
    """Reachability closure by DFS from every member."""
    adj = {m: set() for m in members}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, parts = set(), []
    for start in sorted(members):
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            node = stack.pop()
            if node in comp:
                continue
            comp.add(node)
            stack.extend(adj[node] - comp)
        seen |= comp
        parts.append(frozenset(comp))
    return parts


def exact_sum(values, n):
    """A sum as build_tree ranks by it in an n-member matrix: each value rounded
    to the nearest multiple of 2 ** -2e (ties to even), e = 53 - n.bit_length(),
    the rounded values added exactly, and the total rounded once to a float."""
    unit = 2 ** (2 * (53 - n.bit_length()))
    return float(sum(Fraction(round(Fraction(v) * unit), unit) for v in values))


def oracle_member_order(island, C):
    """The island's members by summed correlation to it (exact_sum), largest
    first, ties to the smaller id."""
    def total(i):
        return exact_sum([C.value(i, j) for j in island], C.size)
    return sorted(island, key=lambda i: (-total(i), i))


def oracle_characteristic(island, C):
    return oracle_member_order(island, C)[0]


def oracle_tree(C, grid):
    """(levels, per-level dict members -> (parent members, characteristic))."""
    levels = []
    prev = [frozenset(C.members)]
    structure = []
    t = 0
    while True:
        phi = grid.start + t * grid.step
        if phi >= 1.0:
            break
        parts = oracle_components(C.members, oracle_edges(C, phi))
        levels.append(phi)
        level_map = {}
        for part in parts:
            parent = next(p for p in prev if part <= p)
            level_map[part] = (parent, oracle_characteristic(part, C))
        structure.append(level_map)
        prev = parts
        t += 1
        if all(len(p) == 1 for p in parts):
            break
    return levels, structure


def random_matrix(rng, n):
    a = np.array([[rng.random() for _ in range(n)] for _ in range(n)])
    c = (a + a.T) / 2.0
    np.fill_diagonal(c, 1.0)
    return CorrelationMatrix.from_dense(c)


def tree_structure(tree):
    """Reshape a built tree into the oracle's comparable form."""
    by_id = {isl.id: isl for isl in tree.islands}
    structure = []
    for level in range(len(tree.levels)):
        level_map = {}
        for isl in tree.islands_at(level):
            parent = by_id[isl.parent].members
            level_map[isl.members] = (parent, isl.characteristic)
        structure.append(level_map)
    return structure


def partition_at(C, phi):
    """The islands build_tree finds at phi, as member sets ordered by min."""
    tree = build_tree(C, FilterGrid(phi, 0.5))
    return sorted((isl.members for isl in tree.islands_at(0)), key=min)


# -- the phi filter -----------------------------------------------------------

def test_filter_is_strictly_greater_than():
    C = CorrelationMatrix.from_dense([[1.0, 0.3], [0.3, 1.0]])
    assert partition_at(C, 0.3) == [frozenset({0}), frozenset({1})]
    assert partition_at(C, 0.29) == [frozenset({0, 1})]


def test_filter_at_zero_keeps_all_positive_entries():
    C = CorrelationMatrix.from_dense([[1, 1e-300, 0], [1e-300, 1, 0], [0, 0, 1]])
    assert partition_at(C, 0.0) == [frozenset({0, 1}), frozenset({2})]


def test_filter_above_max_entry_is_empty():
    C = CorrelationMatrix.from_dense([[1, 0.2], [0.2, 1]])
    assert partition_at(C, 0.9) == [frozenset({0}), frozenset({1})]
    assert build_tree(C).levels[-1] == 0.2


def test_filter_example_three_by_three():
    C = CorrelationMatrix.from_dense(
        [[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]]
    )
    assert partition_at(C, 0.15) == [frozenset({0, 1, 2})]
    assert partition_at(C, 0.25) == [frozenset({0, 1}), frozenset({2})]


# -- components ---------------------------------------------------------------

def test_components_no_edges_gives_singletons():
    C = CorrelationMatrix("tag", "direct", [3, 1, 2], ["c", "a", "b"], np.eye(3))
    assert partition_at(C, 0.0) == [frozenset({1}), frozenset({2}), frozenset({3})]


def test_components_path_is_one_component():
    C = CorrelationMatrix.from_dense([[1, 0.5, 0], [0.5, 1, 0.5], [0, 0.5, 1]])
    assert partition_at(C, 0.0) == [frozenset({0, 1, 2})]


def test_components_match_reachability_oracle():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 12)
        members = list(range(n))
        edges = {(a, b) for a in members for b in members
                 if a < b and rng.random() < 0.25}
        c = np.eye(n)
        for a, b in edges:
            c[a, b] = c[b, a] = 0.5
        assert partition_at(CorrelationMatrix.from_dense(c), 0.0) == sorted(
            oracle_components(members, edges), key=min
        )


# -- characteristic element ---------------------------------------------------

def test_characteristic_of_singleton_is_its_member():
    C = CorrelationMatrix.from_dense([[1.0, 0.5], [0.5, 1.0]])
    tree = build_tree(C, FilterGrid(0.5, 0.25))
    assert [(isl.members, isl.characteristic) for isl in tree.islands_at(0)] == [
        ({0}, 0), ({1}, 1)
    ]


def test_characteristic_example():
    C = CorrelationMatrix.from_dense(
        [[1.0, 0.9, 0.8], [0.9, 1.0, 0.1], [0.8, 0.1, 1.0]]
    )
    assert build_tree(C).root.characteristic == 0


def test_characteristic_tie_breaks_to_smallest_id():
    C = CorrelationMatrix.from_dense(np.full((4, 4), 0.6) + 0.4 * np.eye(4))
    assert build_tree(C).root.characteristic == 0
    c = np.full((4, 4), 0.1)
    c[:2, :2] = c[2:, 2:] = 0.6
    np.fill_diagonal(c, 1.0)
    tree = build_tree(CorrelationMatrix.from_dense(c), FilterGrid(0.1, 0.5))
    assert [isl.characteristic for isl in tree.islands_at(0)] == [0, 2]


# -- build_tree ---------------------------------------------------------------

def test_uniform_high_matrix_persists_then_shatters():
    n = 4
    c = np.full((n, n), 0.9)
    np.fill_diagonal(c, 1.0)
    tree = build_tree(CorrelationMatrix.from_dense(c))
    for level, phi in enumerate(tree.levels):
        islands = tree.islands_at(level)
        if phi < 0.9:
            assert len(islands) == 1 and islands[0].size == n
        else:
            assert all(isl.is_singleton for isl in islands)
    # terminal level is present and all-singleton
    assert tree.levels[-1] == pytest.approx(0.9)
    assert all(isl.is_singleton for isl in tree.islands_at(len(tree.levels) - 1))


def test_two_block_matrix_splits_once():
    c = np.full((6, 6), 0.1)
    c[:3, :3] = 0.8
    c[3:, 3:] = 0.8
    np.fill_diagonal(c, 1.0)
    tree = build_tree(CorrelationMatrix.from_dense(c))
    for level, phi in enumerate(tree.levels):
        islands = tree.islands_at(level)
        if phi < 0.1:
            assert len(islands) == 1
        elif phi < 0.8:
            assert sorted((isl.members for isl in islands), key=min) == [
                frozenset({0, 1, 2}),
                frozenset({3, 4, 5}),
            ]
        else:
            assert all(isl.is_singleton for isl in islands)


def test_identity_matrix_gives_root_plus_leaves():
    tree = build_tree(CorrelationMatrix.from_dense(np.eye(5)))
    assert tree.levels == [0.0]
    assert len(tree.islands) == 1 + 5
    assert tree.root.size == 5
    leaves = tree.islands_at(0)
    assert all(isl.is_singleton and isl.parent == 0 for isl in leaves)


def test_tree_matches_bruteforce_oracle():
    rng = random.Random(99)
    grid = FilterGrid()
    for _ in range(20):
        C = random_matrix(rng, rng.randint(2, 10))
        levels, structure = oracle_tree(C, grid)
        tree = build_tree(C, grid)
        assert tree.levels == levels
        assert tree_structure(tree) == structure
        assert tree.root.members == frozenset(C.members)
        assert tree.root.characteristic == oracle_characteristic(C.members, C)


def test_levels_partition_members_and_refine():
    rng = random.Random(42)
    C = random_matrix(rng, 40)
    tree = build_tree(C)
    all_members = frozenset(C.members)
    previous = None
    for level in range(len(tree.levels)):
        islands = tree.islands_at(level)
        union = frozenset().union(*(isl.members for isl in islands))
        assert union == all_members
        assert sum(isl.size for isl in islands) == len(all_members)
        if previous is not None:
            for isl in islands:
                parents = [p for p in previous if isl.members <= p.members]
                assert len(parents) == 1
                assert isl.parent == parents[0].id
        previous = islands


def test_member_order_does_not_change_tree(tmp_path):
    net = net_of(
        ev("a", "x", "T1", "T2"), ev("b", "x", "T1"), ev("b", "y", "T3"),
        ev("c", "y", "T3", "T4"), ev("d", "z", "T4"), ev("a", "z", "T2"),
    )
    members = list(range(len(net.tags)))
    shuffled = members[::-1]
    t1 = build_tree(correlation_matrix(net, "tags", members=members))
    t2 = build_tree(correlation_matrix(net, "tags", members=shuffled))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_tree_json(t1, p1)
    write_tree_json(t2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_grid_validation():
    with pytest.raises(ValueError):
        FilterGrid(start=1.0)
    with pytest.raises(ValueError):
        FilterGrid(step=0.0)
    with pytest.raises(ValueError):
        FilterGrid(start=-0.2)
    with pytest.raises(ValueError):
        FilterGrid(0.0, math.inf)


def test_grid_level_cap():
    with pytest.raises(ValueError, match="more than 1000 levels"):
        FilterGrid(0.0, 1e-4)
    with pytest.raises(ValueError):
        FilterGrid(0.0, float("nan"))
    tree = build_tree(CorrelationMatrix.from_dense(np.ones((2, 2))), FilterGrid(0.0, 1e-3))
    assert len(tree.levels) == 1000


def test_empty_matrix_rejected():
    with pytest.raises(ValueError):
        build_tree(CorrelationMatrix.from_dense(np.zeros((0, 0))))


# A hand-built matrix skips from_dense's checks; a NaN link would otherwise be
# dropped by the phi filter without a word.
@pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix])
@pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5])
def test_values_outside_the_unit_interval_are_rejected(storage, bad):
    values = storage(np.array([[1.0, bad, 0.0], [bad, 1.0, 0.5], [0.0, 0.5, 1.0]]))
    C = CorrelationMatrix("tag", "direct", [0, 1, 2], ["a", "b", "c"], values)
    with pytest.raises(ValueError, match=r"correlation values must lie in \[0, 1\]"):
        build_tree(C)


def test_ties_at_exact_one_stop_at_grid_end():
    # entries exactly 1.0 never erode below phi = 1, so the sweep caps there
    c = np.ones((2, 2))
    tree = build_tree(CorrelationMatrix.from_dense(c))
    assert len(tree.levels) == 20
    last = tree.islands_at(len(tree.levels) - 1)
    assert len(last) == 1 and last[0].size == 2


def levels_by_search(grid, top):
    """The sweep's levels found one phi at a time: up to the first phi at or
    above top, the largest link, or the last phi below 1."""
    levels = []
    for t in range(tagnet.percolation.MAX_LEVELS):
        phi = grid.phi(t)
        if phi >= 1.0:
            break
        levels.append(phi)
        if phi >= top:
            break
    return levels


def valid_grid(start, step):
    try:
        return FilterGrid(start, step)
    except ValueError:
        return None


# Steps that binary fractions do not hold exactly (0.05, 0.07), and 0.001,
# which gives 1,000 levels.
bucket_grids = st.builds(
    valid_grid,
    start=st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.5, 0.95]),
                    st.floats(0.0, 1.0, exclude_max=True)),
    step=st.one_of(st.sampled_from([0.001, 0.05, 0.07, 0.1, 0.25, 0.3, 1.0]),
                   st.floats(0.001, 2.0)),
).filter(lambda grid: grid is not None)


@settings(max_examples=60)
@given(grid=bucket_grids, spread=st.lists(st.floats(0.0, 1.0), max_size=20),
       pick=st.integers(0, 10**6))
@example(grid=FilterGrid(0.0, 0.001), spread=[0.5], pick=999)
@example(grid=FilterGrid(0.0, 0.05), spread=[], pick=0)
@example(grid=FilterGrid(0.0, 0.07), spread=[0.49, 0.7], pick=7)
@example(grid=FilterGrid(0.3, 0.05), spread=[1.0], pick=3)
@example(grid=FilterGrid(0.1, 0.07), spread=[], pick=5)
def test_bucket_is_searchsorted_over_the_levels_below_one(grid, spread, pick):
    levels = np.array([grid.phi(t) for t in range(grid.size)])
    assert levels[-1] < 1.0 <= grid.phi(grid.size)
    # The table holds phi(0) to phi(size), bit for bit as phi computes them.
    table = np.append(levels, grid.phi(grid.size))
    assert grid.thresholds.tobytes() == table.tobytes()
    # Each level and one ulp either side, start, 1 and its neighbours, values
    # in (start, 1], and one above every threshold below 1.
    values = np.concatenate([
        levels, np.nextafter(levels, -1.0), np.nextafter(levels, 2.0),
        [grid.start, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 2.0],
        [grid.start + x * (1.0 - grid.start) for x in spread],
    ])
    assert np.array_equal(grid.bucket(values), np.searchsorted(levels, values))
    # The sweep stops where it did when it searched for its levels, with one
    # link of the picked value above start, or with none.
    links = values[(values > grid.start) & (values <= 1.0)]
    top = links[pick % links.size]
    C = CorrelationMatrix.from_dense([[1.0, top], [top, 1.0]])
    assert build_tree(C, grid).levels == levels_by_search(grid, top)
    C = CorrelationMatrix.from_dense(np.eye(2))
    assert build_tree(C, grid).levels == levels_by_search(grid, grid.start) == [grid.start]


# -- properties of the sweep --------------------------------------------------

# 0.1 + 0.2 + 0.3 rounds differently in another order, so these also check
# the order of the characteristic sums.
TIE_VALUES = [0.0, 0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 0.5000000000000001, 1.0]


def descending_csr(c):
    """CSR of c whose rows store their entries in descending column order."""
    n = len(c)
    flipped = sp.csr_matrix(c[:, ::-1])
    return sp.csr_matrix((flipped.data, n - 1 - flipped.indices, flipped.indptr),
                         shape=(n, n))


# Summed in descending column order, row 3 would beat row 1 at the root.
DESCENDING_SUMS_DIFFER = np.array([
    [1.0, 0.3, 0.0, 0.5000000000000001],
    [0.3, 1.0, 0.5000000000000001, 0.5],
    [0.0, 0.5000000000000001, 1.0, 0.3],
    [0.5000000000000001, 0.5, 0.3, 1.0],
])


@st.composite
def stored_matrices(draw):
    """Random symmetric matrices with exact ties, members shuffled: dense, CSR,
    or CSR whose rows store their entries in descending column order."""
    n = draw(st.integers(min_value=1, max_value=9))
    c = np.zeros((n, n))
    for i in range(n):
        c[i, i] = draw(st.sampled_from([0.0, 1.0]))
        for j in range(i + 1, n):
            c[i, j] = c[j, i] = draw(st.sampled_from(TIE_VALUES))
    members = draw(st.permutations(range(0, 3 * n, 3)))
    storage = draw(st.sampled_from([np.asarray, sp.csr_matrix, descending_csr]))
    values = storage(c)
    names = [f"m{m}" for m in members]
    return CorrelationMatrix("tag", "direct", list(members), names, values)


grids = st.builds(
    FilterGrid,
    start=st.sampled_from([0.0, 0.05, 0.25, 0.5]),
    step=st.sampled_from([0.05, 0.1, 0.25, 0.5]),
)


# Levels 0 to 0.45 share one partition, so rows keep the sums of the level
# above until phi = 0.5 splits it into {0}, {1, 2} and {3, 4}. Row 2 must then
# drop its two 0.5 entries, or it would beat row 1 in {1, 2}.
SAME_PARTITION_ACROSS_LEVELS = np.array([
    [1.0, 0.5, 0.0, 0.0, 0.0],
    [0.5, 1.0, 1.0, 0.0, 0.0],
    [0.0, 1.0, 1.0, 0.5, 0.5],
    [0.0, 0.0, 0.5, 1.0, 1.0],
    [0.0, 0.0, 0.5, 1.0, 1.0],
])


def sweep_in_two_row_blocks(C, grid):
    """build_tree with two matrix rows per block, so the sums loop runs over
    several blocks; Hypothesis rejects function-scoped fixtures."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tagnet.percolation, "BLOCK_ROWS", 2)
        return build_tree(C, grid)


@given(C=stored_matrices(), grid=grids)
@example(C=CorrelationMatrix("tag", "direct", [0, 1, 2, 3], ["a", "b", "c", "d"],
                            descending_csr(DESCENDING_SUMS_DIFFER)), grid=FilterGrid())
@example(C=CorrelationMatrix.from_dense(SAME_PARTITION_ACROSS_LEVELS), grid=FilterGrid())
def test_sweep_matches_bruteforce_oracle_with_ties(C, grid):
    levels, structure = oracle_tree(C, grid)
    tree = sweep_in_two_row_blocks(C, grid)
    assert tree.levels == levels
    assert tree_structure(tree) == structure
    assert tree.root.members == frozenset(C.members)
    assert tree.root.characteristic == oracle_characteristic(C.members, C)
    order = [(isl.level, min(isl.members)) for isl in tree.islands[1:]]
    assert order == sorted(order)
    assert [isl.id for isl in tree.islands] == list(range(len(tree.islands)))


# The root's order is 2, 0, 3, 1; summed in descending column order, rows 0
# and 3 add to 1.65 and 1.6500000000000001, so 3 would come before 0.
DESCENDING_ORDER_SWAPS = np.array([
    [1.0, 0.1, 0.5, 0.05],
    [0.1, 1.0, 0.05, 0.3],
    [0.5, 0.05, 1.0, 0.3],
    [0.05, 0.3, 0.3, 1.0],
])


def test_descending_order_example_holds_what_it_names():
    def sums(order):
        return [functools.reduce(operator.add, row[order].tolist(), 0.0)
                for row in DESCENDING_ORDER_SWAPS]
    ascending, descending = sums(slice(None)), sums(slice(None, None, -1))
    assert sorted(range(4), key=lambda i: (-ascending[i], i)) == [2, 0, 3, 1]
    assert sorted(range(4), key=lambda i: (-descending[i], i)) == [2, 3, 0, 1]


@given(C=stored_matrices(), grid=grids)
@example(C=CorrelationMatrix.from_dense(DESCENDING_ORDER_SWAPS), grid=FilterGrid())
@example(C=CorrelationMatrix("tag", "direct", [0, 1, 2, 3], ["a", "b", "c", "d"],
                            descending_csr(DESCENDING_ORDER_SWAPS)), grid=FilterGrid())
def test_members_follow_their_summed_correlation(C, grid):
    tree = sweep_in_two_row_blocks(C, grid)
    members, bounds = tree.ids[tree.node_ranks].tolist(), tree.node_start.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        assert members[lo:hi] == oracle_member_order(frozenset(members[lo:hi]), C)


def left_fold_order(c):
    """The rows of c by their sums added one term at a time in ascending column
    order from 0.0, largest first, ties to the smaller row: a ranking that
    depends on the order of the terms, as exact sums do not."""
    sums = [functools.reduce(operator.add, row, 0.0) for row in np.asarray(c).tolist()]
    return sorted(range(len(sums)), key=lambda i: (-sums[i], i))


def root_order(c):
    tree = build_tree(CorrelationMatrix.from_dense(c))
    return tree.ids[tree.node_ranks[:tree.node_start[1]]].tolist()


# Folded left in ascending column order, rows 1 and 3 both come to 2.45 and tie;
# exactly, row 1's sum rounds to 2.4499999999999997 and row 3's to 2.45.
LEFT_FOLD_DIFFERS = [
    [1.0, 0.7, 0.9, 0.5000000000000001],
    [0.7, 1.0, 0.05, 0.7],
    [0.9, 0.05, 1.0, 0.25],
    [0.5000000000000001, 0.7, 0.25, 1.0],
]


def test_members_follow_their_exact_sums_not_a_left_fold():
    assert left_fold_order(LEFT_FOLD_DIFFERS) == [0, 1, 3, 2]
    assert root_order(LEFT_FOLD_DIFFERS) == [0, 3, 1, 2]


# Rows 0 and 3 hold the same values: folded left, row 3's come to
# 1.6500000000000001 and row 0's to 1.65. Exactly, they tie.
EXACT_TIE = [
    [1.0, 0.05, 0.2, 0.4],
    [0.05, 1.0, 0.05, 0.2],
    [0.2, 0.05, 1.0, 0.05],
    [0.4, 0.2, 0.05, 1.0],
]


def test_an_exact_tie_goes_to_the_smaller_id():
    assert left_fold_order(EXACT_TIE) == [3, 0, 1, 2]
    assert root_order(EXACT_TIE) == [0, 3, 1, 2]


def test_each_term_is_rounded_before_the_exact_sum():
    # Over three members terms are rounded to multiples of 2 ** -102, so 2 ** -110
    # adds nothing and row 0's sum, 1 + 2 ** -53, rounds to 1.0 (ties to even),
    # below row 1's 1 + 2 ** -52. Unrounded, row 0's sum would round up to tie.
    half, tiny = 2.0 ** -53, 2.0 ** -110
    c = [[1.0, half, tiny], [half, 1.0, half], [tiny, half, 1.0]]
    assert float(sum(map(Fraction, c[0]))) == float(sum(map(Fraction, c[1])))
    assert exact_sum(c[0], 3) < exact_sum(c[1], 3)
    assert root_order(c) == [1, 0, 2]


def shuffled_csr(c, seed):
    """CSR of c whose rows store their entries in a random order."""
    coo = sp.coo_matrix(c)
    order = np.lexsort((np.random.default_rng(seed).random(coo.nnz), coo.row))
    indptr = np.searchsorted(coo.row[order], np.arange(len(c) + 1))
    return sp.csr_matrix((coo.data[order], coo.col[order], indptr), shape=coo.shape)


TREE_ARRAYS = ("level", "parent", "node", "node_ranks", "node_start")


@given(C=stored_matrices(), grid=grids, seed=st.integers(0, 2 ** 32 - 1))
@example(C=CorrelationMatrix.from_dense(DESCENDING_ORDER_SWAPS), grid=FilterGrid(), seed=0)
@example(C=CorrelationMatrix.from_dense(LEFT_FOLD_DIFFERS), grid=FilterGrid(), seed=0)
def test_sweep_arrays_do_not_depend_on_the_stored_entry_order(C, grid, seed):
    c = C.dense()
    trees = [sweep_in_two_row_blocks(dataclasses.replace(C, values=values), grid)
             for values in (sp.csr_matrix(c), descending_csr(c), shuffled_csr(c, seed))]
    for tree in trees[1:]:
        for name in TREE_ARRAYS:
            assert np.array_equal(getattr(tree, name), getattr(trees[0], name)), name


@given(C=stored_matrices(), grid=grids)
@example(C=CorrelationMatrix.from_dense(DESCENDING_SUMS_DIFFER), grid=FilterGrid())
def test_sweep_leaves_its_input_as_it_found_it(C, grid):
    values = descending_csr(C.dense())
    before = [a.tobytes() for a in (values.indices, values.indptr, values.data)]
    tree = sweep_in_two_row_blocks(dataclasses.replace(C, values=values), grid)
    assert [a.tobytes() for a in (values.indices, values.indptr, values.data)] == before
    ordered = sweep_in_two_row_blocks(
        dataclasses.replace(C, values=values.sorted_indices()), grid)
    for name in TREE_ARRAYS:
        assert np.array_equal(getattr(tree, name), getattr(ordered, name)), name


@given(C=stored_matrices(), grid=grids)
def test_sweep_arrays_do_not_depend_on_the_index_dtype(C, grid):
    narrow = sp.csr_matrix(C.values)
    wide = narrow.copy()
    wide.indices, wide.indptr = wide.indices.astype(np.int64), wide.indptr.astype(np.int64)
    assert narrow.indices.dtype == np.int32
    assert sp.csr_matrix(wide).indices.dtype == np.int64
    trees = [sweep_in_two_row_blocks(dataclasses.replace(C, values=values), grid)
             for values in (narrow, wide)]
    for name in TREE_ARRAYS:
        assert np.array_equal(getattr(trees[0], name), getattr(trees[1], name)), name


@given(C=stored_matrices(), grid=grids)
def test_islands_read_their_node(C, grid):
    tree = sweep_in_two_row_blocks(C, grid)
    nodes = tree.node.tolist()
    first = [nodes.index(j) for j in range(tree.node_start.size - 1)]
    heads = tree.ids[tree.node_ranks[tree.node_start[:-1]]].tolist()
    for isl, j in zip(tree.islands, nodes):  # one member set per node
        assert isl.members is tree.islands[first[j]].members
        assert isl.characteristic == heads[j]


# -- island sums ----------------------------------------------------------------

# Weights as spectra hold them: sums of fractions 1/k, other floats and counts.
WEIGHTS = (
    st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4)
    .map(lambda ks: sum(1 / k for k in ks))
    | st.floats(min_value=0.0, max_value=1e3)
    | st.integers(min_value=0, max_value=20)
)
# Keys from the ids of the drawn trees (multiples of 3 up to 24) and others, so
# mappings leave tree members out and name tags outside the tree.
KEYS = st.sampled_from(range(0, 27, 3)) | st.integers(min_value=-2, max_value=30)
WEIGHT_MAPS = st.lists(st.dictionaries(KEYS, WEIGHTS, max_size=20),
                       min_size=1, max_size=3)
# Nine members whose summed correlation grows with the id, so the root's entries
# run 7, 8, 6, ..., 0, and weights 1/(m + 5) whose island sums change both in
# that order and under a pairwise reduction.
DESCENDING_ROOT = CorrelationMatrix.from_dense(
    np.array([[1.0 if i == j else 0.01 * min(i, j) for j in range(9)]
              for i in range(9)]),
    family="tag",
)
FRACTIONS = {m: 1 / (m + 5) for m in range(9)}


def added_in_ascending_id_order(members, weights):
    total = 0.0
    for m in sorted(members):
        total += weights.get(m, 0)
    return total


# The example catches sums taken in sweep order or by a pairwise reduction; the
# drawn cases catch both too, given 300 of them (the default 100 miss the second).
@settings(max_examples=300)
@given(C=stored_matrices(), grid=grids, weights=WEIGHT_MAPS)
@example(C=DESCENDING_ROOT, grid=FilterGrid(), weights=[FRACTIONS])
def test_node_sums_add_members_one_at_a_time_in_ascending_id_order(C, grid, weights):
    tree = build_tree(C, grid)
    expected = [[added_in_ascending_id_order(isl.members, w) for isl in tree.islands]
                for w in weights]
    sums = tree.node_sums(*weights)
    assert [s.size for s in sums] == [tree.node_start.size - 1] * len(weights)
    assert [s[tree.node].tolist() for s in sums] == expected  # each island reads its node's
    assert tree.sum_index is tree.sum_index


# -- hooking ----------------------------------------------------------------------

def smallest_mates(n, links):
    """root as _join leaves it: each index's smallest component mate."""
    root = np.arange(n)
    for comp in oracle_components(range(n), links):
        root[list(comp)] = min(comp)
    return root


@contextlib.contextmanager
def ends_within(seconds):
    """Fail, rather than hang, when the block runs longer than seconds."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def check_join(n, links, merged=0):
    """Join the links after the first `merged` into a root whose groups hold
    those already merged, and check the result against the DFS oracle."""
    links = np.array(links, dtype=np.int32).reshape(-1, 2)
    root = smallest_mates(n, links[:merged].tolist())
    with ends_within(5.0):
        tagnet.percolation._join(root, links[merged:, 0], links[merged:, 1])
    assert root.tolist() == smallest_mates(n, links.tolist()).tolist()
    assert np.array_equal(root[root], root)


def path_links(order):
    return np.column_stack([order[:-1], order[1:]])


def hooking_shapes(rng, n=4096, spine=1000):
    """Link sets over 0..n-1 that cost a hooking scheme many rounds or hooks
    onto one root from many links; n must be a power of two."""
    ids, bits = rng.permutation(n), n.bit_length() - 1
    half = np.arange(n // 2)
    return {
        "path, random ids": path_links(ids),
        "path, zig-zag ids": path_links(np.column_stack([half, n - 1 - half]).ravel()),
        "path, bit-reversed ids": path_links(
            np.array([int(f"{i:0{bits}b}"[::-1], 2) for i in range(n)])),
        "star, largest-id centre": np.column_stack([np.full(n - 1, n - 1), np.arange(n - 1)]),
        "random graph, 2n links": rng.integers(0, n, (2 * n, 2)),
        "random binary tree": ids[np.column_stack([(np.arange(1, n) - 1) // 2, np.arange(1, n)])],
        "caterpillar, 1,000-node spine": ids[np.r_[
            path_links(np.arange(spine)),
            np.column_stack([rng.integers(0, spine, n - spine), np.arange(spine, n)])]],
    }


HOOKING_SHAPES = hooking_shapes(np.random.default_rng(7))


@pytest.mark.parametrize("premerged", [False, True])
@pytest.mark.parametrize("shape", list(HOOKING_SHAPES))
def test_join_matches_the_oracle_on_adversarial_shapes(shape, premerged):
    links = HOOKING_SHAPES[shape]
    check_join(4096, links, len(links) // 2 if premerged else 0)


@given(n=st.integers(1, 40), data=st.data())
def test_join_matches_the_oracle_on_random_graphs(n, data):
    ends = st.integers(0, n - 1)
    links = data.draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
    check_join(n, links, data.draw(st.integers(0, len(links))))


def test_join_hooks_a_star_centred_on_its_largest_id_in_a_few_rounds():
    # Hooking by plain assignment keeps one leaf's write per round here.
    n = 100_001
    root = np.arange(n)
    with ends_within(1.0):
        tagnet.percolation._join(root, np.full(n - 1, n - 1), np.arange(n - 1))
    assert not root.any()


# -- the merge tree: nodes against a minimum spanning tree ----------------------

def merge_buckets(C, grid):
    """Each pair's merge bucket, the number of levels from the top on which
    the pair shares an island: the smallest link bucket on the pair's path in
    a minimum spanning tree of the links' negated integer bucket codes (a
    maximum spanning tree of the buckets). Integer weights leave no rounding.
    csgraph is imported here only: tagnet keeps it out (+11 MB on import)."""
    from scipy.sparse.csgraph import minimum_spanning_tree

    n, values = C.size, C.dense()
    i, j = np.triu_indices(n, 1)
    keep = values[i, j] > grid.start
    codes = grid.bucket(values[i, j][keep]).astype(np.int64)
    assert (codes >= 1).all()  # explicit zeros would be dropped as no link
    forest = minimum_spanning_tree(sp.csr_matrix((-codes, (i[keep], j[keep])), shape=(n, n)))
    adjacent = {k: [] for k in range(n)}
    for a, b, w in zip(*sp.find(forest)):
        adjacent[a].append((b, -int(w)))
        adjacent[b].append((a, -int(w)))
    merge = np.zeros((n, n), np.int64)
    for source in range(n):
        merge[source, source] = grid.size + 1  # together on every level
        stack = [(source, grid.size + 1)]
        while stack:
            a, low = stack.pop()
            for b, w in adjacent[a]:
                if b != source and merge[source, b] == 0:
                    merge[source, b] = min(low, w)
                    stack.append((b, min(low, w)))
    return merge, int(codes.max(initial=0))


def oracle_nodes(C, grid):
    """(level count, {member set: [first level, last level]}) of the distinct
    islands, from merge_buckets: at level t the islands are the classes of
    merge > t, and the root, at level -1, holds every member."""
    merge, top = merge_buckets(C, grid)
    count = min(top + 1, grid.size)
    nodes = {frozenset(C.members): [-1, -1]}
    for t in range(count):
        placed = np.zeros(C.size, bool)
        for k in range(C.size):
            if not placed[k]:
                mates = np.flatnonzero(merge[k] > t)
                placed[mates] = True
                nodes.setdefault(frozenset(C.members[m] for m in mates), [t, t])[1] = t
    return count, nodes


def check_nodes(C, grid, tree):
    count, expected = oracle_nodes(C, grid)
    assert len(tree.levels) == count
    bounds = tree.node_start.tolist()
    sets = [frozenset(tree.ids[tree.node_ranks[lo:hi]].tolist()) for lo, hi in zip(bounds, bounds[1:])]
    spans = {s: [tree.level[tree.node == j].min(), tree.level[tree.node == j].max()]
             for j, s in enumerate(sets)}
    assert spans == expected
    assert len(sets) == len(expected) <= 2 * C.size - 1
    # Each node's islands are consecutive levels; a node that splits is the
    # union of its children, the nodes whose first island's parent it holds.
    children = {}
    for k in range(1, len(tree.level)):
        node, above = tree.node[k], tree.node[tree.parent[k]]
        assert tree.level[tree.parent[k]] == tree.level[k] - 1
        if node != above:
            children.setdefault(above, set()).add(node)
    for j, kids in children.items():
        assert frozenset().union(*(sets[k] for k in kids)) == sets[j]
        assert sum(len(sets[k]) for k in kids) == len(sets[j])
    assert [tree.node[tree.parent[k]] != tree.node[k] for k in range(1, len(tree.level))].count(True) \
        == len(sets) - 1


@given(C=stored_matrices(), grid=grids)
@example(C=CorrelationMatrix.from_dense(SAME_PARTITION_ACROSS_LEVELS), grid=FilterGrid())
def test_nodes_match_the_merge_levels_of_a_spanning_tree(C, grid):
    check_nodes(C, grid, sweep_in_two_row_blocks(C, grid))


# -- hooking stops at one island -------------------------------------------------

def sweep_spying_on_join(C, grid):
    """build_tree with two matrix rows per block, and the links it hooked, as
    (row, column) pairs of matrix positions."""
    hooked, join = set(), tagnet.percolation._join

    def spy(root, a, b):
        hooked.update(zip(a.tolist(), b.tolist()))
        join(root, a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tagnet.percolation, "_join", spy)
        patch.setattr(tagnet.percolation, "BLOCK_ROWS", 2)
        return build_tree(C, grid), hooked


def one_island_levels(C, grid):
    """How many levels, from the first, one island holds every member on."""
    return oracle_nodes(C, grid)[1][frozenset(C.members)][1] + 1


def check_hooking(C, grid):
    """The sweep matches the merge-level oracle and the exact member order, and
    hooks just the links above the last level that one island spans (above
    start when there is none)."""
    tree, hooked = sweep_spying_on_join(C, grid)
    check_nodes(C, grid, tree)
    members, bounds = tree.ids[tree.node_ranks].tolist(), tree.node_start.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        assert members[lo:hi] == oracle_member_order(frozenset(members[lo:hi]), C)
    whole = one_island_levels(C, grid)
    floor = tree.levels[whole - 1] if whole else grid.start
    values = C.dense()
    i, j = np.triu_indices(C.size, 1)
    above = values[i, j] > floor
    assert hooked == set(zip(i[above].tolist(), j[above].tolist()))
    return tree


# The 0.6 and 0.65 links join everyone below phi = 0.6, so the 0.2 and 0.4
# links are summed but never hooked.
ONE_ISLAND_BELOW_THE_TOP = np.array([
    [1.0, 0.9, 0.2, 0.4],
    [0.9, 1.0, 0.6, 0.2],
    [0.2, 0.6, 1.0, 0.65],
    [0.4, 0.2, 0.65, 1.0],
])
# Links above the last phi below 1 join everyone on every level.
ONE_ISLAND_AT_THE_TOP = np.array([
    [1.0, 1.0, 0.3],
    [1.0, 1.0, 0.995],
    [0.3, 0.995, 1.0],
])
# Member 3 has a zero signature: it stays apart on every level.
NEVER_ONE_ISLAND = np.array([
    [1.0, 0.7, 0.1, 0.0],
    [0.7, 1.0, 0.35, 0.0],
    [0.1, 0.35, 1.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
])
# Above start = 0.3 the 0.6, 0.8 and 0.9 links join everyone. The 0.25 and 0.3
# links are never hooked, yet their sums put member 2 ahead of member 0.
SUMMED_NOT_HOOKED = np.array([
    [1.0, 0.8, 0.25, 0.0],
    [0.8, 1.0, 0.6, 0.9],
    [0.25, 0.6, 1.0, 0.3],
    [0.0, 0.9, 0.3, 1.0],
])


@pytest.mark.parametrize("c, start, joined_below", [
    (ONE_ISLAND_BELOW_THE_TOP, 0.0, 0.6),
    (ONE_ISLAND_AT_THE_TOP, 0.0, 1.0),
    (NEVER_ONE_ISLAND, 0.0, 0.0),
    (SUMMED_NOT_HOOKED, 0.3, 0.6),
], ids=["below-the-top", "at-the-top", "never", "phi-start-0.3"])
@pytest.mark.parametrize("step", [0.05, 0.01])
def test_hooking_stops_once_one_island_holds_everyone(c, start, joined_below, step):
    C = CorrelationMatrix.from_dense(c)
    grid = FilterGrid(start, step)
    tree = check_hooking(C, grid)
    # One island holds everyone on the levels below joined_below.
    assert one_island_levels(C, grid) == sum(phi < joined_below for phi in tree.levels)


def test_links_at_or_below_start_still_order_the_members():
    def root_members(c, grid):
        tree = build_tree(CorrelationMatrix.from_dense(c), grid)
        return tree.ids[tree.node_ranks[:tree.node_start[1]]].tolist()

    cut = np.where(SUMMED_NOT_HOOKED > 0.3, SUMMED_NOT_HOOKED, 0.0)
    for grid in (FilterGrid(0.3, 0.05), FilterGrid(0.3, 0.01)):
        assert root_members(SUMMED_NOT_HOOKED, grid) == [1, 3, 2, 0]
        assert root_members(cut, grid) == [1, 3, 0, 2]


@given(C=stored_matrices(), grid=grids)
def test_only_links_above_the_last_one_island_level_are_hooked(C, grid):
    check_hooking(C, grid)


@functools.cache
def bench_corpus_module():
    """bench/corpus.py, the generator of the benchmark's heavy-tailed corpora,
    loaded once as the module bench_corpus."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look their module up
    return module


# The bench's user-tree and tag-tree corpora, scaled down: Pareto library
# sizes, Zipf items and tags, planted communities.
SMALL_BENCH_SPECS = [
    dict(users=150, communities=5, tags_per_community=8, items_per_community=30,
         min_library=2, max_library=60, library_alpha=1.2),
    dict(users=200, communities=6, tags_per_community=10, items_per_community=40,
         min_library=5, max_library=80, library_alpha=1.5),
]


@pytest.mark.parametrize("family", ["user", "tag"])
@pytest.mark.parametrize("spec", SMALL_BENCH_SPECS)
def test_nodes_match_the_merge_levels_on_bench_shaped_corpora(tmp_path, spec, family):
    corpus = bench_corpus_module()
    generated = corpus.generate(corpus.CorpusSpec(**spec), 1)
    generated.write(tmp_path / "triples.tsv")
    C = correlation_matrix(build_network(read_triples(tmp_path / "triples.tsv")), family)
    for grid in (FilterGrid(), FilterGrid(0.0, 0.01)):
        check_nodes(C, grid, build_tree(C, grid))
