import json
import math
import random

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st

from tagnet import (
    CorrelationMatrix,
    FilterGrid,
    build_tree,
    characteristic_element,
    components,
    correlation_matrix,
    filter_edges,
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


def oracle_characteristic(island, C):
    best, best_sum = None, None
    for i in sorted(island):
        s = 0.0
        for j in sorted(island):
            s += C.value(i, j)
        if best_sum is None or s > best_sum:
            best, best_sum = i, s
    return best


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


# -- filter_edges -------------------------------------------------------------

def test_filter_is_strictly_greater_than():
    C = CorrelationMatrix.from_dense([[1.0, 0.3], [0.3, 1.0]])
    assert filter_edges(C, 0.3) == set()
    assert filter_edges(C, 0.29) == {(0, 1)}


def test_filter_at_zero_keeps_all_positive_entries():
    C = CorrelationMatrix.from_dense([[1, 0.2, 0.1], [0.2, 1, 0.4], [0.1, 0.4, 1]])
    assert filter_edges(C, 0.0) == {(0, 1), (0, 2), (1, 2)}


def test_filter_above_max_entry_is_empty():
    C = CorrelationMatrix.from_dense([[1, 0.2], [0.2, 1]])
    assert filter_edges(C, 0.9) == set()


def test_filter_example_three_by_three():
    C = CorrelationMatrix.from_dense(
        [[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]]
    )
    assert filter_edges(C, 0.15) == {(0, 1), (1, 2)}


def test_filter_rejects_phi_outside_range():
    C = CorrelationMatrix.from_dense([[1.0]])
    with pytest.raises(ValueError):
        filter_edges(C, 1.0)
    with pytest.raises(ValueError):
        filter_edges(C, -0.1)


# -- components ---------------------------------------------------------------

def test_components_no_edges_gives_singletons():
    parts = components([], [3, 1, 2])
    assert parts == [frozenset({1}), frozenset({2}), frozenset({3})]


def test_components_path_is_one_component():
    assert components([(0, 1), (1, 2)], [0, 1, 2]) == [frozenset({0, 1, 2})]


def test_components_match_reachability_oracle():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 12)
        members = list(range(n))
        edges = {(a, b) for a in members for b in members
                 if a < b and rng.random() < 0.25}
        assert components(edges, members) == sorted(
            oracle_components(members, edges), key=min
        )


# -- characteristic element ---------------------------------------------------

def test_characteristic_of_singleton_is_its_member():
    C = CorrelationMatrix.from_dense([[1.0, 0.5], [0.5, 1.0]])
    assert characteristic_element({1}, C) == 1


def test_characteristic_example():
    C = CorrelationMatrix.from_dense(
        [[1.0, 0.9, 0.8], [0.9, 1.0, 0.1], [0.8, 0.1, 1.0]]
    )
    assert characteristic_element({0, 1, 2}, C) == 0


def test_characteristic_tie_breaks_to_smallest_id():
    C = CorrelationMatrix.from_dense(np.full((4, 4), 0.6) + 0.4 * np.eye(4))
    assert characteristic_element({0, 1, 2, 3}, C) == 0
    assert characteristic_element({2, 3}, C) == 2


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


def test_ties_at_exact_one_stop_at_grid_end():
    # entries exactly 1.0 never erode below phi = 1, so the sweep caps there
    c = np.ones((2, 2))
    tree = build_tree(CorrelationMatrix.from_dense(c))
    assert len(tree.levels) == 20
    last = tree.islands_at(len(tree.levels) - 1)
    assert len(last) == 1 and last[0].size == 2


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


@given(C=stored_matrices(), grid=grids)
@example(C=CorrelationMatrix("tag", "direct", [0, 1, 2, 3], ["a", "b", "c", "d"],
                            descending_csr(DESCENDING_SUMS_DIFFER)), grid=FilterGrid())
def test_sweep_matches_bruteforce_oracle_with_ties(C, grid):
    levels, structure = oracle_tree(C, grid)
    tree = build_tree(C, grid)
    assert tree.levels == levels
    assert tree_structure(tree) == structure
    assert tree.root.members == frozenset(C.members)
    assert tree.root.characteristic == oracle_characteristic(C.members, C)
    order = [(isl.level, min(isl.members)) for isl in tree.islands[1:]]
    assert order == sorted(order)
    assert [isl.id for isl in tree.islands] == list(range(len(tree.islands)))
    for isl in tree.islands[1:]:
        assert characteristic_element(isl, C) == isl.characteristic
