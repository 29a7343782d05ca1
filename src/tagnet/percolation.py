"""Threshold percolation over a correlation matrix.

Sweeping a filter threshold upward erodes weakly correlated links; the
connected components surviving at each step are the islands, and linking
each island to the island containing it one step earlier yields a branching
forest hung under a virtual root.

The islands at phi are the components of the graph {C > phi}, so every level
comes out of one single-linkage pass (Gower & Ross 1969): join the ends of
the links in descending order of correlation, and read the groups off each
time the correlation falls to the next grid value. Islands only refine as
phi grows, which is why the pass can run from the top level down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from .projection import CorrelationMatrix

#: Grids may have at most this many levels below phi = 1.
MAX_LEVELS = 1000

#: Matrix rows summed per block; bounds the working copy of a dense matrix.
BLOCK_ROWS = 128


@dataclass(frozen=True)
class FilterGrid:
    """Evenly spaced filter thresholds phi(t) = start + t * step.

    The sweep runs until every island is a singleton (or the threshold
    would leave [0, 1), whichever comes first). A grid may have at most
    MAX_LEVELS thresholds below 1.
    """

    start: float = 0.0
    step: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.start < 1.0:
            raise ValueError("start must lie in [0, 1)")
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if self.phi(MAX_LEVELS) < 1.0:
            raise ValueError(
                f"step {self.step} gives more than {MAX_LEVELS} levels below phi = 1"
            )

    def phi(self, t: int) -> float:
        return self.start + t * self.step


@dataclass
class Island:
    """One connected component of the filtered graph at one sweep level."""

    id: int
    level: int  # grid index; -1 for the virtual root
    phi: float | None
    members: frozenset[int]
    parent: int | None
    characteristic: int

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def is_singleton(self) -> bool:
        return len(self.members) == 1


@dataclass
class IslandTree:
    """Forest of islands across sweep levels, hung under a virtual root.

    islands[0] is the root (level -1, full member set); the rest follow in
    (level, smallest member id) order. names maps member ids to their
    external names for exporters.
    """

    family: str
    levels: list[float]
    islands: list[Island]
    names: dict[int, str]

    @property
    def root(self) -> Island:
        return self.islands[0]

    def islands_at(self, level: int) -> list[Island]:
        return [isl for isl in self.islands if isl.level == level]

    def children(self, island_id: int) -> list[Island]:
        return [isl for isl in self.islands if isl.parent == island_id]


def filter_edges(C: CorrelationMatrix, phi: float) -> set[tuple[int, int]]:
    """Undirected edges (a, b), a < b, wherever C[a][b] > phi strictly."""
    if not 0.0 <= phi < 1.0:
        raise ValueError("phi must lie in [0, 1)")
    ids = sorted(C.members)
    ii, jj, _ = _edges(C.values, [C.index_of(m) for m in ids], phi)
    return {(ids[i], ids[j]) for i, j in zip(ii.tolist(), jj.tolist())}


def components(
    edges: Iterable[tuple[int, int]], members: Iterable[int]
) -> list[frozenset[int]]:
    """Connected components of the undirected graph, sorted by min member.

    Isolated members come back as singleton components. Edges must reference
    registered members only.
    """
    ids = sorted(set(members))
    index = {m: k for k, m in enumerate(ids)}
    pairs = np.array([(index[a], index[b]) for a, b in edges], dtype=np.intp)
    pairs = pairs.reshape(-1, 2)
    root = np.arange(len(ids))
    _join(root, pairs[:, 0], pairs[:, 1])
    groups: dict[int, list[int]] = {}
    for k, r in enumerate(root.tolist()):
        groups.setdefault(r, []).append(ids[k])
    return [frozenset(g) for g in groups.values()]


def characteristic_element(island, C: CorrelationMatrix) -> int:
    """Member maximizing its summed correlation to the island, ties to the
    smallest id.

    Each member's sum runs over all island members in ascending id order,
    starting from 0.0 and including the diagonal term, one addition at a
    time; the first member in ascending id order whose sum is the largest
    wins.
    """
    members = island.members if isinstance(island, Island) else island
    ids = sorted(members)
    if not ids:
        raise ValueError("island is empty")
    sums = np.empty(len(ids))
    for lo, hi, rows, _, data in _blocks(C.values, [C.index_of(m) for m in ids]):
        sums[lo:hi] = np.bincount(rows, weights=data, minlength=hi - lo)
    return ids[int(np.argmax(sums))]


def build_tree(C: CorrelationMatrix, grid: FilterGrid | None = None) -> IslandTree:
    """Sweep the grid over the matrix and assemble the island forest.

    Each level's islands partition the full member set (singletons
    included); an island's parent is the island one level up containing its
    members. The levels run from grid.start up to the first phi at or above
    the largest off-diagonal value, where every island is a singleton, or
    up to the last phi below 1, whichever comes first. The terminal
    all-singleton level is kept in the structure; exporters decide whether
    to draw it.

    The islands come from one single-linkage pass: the links above
    grid.start, taken in descending order of correlation, join their ends
    in a union-find forest, and the groups are recorded each time the
    correlation falls to the next level's phi. Every island's
    characteristic element follows characteristic_element's rule: the
    member whose summed correlation to the island, added up in ascending id
    order from 0.0 with the diagonal included, is the largest, ties to the
    smallest id.
    """
    if C.size == 0:
        raise ValueError("cannot sweep an empty matrix")
    if grid is None:
        grid = FilterGrid()

    # Work in id rank: position r holds the member with the r-th smallest id,
    # so the smallest rank of a group is its smallest member id.
    ids = sorted(C.members)
    order = [C.index_of(m) for m in ids]
    n = len(ids)
    ii, jj, vv = _edges(C.values, order, grid.start)

    levels: list[float] = []
    top = vv.max(initial=grid.start)
    for t in range(MAX_LEVELS):
        phi = grid.phi(t)
        if phi >= 1.0:
            break  # correlations of exactly 1 never erode within [0, 1)
        levels.append(phi)
        if phi >= top:
            break  # no link survives: every island is a singleton

    # labels[t, r]: smallest rank of r's island at level t.
    by_value = np.argsort(vv, kind="stable")
    vv = vv[by_value]
    ii = ii[by_value]
    jj = jj[by_value]
    cuts = np.searchsorted(vv, levels, side="right")
    labels = np.empty((len(levels), n), dtype=np.intp)
    root = np.arange(n)
    end = len(vv)
    for t in range(len(levels) - 1, -1, -1):
        a, b = root[ii[cuts[t]:end]], root[jj[cuts[t]:end]]
        apart = a != b
        _join(root, a[apart], b[apart])
        labels[t] = root
        end = cuts[t]
    del ii, jj, vv, by_value

    # sums[0] sums whole rows (the root); sums[t + 1] sums each row over its
    # island at level t. Islands only refine, so the entries kept for one
    # level are filtered again for the next.
    sums = np.empty((len(levels) + 1, n))
    for lo, hi, rows, cols, data in _blocks(C.values, order):
        sums[0, lo:hi] = np.bincount(rows, weights=data, minlength=hi - lo)
        for t, label in enumerate(labels):
            inside = label[rows + lo] == label[cols]
            rows, cols, data = rows[inside], cols[inside], data[inside]
            sums[t + 1, lo:hi] = np.bincount(rows, weights=data, minlength=hi - lo)

    root_island = Island(
        id=0,
        level=-1,
        phi=None,
        members=frozenset(ids),
        parent=None,
        characteristic=ids[int(np.argmax(sums[0]))],
    )
    islands = [root_island]
    id_array = np.asarray(ids)
    owner = np.zeros(n, dtype=np.intp)  # rank -> island id at the previous level
    for t, phi in enumerate(levels):
        label = labels[t]
        # Islands by smallest member; within one, its best member comes first.
        ranked = np.lexsort((-sums[t + 1], label))
        grouped = label[ranked]
        starts = np.r_[True, grouped[1:] != grouped[:-1]]
        first = np.flatnonzero(starts)
        parents = owner[ranked[first]].tolist()
        base = len(islands)
        owner[ranked] = base + np.cumsum(starts) - 1
        member_ids = id_array[ranked].tolist()
        bounds = first.tolist() + [n]
        for k in range(len(first)):
            part = member_ids[bounds[k]:bounds[k + 1]]
            islands.append(
                Island(
                    id=base + k,
                    level=t,
                    phi=phi,
                    members=frozenset(part),
                    parent=parents[k],
                    characteristic=part[0],
                )
            )

    names = {m: C.names[k] for k, m in enumerate(C.members)}
    return IslandTree(C.family, levels, islands, names)


def _blocks(values, order):
    """Nonzero entries of values[order][:, order], BLOCK_ROWS rows at a time.

    Yields (lo, hi, rows, cols, data) for the rows lo..hi-1 of the reordered
    matrix: rows are offsets from lo, cols are reordered column indices, and
    each row's entries come in ascending column order.
    """
    order = np.asarray(order, dtype=np.intp)
    for lo in range(0, len(order), BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, len(order))
        block = sp.csr_array(values[order[lo:hi]][:, order])
        block.sort_indices()
        coo = block.tocoo()
        yield lo, hi, coo.row, coo.col, coo.data


def _edges(values, order, floor: float):
    """Upper-triangle (row, col, value) arrays of values[order][:, order],
    off the diagonal, wherever the value exceeds floor."""
    ii, jj, vv = [np.empty(0, np.int32)], [np.empty(0, np.int32)], [np.empty(0)]
    for lo, _, rows, cols, data in _blocks(values, order):
        rows = rows + lo
        keep = (rows < cols) & (data > floor)
        ii.append(rows[keep])
        jj.append(cols[keep])
        vv.append(data[keep])
    return np.concatenate(ii), np.concatenate(jj), np.concatenate(vv)


def _join(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Merge the groups of a[k] and b[k] for every k, in place.

    root is a union-find forest over 0..n-1 in which every group's root is
    its smallest index; on return it maps every index straight to its root.
    """
    up = root.tolist()
    for x, y in zip(a.tolist(), b.tolist()):
        while up[x] != x:
            up[x] = up[up[x]]
            x = up[x]
        while up[y] != y:
            up[y] = up[up[y]]
            y = up[y]
        if x < y:
            up[y] = x
        elif y < x:
            up[x] = y
    root[:] = up
    while True:
        hop = root[root]
        if np.array_equal(hop, root):
            return
        root[:] = hop
