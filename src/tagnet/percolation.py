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
from functools import cached_property
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from .projection import CorrelationMatrix

#: Grids may have at most this many levels below phi = 1.
MAX_LEVELS = 1000

#: Matrix rows read per block; bounds the CSR copy made of a dense matrix.
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


@dataclass(eq=False)
class IslandTree:
    """Forest of islands across sweep levels, hung under a virtual root.

    Island k has sweep level level[k], parent island parent[k] (both -1 for
    the root, island 0) and member ids members[start[k]:start[k + 1]],
    characteristic element first, in (level, smallest member id) order.
    names maps member ids to their external names for exporters.
    """

    family: str
    levels: list[float]
    names: dict[int, str]
    level: np.ndarray
    parent: np.ndarray
    members: np.ndarray
    start: np.ndarray

    @cached_property
    def islands(self) -> list[Island]:
        """One Island record per island, in id order, built on first access."""
        ids, bounds = self.members.tolist(), self.start.tolist()
        rows = zip(self.level.tolist(), self.parent.tolist(), bounds, bounds[1:])
        return [
            Island(k, level, self.levels[level] if level >= 0 else None,
                   frozenset(ids[lo:hi]), parent if parent >= 0 else None, ids[lo])
            for k, (level, parent, lo, hi) in enumerate(rows)
        ]

    @property
    def root(self) -> Island:
        return self.islands[0]

    def islands_at(self, level: int) -> list[Island]:
        return [isl for isl in self.islands if isl.level == level]

    def island_sums(self, *weights: dict[int, float]) -> list[np.ndarray]:
        """Each island's summed member weight per mapping (absent members add
        0), added one member at a time in ascending id order from 0.0."""
        island = np.repeat(np.arange(len(self.level)), np.diff(self.start))
        ids = self.members[np.lexsort((self.members, island))].tolist()
        return [np.bincount(island, [w.get(m, 0) for m in ids]) for w in weights]


def filter_edges(C: CorrelationMatrix, phi: float) -> set[tuple[int, int]]:
    """Undirected edges (a, b), a < b, wherever C[a][b] > phi strictly."""
    if not 0.0 <= phi < 1.0:
        raise ValueError("phi must lie in [0, 1)")
    ii, jj, _ = _edges(C.values, phi)
    return {(C.members[i], C.members[j]) for i, j in zip(ii.tolist(), jj.tolist())}


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
    index = sorted(map(C.index_of, members))
    if not index:
        raise ValueError("island is empty")
    sums = np.empty(len(index))
    for lo, hi, rows, _, data in _blocks(C.values[index][:, index]):
        sums[lo:hi] = np.bincount(rows, weights=data, minlength=hi - lo)
    return C.members[index[int(np.argmax(sums))]]


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

    # Members are in ascending id order, so the smallest index of a group is
    # its smallest member id.
    n = C.size
    ii, jj, vv = _edges(C.values, grid.start)

    levels: list[float] = []
    top = vv.max(initial=grid.start)
    for t in range(MAX_LEVELS):
        phi = grid.phi(t)
        if phi >= 1.0:
            break  # correlations of exactly 1 never erode within [0, 1)
        levels.append(phi)
        if phi >= top:
            break  # no link survives: every island is a singleton

    # labels[t, r]: t * n + smallest rank of r's island at level t - 1; row 0: root.
    by_value = np.argsort(vv, kind="stable")
    vv = vv[by_value]
    ii = ii[by_value]
    jj = jj[by_value]
    cuts = np.searchsorted(vv, levels, side="right")
    labels = np.zeros((len(levels) + 1, n), dtype=np.intp)
    root = np.arange(n)
    end = len(vv)
    for t in range(len(levels) - 1, -1, -1):
        a, b = root[ii[cuts[t]:end]], root[jj[cuts[t]:end]]
        apart = a != b
        _join(root, a[apart], b[apart])
        labels[t + 1] = root + (t + 1) * n
        end = cuts[t]
    del ii, jj, vv, by_value

    # sums[t] sums each row over its island in labels[t]. Islands only refine, so
    # the entries kept for one level are filtered again for the next.
    sums = np.empty(labels.shape)
    for lo, hi, rows, cols, data in _blocks(C.values):
        for t, label in enumerate(labels):
            inside = label[rows + lo] == label[cols]
            rows, cols, data = rows[inside], cols[inside], data[inside]
            sums[t, lo:hi] = np.bincount(rows, weights=data, minlength=hi - lo)

    # Islands in (level, smallest member id) order, each best member first.
    key = labels.ravel()
    ranked = np.lexsort((-sums.ravel(), key))
    grouped = key[ranked]
    start = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1], True])
    heads = grouped[start[:-1]]
    # An island's parent holds its first member one level up, n cells back.
    parent = np.r_[-1, np.searchsorted(heads, key[ranked[start[1:-1]] - n])]
    members = np.asarray(C.members)[ranked % n]
    names = {m: C.names[k] for k, m in enumerate(C.members)}
    return IslandTree(C.family, levels, names, heads // n - 1, parent, members, start)


def _blocks(values):
    """Nonzero entries of a dense or CSR matrix, BLOCK_ROWS rows at a time.

    Yields (lo, hi, rows, cols, data) for the rows lo..hi-1: rows are offsets
    from lo, and each row's entries come in ascending column order. A sparse
    matrix gets its indices sorted in place first, which leaves it equal.
    """
    if sp.issparse(values):
        values.sort_indices()
    for lo in range(0, values.shape[0], BLOCK_ROWS):
        coo = sp.csr_array(values[lo:lo + BLOCK_ROWS]).tocoo()
        yield lo, lo + coo.shape[0], coo.row, coo.col, coo.data


def _edges(values, floor: float):
    """Upper-triangle (row, col, value) arrays of values, off the diagonal,
    wherever the value exceeds floor."""
    ii, jj, vv = [np.empty(0, np.int32)], [np.empty(0, np.int32)], [np.empty(0)]
    for lo, _, rows, cols, data in _blocks(values):
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
