"""Threshold percolation over a correlation matrix.

Sweeping a filter threshold upward erodes weakly correlated links; the
connected components surviving at each step are the islands, and linking
each island to the island containing it one step earlier yields a branching
forest hung under a virtual root.

The islands at phi are the components of the graph {C > phi}, so every level
comes out of one single-linkage pass (Gower & Ross 1969): bucket the links by
the levels they survive (arithmetic on the value, checked against the grid's
thresholds), and hook each bucket's ends from the top level down until one
island holds every member, as it then does on every level below. Each row
block compacts its links above start once and sorts them by bucket, so the
pass holds only the links' two ends. An island that does not split keeps its
parent's members, sums and order, so the tree's nodes are its distinct member
sets, those of the single-linkage merge tree: at most 2n - 1, whatever the
grid. Only the nodes' members are sorted, and the writers format each node
once. The sums that rank the members are exact before one last rounding, so
each stored entry is added once, in any order, at the last level where its two
ends share an island; node_sums adds in id order, once per node: a diversity
report is per node, and its records are the per-island view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .projection import BLOCK_ROWS, CorrelationMatrix

#: Grids may have at most this many levels below phi = 1.
MAX_LEVELS = 1000


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
        if not 0.0 < self.step < np.inf:
            raise ValueError("step must be positive and finite")
        if self.phi(MAX_LEVELS) < 1.0:
            raise ValueError(
                f"step {self.step} gives more than {MAX_LEVELS} levels below phi = 1"
            )

    def phi(self, t: int) -> float:
        return self.start + t * self.step

    @cached_property
    def size(self) -> int:
        """The number of thresholds below 1."""
        return next(t for t in range(MAX_LEVELS + 1) if self.phi(t) >= 1.0)

    @cached_property
    def thresholds(self) -> np.ndarray:  # phi(0) to phi(size), as phi computes them
        return np.array([self.phi(t) for t in range(self.size + 1)])

    def bucket(self, values: np.ndarray) -> np.ndarray:
        """How many of the thresholds below 1 each value exceeds, as uint16:
        np.searchsorted over them, without a search. (v - start) / step
        rounds up to within one of the count, which is then checked against
        the thresholds table, one step each way."""
        t = np.ceil((values - self.start) / self.step)
        t = np.clip(t, 1, self.size, out=t).astype(np.intp)
        t -= self.thresholds.take(t - 1) >= values
        t += self.thresholds.take(t) < values
        return np.minimum(t, self.size).astype(np.min_scalar_type(MAX_LEVELS))


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

    Island k has sweep level level[k] and parent island parent[k] (both -1 for
    the root, island 0), in (level, smallest member id) order, and the members
    of node node[k]: ids[node_ranks[node_start[j]:node_start[j + 1]]] for
    j = node[k], characteristic element first. The nodes are the distinct
    member sets, in (smallest member, first level) order; the islands of one
    node share its members. ids holds the member ids ascending, as the matrix
    does; names maps them to external names. islands is built on first use.
    """

    family: str
    levels: list[float]
    names: dict[int, str]
    ids: np.ndarray
    level: np.ndarray
    parent: np.ndarray
    node: np.ndarray
    node_ranks: np.ndarray
    node_start: np.ndarray

    @cached_property
    def islands(self) -> list[Island]:
        """One Island record per island, in id order; the islands of one node
        share one member set."""
        ids, bounds = self.ids[self.node_ranks].tolist(), self.node_start.tolist()
        members = [frozenset(ids[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        rows = zip(self.level.tolist(), self.parent.tolist(), self.node.tolist())
        return [
            Island(k, level, self.levels[level] if level >= 0 else None,
                   members[j], parent if parent >= 0 else None, ids[bounds[j]])
            for k, (level, parent, j) in enumerate(rows)
        ]

    @cached_property
    def entry_node(self) -> np.ndarray:
        return np.repeat(np.arange(self.node_start.size - 1), np.diff(self.node_start))

    def sorted_in_nodes(self, keys: np.ndarray) -> np.ndarray:
        """keys, one in range(len(ids)) per node entry, sorted within each node."""
        return np.sort(self.entry_node * self.ids.size + keys) % self.ids.size

    @cached_property
    def sum_index(self) -> tuple[list[int], np.ndarray]:
        """The ids; each node's entries' indices there, ascending in each node."""
        return self.ids.tolist(), self.sorted_in_nodes(self.node_ranks)

    def node_sums(self, *weights: dict[int, float]) -> list[np.ndarray]:
        """Each node's summed member weight per mapping (absent members add 0),
        added one member at a time in ascending id order from 0.0. A report is
        per node; its records give island k node[k]'s sums. Each mapping is
        read once per id; bincount sums each node's entries once."""
        ids, column = self.sum_index
        vectors = (np.array([w.get(m, 0) for m in ids]) for w in weights)
        return [np.bincount(self.entry_node, x[column]) for x in vectors]


def build_tree(C: CorrelationMatrix, grid: FilterGrid | None = None) -> IslandTree:
    """Sweep the grid over the matrix and assemble the island forest.

    Each level's islands partition the full member set (singletons
    included); an island's parent is the island one level up containing its
    members. The levels run from grid.start up to the first phi at or above
    the largest off-diagonal value, where every island is a singleton, or
    up to the last phi below 1, whichever comes first. The terminal
    all-singleton level is kept in the structure; exporters decide whether
    to draw it. Every island's characteristic element is the member whose
    summed correlation to the island, diagonal included, is the largest, ties
    to the smallest id; the other members follow by the same sums. A sum adds
    its terms exactly, each rounded to the nearest multiple of 2 ** -2e (ties
    to even), e = 53 - C.size.bit_length(), then rounds once: in any order.

    Links join by array hooking (Shiloach & Vishkin 1982), a bucket at a time
    from the top level down: each round hooks the larger root of every link
    still across two groups onto the smallest root it meets there by
    np.minimum.at (a plain assignment keeps an arbitrary write, and a star
    centred on its largest id then takes a round per leaf), and follows
    pointers until each index maps straight to its root. C.values is read, not
    changed. Values must lie in [0, 1], and C must be symmetric: links are read
    from the upper triangle only, while the sums read both. An asymmetric
    hand-built CSR is not detected, since checking would cost a transposed
    copy of C.
    """
    if C.size == 0:
        raise ValueError("cannot sweep an empty matrix")
    if grid is None:
        grid = FilterGrid()

    # Members are in ascending id order, so the smallest index of a group is
    # its smallest member id.
    n = C.size
    values = sp.csr_matrix(C.values)  # shares a CSR C.values's arrays; left as found
    if not (0.0 <= values.data.min(initial=0.0) and values.data.max(initial=0.0) <= 1.0):
        raise ValueError("correlation values must lie in [0, 1]")

    # A link of bucket b survives levels 0..b-1. Each row block keeps the ends of
    # its upper-triangle links above grid.start, stably sorted by bucket, and its
    # cumulative bucket counts: ends[:, cuts[t]:cuts[t + 1]] are its links of
    # bucket t + 1. _join's groups do not depend on the order within a bucket.
    blocks, top = [], 0
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        p, q = values.indptr[lo], values.indptr[hi]
        cols, data = values.indices[p:q], values.data[p:q]
        rows = np.repeat(np.arange(lo, hi, dtype=cols.dtype), np.diff(values.indptr[lo:hi + 1]))
        keep = np.flatnonzero((rows < cols) & (data > grid.start))
        code = grid.bucket(data.take(keep))
        keep = keep.take(np.argsort(code, kind="stable"))
        ends = np.stack([rows.take(keep), cols.take(keep)])
        blocks.append((ends, np.cumsum(np.bincount(code, minlength=grid.size + 1)).tolist()))
        top = max(top, int(code.max(initial=0)))
    # Up to the first phi at or above the largest link, or the last below 1.
    levels = grid.thresholds[:min(top + 1, grid.size)].tolist()

    # labels[t, r]: t * n + smallest rank of r's island at level t - 1; row 0: root.
    labels = np.repeat(np.arange(len(levels) + 1) * n, n).reshape(-1, n)
    root = np.arange(n)
    for t in range(len(levels) - 1, -1, -1):
        links = [ends[:, cuts[t]:cuts[t + 1]] for ends, cuts in blocks if cuts[t] < cuts[t + 1]]
        if links:
            _join(root, *np.concatenate(links, 1))
        labels[t + 1] += root
        if not root.any():  # one island holds everyone; the rows below already say so
            break
    del blocks

    # moved[t - 1, r]: r's island in labels[t - 1] splits in labels[t].
    above, below = labels[:-1], labels[1:] - n
    splits = np.zeros(labels.size, dtype=bool)
    splits[above[above != below]] = True
    moved = splits[above]
    del above, below, splits

    # Ordered by their labels row by row, each island's members are a run of
    # positions, and shared[k * n + p] is the last row that positions p to
    # p + 2 ** k all share (a sparse table, Bender & Farach-Colton 2000): that of
    # positions p <= q is the least at p + ahead[q - p] and p + behind[q - p].
    rows = len(labels)
    order = np.lexsort(labels[::-1])
    position = np.argsort(order)
    shared = [np.zeros(n, np.min_scalar_type(MAX_LEVELS))]
    for row in labels[1:]:
        shared[0][:-1] += np.diff(row[order]) == 0
    span = 1 << np.arange((n - 1).bit_length())
    for width in span[:-1]:  # a window past the end is never read
        shared.append(np.minimum(shared[-1], np.roll(shared[-1], -width)))
    shared = np.concatenate(shared + [np.full(n, rows - 1, shared[0].dtype)])  # q == p
    ahead = np.r_[span.size, np.repeat(np.arange(span.size), span)][:n] * n
    behind = ahead + np.arange(n) - np.r_[0, np.repeat(span, span)][:n]

    # The nodes, one per distinct member set, in (smallest rank, first row) order,
    # each best member first: the cells of the root row and those whose island a
    # row up split, by (member, row). A cell's sum adds its row's entries binned
    # at the last row their ends share, from the last row up, each rounded onto
    # high units of 2 ** -e plus low units of 2 ** -2e: no partial sum of n of
    # them rounds (pre-rounding, Demmel & Nguyen 2013). Node j lives in rows
    # first[j] to last[j].
    cells = np.flatnonzero(np.r_[np.ones((1, n), bool), moved].T)
    key = labels[cells % rows, cells // rows] % n * rows + cells % rows
    scale, sums = 2.0 ** (53 - n.bit_length()), np.zeros(cells.size)
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        p, q = values.indptr[lo], values.indptr[hi]
        counts = np.diff(values.indptr[lo:hi + 1])
        left = np.repeat(position[lo:hi], counts)
        length = position.take(values.indices[p:q]) - left
        left, length = left + np.minimum(length, 0), np.abs(length, out=length)
        bins = np.repeat(np.arange(0, (hi - lo) * rows, rows), counts) + np.minimum(
            shared.take(ahead.take(length) + left), shared.take(behind.take(length) + left))
        # Bit for bit rint(v * scale ** 2 - high * scale): every step is exact (Sterbenz).
        high = np.rint(low := values.data[p:q] * scale)
        low -= high
        np.rint(np.multiply(low, scale, out=low), out=low)
        c, d = np.searchsorted(cells, (lo * rows, hi * rows))
        for part, unit in (high, scale), (low, scale ** 2):
            part = np.bincount(bins, part, (hi - lo) * rows).reshape(hi - lo, rows)
            np.cumsum(part[:, ::-1], axis=1, out=part[:, ::-1])
            sums[c:d] += part.take(cells[c:d] - lo * rows) / unit
        del left, length, bins, high, low, part
    order = np.lexsort((-sums, key))
    ranked, key = cells[order] // rows, key[order]
    del sums, cells, order, moved, shared, position, ahead, behind
    node_start = np.flatnonzero(np.r_[True, key[1:] != key[:-1], True])
    key = key[node_start[:-1]]
    head, first = np.divmod(key, rows)
    # A node's parent is the last node to begin, at or above the row over its
    # first, with the smallest rank of the island that holds its head there.
    node_parent = np.searchsorted(key, labels[first - 1, head] % n * rows + first - 1, "right") - 1
    node_parent[0] = -1  # the root node
    del labels
    last = np.full(key.size, rows - 1)
    last[node_parent[1:]] = first[1:] - 1
    # The islands: each row's live nodes, in order. An island's parent is its
    # node's island a row up, or its parent node's.
    t = np.arange(rows)[:, None]
    alive = (first <= t) & (t <= last)
    row, node = np.divmod(np.flatnonzero(alive), key.size)
    mate = np.where(first[node] < row, node, node_parent[node])
    row -= 1  # the level
    mate += row * key.size
    index = np.cumsum(alive.ravel(), dtype=np.min_scalar_type(-alive.size))  # 1 + island
    parent = index[mate].astype(np.intp)
    parent -= 1
    parent[0] = -1  # the root's mate, a row above row 0, wraps around
    names = {m: C.names[k] for k, m in enumerate(C.members)}
    return IslandTree(C.family, levels, names, np.asarray(C.members), row, parent, node,
                      ranked, node_start)


def _join(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Merge the groups of a[k] and b[k] for every k by hooking (build_tree), in
    place. root maps each index to its group's smallest index, on entry and exit."""
    while (apart := root[a] != root[b]).any():
        a, b = a[apart], b[apart]
        ra, rb = root[a], root[b]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(hop := root[root], root):
            root[:] = hop
