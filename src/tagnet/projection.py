"""Projection of the tripartite network to signature vectors and cosine matrices.

Each entity gets a sparse signature over another node family; correlating two
entities of the same family is the cosine of their signatures. Four views are
supported: users-via-items and items-via-users (0/1 ownership profiles),
items-via-tags and tags-via-items (weight sums over all users). A view's
signatures are the rows of one of the network's incidence matrices B, B^T, W
and W^T. Cross-kind correlations are deliberately not computed. Cosine
matrices are scipy CSR, each row's columns in the order the sparse product
leaves them: no reader depends on column order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .model import ITEM, KINDS, TAG, USER, EntityRegistry, TripartiteNetwork, left_sum

#: view name -> (family kind, axis kind), the key of its incidence matrix
VIEWS: dict[str, tuple[str, str]] = {
    "users-via-items": (USER, ITEM),
    "items-via-users": (ITEM, USER),
    "items-via-tags": (ITEM, TAG),
    "tags-via-items": (TAG, ITEM),
}

#: Matrix rows per block: bounds the transient arrays of the product scaling in
#: _CosineRows and, in percolation.build_tree, of the link bucketing and of the
#: one pass that bins each stored entry into the island sums.
BLOCK_ROWS = 128

DEFAULT_VIEW = {
    USER: "users-via-items",
    ITEM: "items-via-users",
    TAG: "tags-via-items",
}


@dataclass
class SignatureVector:
    """Sparse nonnegative profile of one entity over another node family.

    Zero coordinates are implicit; stored values are strictly positive.
    """

    owner_kind: str
    owner_id: int
    axis: str
    entries: dict[int, float]

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.entries.values()):
            raise ValueError("signature entries must be nonnegative")
        self.entries = {k: v for k, v in self.entries.items() if v > 0.0}

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def dot(self, other: "SignatureVector") -> float:
        # summed in ascending coordinate order so dot(u, v) == dot(v, u) exactly
        shared = sorted(self.entries.keys() & other.entries.keys())
        return left_sum(self.entries[k] * other.entries[k] for k in shared)


def user_item_signature(net: TripartiteNetwork, user_id: int) -> SignatureVector:
    """Binary ownership profile of a user over the item axis."""
    return signature_for_view(net, "users-via-items", user_id)


def signature_for_view(
    net: TripartiteNetwork, view: str, entity_id: int
) -> SignatureVector:
    """Signature of one entity under a named view: its incidence matrix row."""
    family, axis = _view(view)
    _registry(net, family).check(entity_id)
    rows = net.incidence[family, axis]
    lo, hi = rows.indptr[entity_id], rows.indptr[entity_id + 1]
    entries = dict(zip(rows.indices[lo:hi].tolist(), rows.data[lo:hi].tolist()))
    return SignatureVector(family, entity_id, axis, entries)


def cosine(u: SignatureVector, v: SignatureVector) -> float:
    """Cosine similarity of two signatures, in [0, 1].

    Empty profiles correlate 0 with everything, including themselves.
    """
    if u.axis != v.axis:
        raise ValueError(f"axis mismatch: {u.axis} vs {v.axis}")
    if u.is_empty or v.is_empty:
        return 0.0
    # One rounding per step, as in _CosineRows, so both give the same bits.
    value = u.dot(v) / math.sqrt(u.dot(u) * v.dot(v))
    return min(1.0, max(0.0, value))


class _MemberIndex:
    """Member-id lookup into a square matrix; subclasses are dataclasses with
    members, names and values fields, values[k, l] over members k and l.
    Members are put in ascending id order, names and values permuted along."""

    def __post_init__(self) -> None:
        n = len(self.members)
        if n != len(set(self.members)):
            raise ValueError("duplicate members")
        if len(self.names) != n:
            raise ValueError("names and members must align")
        shape = np.shape(self.values)
        if shape != (n, n):
            raise ValueError(f"values of shape {shape} do not fit {n} members")
        if any(a > b for a, b in zip(self.members, self.members[1:])):
            order = sorted(range(n), key=self.members.__getitem__)
            self.members = [self.members[k] for k in order]
            self.names = [self.names[k] for k in order]
            self.values = self.values[order][:, order]
        self._index = {m: k for k, m in enumerate(self.members)}

    def index_of(self, member_id: int) -> int:
        return self._index[member_id]


@dataclass
class CorrelationMatrix(_MemberIndex):
    """Symmetric cosine-similarity matrix over one node family.

    Values are in [0, 1]; the diagonal is 1 for members with a nonzero
    signature and 0 for flagged zero-signature members. correlation_matrix
    stores scipy CSR; hand-built matrices may hold an ndarray.
    """

    family: str
    view: str
    members: list[int]
    names: list[str]
    values: np.ndarray | sp.spmatrix
    zero_members: frozenset[int] = frozenset()

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def is_dense(self) -> bool:
        return isinstance(self.values, np.ndarray)

    def dense(self) -> np.ndarray:
        """The values as an ndarray: the stored one, or a copy of the CSR."""
        return self.values if self.is_dense else self.values.toarray()


def correlation_matrix(
    net: TripartiteNetwork,
    family: str,
    view: str | None = None,
    members: list[int] | None = None,
) -> CorrelationMatrix:
    """Pairwise cosine matrix of a family of entities under one view.

    members (default: the whole family) come out in ascending id order.
    Zero-signature members are flagged, get a 0 diagonal, and correlate 0
    with everything.

    Requests are served from a cache on the network, one per view
    (_CosineRows). The first request on a view gets its own grid, which is
    not kept. Every later request is cut from full cosine rows over the
    family, and computes only the rows of its members that have none yet.
    Every entry is bit-identical whatever the call history, and each result
    holds arrays of its own, so writing into one changes no other. A row
    holds its columns in the order the product leaves them;
    values.sorted_indices() gives canonical CSR.
    """
    kind = _as_kind(family)
    if view is None:
        view = DEFAULT_VIEW[kind]
    if _view(view)[0] != kind:
        raise ValueError(f"view {view!r} does not project the {kind} family")

    registry = _registry(net, kind)
    if members is None:
        members = range(len(registry))
    members = sorted(registry.check(m) for m in members)

    if any(a == b for a, b in zip(members, members[1:])):
        raise ValueError("duplicate members")
    wanted = np.array(members, dtype=np.intp)
    cache = net._grids.get(view)
    if cache is None:
        axis = VIEWS[view][1]
        cache = net._grids[view] = _CosineRows(
            net.incidence[kind, axis], net.incidence[axis, kind]
        )
        values = cache._cosines(wanted, family=False)
    else:
        values = cache.block(wanted)
    names = [registry.names[m] for m in members]
    zero_members = frozenset(wanted[cache.gram[wanted] == 0.0].tolist())
    return CorrelationMatrix(kind, view, members, names, values, zero_members)


class _CosineRows:
    """Cosine rows of one view's members, each over the whole family.

    block first computes, in one product, the full row of each requested
    member that has none yet, then copies the entries of the requested rows
    that fall in the request. Each cosine is G[i, j] / sqrt(G[i, i] * G[j, j])
    on the Gram matrix G = A A^T of the raw signatures (the rows of a). For
    0/1 signatures G is exact, so each cosine is rounded once and exact
    values stay exact: two users with 6 items sharing 3 correlate exactly 0.5.
    Cached rows and the cuts from them keep the product's column order.
    """

    def __init__(self, a: sp.csr_matrix, at: sp.csr_matrix) -> None:
        n = a.shape[0]
        self.a, self.at = a, at  # at: a's transpose, the reverse incidence
        # G[m, m] added from 0.0 in ascending column order (a's rows are
        # ascending), as csr_matmat adds every G[i, j]: the product's bits.
        row = np.repeat(np.arange(n), np.diff(a.indptr))
        self.gram = np.bincount(row, a.data * a.data, n)
        self.slot = np.full(n, -1, np.int32)  # reused: block position per member
        self.cols: list = [None] * n          # per member: its full row's columns
        self.vals: list = [None] * n          # and cosines

    def block(self, wanted: np.ndarray) -> sp.csr_matrix:
        members, k = wanted.tolist(), len(wanted)
        new = np.array([m for m in members if self.cols[m] is None], np.intp)
        if new.size:
            grid = self._cosines(new, family=True)
            cut = grid.indptr[1:-1]
            split = zip(np.split(grid.indices, cut), np.split(grid.data, cut))
            for m, (c, v) in zip(new.tolist(), split):
                self.cols[m], self.vals[m] = c, v
        # The requested rows end to end: each entry's block position, -1 outside.
        cols, vals = [self.cols[m] for m in members], [self.vals[m] for m in members]
        self.slot[wanted] = np.arange(k)
        col = self.slot[np.concatenate([np.empty(0, np.int32), *cols])]
        self.slot[wanted] = -1
        at = np.flatnonzero(col >= 0)  # the kept entries, ascending
        ends = np.cumsum(np.fromiter(map(len, cols), np.intp, k))
        indptr = np.concatenate(([0], np.searchsorted(at, ends)))  # kept before each row end
        vals = np.concatenate([np.empty(0), *vals])
        return sp.csr_matrix((vals[at], col[at], indptr), shape=(k, k))

    def _cosines(self, new: np.ndarray, family: bool) -> sp.csr_matrix:
        """Cosines of the members new against the whole family, or against
        themselves, as CSR with each row's columns in product order."""
        rows, own = self.a[new], self.gram[new]
        right, gram = (self.at, self.gram) if family else (rows.T, own)
        # With every row of rows in ascending column order, csr_matmat adds
        # each G[i, j] over the shared columns in that order, whatever other
        # rows are present, and G[i, j] and G[j, i] are equal. Every block of
        # rows is scaled in place: the product is the result.
        grid = rows @ right
        del rows, right  # the product alone is held while it is scaled
        indptr, indices, data = grid.indptr, grid.indices, grid.data
        for lo in range(0, len(new), BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, len(new))
            p, q = indptr[lo], indptr[hi]
            vals = data[p:q]
            # The diagonal comes out exactly 1: sqrt(x * x) is x in IEEE 754
            # floating point, barring overflow and underflow. Zero rows store
            # nothing.
            scale = np.repeat(own[lo:hi], np.diff(indptr[lo:hi + 1]))
            scale *= gram.take(indices[p:q])
            np.sqrt(scale, out=scale)
            vals /= scale
            np.clip(vals, 0.0, 1.0, out=vals)
        return grid


def top_n(net: TripartiteNetwork, family: str, n: int) -> list[int]:
    """Ids of the n most-used entities of a family, ties to first-seen.

    Usage is the tag's link count, the item's audience size, or the user's
    library size. Returns the whole family when it has fewer than n members.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    kind = _as_kind(family)
    if kind == TAG:
        usage = net.tag_link_counts
    else:
        usage = np.diff(net.incidence[VIEWS[DEFAULT_VIEW[kind]]].indptr)
    return np.argsort(-usage, kind="stable")[:n].tolist()


def _as_kind(family: str) -> str:
    kind = family[:-1] if family.endswith("s") else family
    if kind not in KINDS:
        raise ValueError(f"unknown family: {family!r}")
    return kind


def _view(view: str) -> tuple[str, str]:
    try:
        return VIEWS[view]
    except KeyError:
        raise ValueError(f"unknown view: {view!r}") from None


def _registry(net: TripartiteNetwork, kind: str) -> EntityRegistry:
    return {USER: net.users, ITEM: net.items, TAG: net.tags}[kind]
