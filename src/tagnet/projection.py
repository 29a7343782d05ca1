"""Projection of the tripartite network to signature vectors and cosine matrices.

Each entity gets a sparse signature over another node family; correlating two
entities of the same family is the cosine of their signatures. Four views are
supported: users-via-items and items-via-users (binary ownership profiles),
items-via-tags and tags-via-items (weight sums over all users). A view's
signatures are the rows of one of the network's incidence matrices B, B^T, W
and W^T. Cross-kind correlations are deliberately not computed.
"""

from __future__ import annotations

import math
import threading
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


def item_user_signature(net: TripartiteNetwork, item_id: int) -> SignatureVector:
    """Binary audience profile of an item over the user axis."""
    return signature_for_view(net, "items-via-users", item_id)


def item_tag_signature(
    net: TripartiteNetwork, item_id: int, binary: bool = False
) -> SignatureVector:
    """Tag profile of an item: link weights summed over all users.

    With binary=True every attributed tag counts 1 instead of its weight sum.
    """
    return signature_for_view(net, "items-via-tags", item_id, binary=binary)


def tag_item_signature(
    net: TripartiteNetwork, tag_id: int, binary: bool = False
) -> SignatureVector:
    """Item profile of a tag: link weights summed over all users (transpose
    view of item_tag_signature)."""
    return signature_for_view(net, "tags-via-items", tag_id, binary=binary)


def signature_for_view(
    net: TripartiteNetwork, view: str, entity_id: int, binary: bool = False
) -> SignatureVector:
    """Signature of one entity under a named view: its incidence matrix row."""
    family, axis = _view(view)
    _registry(net, family).check(entity_id)
    rows = net.incidence[family, axis]
    lo, hi = rows.indptr[entity_id], rows.indptr[entity_id + 1]
    values = [1.0] * (hi - lo) if binary else rows.data[lo:hi].tolist()
    entries = dict(zip(rows.indices[lo:hi].tolist(), values))
    return SignatureVector(family, entity_id, axis, entries)


def cosine(u: SignatureVector, v: SignatureVector) -> float:
    """Cosine similarity of two signatures, in [0, 1].

    Empty profiles correlate 0 with everything, including themselves.
    """
    if u.axis != v.axis:
        raise ValueError(f"axis mismatch: {u.axis} vs {v.axis}")
    if u.is_empty or v.is_empty:
        return 0.0
    # One rounding per step, as in _cosine_grid, so both give the same bits.
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

    def value(self, a: int, b: int) -> float:
        return float(self.values[self._index[a], self._index[b]])


@dataclass
class CorrelationMatrix(_MemberIndex):
    """Symmetric cosine-similarity matrix over one node family.

    Values are in [0, 1]; the diagonal is 1 for members with a nonzero
    signature and 0 for flagged zero-signature members. correlation_matrix
    stores scipy CSR; from_dense and hand-built matrices may hold an ndarray.
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

    @classmethod
    def from_dense(
        cls,
        values,
        names: list[str] | None = None,
        family: str = TAG,
        view: str = "direct",
    ) -> "CorrelationMatrix":
        """Wrap a raw symmetric array; members are 0..n-1.

        Rows whose diagonal is 0 are flagged as zero-signature members.
        Values must be finite, lie in [0, 1] and be exactly symmetric.
        """
        arr = np.array(values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("expected a square matrix")
        if not np.isfinite(arr).all():
            raise ValueError("correlation values must be finite")
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ValueError("correlation values must lie in [0, 1]")
        if not np.array_equal(arr, arr.T):
            raise ValueError("correlation matrix must be symmetric")
        n = arr.shape[0]
        members = list(range(n))
        if names is None:
            names = [f"m{k}" for k in members]
        zero = frozenset(k for k in members if arr[k, k] == 0.0)
        return cls(family, view, members, list(names), arr, zero)


def correlation_matrix(
    net: TripartiteNetwork,
    family: str,
    view: str | None = None,
    members: list[int] | None = None,
    binary: bool = False,
) -> CorrelationMatrix:
    """Pairwise cosine matrix of a family of entities under one view.

    members (default: the whole family) come out in ascending id order.
    Zero-signature members are flagged, get a 0 diagonal, and correlate 0
    with everything.

    Requests are served from cosine rows cached on the network, one set per
    view and binary flag (_CosineRows): a request computes only the rows of
    its members not cached yet, and an equal repeat of the network's first
    request gets that grid itself. Results are bit-identical whatever the
    call history, and matrices from one network may share read-only storage.
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
    cache = net._grids.get((view, binary))
    if cache is None:
        cache = net._grids.setdefault(
            (view, binary), _CosineRows(net.incidence[VIEWS[view]], binary)
        )
    wanted = np.array(members, dtype=np.intp)
    values = cache.block(wanted)
    names = [registry.names[m] for m in members]
    zero_members = frozenset(wanted[cache.gram[wanted] == 0.0].tolist())
    return CorrelationMatrix(kind, view, members, names, values, zero_members)


class _CosineRows:
    """Cosine rows of one view's members, computed a batch per request.

    A request computes the rows of its uncached members, a batch, against
    every member cached by then, the batch included. So a pair is stored in
    the row of its later member, or in both rows within a batch, and a block
    over cached members is their rows cut to the block and mirrored. The
    first batch is kept as its grid, which serves an equal request uncopied;
    its rows index its own members, later rows index the family. Each cosine
    is G[i, j] / sqrt(G[i, i] * G[j, j]) on the Gram matrix G = A A^T of the
    raw signatures (the rows of a). For 0/1 signatures G is exact, so each
    cosine is rounded once and exact values stay exact: two users with 6
    items sharing 3 correlate exactly 0.5. A lock serializes requests.
    """

    def __init__(self, a: sp.csr_matrix, binary: bool) -> None:
        n = a.shape[0]
        self.a, self.binary, self.batches = a, binary, 0
        self.batch = np.full(n, -1)      # batch number per member, -1 uncached
        self.gram = np.zeros(n)          # G[m, m] per cached member
        self.slot = np.full(n, -1)       # scratch: block position per member
        self.cols: list = [None] * n     # per member: its row's columns
        self.vals: list = [None] * n     # and cosines
        self.first: tuple[np.ndarray, sp.csr_matrix] | None = None
        self.lock = threading.Lock()

    def block(self, wanted: np.ndarray) -> sp.csr_matrix:
        with self.lock:
            new = wanted[self.batch[wanted] < 0]
            if new.size:
                self._grow(new)
            if self.first is not None and np.array_equal(self.first[0], wanted):
                return self.first[1]
            return self._gather(wanted)

    def _grow(self, new: np.ndarray) -> None:
        cached = self.batch >= 0
        cached[new] = True
        ids = np.flatnonzero(cached)
        rows = self.a[ids]
        if self.binary:
            rows.data[:] = 1.0
        rows.sort_indices()
        at = np.searchsorted(ids, new)
        # With every row in ascending column order, csr_matmat adds each
        # G[i, j] over the shared columns in that order, whatever other rows
        # are present: a block of any grid holding i and j has the bits of
        # their own grid, and G[i, j] and G[j, i] are equal. So the product is
        # taken cached x new: its CSC, counting-sorted, is the new rows' CSR.
        grid = (rows @ (rows[at] if len(at) < len(ids) else rows).T).tocsc().T
        self.gram[new] = np.asarray(grid[np.arange(len(new)), at]).ravel()
        # The diagonal comes out exactly 1: sqrt(x * x) is x in binary
        # floating point, barring overflow and underflow. Zero rows store
        # nothing.
        scale = np.repeat(self.gram[new], np.diff(grid.indptr))
        scale *= self.gram[ids][grid.indices]
        np.sqrt(scale, out=scale)
        grid.data /= scale
        del scale
        np.clip(grid.data, 0.0, 1.0, out=grid.data)
        for array in (grid.data, grid.indices, grid.indptr):
            array.flags.writeable = False
        if self.first is None:
            self.first = ids, grid
        else:
            self._keep(new, ids[grid.indices], grid)
        self.batch[new] = self.batches
        self.batches += 1

    def _keep(self, members: np.ndarray, cols: np.ndarray, grid: sp.csr_matrix) -> None:
        cut = grid.indptr[1:-1]
        for m, c, v in zip(members.tolist(), np.split(cols, cut), np.split(grid.data, cut)):
            self.cols[m], self.vals[m] = c, v

    def _gather(self, wanted: np.ndarray) -> sp.csr_matrix:
        if self.first is not None and self.cols[self.first[0][0]] is None:
            self._keep(self.first[0], self.first[1].indices, self.first[1])
        k, members = len(wanted), wanted.tolist()
        cols = [self.cols[m] for m in members]
        lens = np.fromiter(map(len, cols), np.intp, k)
        cols = np.concatenate([np.empty(0, np.intp), *cols])
        vals = np.concatenate([np.empty(0), *(self.vals[m] for m in members)])
        row = np.repeat(np.arange(k), lens)
        batch = self.batch[wanted]
        self.slot[wanted] = np.arange(k)
        col = self.slot[cols]
        if self.first is not None:
            first = batch[row] == 0
            col[first] = self.slot[self.first[0][cols[first]]]
        self.slot[wanted] = -1
        keep = col >= 0
        row, col, vals = row[keep], col[keep], vals[keep]
        flip = batch[col] < batch[row]
        row, col = np.concatenate((row, col[flip])), np.concatenate((col, row[flip]))
        # Timsort: the entries read off the rows are one sorted run already.
        order = np.argsort(row * k + col, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=k))))
        vals = np.concatenate((vals, vals[flip]))[order]
        return sp.csr_matrix((vals, col[order], indptr), shape=(k, k))


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
