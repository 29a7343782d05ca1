"""Projection of the tripartite network to signature vectors and cosine matrices.

Each entity gets a sparse signature over another node family; correlating two
entities of the same family is the cosine of their signatures. Four views are
supported: users-via-items and items-via-users (binary ownership profiles),
items-via-tags and tags-via-items (weight sums over all users). Cross-kind
correlations are deliberately not computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .model import ITEM, TAG, USER, TripartiteNetwork

#: Correlation matrices at or below this member count are stored dense.
DENSE_LIMIT = 4096

#: view name -> (family kind, axis kind)
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

    def norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.entries.values()))

    def dot(self, other: "SignatureVector") -> float:
        # summed in ascending coordinate order so dot(u, v) == dot(v, u) exactly
        small, big = self.entries, other.entries
        if len(small) > len(big):
            small, big = big, small
        return sum(small[k] * big[k] for k in sorted(small) if k in big)


def user_item_signature(net: TripartiteNetwork, user_id: int) -> SignatureVector:
    """Binary ownership profile of a user over the item axis."""
    entries = {iid: 1.0 for iid in net.user_items(user_id)}
    return SignatureVector(USER, user_id, ITEM, entries)


def item_user_signature(net: TripartiteNetwork, item_id: int) -> SignatureVector:
    """Binary audience profile of an item over the user axis."""
    entries = {uid: 1.0 for uid in net.item_users(item_id)}
    return SignatureVector(ITEM, item_id, USER, entries)


def item_tag_signature(
    net: TripartiteNetwork, item_id: int, binary: bool = False
) -> SignatureVector:
    """Tag profile of an item: link weights summed over all users.

    With binary=True every attributed tag counts 1 instead of its weight sum.
    """
    weights = net.item_tag_weights(item_id)
    entries = {tid: (1.0 if binary else float(w)) for tid, w in weights.items()}
    return SignatureVector(ITEM, item_id, TAG, entries)


def tag_item_signature(
    net: TripartiteNetwork, tag_id: int, binary: bool = False
) -> SignatureVector:
    """Item profile of a tag: link weights summed over all users (transpose
    view of item_tag_signature)."""
    weights = net.tag_item_weights(tag_id)
    entries = {iid: (1.0 if binary else float(w)) for iid, w in weights.items()}
    return SignatureVector(TAG, tag_id, ITEM, entries)


def signature_for_view(
    net: TripartiteNetwork, view: str, entity_id: int, binary: bool = False
) -> SignatureVector:
    """Signature of one entity under a named view."""
    if view == "users-via-items":
        return user_item_signature(net, entity_id)
    if view == "items-via-users":
        return item_user_signature(net, entity_id)
    if view == "items-via-tags":
        return item_tag_signature(net, entity_id, binary=binary)
    if view == "tags-via-items":
        return tag_item_signature(net, entity_id, binary=binary)
    raise ValueError(f"unknown view: {view!r}")


def cosine(u: SignatureVector, v: SignatureVector) -> float:
    """Cosine similarity of two signatures, in [0, 1].

    Empty profiles correlate 0 with everything, including themselves.
    """
    if u.axis != v.axis:
        raise ValueError(f"axis mismatch: {u.axis} vs {v.axis}")
    if u.is_empty or v.is_empty:
        return 0.0
    value = u.dot(v) / (u.norm() * v.norm())
    return min(1.0, max(0.0, value))


@dataclass
class CorrelationMatrix:
    """Symmetric cosine-similarity matrix over one node family.

    Values are in [0, 1]; the diagonal is 1 for members with a nonzero
    signature and 0 for flagged zero-signature members. Storage is a dense
    ndarray up to DENSE_LIMIT members and scipy CSR beyond.
    """

    family: str
    view: str
    members: list[int]
    names: list[str]
    values: np.ndarray | sp.spmatrix
    zero_members: frozenset[int] = frozenset()
    _index: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.members) != len(set(self.members)):
            raise ValueError("duplicate members")
        if len(self.names) != len(self.members):
            raise ValueError("names and members must align")
        self._index = {m: k for k, m in enumerate(self.members)}

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def is_dense(self) -> bool:
        return isinstance(self.values, np.ndarray)

    def index_of(self, member_id: int) -> int:
        return self._index[member_id]

    def name_of(self, member_id: int) -> str:
        return self.names[self._index[member_id]]

    def value(self, a: int, b: int) -> float:
        return float(self.values[self._index[a], self._index[b]])

    def row_dense(self, position: int) -> np.ndarray:
        if self.is_dense:
            return self.values[position]
        return np.asarray(self.values.getrow(position).todense()).ravel()

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

    members defaults to every entity of the family. Zero-signature members
    are flagged, get a 0 diagonal, and correlate 0 with everything.
    """
    kind = _as_kind(family)
    if view is None:
        view = DEFAULT_VIEW[kind]
    if view not in VIEWS:
        raise ValueError(f"unknown view: {view!r}")
    if VIEWS[view][0] != kind:
        raise ValueError(f"view {view!r} does not project the {kind} family")

    registry = {USER: net.users, ITEM: net.items, TAG: net.tags}[kind]
    if members is None:
        members = list(range(len(registry)))
    else:
        members = [registry.check(m) for m in members]

    sigs = [signature_for_view(net, view, m, binary=binary) for m in members]
    names = [registry.name_of(m) for m in members]
    values, zero_rows = _cosine_grid(sigs)
    zero_members = frozenset(members[k] for k in zero_rows)
    return CorrelationMatrix(kind, view, list(members), names, values, zero_members)


def _cosine_grid(sigs: list[SignatureVector]):
    """All-pairs cosine of row signatures; returns (matrix, zero row indices).

    Each cosine is G[i, j] / sqrt(G[i, i] * G[j, j]) on the Gram matrix
    G = A A^T of the raw signatures. For 0/1 signatures G is exact, so each
    cosine is rounded once and exact values stay exact: two users with 6
    items sharing 3 correlate exactly 0.5.
    """
    m = len(sigs)
    col_ids = sorted({c for s in sigs for c in s.entries})
    col_pos = {c: j for j, c in enumerate(col_ids)}

    rows, cols, data = [], [], []
    for k, sig in enumerate(sigs):
        for c, v in sig.entries.items():
            rows.append(k)
            cols.append(col_pos[c])
            data.append(v)
    a = sp.csr_matrix(
        (data, (rows, cols)), shape=(m, len(col_ids)), dtype=float
    )
    # Exactly symmetric: with every row of a in ascending column order,
    # G[i, j] and G[j, i] add the same products in the same order.
    a.sort_indices()
    grid = (a @ a.T).tocsr()

    # The diagonal comes out exactly 1: sqrt(x * x) is x in binary floating
    # point, barring overflow and underflow. Zero rows store nothing.
    gram = grid.diagonal()
    scale = np.repeat(gram, np.diff(grid.indptr))
    scale *= gram[grid.indices]
    np.sqrt(scale, out=scale)
    grid.data /= scale
    del scale
    np.clip(grid.data, 0.0, 1.0, out=grid.data)
    zero_rows = np.flatnonzero(gram == 0.0).tolist()
    if m <= DENSE_LIMIT:
        return grid.toarray(), zero_rows
    return grid, zero_rows


def top_n(net: TripartiteNetwork, family: str, n: int) -> list[int]:
    """Ids of the n most-used entities of a family, ties to first-seen.

    Usage is the tag's link count, the item's audience size, or the user's
    library size. Returns the whole family when it has fewer than n members.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    kind = _as_kind(family)
    if kind == TAG:
        count = net.tag_link_count
        size = len(net.tags)
    elif kind == ITEM:
        count = lambda iid: len(net.item_users(iid))
        size = len(net.items)
    else:
        count = lambda uid: len(net.user_items(uid))
        size = len(net.users)
    ranked = sorted(range(size), key=lambda e: (-count(e), e))
    return ranked[:n]


def _as_kind(family: str) -> str:
    kind = family.rstrip("s") if family not in (USER, ITEM, TAG) else family
    if kind not in (USER, ITEM, TAG):
        raise ValueError(f"unknown family: {family!r}")
    return kind
