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
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .model import ITEM, KINDS, TAG, USER, EntityRegistry, TripartiteNetwork

#: Correlation matrices at or below this member count are stored dense.
DENSE_LIMIT = 4096

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
        small, big = self.entries, other.entries
        if len(small) > len(big):
            small, big = big, small
        return sum(small[k] * big[k] for k in sorted(small) if k in big)


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
    members, names and values fields, values[k, l] over members k and l."""

    def __post_init__(self) -> None:
        n = len(self.members)
        if n != len(set(self.members)):
            raise ValueError("duplicate members")
        if len(self.names) != n:
            raise ValueError("names and members must align")
        shape = np.shape(self.values)
        if shape != (n, n):
            raise ValueError(f"values of shape {shape} do not fit {n} members")
        self._index = {m: k for k, m in enumerate(self.members)}

    def index_of(self, member_id: int) -> int:
        return self._index[member_id]

    def value(self, a: int, b: int) -> float:
        return float(self.values[self._index[a], self._index[b]])


@dataclass
class CorrelationMatrix(_MemberIndex):
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

    members defaults to every entity of the family. Zero-signature members
    are flagged, get a 0 diagonal, and correlate 0 with everything.
    """
    kind = _as_kind(family)
    if view is None:
        view = DEFAULT_VIEW[kind]
    if _view(view)[0] != kind:
        raise ValueError(f"view {view!r} does not project the {kind} family")

    registry = _registry(net, kind)
    if members is None:
        members = list(range(len(registry)))
    else:
        members = [registry.check(m) for m in members]

    rows = net.incidence[VIEWS[view]][members]
    if binary:
        rows.data[:] = 1.0
    names = [registry.names[m] for m in members]
    values, zero_rows = _cosine_grid(rows)
    zero_members = frozenset(members[k] for k in zero_rows)
    return CorrelationMatrix(kind, view, list(members), names, values, zero_members)


def _cosine_grid(a: sp.csr_matrix):
    """All-pairs cosine of the rows of a; returns (matrix, zero row indices).

    Each cosine is G[i, j] / sqrt(G[i, i] * G[j, j]) on the Gram matrix
    G = A A^T of the raw signatures. For 0/1 signatures G is exact, so each
    cosine is rounded once and exact values stay exact: two users with 6
    items sharing 3 correlate exactly 0.5.
    """
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
    if a.shape[0] <= DENSE_LIMIT:
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
