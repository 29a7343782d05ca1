"""Weighted user-item-tag network built from raw tagging events.

A tagging event is one user describing one item with a set of tags. When a
(user, item) pair carries k distinct tags, each of its k links gets weight
exactly 1/k, so the link weights of every owned pair sum to 1. Single links
report that weight as an exact rational. The network also holds two sparse
incidence matrices: ownership B (users x items, 0/1) and attribution W
(items x tags, each entry the float sum of the 1/k weights of its links).
W adds its float weights one at a time, so an entry can differ in the last
bit from the exact rational sum rounded once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, groupby
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np
import scipy.sparse as sp

logger = logging.getLogger(__name__)

USER = "user"
ITEM = "item"
TAG = "tag"
KINDS = (USER, ITEM, TAG)


class DataError(ValueError):
    """Input data violates a format or content contract."""


class UnknownEntityError(DataError, KeyError):
    """A name or id that the network does not hold."""


def normalize_default(tag: str) -> str:
    """Trim surrounding whitespace and case-fold."""
    return tag.strip().casefold()


def normalize_exact(tag: str) -> str:
    """Keep the tag string verbatim."""
    return tag


NORMALIZERS: dict[str, Callable[[str], str]] = {
    "default": normalize_default,
    "exact": normalize_exact,
}


@dataclass
class EntityRegistry:
    """Interns external names of one node kind as dense integer ids.

    Ids run 0..count-1 in first-seen order; name and id are a bijection.
    """

    kind: str
    names: list[str] = field(default_factory=list)
    indices: dict[str, int] = field(default_factory=dict)

    def id_of(self, name: str) -> int:
        try:
            return self.indices[name]
        except KeyError:
            raise UnknownEntityError(f"unknown {self.kind}: {name!r}") from None

    def name_of(self, entity_id: int) -> str:
        self.check(entity_id)
        return self.names[entity_id]

    def check(self, entity_id: int) -> int:
        """Validate that an id is registered; returns it unchanged."""
        if not 0 <= entity_id < len(self.names):
            raise UnknownEntityError(f"unknown {self.kind} id: {entity_id}")
        return entity_id

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class TaggingEvent:
    """One user describing one item with one or more tags.

    Tags are deduplicated but keep their first-use order, so id assignment
    downstream does not depend on hash ordering.
    """

    user: str
    item: str
    tags: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tags", tuple(dict.fromkeys(self.tags)))


@dataclass(frozen=True, eq=False)
class Triples:
    """Tagging input as interned columns, one row per (event, tag) use.

    users, items and tags are int32 codes into names, where names[0] is ""
    and tag -1 marks an event without tags. events numbers each row's event;
    None makes each distinct (user, item) pair one event, numbered by first
    appearance. Iterating yields one TaggingEvent per event.
    """

    names: list[str]
    users: np.ndarray
    items: np.ndarray
    tags: np.ndarray
    events: np.ndarray | None = None

    @classmethod
    def from_events(cls, events: Iterable[TaggingEvent]) -> Triples:
        """Flatten events into columns; names are kept verbatim."""
        index, rows = {"": 0}, []
        for pos, event in enumerate(events):
            user = index.setdefault(event.user or "", len(index))
            item = index.setdefault(event.item or "", len(index))
            tags = [index.setdefault(t, len(index)) for t in event.tags] or [-1]
            rows.extend((pos, user, item, tag) for tag in tags)
        events_, users, items, tags = np.array(rows, np.int32).reshape(-1, 4).T
        return cls(list(index), users, items, tags, events_)

    def grouped(self) -> list[np.ndarray]:
        """[event, user, item, tag] columns, rows stably sorted by event."""
        events = self.events
        if events is None:
            pairs = self.users.astype(np.int64) * len(self.names) + self.items
            _, events, _ = _first_seen(pairs)
        order = np.argsort(events, kind="stable")
        return [column[order] for column in (events, self.users, self.items, self.tags)]

    def __iter__(self) -> Iterator[TaggingEvent]:
        names = self.names
        rows = zip(*(column.tolist() for column in self.grouped()))
        for _, event in groupby(rows, itemgetter(0)):
            _, user, item, tags = zip(*event)
            tag_names = tuple(names[t] for t in tags if t >= 0)
            yield TaggingEvent(names[user[0]], names[item[0]], tag_names)


def _first_seen(keys: np.ndarray, size: int | None = None):
    """Distinct keys in first-seen order, each key's rank in that order, and
    where each distinct key first appears (ascending). Keys known to lie in
    range(size) skip the sort that finds them."""
    if size:
        distinct, dense = np.arange(size), keys
    else:
        distinct, dense = np.unique(keys, return_inverse=True)
    first = np.full(len(distinct), len(keys))
    np.minimum.at(first, dense, np.arange(len(keys)))
    order = np.argsort(first)[:np.count_nonzero(first < len(keys))]
    rank = np.empty(len(distinct), np.int64)
    rank[order] = np.arange(len(order))
    return distinct[order], rank[dense], first[order]


class TripartiteNetwork:
    """Immutable tripartite tagging network with fractional link weights.

    Owned pairs are arrays in build order: pair_users, pair_items, and
    pair_ptr, a CSR index into link_tags (pair p has the tag ids
    link_tags[pair_ptr[p]:pair_ptr[p + 1]]); each link weighs 1/k for a
    pair of k tags. ownership, the set of owned (user_id, item_id) pairs,
    is built on first use. incidence maps a (row kind, column kind) pair to
    B, B^T, W or W^T as scipy CSR matrices with int32 indices, ascending in
    every row; a matrix of B's structure holds pair indices, so a user's
    pairs are one row slice. projection.correlation_matrix caches cosine
    rows per view and binary flag in _grids. The object is safe to share
    across readers: each cache entry serializes its requests with a lock.
    """

    def __init__(
        self, users: EntityRegistry, items: EntityRegistry, tags: EntityRegistry, pairs
    ) -> None:
        """pairs maps each owned (user_id, item_id) to its tag ids, or is the
        arrays (pair_users, pair_items, tag counts, link_tags)."""
        if isinstance(pairs, Mapping):
            k = np.fromiter(map(len, pairs.values()), np.int32, len(pairs))
            owned = np.fromiter(chain.from_iterable(pairs), np.int32, 2 * len(pairs))
            flat = np.fromiter(
                chain.from_iterable(pairs.values()), np.int32, int(k.sum())
            )
            pairs = owned[0::2], owned[1::2], k, flat
        self.users, self.items, self.tags = users, items, tags
        self.pair_users, self.pair_items, k, self.link_tags = pairs
        self.pair_ptr = np.concatenate(([0], np.cumsum(k, dtype=np.int64)))
        n_pairs = len(k)
        self._pair_at = sp.csr_matrix(
            (np.arange(n_pairs, dtype=np.int32), (self.pair_users, self.pair_items)),
            shape=(len(users), len(items)),
        )
        b = sp.csr_matrix(
            (np.ones(n_pairs), self._pair_at.indices, self._pair_at.indptr),
            shape=self._pair_at.shape,
        )
        # Converting (data, (row, col)) input sums duplicate entries.
        w = sp.csr_matrix(
            (np.repeat(1.0 / k, k), (np.repeat(self.pair_items, k), self.link_tags)),
            shape=(len(items), len(tags)),
        )
        self.incidence: dict[tuple[str, str], sp.csr_matrix] = {
            (USER, ITEM): b,
            (ITEM, USER): b.T.tocsr(),
            (ITEM, TAG): w,
            (TAG, ITEM): w.T.tocsr(),
        }
        #: links per tag id
        self.tag_link_counts = np.bincount(self.link_tags, minlength=len(tags))
        #: (view, binary) -> projection._CosineRows
        self._grids: dict[tuple[str, bool], object] = {}

    @cached_property
    def ownership(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(self.pair_users.tolist(), self.pair_items.tolist()))

    # -- link views ---------------------------------------------------------

    def links(self) -> list[tuple[int, int, int, Fraction]]:
        """All (user_id, item_id, tag_id, weight) links, sorted by ids."""
        return sorted(
            (uid, iid, tid, Fraction(1, len(tag_ids)))
            for uid, iid, tag_ids in self.iter_pairs()
            for tid in tag_ids
        )

    def pair_tag_ids(self, user_id: int, item_id: int) -> tuple[int, ...]:
        """Tag ids of an owned (user, item) pair; empty if not owned."""
        if not 0 <= user_id < len(self.users):
            return ()
        at = self._pair_at
        lo, hi = at.indptr[user_id], at.indptr[user_id + 1]
        k = lo + np.searchsorted(at.indices[lo:hi], item_id)
        if k == hi or at.indices[k] != item_id:
            return ()
        p = at.data[k]
        return tuple(self.link_tags[self.pair_ptr[p]:self.pair_ptr[p + 1]].tolist())

    def link_weight(self, user_id: int, item_id: int, tag_id: int) -> Fraction:
        tag_ids = self.pair_tag_ids(user_id, item_id)
        if tag_id in tag_ids:
            return Fraction(1, len(tag_ids))
        return Fraction(0)

    def user_items(self, user_id: int) -> tuple[int, ...]:
        """Items the user owns, in ascending id order."""
        self.users.check(user_id)
        return _row(self.incidence[USER, ITEM], user_id)

    def item_users(self, item_id: int) -> tuple[int, ...]:
        """Users owning the item, in ascending id order."""
        self.items.check(item_id)
        return _row(self.incidence[ITEM, USER], item_id)

    def user_links(self, user_id: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Tag ids of a user's links by ascending item id, each pair's tags in
        order, and the tag count k of each link's pair; every link in build
        order when user_id is None."""
        if user_id is None:
            k = np.diff(self.pair_ptr)
            return self.link_tags, np.repeat(k, k)
        self.users.check(user_id)
        starts, tags, sizes = self._links_by_user
        span = slice(starts[user_id], starts[user_id + 1])
        return tags[span], sizes[span]

    @cached_property
    def _links_by_user(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where each user's links start, and the links' tag ids and pair tag
        counts, ordered by user and ascending item."""
        order = self._pair_at.data
        k = np.diff(self.pair_ptr)[order]
        out = np.cumsum(k) - k  # where each pair's links go
        links = np.repeat(self.pair_ptr[order] - out, k) + np.arange(k.sum())
        starts = np.append(out, k.sum())[self._pair_at.indptr]
        return starts, self.link_tags[links], np.repeat(k, k)

    def tag_link_count(self, tag_id: int) -> int:
        self.tags.check(tag_id)
        return int(self.tag_link_counts[tag_id])

    def iter_pairs(self):
        """Iterate (user_id, item_id, tag_ids) over owned pairs in build order."""
        tags, ptr = self.link_tags.tolist(), self.pair_ptr.tolist()
        pairs = zip(self.pair_users.tolist(), self.pair_items.tolist())
        for p, (uid, iid) in enumerate(pairs):
            yield uid, iid, tuple(tags[ptr[p]:ptr[p + 1]])


def _row(m: sp.csr_matrix, index: int) -> tuple[int, ...]:
    return tuple(m.indices[m.indptr[index]:m.indptr[index + 1]].tolist())


def build_network(
    events: Triples | Iterable[TaggingEvent],
    normalize: str | Callable[[str], str] = "default",
    strict: bool = False,
) -> TripartiteNetwork:
    """Assemble a TripartiteNetwork from Triples or a finite stream of events.

    Other events are flattened into Triples first. Each distinct raw tag is
    normalized once. Duplicate (user, item) events are merged by tag-set
    union and their link weights recomputed as 1/k over the union. Events
    whose tag set is empty after normalization are rejected with a
    diagnostic; in strict mode any rejection aborts the build. Pairs are
    kept in first-seen order with their tags in first-use order; users,
    items and tags are numbered by first use among kept events.
    """
    if isinstance(normalize, str):
        try:
            norm = NORMALIZERS[normalize]
        except KeyError:
            raise ValueError(f"unknown normalization policy: {normalize!r}") from None
    else:
        norm = normalize

    rows = events if isinstance(events, Triples) else Triples.from_events(events)
    names, (event, user, item, tag) = rows.names, rows.grouped()
    tag_names: dict[str, int] = {}
    lookup = np.full(len(names) + 1, -1)  # the last entry serves tag -1
    for code in np.unique(tag[tag >= 0]).tolist():
        if name := norm(names[code]):
            lookup[code] = tag_names.setdefault(name, len(tag_names))
    tag = lookup[tag]

    first = np.flatnonzero(np.diff(event, prepend=-1))  # each event's first row
    named = (user[first] != 0) & (item[first] != 0)
    keep = (tag >= 0) & named[event]
    tagged = np.zeros(len(first), bool)
    tagged[event[keep]] = True
    for pos in np.flatnonzero(~tagged).tolist():
        u, i = names[user[first[pos]]], names[item[first[pos]]]
        _reject(f"event #{pos} ({u!r}, {i!r}): no tags left after normalization"
                if named[pos] else f"event #{pos}: empty user or item name", strict)

    user_codes, uid, _ = _first_seen(user[keep], len(names))
    item_codes, iid, _ = _first_seen(item[keep], len(names))
    tag_codes, tid, _ = _first_seen(tag[keep], len(tag_names))
    _, pair, pair_rows = _first_seen(uid * len(item_codes) + iid)
    # the first use of each (pair, tag) link, grouped by pair
    uses = _first_seen(pair * len(tag_codes) + tid)[2]
    links = uses[np.argsort(pair[uses], kind="stable")]
    tag_list = list(tag_names)
    return TripartiteNetwork(
        _registry(USER, [names[c] for c in user_codes.tolist()]),
        _registry(ITEM, [names[c] for c in item_codes.tolist()]),
        _registry(TAG, [tag_list[c] for c in tag_codes.tolist()]),
        (uid[pair_rows].astype(np.int32), iid[pair_rows].astype(np.int32),
         np.bincount(pair[links], minlength=len(pair_rows)).astype(np.int32),
         tid[links].astype(np.int32)),
    )


def _registry(kind: str, names: list[str]) -> EntityRegistry:
    return EntityRegistry(kind, names, dict(zip(names, range(len(names)))))


def _reject(message: str, strict: bool, log: logging.Logger = logger) -> None:
    if strict:
        raise DataError(message)
    log.warning("skipping %s", message)


@dataclass(frozen=True)
class DegreeStats:
    """Degree summary of a network: counts, ownership means, tag usage."""

    n_users: int
    n_items: int
    n_tags: int
    items_per_user: float
    users_per_item: float
    tag_usage: dict[int, int]


def degree_stats(net: TripartiteNetwork) -> DegreeStats:
    """Means over ownership pairs plus per-tag link counts.

    An empty network yields an all-zero summary.
    """
    pairs = len(net.pair_users)
    n_users, n_items, n_tags = len(net.users), len(net.items), len(net.tags)
    return DegreeStats(
        n_users=n_users,
        n_items=n_items,
        n_tags=n_tags,
        items_per_user=pairs / n_users if n_users else 0.0,
        users_per_item=pairs / n_items if n_items else 0.0,
        tag_usage={tid: net.tag_link_count(tid) for tid in range(n_tags)},
    )


def left_sum(values):
    """Sum from 0 in iteration order, unlike the compensated sum() of 3.12+."""
    return reduce(add, values, 0)
