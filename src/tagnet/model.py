"""Weighted user-item-tag network built from raw tagging events.

A tagging event is one user describing one item with a set of tags. When a
(user, item) pair carries k distinct tags, each of its k links gets weight
exactly 1/k, so the link weights of every owned pair sum to 1. The network
also holds two sparse incidence matrices, read with incidence(rows, cols):
ownership B = incidence(USER, ITEM) (users x items, 0/1) and attribution
W = incidence(ITEM, TAG) (items x tags, each entry the float sum of the 1/k
weights of its links), and their transposes. W adds its float weights one at
a time, so an entry can differ in the last bit from the exact sum rounded once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add
from typing import Callable, Iterable

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
    appearance.
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
        """[event, user, item, tag] columns, rows stably sorted by event. With
        events None, each run of adjacent rows of one pair is numbered once,
        and build_network numbers the pairs from these event ids."""
        events = self.events
        if events is None:
            pairs = self.users.astype(np.int64) * len(self.names) + self.items
            runs = np.flatnonzero(np.diff(pairs, prepend=-1))
            events = np.repeat(_first_seen(pairs[runs])[1], np.diff(runs, append=len(pairs)))
        order = np.argsort(events, kind="stable")
        return [column[order] for column in (events, self.users, self.items, self.tags)]


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
    is built on first use. incidence(rows, cols) returns B, B^T, W or W^T
    for the (row kind, column kind) keys of INCIDENCE, as scipy CSR matrices
    with int32 indices, ascending in every row. Each is built on its first
    call and returned as the same object on every later one: a tag view
    never builds B.
    A matrix of B's structure holds pair indices, so a user's pairs are one
    row slice. projection.correlation_matrix caches full cosine rows per
    view in _grids.
    """

    def __init__(
        self, users: EntityRegistry, items: EntityRegistry, tags: EntityRegistry, pairs
    ) -> None:
        """pairs is the int32 arrays (pair_users, pair_items, tag counts,
        link_tags), one entry per owned pair and link_tags grouped by pair."""
        self.users, self.items, self.tags = users, items, tags
        self.pair_users, self.pair_items, self._k, self.link_tags = pairs
        self.pair_ptr = np.concatenate(([0], np.cumsum(self._k, dtype=np.int64)))
        #: links per tag id
        self.tag_link_counts = np.bincount(self.link_tags, minlength=len(tags))
        #: view -> projection._CosineRows
        self._grids: dict[str, object] = {}

    #: (row kind, column kind) -> the attribute that builds and keeps B, B^T, W or W^T
    INCIDENCE = {(USER, ITEM): "_b", (ITEM, USER): "_bt", (ITEM, TAG): "_w", (TAG, ITEM): "_wt"}

    def incidence(self, rows: str, cols: str) -> sp.csr_matrix:
        return getattr(self, self.INCIDENCE[rows, cols])

    @cached_property
    def _pair_at(self) -> sp.csr_matrix:
        ids, shape = np.arange(len(self._k), dtype=np.int32), (len(self.users), len(self.items))
        return sp.csr_matrix((ids, (self.pair_users, self.pair_items)), shape=shape)

    @cached_property
    def _b(self) -> sp.csr_matrix:
        at = self._pair_at
        return sp.csr_matrix((np.ones(len(self._k)), at.indices, at.indptr), shape=at.shape)

    @cached_property
    def _w(self) -> sp.csr_matrix:
        # Converting (data, (row, col)) input sums duplicate entries.
        k, shape = self._k, (len(self.items), len(self.tags))
        rows = np.repeat(self.pair_items, k)
        return sp.csr_matrix((np.repeat(1.0 / k, k), (rows, self.link_tags)), shape=shape)

    _bt = cached_property(lambda self: self._b.T.tocsr())
    _wt = cached_property(lambda self: self._w.T.tocsr())

    @cached_property
    def ownership(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(self.pair_users.tolist(), self.pair_items.tolist()))

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

    def iter_pairs(self):
        """Iterate (user_id, item_id, tag_ids) over owned pairs in build order."""
        tags, ptr = self.link_tags.tolist(), self.pair_ptr.tolist()
        pairs = zip(self.pair_users.tolist(), self.pair_items.tolist())
        for p, (uid, iid) in enumerate(pairs):
            yield uid, iid, tuple(tags[ptr[p]:ptr[p + 1]])


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
    items and tags are numbered by first use among kept events. Pairs are
    numbered once: for read_triples input, from the event ids that
    Triples.grouped sorts by. The incidence matrices are built on first use.
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
    for code in np.flatnonzero(np.bincount(tag + 1, minlength=1)[1:]).tolist():
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
    if rows.events is None:  # each event is one pair: number the kept events
        opens = np.diff(event[keep], prepend=-1) != 0
        pair, pair_rows = np.cumsum(opens) - 1, np.flatnonzero(opens)
    else:  # two events can share a pair
        _, pair, pair_rows = _first_seen(uid * len(item_codes) + iid)
    # Each (pair, tag) link's first use, by one stable sort of the pair-major
    # key; row order groups them by pair unless two events share one.
    link = pair * len(tag_codes) + tid
    order = np.argsort(link, kind="stable")
    repeat = np.zeros(len(link), bool)
    repeat[order[1:]] = link[order[1:]] == link[order[:-1]]
    links = np.flatnonzero(~repeat)
    if rows.events is not None:
        links = links[np.argsort(pair[links], kind="stable")]
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


def left_sum(values):
    """Sum from 0 in iteration order, unlike the compensated sum() of 3.12+."""
    return reduce(add, values, 0)
