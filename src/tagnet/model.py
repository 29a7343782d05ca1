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
from itertools import chain
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

    def add(self, name: str) -> int:
        """Return the id for name, interning it if unseen."""
        idx = self.indices.get(name)
        if idx is None:
            idx = len(self.names)
            self.names.append(name)
            self.indices[name] = idx
        return idx

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

    def __contains__(self, name: str) -> bool:
        return name in self.indices


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


class TripartiteNetwork:
    """Immutable tripartite tagging network with fractional link weights.

    The canonical storage is the map (user_id, item_id) -> tag ids; every
    link weight is 1/k where k is the pair's tag count. incidence maps a
    (row kind, column kind) pair to one of B, B^T, W and W^T as scipy CSR
    matrices with int32 indices, ascending in every row. Everything is built
    once, and the object is safe to share across readers.
    """

    def __init__(
        self,
        users: EntityRegistry,
        items: EntityRegistry,
        tags: EntityRegistry,
        pair_tags: dict[tuple[int, int], tuple[int, ...]],
    ) -> None:
        self.users = users
        self.items = items
        self.tags = tags
        self._pair_tags = pair_tags
        self.ownership: frozenset[tuple[int, int]] = frozenset(pair_tags)

        n_pairs = len(pair_tags)
        pairs = np.fromiter(chain.from_iterable(pair_tags), np.int32, 2 * n_pairs)
        pair_users, pair_items = pairs[0::2], pairs[1::2]
        k = np.fromiter(map(len, pair_tags.values()), np.int32, n_pairs)
        link_tags = np.fromiter(
            chain.from_iterable(pair_tags.values()), np.int32, int(k.sum())
        )
        # Converting (data, (row, col)) input sums duplicate entries.
        b = sp.csr_matrix(
            (np.ones(n_pairs), (pair_users, pair_items)), shape=(len(users), len(items))
        )
        w = sp.csr_matrix(
            (np.repeat(1.0 / k, k), (np.repeat(pair_items, k), link_tags)),
            shape=(len(items), len(tags)),
        )
        self.incidence: dict[tuple[str, str], sp.csr_matrix] = {
            (USER, ITEM): b,
            (ITEM, USER): b.T.tocsr(),
            (ITEM, TAG): w,
            (TAG, ITEM): w.T.tocsr(),
        }
        #: links per tag id
        self.tag_link_counts = np.bincount(link_tags, minlength=len(tags))

    # -- link views ---------------------------------------------------------

    def links(self) -> list[tuple[int, int, int, Fraction]]:
        """All (user_id, item_id, tag_id, weight) links, sorted by ids."""
        out = []
        for (uid, iid), tag_ids in self._pair_tags.items():
            w = Fraction(1, len(tag_ids))
            out.extend((uid, iid, tid, w) for tid in tag_ids)
        out.sort(key=lambda link: link[:3])
        return out

    def pair_tag_ids(self, user_id: int, item_id: int) -> tuple[int, ...]:
        """Tag ids of an owned (user, item) pair; empty if not owned."""
        return self._pair_tags.get((user_id, item_id), ())

    def link_weight(self, user_id: int, item_id: int, tag_id: int) -> Fraction:
        tag_ids = self._pair_tags.get((user_id, item_id), ())
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

    def tag_link_count(self, tag_id: int) -> int:
        self.tags.check(tag_id)
        return int(self.tag_link_counts[tag_id])

    def iter_pairs(self):
        """Iterate (user_id, item_id, tag_ids) over owned pairs in build order."""
        for (uid, iid), tag_ids in self._pair_tags.items():
            yield uid, iid, tag_ids


def _row(m: sp.csr_matrix, index: int) -> tuple[int, ...]:
    return tuple(m.indices[m.indptr[index]:m.indptr[index + 1]].tolist())


def build_network(
    events: Iterable[TaggingEvent],
    normalize: str | Callable[[str], str] = "default",
    strict: bool = False,
) -> TripartiteNetwork:
    """Assemble a TripartiteNetwork from a finite stream of tagging events.

    Duplicate (user, item) events are merged by tag-set union and their link
    weights recomputed as 1/k over the union. Events whose tag set is empty
    after normalization are rejected with a diagnostic; in strict mode any
    rejection aborts the build.
    """
    if isinstance(normalize, str):
        try:
            norm = NORMALIZERS[normalize]
        except KeyError:
            raise ValueError(f"unknown normalization policy: {normalize!r}") from None
    else:
        norm = normalize

    users = EntityRegistry(USER)
    items = EntityRegistry(ITEM)
    tags = EntityRegistry(TAG)
    grouped: dict[tuple[int, int], list[int]] = {}

    for pos, event in enumerate(events):
        if not event.user or not event.item:
            _reject(f"event #{pos}: empty user or item name", strict)
            continue
        kept = [t for t in dict.fromkeys(norm(t) for t in event.tags) if t]
        if not kept:
            _reject(
                f"event #{pos} ({event.user!r}, {event.item!r}): "
                "no tags left after normalization",
                strict,
            )
            continue
        uid = users.add(event.user)
        iid = items.add(event.item)
        group = grouped.setdefault((uid, iid), [])
        for name in kept:
            tid = tags.add(name)
            if tid not in group:
                group.append(tid)

    pair_tags = {key: tuple(group) for key, group in grouped.items()}
    return TripartiteNetwork(users, items, tags, pair_tags)


def _reject(message: str, strict: bool) -> None:
    if strict:
        raise DataError(message)
    logger.warning("skipping %s", message)


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
    pairs = len(net.ownership)
    n_users, n_items, n_tags = len(net.users), len(net.items), len(net.tags)
    return DegreeStats(
        n_users=n_users,
        n_items=n_items,
        n_tags=n_tags,
        items_per_user=pairs / n_users if n_users else 0.0,
        users_per_item=pairs / n_items if n_items else 0.0,
        tag_usage={tid: net.tag_link_count(tid) for tid in range(n_tags)},
    )
