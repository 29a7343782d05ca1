from itertools import groupby
from operator import itemgetter

import numpy as np
from hypothesis import settings

from tagnet import TaggingEvent, Triples, build_network
from tagnet.model import TAG
from tagnet.percolation import IslandTree
from tagnet.projection import CorrelationMatrix, _MemberIndex

# Same examples on every run, and no per-example deadline on a slow box.
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")


# Fixtures and oracles that only the tests use, attached where the tests call
# them: CorrelationMatrix.from_dense, _MemberIndex.value (for CorrelationMatrix
# and SineMatrix), iteration over Triples, and IslandTree.root and islands_at.

def from_dense(cls, values, names=None, family=TAG, view="direct"):
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


def value(self, a, b):
    return float(self.values[self._index[a], self._index[b]])


def events_of(triples):
    """One TaggingEvent per event: the lines grouped by (user, item), tags in
    first-use order."""
    names = triples.names
    rows = zip(*(column.tolist() for column in triples.grouped()))
    for _, event in groupby(rows, itemgetter(0)):
        _, user, item, tags = zip(*event)
        tag_names = tuple(names[t] for t in tags if t >= 0)
        yield TaggingEvent(names[user[0]], names[item[0]], tag_names)


def islands_at(tree, level):
    return [isl for isl in tree.islands if isl.level == level]


CorrelationMatrix.from_dense = classmethod(from_dense)
_MemberIndex.value = value
Triples.__iter__ = events_of
IslandTree.root = property(lambda tree: tree.islands[0])
IslandTree.islands_at = islands_at


def ev(user, item, *tags):
    return TaggingEvent(user, item, tuple(tags))


def net_of(*events):
    return build_network(list(events))


def pair_arrays(pairs):
    """TripartiteNetwork's pair arrays for {(user_id, item_id): tag ids}, in
    the mapping's order."""
    owned = np.array(list(pairs), np.int32).reshape(-1, 2)
    k = np.array([len(group) for group in pairs.values()], np.int32)
    tags = np.array([t for group in pairs.values() for t in group], np.int32)
    return owned[:, 0], owned[:, 1], k, tags
