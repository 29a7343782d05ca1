import numpy as np
from hypothesis import settings

from tagnet import TaggingEvent, build_network

# Same examples on every run, and no per-example deadline on a slow box.
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")


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
