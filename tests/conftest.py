from hypothesis import settings

from tagnet import TaggingEvent, build_network

# Same examples on every run, and no per-example deadline on a slow box.
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")


def ev(user, item, *tags):
    return TaggingEvent(user, item, tuple(tags))


def net_of(*events):
    return build_network(list(events))
