"""Synthetic corpora with planted tag communities, plus a recovery score.

Every user owns all items of their home community; each (user, item) pair
draws 1-3 distinct tags, picking the home community with weight p_intra and
each foreign community with weight p_inter. Generation is a pure function of
the config, seed included.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, fields
from typing import Iterable

from .model import DataError, TaggingEvent

_MAX_TAG_DRAWS = 20


@dataclass(frozen=True)
class PlantedConfig:
    communities: int
    tags_per_community: int
    users_per_community: int
    items_per_community: int
    p_intra: float = 0.9
    p_inter: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.communities < 1:
            raise ValueError("need at least one community")
        for name in ("tags_per_community", "users_per_community", "items_per_community"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("p_intra", "p_inter"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.p_intra <= self.p_inter:
            raise ValueError("p_intra must exceed p_inter")


def generate(config: PlantedConfig) -> tuple[list[TaggingEvent], dict[str, int]]:
    """Generate events and the tag -> community ground truth."""
    rng = random.Random(config.seed)
    truth = {
        _tag_name(c, x): c
        for c in range(config.communities)
        for x in range(config.tags_per_community)
    }
    events = []
    for c in range(config.communities):
        for u in range(config.users_per_community):
            user = f"u{c}_{u}"
            for m in range(config.items_per_community):
                item = f"it{c}_{m}"
                k = rng.randint(1, 3)
                tags: list[str] = []
                for _ in range(_MAX_TAG_DRAWS):
                    if len(tags) == k:
                        break
                    home = _draw_community(rng, config, c)
                    tag = _tag_name(home, rng.randrange(config.tags_per_community))
                    if tag not in tags:
                        tags.append(tag)
                events.append(TaggingEvent(user, item, tuple(tags)))
    return events, truth


def _tag_name(community: int, index: int) -> str:
    return f"t{community}_{index}"


def _draw_community(rng: random.Random, config: PlantedConfig, home: int) -> int:
    if config.communities == 1 or config.p_inter == 0.0:
        return home
    total = config.p_intra + (config.communities - 1) * config.p_inter
    x = rng.random() * total
    if x < config.p_intra:
        return home
    slot = int((x - config.p_intra) // config.p_inter)
    others = [c for c in range(config.communities) if c != home]
    return others[min(slot, len(others) - 1)]


def pair_agreement(parts_a: Iterable[Iterable], parts_b: Iterable[Iterable]) -> float:
    """Fraction of element pairs the two partitions classify the same way
    (together in both or apart in both); 1.0 means identical partitions."""
    label_a = {e: k for k, part in enumerate(parts_a) for e in part}
    label_b = {e: k for k, part in enumerate(parts_b) for e in part}
    if set(label_a) != set(label_b):
        raise ValueError("partitions cover different element sets")
    n = len(label_a)
    total = math.comb(n, 2)
    if total == 0:
        return 1.0
    together_a = sum(math.comb(c, 2) for c in Counter(label_a.values()).values())
    together_b = sum(math.comb(c, 2) for c in Counter(label_b.values()).values())
    joint = Counter((label_a[e], label_b[e]) for e in label_a)
    together_both = sum(math.comb(c, 2) for c in joint.values())
    disagreements = together_a + together_b - 2 * together_both
    return (total - disagreements) / total


def load_config(path) -> PlantedConfig:
    """Parse a plain key = value file (# comments allowed) into a config."""
    # field types are strings here: annotations are postponed in this module
    types = {"int": int, "float": float}
    parsers = {f.name: types[f.type] for f in fields(PlantedConfig)}
    values: dict[str, int | float] = {}
    with open(path, encoding="utf-8") as fh:
        for line_num, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise DataError(f"{path}:{line_num}: expected key = value")
            key, _, value = stripped.partition("=")
            key = key.strip()
            value = value.strip()
            parse = parsers.get(key)
            if parse is None:
                raise DataError(f"{path}:{line_num}: unknown key {key!r}")
            if key in values:
                raise DataError(f"{path}:{line_num}: duplicate key {key!r}")
            try:
                values[key] = parse(value)
            except ValueError as exc:
                raise DataError(
                    f"{path}:{line_num}: bad value for {key}: {value!r}"
                ) from exc
    try:
        return PlantedConfig(**values)  # type: ignore[arg-type]
    except TypeError as exc:
        raise DataError(f"{path}: incomplete config ({exc})") from None
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
