"""Seeded tagging corpora with planted tag communities, owned by the benchmark.

Every user has a home community. Library sizes follow the quantiles of a
Pareto law, so the multiset of sizes is the same for every seed and only
who owns what varies. Items are drawn by Zipf popularity, mostly from the
home community; each (user, item) pair gets 1-3 distinct tags, drawn by Zipf
popularity, mostly from the item's community.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

#: The same in every corpus. Like the CorpusSpec values, these are assumed,
#: not fitted to a published tagging corpus.
ITEM_ZIPF = 1.0  # Zipf exponent of item popularity within a community
TAG_ZIPF = 1.0  # Zipf exponent of tag popularity within a community
P_HOME = 0.8  # chance that an owned item comes from the home community
P_INTRA = 0.85  # chance that a tag comes from the item's community


@dataclass(frozen=True)
class CorpusSpec:
    users: int
    communities: int
    tags_per_community: int
    items_per_community: int
    min_library: int
    max_library: int
    library_alpha: float  # Pareto tail index of library sizes


@dataclass
class Corpus:
    spec: CorpusSpec
    seed: int
    pairs: list[tuple[str, str, tuple[str, ...]]]  # (user, item, tags), write order
    truth: dict[str, int]  # tag name -> planted community

    def lines(self) -> int:
        return sum(len(tags) for _, _, tags in self.pairs)

    def write(self, path) -> None:
        """One 'user<TAB>item<TAB>tag' line per attribution, no header."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(
                f"{user}\t{item}\t{tag}\n"
                for user, item, tags in self.pairs
                for tag in tags
            )


def library_sizes(spec: CorpusSpec) -> list[int]:
    """Library size of each rank, largest first: Pareto quantiles, capped."""
    n, a = spec.users, spec.library_alpha
    return [
        min(spec.max_library, int(spec.min_library * (n / (r + 0.5)) ** (1.0 / a)))
        for r in range(n)
    ]


def generate(spec: CorpusSpec, seed: int) -> Corpus:
    rng = random.Random(seed)
    c_count = spec.communities
    item_cum = _zipf_cum(spec.items_per_community, ITEM_ZIPF)
    tag_cum = _zipf_cum(spec.tags_per_community, TAG_ZIPF)
    item_range = range(spec.items_per_community)
    tag_range = range(spec.tags_per_community)

    def other(c: int) -> int:
        o = rng.randrange(c_count - 1)
        return o + (o >= c)

    sizes = library_sizes(spec)
    rng.shuffle(sizes)
    pairs = []
    for u, size in enumerate(sizes):
        home = u % c_count
        owned: dict[tuple[int, int], None] = {}
        while len(owned) < size:
            c = home if rng.random() < P_HOME else other(home)
            m = rng.choices(item_range, cum_weights=item_cum)[0]
            owned.setdefault((c, m))
        for c, m in owned:
            tags: dict[str, None] = {}
            k = rng.randint(1, 3)
            while len(tags) < k:
                tc = c if rng.random() < P_INTRA else other(c)
                x = rng.choices(tag_range, cum_weights=tag_cum)[0]
                tags.setdefault(f"t{tc}_{x}")
            pairs.append((f"u{u}", f"i{c}_{m}", tuple(tags)))
    truth = {
        f"t{c}_{x}": c for c in range(c_count) for x in tag_range
    }
    return Corpus(spec, seed, pairs, truth)


def _zipf_cum(n: int, s: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(n)))
