"""Tag spectra and diversity measures: entropy, sine metric, island activity.

A tag spectrum counts how often each tag is attributed to a user's items (or
to the whole sample). The sine matrix sqrt(1 - C^2) of a tag correlation
matrix acts as a distance between tags; a user's diversity is the bilinear
form of their spectrum under that metric. An activity report is per node of
the tag tree, whose islands share its members; records is its per-island view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import TAG, TripartiteNetwork, left_sum
from .percolation import IslandTree
from .projection import CorrelationMatrix, _MemberIndex

SAMPLE = "sample"

GREEN = (0, 200, 0)
BLUE = (0, 0, 220)
GRAY = (128, 128, 128)

#: log2(ratio) is clamped to +/- this before color interpolation.
RATIO_LOG2_CLAMP = 2.0


@dataclass
class TagSpectrum:
    """Per-tag attribution counts for one user or the whole sample."""

    owner: int | str
    counts: dict[int, float]

    @property
    def total(self) -> float:
        return left_sum(self.counts.values())


def tag_spectrum(
    net: TripartiteNetwork,
    user_id: int | None = None,
    weighted: bool = False,
) -> TagSpectrum:
    """Count tag attributions on a user's items, or sample-wide when user_id
    is None.

    Default counting is one per (user, item, tag) attribution; weighted=True
    accumulates the fractional link weights 1/k instead.
    """
    owner = SAMPLE if user_id is None else user_id
    tag_ids, sizes = net.user_links(user_id)

    counts: dict[int, float] = {}
    for tid, k in zip(tag_ids.tolist(), sizes.tolist()):
        w = 1.0 / k if weighted else 1
        counts[tid] = counts.get(tid, 0) + w
    return TagSpectrum(owner, counts)


def entropy(spec: TagSpectrum) -> float:
    """Shannon entropy (natural log) of the spectrum's tag distribution."""
    total = spec.total
    if total <= 0:
        raise ValueError("entropy is undefined for an empty spectrum")
    # 0.0 - x, not -x: a single-tag spectrum scores +0.0, not -0.0.
    return 0.0 - left_sum(
        (c / total) * math.log(c / total) for c in spec.counts.values() if c > 0
    )


@dataclass
class SineMatrix(_MemberIndex):
    """Elementwise sqrt(1 - C^2) of a correlation matrix, a tag distance."""

    members: list[int]
    names: list[str]
    values: np.ndarray


def sine_matrix(C: CorrelationMatrix) -> SineMatrix:
    """Transform correlations to distances; 1 - C^2 is clamped at 0 before
    the square root to absorb rounding."""
    dense = C.dense()
    values = np.sqrt(np.clip(1.0 - dense * dense, 0.0, None))
    return SineMatrix(list(C.members), list(C.names), values)


def diversity(spec: TagSpectrum, S: SineMatrix) -> float:
    """Bilinear form of the spectrum under the sine metric.

    The double sum runs over ordered tag pairs, so each unordered pair
    contributes twice; the diagonal contributes nothing when S[I][I] = 0.
    Single-tag spectra therefore score 0.
    """
    x = _spectrum_vector(spec, S)
    return float(x @ S.values @ x)


def pairwise_distance(spec1: TagSpectrum, spec2: TagSpectrum, S: SineMatrix) -> float:
    """Normalized cross form between two spectra; self-distance is 1.

    Undefined (raises) when either spectrum has zero diversity, e.g. for
    single-tag users.
    """
    x1 = _spectrum_vector(spec1, S)
    x2 = _spectrum_vector(spec2, S)
    d1 = float(x1 @ S.values @ x1)
    d2 = float(x2 @ S.values @ x2)
    if d1 <= 0.0 or d2 <= 0.0:
        raise ValueError(
            "pairwise distance is undefined when either diversity is zero"
        )
    return float(x1 @ S.values @ x2) / math.sqrt(d1 * d2)


def _spectrum_vector(spec: TagSpectrum, S: SineMatrix) -> np.ndarray:
    missing = sorted(t for t in spec.counts if t not in S._index)
    if missing:
        shown = ", ".join(str(t) for t in missing)
        raise ValueError(f"tags missing from the sine matrix: {shown}")
    x = np.zeros(len(S.members))
    for tid, count in spec.counts.items():
        x[S.index_of(tid)] = count
    return x


@dataclass(frozen=True)
class IslandActivity:
    """Activity of one user inside one island of the tag tree."""

    island_id: int
    p_sample: float
    p_user: float
    ratio: float | None
    color: tuple[int, int, int]


@dataclass(eq=False)
class ActivityReport:
    """One user's activity per tree node against the sample: p_sample and p_user
    are indexed by node, and node is the tree's island -> node map. nodes and
    the per-island records are views built on first access."""

    user: int | str
    p_sample: np.ndarray
    p_user: np.ndarray
    node: np.ndarray

    @cached_property
    def nodes(self) -> list[tuple[float, float, float | None, tuple[int, int, int]]]:
        """Each node's (p_sample, p_user, ratio, color)."""
        shares = zip(self.p_sample.tolist(), self.p_user.tolist())
        ratios = [(s, u, u / s if s > 0 else None) for s, u in shares]
        return [(s, u, r, activity_color(r)) for s, u, r in ratios]

    @cached_property
    def records(self) -> dict[int, IslandActivity]:
        return {k: IslandActivity(k, *self.nodes[j]) for k, j in enumerate(self.node.tolist())}


def island_activity(
    tree: IslandTree, user_spec: TagSpectrum, sample_spec: TagSpectrum
) -> ActivityReport:
    """Share of the sample's and of one user's attributions on each tree node.

    p_sample (p_user) is the share of the sample's (user's) tag attributions
    falling on the node's member tags; the ratio r = p_user / p_sample
    exceeds 1 exactly where the user over-uses the node's islands. Nodes with
    no sample mass get an undefined ratio. The report is per node; its records
    are the per-island view.
    """
    if tree.family != TAG:
        raise ValueError("island activity is defined over tag islands")
    if (s_total := sample_spec.total) <= 0:  # each total is a sum: read once
        raise ValueError("sample spectrum is empty")
    if (u_total := user_spec.total) <= 0:
        raise ValueError("user spectrum is empty")

    s, u = tree.node_sums(sample_spec.counts, user_spec.counts)
    return ActivityReport(user_spec.owner, s / s_total, u / u_total, tree.node)


def activity_color(ratio: float | None) -> tuple[int, int, int]:
    """Green-to-blue ramp on log2(ratio), clamped to +/-2; gray if undefined."""
    if ratio is None:
        return GRAY
    if ratio < 0:
        raise ValueError("activity ratio cannot be negative")
    if ratio == 0:
        t = -RATIO_LOG2_CLAMP
    else:
        t = max(-RATIO_LOG2_CLAMP, min(RATIO_LOG2_CLAMP, math.log2(ratio)))
    u = (t + RATIO_LOG2_CLAMP) / (2.0 * RATIO_LOG2_CLAMP)
    return (0, round(GREEN[1] * (1.0 - u)), round(BLUE[2] * u))
