"""Checks of tagnet's outputs against computations made apart from it.

Everything here is rebuilt from the benchmark's own triples with numpy,
scipy and integer arithmetic; nothing calls tagnet. A check returns a list
of Failure records; an empty list means the output passed.

Cosines are decided exactly. Users-via-items signatures are 0/1 vectors and
tags-via-items signatures are sums of 1/k with k in {1, 2, 3}, so scaled by
6 every signature is an integer vector and cos(a, b)^2 = dot^2 / (|a|^2 |b|^2)
is a ratio of integers. cos > phi is decided in floating point when the two
sides differ by more than FLOAT_MARGIN, and otherwise with Python integers
against the exact rational value of the float phi.
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

#: Relative margin below which the float comparison of cos^2 and phi^2 is
#: redone in integers; the float error is below 1e-15.
FLOAT_MARGIN = 1e-12
#: A characteristic element's row sum may fall short of the island's largest
#: row sum by this much per island member (float sums of float cosines).
CHAR_TOL = 1e-9
#: Relative tolerance of entropy, diversity, distance, cosine and island
#: activity. The program's sine sqrt(1 - C^2) of a pair with exact C = 1 can
#: read up to about 3e-8 instead of 0, which this absorbs.
REL_TOL = 1e-6
#: Smallest pair agreement with the planted tag communities that some level
#: of the tag tree must reach.
RECOVERY_THRESHOLD = 0.9
#: The CLI's default filter grid: phi_t = PHI_START + t * PHI_STEP.
PHI_START = 0.0
PHI_STEP = 0.05

TIE_FAULT = "tie-fault"
TIE_FAULT_TEXT = (
    "correlation_matrix rounds cosines, so build_tree links pairs whose exact "
    "cosine equals phi (the filter is strict C > phi)"
)

_NODE = re.compile(r'  n(\d+) \[label="((?:[^"\\]|\\.)*)", width=([0-9.]+), height=([0-9.]+)')
_EDGE = re.compile(r"  n(\d+) -> n(\d+);")


@dataclass(frozen=True)
class Failure:
    kind: str
    level: int | None
    message: str

    def __str__(self) -> str:
        where = "" if self.level is None else f" level {self.level}"
        return f"[{self.kind}{where}] {self.message}"


def tie_fault_summary(failures: list[Failure], levels: list[float]) -> str:
    affected = sorted({f.level for f in failures if f.kind == TIE_FAULT})
    shown = ", ".join(f"{t} (phi={levels[t]:.2f})" for t in affected)
    return f"{TIE_FAULT}: {TIE_FAULT_TEXT}; affected levels: {shown}"


class Reference:
    """Integer incidence matrices of a corpus, indexed by first-seen name.

    own: users x items, 1 per owned pair. weights6: items x tags, 6/k summed
    over the users of each pair. counts: users x tags, one per attribution.
    """

    def __init__(self, pairs) -> None:
        self.users: dict[str, int] = {}
        self.items: dict[str, int] = {}
        self.tags: dict[str, int] = {}
        own_r, own_c, w_r, w_c, w_v, x_r, x_c = [], [], [], [], [], [], []
        for user, item, tags in pairs:
            u = self.users.setdefault(user, len(self.users))
            i = self.items.setdefault(item, len(self.items))
            own_r.append(u)
            own_c.append(i)
            for tag in tags:
                t = self.tags.setdefault(tag, len(self.tags))
                w_r.append(i)
                w_c.append(t)
                w_v.append(6 // len(tags))
                x_r.append(u)
                x_c.append(t)
        nu, ni, nt = len(self.users), len(self.items), len(self.tags)
        self.own = _int_csr(own_r, own_c, np.ones(len(own_r), np.int64), (nu, ni))
        self.weights6 = _int_csr(w_r, w_c, np.array(w_v, np.int64), (ni, nt))
        self.counts = _int_csr(x_r, x_c, np.ones(len(x_r), np.int64), (nu, nt))

    def signatures(self, family: str, names: list[str]) -> sp.csr_matrix:
        """Integer signature rows of the named members (users or tags)."""
        if family == "user":
            return self.own[[self.users[n] for n in names]]
        return self.weights6.T.tocsr()[[self.tags[n] for n in names]]

    def tag_sine(self, tag_ids: list[int]) -> np.ndarray:
        """sqrt(1 - C^2) over the given tags, from exact integer cosines."""
        a = self.weights6[:, tag_ids]
        dots = (a.T @ a).toarray()
        norms = np.diag(dots)
        if int(norms.max()) ** 2 >= 2**62:
            raise OverflowError("tag signatures too heavy for int64 sines")
        outer = np.outer(norms, norms)
        return np.sqrt((outer - dots * dots) / outer)


class Gram:
    """Exact pairwise overlaps of integer signature rows.

    pairs (r < c) are the member pairs with a positive dot product; cos is
    their float cosine, used for row sums only.
    """

    def __init__(self, rows: sp.csr_matrix, names: list[str]) -> None:
        self.names = names
        self.n = len(names)
        self.norm2 = np.asarray(rows.multiply(rows).sum(axis=1), np.int64).ravel()
        grid = sp.triu(rows @ rows.T, 1).tocoo()
        keep = grid.data > 0
        self.r = grid.row[keep].astype(np.int64)
        self.c = grid.col[keep].astype(np.int64)
        self.dot = grid.data[keep].astype(np.int64)
        na = self.norm2[self.r].astype(float)
        nb = self.norm2[self.c].astype(float)
        self.lhs = self.dot.astype(float) ** 2
        self.den = na * nb
        self.cos = self.dot / np.sqrt(self.den)

    def above(self, phi: float, or_equal: bool = False) -> np.ndarray:
        """Mask of pairs with cos > phi (cos >= phi with or_equal), exact."""
        rhs = (phi * phi) * self.den
        diff = self.lhs - rhs
        result = diff > 0
        close = np.flatnonzero(np.abs(diff) <= FLOAT_MARGIN * np.maximum(rhs, self.lhs))
        if close.size:
            f = Fraction(phi)
            p2, q2 = f.numerator**2, f.denominator**2
            for k in close.tolist():
                lhs = int(self.dot[k]) ** 2 * q2
                rhs_k = p2 * int(self.norm2[self.r[k]]) * int(self.norm2[self.c[k]])
                result[k] = lhs > rhs_k or (or_equal and lhs == rhs_k)
        return result

    def labels(self, mask: np.ndarray) -> np.ndarray:
        graph = sp.coo_matrix(
            (np.ones(int(mask.sum()), np.int8), (self.r[mask], self.c[mask])),
            shape=(self.n, self.n),
        )
        return connected_components(graph, directed=False)[1]

    def row_sums(self, labels: np.ndarray) -> np.ndarray:
        """Sum over j in i's island of C_ij, diagonal included."""
        same = labels[self.r] == labels[self.c]
        w = self.cos[same]
        sums = np.bincount(self.r[same], weights=w, minlength=self.n)
        sums += np.bincount(self.c[same], weights=w, minlength=self.n)
        return sums + (self.norm2 > 0)


def _int_csr(rows, cols, data, shape) -> sp.csr_matrix:
    m = sp.coo_matrix((data, (rows, cols)), shape=shape, dtype=np.int64).tocsr()
    m.sum_duplicates()
    return m


def _refines(a: np.ndarray, b: np.ndarray) -> bool:
    """Every class of labelling a lies inside one class of labelling b."""
    codes = a.astype(np.int64) * (int(b.max()) + 1) + b
    return np.unique(codes).size == np.unique(a).size


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    return _refines(a, b) and _refines(b, a)


def pair_agreement(a: np.ndarray, b: np.ndarray) -> float:
    """Share of element pairs that labellings a and b treat alike."""
    def together(codes):
        _, sizes = np.unique(codes, return_counts=True)
        return int((sizes * (sizes - 1) // 2).sum())

    n = a.size
    total = n * (n - 1) // 2
    joint = a.astype(np.int64) * (int(b.max()) + 1) + b
    disagree = together(a) + together(b) - 2 * together(joint)
    return (total - disagree) / total if total else 1.0


def check_tree(doc: dict, dot_text: str | None, gram: Gram) -> list[Failure]:
    """Check an island tree (the writer's JSON document) against exact
    components of {cos > phi} at each level."""
    fails: list[Failure] = []
    index = {name: k for k, name in enumerate(gram.names)}
    islands = doc["islands"]
    by_id = {isl["id"]: isl for isl in islands}
    levels = doc["levels"]
    root = by_id.get(doc["root"])
    if root is None or root["level"] != -1 or root["parent"] is not None:
        return [Failure("structure", None, "root island missing or malformed")]
    if sorted(root["members"]) != sorted(gram.names):
        return [Failure("structure", None, "root members are not the family")]

    expected_levels = [PHI_START + t * PHI_STEP for t in range(len(levels))]
    if levels != expected_levels:
        fails.append(Failure("levels", None, f"levels {levels} are not the grid"))

    by_level: dict[int, list[dict]] = {}
    for isl in islands:
        by_level.setdefault(isl["level"], []).append(isl)
    level_labels: dict[int, np.ndarray] = {-1: np.zeros(gram.n, np.int64)}
    for t in range(len(levels)):
        at = by_level.get(t, [])
        labels = np.full(gram.n, -1, np.int64)
        covered = 0
        for k, isl in enumerate(at):
            idx = [index[m] for m in isl["members"] if m in index]
            if len(idx) != len(isl["members"]) or isl["size"] != len(idx):
                fails.append(Failure("partition", t, f"island {isl['id']} lists unknown members or a wrong size"))
            if isl["singleton"] != (len(idx) == 1) or isl["phi"] != levels[t]:
                fails.append(Failure("partition", t, f"island {isl['id']} has a wrong singleton flag or phi"))
            labels[idx] = k
            covered += len(idx)
        if covered != gram.n or (labels < 0).any():
            fails.append(Failure("partition", t, "islands do not partition the members"))
            continue
        level_labels[t] = labels

        exact = gram.labels(gram.above(levels[t]))
        if not _same_partition(labels, exact):
            with_ties = gram.labels(gram.above(levels[t], or_equal=True))
            if _refines(exact, labels) and _refines(labels, with_ties):
                n_exact, n_prog = np.unique(exact).size, np.unique(labels).size
                fails.append(Failure(TIE_FAULT, t, f"{n_prog} islands, {n_exact} exact"))
            else:
                fails.append(Failure("components", t, "islands differ from the exact components of {cos > phi}"))

    singles = [t for t, lab in level_labels.items() if t >= 0 and np.unique(lab).size == gram.n]
    last = len(levels) - 1
    stops = PHI_START + len(levels) * PHI_STEP >= 1.0
    if singles != ([last] if last in singles else []) or not (singles or stops):
        fails.append(Failure("levels", None, "sweep does not stop at the first all-singleton level"))

    for isl in islands:
        parent = by_id.get(isl["parent"]) if isl["parent"] is not None else None
        if isl is root:
            continue
        if parent is None or parent["level"] != isl["level"] - 1:
            fails.append(Failure("parent", isl["level"], f"island {isl['id']} has no parent one level up"))
        elif not set(isl["members"]) <= set(parent["members"]):
            fails.append(Failure("parent", isl["level"], f"island {isl['id']} is not inside its parent"))

    for t, labels in level_labels.items():
        sums = gram.row_sums(labels)
        best = np.full(labels.max() + 1, -np.inf)
        np.maximum.at(best, labels, sums)
        for isl in by_level[t]:
            k = index.get(isl["characteristic"])
            if k is None or isl["characteristic"] not in isl["members"]:
                fails.append(Failure("characteristic", t, f"island {isl['id']}: characteristic is not a member"))
            elif sums[k] < best[labels[k]] - CHAR_TOL * isl["size"]:
                fails.append(Failure(
                    "characteristic", t,
                    f"island {isl['id']}: {isl['characteristic']} sums {sums[k]:.12g}, best {best[labels[k]]:.12g}",
                ))

    if dot_text is not None:
        fails.extend(_check_dot(doc, dot_text))
    return fails


def _check_dot(doc: dict, dot_text: str) -> list[Failure]:
    """The DOT file draws the root and every non-singleton island of the JSON,
    labelled by its characteristic, sized by sqrt(size), with parent edges."""
    islands = {isl["id"]: isl for isl in doc["islands"]}
    nodes, edges = {}, set()
    for line in dot_text.splitlines():
        if m := _NODE.match(line):
            label = re.sub(r"\\(.)", r"\1", m.group(2))
            nodes[int(m.group(1))] = (label, float(m.group(3)), float(m.group(4)))
        elif m := _EDGE.fullmatch(line):
            edges.add((int(m.group(1)), int(m.group(2))))
    drawn = {i for i, isl in islands.items() if isl["level"] == -1 or not isl["singleton"]}
    if set(nodes) != drawn:
        return [Failure("dot", None, "DOT nodes differ from the JSON's drawn islands")]
    fails = []
    root = islands[doc["root"]]
    scale = nodes[root["id"]][1] / math.sqrt(root["size"])
    for i, (label, width, height) in nodes.items():
        isl = islands[i]
        if label != isl["characteristic"]:
            fails.append(Failure("dot", isl["level"], f"node {i} label {label!r} is not its characteristic"))
        if width != height or abs(width - scale * math.sqrt(isl["size"])) > 0.0015:
            fails.append(Failure("dot", isl["level"], f"node {i} size does not follow its member count"))
    want = {(isl["parent"], i) for i, isl in islands.items() if i in drawn and isl["parent"] in drawn}
    if edges != want:
        fails.append(Failure("dot", None, f"{len(edges ^ want)} DOT edges differ from the JSON's parents"))
    return fails


def best_recovery(doc: dict, names: list[str], truth: dict[str, int]) -> float:
    """Largest pair agreement between a tree level and the planted communities."""
    planted = np.array([truth[n] for n in names], np.int64)
    return max(pair_agreement(_labels_at(doc, names, t)[1], planted) for t in range(len(doc["levels"])))


def check_recovery(doc: dict, names: list[str], truth: dict[str, int]) -> list[Failure]:
    score = best_recovery(doc, names, truth)
    if score < RECOVERY_THRESHOLD:
        return [Failure("recovery", None, f"best pair agreement {score:.4f} < {RECOVERY_THRESHOLD}")]
    return []


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _expected_user(ref: Reference, user: str, partner: str, sample_doc: dict) -> dict:
    u, v = ref.users[user], ref.users[partner]
    x_u = ref.counts[u].toarray().ravel().astype(float)
    x_v = ref.counts[v].toarray().ravel().astype(float)
    own = np.flatnonzero(x_u).tolist()
    p = x_u[own] / x_u.sum()
    diversity = float(x_u[own] @ ref.tag_sine(own) @ x_u[own])

    union = sorted(set(own) | set(np.flatnonzero(x_v).tolist()))
    sine = ref.tag_sine(union)
    a, b = x_u[union], x_v[union]
    d1, d2 = float(a @ sine @ a), float(b @ sine @ b)
    distance = float(a @ sine @ b) / math.sqrt(d1 * d2) if d1 > 0 and d2 > 0 else None

    ou, ov = ref.own[u], ref.own[v]
    cosine = ou.multiply(ov).sum() / math.sqrt(ou.sum() * ov.sum())

    sample = np.asarray(ref.counts.sum(axis=0)).ravel().astype(float)
    activity = {}
    for isl in sample_doc["islands"]:
        ids = [ref.tags[m] for m in isl["members"]]
        activity[isl["id"]] = (sample[ids].sum() / sample.sum(), x_u[ids].sum() / x_u.sum())
    return {
        "entropy": float(-(p * np.log(p)).sum()),
        "diversity": diversity,
        "distance": distance,
        "cosine": float(cosine),
        "activity": activity,
    }


def check_diversity(ref: Reference, results: list[dict], partner: str, sample_doc: dict) -> list[Failure]:
    """Check each scored user; results hold user, entropy, diversity,
    distance (None when the program found it undefined), cosine and
    activity {island id: (p_sample, p_user)}."""
    fails = []
    levels = len(sample_doc["levels"])
    root_id = sample_doc["root"]
    for res in results:
        want = _expected_user(ref, res["user"], partner, sample_doc)
        for key in ("entropy", "diversity", "cosine"):
            if not _close(res[key], want[key]):
                fails.append(Failure(key, None, f"{res['user']}: {key} {res[key]!r}, expected {want[key]!r}"))
        if (res["distance"] is None) != (want["distance"] is None) or (
            want["distance"] is not None and not _close(res["distance"], want["distance"])
        ):
            fails.append(Failure("distance", None, f"{res['user']}: distance {res['distance']!r}, expected {want['distance']!r}"))
        if set(res["activity"]) != set(want["activity"]):
            fails.append(Failure("activity", None, f"{res['user']}: report does not cover the tree"))
            continue
        for i, (ps, pu) in res["activity"].items():
            ws, wu = want["activity"][i]
            if not (_close(ps, ws) and _close(pu, wu)):
                fails.append(Failure("activity", None, f"{res['user']}: island {i} ({ps!r}, {pu!r}), expected ({ws!r}, {wu!r})"))
        root = res["activity"][root_id]
        for t in range(levels):
            at = [res["activity"][isl["id"]] for isl in sample_doc["islands"] if isl["level"] == t]
            total = (sum(s for s, _ in at), sum(u for _, u in at))
            if not (_close(total[0], root[0]) and _close(total[1], root[1])):
                fails.append(Failure("activity-sum", t, f"{res['user']}: level masses {total} differ from the root's {root}"))
    return fails


def check_top_n(ref: Reference, doc: dict, n: int) -> list[Failure]:
    """The sample tree's members are n tags of largest attribution count."""
    usage = np.asarray(ref.counts.sum(axis=0)).ravel()
    members = {ref.tags[m] for m in doc["islands"][0]["members"]}
    rest = [usage[t] for t in range(usage.size) if t not in members]
    if len(members) != min(n, usage.size) or (rest and min(usage[list(members)]) < max(rest)):
        return [Failure("top-n", None, "sample tree members are not the most used tags")]
    return []


def self_test_tree(doc: dict, dot_text: str | None, gram: Gram, baseline: list[Failure]) -> list[str]:
    """Feed the tree checks tampered outputs; return the tamperings missed.

    A tampering is caught when it produces a failure of the expected kind
    that the untampered output did not produce.
    """
    seen = {(f.kind, f.level) for f in baseline}

    def caught(tampered, kind):
        fails = check_tree(tampered, None, gram) if tampered is not None else []
        return any(f.kind == kind and (f.kind, f.level) not in seen for f in fails)

    missed = []
    if not caught(_merge_two_islands(doc, gram), "components"):
        missed.append("two islands merged")
    if not caught(_wrong_characteristic(doc, gram), "characteristic"):
        missed.append("wrong characteristic element")
    if dot_text is not None:
        relabelled = copy.deepcopy(doc)
        isl = next(i for i in relabelled["islands"] if i["level"] >= 0 and not i["singleton"])
        isl["characteristic"] = next(m for m in isl["members"] if m != isl["characteristic"])
        if not _check_dot(relabelled, dot_text):
            missed.append("DOT label differing from the JSON")
    return missed


def self_test_diversity(ref: Reference, results: list[dict], partner: str, sample_doc: dict) -> list[str]:
    """Feed the diversity check a perturbed diversity and a perturbed island
    activity; return the tamperings missed."""
    tampered = copy.deepcopy(results[:2])
    tampered[0]["diversity"] *= 1.0 + 1e-4
    root = sample_doc["root"]
    p_sample, p_user = tampered[1]["activity"][root]
    tampered[1]["activity"][root] = (p_sample, p_user * (1.0 + 1e-4) + 1e-4)
    kinds = {f.kind for f in check_diversity(ref, tampered, partner, sample_doc)}
    return [name for name, kind in (("perturbed diversity", "diversity"), ("perturbed island activity", "activity")) if kind not in kinds]


def _labels_at(doc: dict, names: list[str], t: int) -> tuple[list[dict], np.ndarray]:
    """Islands of level t and the island index of each named member."""
    index = {name: k for k, name in enumerate(names)}
    at = [isl for isl in doc["islands"] if isl["level"] == t]
    labels = np.zeros(len(names), np.int64)
    for k, isl in enumerate(at):
        labels[[index[m] for m in isl["members"]]] = k
    return at, labels


def _merge_two_islands(doc: dict, gram: Gram) -> dict | None:
    """Merge two islands of one level that no tie could join."""
    index = {name: k for k, name in enumerate(gram.names)}
    for t in reversed(range(len(doc["levels"]))):
        at, _ = _labels_at(doc, gram.names, t)
        ties = gram.labels(gram.above(doc["levels"][t], or_equal=True))
        for a in at:
            for b in at:
                if a["id"] < b["id"] and ties[index[a["members"][0]]] != ties[index[b["members"][0]]]:
                    out = copy.deepcopy(doc)
                    keep = next(i for i in out["islands"] if i["id"] == a["id"])
                    keep["members"] = sorted(a["members"] + b["members"])
                    keep["size"] += b["size"]
                    keep["singleton"] = False
                    out["islands"] = [i for i in out["islands"] if i["id"] != b["id"]]
                    for i in out["islands"]:
                        if i["parent"] == b["id"]:
                            i["parent"] = a["id"]
                    return out
    return None


def _wrong_characteristic(doc: dict, gram: Gram) -> dict | None:
    """Replace one island's characteristic by a clearly worse member."""
    index = {name: k for k, name in enumerate(gram.names)}
    for t in range(len(doc["levels"])):
        at, labels = _labels_at(doc, gram.names, t)
        sums = gram.row_sums(labels)
        for isl in at:
            best = sums[index[isl["characteristic"]]]
            worse = [m for m in isl["members"] if sums[index[m]] < best - 1e3 * CHAR_TOL * isl["size"]]
            if worse:
                out = copy.deepcopy(doc)
                next(i for i in out["islands"] if i["id"] == isl["id"])["characteristic"] = worse[0]
                return out
    return None
