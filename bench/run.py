"""Benchmark of tagnet end to end and per layer.

    python3 bench/run.py --workload tag-tree --seed 1 --seconds 20 --trace 0

Workloads:
  tag-tree        one op is `tagnet tree --family tags` over every tag of the
                  largest corpus; ingest dominates, the sweep is dense.
  user-tree       one op is `tagnet tree --family users` over every user of a
                  corpus with more users than the dense limit; the sweep
                  dominates and takes the sparse path.
  user-diversity  the corpus is loaded and the top-120 tag tree built once in
                  set-up; one op scores one user of a fixed sample the way
                  `tagnet diversity` and `tagnet compare` do.

The program runs in this process, on one thread. Set-up (import, corpus
generation and writing, and for user-diversity ingest and the sample tree)
is repeated SETUP_REPEATS times. Then whole units of work (one tree command,
or one pass over the user sample) run until the next one would end past
--seconds, at least one. Outputs are checked after peak RSS is read.

Times are reported in reference seconds: each stretch of a measured step
between two speed probes is scaled by PROBE_NOMINAL_S / (the probe time at
its end). The probe is a fixed interpreter-bound loop that a timer signal
runs every 0.1 s on the program's own core, so the core's speed drift
largely cancels out. The log also gives the raw times.

With --trace 0 the last stdout line reports wall_s (median unit), setup_s
(import plus the median set-up repetition) and peak_rss_mb; with --trace 1
it reports the per-layer metrics recorded by spans.Tracer. Logs go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
import types
from pathlib import Path

import corpus
import spans

# The measured process uses one thread for numeric kernels.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

SETUP_REPEATS = 5

#: Speed probe: every PROBE_INTERVAL_S while import, set-up and units run,
#: a SIGALRM handler times PROBE_PASSES passes over a 1,024-key dict.
PROBE_INTERVAL_S = 0.1
PROBE_PASSES = 10
#: Probe time taken as nominal: a step during which the probe took
#: PROBE_NOMINAL_S counts its wall seconds unchanged.
PROBE_NOMINAL_S = 0.001

#: tag-tree: the largest corpus, ~600 tags (below the dense limit of 4,096).
TAG_SPEC = dict(
    users=5000, communities=24, tags_per_community=25, items_per_community=150,
    min_library=5, max_library=600, library_alpha=1.5,
)
#: user-tree: 4,500 users (above the dense limit), many tiny libraries.
USER_SPEC = dict(
    users=4500, communities=20, tags_per_community=20, items_per_community=100,
    min_library=2, max_library=400, library_alpha=1.2,
)
#: The user-tree corpus does not depend on --seed: its operations fail on a
#: known fault, and the failed share must be the same in every run.
USER_TREE_SEED = 1
#: user-diversity: a smaller corpus of the tag-tree kind.
DIVERSITY_SPEC = dict(USER_SPEC, users=3000, communities=24, tags_per_community=25, items_per_community=150)
DIVERSITY_SAMPLE = 40
SAMPLE_TOP_N = 120

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("io.read_triples_s", "s"), ("io.read_triples_gc_s", "s"),
    ("io.gc_collections", "count"), ("io.lines", "count"), ("io.events", "count"),
    ("io.write_tree_s", "s"), ("io.tree_bytes", "bytes"),
    ("model.build_network_s", "s"), ("model.build_network_gc_s", "s"),
    ("model.gc_collections", "count"), ("model.pairs", "count"), ("model.links", "count"),
    ("projection.correlation_matrix_s", "s"), ("projection.calls", "count"),
    ("projection.cosine_s", "s"), ("projection.top_n_s", "s"),
    ("projection.members", "count"), ("projection.nnz", "count"),
    ("projection.values_mb", "MB"), ("projection.rss_mb", "MB"),
    ("percolation.build_tree_s", "s"), ("percolation.gc_s", "s"),
    ("percolation.levels", "count"), ("percolation.islands", "count"),
    ("percolation.edges", "count"), ("percolation.rss_mb", "MB"),
    ("diversity.tag_spectrum_s", "s"), ("diversity.sine_matrix_s", "s"),
    ("diversity.measure_s", "s"), ("diversity.island_activity_s", "s"),
    ("diversity.users", "count"),
    ("cli.self_s", "s"),
)


def log(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr, flush=True)


class SpeedProbe:
    """Samples the speed of the core the program runs on, while it runs.

    Every PROBE_INTERVAL_S a SIGALRM handler, which runs in the main thread
    between bytecodes, flips each value of a 1,024-key dict once, untimed,
    so that the program's use of the cache does not slow the timed part;
    then it times PROBE_PASSES more passes. The values flip between 0 and 1,
    so the probe allocates nothing and the program's heap does not change
    its time.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (enter, exit, probe time)
        self._keys = tuple(range(1024))
        self._table = dict.fromkeys(self._keys, 0)

    def sample(self, signum=None, frame=None) -> None:
        enter = time.perf_counter()
        table, keys = self._table, self._keys
        for key in keys:
            table[key] ^= 1
        start = time.perf_counter()
        for _ in range(PROBE_PASSES):
            for key in keys:
                table[key] ^= 1
        end = time.perf_counter()
        self.samples.append((enter, time.perf_counter(), end - start))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Timer:
    """Times steps. raw holds each step's duration in seconds, without the
    probe's time. scaled holds it in reference seconds: each stretch of the
    step up to a probe counts at that probe's speed, and the rest of the
    step at the last probe's (or, if no probe fell in the step, at one
    taken right after it)."""

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.speeds: list[float] = []

    def time(self, step):
        first = len(self.probe.samples)
        start = time.perf_counter()
        value = step()
        end = time.perf_counter()
        inside = [sample for sample in self.probe.samples[first:] if sample[0] < end]
        if not inside:
            self.probe.sample()
        scaled, resumed = 0.0, start
        for enter, left, took in inside:
            scaled += (enter - resumed) * PROBE_NOMINAL_S / took
            resumed = left
        last = self.probe.samples[-1][2]
        self.scaled.append(scaled + (end - resumed) * PROBE_NOMINAL_S / last)
        self.raw.append(end - start - sum(left - enter for enter, left, _ in inside))
        self.speeds.append(statistics.median(took for _, _, took in self.probe.samples[first:]))
        return value


class TreeWorkload:
    """One op runs `tagnet tree` on the corpus file, in this process."""

    def __init__(self, tagnet, family: str, spec: dict, seed: int, work: Path) -> None:
        self.tagnet = tagnet
        self.family = family
        self.spec = corpus.CorpusSpec(**spec)
        self.seed = seed
        self.input = work / "triples.tsv"
        self.out_json = work / "tree.json"
        self.out_dot = work / "tree.dot"
        members = self.spec.users if family == "users" else self.spec.communities * self.spec.tags_per_community
        self.argv = [
            "tree", "--input", str(self.input), "--family", family, "--top-n", str(members),
            "--out-json", str(self.out_json), "--out-dot", str(self.out_dot),
        ]
        self.codes: list[int] = []
        self.digests: list[str] = []

    def setup(self) -> None:
        generated = corpus.generate(self.spec, self.seed)
        generated.write(self.input)
        self.lines = generated.lines()

    def unit(self) -> None:
        self.codes.append(self.tagnet.cli.main(self.argv))

    def record(self) -> None:
        digest = hashlib.sha256()
        for path in (self.out_json, self.out_dot):
            digest.update(path.read_bytes() if path.exists() else b"")
        self.digests.append(digest.hexdigest())

    def ops(self) -> int:
        return len(self.codes)

    def check(self) -> tuple[int, bool]:
        """Returns (failed ops, correct)."""
        import checks

        log(f"corpus: {self.lines} lines, seed {self.seed}")
        bad_exit = sum(code != 0 for code in self.codes)
        if bad_exit:
            log(f"FAILED: {bad_exit} tree commands exited non-zero: {sorted(set(self.codes))}")
        if self.codes[-1] != 0:
            return self.ops(), False
        generated = corpus.generate(self.spec, self.seed)
        ref = checks.Reference(generated.pairs)
        kind = "user" if self.family == "users" else "tag"
        names = list(ref.users) if kind == "user" else list(ref.tags)
        gram = checks.Gram(ref.signatures(kind, names), names)
        doc = json.loads(self.out_json.read_text(encoding="utf-8"))
        dot = self.out_dot.read_text(encoding="utf-8")
        fails = checks.check_tree(doc, dot, gram)
        if kind == "tag":
            fails += checks.check_recovery(doc, names, generated.truth)
            log(f"planted recovery: best pair agreement {checks.best_recovery(doc, names, generated.truth):.4f}")
        missed = checks.self_test_tree(doc, dot, gram, fails)
        for name in missed:
            log(f"FAILED self-test: the checks missed a tampering: {name}")
        ties = [f for f in fails if f.kind == checks.TIE_FAULT]
        other = [f for f in fails if f.kind != checks.TIE_FAULT]
        if ties:
            log("FAILED (known fault) " + checks.tie_fault_summary(ties, doc["levels"]))
            for f in ties:
                log(f"  {f}")
        for f in other:
            log(f"FAILED {f}")
        log(f"tree: {len(doc['levels'])} levels, {len(doc['islands'])} islands, "
            f"{gram.r.size} overlapping pairs; checks: {len(fails)} failures "
            f"({len(ties)} tie-fault levels), self-test missed {len(missed)}")
        differing = sum(d != self.digests[-1] for d in self.digests)
        if differing:
            log(f"FAILED: {differing} ops wrote output differing from the checked one")
        if fails:
            return self.ops(), not other and not missed and not bad_exit
        failed = sum(c != 0 or d != self.digests[-1] for c, d in zip(self.codes, self.digests))
        return failed, not missed and not bad_exit


class DiversityWorkload:
    """Load once; one op scores one sampled user and compares them with a
    fixed partner, as `tagnet diversity` and `tagnet compare` do."""

    def __init__(self, tagnet, spec: dict, seed: int, work: Path) -> None:
        self.tagnet = tagnet
        self.spec = corpus.CorpusSpec(**spec)
        self.seed = seed
        self.input = work / "triples.tsv"
        self.passes: list[list[dict]] = []
        self.mismatched = 0

    def setup(self) -> None:
        tn = self.tagnet
        generated = corpus.generate(self.spec, self.seed)
        generated.write(self.input)
        self.lines = generated.lines()
        self.net = tn.model.build_network(tn.io.read_triples(self.input))
        self.sample_spec = tn.diversity.tag_spectrum(self.net)
        members = tn.projection.top_n(self.net, "tag", SAMPLE_TOP_N)
        matrix = tn.projection.correlation_matrix(self.net, "tag", members=members)
        self.tree = tn.percolation.build_tree(matrix, tn.percolation.FilterGrid())
        # Users ranked by library size; the sample is evenly spaced over the
        # ranks, so its library sizes are the same for every seed.
        sizes: dict[str, int] = {}
        for user, _, _ in generated.pairs:
            sizes[user] = sizes.get(user, 0) + 1
        ranked = sorted(sizes, key=lambda u: (-sizes[u], u))
        step = (len(ranked) - 1) / (DIVERSITY_SAMPLE - 1)
        self.sample = [ranked[round(k * step)] for k in range(DIVERSITY_SAMPLE)]
        self.partner = ranked[len(ranked) // 10]
        self.sample_ids = [self.net.users.id_of(u) for u in self.sample]
        self.partner_id = self.net.users.id_of(self.partner)

    def unit(self) -> None:
        net, P, D = self.net, self.tagnet.projection, self.tagnet.diversity
        results = []
        for name, uid in zip(self.sample, self.sample_ids):
            spec = D.tag_spectrum(net, uid)
            ent = D.entropy(spec)
            own = sorted(spec.counts)
            div = D.diversity(spec, D.sine_matrix(P.correlation_matrix(net, "tag", members=own)))
            report = D.island_activity(self.tree, spec, self.sample_spec)
            cos = P.cosine(P.user_item_signature(net, uid), P.user_item_signature(net, self.partner_id))
            partner_spec = D.tag_spectrum(net, self.partner_id)
            union = sorted(set(spec.counts) | set(partner_spec.counts))
            sine = D.sine_matrix(P.correlation_matrix(net, "tag", members=union))
            try:
                dist = D.pairwise_distance(spec, partner_spec, sine)
            except ValueError:
                dist = None
            results.append({"user": name, "entropy": ent, "diversity": div, "cosine": cos, "distance": dist, "report": report})
        self.passes.append(results)

    def record(self) -> None:
        results = self.passes[-1]
        for res in results:
            res["activity"] = {i: (r.p_sample, r.p_user) for i, r in res.pop("report").records.items()}
        if len(self.passes) > 1:
            self.mismatched += sum(a != b for a, b in zip(results, self.passes[0]))
            self.passes.pop()

    def ops(self) -> int:
        return self.units * DIVERSITY_SAMPLE

    def check(self) -> tuple[int, bool]:
        import checks

        log(f"corpus: {self.lines} lines, seed {self.seed}; sample of {DIVERSITY_SAMPLE} users, partner {self.partner}")
        generated = corpus.generate(self.spec, self.seed)
        ref = checks.Reference(generated.pairs)
        sample_json = self.input.with_name("sample_tree.json")
        self.tagnet.io.write_tree_json(self.tree, sample_json)
        doc = json.loads(sample_json.read_text(encoding="utf-8"))
        members = sorted(doc["islands"][0]["members"])
        gram = checks.Gram(ref.signatures("tag", members), members)
        tree_fails = checks.check_tree(doc, None, gram) + checks.check_top_n(ref, doc, SAMPLE_TOP_N)
        for f in tree_fails:
            log(f"FAILED sample tree {f}")
        first = self.passes[0]
        failing = 0
        for res in first:
            fails = checks.check_diversity(ref, [res], self.partner, doc)
            failing += bool(fails)
            for f in fails:
                log(f"FAILED {f}")
        undefined = [r["user"] for r in first if r["distance"] is None]
        if undefined:
            log(f"distance undefined (zero diversity, expected): {', '.join(undefined)}")
        missed = checks.self_test_tree(doc, None, gram, tree_fails)
        missed += checks.self_test_diversity(ref, first, self.partner, doc)
        for name in missed:
            log(f"FAILED self-test: the checks missed a tampering: {name}")
        if self.mismatched:
            log(f"FAILED: {self.mismatched} user scores differed between passes")
        log(f"checks: {failing} users failing, sample tree {len(tree_fails)} failures, self-test missed {len(missed)}")
        failed = failing * self.units + self.mismatched
        return failed, not failing and not tree_fails and not missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tag-tree", "user-tree", "user-diversity"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with SpeedProbe() as speed:
            imports = Timer(speed)
            tagnet = imports.time(import_tagnet)
            if tagnet is None:
                return 2
            if args.workload == "tag-tree":
                workload = TreeWorkload(tagnet, "tags", TAG_SPEC, args.seed, work)
            elif args.workload == "user-tree":
                workload = TreeWorkload(tagnet, "users", USER_SPEC, USER_TREE_SEED, work)
            else:
                workload = DiversityWorkload(tagnet, DIVERSITY_SPEC, args.seed, work)
            measured = measure(workload, args, imports, speed)
        result = report(workload, args, measured)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def import_tagnet():
    """tagnet's layer modules from src/ next to this directory, or None."""
    sys.path.insert(0, str(SRC))
    try:
        # Modules by name: the package namespace rebinds some module names
        # (tagnet.diversity is also a function).
        tagnet = types.SimpleNamespace(
            **{layer: importlib.import_module(f"tagnet.{layer}") for layer in spans.LAYERS}
        )
    except ImportError as exc:
        log(f"cannot import tagnet from {SRC}: {exc}")
        return None
    if SRC not in Path(tagnet.cli.__file__).resolve().parents:
        log(f"tagnet was imported from {tagnet.cli.__file__}, not from {SRC}")
        return None
    return tagnet


def measure(workload, args, imports: Timer, speed: SpeedProbe) -> dict:
    """Runs the set-up repetitions and the timed units; reads peak RSS."""
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setup = Timer(speed)
    for _ in range(SETUP_REPEATS):
        gc.collect()
        if tracer:
            tracer.begin("setup")
        setup.time(workload.setup)

    units = Timer(speed)
    loop_start = time.perf_counter()
    while True:
        gc.collect()
        if tracer:
            tracer.begin("unit")
        units.time(workload.unit)
        workload.record()
        if time.perf_counter() - loop_start + statistics.median(units.raw) > args.seconds:
            break
    peak_rss_mb = spans.rss_mb()
    if tracer:
        tracer.uninstall()
    workload.units = len(units.raw)
    return {
        "wall_s": statistics.median(units.scaled),
        "setup_s": imports.scaled[0] + statistics.median(setup.scaled),
        "peak_rss_mb": peak_rss_mb,
        "imports": imports, "setup": setup, "units": units, "tracer": tracer,
    }


def report(workload, args, measured: dict) -> dict:
    """Logs the timings, runs the checks and builds the result line."""
    imports, setup, units, tracer = (measured[k] for k in ("imports", "setup", "units", "tracer"))
    probe_ms = statistics.median(imports.speeds + setup.speeds + units.speeds) * 1e3
    log(f"{args.workload} seed {workload.seed} trace {args.trace}: {len(units.raw)} units, "
        f"wall_s {measured['wall_s']:.4f} (raw median {statistics.median(units.raw):.4f}, "
        f"min {min(units.raw):.4f}, max {max(units.raw):.4f}), "
        f"setup_s {measured['setup_s']:.4f} (raw: import {imports.raw[0]:.4f}, repeats "
        f"{', '.join(f'{r:.4f}' for r in setup.raw)}), probe median {probe_ms:.3f} ms, "
        f"peak_rss_mb {measured['peak_rss_mb']:.1f}")
    failed, correct = workload.check()
    if tracer:
        metrics = tracer.metrics(name for name, _ in PER_LAYER)
        values = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}
        raw_wall = statistics.median(units.raw)
        log(f"traced raw wall_s {raw_wall:.4f}; cli.self_s is {100 * metrics['cli.self_s'] / raw_wall:.2f}% of it")
    else:
        values = {name: {"value": measured[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": correct, "attempted": workload.ops(), "failed": failed, "metrics": values}


if __name__ == "__main__":
    sys.exit(main())
