"""Per-layer spans around tagnet's public functions, recorded from outside.

Tracer.install wraps every public function of the layer modules and points
every tagnet module attribute that held the original at the wrapper. A call
opens a span unless a span of the same layer is already innermost, so a
layer's internal calls stay inside its span. A span's time is its self time:
its duration minus the spans of other layers nested in it. A gc.callbacks
hook charges each collection pause to the innermost open span.

Counts (pairs, matrix sizes, islands, bytes written) are taken after a span
closes; the time they take is excluded from the enclosing span's self time.
Values accumulate in buckets, one per set-up repetition or timed unit.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import inspect
import os
import resource
import statistics
import sys
import time

PACKAGE = "tagnet"
LAYERS = ("cli", "io", "model", "projection", "percolation", "diversity")

#: layer -> {function name: span name}; other functions span under their own
#: name. cli.main's span is the CLI's self time.
SPAN_OF = {
    "cli": {"main": "self"},
    "io": {"write_tree_json": "write_tree", "write_tree_dot": "write_tree"},
    "projection": {
        "user_item_signature": "cosine",
        "item_user_signature": "cosine",
        "item_tag_signature": "cosine",
        "tag_item_signature": "cosine",
        "signature_for_view": "cosine",
    },
    "percolation": {},
    "model": {},
    "diversity": {"entropy": "measure", "diversity": "measure", "pairwise_distance": "measure"},
}

#: Metrics kept as a high-water mark instead of a sum.
HIGH_WATER = {"projection.rss_mb", "percolation.rss_mb"}


def rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [layer, span, start, nested seconds]
        self.buckets: list[tuple[str, dict[str, float]]] = []
        self.bucket: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start: float | None = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[fn] = self._wrap(layer, name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrappers[value])
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for module, name, value in reversed(self._patched):
            setattr(module, name, value)
        self._patched.clear()
        gc.callbacks.remove(self._on_gc)

    # -- buckets ------------------------------------------------------------

    def begin(self, phase: str) -> None:
        """Start a bucket: phase is 'setup' or 'unit'."""
        self.bucket = {}
        self.buckets.append((phase, self.bucket))

    def add(self, key: str, value: float) -> None:
        if key in HIGH_WATER:
            self.bucket[key] = max(self.bucket.get(key, 0.0), value)
        else:
            self.bucket[key] = self.bucket.get(key, 0) + value

    def metrics(self, names) -> dict[str, float]:
        """Median per timed unit of each metric; a metric no unit recorded is
        the median per set-up repetition (0 if never recorded)."""
        out = {}
        for name in names:
            phase = "unit"
            if not any(p == "unit" and name in b for p, b in self.buckets):
                phase = "setup"
            values = [b.get(name, 0) for p, b in self.buckets if p == phase]
            out[name] = statistics.median(values) if values else 0
        return out

    # -- spans --------------------------------------------------------------

    def _open(self, layer: str, span: str) -> None:
        self.stack.append([layer, span, time.perf_counter(), 0.0])

    def _close(self) -> None:
        layer, span, start, nested = self.stack.pop()
        duration = time.perf_counter() - start
        self.add(f"{layer}.{span}_s", duration - nested)
        if self.stack:
            self.stack[-1][3] += duration

    @contextlib.contextmanager
    def _untimed(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            if self.stack:
                self.stack[-1][3] += time.perf_counter() - start

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        if self._gc_start is None or not self.stack:
            return
        pause = time.perf_counter() - self._gc_start
        layer, span = self.stack[-1][:2]
        self.add(f"{layer}.{span}_gc_s", pause)
        self.add(f"{layer}.gc_s", pause)
        self.add(f"{layer}.gc_collections", 1)

    def _wrap(self, layer: str, name: str, fn):
        span = SPAN_OF[layer].get(name, name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                return self._iterate(layer, span, fn(*args, **kwargs), args)
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.stack and self.stack[-1][0] == layer:
                return fn(*args, **kwargs)
            self._open(layer, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            with self._untimed():
                self._count(layer, name, args, result)
            return result
        return wrapper

    def _iterate(self, layer: str, span: str, it, args):
        """Re-yield a generator's items, each step inside a span."""
        events = 0
        while True:
            self._open(layer, span)
            try:
                item = next(it)
            except StopIteration:
                break
            finally:
                self._close()
            events += 1
            yield item
        with self._untimed():
            self.add(f"{layer}.events", events)
            with open(args[0], "rb") as fh:
                self.add(f"{layer}.lines", sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")))

    def _count(self, layer: str, name: str, args, result) -> None:
        if layer == "io" and name.startswith("write_tree"):
            self.add("io.tree_bytes", os.path.getsize(args[1]))
        elif layer == "model" and name == "build_network":
            self.add("model.pairs", len(result.ownership))
            self.add("model.links", sum(len(tags) for _, _, tags in result.iter_pairs()))
        elif layer == "projection" and name == "correlation_matrix":
            values = result.values
            if result.is_dense:
                nnz, nbytes = int((values != 0).sum()), values.nbytes
            else:
                nnz = values.nnz
                nbytes = values.data.nbytes + values.indices.nbytes + values.indptr.nbytes
            self.add("projection.calls", 1)
            self.add("projection.members", result.size)
            self.add("projection.nnz", nnz)
            self.add("projection.values_mb", nbytes / 2**20)
            self.add("projection.rss_mb", rss_mb())
        elif layer == "percolation" and name == "build_tree":
            matrix, phi = args[0], result.levels[0]
            stored = matrix.values if matrix.is_dense else matrix.values.data
            above = int((stored > phi).sum()) - int((matrix.values.diagonal() > phi).sum())
            self.add("percolation.levels", len(result.levels))
            self.add("percolation.islands", len(result.islands))
            self.add("percolation.edges", above // 2)
            self.add("percolation.rss_mb", rss_mb())
        elif layer == "diversity" and name == "entropy":
            self.add("diversity.users", 1)
