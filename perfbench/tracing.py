"""Span tracing from outside the program: wrappers around public layer calls.

The benchmark never edits ``src/``.  Instead, :class:`Tracer` swaps a timing
wrapper in for each public entry point listed in :data:`LAYER_CALLS` (a class
attribute or a module function), records one span per call, and puts the
originals back on exit.  A span is ``(layer, start, end, parent, items)``:
``parent`` is the index of the enclosing span (``-1`` for none) and ``items``
is how many units of work the call covered (query rows of a batch search,
members of a routed batch; 1 otherwise).

Self time is a span's duration minus its direct children's durations, so the
self times of every span in a tree add up to the root's duration exactly; the
root's own self time is the time no layer accounts for (``unattributed``).
"""

from __future__ import annotations

import bisect
import importlib
import time
from contextlib import contextmanager

# (module, owner attribute or None for a module function, callable, layer).
# Layers follow the package layout of ``src/repro``; the two vectorstore
# rows are split so that a K-Means fit nested in a search counts once.
LAYER_CALLS = [
    ("repro.runtime.loop", "EventLoop", "step", "runtime"),
    ("repro.pipeline.core", "ICCachePipeline", "decide_batch", "pipeline"),
    ("repro.pipeline.core", "ICCachePipeline", "complete", "pipeline"),
    ("repro.pipeline.core", "ICCachePipeline", "on_complete", "pipeline"),
    ("repro.embedding.embedder", "LatentEmbedder", "embed", "embedding"),
    ("repro.core.cache", "ExampleCache", "search", "vectorstore.search"),
    ("repro.core.cache", "ExampleCache", "search_batch", "vectorstore.search"),
    ("repro.core.cache", "ExampleCache", "nearest_similarity", "manager.dedupe"),
    ("repro.vectorstore.kmeans", "KMeans", "fit", "vectorstore.retrain"),
    ("repro.core.proxy", "HelpfulnessProxy", "score_batch", "selector.stage2"),
    ("repro.core.selector", "ExampleSelector", "select", "selector.combine"),
    ("repro.core.selector", "ExampleSelector", "select_batch", "selector.combine"),
    ("repro.core.router", "BanditRouter", "route", "router"),
    ("repro.llm.model", "SimulatedLLM", "generate", "llm"),
    ("repro.pipeline.middleware", "LearningHook", "after_complete", "learn"),
    ("repro.core.manager", "ExampleManager", "admit", "manager.admit"),
    ("repro.core.manager", "ExampleManager", "enforce_capacity", "manager.evict"),
    ("repro.core.manager", "ExampleManager", "run_replay", "manager.replay"),
    ("repro.core.service", "ICCacheService", "run_maintenance",
     "manager.maintenance"),
    ("repro.persistence.wal", "WriteAheadLog", "record", "persistence.wal"),
    ("repro.persistence.wal", "Checkpointer", "checkpoint",
     "persistence.checkpoint"),
    ("repro.gateway.session", "GatewaySession", "submit", "gateway.session"),
    ("repro.gateway.session", "GatewaySession", "run_until_complete",
     "gateway.session"),
    # The gateway app imports its codec functions by name, so they are
    # wrapped in the app's namespace, where the request handler looks them up.
    ("repro.gateway.app", None, "request_from_payload", "gateway.codec"),
    ("repro.gateway.app", None, "record_to_payload", "gateway.codec"),
]

ROOT = "root"


def _items(name: str, args: tuple, result) -> int:
    """Units of work one call covered (rows of a batch; 1 otherwise)."""
    if name == "search_batch":
        return len(args[1])
    if name in ("select", "select_batch"):
        # Examples chosen: ``select`` returns one combination, the batch
        # form a list of them.
        return len(result) if name == "select" else sum(len(c) for c in result)
    if name == "enforce_capacity":
        return int(result)                   # examples evicted
    if name == "admit":
        return int(result is not None)       # admitted, not a duplicate
    return 1


class Tracer:
    """Records spans for the wrapped layer calls while installed.

    Use as ``with tracer.installed(): ...``; :meth:`root` opens the span that
    the whole measured phase nests in.  Spans stay in memory until the caller
    writes them out.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, layer: str, start: float, items: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (layer, start, end, parent, items)

    @contextmanager
    def span(self, layer: str):
        """A span opened by the benchmark itself (root, client requests)."""
        idx = self._open(layer)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, layer, start, 1)

    def root(self):
        return self.span(ROOT)

    def _wrapper(self, original, name: str, layer: str):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = tracer._open(layer)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(idx, layer, start, 0)
                raise
            tracer._close(idx, layer, start, _items(name, args, result))
            return result

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def installed(self):
        """Wrap every call in :data:`LAYER_CALLS`; restore them on exit."""
        restore = []
        try:
            for module_name, owner_name, name, layer in LAYER_CALLS:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module,
                                                                  owner_name)
                original = owner.__dict__[name]
                restore.append((owner, name, original))
                setattr(owner, name, self._wrapper(original, name, layer))
            yield self
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)


def merge_process_spans(outer: list, inner: list) -> list:
    """Graft another process's spans into ``outer`` by time containment.

    ``time.perf_counter`` reads the system-wide monotonic clock on Linux, so
    a server process's spans line up with the client's.  Each top-level
    inner span becomes a child of the innermost outer span that contains it;
    inner spans outside every outer span (set-up work) are dropped together
    with their descendants.
    """
    merged = list(outer)
    # Outer spans nest properly, so every outer span containing an interval
    # is an ancestor of the latest-starting outer span that starts before
    # it: find that one by bisection and walk up its parents.
    ordered = sorted(range(len(outer)), key=lambda i: outer[i][1])
    starts = [outer[i][1] for i in ordered]
    remap: dict[int, int] = {}
    for idx, (layer, start, end, parent, items) in enumerate(inner):
        if parent >= 0:
            if parent not in remap:
                continue
            new_parent = remap[parent]
        else:
            pos = bisect.bisect_right(starts, start) - 1
            new_parent = ordered[pos] if pos >= 0 else -1
            while new_parent >= 0 and outer[new_parent][2] < end:
                new_parent = outer[new_parent][3]
            if new_parent < 0:
                continue
        remap[idx] = len(merged)
        merged.append((layer, start, end, new_parent, items))
    return merged


def layer_table(spans: list) -> dict:
    """Per layer: calls, items, self seconds, inclusive seconds, max call.

    The root's self time appears under :data:`ROOT`.  Sum of ``self_s`` over
    all layers equals the root's duration (up to float rounding).
    """
    child_s = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    table: dict[str, dict] = {}
    for idx, (layer, start, end, _parent, items) in enumerate(spans):
        row = table.setdefault(layer, {"calls": 0, "items": 0, "self_s": 0.0,
                                       "total_s": 0.0, "max_s": 0.0})
        duration = end - start
        row["calls"] += 1
        row["items"] += items
        row["self_s"] += duration - child_s[idx]
        row["total_s"] += duration
        row["max_s"] = max(row["max_s"], duration)
    return table
