"""Spans recorded from outside the program, at each layer's public entry points.

The program under test is not edited: :func:`install` replaces the
entry points named in :data:`ENTRY_POINTS` with timing wrappers, at
class or module level, before the program builds its objects. A span is
``(name, start_ns, end_ns, parent, thread, owner, n)``; the parent is
the span that was open on the same thread when this one started, so a
request's spans nest under its ``GatewayCore.dispatch_request`` span
(everything below the edge runs synchronously on one executor thread).
Spans stay in memory until :meth:`Recorder.dump`.

Self time is a span's duration minus the part of it that its child
spans cover; children may overlap (a hedged attempt, a thread pool), so
the covered part is the union of the child intervals, not their sum.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# name, start_ns, end_ns, parent index (-1 = root), thread id,
# id() of the bound instance (0 for functions), size of the result
Span = Tuple[str, int, int, int, int, int, int]

#: (module, owner class or None, attribute, span name). The span name's
#: prefix is the layer (a module of this repository).
ENTRY_POINTS: Sequence[Tuple[str, Optional[str], str, str]] = (
    ("repro.graph.bipartite", None, "build_query_item_graph", "graph.bipartite"),
    ("repro.graph.entity_graph", "EntityGraphBuilder", "build", "graph.entity_graph"),
    ("repro.text.word2vec", "Word2Vec", "fit", "text.word2vec"),
    ("repro.clustering.parallel_hac", "ParallelHAC", "fit", "clustering.hac"),
    ("repro.core.taxonomy", "Taxonomy", "from_dendrogram", "core.taxonomy"),
    ("repro.core.descriptions", "TopicDescriber", "describe", "core.descriptions"),
    ("repro.core.correlation", "CategoryCorrelationMiner", "mine", "core.correlation"),
    ("repro.core.pipeline", "ShoalPipeline", "fit", "core.fit"),
    ("repro.api.http", "GatewayCore", "decode_post", "api.contract.decode"),
    ("repro.api.contract", "SearchResponse", "to_dict", "api.contract.encode"),
    ("repro.api.contract", "BatchResponse", "to_dict", "api.contract.encode"),
    ("repro.api.http", None, "_json_bytes", "api.contract.encode"),
    ("repro.api.http", "GatewayCore", "dispatch_request", "api.http.dispatch"),
    ("repro.api.http", "GatewayCore", "ingest_events_from_payload", "api.http.ingest"),
    ("repro.api.http", "GatewayCore", "handle_ingest", "api.http.ingest"),
    ("repro.api.middleware", "Gateway", "handle", "api.middleware.gateway"),
    ("repro.api.backends", "_EngineBackend", "search", "api.backends"),
    ("repro.api.backends", "_EngineBackend", "batch", "api.backends"),
    ("repro.serving.router", "ClusterRouter", "search_topics", "serving.router"),
    ("repro.serving.router", "ClusterRouter", "search_topics_batch", "serving.router"),
    ("repro.core.serving", "ShoalService", "search_topics", "core.serving.search"),
    ("repro.core.serving", "ShoalService", "search_topics_batch", "core.serving.search"),
    ("repro.core.serving", "ShoalService", "search_tokens", "core.serving.search"),
    ("repro.core.serving", "ShoalService", "from_snapshot", "core.serving.load"),
    ("repro.text.bm25", "BM25", "top_k", "text.bm25.top_k"),
    ("repro.text.bm25", "BM25", "candidates", "text.bm25.candidates"),
    ("repro.streaming.ingest", "IngestPipe", "submit", "streaming.ingest.submit"),
    ("repro.streaming.ingest", "IngestPipe", "submit_many", "streaming.ingest.submit"),
    ("repro.streaming.ingest", "IngestPipe", "take_batch", "streaming.ingest.take_batch"),
    ("repro.streaming.wal", "WriteAheadLog", "append", "streaming.wal.append"),
    ("repro.streaming.wal", "WriteAheadLog", "append_many", "streaming.wal.append"),
    ("repro.streaming.wal", "WriteAheadLog", "compact", "streaming.wal.compact"),
    ("repro.streaming.updater", "StreamingUpdater", "run_once", "streaming.updater.run_once"),
    ("repro.core.incremental", "IncrementalShoal", "advance", "core.incremental.advance"),
    ("repro.store.persistence", None, "save_model", "store.persistence.save"),
    ("repro.store.persistence", None, "load_model", "store.persistence.load"),
    ("repro.streaming.rollout", "GenerationSwitch", "swap", "streaming.rollout.swap"),
)

#: Cache lookups are counted, not timed: one counter per (layer that
#: asked, hit or miss), so each cache's hit rate is measured where the
#: lookup happens.
CACHE_LOOKUP = ("repro.api.cache", "LRUCache", "get")


class _ThreadState:
    """One thread's spans, open-span stack and cache-lookup counters.

    Nothing here is shared between threads, so recording takes no lock
    and no two threads can interleave inside an append.
    """

    __slots__ = ("spans", "stack", "lookups", "thread")

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: List[int] = []
        self.lookups: Dict[Tuple[str, bool], int] = defaultdict(int)
        self.thread = threading.get_ident()


class Recorder:
    """In-memory span store; each thread records into its own list."""

    def __init__(self) -> None:
        self._threads: List[_ThreadState] = []
        self._register = threading.Lock()
        self._local = threading.local()
        # Both ends of a run convert their monotonic stamps to wall
        # clock through an anchor, so spans of the server process can be
        # laid over the generator's request times.
        self.anchor = (time.perf_counter_ns(), time.time_ns())

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._register:
                self._threads.append(state)
        return state

    def wrap(self, func: Callable, name: str, bound: bool) -> Callable:
        get_state = self._state
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state = get_state()
            spans, stack = state.spans, state.stack
            parent = stack[-1] if stack else -1
            index = len(spans)
            # Reserve the slot so children can point at it; until the
            # span ends the slot holds its name (read by cache lookups).
            spans.append(name)
            stack.append(index)
            owner = id(args[0]) if bound and args else 0
            start = clock()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (
                    name, start, end, parent, state.thread, owner, _size(result)
                )

        return wrapper

    def wrap_cache_get(self, func: Callable, miss: Any) -> Callable:
        get_state = self._state

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            state = get_state()
            # An open slot holds its span's name: the layer that asked.
            asker = state.spans[state.stack[-1]] if state.stack else ""
            state.lookups[(asker, result is not miss)] += 1
            return result

        return wrapper

    def collect(self) -> Tuple[List[Span], Dict[Tuple[str, bool], int]]:
        """All finished spans in one list (parents re-indexed into it)
        and the summed cache-lookup counters."""
        with self._register:
            threads = list(self._threads)
        spans: List[Span] = []
        lookups: Dict[Tuple[str, bool], int] = defaultdict(int)
        for state in threads:
            # A span still open when the process was told to stop has
            # only its name in the slot; it and its place are dropped.
            remap: Dict[int, int] = {}
            for old, span in enumerate(list(state.spans)):
                if isinstance(span, str):
                    continue
                remap[old] = len(spans)
                spans.append(span[:3] + (remap.get(span[3], -1),) + span[4:])
            for key, n in list(state.lookups.items()):
                lookups[key] += n
        return spans, dict(lookups)

    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        spans, lookups = self.collect()
        doc = {
            "anchor": list(self.anchor),
            "spans": spans,
            "cache_lookups": [
                [asker, hit, n] for (asker, hit), n in sorted(lookups.items())
            ],
        }
        doc.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _size(result: Any) -> int:
    if result is None:
        return 0
    try:
        return len(result)
    except TypeError:
        return 1


def install(recorder: Recorder) -> List[str]:
    """Wrap every entry point that exists; returns the span names wrapped.

    A later change may rename or remove an entry point: a missing one is
    skipped (its metrics then read 0) instead of failing the run.
    """
    # Importing the CLI first loads every module that imported an entry
    # point by name, so _wrap_function can replace each of those names.
    importlib.import_module("repro.cli")
    wrapped: List[str] = []
    for module_name, class_name, attr, span_name in ENTRY_POINTS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        owner = module if class_name is None else getattr(module, class_name, None)
        if owner is None or attr not in vars(owner):
            continue
        if class_name is None:
            _wrap_function(recorder, module, attr, span_name)
        else:
            _wrap_method(recorder, owner, attr, span_name)
        wrapped.append(span_name)
    _wrap_middlewares(recorder)
    module = importlib.import_module(CACHE_LOOKUP[0])
    cache_class = getattr(module, CACHE_LOOKUP[1], None)
    if cache_class is not None and CACHE_LOOKUP[2] in vars(cache_class):
        original = vars(cache_class)[CACHE_LOOKUP[2]]
        setattr(
            cache_class,
            CACHE_LOOKUP[2],
            recorder.wrap_cache_get(original, getattr(module, "MISS", None)),
        )
    return wrapped


def _wrap_method(recorder: Recorder, owner: type, attr: str, name: str) -> None:
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        inner = raw.__func__
        setattr(owner, attr, classmethod(recorder.wrap(inner, name, False)))
    elif isinstance(raw, staticmethod):
        inner = raw.__func__
        setattr(owner, attr, staticmethod(recorder.wrap(inner, name, False)))
    else:
        setattr(owner, attr, recorder.wrap(raw, name, True))


def _wrap_function(recorder: Recorder, module: Any, attr: str, name: str) -> None:
    """Replace a module-level function wherever it was imported by name."""
    original = getattr(module, attr)
    wrapper = recorder.wrap(original, name, False)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        if vars(mod).get(attr) is original:
            setattr(mod, attr, wrapper)


def _wrap_middlewares(recorder: Recorder) -> None:
    try:
        module = importlib.import_module("repro.api.middleware")
    except ImportError:
        return
    base = getattr(module, "Middleware", None)
    if base is None:
        return
    for cls in base.__subclasses__():
        layer = (
            "api.middleware.cache"
            if cls.__name__ == "CacheMiddleware"
            else "api.middleware.other"
        )
        for attr in ("handle", "handle_observed"):
            if attr in vars(cls):
                _wrap_method(recorder, cls, attr, layer)


# -- arithmetic on recorded spans (also used on synthetic trees by the tests) --


def covered_ns(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    end = lo
    for start, stop in sorted(intervals):
        start = max(start, end)
        stop = min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times_ns(spans: Sequence[Span]) -> List[int]:
    """Self time of every span: duration minus the union of its children."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [
        (span[2] - span[1]) - covered_ns(children.get(i, ()), span[1], span[2])
        for i, span in enumerate(spans)
    ]


def roots_of(spans: Sequence[Span]) -> List[int]:
    """Index of the root ancestor of every span."""
    roots: List[int] = []
    for i, span in enumerate(spans):
        parent = span[3]
        # Parents are recorded before their children, so roots[parent] exists.
        roots.append(i if parent < 0 else roots[parent])
    return roots


def self_by_name_under(
    spans: Sequence[Span], selfs: Sequence[int], root_name: str, lo_ns: int, hi_ns: int
) -> Tuple[Dict[str, int], int, int]:
    """Sum self time (``selfs``, from :func:`self_times_ns`) per span name
    over the trees rooted at ``root_name`` that start inside ``[lo_ns, hi_ns)``.

    Returns (self ns by name, number of such roots, their total duration).
    """
    roots = roots_of(spans)
    by_name: Dict[str, int] = defaultdict(int)
    n_roots = 0
    root_total = 0
    for i, span in enumerate(spans):
        root = spans[roots[i]]
        if root[0] != root_name or not lo_ns <= root[1] < hi_ns:
            continue
        by_name[span[0]] += selfs[i]
        if roots[i] == i:
            n_roots += 1
            root_total += span[2] - span[1]
    return dict(by_name), n_roots, root_total


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["spans"] = [tuple(s) for s in doc["spans"]]
    return doc
