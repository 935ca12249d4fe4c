"""In-memory span tracer wrapped around the program's public entry points.

The wrappers are installed from the benchmark's own files, by replacing
class and module attributes before any stack is built; the program itself
carries no tracing code.  Each wrapped call records one span (name, start,
end, enclosing span).  Spans stay in memory and are written out once, when
the repetition ends.  A span's self time is its duration minus the
durations of the spans directly inside it.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_idx: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        #: Number of leading spans that :meth:`summary` covers (all if None).
        self.limit: int | None = None

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, on_call=None):
        """Wrap ``fn`` in a span.  ``name`` is a string, or a function of
        the call arguments returning one; ``on_call(args, kwargs, result)``
        updates :attr:`counts`."""
        fixed = self._name_id(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(args))
            i = len(self.start)
            self.name_idx.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(perf_counter())
            self.end.append(0.0)
            self._stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.end[i] = perf_counter()
            if on_call is not None:
                on_call(args, kwargs, result)
            return result
        return wrapper

    def patch(self, owner, attr: str, name, on_call=None) -> None:
        """Replace ``owner.attr`` (a class or module) by its traced wrapper."""
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.wrap(name, raw.__func__,
                                                        on_call)))
        else:
            setattr(owner, attr, self.wrap(name, raw, on_call))

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.asarray(self.name_idx, dtype=np.int32),
                "parent": np.asarray(self.parent, dtype=np.int64),
                "start": np.asarray(self.start),
                "end": np.asarray(self.end)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds and the
        inclusive duration of every call (for percentiles)."""
        a = {k: v[:self.limit] for k, v in self.arrays().items()}
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        inner = a["parent"] >= 0
        np.add.at(child, a["parent"][inner], dur[inner])
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float(own[sel].sum()),
                         "durations": dur[sel], "starts": a["start"][sel]}
        return out


def _store_span(prefix: str):
    """Journal publishes of the service are their own span, observed at the
    store by file name."""
    def name(args):
        target = args[1] if len(args) > 1 else ""
        return "service.journal" if str(target).startswith("svc:jobs") else prefix
    return name


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of graph, core, flash, engine, service."""
    from repro.core import merger
    from repro.core.external import ExternalSortReducer
    from repro.core.kvstream import KVArray
    from repro.core.parallel import SortReducePool
    from repro.engine.engine import EngineRun
    from repro.flash.aoffs import AppendOnlyFlashFS
    from repro.flash.filestore import SSDFileSystem
    from repro.graph.formats import FlashCSR
    from repro.graph.vertexdata import VertexScanCursor
    from repro.service import scheduler

    counts = tracer.counts

    def count(key, fn):
        def on_call(args, kwargs, result):
            counts[key] += fn(args, result)
        return on_call

    tracer.patch(EngineRun, "step", "engine.step")
    tracer.patch(FlashCSR, "write", "graph.write")
    tracer.patch(FlashCSR, "index_lookup", "graph.gather",
                 count("graph.gather_calls", lambda a, r: 1))
    tracer.patch(FlashCSR, "edges_for", "graph.gather",
                 count("graph.gather_calls", lambda a, r: 1))
    tracer.patch(VertexScanCursor, "lookup", "graph.vertex_lookup",
                 count("graph.vertex_lookup_keys", lambda a, r: len(a[1])))
    tracer.patch(KVArray, "sorted", "core.chunk_sort",
                 count("core.chunk_sort_records", lambda a, r: len(a[0])))
    tracer.patch(ExternalSortReducer, "add", "core.sort_reduce")
    tracer.patch(ExternalSortReducer, "finish", "core.sort_reduce",
                 count("core.reduced_pairs", lambda a, r: r.num_records))
    tracer.patch(merger.StreamingMergeReducer, "merge", "core.merge")
    tracer.patch(merger, "merge_reduce_arrays", "core.merge")
    tracer.patch(SortReducePool, "collect", "core.pool_wait")
    tracer.patch(scheduler, "run_point_batch", "service.point_batch")

    def is_run_file(args, result):
        return int(":run-" in str(args[1]))

    for store in (AppendOnlyFlashFS, SSDFileSystem):
        for attr in ("read", "read_array"):
            tracer.patch(store, attr, _store_span("flash.store_read"))
        for attr in ("append", "append_array", "write_at"):
            if attr in store.__dict__:
                tracer.patch(store, attr, _store_span("flash.store_write"))
        tracer.patch(store, "seal", _store_span("flash.store_write"),
                     count("core.run_files", is_run_file))
        for attr in ("delete", "rename"):
            tracer.patch(store, attr, _store_span("flash.store_delete"))

    # Durable metadata journal bytes, counted where AOFFS frames them.
    from repro.flash import aoffs

    def frame_bytes(args, result):
        return sum(len(frame) for frame in result)
    tracer.patch(aoffs, "encode_frames", "flash.meta_frame",
                 count("flash.meta_bytes", frame_bytes))
