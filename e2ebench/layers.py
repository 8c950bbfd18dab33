"""Outside-in layer timing: spans recorded by wrapping public functions.

The benchmark never edits the program to time it. :class:`LayerTracer`
replaces selected functions and methods of the ``repro`` modules with
wrappers that record one span per call -- name, start, end and the span
that was open when the call began -- plus counts taken from the call's
arguments or result (rows, bytes, frames). Spans live in flat arrays
while the run lasts and are written out once at the end.

Span times are process CPU time, like the benchmark's end-to-end times. A
layer's self time is its spans' total duration minus the time covered by
their child spans. The simulator's self time is therefore the
discrete-event work that no timed layer claimed.

A wrapped name that no longer exists is listed in ``missing`` and its
metrics read 0; the benchmark keeps running, so a later refactor that
moves a function shows up as a missing layer rather than a crash.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


def _frames(rec, args, result, token):
    rec.add("transport.frames", len(result))


def _wire_bytes(rec, args, result, token):
    rec.add("wire.bytes", len(args[1]))


def _gaps(rec, args, result, token):
    rec.add("transport.gaps", len(result))


def _batch_records(rec, args, result, token):
    rec.add("collector.ingest_batch.records", int(result))


def _batch_rows(name):
    def count(rec, args, result, token):
        rec.add(name, len(args[1]))
    return count


def _spectrum_before(args):
    cache, block, size = args[0], args[1], args[2]
    return cache.peek(block, size) is not None


def _spectrum_hits(rec, args, result, token):
    rec.add("correlation.spectrum_cache.hits" if token else "correlation.spectrum_cache.misses", 1)


def _append_skips(rec, args, result, token):
    rec.add("incremental.skipped", int(result))


def _published_spikes(rec, args, result, token):
    rec.add("pathmap.spikes", int(result.stats.spikes))


def _spill_bytes(rec, args, result, token):
    rec.add("lake.spill.bytes", int(np.asarray(args[4]).nbytes))


#: (span name, module, attribute path, count hook, pre-call hook).
#: Several targets may share one span name (one layer, several entry
#: points). Module-level functions are wrapped in the namespace of the
#: module that *calls* them, because callers bind them at import time.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("simulation", "repro.simulation.topology", "Topology.run_until", None, None),
    ("tracer.observe", "repro.tracing.tracer", "Tracer.observe", None, None),
    ("collector.ingest_point", "repro.tracing.collector", "TraceCollector.ingest_point", None, None),
    ("tracer.flush_block", "repro.tracing.tracer", "Tracer.flush_block", None, None),
    ("transport.encode", "repro.tracing.transport", "TransportLink.encode_blocks", _frames, None),
    ("transport.encode", "repro.tracing.transport", "TransportLink.encode_timestamp_batches", _frames, None),
    ("transport.receive", "repro.tracing.transport", "TransportReceiver.receive", _wire_bytes, None),
    ("transport.receive", "repro.tracing.transport", "TransportReceiver.poll", None, None),
    ("transport.receive", "repro.tracing.transport", "TransportReceiver.poll_timestamp_batches", None, None),
    ("transport.receive", "repro.tracing.transport", "TransportReceiver.drain_gap_notices", _gaps, None),
    ("collector.ingest_batch", "repro.tracing.collector", "TraceCollector.ingest_batch", _batch_records, None),
    ("correlation.sparse_batch", "repro.core.stages", "batch_lag_products",
     _batch_rows("correlation.sparse_batch.rows"), None),
    ("correlation.fft_batch", "repro.core.stages", "fft_batch_lag_products",
     _batch_rows("correlation.fft_batch.rows"), None),
    # Single-pair kernels: rows on the grouped path are the RLE route;
    # rows computed inside IncrementalCorrelator.append are the per-pair
    # (legacy) path. Told apart by the parent span when aggregating.
    ("correlation.pair", "repro.core.incremental", "rle_lag_products", None, None),
    ("correlation.pair", "repro.core.incremental", "sparse_lag_products", None, None),
    ("correlation.spectrum", "repro.core.correlation", "SpectrumCache.spectrum", _spectrum_hits, _spectrum_before),
    ("incremental.append", "repro.core.incremental", "IncrementalCorrelator.append", _append_skips, None),
    ("pathmap.analyze", "repro.core.pathmap", "Pathmap.analyze", _published_spikes, None),
    ("spikes.detect", "repro.core.pathmap", "detect_spikes", None, None),
    ("engine.refresh", "repro.core.engine", "E2EProfEngine.refresh", None, None),
    ("lake.spill", "repro.lake.lake", "TraceLake.spill", _spill_bytes, None),
    ("lake.checkpoint", "repro.lake.lake", "TraceLake.checkpoint", None, None),
    # The benchmark's own ground-truth recorder runs inside the simulation;
    # timing it keeps it out of the simulator's self time.
    ("bench.truth", "truth", "BlockTruth.on_capture", None, None),
)

#: Span names that make up each engine stage, as seen from outside, for
#: the cross-check against the engine's own RefreshLedger. Only direct
#: children of an ``engine.refresh`` span count.
OUTSIDE_STAGES = {
    "ingest": ("tracer.flush_block", "transport.encode", "transport.receive", "collector.ingest_batch"),
    "correlate": ("incremental.append", "correlation.sparse_batch", "correlation.fft_batch",
                  "correlation.pair", "correlation.spectrum"),
    "dfs": ("pathmap.analyze",),
    "spill": ("lake.spill", "lake.checkpoint"),
}


class LayerTracer:
    """Installs the wrappers and keeps the spans of one traced run."""

    def __init__(self) -> None:
        self.active = False
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._span_name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self.counts: Dict[str, float] = {}
        self.missing: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    def wrap(self, fn: Callable, name: str, count: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """``fn`` recording one ``name`` span per call while active."""
        ident = self.name_id(name)
        stack = self._stack
        span_name, parent, start, end = self._span_name, self._parent, self._start, self._end
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            index = len(span_name)
            span_name.append(ident)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result, token)
            return result

        return wrapper

    def install(self) -> None:
        for name, module_name, path, count, before in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, count, before))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanSummary:
    """Per-name totals, self times and refresh-stage splits of a span set."""

    def __init__(self, tracer: LayerTracer) -> None:
        spans = tracer.arrays()
        self.names = tracer.names
        self.counts = dict(tracer.counts)
        name, parent = spans["name"], spans["parent"]
        duration = spans["end"] - spans["start"]
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=len(name))
        self_time = duration - child_time
        width = len(self.names)
        self.calls = np.bincount(name, minlength=width)
        self.seconds = np.bincount(name, weights=duration, minlength=width)
        self.self_seconds = np.bincount(name, weights=self_time, minlength=width)
        # Kernel pairs computed inside an append are the per-pair path.
        pair = self._id("correlation.pair")
        append = self._id("incremental.append")
        is_pair = name == pair
        in_append = np.zeros_like(is_pair)
        in_append[nested] = name[parent[nested]] == append
        self.legacy_rows = int(np.count_nonzero(is_pair & in_append))
        self.legacy_seconds = float(duration[is_pair & in_append].sum())
        self.rle_rows = int(np.count_nonzero(is_pair & ~in_append))
        self.rle_seconds = float(duration[is_pair & ~in_append].sum())
        self._refresh_split(spans, duration)

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def _refresh_split(self, spans, duration) -> None:
        """Split each refresh span into outside-seen stages."""
        name, parent, start, end = spans["name"], spans["parent"], spans["start"], spans["end"]
        refresh = self._id("engine.refresh")
        analyze = self._id("pathmap.analyze")
        stage_of = {self._id(n): stage for stage, names in OUTSIDE_STAGES.items() for n in names}
        self.stages = {stage: 0.0 for stage in (*OUTSIDE_STAGES, "publish")}
        refresh_ids = np.flatnonzero(name == refresh)
        children = np.flatnonzero(np.isin(parent, refresh_ids))
        by_refresh: Dict[int, List[int]] = {}
        for child in children:
            by_refresh.setdefault(int(parent[child]), []).append(int(child))
            stage = stage_of.get(int(name[child]))
            if stage is not None:
                self.stages[stage] += duration[child]
        for r in refresh_ids:
            kids = by_refresh.get(int(r), [])
            dfs_end = max((end[k] for k in kids if name[k] == analyze), default=None)
            if dfs_end is None:
                continue
            # Publish: the refresh's tail after the DFS, minus timed work
            # (lake maintenance) that ran inside that tail.
            tail = end[r] - dfs_end - sum(duration[k] for k in kids if start[k] >= dfs_end)
            self.stages["publish"] += max(tail, 0.0)

    def total(self, name: str) -> Tuple[int, float, float]:
        """(calls, seconds, self seconds) of one span name."""
        ident = self._id(name)
        if ident < 0:
            return 0, 0.0, 0.0
        return int(self.calls[ident]), float(self.seconds[ident]), float(self.self_seconds[ident])
