"""Pre-optimization baselines of the online refresh and the collector.

The benchmarks and equivalence tests compare the engine against the
code paths it replaced; those paths live here, outside the engine, so
each refresh behaviour has exactly one implementation in
:mod:`repro.core` and :mod:`repro.tracing`:

* :class:`PerPairEngine` -- the legacy refresh: one kernel call per
  ``(reference, edge)`` correlator, every refresh, quiet or not, over
  unoptimized :class:`~repro.core.incremental.IncrementalCorrelator`
  instances (no quiet-edge skips, no correlation memo). It recovers the
  same service graphs as :class:`~repro.core.engine.E2EProfEngine`.
* :class:`ListStoreCollector` -- a :class:`~repro.tracing.collector.TraceCollector`
  whose streams are per-edge Python lists instead of sorted numpy
  chunks. Its analysis results are identical; only ingest cost differs.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.core.engine import E2EProfEngine
from repro.core.incremental import IncrementalCorrelator
from repro.core.stages import EdgeKey, RefKey
from repro.errors import AnalysisError, ConfigError
from repro.obs.ledger import KERNEL_LEGACY
from repro.tracing.collector import _EMPTY, TraceCollector


class PerPairEngine(E2EProfEngine):
    """The online engine with the legacy per-pair correlate stage.

    Serial only: sharded workers run the engine's own grouped path.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.shards:
            raise ConfigError("the per-pair baseline runs serially (shards=0)")

    def _append_to_correlators(self) -> None:
        """One kernel invocation per (reference, edge) pair.

        The whole loop is ledgered as one ``legacy_pair`` kernel sample
        (rows = correlator appends) -- per-append timing would cost more
        than the appends themselves on quiet windows.
        """
        kernel_started = time.perf_counter()
        try:
            if self.tracer.enabled:
                for (ref_edge, edge), correlator in self._correlators.items():
                    with self.tracer.span(
                        "correlator.append",
                        ref=f"{ref_edge[0]}->{ref_edge[1]}",
                        edge=f"{edge[0]}->{edge[1]}",
                    ):
                        correlator.append(self._blocks[ref_edge][-1], self._blocks[edge][-1])
                return
            # Untraced hot path: one attribute check per refresh, not per edge.
            for (ref_edge, edge), correlator in self._correlators.items():
                correlator.append(self._blocks[ref_edge][-1], self._blocks[edge][-1])
        finally:
            self.ledger.record_kernel(
                KERNEL_LEGACY,
                rows=len(self._correlators),
                seconds=time.perf_counter() - kernel_started,
            )

    def _create_correlator(self, ref_key: RefKey, edge_key: EdgeKey) -> IncrementalCorrelator:
        ref_blocks = self._blocks.get(ref_key)
        edge_blocks = self._blocks.get(edge_key)
        if ref_blocks is None or edge_blocks is None:
            raise AnalysisError(
                f"no block history for correlator {ref_key} x {edge_key}"
            )
        correlator = IncrementalCorrelator(
            max_lag=self.config.max_lag_quanta,
            num_blocks=self._num_blocks,
            quantum=self.config.quantum,
            metrics=self.metrics,
            optimized=False,
            evict_hook=self._summary_hook(ref_key, edge_key),
        )
        for ref_block, edge_block in zip(ref_blocks, edge_blocks):
            correlator.append(ref_block, edge_block)
        self._correlators[(ref_key, edge_key)] = correlator
        return correlator


class _ListStore:
    """Per-edge Python-list timestamp store.

    The dirty flag is per store, so one new record re-sorts only its own
    edge's history -- never every edge's.
    """

    __slots__ = ("stamps", "_dirty", "_cache", "sorts")

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self._dirty = False
        self._cache: Optional[np.ndarray] = None
        self.sorts = 0

    def append(self, timestamp: float) -> None:
        self.stamps.append(timestamp)
        self._dirty = True
        self._cache = None

    def extend(self, values: np.ndarray) -> None:
        if values.size:
            self.stamps.extend(values.tolist())
            self._dirty = True
            self._cache = None

    @property
    def count(self) -> int:
        return len(self.stamps)

    @property
    def pending(self) -> int:
        return 0

    def consolidate(self) -> None:
        if self._dirty:
            self.stamps.sort()
            self.sorts += 1
            self._dirty = False

    def array(self) -> np.ndarray:
        if self._cache is None:
            self.consolidate()
            self._cache = (
                np.asarray(self.stamps, dtype=np.float64) if self.stamps else _EMPTY
            )
        return self._cache

    def evict_before(self, cutoff: float, sink=None) -> int:
        self.consolidate()
        arr = self.array()
        idx = int(np.searchsorted(arr, cutoff, side="left"))
        if idx:
            if sink is not None:
                sink(arr[:idx].copy())
            del self.stamps[:idx]
            self._cache = None
        return idx


class ListStoreCollector(TraceCollector):
    """Trace collector over per-edge Python lists: the ingest baseline."""

    _store_factory = _ListStore
