"""Differential determinism of the process-sharded refresh.

A ``shards >= 1`` engine partitions correlator groups across
worker processes by service class, ships block history through shared
memory, and merges per-shard partial pathmaps. None of that machinery
may change a single bit of output: graphs, stats, per-refresh samples
and exact metrics counters must match the serial engine for every
workload, every shard count, and across a mid-run reshard.

The suite pins that contract with:

* a serial == processes comparison,
* a shard-count sweep (1..8) against one serial baseline,
* hypothesis-driven workloads (topology shape and shard count drawn),
* mid-run ``engine.reshard()`` equivalence,
* a sweep over every scenario in :mod:`repro.scenarios`,
* worker crash faults (degrade, publish ``shard_lost``, respawn), and
* resource lifecycle: ``engine.close()`` releases every process and
  shared-memory segment.
"""

import dataclasses
import os
import signal
import warnings

import pytest

from repro.apps.manyclass import build_many_class
from repro.config import PathmapConfig
from repro.core.engine import E2EProfEngine
from repro.errors import AnalysisError, ConfigError
from repro.obs.events import EVENT_SHARD_LOST
from repro.obs.registry import MetricsRegistry
from repro.tracing.transport import QUALITY_DEGRADED

from tests.test_engine_parallel import (
    CFG,
    EXACT_COUNTERS,
    counter_values,
    run_engine,
)

#: Sample fields that must agree refresh-for-refresh between modes
#: (all the exact work counts; elapsed-time fields excluded).
SAMPLE_FIELDS = (
    "time",
    "blocks_ingested",
    "correlators",
    "cache_hits",
    "cache_misses",
    "correlations",
    "spikes",
    "nodes_visited",
    "correlator_skips",
    "correlation_cache_hits",
)


def assert_equivalent(serial, other, serial_samples=None, other_samples=None,
                      counters=True):
    """Bit-identical refresh output: graphs, stats, samples, counters."""
    s_result = serial.latest_result
    o_result = other.latest_result
    assert list(s_result.graphs) == list(o_result.graphs)
    for key, graph in s_result.graphs.items():
        assert o_result.graphs[key].to_dict() == graph.to_dict(), key
    for field in ("correlations", "spikes", "edges_discovered", "graphs",
                  "nodes_visited"):
        assert getattr(s_result.stats, field) == getattr(o_result.stats, field), field
    if serial_samples is not None:
        assert len(serial_samples) == len(other_samples)
        for s, o in zip(serial_samples, other_samples):
            for field in SAMPLE_FIELDS:
                assert getattr(s, field) == getattr(o, field), field
    if counters:
        assert counter_values(serial.metrics) == counter_values(other.metrics)


class TestProcessDeterminism:
    def test_serial_processes_agree(self):
        serial, s_samples = run_engine(metrics=MetricsRegistry(enabled=True))
        procs, p_samples = run_engine(
            metrics=MetricsRegistry(enabled=True), shards=2
        )
        assert_equivalent(serial, procs, s_samples, p_samples)

    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_shard_count_sweep(self, shards):
        serial, s_samples = run_engine(
            metrics=MetricsRegistry(enabled=True), end_time=12.0
        )
        procs, p_samples = run_engine(
            metrics=MetricsRegistry(enabled=True),
            shards=shards,
            end_time=12.0,
        )
        assert procs.shards == shards
        assert_equivalent(serial, procs, s_samples, p_samples)

    def test_ledger_records_per_shard_timings(self):
        procs, _ = run_engine(shards=3, end_time=12.0)
        ledger = procs.ledger.latest
        assert sorted(ledger.shards) == ["0", "1", "2"]
        for sample in ledger.shards.values():
            assert sample.correlate_seconds >= 0.0
            assert sample.dfs_seconds >= 0.0
            assert sample.classes >= 0
        assert sum(s.classes for s in ledger.shards.values()) > 0

    def test_negative_shard_count_rejected(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(CFG, shards=-1)
        with pytest.raises(ConfigError):
            E2EProfEngine(CFG, shards=-1)


class TestHypothesisWorkloads:
    """Serial == processes across randomly drawn workloads."""

    @pytest.fixture(autouse=True)
    def _hypothesis(self):
        pytest.importorskip("hypothesis")

    def test_drawn_workloads_are_bit_identical(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=5, deadline=None)
        @given(
            seed=st.integers(min_value=0, max_value=50),
            classes=st.integers(min_value=2, max_value=8),
            quiet=st.sampled_from([0.0, 0.25, 0.5]),
            shards=st.integers(min_value=1, max_value=8),
        )
        def check(seed, classes, quiet, shards):
            kwargs = dict(
                seed=seed,
                classes=classes,
                quiet_fraction=quiet,
                end_time=10.0,
            )
            serial, s_samples = run_engine(
                metrics=MetricsRegistry(enabled=True), **kwargs
            )
            procs, p_samples = run_engine(
                metrics=MetricsRegistry(enabled=True),
                shards=shards,
                **kwargs,
            )
            assert_equivalent(serial, procs, s_samples, p_samples)

        check()


class TestReshard:
    def test_midrun_reshard_preserves_results(self):
        deployment = build_many_class(
            classes=6, quiet_fraction=0.5, seed=3, request_rate=10.0,
            quiet_after=5.0, config=CFG,
        )
        engine = E2EProfEngine(
            CFG, shards=2,
            metrics=MetricsRegistry(enabled=True),
        )
        engine.attach(deployment.topology)
        deployment.run_until(8.0)
        engine.reshard(5)
        assert engine.shards == 5
        deployment.run_until(18.0)
        engine.detach()

        serial, _ = run_engine(metrics=MetricsRegistry(enabled=True))
        # Correlators rebuilt after the reshard replay their windows, so
        # *work* counters (pair products, skips, cache hits/misses) grow;
        # the analysis-output counters must not move by a single unit.
        exact = [
            c
            for c in EXACT_COUNTERS
            if c.startswith("pathmap_") or c == "engine_blocks_ingested_total"
        ]
        assert_equivalent(serial, engine, counters=False)
        cv_s, cv_p = counter_values(serial.metrics), counter_values(engine.metrics)
        for name in exact:
            assert cv_s[name] == cv_p[name], name

    def test_reshard_rejects_invalid_counts(self):
        engine = E2EProfEngine(CFG, shards=2)
        with pytest.raises(AnalysisError):
            engine.reshard(0)


class TestScenarioSweep:
    """Acceptance: bit-identical to serial on every scenario in
    :mod:`repro.scenarios` (fanout_mesh, the largest, rides in tier-2)."""

    @staticmethod
    def scenario_params():
        from repro.scenarios import list_scenarios

        return [
            pytest.param(s.name, marks=pytest.mark.slow)
            if s.name == "fanout_mesh"
            else s.name
            for s in list_scenarios()
        ]

    @pytest.mark.parametrize("name", scenario_params.__func__())
    def test_scenario_matches_serial(self, name):
        from repro.scenarios import get_scenario

        results = {}
        for mode, kwargs in (
            ("serial", dict(shards=0)),
            ("processes", dict(shards=3)),
        ):
            run = get_scenario(name).build(seed=11)
            engine = E2EProfEngine(run.config, **kwargs)
            engine.attach(run.topology)
            run.simulate()
            engine.detach()
            assert engine.latest_result is not None, (name, mode)
            results[mode] = engine.latest_result
        serial, procs = results["serial"], results["processes"]
        assert list(serial.graphs) == list(procs.graphs), name
        for key, graph in serial.graphs.items():
            assert procs.graphs[key].to_dict() == graph.to_dict(), (name, key)
        for field in ("correlations", "spikes", "edges_discovered", "graphs",
                      "nodes_visited"):
            assert getattr(serial.stats, field) == getattr(procs.stats, field)


class TestShardFaults:
    def _run_with_crash(self, victim=1, shards=2):
        deployment = build_many_class(
            classes=6, quiet_fraction=0.5, seed=3, request_rate=10.0,
            quiet_after=5.0, config=CFG,
        )
        engine = E2EProfEngine(
            CFG, shards=shards,
            metrics=MetricsRegistry(enabled=True),
        )
        engine.attach(deployment.topology)
        deployment.run_until(8.0)
        sharded = engine._sharded
        original = sharded.dispatch

        def killing_dispatch(*args, **kwargs):
            # Dispatch normally, then SIGKILL the victim mid-refresh: the
            # parent's collect() sees EOF on the control pipe.
            original(*args, **kwargs)
            os.kill(sharded._workers[victim].process.pid, signal.SIGKILL)
            sharded.dispatch = original

        sharded.dispatch = killing_dispatch
        deployment.run_until(12.0)
        return deployment, engine

    def test_crash_degrades_and_publishes_shard_lost(self):
        deployment, engine = self._run_with_crash()
        try:
            events = engine.events.events(EVENT_SHARD_LOST)
            assert len(events) == 1
            event = events[0]
            assert event.attributes["shard"] == 1
            assert event.attributes["degraded_edges"] > 0
            assert event.attributes["classes"] > 0
            # The refresh still completed, with the lost shard's edges
            # marked degraded through the DataQuality machinery.
            assert engine.latest_result is not None
            degraded = [
                edge
                for edge, quality in engine.latest_edge_quality.items()
                if quality.state == QUALITY_DEGRADED
            ]
            assert degraded
            assert engine.quality_score < 1.0
        finally:
            engine.detach()

    def test_crash_recovers_on_next_refresh(self):
        deployment, engine = self._run_with_crash()
        try:
            deployment.run_until(18.0)
            assert engine._sharded.respawns >= 1
            # All workers alive again and analysis back to bit-identical.
            assert all(
                handle.alive for handle in engine._sharded._workers.values()
            )
        finally:
            engine.detach()
        serial, _ = run_engine()
        assert_equivalent(serial, engine, counters=False)


class TestResourceLifecycle:
    @pytest.mark.filterwarnings("error::UserWarning")
    def test_engine_close_releases_resources(self):
        from multiprocessing import shared_memory

        deployment = build_many_class(
            classes=4, quiet_fraction=0.0, seed=5, request_rate=10.0,
            quiet_after=5.0, config=CFG,
        )
        engine = E2EProfEngine(CFG, shards=2)
        engine.attach(deployment.topology)
        deployment.run_until(10.0)
        workers = list(engine._sharded._workers.values())
        segments = [seg.name for seg in engine._sharded._segments]
        assert workers and segments

        engine.close()

        assert engine._sharded is None
        for handle in workers:
            assert not handle.alive
        # Every shipment segment was unlinked: attaching must fail.
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        # close() is idempotent.
        engine.close()

    @pytest.mark.filterwarnings("error::UserWarning")
    def test_detach_after_crash_still_cleans_up(self):
        deployment = build_many_class(
            classes=4, quiet_fraction=0.0, seed=5, request_rate=10.0,
            quiet_after=5.0, config=CFG,
        )
        engine = E2EProfEngine(CFG, shards=2)
        engine.attach(deployment.topology)
        deployment.run_until(8.0)
        victim = engine._sharded._workers[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(timeout=10.0)
        deployment.run_until(12.0)  # refresh past the dead worker
        segments = [seg.name for seg in engine._sharded._segments]
        engine.close()
        for name in segments:
            with pytest.raises(FileNotFoundError):
                pytest.importorskip("multiprocessing.shared_memory").SharedMemory(
                    name=name
                )
