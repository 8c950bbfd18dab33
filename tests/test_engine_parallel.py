"""The batched refresh must change performance, never results.

Contracts from the batched-refresh design:

* The engine's reference-grouped refresh must recover the same service
  graphs as the legacy per-pair baseline
  (:class:`repro.baselines.legacy.PerPairEngine`) on the same workload.
* The fixed ``E2EProfEngine._edge_series`` is a pure refactor of the old
  pairwise ``concatenated()`` chain (quadratic in window depth).
* Parallelism is the single ``shards`` setting: 0 is serial, N >= 1 is
  N worker processes (their bit-identity lives in
  ``tests/test_engine_processes.py``).
"""

import functools

import pytest

import numpy as np

from repro.apps.manyclass import build_many_class
from repro.baselines.legacy import PerPairEngine
from repro.cli import main
from repro.config import PathmapConfig
from repro.core.engine import E2EProfEngine
from repro.errors import AnalysisError
from repro.obs.exposition import snapshot
from repro.obs.registry import MetricsRegistry

CFG = PathmapConfig(
    window=6.0,
    refresh_interval=2.0,
    quantum=1e-3,
    sampling_window=1e-3,
    max_transaction_delay=1.0,
    min_spike_height=0.10,
)


def run_engine(seed=3, end_time=18.0, classes=6, quiet_fraction=0.5, config=CFG,
               engine_cls=E2EProfEngine, **engine_kwargs):
    """One many-class deployment driven to ``end_time`` with an
    ``engine_cls`` engine attached; returns the engine and its
    per-refresh samples."""
    deployment = build_many_class(
        classes=classes,
        quiet_fraction=quiet_fraction,
        seed=seed,
        request_rate=10.0,
        quiet_after=5.0,
        config=config,
    )
    engine = engine_cls(config, **engine_kwargs)
    samples = []
    engine.subscribe_metrics(lambda now, result, sample: samples.append(sample))
    engine.attach(deployment.topology)
    deployment.run_until(end_time)
    engine.detach()
    assert engine.latest_result is not None
    return engine, samples


#: Counters whose values must be identical between a serial and a
#: sharded run of the same workload (elapsed-time metrics excluded).
EXACT_COUNTERS = [
    "pathmap_correlations_total",
    "pathmap_spikes_total",
    "pathmap_edges_total",
    "pathmap_nodes_visited_total",
    "correlator_pair_products_total",
    "correlator_skips_total",
    "correlation_cache_hits_total",
    "correlator_evictions_total",
    "engine_blocks_ingested_total",
    "engine_correlator_cache_hits_total",
    "engine_correlator_cache_misses_total",
]


def counter_values(registry):
    snap = snapshot(registry)
    return {
        name: {labels: state["value"] for labels, state in snap[name].items()}
        for name in EXACT_COUNTERS
    }


class TestShardsSetting:
    def test_zero_shards_runs_serial_without_a_fleet(self):
        engine = E2EProfEngine(CFG)
        assert engine.shards == 0
        deployment = build_many_class(
            classes=2, quiet_fraction=0.0, seed=3, request_rate=10.0,
            quiet_after=5.0, config=CFG,
        )
        engine.attach(deployment.topology)
        deployment.run_until(6.0)
        assert engine._sharded is None
        assert engine.latest_result is not None
        engine.detach()
        with pytest.raises(AnalysisError):
            engine.reshard(2)  # a serial engine cannot grow a fleet

    def test_engine_argument_overrides_config(self):
        import dataclasses

        cfg = dataclasses.replace(CFG, shards=3)
        assert E2EProfEngine(cfg).shards == 3
        assert E2EProfEngine(cfg, shards=0).shards == 0
        assert E2EProfEngine(CFG, shards=2).shards == 2

    def test_cli_shards_alone_selects_processes(self, capsys, monkeypatch):
        import repro.core.engine as engine_module

        built = []

        class Recording(engine_module.E2EProfEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(engine_module, "E2EProfEngine", Recording)
        assert main(["stats", "--shards", "2", "--duration", "31",
                     "--window", "60"]) == 0
        capsys.readouterr()
        (engine,) = built
        assert engine.shards == 2
        assert engine.ledger.latest.shards  # workers really ran the refresh
        assert engine._sharded is None  # and the fleet was torn down


class TestBatchedEquivalence:
    def test_batched_engine_matches_legacy_graphs(self):
        batched_engine, batched_samples = run_engine()
        legacy_engine, legacy_samples = run_engine(engine_cls=PerPairEngine)

        batched = batched_engine.latest_result
        legacy = legacy_engine.latest_result
        assert set(batched.graphs) == set(legacy.graphs)
        for key, graph in legacy.graphs.items():
            assert batched.graphs[key].edge_set() == graph.edge_set(), key
        assert batched.stats.spikes == legacy.stats.spikes
        assert batched.stats.correlations == legacy.stats.correlations

        # The optimization telemetry separates the modes: the legacy
        # engine never skips; the batched engine skips the quiet edges.
        assert all(s.correlator_skips == 0 for s in legacy_samples)
        assert any(s.correlator_skips > 0 for s in batched_samples)

    def test_batched_matches_legacy_on_smeared_dense_blocks(self):
        # Smearing over many quanta produces near-dense blocks -- the
        # regime where the density dispatch must route rows to the RLE
        # kernel instead of the sparse batch kernel. Results must still
        # be identical to the legacy per-pair engine.
        import dataclasses

        dense_cfg = dataclasses.replace(CFG, sampling_window=50e-3)
        kwargs = dict(seed=4, end_time=14.0, classes=4, quiet_fraction=0.25)
        batched_engine, _ = run_engine(config=dense_cfg, **kwargs)
        legacy_engine, _ = run_engine(config=dense_cfg, engine_cls=PerPairEngine, **kwargs)
        batched = batched_engine.latest_result
        legacy = legacy_engine.latest_result
        assert set(batched.graphs) == set(legacy.graphs)
        for key, graph in legacy.graphs.items():
            assert batched.graphs[key].to_dict() == graph.to_dict(), key

    def test_batched_skip_counts_respond_to_quiet_classes(self):
        _, samples = run_engine(end_time=20.0)
        # While every class is active (first refreshes) nothing is
        # skipped; once half the classes stop, skips appear.
        assert samples[0].correlator_skips == 0
        assert samples[-1].correlator_skips > 0


class TestEdgeSeriesRefactor:
    def test_single_pass_concat_matches_pairwise_chain(self):
        engine, _ = run_engine(end_time=14.0)
        edges = list(engine._blocks)
        assert edges
        for edge in edges:
            got = engine._edge_series(edge)
            # The pre-refactor implementation: fold the blocks through
            # pairwise DensityTimeSeries.concatenated() calls.
            blocks = [b.to_sparse() for b in engine._blocks[edge]]
            expected = functools.reduce(lambda a, b: a.concatenated(b), blocks)
            assert got.start == expected.start
            assert got.length == expected.length
            assert got.quantum == expected.quantum
            assert np.array_equal(got.indices, expected.indices)
            assert np.array_equal(got.values, expected.values)

    def test_edge_series_missing_edge_raises(self):
        engine, _ = run_engine(end_time=10.0)
        with pytest.raises(AnalysisError):
            engine._edge_series(("nope", "nowhere"))


class TestAdaptiveDeterminism:
    """The adaptive annotations (confidence reports, tuned-parameter
    recommendations) are derived in the parent from the refresh result,
    so ``shards`` must not change a single one of them."""

    def test_shards_do_not_change_adaptive_outputs(self):
        serial_engine, _ = run_engine(adaptive=True)
        sharded_engine, _ = run_engine(adaptive=True, shards=2)

        serial = serial_engine.latest_result
        sharded = sharded_engine.latest_result
        assert set(serial.graphs) == set(sharded.graphs)
        for key, graph in serial.graphs.items():
            assert sharded.graphs[key].to_dict() == graph.to_dict(), key

        # Confidence reports are dataclasses of floats computed from the
        # same block history: bit-identical, class for class.
        assert serial_engine.latest_confidence == sharded_engine.latest_confidence
        assert serial_engine.confidence_score == sharded_engine.confidence_score
        assert serial.confidence == sharded.confidence

        # And the tuner saw identical statistics, so it recommended
        # identical configs.
        assert (
            serial_engine.latest_recommendations
            == sharded_engine.latest_recommendations
        )
        assert serial_engine.latest_recommendations, (
            "adaptive engine must produce recommendations for active classes"
        )

    def test_adaptive_flag_gates_recommendations(self):
        engine, _ = run_engine(adaptive=False)
        assert engine.latest_recommendations == {}
        assert engine.latest_confidence  # confidence is always on
