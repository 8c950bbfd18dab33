"""Performance regression guards.

The paper's entire point is that pathmap is cheap enough for *online*
use; these tests pin generous upper bounds on the costs that matter so a
performance regression fails CI rather than silently making the engine
fall behind its refresh interval.
"""

import time

import pytest

from repro import E2EProfEngine, PathmapConfig, build_rubis
from repro.core.pathmap import compute_service_graphs
from repro.obs.spans import NULL_SPAN, SpanTracer

pytestmark = pytest.mark.slow

CFG = PathmapConfig(
    window=180.0,
    refresh_interval=60.0,
    quantum=1e-3,
    sampling_window=50e-3,
    max_transaction_delay=2.0,
    min_spike_height=0.10,
)


@pytest.fixture(scope="module")
def three_minute_trace():
    rubis = build_rubis(dispatch="round_robin", seed=23, request_rate=10.0,
                        config=CFG)
    rubis.run_until(185.0)
    return rubis


class TestAnalysisBudget:
    def test_full_window_rle_analysis_under_budget(self, three_minute_trace):
        """3 minutes of 2-class traffic, full RLE analysis: must stay
        far below the 60 s refresh interval (generous 10x margin over
        typical ~0.5 s)."""
        window = three_minute_trace.window(end_time=183.0)
        started = time.perf_counter()
        result = compute_service_graphs(window, CFG, method="rle")
        elapsed = time.perf_counter() - started
        assert result.stats.graphs == 2
        assert elapsed < 6.0

    def test_engine_refresh_keeps_up(self, three_minute_trace):
        """Online per-refresh cost must be a small fraction of dW."""
        rubis = build_rubis(dispatch="round_robin", seed=24, request_rate=10.0,
                            config=CFG)
        engine = E2EProfEngine(CFG)
        engine.attach(rubis.topology)
        durations = []
        engine.subscribe(lambda now, res: durations.append(engine.last_refresh_seconds))
        rubis.run_until(305.0)
        assert durations
        assert max(durations) < CFG.refresh_interval / 10

    def test_disabled_tracing_overhead_under_five_percent(self):
        """The self-tracing contract: with the tracer off, every span
        site costs one attribute check plus a null context manager.
        Price that per-op cost, scale it by the spans a traced refresh
        actually opens, and demand the total stays under 5% of an
        untraced refresh."""
        tracer = SpanTracer()  # disabled
        ops = 200_000
        started = time.perf_counter()
        for _ in range(ops):
            with tracer.span("engine.refresh", refresh=0):
                pass
        per_op = (time.perf_counter() - started) / ops
        assert tracer.span("x") is NULL_SPAN  # stayed disabled

        # Spans per refresh, measured on a short traced run.
        rubis = build_rubis(dispatch="round_robin", seed=26, request_rate=10.0,
                            config=CFG)
        traced = E2EProfEngine(CFG)
        traced.tracer.enable()
        traced.attach(rubis.topology)
        rubis.run_until(65.0)
        frames = traced.flight.frames()
        assert frames
        spans_per_refresh = max(len(f.spans) for f in frames)

        # Mean untraced refresh cost on the same workload shape.
        rubis = build_rubis(dispatch="round_robin", seed=26, request_rate=10.0,
                            config=CFG)
        engine = E2EProfEngine(CFG)
        engine.attach(rubis.topology)
        durations = []
        engine.subscribe(lambda now, res: durations.append(engine.last_refresh_seconds))
        rubis.run_until(185.0)
        mean_refresh = sum(durations) / len(durations)

        assert per_op * spans_per_refresh < 0.05 * mean_refresh

    def test_batched_refresh_not_slower_on_quiet_heavy_workload(self):
        """The batched refresh (grouped kernels + quiet-edge skipping)
        must never lose to the legacy per-pair refresh on a workload
        where most classes go quiet -- its target regime. The bound is
        deliberately lenient (1.25x) to tolerate CI noise; the real
        speedup assertion lives in benchmarks/test_refresh_throughput.py."""
        from repro.apps.manyclass import build_many_class
        from repro.baselines.legacy import PerPairEngine

        quiet_cfg = PathmapConfig(
            window=6.0,
            refresh_interval=2.0,
            quantum=1e-3,
            sampling_window=1e-3,
            max_transaction_delay=2.0,
            min_spike_height=0.10,
        )

        def median_refresh(batched: bool) -> float:
            dep = build_many_class(classes=12, quiet_fraction=0.75, seed=5,
                                   quiet_after=5.0, config=quiet_cfg)
            engine_cls = E2EProfEngine if batched else PerPairEngine
            engine = engine_cls(dep.config)
            samples = []
            engine.subscribe_metrics(lambda now, res, s: samples.append(s))
            engine.attach(dep.topology)
            dep.run_until(28.0)
            engine.detach()
            steady = sorted(s.refresh_seconds for s in samples[4:])
            return steady[len(steady) // 2]

        serial = min(median_refresh(batched=False) for _ in range(2))
        batched = min(median_refresh(batched=True) for _ in range(2))
        assert batched < serial * 1.25, (
            f"batched refresh regressed: {batched * 1000:.1f}ms vs "
            f"serial {serial * 1000:.1f}ms"
        )

    def test_batched_refresh_not_slower_on_dense_smeared_blocks(self):
        """Smeared sampling windows make blocks near-dense -- the sparse
        batch kernel's worst case (its cost scales with sample pairs, the
        RLE kernel's with run pairs). The engine's density dispatch must
        route those rows to the RLE kernel, so the batched engine may not
        lose to the legacy per-pair engine here either."""
        from repro.apps.manyclass import build_many_class
        from repro.baselines.legacy import PerPairEngine

        dense_cfg = PathmapConfig(
            window=6.0,
            refresh_interval=2.0,
            quantum=1e-3,
            sampling_window=50e-3,
            max_transaction_delay=0.5,
            min_spike_height=0.10,
        )

        def median_refresh(batched: bool) -> float:
            dep = build_many_class(classes=6, quiet_fraction=0.0, seed=9,
                                   config=dense_cfg)
            engine_cls = E2EProfEngine if batched else PerPairEngine
            engine = engine_cls(dep.config)
            samples = []
            engine.subscribe_metrics(lambda now, res, s: samples.append(s))
            engine.attach(dep.topology)
            dep.run_until(20.0)
            engine.detach()
            steady = sorted(s.refresh_seconds for s in samples[2:])
            return steady[len(steady) // 2]

        serial = min(median_refresh(batched=False) for _ in range(2))
        batched = min(median_refresh(batched=True) for _ in range(2))
        assert batched < serial * 1.25, (
            f"batched refresh regressed on dense blocks: "
            f"{batched * 1000:.1f}ms vs serial {serial * 1000:.1f}ms"
        )

    def test_simulation_throughput(self):
        """The DES substrate itself must stay fast enough for the long
        scenario tests (>= 20k events/second of wall clock)."""
        rubis = build_rubis(dispatch="affinity", seed=25, request_rate=20.0, config=CFG)
        started = time.perf_counter()
        rubis.run_until(60.0)
        elapsed = time.perf_counter() - started
        events = rubis.topology.sim.events_run
        assert events / elapsed > 20_000
