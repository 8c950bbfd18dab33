"""Measure, grade and explain the online refresh cycle of one workload.

One refresh cycle is: discrete-event simulation -> tracer capture ->
block build -> [transport + capture archive + lake] -> correlate ->
pathmap DFS -> publish. :func:`run_untraced` gives the end-to-end metrics
(tracing off, set-up repeated and its median taken); :func:`run_traced`
repeats the measured phase once untraced and once with every layer
wrapped (:mod:`layers`), and gives the per-layer metrics and the tracing
overhead. Grading against simulator ground truth runs after the measured
phase, after peak RSS has been read.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.ledger import CORRELATION_KERNELS
from repro.scenarios.scoring import score_refresh

from layers import OUTSIDE_STAGES, LayerTracer, SpanSummary
from workloads import WORKLOADS, Deployment, Workload

#: (name, unit) of every end-to-end metric, as BENCHMARK.json lists them.
END_TO_END = (
    ("refresh_ms_p50", "ms"),
    ("refresh_ms_tail", "ms"),
    ("msgs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("edge_f1", "ratio"),
    ("delay_err_p50", "ratio"),
)

#: (name, unit) of every per-layer metric, as BENCHMARK.json lists them.
PER_LAYER = (
    ("simulation.self_s", "s"),
    ("simulation.msgs", "count"),
    ("tracer.observe.calls", "count"),
    ("tracer.observe.s", "s"),
    ("collector.ingest_point.calls", "count"),
    ("collector.ingest_point.s", "s"),
    ("tracer.flush_block.calls", "count"),
    ("tracer.flush_block.s", "s"),
    ("transport.encode.s", "s"),
    ("transport.receive.s", "s"),
    ("transport.frames", "count"),
    ("wire.bytes", "bytes"),
    ("transport.gaps", "count"),
    ("collector.ingest_batch.calls", "count"),
    ("collector.ingest_batch.s", "s"),
    ("collector.ingest_batch.records", "count"),
    ("collector.resident_records", "count"),
    ("correlation.sparse_batch.rows", "count"),
    ("correlation.sparse_batch.s", "s"),
    ("correlation.rle.rows", "count"),
    ("correlation.rle.s", "s"),
    ("correlation.fft_batch.rows", "count"),
    ("correlation.fft_batch.s", "s"),
    ("correlation.legacy_pair.rows", "count"),
    ("correlation.legacy_pair.s", "s"),
    ("correlation.spectrum_cache.hit_ratio", "ratio"),
    ("incremental.append.calls", "count"),
    ("incremental.append.s", "s"),
    ("incremental.correlators", "count"),
    ("incremental.quiet_skip_ratio", "ratio"),
    ("pathmap.analyze.s", "s"),
    ("spikes.detect.calls", "count"),
    ("spikes.detect.s", "s"),
    ("pathmap.spikes", "count"),
    ("engine.publish.s", "s"),
    ("engine.refresh.s", "s"),
    ("engine.refresh.self_s", "s"),
    ("lake.spill.calls", "count"),
    ("lake.spill.s", "s"),
    ("lake.spill.bytes", "bytes"),
    ("lake.checkpoint.calls", "count"),
    ("lake.checkpoint.s", "s"),
    ("ledger.ingest.s", "s"),
    ("ledger.correlate.s", "s"),
    ("ledger.dfs.s", "s"),
    ("ledger.publish.s", "s"),
    ("ledger.spill.s", "s"),
    ("ledger.sparse_batch.rows", "count"),
    ("ledger.rle.rows", "count"),
    ("ledger.fft_batch.rows", "count"),
    ("ledger.legacy_pair.rows", "count"),
    ("bench.truth.s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
)

LEDGER_STAGES = ("ingest", "correlate", "dfs", "publish", "spill")


#: CPU seconds of one :class:`Clock` slice on the reference machine (a
#: 2-core x86-64 VM, Python 3.11), so calibrated times read as CPU times
#: of that machine.
REFERENCE_SLICE_S = 0.0014


class Clock:
    """The benchmark's clock: process CPU time, calibrated to a reference
    machine speed measured right where the work runs.

    The engine runs serially in this one process, so CPU time is the wall
    time an operation takes when the process is not preempted; the wall
    clock of a shared VM also counts time taken by other tenants. CPU
    time is not enough on its own: the speed of the VM drifts by up to
    1.8x within seconds as other tenants load the host, and interleaved
    timings of a pure-Python loop and an RLE kernel moved together
    (correlation 0.96 over 1.5 s windows). So every :meth:`mark` runs a
    fixed pure-Python slice and scales the CPU time since the previous
    mark by ``REFERENCE_SLICE_S`` over the mean of the slices at both
    ends. The slice does not depend on the program, so a slower program
    still reads slower; slices are excluded from every interval.
    Uncalibrated clocks (traced runs) report raw CPU time.
    """

    def __init__(self, calibrated: bool = True) -> None:
        self.calibrated = calibrated
        #: Calibrated and raw CPU seconds over all marked intervals.
        self.total = 0.0
        self.raw = 0.0
        self.slices: List[float] = []
        self._last_slice = self._slice() if calibrated else 0.0
        self._since = time.process_time()

    def _slice(self) -> float:
        started = time.process_time()
        total, table = 0, {}
        for i in range(8_000):
            total += i * i % 7
            table[i & 255] = total
        elapsed = time.process_time() - started
        self.slices.append(elapsed)
        return elapsed

    def mark(self) -> Tuple[float, float]:
        """Close the interval since the previous mark: (calibrated, raw)
        CPU seconds."""
        raw = time.process_time() - self._since
        scaled = raw
        if self.calibrated:
            current = self._slice()
            scaled = raw * 2.0 * REFERENCE_SLICE_S / (self._last_slice + current)
            self._last_slice = current
        self.total += scaled
        self.raw += raw
        self._since = time.process_time()
        return scaled, raw


class RefreshProbe:
    """Times every refresh of one engine from outside and keeps what it
    published, while ``active``.

    A refresh fails when it raises (the error is kept and the simulation
    goes on), when it raises ``engine.subscriber_errors``, or when it
    takes longer than the refresh interval dW (in wall time).
    """

    def __init__(self, engine, deadline: float, clock: Clock) -> None:
        self.active = False
        self.deadline = deadline
        #: Calibrated CPU, raw CPU and wall seconds of every measured refresh.
        self.cpu: List[float] = []
        self.raw_cpu: List[float] = []
        self.walls: List[float] = []
        self.failures: List[str] = []
        #: (time, {(client, root): ServiceGraph}) per measured refresh;
        #: graphs of a raising refresh are None.
        self.published: List[Tuple[float, Optional[dict]]] = []
        self.kernel_rows = {kernel: 0 for kernel in CORRELATION_KERNELS}
        self.stage_seconds = {stage: 0.0 for stage in LEDGER_STAGES}
        self.skips = 0
        refresh = engine.refresh

        def timed(now):
            errors = engine.subscriber_errors
            clock.mark()
            started = time.perf_counter()
            try:
                result = refresh(now)
            except Exception:
                if not self.active:
                    raise
                self.failures.append(f"t={now:g}: {traceback.format_exc(limit=3)}")
                self.published.append((now, None))
                return None
            wall = time.perf_counter() - started
            cpu, raw = clock.mark()
            if self.active:
                self._record(now, (cpu, raw, wall), result, engine.subscriber_errors - errors)
            return result

        engine.refresh = timed

    def _record(self, now, times, result, new_errors) -> None:
        cpu, raw, wall = times
        self.cpu.append(cpu)
        self.raw_cpu.append(raw)
        self.walls.append(wall)
        self.published.append((now, dict(result.graphs)))
        if new_errors:
            self.failures.append(f"t={now:g}: {new_errors} subscriber error(s)")
        elif wall > self.deadline:
            self.failures.append(f"t={now:g}: refresh took {wall:.3f} s > dW {self.deadline:g} s")
        ledger = result.ledger
        for kernel in self.kernel_rows:
            self.kernel_rows[kernel] += ledger.kernel(kernel).rows
        for stage in self.stage_seconds:
            self.stage_seconds[stage] += ledger.stage_seconds(stage)
        self.skips += ledger.skips


@dataclasses.dataclass
class Phase:
    """One set-up plus measured phase of a workload (times in seconds:
    calibrated CPU unless named raw or wall)."""

    setup_s: float
    setup_raw_s: float
    cpu_s: float
    raw_cpu_s: float
    wall_s: float
    msgs: int
    probe: RefreshProbe
    deployment: Deployment
    peak_rss_mb: float


def refresh_count(workload: Workload, seconds: float) -> int:
    """Measured refreshes for a requested duration (a function of the
    duration alone, so equal arguments always give equal work)."""
    return max(1, round(seconds * workload.pace))


#: Target CPU seconds between two clock marks: the simulation advances in
#: steps of about this much work, so the calibration follows the drift.
MARK_INTERVAL_S = 0.07


def _advance(deployment: Deployment, clock: Clock, start: float, end: float, steps: int) -> None:
    """Run the simulation from ``start`` to ``end`` in ``steps`` equal
    steps, marking the clock after each (the events run are the same as
    in one ``run_until(end)``)."""
    for k in range(1, steps + 1):
        deployment.run_until(end if k == steps else start + (end - start) * k / steps)
        clock.mark()


def run_phase(workload: Workload, seed: int, refreshes: int, scratch: Path, clock: Clock,
              tracer: Optional[LayerTracer] = None) -> Phase:
    """Build and warm up one deployment (timed as set-up), then run
    ``refreshes`` refresh cycles (timed as the measured phase)."""
    config = workload.config
    steps = max(1, round(1.0 / (workload.pace * MARK_INTERVAL_S)))
    gc.collect()
    clock.mark()
    total, raw = clock.total, clock.raw
    deployment = workload.build(seed, scratch)
    probe = RefreshProbe(deployment.engine, config.refresh_interval, clock)
    clock.mark()
    warmup_end = workload.warmup_refreshes * config.refresh_interval
    _advance(deployment, clock, 0.0, warmup_end, workload.warmup_refreshes * steps)
    setup_s, setup_raw = clock.total - total, clock.raw - raw

    fabric = deployment.topology.fabric
    sent = fabric.messages_sent
    probe.active = True
    if tracer is not None:
        tracer.active = True
    total, raw = clock.total, clock.raw
    started = time.perf_counter()
    _advance(deployment, clock, warmup_end, warmup_end + refreshes * config.refresh_interval,
             refreshes * steps)
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.active = False
    probe.active = False
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Phase(setup_s, setup_raw, clock.total - total, clock.raw - raw, wall,
                 fabric.messages_sent - sent, probe, deployment, peak_rss)


# -- grading ------------------------------------------------------------------


@dataclasses.dataclass
class Grade:
    edge_f1: float
    delay_err_p50: float
    cells: int
    gate_failures: List[str]


def grade(workload: Workload, phase: Phase) -> Grade:
    """Score every (refresh, class) cell against ground truth and check
    the expected edge sets (the correctness gate)."""
    window = workload.config.window
    truth = phase.deployment.truth
    f1s: List[float] = []
    errors: List[float] = []
    failures: List[str] = []
    for now, graphs in phase.probe.published:
        for cls in phase.deployment.classes:
            graph = None if graphs is None else graphs.get((cls.client, cls.front_end))
            score = score_refresh(graph, truth, cls.name, cls.client, now - window, now)
            f1s.append(score.f1)
            errors.extend(score.delay_errors)
            problem = _gate(cls, graph, graphs is None, now - window)
            if problem:
                failures.append(f"t={now:g} {cls.name}: {problem}")
    return Grade(
        edge_f1=statistics.fmean(f1s) if f1s else 0.0,
        delay_err_p50=statistics.median(errors) if errors else float("nan"),
        cells=len(f1s),
        gate_failures=failures,
    )


def _gate(cls, graph, no_result: bool, window_start: float) -> Optional[str]:
    if no_result:
        return "refresh published nothing"
    edges = graph.edge_set() if graph is not None else set()
    if cls.silent_after is not None and window_start >= cls.silent_after:
        return f"quiet class published {sorted(edges)}" if edges else None
    missing = cls.required - edges
    return f"missing {sorted(missing)}" if missing else None


def fingerprint(published) -> list:
    """Everything a refresh published, as plain comparable data."""
    out = []
    for now, graphs in published:
        if graphs is None:
            out.append((now, None))
            continue
        out.append((now, sorted(
            (pair, sorted((edge.key, tuple(edge.delays)) for edge in graph.edges))
            for pair, graph in graphs.items()
        )))
    return out


# -- reports ------------------------------------------------------------------


#: Fewest samples for which "10 samples above" lies above the median.
MIN_TAIL_SAMPLES = 21


def tail_percentile(samples: int) -> float:
    """The highest percentile that leaves at least 10 samples above it
    (100, the maximum, when there are too few samples for that to lie
    above the median)."""
    return 100.0 * (samples - 10) / samples if samples >= MIN_TAIL_SAMPLES else 100.0


def refresh_stats(times: List[float]) -> Dict[str, float]:
    ordered = sorted(times)
    n = len(ordered)
    tail_index = n - 11 if n >= MIN_TAIL_SAMPLES else n - 1
    return {
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": ordered[tail_index] * 1e3,
        "tail_percentile": round(tail_percentile(n), 2),
        "samples": n,
    }


def routing_report(workload: Workload, probe: RefreshProbe) -> dict:
    """Rows per kernel from the published ledgers, and any departure
    from the workload's expected regime (reported, never failed)."""
    rows = dict(probe.kernel_rows)
    routed = rows["sparse_batch"] + rows["rle"] + rows["fft_batch"]
    departures = []
    if workload.regime == "fft_batch":
        if rows["fft_batch"] != routed:
            departures.append(f"{routed - rows['fft_batch']} of {routed} rows left fft_batch")
    elif workload.regime == "rle":
        if routed and rows["rle"] < 0.9 * routed:
            departures.append(f"only {rows['rle']} of {routed} rows on rle (expected >= 90%)")
    else:
        if rows["rle"] or rows["fft_batch"]:
            departures.append(f"{rows['rle']} rle and {rows['fft_batch']} fft_batch rows")
        if not probe.skips:
            departures.append("no quiet-edge skips")
    return {"expected": workload.regime, "kernel_rows": rows, "skips": probe.skips,
            "departures": departures}


def calibrate() -> Dict[str, float]:
    """A fixed pure-Python loop and a fixed numpy loop, median of 3 each,
    in CPU and wall seconds: raw context for comparing runs and machines."""
    def python_loop():
        total = 0
        for i in range(300_000):
            total += i * i % 7
        return total

    rng = np.random.default_rng(0)
    matrix = rng.random((192, 192))

    def numpy_loop():
        a = matrix
        for _ in range(10):
            a = np.fft.irfft(np.fft.rfft(a, axis=1), n=192, axis=1) @ matrix
            a /= np.abs(a).max()
        return a

    out = {}
    for name, fn in (("python_loop", python_loop), ("numpy_loop", numpy_loop)):
        cpu, wall = [], []
        for _ in range(3):
            cpu_started, wall_started = time.process_time(), time.perf_counter()
            fn()
            cpu.append(time.process_time() - cpu_started)
            wall.append(time.perf_counter() - wall_started)
        out[f"{name}_cpu_s"] = statistics.median(cpu)
        out[f"{name}_wall_s"] = statistics.median(wall)
    return out


def environment_stamp() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "calibration": calibrate(),
    }


# -- runs ---------------------------------------------------------------------


class Scratch:
    """Lake directories of one run, under the benchmark's output directory."""

    def __init__(self, root: Path) -> None:
        self.root = root / f"lake-{os.getpid()}"
        self._count = 0

    def next(self) -> Path:
        self._count += 1
        return self.root / str(self._count)

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _close(phase: Phase) -> None:
    phase.deployment.close()
    phase.deployment = None


def run_untraced(name: str, seed: int, seconds: float, out: Path, setups: int = 3) -> dict:
    """End-to-end metrics: ``setups`` set-ups (median reported), the last
    one measured."""
    workload = WORKLOADS[name]
    refreshes = refresh_count(workload, seconds)
    scratch = Scratch(out)
    clock = Clock()
    try:
        setup_times, setup_raw = [], []
        for _ in range(setups - 1):
            phase = run_phase(workload, seed, 0, scratch.next(), clock)
            setup_times.append(phase.setup_s)
            setup_raw.append(phase.setup_raw_s)
            _close(phase)
        phase = run_phase(workload, seed, refreshes, scratch.next(), clock)
        setup_times.append(phase.setup_s)
        setup_raw.append(phase.setup_raw_s)
        graded = grade(workload, phase)
        probe = phase.probe
        cpu = refresh_stats(probe.cpu) if probe.cpu else None
        metrics = {
            "refresh_ms_p50": cpu["p50_ms"] if cpu else float("nan"),
            "refresh_ms_tail": cpu["tail_ms"] if cpu else float("nan"),
            "msgs_per_s": phase.msgs / phase.cpu_s,
            "peak_rss_mb": phase.peak_rss_mb,
            "setup_s": statistics.median(setup_times),
            "edge_f1": graded.edge_f1,
            "delay_err_p50": graded.delay_err_p50,
        }
        report = {
            "refreshes": len(phase.probe.published),
            "refresh_cpu": cpu,
            "refresh_raw_cpu": refresh_stats(probe.raw_cpu) if probe.raw_cpu else None,
            "refresh_wall": refresh_stats(probe.walls) if probe.walls else None,
            "messages": phase.msgs,
            "measured_cpu_s": phase.cpu_s,
            "measured_raw_cpu_s": phase.raw_cpu_s,
            "measured_wall_s": phase.wall_s,
            "setup_cpu_s": setup_times,
            "setup_raw_cpu_s": setup_raw,
            "calibration_slices": len(clock.slices),
            "calibration_slice_median_s": statistics.median(clock.slices),
            "graded_cells": graded.cells,
            "gate_failures": graded.gate_failures[:20],
            "refresh_failures": phase.probe.failures[:20],
            "routing": routing_report(workload, phase.probe),
            "fingerprint": fingerprint(phase.probe.published),
        }
        _close(phase)
        return {
            "correct": not graded.gate_failures,
            "attempted": len(phase.probe.published),
            "failed": len(phase.probe.failures),
            "metrics": metrics,
            "report": report,
        }
    finally:
        scratch.remove()


def run_traced(name: str, seed: int, seconds: float, out: Path) -> dict:
    """Per-layer metrics: the measured phase once untraced and once with
    every layer wrapped, same seed; both must publish identical graphs."""
    workload = WORKLOADS[name]
    refreshes = refresh_count(workload, seconds)
    scratch = Scratch(out)
    try:
        plain = run_phase(workload, seed, refreshes, scratch.next(), Clock(calibrated=False))
        plain_print = fingerprint(plain.probe.published)
        plain_cpu, plain_wall, plain_probe = plain.cpu_s, plain.wall_s, plain.probe
        _close(plain)

        tracer = LayerTracer()
        with tracer:
            traced = run_phase(workload, seed, refreshes, scratch.next(), Clock(calibrated=False), tracer)
        summary = SpanSummary(tracer)
        spans_path = out / f"spans-{name}-seed{seed}.npz"
        tracer.save(spans_path)
        graded = grade(workload, traced)
        identical = fingerprint(traced.probe.published) == plain_print
        metrics = layer_metrics(summary, traced, plain_cpu)
        report = {
            "refreshes": len(traced.probe.published),
            "messages": traced.msgs,
            "wall_s": {"untraced": plain_wall, "traced": traced.wall_s},
            "spans": int(summary.calls.sum()),
            "spans_file": spans_path.name,
            "missing_layers": tracer.missing,
            "traced_equals_untraced": identical,
            "gate_failures": graded.gate_failures[:20],
            "refresh_failures": (plain_probe.failures + traced.probe.failures)[:20],
            "routing": routing_report(workload, traced.probe),
            "ledger_crosscheck": ledger_crosscheck(summary, traced.probe),
        }
        _close(traced)
        return {
            "correct": identical and not graded.gate_failures,
            "attempted": len(plain_probe.published) + len(traced.probe.published),
            "failed": len(plain_probe.failures) + len(traced.probe.failures),
            "metrics": metrics,
            "report": report,
        }
    finally:
        scratch.remove()


def layer_metrics(summary: SpanSummary, phase: Phase, untraced_cpu: float) -> Dict[str, float]:
    counts = summary.counts
    m: Dict[str, float] = {}

    def span(name):
        m[f"{name}.calls"], m[f"{name}.s"], _ = summary.total(name)

    m["simulation.self_s"] = summary.total("simulation")[2]
    m["simulation.msgs"] = phase.msgs
    span("tracer.observe")
    span("collector.ingest_point")
    span("tracer.flush_block")
    m["transport.encode.s"] = summary.total("transport.encode")[1]
    m["transport.receive.s"] = summary.total("transport.receive")[1]
    m["transport.frames"] = counts.get("transport.frames", 0)
    m["wire.bytes"] = counts.get("wire.bytes", 0)
    m["transport.gaps"] = counts.get("transport.gaps", 0)
    span("collector.ingest_batch")
    m["collector.ingest_batch.records"] = counts.get("collector.ingest_batch.records", 0)
    sink = phase.deployment.capture_sink
    m["collector.resident_records"] = sink.record_count() if sink is not None else 0
    m["correlation.sparse_batch.rows"] = counts.get("correlation.sparse_batch.rows", 0)
    m["correlation.sparse_batch.s"] = summary.total("correlation.sparse_batch")[1]
    m["correlation.rle.rows"] = summary.rle_rows
    m["correlation.rle.s"] = summary.rle_seconds
    m["correlation.fft_batch.rows"] = counts.get("correlation.fft_batch.rows", 0)
    m["correlation.fft_batch.s"] = summary.total("correlation.fft_batch")[1]
    m["correlation.legacy_pair.rows"] = summary.legacy_rows
    m["correlation.legacy_pair.s"] = summary.legacy_seconds
    hits = counts.get("correlation.spectrum_cache.hits", 0)
    lookups = hits + counts.get("correlation.spectrum_cache.misses", 0)
    m["correlation.spectrum_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    span("incremental.append")
    m["incremental.correlators"] = phase.deployment.engine.correlator_count
    skipped = counts.get("incremental.skipped", 0)
    computed = (counts.get("correlation.sparse_batch.rows", 0) + counts.get("correlation.fft_batch.rows", 0)
                + summary.rle_rows + summary.legacy_rows)
    m["incremental.quiet_skip_ratio"] = skipped / (skipped + computed) if skipped + computed else 0.0
    m["pathmap.analyze.s"] = summary.total("pathmap.analyze")[1]
    span("spikes.detect")
    m["pathmap.spikes"] = counts.get("pathmap.spikes", 0)
    m["engine.publish.s"] = summary.stages["publish"]
    _, refresh_s, refresh_self = summary.total("engine.refresh")
    m["engine.refresh.s"] = refresh_s
    m["engine.refresh.self_s"] = refresh_self
    span("lake.spill")
    m["lake.spill.bytes"] = counts.get("lake.spill.bytes", 0)
    span("lake.checkpoint")
    probe = phase.probe
    for stage in LEDGER_STAGES:
        m[f"ledger.{stage}.s"] = probe.stage_seconds[stage]
    for kernel in CORRELATION_KERNELS:
        m[f"ledger.{kernel}.rows"] = probe.kernel_rows[kernel]
    m["bench.truth.s"] = summary.total("bench.truth")[1]
    m["trace.untraced_s"] = untraced_cpu
    m["trace.traced_s"] = phase.cpu_s
    m["trace.overhead_s"] = phase.cpu_s - untraced_cpu
    return m


def ledger_crosscheck(summary: SpanSummary, probe: RefreshProbe) -> dict:
    """Outside-timed stage seconds and kernel rows beside the engine's
    own RefreshLedger figures, with the difference (outside - ledger)."""
    stages = {}
    for stage in (*OUTSIDE_STAGES, "publish"):
        outside = summary.stages[stage]
        ledger = probe.stage_seconds.get(stage, 0.0)
        stages[stage] = {"outside_s": outside, "ledger_s": ledger, "diff_s": outside - ledger}
    counts = summary.counts
    outside_rows = {
        "sparse_batch": counts.get("correlation.sparse_batch.rows", 0),
        "rle": summary.rle_rows,
        "fft_batch": counts.get("correlation.fft_batch.rows", 0),
        "legacy_pair": summary.legacy_rows,
    }
    kernels = {}
    for kernel in CORRELATION_KERNELS:
        outside = outside_rows.get(kernel, 0)
        ledger = probe.kernel_rows[kernel]
        kernels[kernel] = {"outside_rows": outside, "ledger_rows": ledger, "diff": outside - ledger}
    return {"stages": stages, "kernels": kernels}


def format_crosscheck(check: dict) -> List[str]:
    lines = [f"{'stage':<12}{'outside_s':>12}{'ledger_s':>12}{'diff_s':>12}"]
    for stage, row in check["stages"].items():
        lines.append(f"{stage:<12}{row['outside_s']:>12.4f}{row['ledger_s']:>12.4f}{row['diff_s']:>12.4f}")
    lines.append(f"{'kernel':<12}{'outside':>12}{'ledger':>12}{'diff':>12}")
    for kernel, row in check["kernels"].items():
        flag = "  <- mismatch" if row["diff"] else ""
        lines.append(f"{kernel:<12}{row['outside_rows']:>12}{row['ledger_rows']:>12}{row['diff']:>12}{flag}")
    return lines
