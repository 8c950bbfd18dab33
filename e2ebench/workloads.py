"""The benchmark's three workloads: deployment, engine and expected output.

Every workload is an open-loop Poisson arrival process in simulated time,
run in one process on the default serial engine. ``build(seed, scratch)``
returns a :class:`Deployment` that is wired and attached but has not run.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional

from repro import ChangeDetector, E2EProfEngine, PathmapConfig, TransportConfig, build_rubis
from repro.apps.faults import staircase_delay
from repro.apps.manyclass import build_many_class
from repro.apps.rubis import EXPECTED_ROUND_ROBIN_EDGES, RUBIS_ANALYSIS_CONFIG
from repro.lake import TraceLake
from repro.tracing.collector import TraceCollector

from truth import BlockTruth


@dataclasses.dataclass(frozen=True)
class ServiceClass:
    """One service class and what its published graph must show."""

    name: str
    client: str
    front_end: str
    #: Edges every published graph of an active class must contain.
    required: FrozenSet[tuple]
    #: Simulated time the class stops sending (None: never); graphs whose
    #: window starts after ``silent_after`` must be empty.
    silent_after: Optional[float] = None


@dataclasses.dataclass
class Deployment:
    topology: object
    engine: E2EProfEngine
    truth: BlockTruth
    classes: List[ServiceClass]
    #: Capture archive (rubis_paper only): resident records are a layer metric.
    capture_sink: Optional[TraceCollector] = None

    def run_until(self, end_time: float) -> None:
        self.topology.run_until(end_time)

    def close(self) -> None:
        self.engine.close()


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: PathmapConfig
    #: Refreshes run during set-up: those whose window is not yet full
    #: (and, for manyclass_quiet, those that still see the active phase).
    warmup_refreshes: int
    #: Measured refreshes per requested second. Fixed, so a seed always
    #: gives the same work: chosen so one refresh cycle (simulation plus
    #: refresh) takes about 1/pace seconds on a 2-core x86 box.
    pace: float
    #: Expected kernel routing, for the routing report.
    regime: str
    build: Callable[[int, Path], Deployment]


def _rubis(seed: int, scratch: Path) -> Deployment:
    config = RUBIS_ANALYSIS_CONFIG
    rubis = build_rubis(dispatch="round_robin", seed=seed, request_rate=10.0, config=config)
    # The Figure 7 fault: EJB2 slows by 15 ms every 3 minutes from t=120 s.
    rubis.ejbs["EJB2"].set_extra_delay(staircase_delay(step=0.015, interval=180.0, start=120.0))
    # The engine gets the lake too, so it checkpoints it once per refresh
    # and persists correlator summaries on eviction.
    lake = TraceLake(scratch)
    sink = TraceCollector(retention=config.retention_horizon, lake=lake)
    engine = E2EProfEngine(config, transport=TransportConfig(), capture_sink=sink, lake=lake)
    ChangeDetector(absolute_threshold=0.008, relative_threshold=0.15).subscribe_to(engine)
    clients = {cls: node.node_id for cls, node in rubis.clients.items()}
    truth = BlockTruth(rubis.topology.fabric, {cls: "WS" for cls in clients},
                       clients.values(), config.refresh_interval)
    classes = [
        ServiceClass(cls, client, "WS", frozenset(EXPECTED_ROUND_ROBIN_EDGES[cls]))
        for cls, client in sorted(clients.items())
    ]
    engine.attach(rubis.topology)
    return Deployment(rubis.topology, engine, truth, classes, capture_sink=sink)


def _many_class(classes: int, quiet_fraction: float, rate: float, config: PathmapConfig):
    quiet_after = 5.0 if quiet_fraction else None

    def build(seed: int, scratch: Path) -> Deployment:
        deployment = build_many_class(
            classes=classes, quiet_fraction=quiet_fraction, seed=seed,
            request_rate=rate, quiet_after=quiet_after, config=config,
        )
        engine = E2EProfEngine(config)
        specs = []
        fronts: Dict[str, str] = {}
        for i in range(classes):
            name = f"K{i}"
            fronts[name] = f"FE{i}"
            quiet = name in deployment.quiet_classes
            specs.append(ServiceClass(
                name, f"C{i}", f"FE{i}",
                frozenset({(f"C{i}", f"FE{i}"), (f"FE{i}", f"AP{i}"), (f"AP{i}", "DB")}),
                silent_after=quiet_after if quiet else None,
            ))
        truth = BlockTruth(deployment.topology.fabric, fronts,
                           [s.client for s in specs], config.refresh_interval)
        engine.attach(deployment.topology)
        return Deployment(deployment.topology, engine, truth, specs)

    return build


#: tools/bench_refresh.py settings: 2 s blocks, a three-block window,
#: 1 ms quanta and sampling window, T_u = 2 s.
QUIET_CONFIG = PathmapConfig(
    window=6.0, refresh_interval=2.0, quantum=1e-3, sampling_window=1e-3,
    max_transaction_delay=2.0, min_spike_height=0.10,
)

#: Same geometry with a 20 ms sampling window: every message smears over
#: 20 quanta, so blocks of busy classes are nearly full.
SMEARED_CONFIG = dataclasses.replace(QUIET_CONFIG, sampling_window=20e-3)

WORKLOADS: Dict[str, Workload] = {
    "rubis_paper": Workload(
        "rubis_paper", RUBIS_ANALYSIS_CONFIG, warmup_refreshes=2, pace=1.5,
        regime="fft_batch", build=_rubis,
    ),
    "manyclass_quiet": Workload(
        # 30 classes, 27 of them quiet after 5 s; set-up covers every
        # refresh whose window reaches back into the active phase, plus
        # the first all-quiet one.
        "manyclass_quiet", QUIET_CONFIG, warmup_refreshes=6, pace=10.0,
        regime="sparse_batch+quiet_skips",
        build=_many_class(classes=30, quiet_fraction=0.9, rate=20.0, config=QUIET_CONFIG),
    ),
    "smeared_surge": Workload(
        # 4 classes, all busy at 30 req/s. More classes make each refresh
        # longer and its memory-bound RLE scatter kernels noisier on a
        # shared machine, without changing where rows route.
        "smeared_surge", SMEARED_CONFIG, warmup_refreshes=2, pace=7.0,
        regime="rle",
        build=_many_class(classes=4, quiet_fraction=0.0, rate=30.0, config=SMEARED_CONFIG),
    ),
}
