"""Benchmark the sharded refresh: serial vs worker processes.

Drives N engine refreshes over a dense many-class topology in two
modes -- ``serial`` (``shards=0``) and ``processes`` (``shards=N``:
consistent-hash correlator shards over ``multiprocessing.shared_memory``)
-- and reports p50/p95 refresh latencies plus the process-over-serial
speedup as JSON. Run from the repository root:

    PYTHONPATH=src python tools/bench_shards.py           # full workload
    PYTHONPATH=src python tools/bench_shards.py --quick   # CI-sized

Results merge into the ``shards`` section of ``BENCH_refresh.json``
(override with ``--output``); ``benchmarks/test_shard_speedup.py``
gates the speedup on the same machinery. The ``cores`` field records
the machine the numbers came from -- process sharding needs spare cores
to beat serial, and the gate skips below four.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.apps.manyclass import build_many_class  # noqa: E402
from repro.config import PathmapConfig  # noqa: E402
from repro.core.engine import E2EProfEngine  # noqa: E402

from bench_refresh import environment_stamp  # noqa: E402

#: Analysis parameters for the dense workload: 2 s blocks, three-block
#: window, 2 s transaction-delay bound. Every class stays active
#: (``quiet_fraction=0``), so the correlate stage dominates each refresh
#: -- the regime process sharding targets.
BENCH_SHARDS_CONFIG = PathmapConfig(
    window=6.0,
    refresh_interval=2.0,
    quantum=1e-3,
    sampling_window=1e-3,
    max_transaction_delay=2.0,
    min_spike_height=0.10,
)

#: Refreshes discarded from the front of every run (correlator warmup).
WARMUP_REFRESHES = 4


def run_mode(
    shards: int,
    classes: int,
    seed: int,
    end_time: float,
    request_rate: float = 20.0,
) -> dict:
    """One deployment + engine run; returns per-refresh latency stats."""
    deployment = build_many_class(
        classes=classes,
        quiet_fraction=0.0,
        seed=seed,
        request_rate=request_rate,
        quiet_after=end_time,
        config=BENCH_SHARDS_CONFIG,
    )
    engine = E2EProfEngine(deployment.config, shards=shards)
    samples = []
    engine.subscribe_metrics(lambda now, result, sample: samples.append(sample))
    started = time.perf_counter()
    engine.attach(deployment.topology)
    deployment.run_until(end_time)
    engine.detach()
    wall = time.perf_counter() - started
    measured = samples[WARMUP_REFRESHES:]
    if not measured:
        raise RuntimeError(
            f"no refreshes past warmup (end_time={end_time} too short)"
        )
    latencies = sorted(s.refresh_seconds for s in measured)
    last = measured[-1]
    return {
        "refreshes": len(measured),
        "p50_seconds": statistics.median(latencies),
        "p95_seconds": latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))],
        "max_seconds": latencies[-1],
        "mean_seconds": statistics.fmean(latencies),
        "correlators": last.correlators,
        "wall_seconds": wall,
    }


def best_of(repeats: int, **kwargs) -> dict:
    """Keep the run with the lowest median latency over ``repeats``."""
    runs = [run_mode(**kwargs) for _ in range(repeats)]
    return min(runs, key=lambda r: r["p50_seconds"])


def run_benchmark(
    classes: int, seed: int, end_time: float, lanes: int, repeats: int
) -> dict:
    modes = {
        "serial": dict(shards=0),
        f"processes-{lanes}": dict(shards=lanes),
    }
    results = {}
    for name, mode in modes.items():
        results[name] = best_of(
            repeats, classes=classes, seed=seed, end_time=end_time, **mode
        )
        print(
            f"{name:14s} p50={results[name]['p50_seconds'] * 1000:7.1f}ms "
            f"p95={results[name]['p95_seconds'] * 1000:7.1f}ms "
            f"correlators={results[name]['correlators']}",
            flush=True,
        )
    procs = results[f"processes-{lanes}"]["p50_seconds"]
    serial = results["serial"]["p50_seconds"]
    return {
        "workload": {
            "classes": classes,
            "quiet_fraction": 0.0,
            "seed": seed,
            "end_time": end_time,
            "request_rate": 20.0,
            "lanes": lanes,
            "repeats": repeats,
            "config": {
                "window": BENCH_SHARDS_CONFIG.window,
                "refresh_interval": BENCH_SHARDS_CONFIG.refresh_interval,
                "quantum": BENCH_SHARDS_CONFIG.quantum,
                "max_transaction_delay": BENCH_SHARDS_CONFIG.max_transaction_delay,
            },
        },
        "cores": os.cpu_count(),
        "environment": environment_stamp(),
        "modes": results,
        "processes_over_serial": serial / procs if procs else float("inf"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized workload: fewer classes, one repeat per mode",
    )
    parser.add_argument("--classes", type=int, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--lanes",
        type=int,
        default=4,
        help="shard processes to compare against serial (default 4)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_refresh.json"),
        help="JSON file whose 'shards' section receives the results",
    )
    args = parser.parse_args(argv)
    if args.quick:
        classes = args.classes or 12
        repeats = args.repeats or 1
        end_time = 18.0
    else:
        classes = args.classes or 40
        repeats = args.repeats or 2
        end_time = 30.0
    doc = run_benchmark(
        classes=classes,
        seed=args.seed,
        end_time=end_time,
        lanes=args.lanes,
        repeats=repeats,
    )
    merged = {}
    if args.output.exists():
        merged = json.loads(args.output.read_text(encoding="utf-8"))
    merged["shards"] = doc
    args.output.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")
    print(
        f"processes over serial: {doc['processes_over_serial']:.2f}x "
        f"({doc['cores']} cores)"
    )
    print(f"[written to {args.output}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
