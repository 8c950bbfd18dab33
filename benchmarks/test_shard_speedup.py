"""PERF -- process-sharded refresh vs the serial refresh.

Process sharding partitions whole correlator groups by service class
across worker processes -- block shipment rides
`multiprocessing.shared_memory`, so workers read the columnar arrays
zero-copy -- and only the tiny per-shard pathmap partials cross back,
so the Python halves of correlator upkeep and the pathmap DFS run in
parallel too. (The removed thread-pool mode never beat serial: see
docs/PERFORMANCE.md.)

Gate: on the dense 40-class workload (every class active, correlate
stage dominant) with >= 4 physical lanes, the process-sharded refresh's
median latency beats serial by >= 2x. The comparison is meaningless on
fewer cores (the workers time-slice the same CPUs), so the gate skips
there -- `tools/bench_shards.py` still records honest numbers with the
core count attached.

Results land in ``benchmarks/results/shard_speedup.txt``.
"""

import os
import pathlib
import sys

import pytest

from repro.analysis.render import render_comparison_table

from conftest import write_result

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

from bench_shards import best_of  # noqa: E402

CLASSES = 40
SEED = 7
END_TIME = 30.0
LANES = 4
REPEATS = 2

pytestmark = pytest.mark.slow


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="process-over-serial speedup needs >= 4 cores to manifest",
)
def test_processes_beat_serial_by_2x_on_dense_workload():
    modes = {
        "serial": dict(shards=0),
        f"processes-{LANES}": dict(shards=LANES),
    }
    results = {}
    for name, mode in modes.items():
        results[name] = best_of(
            REPEATS, classes=CLASSES, seed=SEED, end_time=END_TIME, **mode
        )

    rows = [
        (
            name,
            f"{r['p50_seconds'] * 1000:.1f}",
            f"{r['p95_seconds'] * 1000:.1f}",
            str(r["correlators"]),
        )
        for name, r in results.items()
    ]
    table = render_comparison_table(
        ("mode", "p50 ms", "p95 ms", "correlators"), rows
    )
    write_result("shard_speedup.txt", table)

    serial = results["serial"]["p50_seconds"]
    procs = results[f"processes-{LANES}"]["p50_seconds"]
    speedup = serial / procs
    print(f"processes over serial: {speedup:.2f}x on {os.cpu_count()} cores")
    assert speedup >= 2.0, (
        f"process sharding must halve the dense-workload refresh p50: "
        f"serial={serial * 1000:.1f}ms processes={procs * 1000:.1f}ms "
        f"({speedup:.2f}x)"
    )
