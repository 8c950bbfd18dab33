"""Self-tests of the benchmark (not part of the repository's test tiers).

Run from the repository root:

    python3 -m pytest -q e2ebench/test_bench.py

They use short runs, so they check names, determinism and equivalence,
never speed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from truth import BlockTruth  # noqa: E402

#: Requested seconds per workload: enough for a few measured refreshes.
SHORT = {"rubis_paper": 2.0, "manyclass_quiet": 0.4, "smeared_surge": 1.2}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_cli(workload: str, trace: int, tmp_path: Path) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", str(SHORT[workload]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_emitted_metrics():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_emits_exactly_the_declared_metrics(trace, tmp_path):
    spec = _spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    result = _run_cli("smeared_surge", trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_cli_refuses_to_run_without_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "e2ebench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / "e2ebench" / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (bare / "BENCHMARK.json").write_text(json.dumps(_spec()), encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "rubis_paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def _accuracy_and_work(result: dict) -> dict:
    metrics, report = result["metrics"], result["report"]
    return {
        "edge_f1": metrics["edge_f1"],
        "delay_err_p50": metrics["delay_err_p50"],
        "messages": report["messages"],
        "refreshes": report["refreshes"],
        "kernel_rows": report["routing"]["kernel_rows"],
        "skips": report["routing"]["skips"],
        "published": report["fingerprint"],
    }


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_same_seed_gives_identical_outputs(workload, tmp_path):
    first = bench.run_untraced(workload, 5, SHORT[workload], tmp_path, setups=1)
    second = bench.run_untraced(workload, 5, SHORT[workload], tmp_path, setups=1)
    assert first["correct"] and second["correct"]
    assert _accuracy_and_work(first) == _accuracy_and_work(second)


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_traced_run_publishes_the_untraced_graphs(workload, tmp_path):
    result = bench.run_traced(workload, 7, SHORT[workload], tmp_path)
    assert result["report"]["traced_equals_untraced"] is True
    assert result["report"]["missing_layers"] == []
    assert result["correct"] is True


def test_block_truth_matches_the_simulator_recorder():
    from repro import build_rubis
    from repro.apps.rubis import RUBIS_ANALYSIS_CONFIG

    rubis = build_rubis(dispatch="round_robin", seed=2, request_rate=10.0,
                        config=RUBIS_ANALYSIS_CONFIG)
    clients = {cls: node.node_id for cls, node in rubis.clients.items()}
    truth = BlockTruth(rubis.topology.fabric, {cls: "WS" for cls in clients},
                       clients.values(), 60.0)
    rubis.run_until(185.0)
    for cls in clients:
        for since, until in ((0.0, 60.0), (0.0, 180.0), (60.0, 180.0)):
            expected = rubis.ground_truth.traversed_edges(cls, since, until)
            assert truth.traversed_edges(cls, since, until) == expected
            for edge in expected:
                assert math.isclose(
                    truth.mean_edge_delay(cls, edge, since, until),
                    rubis.ground_truth.mean_edge_delay(cls, edge, since, until),
                    rel_tol=1e-9, abs_tol=1e-12,
                )


def test_tail_percentile_leaves_ten_samples_above():
    assert bench.tail_percentile(30) == pytest.approx(66.666, abs=1e-2)
    assert bench.tail_percentile(100) == 90.0
    walls = [float(i) for i in range(1, 31)]
    assert bench.refresh_stats(walls)["tail_ms"] == 20e3
