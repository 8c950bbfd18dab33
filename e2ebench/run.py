"""End-to-end benchmark of the online E2EProf refresh cycle.

Run from the repository root:

    python3 e2ebench/run.py --workload rubis_paper --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer metrics of a separate traced run with the same
seed. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is ``{"report": ...}`` with the environment stamp, calibration, kernel
routing, ledger cross-check and correctness details, also written to
``e2ebench/out/``. The exit code is 1 when the published graphs fail the
correctness gate, 2 when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"
OUT = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro package under {SOURCES}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stamp = bench.environment_stamp()
    if args.trace:
        result = bench.run_traced(args.workload, args.seed, args.seconds, OUT)
        units = dict(bench.PER_LAYER)
    else:
        result = bench.run_untraced(args.workload, args.seed, args.seconds, OUT)
        units = dict(bench.END_TO_END)
    report = result.pop("report")
    report.pop("fingerprint", None)
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=stamp)
    _print_human(report)
    result["metrics"] = {
        name: {"value": _number(result["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**report, "result": result}, indent=1) + "\n",
                            encoding="utf-8")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _number(value):
    value = float(value) if not isinstance(value, int) else value
    return None if isinstance(value, float) and math.isnan(value) else value


def _print_human(report: dict) -> None:
    import bench

    routing = report["routing"]
    print(f"kernel rows {routing['kernel_rows']} skips={routing['skips']} "
          f"expected={routing['expected']}")
    for departure in routing["departures"]:
        print(f"routing departure: {departure}")
    if "ledger_crosscheck" in report:
        print("ledger cross-check (outside-timed vs RefreshLedger):")
        for line in bench.format_crosscheck(report["ledger_crosscheck"]):
            print("  " + line)
    for failure in report["gate_failures"]:
        print(f"gate failure: {failure}")
    for failure in report["refresh_failures"]:
        print(f"refresh failure: {failure}")


if __name__ == "__main__":
    sys.exit(main())
