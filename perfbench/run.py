#!/usr/bin/env python3
"""Run one workload of the layered ``llp`` benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload sssp-ptwb --seed 1 --seconds 42 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` makes the separate traced run that gives the per-layer metrics and
writes its spans under ``perfbench/out/``.  The metric names, units and
directions come from ``BENCHMARK.json``.  Earlier lines of standard
output describe the run; the last line is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402


def load_units(section: str) -> dict:
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny runs the same workload on a small instance, for smoke tests",
    )
    args = parser.parse_args(argv)

    load_start = os.getloadavg()
    if args.trace:
        units = load_units("per_layer")
        checker, metrics, info = harness.run_traced(
            args.workload, args.seed, args.seconds, args.size,
            span_dir=harness.ROOT / "perfbench" / "out",
        )[:3]
        correct = (checker.correct and info["traced_equals_untraced"]
                   and info["counters_match_stats"])
    else:
        units = load_units("end_to_end")
        checker, metrics, info = harness.run_untraced(
            args.workload, args.seed, args.seconds, args.size
        )
        correct = checker.correct
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    env = harness.environment()
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "size": args.size, "env": env, "info": info}))
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
