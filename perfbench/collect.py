#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize the spread.

Usage, from the repository root::

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/out/set1.json
    python3 perfbench/collect.py --workloads knap-bag --seeds 1-5 --trace 1

Each run is ``perfbench/run.py`` in its own process, one after another.
For every end-to-end metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  The output JSON keeps
every run's description line and result line, so it can be committed as
one point of the benchmark trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return {"wall_s": wall, "describe": json.loads(lines[0]), "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the runs and the summary as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_one(workload, seed, seconds, args.trace)
            res = run["result"]
            print(f"{workload} seed={seed} wall={run['wall_s']:.1f}s correct={res['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
            runs.append(run)
        names = runs[0]["result"]["metrics"]
        summary = {
            name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
            for name in names
        }
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] > bound / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"  {name:28s} median={s['median']:.6g} spread={s['spread']:.4f}"
                  + (f" bound={bound}" if bound is not None else "") + flag)
        report["workloads"][workload] = {
            "all_correct": all(r["result"]["correct"] for r in runs),
            "summary": summary,
            "runs": runs,
        }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0 if all(w["all_correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
