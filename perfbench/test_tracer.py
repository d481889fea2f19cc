"""Self-tests of the benchmark and its tracer, on tiny instances.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in BENCH["workloads"]]


def test_workload_table_matches_benchmark_json():
    assert sorted(NAMES) == sorted(harness.WORKLOADS)
    for w in harness.WORKLOADS.values():
        assert w.threads <= 2


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_matches_oracle_and_untraced_checksum(name):
    checker, metrics, info, totals, stats = harness.run_traced(
        name, seed=5, seconds=0, size="tiny"
    )
    assert checker.attempted == 2 and checker.failed == 0
    # Both the untraced and the traced solve produced the oracle's vector.
    assert checker.correct and info["traced_equals_untraced"]
    assert sorted(metrics) == sorted(m["name"] for m in BENCH["per_layer"])
    # The recorder hook sees exactly the successful atomic updates.
    assert totals["cell_changes"] == totals["atomic_success"] > 0
    assert metrics["problems.ensure_calls"] > 0
    assert metrics["solvers.drain_s"] > 0
    assert metrics["worklists.pushes"] > 0


def test_knap_bag_traced_counters_equal_stats_exactly():
    checker, metrics, info, totals, stats = harness.run_traced(
        "knap-bag", seed=2, seconds=1, size="tiny"
    )
    assert harness.WORKLOADS["knap-bag"].threads == 1
    assert totals["checks"] == stats["predicate_evals"] == totals["calls"]["ensure"]
    assert totals["advances"] == stats["advances"] > 0
    assert totals["failed"] == stats["failed_replaces"]
    # The default ensure scans the tile in is_forbidden, then again in advance.
    assert totals["calls"]["is_forbidden"] == totals["checks"]
    assert totals["calls"]["advance"] == totals["found"]
    assert info["counters_match_stats"] and info["iterations"] > 1


def test_counters_exact_under_forced_thread_switching():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        checker, metrics, info, totals, stats = harness.run_traced(
            "sssp-ptwb", seed=3, seconds=0.5, size="tiny"
        )
    finally:
        sys.setswitchinterval(old)
    assert checker.correct
    # Every pushed item is popped exactly once and every pop is checked.
    assert totals["pushes"] == totals["pops"]
    assert totals["pops"] == totals["checks"]
    # ShortestPaths advances through exactly one successful monotone_min.
    assert totals["advances"] == totals["atomic_success"] == totals["cell_changes"]


def test_allpar_checks_count_full_passes_and_null_pushes():
    checker, metrics, info, totals, stats = harness.run_traced(
        "bfs-allpar", seed=1, seconds=0, size="tiny"
    )
    size = int(info["spec"].split("n=")[1].split(",")[0])
    assert info["iterations"] == 1
    assert totals["checks"] % size == 0 and metrics["solvers.passes"] >= 2
    assert metrics["worklists.pops"] == 0 and metrics["problems.seed_items"] == 0
    # Pushes into the solver's discarding worklist are still traced.
    assert metrics["worklists.pushes"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name):
    checker, metrics, info = harness.run_untraced(name, seed=4, seconds=0.2, size="tiny")
    assert checker.correct and checker.attempted >= 1
    assert sorted(metrics) == sorted(m["name"] for m in BENCH["end_to_end"])
    assert all(value > 0 for value in metrics.values())
    assert metrics["match_ratio"] == 1.0
    assert len(info["fingerprint"]) == 16


def test_oracle_check_counts_a_wrong_vector_as_failed():
    w = harness.WORKLOADS["knap-bag"]
    instance, adapter = harness.setup(w, w.tiny_spec, 1)[:2]
    checker = harness.Checker()
    checker.solve(adapter, harness.SolverConfig(strategy=w.strategy, threads=w.threads))
    wrong = checker.pending[0].copy()
    wrong[-1] += 1
    checker.pending.append(wrong)
    checker.attempted += 1
    seen = checker.check(w, instance)
    assert checker.attempted == 2 and checker.failed == 1 and not checker.correct
    assert len(seen) == 2 and len(checker.oracle_s) == 1


def test_same_seed_same_fingerprint():
    a = harness.run_untraced("knap-bag", seed=9, seconds=0.01, size="tiny")[2]
    b = harness.run_untraced("knap-bag", seed=9, seconds=0.01, size="tiny")[2]
    c = harness.run_untraced("knap-bag", seed=10, seconds=0.01, size="tiny")[2]
    assert a["fingerprint"] == b["fingerprint"] != c["fingerprint"]
    assert a["oracle_checksums"][0] == b["oracle_checksums"][0]


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_last_line_is_the_result_object(trace, capsys):
    assert run.main(["--workload", "bfs-allpar", "--seed", "2", "--seconds", "0.1",
                     "--trace", str(trace), "--size", "tiny"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH[section]
    }


def test_fails_without_program_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "knap-bag", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
