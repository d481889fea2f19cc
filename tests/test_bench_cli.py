"""Bench harness and the ``llp`` command line surface."""

import csv
import subprocess
import sys

import numpy as np
import pytest

from llp import bench
from llp.bench import (
    CSV_HEADER,
    cap_threads,
    fnv1a_64,
    run_matrix,
    run_verify,
    solution_checksum,
)
from llp.cli import main
from llp.problems import TransitiveClosure, adapter_for
from llp.problems.shortest_paths import ShortestPaths
from llp.solvers import STRATEGIES


def test_fnv1a_reference_vectors():
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_solution_checksum_tracks_content():
    a = solution_checksum(np.array([0, 2, 5, 3], dtype=np.uint64))
    b = solution_checksum(np.array([0, 2, 5, 3], dtype=np.uint64))
    c = solution_checksum(np.array([0, 2, 5, 4], dtype=np.uint64))
    assert a == b != c
    assert len(a) == 16


def test_cap_threads_env(monkeypatch):
    monkeypatch.delenv("LLP_THREADS_CAP", raising=False)
    assert cap_threads([1, 2, 4]) == [1, 2, 4]
    monkeypatch.setenv("LLP_THREADS_CAP", "2")
    assert cap_threads([1, 2, 4, 8]) == [1, 2]


def test_non_integer_threads_cap_is_a_configuration_error(monkeypatch, capsys):
    monkeypatch.setenv("LLP_THREADS_CAP", "two")
    for argv in (
        ["verify", "--problems", "sssp", "--seeds", "1"],
        ["run", "--problem", "sssp", "--instance", "chain:8", "--solvers", "bag"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: LLP_THREADS_CAP must be an integer, got 'two'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--problems", "knapsack", "--tile-width", "0"], "tile_width must be >= 1, got 0"),
        (["--problems", "sssp", "--max-size", "1"], "max_size must be >= 2, got 1"),
    ],
)
def test_verify_out_of_range_size_is_a_configuration_error(argv, message, capsys):
    assert main(["verify", "--seeds", "1", *argv]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_run_verify_small_matrix_passes():
    report = run_verify(["sssp", "knapsack"], seeds=2, max_size=30, threads=(1, 2))
    assert report.ok
    # 2 sequential strategies + 5 parallel x 2 thread counts = 12 per instance.
    assert report.checks == 2 * 2 * 12


def test_run_verify_empty_problem_set_reports_zero_checks():
    report = run_verify([], seeds=5)
    assert report.ok and report.checks == 0


class _InvertedShortestPaths(ShortestPaths):
    """Negative control: a check that never fires, on every path, under-solves."""

    def witness(self, state, v):
        return None

    def forbidden_batch(self, values, indices):
        return indices[:0], values[:0]


def test_run_verify_flags_broken_adapter():
    def broken_factory(problem, instance, tile_width=256):
        if problem == "sssp":
            return _InvertedShortestPaths(instance.graph, instance.source)
        return adapter_for(problem, instance, tile_width=tile_width)

    report = run_verify(["sssp"], seeds=1, max_size=20, threads=(1,), adapter_factory=broken_factory)
    assert not report.ok
    assert {strategy for (_problem, strategy), (_ok, bad) in report.per_cell.items() if bad} == set(STRATEGIES)
    assert all("divergent index" in failure.detail for failure in report.failures)


class _FirstWordClosure(TransitiveClosure):
    """Negative control: a check that reads only the first word of each row."""

    def witness(self, state, u):
        cells = state.values.cells()
        wpr = self.words_per_row
        for i, w in enumerate(self._succ[u]):
            if cells[w * wpr] & ~cells[u * wpr]:
                return i * wpr
        return None


def test_run_verify_reaches_multi_word_closure_rows():
    def broken_factory(problem, instance, tile_width=256):
        if problem == "closure":
            return _FirstWordClosure(instance.graph)
        return adapter_for(problem, instance, tile_width=tile_width)

    report = run_verify(["closure"], seeds=3, threads=(1,), adapter_factory=broken_factory)
    assert not report.ok
    assert {strategy for (_problem, strategy), (_ok, bad) in report.per_cell.items() if bad} == set(STRATEGIES)
    assert all("divergent index" in failure.detail for failure in report.failures)


def test_run_matrix_rows_and_summary(tmp_path):
    report = run_matrix(
        "sssp",
        "chain:64",
        solvers=["bag", "swb"],
        threads_list=[1, 2],
        reps=3,
        seed=0,
        baseline="dijkstra-heap",
        check=True,
        dump=True,
    )
    assert not report.check_failures
    # bag runs once (sequential), swb at two thread counts, baseline once.
    by_solver = {}
    for row in report.rows:
        by_solver.setdefault((row.solver, row.threads), []).append(row)
    assert len(by_solver[("bag", 1)]) == 3
    assert len(by_solver[("swb", 1)]) == 3
    assert len(by_solver[("swb", 2)]) == 3
    assert len(by_solver[("baseline:dijkstra-heap", 1)]) == 3
    # determinism: one checksum across every row of the instance
    assert len({row.checksum for row in report.rows}) == 1
    # summary has medians and a speedup column against the baseline
    assert all(len(entry) == 5 for entry in report.summary)

    csv_path = tmp_path / "out.csv"
    bench.write_csv(report, str(csv_path))
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_HEADER
    assert len([r for r in rows if r and r[0] == "sssp"]) == len(report.rows)

    dump_path = tmp_path / "solutions.txt"
    bench.write_solutions(report, str(dump_path))
    assert dump_path.read_text().count("\n") == len(report.rows)


def test_run_matrix_rejects_unknown_solver():
    with pytest.raises(ValueError):
        run_matrix("sssp", "chain:8", solvers=["warp"], threads_list=[1], reps=1)


def _cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "llp.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=600,
    )


def test_cli_verify_passes_on_small_run():
    proc = _cli("verify", "--problems", "sssp,sm", "--seeds", "2", "--max-size", "24")
    assert proc.returncode == 0, proc.stderr
    assert "checks, 0 failures" in proc.stdout


def test_cli_verify_rejects_unknown_problem():
    proc = _cli("verify", "--problems", "sudoku")
    assert proc.returncode == 2


def test_cli_run_writes_csv_and_checks(tmp_path):
    out = tmp_path / "bench.csv"
    proc = _cli(
        "run",
        "--problem",
        "sssp",
        "--instance",
        "chain:128",
        "--solvers",
        "ptwb,swb",
        "--threads",
        "1,2",
        "--reps",
        "2",
        "--check",
        "--csv",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_HEADER
    data_rows = [r for r in rows[1:] if r and r[0] == "sssp"]
    assert len(data_rows) == 8  # 2 solvers x 2 thread counts x 2 reps
    checksums = {r[CSV_HEADER.index("checksum")] for r in data_rows}
    assert len(checksums) == 1


def test_cli_run_unknown_solver_exits_two():
    proc = _cli("run", "--problem", "sssp", "--instance", "chain:8", "--solvers", "warp")
    assert proc.returncode == 2
    assert "unknown solver" in proc.stderr


def test_cli_run_bad_instance_exits_two():
    proc = _cli("run", "--problem", "sssp", "--instance", "chain:oops", "--solvers", "bag")
    assert proc.returncode == 2


def test_cli_threads_cap_env(tmp_path):
    out = tmp_path / "capped.csv"
    proc = _cli(
        "run",
        "--problem",
        "sssp",
        "--instance",
        "chain:32",
        "--solvers",
        "swb",
        "--threads",
        "1,8",
        "--reps",
        "1",
        "--csv",
        str(out),
        env={"LLP_THREADS_CAP": "2"},
    )
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        rows = [r for r in csv.reader(fh) if r and r[0] == "sssp"]
    assert {r[CSV_HEADER.index("threads")] for r in rows} == {"1", "2"}
