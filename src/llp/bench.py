"""Verification suites and the benchmark matrix behind the ``llp`` CLI.

The verify path solves seeded instances with every solver strategy and
thread count and compares each output, element for element, against the
problem's sequential oracle.  The run path times a solver/thread matrix
on one instance and emits CSV rows plus a median/speedup summary.

Rows carry an FNV-1a checksum over the solution vector bytes so that
fixed-point determinism is visible directly in the report: all rows of
one (problem, instance, seed) must share a checksum.
"""

from __future__ import annotations

import csv
import dataclasses
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .baselines import BASELINES, oracle_for, run_baseline
from .core import LlpError
from .instances import SplitMix64, generate
from .problems import PROBLEMS, adapter_for
from .solvers import (
    SEQUENTIAL_STRATEGIES,
    STRATEGIES,
    WORKLISTS,
    SolverConfig,
    run_solver,
)

CSV_HEADER = (
    "problem",
    "instance_spec",
    "seed",
    "solver",
    "worklist",
    "threads",
    "delta",
    "rep",
    "runtime_ns",
    "checksum",
    "predicate_evals",
    "advances",
)

SUMMARY_HEADER = ("solver", "threads", "runs", "median_runtime_ns", "speedup_vs_baseline")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a over a byte string."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def solution_checksum(solution: np.ndarray) -> str:
    """FNV-1a over the solution's little-endian uint64 bytes, as hex."""
    data = np.ascontiguousarray(solution, dtype="<u8").tobytes()
    return f"{fnv1a_64(data):016x}"


def thread_cap() -> Optional[int]:
    raw = os.environ.get("LLP_THREADS_CAP")
    if not raw:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"LLP_THREADS_CAP must be an integer, got {raw!r}") from None
    return cap if cap >= 1 else 1


def cap_threads(threads: Iterable[int]) -> List[int]:
    """Apply LLP_THREADS_CAP, dropping duplicates but keeping order."""
    cap = thread_cap()
    out: List[int] = []
    for t in threads:
        t = max(1, min(t, cap) if cap else t)
        if t not in out:
            out.append(t)
    return out


def verify_spec(problem: str, rng: SplitMix64, max_size: int) -> str:
    """Instance spec for one verification draw, sized for exact oracles."""
    if problem in ("sssp", "bfs"):
        n = rng.uniform(2, min(200, max_size))
        return f"randgraph:n={n},m={2 * n},wmax=10"
    if problem == "sm":
        n = rng.uniform(1, min(64, max_size))
        return f"sm:n={n}"
    if problem == "job":
        n = rng.uniform(1, min(200, max_size))
        return f"dag:n={n},p=0.2"
    if problem == "reduce":
        n = rng.uniform(1, min(512, 4 * max_size))
        return f"reduce:n={n}"
    if problem == "closure":
        # Up to 130 vertices, so rows span up to three 64-bit words.  Half
        # the draws are sparse, so a row's check often stops past word 0
        # while a later successor lacks bits in an earlier word.
        if rng.below(2):
            n = rng.uniform(min(65, max_size), min(130, max_size))
            return f"closuredag:n={n},p=0.03"
        n = rng.uniform(1, min(130, max_size))
        return f"closuredag:n={n},p=0.2"
    if problem == "knapsack":
        n = rng.uniform(1, min(24, max_size))
        cap = rng.uniform(1, min(128, 4 * max_size))
        return f"knap:n={n},cap={cap},wmax={max(1, cap // 2)},vmax=50"
    raise ValueError(f"unknown problem {problem!r}")


@dataclass
class VerifyFailure:
    problem: str
    spec: str
    seed: int
    solver: str
    threads: int
    detail: str


@dataclass
class VerifyReport:
    checks: int = 0
    failures: List[VerifyFailure] = field(default_factory=list)
    per_cell: dict = field(default_factory=dict)  # (problem, solver) -> [ok, fail]

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, problem: str, solver: str, failure: Optional[VerifyFailure]) -> None:
        self.checks += 1
        cell = self.per_cell.setdefault((problem, solver), [0, 0])
        if failure is None:
            cell[0] += 1
        else:
            cell[1] += 1
            self.failures.append(failure)


def _first_divergence(got: np.ndarray, want: np.ndarray) -> str:
    if len(got) != len(want):
        return f"length {len(got)} != oracle length {len(want)}"
    diff = np.nonzero(got != want)[0]
    i = int(diff[0])
    return f"first divergent index {i}: got {got[i]}, oracle {want[i]}"


def run_verify(
    problems: Sequence[str],
    seeds: int,
    max_size: int = 200,
    threads: Sequence[int] = (1, 2, 4),
    adapter_factory=adapter_for,
    echo=None,
) -> VerifyReport:
    """Compare every solver x thread combination against the oracle.

    ``problems`` may be empty, in which case zero checks are reported.
    ``adapter_factory`` is injectable so harness tests can substitute a
    deliberately broken adapter.
    """
    if max_size < 2:
        raise ValueError(f"max_size must be >= 2, got {max_size}")
    report = VerifyReport()
    threads = cap_threads(threads)
    for problem in problems:
        if problem not in PROBLEMS:
            raise ValueError(f"unknown problem {problem!r}")
        base_seed = fnv1a_64(problem.encode())
        for s in range(seeds):
            rng = SplitMix64(base_seed ^ s)
            spec = verify_spec(problem, rng, max_size)
            instance = generate(spec, seed=s)
            oracle = run_baseline(instance, oracle_for(problem), threads=1)
            for strategy in STRATEGIES:
                run_threads = [1] if strategy in SEQUENTIAL_STRATEGIES else threads
                for t in run_threads:
                    config = SolverConfig(strategy=strategy, threads=t)
                    failure = None
                    try:
                        adapter = adapter_factory(problem, instance)
                        got = run_solver(adapter, config).solution
                        if not np.array_equal(got, oracle):
                            failure = VerifyFailure(
                                problem, spec, s, strategy, t, _first_divergence(got, oracle)
                            )
                    except LlpError as exc:
                        failure = VerifyFailure(problem, spec, s, strategy, t, f"error: {exc}")
                    report.record(problem, strategy, failure)
                    if failure and echo:
                        echo(
                            f"FAIL {problem} {spec} seed={s} solver={strategy} "
                            f"threads={t}: {failure.detail}"
                        )
    return report


def format_verify_matrix(report: VerifyReport, problems: Sequence[str]) -> str:
    """Pass/fail matrix, one row per problem, one column per strategy."""
    width = max([len(p) for p in problems] + [7]) + 2
    lines = ["".ljust(width) + "".join(s.ljust(9) for s in STRATEGIES)]
    for problem in problems:
        row = [problem.ljust(width)]
        for strategy in STRATEGIES:
            ok, bad = report.per_cell.get((problem, strategy), [0, 0])
            row.append(("FAIL:%d" % bad if bad else "ok:%d" % ok).ljust(9))
        lines.append("".join(row))
    lines.append(f"{report.checks} checks, {len(report.failures)} failures")
    return "\n".join(lines)


@dataclass
class BenchRow:
    problem: str
    instance_spec: str
    seed: int
    solver: str
    worklist: str
    threads: int
    delta: int
    rep: int
    runtime_ns: int
    checksum: str
    predicate_evals: int
    advances: int

    def as_tuple(self):
        return dataclasses.astuple(self)


@dataclass
class BenchReport:
    rows: List[BenchRow] = field(default_factory=list)
    summary: List[tuple] = field(default_factory=list)
    check_failures: List[str] = field(default_factory=list)
    solutions: List[tuple] = field(default_factory=list)  # (label, vector) when dumping


def run_matrix(
    problem: str,
    instance_spec: str,
    solvers: Sequence[str],
    threads_list: Sequence[int],
    reps: int,
    seed: int = 0,
    delta: int = 1,
    baseline: Optional[str] = None,
    check: bool = False,
    dump: bool = False,
) -> BenchReport:
    """Time the solver matrix on one instance; optionally verify checksums.

    Timing wraps the whole solve call, so worklist allocation and state
    initialization are included while instance generation is not.
    """
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}")
    for s in solvers:
        if s not in STRATEGIES:
            raise ValueError(f"unknown solver {s!r}")
    if baseline is not None and baseline not in BASELINES:
        raise ValueError(f"unknown baseline {baseline!r}")
    threads_list = cap_threads(threads_list)
    report = BenchReport()
    instance = generate(instance_spec, seed)
    adapter = adapter_for(problem, instance)
    oracle_checksum = None
    if check:
        oracle_checksum = solution_checksum(run_baseline(instance, oracle_for(problem), threads=1))

    def record(solver_name, worklist_name, t, rep, runtime_ns, solution, stats):
        checksum = solution_checksum(solution)
        report.rows.append(
            BenchRow(
                problem,
                instance_spec,
                seed,
                solver_name,
                worklist_name,
                t,
                delta,
                rep,
                runtime_ns,
                checksum,
                stats[0],
                stats[1],
            )
        )
        if check and checksum != oracle_checksum:
            report.check_failures.append(
                f"{solver_name} threads={t} rep={rep}: checksum {checksum} != oracle {oracle_checksum}"
            )
        if dump:
            report.solutions.append((f"{solver_name}/t{t}/r{rep}", solution))

    for strategy in solvers:
        run_threads = [1] if strategy in SEQUENTIAL_STRATEGIES else threads_list
        for t in run_threads:
            config = SolverConfig(strategy=strategy, threads=t, delta=delta)
            for rep in range(reps):
                t0 = time.perf_counter_ns()
                result = run_solver(adapter, config)
                elapsed = time.perf_counter_ns() - t0
                record(
                    strategy,
                    WORKLISTS[strategy][0],
                    t,
                    rep,
                    elapsed,
                    result.solution,
                    (result.stats.predicate_evals, result.stats.advances),
                )

    if baseline is not None:
        from .baselines import _SEQUENTIAL  # sequential baselines run once

        base_threads = [1] if baseline in _SEQUENTIAL else threads_list
        for t in base_threads:
            for rep in range(reps):
                t0 = time.perf_counter_ns()
                solution = run_baseline(instance, baseline, threads=t)
                elapsed = time.perf_counter_ns() - t0
                record(f"baseline:{baseline}", "-", t, rep, elapsed, solution, (0, 0))

    # Per-configuration medians; speedup against the baseline at the same
    # thread count (or its single sequential median).
    medians = {}
    for row in report.rows:
        medians.setdefault((row.solver, row.threads), []).append(row.runtime_ns)
    base_medians = {
        t: statistics.median(v)
        for (s, t), v in medians.items()
        if baseline is not None and s == f"baseline:{baseline}"
    }
    for (solver_name, t), runtimes in sorted(medians.items()):
        med = statistics.median(runtimes)
        speedup = ""
        if base_medians:
            ref = base_medians.get(t, next(iter(base_medians.values())))
            speedup = f"{ref / med:.3f}"
        report.summary.append((solver_name, t, len(runtimes), int(med), speedup))
    return report


def write_csv(report: BenchReport, path: str) -> None:
    """Fixed-schema CSV: data table, blank line, then the summary block."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in report.rows:
            writer.writerow(row.as_tuple())
        writer.writerow([])
        writer.writerow(SUMMARY_HEADER)
        for entry in report.summary:
            writer.writerow(entry)


def write_solutions(report: BenchReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for label, vector in report.solutions:
            fh.write(label + ": " + " ".join(str(int(x)) for x in vector) + "\n")
