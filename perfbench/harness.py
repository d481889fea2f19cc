"""Workloads and measurement loops of the layered ``llp`` benchmark.

Each workload is one closed-loop caller in one process: an iteration
draws an instance seed from the run's seed, builds the instance and the
adapter, solves, and checks the solution against the problem's
sequential oracle; the next iteration starts only after it finished.

The untraced loop gives the end-to-end metrics.  The traced loop solves
each instance once untraced and once through the wrappers in
:mod:`tracing`, and gives the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import llp  # noqa: E402

if not Path(llp.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"llp was imported from {llp.__file__}, not from {SRC}")

from llp.baselines import oracle_for, run_baseline  # noqa: E402
from llp.bench import fnv1a_64, solution_checksum  # noqa: E402
from llp.core import LlpError  # noqa: E402
from llp.instances import SplitMix64, generate, instance_bytes  # noqa: E402
from llp.problems import adapter_for  # noqa: E402
from llp.solvers import SolverConfig, run_solver  # noqa: E402
from llp.worklists import PerThreadBag, SeqBag  # noqa: E402

from tracing import Tracer, TracedProblem, TracedWorklist  # noqa: E402

#: A setup shorter than this is repeated within one iteration, so that its
#: time is not timer noise.
SETUP_MIN_S = 0.05


@dataclass(frozen=True)
class Workload:
    problem: str
    spec: str
    tiny_spec: str
    strategy: str
    threads: int

    def spec_for(self, size: str) -> str:
        return self.tiny_spec if size == "tiny" else self.spec


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Threads never exceed 2, the core count of the reference machine.
WORKLOADS = {
    "sssp-ptwb": Workload(
        "sssp", "randgraph:n=1500,m=6000,wmax=100", "randgraph:n=300,m=1200,wmax=100",
        "ptwb", 2,
    ),
    "knap-bag": Workload(
        "knapsack", "knap:n=20,cap=200,wmax=20", "knap:n=12,cap=300", "bag", 1
    ),
    "bfs-allpar": Workload(
        "bfs", "randgraph:n=8000,m=32000", "randgraph:n=600,m=2400", "allpar", 1
    ),
}


def _median(values):
    return statistics.median(values) if values else 0.0


def _low(values):
    """10th percentile of set-up times, taken over one iteration's repeats
    and then over the run's iterations.

    The reference machine's speed alternates between levels up to a factor
    of 2 apart, in phases from milliseconds to minutes.  The median of a
    run's set-up times flips between the levels as their mix changes from
    run to run; the 10th percentile is a time taken in a fast phase.
    """
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def _ratio(num, den):
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    """Process high-water mark (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(instance) -> str:
    return f"{fnv1a_64(instance_bytes(instance)):016x}"


def setup(w: Workload, spec: str, seed: int, tracer=None):
    """Generate the instance and build the adapter, repeating cheap setups.

    Returns ``(instance, adapter, generate_times, build_times)``; callers
    keep a low quantile of the repeats, so memory does not grow with them.
    """
    gen_times, build_times = [], []
    spent = 0.0
    while True:
        t0 = perf_counter()
        instance = generate(spec, seed)
        t1 = perf_counter()
        adapter = adapter_for(w.problem, instance)
        t2 = perf_counter()
        gen_times.append(t1 - t0)
        build_times.append(t2 - t1)
        if tracer is not None:
            tracer.span("instances.generate", t0, t1)
            tracer.span("problems.adapter_for", t1, t2)
        spent += t2 - t0
        if spent >= SETUP_MIN_S:
            return instance, adapter, gen_times, build_times


class Checker:
    """Compares solutions with the oracle; counts attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.pending = []  # solutions of the current instance
        self.oracle_s = []
        self.oracle_checksums = []

    def solve(self, adapter, config, **kwargs):
        """Timed ``run_solver``; returns ``(seconds, result or None)``."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = run_solver(adapter, config, **kwargs)
        except LlpError:
            self.failed += 1
            return perf_counter() - t0, None
        elapsed = perf_counter() - t0
        self.pending.append(result.solution)
        return elapsed, result

    def check(self, w: Workload, instance) -> set:
        """Check the pending solutions of ``instance`` against the oracle.

        The oracle runs in a forked child, so its memory never counts in
        this process's peak.  Returns the set of solution checksums seen.
        """
        pending, self.pending = self.pending, []
        seen = {solution_checksum(got) for got in pending}
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                t0 = perf_counter()
                want = run_baseline(instance, oracle_for(w.problem), threads=1)
                elapsed = perf_counter() - t0
                expected = solution_checksum(want)
                ok = [solution_checksum(got) == expected and np.array_equal(got, want)
                      for got in pending]
                with os.fdopen(write_fd, "w") as fh:
                    json.dump([elapsed, expected, ok], fh)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd) as fh:
            reply = fh.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or not reply:
            self.failed += len(pending)
            return seen
        elapsed, expected, ok = json.loads(reply)
        self.oracle_s.append(elapsed)
        self.oracle_checksums.append(expected)
        self.failed += ok.count(False)
        return seen

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.pending


def run_untraced(name: str, seed: int, seconds: float, size: str = "full"):
    """End-to-end loop: returns ``(checker, metrics, info)``.

    Every iteration solves a fresh instance, drawn from ``seed``, so a
    run's timings cover many instances as well as the machine's phases.
    """
    w = WORKLOADS[name]
    spec = w.spec_for(size)
    config = SolverConfig(strategy=w.strategy, threads=w.threads)
    checker = Checker()
    seeds = SplitMix64(seed)
    setup_s, solve_s = [], []
    advances = evals = coords = 0
    start = perf_counter()
    while True:
        t_iter = perf_counter()
        instance, adapter, gen_times, build_times = setup(w, spec, seeds.next_u64())
        setup_s.append(_low([g + b for g, b in zip(gen_times, build_times)]))
        elapsed, result = checker.solve(adapter, config)
        solve_s.append(elapsed)
        if result is not None:
            advances += result.stats.advances
            evals += result.stats.predicate_evals
            coords += adapter.size
        result = adapter = None
        checker.check(w, instance)
        if len(solve_s) == 1:
            first = fingerprint(instance)
        instance = None
        now = perf_counter()
        # Start another iteration only if it should end inside the window.
        if now + (now - t_iter) > start + seconds:
            break
    metrics = {
        "solve_s": _median(solve_s),
        "setup_s": _low(setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "match_ratio": (checker.attempted - checker.failed) / checker.attempted,
        "advances_per_coord": _ratio(advances, coords),
        "evals_per_coord": _ratio(evals, coords),
    }
    info = {
        "spec": spec,
        "solves": len(solve_s),
        "fingerprint": first,  # of the first instance
        "oracle_checksums": checker.oracle_checksums,
        "solve_samples": solve_s,
        "oracle_s_median": _median(checker.oracle_s),
    }
    return checker, metrics, info


def counters_match(threads: int, totals: dict, stats: dict) -> bool:
    """Traced counters against ``Stats``: exact at one thread, always for cells."""
    if totals["cell_changes"] != totals["atomic_success"]:
        return False
    if threads != 1:
        return True
    return (
        totals["checks"] == stats["predicate_evals"]
        and totals["advances"] == stats["advances"]
        and totals["failed"] == stats["failed_replaces"]
    )


def _add(into: dict, values: dict) -> None:
    for key, value in values.items():
        into[key] = into.get(key, 0) + value


def run_traced(name: str, seed: int, seconds: float, size: str = "full", span_dir=None):
    """Per-layer loop: returns ``(checker, metrics, info, totals, stats)``.

    Every iteration draws the same instances as :func:`run_untraced` and
    solves each once without and once with tracing; both solutions must
    match the oracle.  Counts and times are per solve, averaged over the
    iterations; ratios are taken over the summed counts.  ``totals`` and
    ``stats`` are the traced counters and ``Stats`` summed over solves.
    """
    w = WORKLOADS[name]
    spec = w.spec_for(size)
    config = SolverConfig(strategy=w.strategy, threads=w.threads)
    checker = Checker()
    seeds = SplitMix64(seed)
    totals, calls, time, stats = {}, {}, {}, {}
    gen_s, build_s, plain_s, traced_s = [], [], [], []
    drain_s = scan_s = 0.0
    coords = iterations = 0
    counters_ok = same_checksums = True
    info = {"spec": spec}
    start = perf_counter()
    while True:
        t_iter = perf_counter()
        tracer = Tracer()
        instance, adapter, gen_times, build_times = setup(w, spec, seeds.next_u64(), tracer)
        gen_s.append(_low(gen_times))
        build_s.append(_low(build_times))
        plain_s.append(checker.solve(adapter, config)[0])
        # Scan strategies build their own (non-popping) worklist.
        worklist = None
        if w.strategy == "bag":
            worklist = TracedWorklist(SeqBag(), tracer)
        elif w.strategy == "ptwb":
            worklist = TracedWorklist(PerThreadBag(w.threads), tracer)
        elapsed, result = checker.solve(
            TracedProblem(adapter, tracer), config, recorder=tracer.recorder, worklist=worklist
        )
        traced_s.append(elapsed)
        solve_totals = tracer.totals()  # every worker has joined
        solve_stats = result.stats.as_dict() if result is not None else {}
        counters_ok &= result is not None and counters_match(w.threads, solve_totals, solve_stats)
        _add(stats, solve_stats)
        _add(calls, solve_totals.pop("calls"))
        _add(time, solve_totals.pop("time"))
        _add(totals, solve_totals)
        marks = tracer.marks
        scan_start = marks.get("scan", marks.get("extract", 0.0))
        drain_s += scan_start - marks.get("drain", scan_start)
        scan_s += marks.get("extract", scan_start) - scan_start
        coords += adapter.size
        iterations += 1
        result = adapter = None
        same_checksums &= len(checker.check(w, instance)) == 1
        if iterations == 1:
            info["fingerprint"] = fingerprint(instance)
            if span_dir is not None:
                os.makedirs(span_dir, exist_ok=True)
                path = Path(span_dir) / f"{name}-seed{seed}-{size}.json"
                tracer.dump(str(path), {"workload": name, "seed": seed, "spec": spec})
                info["spans"] = os.path.relpath(path, ROOT)
        instance = tracer = None
        now = perf_counter()
        if now + (now - t_iter) > start + seconds:
            break

    n = iterations
    checks = totals["checks"]
    metrics = {
        "instances.generate_s": _low(gen_s),
        "problems.adapter_build_s": _low(build_s),
        "problems.init_state_s": time.get("init_state", 0.0) / n,
        "problems.push_initial_s": time.get("push_initial", 0.0) / n,
        "problems.seed_items": totals["seed_items"] / n,
        "problems.extract_s": time.get("final_solution", 0.0) / n,
        "problems.ensure_calls": checks / n,
        "problems.ensure_s": totals["check_self"] / n,
        "problems.forbidden_ratio": _ratio(totals["found"], checks),
        "problems.advances": totals["advances"] / n,
        "problems.failed_replaces": totals["failed"] / n,
        "core.atomic_updates": totals["atomic_calls"] / n,
        "core.atomic_update_s": sum(t for k, t in time.items() if k.startswith("atomic.")) / n,
        "core.cell_changes": totals["cell_changes"] / n,
        "core.atomic_success_ratio": _ratio(totals["atomic_success"], totals["atomic_calls"]),
        "worklists.pushes": totals["pushes"] / n,
        "worklists.push_s": (time.get("push", 0.0) + time.get("push_all", 0.0)) / n,
        "worklists.pops": totals["pops"] / n,
        "worklists.pop_s": time.get("pop", 0.0) / n,
        "worklists.task_done_s": time.get("task_done", 0.0) / n,
        "worklists.empty_pops": totals["empty_pops"] / n,
        "worklists.quiescent_calls": calls.get("quiescent", 0) / n,
        "worklists.quiescent_s": time.get("quiescent", 0.0) / n,
        "worklists.stale_pop_ratio": _ratio(totals["pops"] - totals["useful_pops"], totals["pops"]),
        "solvers.drain_s": drain_s / n,
        "solvers.scan_s": scan_s / n,
        "solvers.passes": _ratio(checks, coords),
        "solvers.worker_busy_ratio": _ratio(totals["busy"], w.threads * drain_s),
        "solvers.tracing_overhead_s": _median(traced_s) - _median(plain_s),
        "baselines.oracle_s": _median(checker.oracle_s),
    }
    totals["calls"] = calls
    info.update({
        "iterations": n,
        "oracle_checksums": checker.oracle_checksums,
        "untraced_solve_s_median": _median(plain_s),
        "traced_solve_s_median": _median(traced_s),
        "stats": stats,
        "spans_dropped": totals["dropped"],
        "traced_equals_untraced": same_checksums,
        "counters_match_stats": counters_ok,
    })
    return checker, metrics, info, totals, stats


def environment() -> dict:
    """Interpreter, library and machine facts recorded with every run."""
    src_lines = 0
    for path in sorted((SRC / "llp").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for line in fh if line.strip())
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "src.lines": src_lines,
    }
