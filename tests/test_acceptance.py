"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to stream the
per-criterion PASS lines.  Criterion 9 is a reported smoke measurement
and never gates the suite.
"""

import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from llp.baselines import blocking_pairs, gale_shapley_seq
from llp.bench import solution_checksum
from llp.core import INF, AtomicU64Array
from llp.instances import SplitMix64, example_graph, generate
from llp.problems import PROBLEMS, adapter_for
from llp.solvers import (
    PARALLEL_STRATEGIES,
    SEQUENTIAL_STRATEGIES,
    STRATEGIES,
    SolverConfig,
    run_solver,
    scan_for_forbidden,
    solve,
)
from llp.worklists import RandomOrderBag

EXPECTED_EXAMPLE = [0, 2, 5, 3]


def _pass(criterion, message):
    print(f"\nACCEPTANCE PASS criterion {criterion}: {message}")


def _configs(threads=(1, 2, 4)):
    for strategy in STRATEGIES:
        for t in [1] if strategy in SEQUENTIAL_STRATEGIES else threads:
            yield SolverConfig(strategy=strategy, threads=t)


def test_criterion_1_worked_example():
    inst = example_graph()
    t0 = time.perf_counter()
    runs = 0
    for config in _configs():
        got = solve(adapter_for("sssp", inst), config)
        assert got.tolist() == EXPECTED_EXAMPLE, (config, got)
        runs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"worked example took {elapsed:.2f}s"
    _pass(1, f"worked example returns {EXPECTED_EXAMPLE} in all {runs} solver runs ({elapsed:.2f}s)")


def test_criterion_2_oracle_equivalence_full_verify():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "llp.cli", "verify", "--problems", "all",
         "--seeds", "100", "--max-size", "200"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, f"verify failed:\n{proc.stdout}\n{proc.stderr}"
    assert ", 0 failures" in proc.stdout
    assert elapsed < 600, f"verify took {elapsed:.0f}s, target is under 10 minutes"
    checks = proc.stdout.rsplit("\n", 2)[-2]
    _pass(2, f"llp verify --problems all --seeds 100: {checks} in {elapsed:.0f}s")


DETERMINISM_SPECS = {
    "sssp": "randgraph:n=80,m=200,wmax=12",
    "bfs": "randgraph:n=80,m=200,wmax=5",
    "sm": "sm:n=32",
    "job": "dag:n=80,p=0.2",
    "reduce": "reduce:n=80",
    "closure": "closuredag:n=24,p=0.25",
    "knapsack": "knap:n=10,cap=48,wmax=20,vmax=30",
}


def test_criterion_3_fixed_point_determinism():
    rotation = list(PARALLEL_STRATEGIES)
    total = 0
    for problem, spec in DETERMINISM_SPECS.items():
        for seed in range(10):
            inst = generate(spec, seed)
            checksums = set()
            for rep in range(20):
                config = SolverConfig(strategy=rotation[rep % len(rotation)], threads=8)
                got = solve(adapter_for(problem, inst), config)
                checksums.add(solution_checksum(got))
                total += 1
            assert len(checksums) == 1, (problem, seed, checksums)
    _pass(3, f"10 instances x 20 reps at 8 threads per problem: one checksum each ({total} runs)")


def test_criterion_4_no_forbidden_at_exit():
    # Every solve in this suite already runs a mandatory post-solve scan
    # (IncompleteSolveError otherwise).  Re-scan a representative matrix
    # explicitly so the property is asserted directly, not only implied.
    scans = 0
    for problem, spec in DETERMINISM_SPECS.items():
        inst = generate(spec, 0)
        for config in _configs(threads=(2,)):
            adapter = adapter_for(problem, inst)
            result = run_solver(adapter, config)
            assert scan_for_forbidden(adapter, result.state) is None
            scans += 1
    _pass(4, f"post-solve full scans clean in all {scans} explicit re-checks "
             "(and built into every solve of criteria 1-3)")


SHIM_SPECS = {
    "sssp": "randgraph:n=24,m=60,wmax=9",
    "bfs": "randgraph:n=24,m=60,wmax=9",
    "sm": "sm:n=10",
    "job": "dag:n=24,p=0.2",
    "reduce": "reduce:n=16",
    "closure": "closuredag:n=10,p=0.3",
    "knapsack": "knap:n=6,cap=20,wmax=8,vmax=9",
}


def test_criterion_5_monotonicity_under_random_schedules():
    runs = 0
    for problem, spec in SHIM_SPECS.items():
        for seed in range(50):
            inst = generate(spec, seed)
            adapter = adapter_for(problem, inst)
            regressions = []
            up = adapter.lattice == "max"

            def recorder(index, old, new, up=up):
                if (new <= old) if up else (new >= old):
                    regressions.append((index, old, new))

            run_solver(
                adapter,
                SolverConfig(strategy="bag"),
                recorder=recorder,
                worklist=RandomOrderBag(seed=seed),
            )
            assert not regressions, (problem, seed, regressions[:3])
            runs += 1
    _pass(5, f"zero lattice-order regressions across {runs} recorded randomized-schedule runs")


def test_criterion_6_state_selection_complexity():
    inst = generate("chain:1024", 0)
    cyclic = run_solver(adapter_for("sssp", inst), SolverConfig(strategy="cyclic"))
    bag = run_solver(adapter_for("sssp", inst), SolverConfig(strategy="bag"))
    cyclic_evals = cyclic.stats.predicate_evals
    bag_evals = bag.stats.predicate_evals
    assert cyclic_evals >= 50 * bag_evals, (cyclic_evals, bag_evals)
    assert bag_evals <= 10 * 1024, bag_evals
    _pass(6, f"chain:1024 predicate evals: cyclic={cyclic_evals}, bag={bag_evals} "
             f"(ratio {cyclic_evals / bag_evals:.0f}x >= 50, bag <= 10n)")


def test_criterion_7_stability_over_200_instances():
    rng = SplitMix64(0x57AB1E)
    rotation = [("ptcf", 4), ("ptwb", 8), ("swb", 2), ("buckets", 4), ("allpar", 8)]
    for i in range(200):
        n = rng.uniform(1, 256)
        inst = generate(f"sm:n={n}", i)
        strategy, threads = rotation[i % len(rotation)]
        got = solve(adapter_for("sm", inst), SolverConfig(strategy=strategy, threads=threads))
        assert blocking_pairs(inst.mprefs, inst.wprefs, got) == [], (i, n, strategy)
        assert np.array_equal(got, gale_shapley_seq(inst.mprefs, inst.wprefs)), (i, n)
    _pass(7, "200 seeded matchings (n <= 256): zero blocking pairs, all equal man-optimal")


def test_criterion_8_race_regression_guard():
    # The two-writer interleaving: candidates 3 and 8 race on a fresh
    # cell; the stale 8 must never be the final value.  One cell per
    # trial, writers sweep the array from opposite ends.
    trials = 100_000
    cells = AtomicU64Array([INF] * trials)
    barrier = threading.Barrier(2)

    def writer(candidate, indices):
        barrier.wait()
        push = cells.monotone_min
        for i in indices:
            push(i, candidate)

    a = threading.Thread(target=writer, args=(3, range(trials)))
    b = threading.Thread(target=writer, args=(8, range(trials - 1, -1, -1)))
    a.start(), b.start(), a.join(), b.join()
    finals = cells.snapshot()
    assert all(v == 3 for v in finals), finals.count(8)
    _pass(8, f"{trials} two-writer race trials: final value always 3, never the stale 8")


@pytest.mark.slow
def test_criterion_9_scaling_direction_smoke():
    # Reported, logged, non-gating: CPython's GIL serializes CPU-bound
    # threads, so the ratio is recorded as measured rather than asserted.
    inst = generate("randgraph:n=200000,m=1000000,wmax=100", 1)
    adapter = adapter_for("sssp", inst)
    timings = {}
    checksums = set()
    for threads in (1, 4):
        t0 = time.perf_counter()
        result = run_solver(adapter, SolverConfig(strategy="ptwb", threads=threads))
        timings[threads] = time.perf_counter() - t0
        checksums.add(solution_checksum(result.solution))
    assert len(checksums) == 1  # same fixed point either way
    ratio = timings[4] / timings[1]
    verdict = "within" if ratio <= 1.1 else "outside"
    print(
        f"\nACCEPTANCE REPORT criterion 9 (non-gating): ptwb sssp 200k/1M "
        f"t1={timings[1]:.1f}s t4={timings[4]:.1f}s ratio={ratio:.2f} "
        f"({verdict} the <=1.0+10% margin)"
    )
