"""``llp`` command line: oracle verification and benchmark matrices.

Examples::

    llp verify --problems all --seeds 100 --max-size 200
    llp run --problem sssp --instance chain:100000 \\
        --solvers ptwb,swb,buckets --baseline delta-stepping \\
        --threads 1,2,4,8 --reps 5 --delta 8 --csv out.csv

``--delta`` is the one tuning flag; chunk size, bucket count, knapsack
tile width and the delta-stepping width keep the code's defaults.

Exit codes: 0 success, 1 verification/check failure, 2 configuration
error.  The environment variable ``LLP_THREADS_CAP`` bounds every thread
count, for running the matrices on small machines.
"""

from __future__ import annotations

import argparse
import sys

from . import bench
from .baselines import BASELINES
from .core import LlpError
from .instances import ParseError
from .problems import PROBLEMS
from .solvers import STRATEGIES


def _csv_ints(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="llp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="check every solver against the sequential oracles")
    verify.add_argument("--problems", default="all", help="'all' or comma-separated problem names")
    verify.add_argument("--seeds", type=int, default=5, help="seeded instances per problem")
    verify.add_argument("--max-size", type=int, default=200, help="instance size ceiling")
    verify.add_argument("--threads", type=_csv_ints, default=[1, 2, 4], help="thread counts")

    run = sub.add_parser("run", help="time a solver matrix on one instance")
    run.add_argument("--problem", required=True, choices=PROBLEMS)
    run.add_argument("--instance", required=True, help="instance spec, e.g. chain:1024")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--solvers", default="ptwb", help="comma-separated solver strategies")
    run.add_argument("--threads", type=_csv_ints, default=[1], help="thread counts")
    run.add_argument("--reps", type=int, default=3)
    run.add_argument("--delta", type=int, default=1, help="bucket width for the buckets solver")
    run.add_argument("--baseline", choices=BASELINES, help="comparison baseline for the summary")
    run.add_argument("--check", action="store_true", help="verify every checksum against the oracle")
    run.add_argument("--csv", dest="csv_path", help="write the report to this file")
    run.add_argument("--dump-solution", dest="dump_path", help="write full solution vectors")
    return parser


def _cmd_verify(args) -> int:
    if args.problems.strip() == "all":
        problems = list(PROBLEMS)
    else:
        problems = [p for p in args.problems.split(",") if p]
        for p in problems:
            if p not in PROBLEMS:
                print(f"unknown problem {p!r}; choose from {', '.join(PROBLEMS)}", file=sys.stderr)
                return 2
    try:
        report = bench.run_verify(
            problems,
            seeds=args.seeds,
            max_size=args.max_size,
            threads=args.threads,
            echo=lambda msg: print(msg, file=sys.stderr),
        )
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    print(bench.format_verify_matrix(report, problems))
    return 0 if report.ok else 1


def _cmd_run(args) -> int:
    solvers = [s for s in args.solvers.split(",") if s]
    for s in solvers:
        if s not in STRATEGIES:
            print(f"unknown solver {s!r}; choose from {', '.join(STRATEGIES)}", file=sys.stderr)
            return 2
    try:
        report = bench.run_matrix(
            args.problem,
            args.instance,
            solvers=solvers,
            threads_list=args.threads,
            reps=args.reps,
            seed=args.seed,
            delta=args.delta,
            baseline=args.baseline,
            check=args.check,
            dump=args.dump_path is not None,
        )
    except (ParseError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except LlpError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    if args.csv_path:
        bench.write_csv(report, args.csv_path)
    if args.dump_path:
        bench.write_solutions(report, args.dump_path)
    print(",".join(bench.SUMMARY_HEADER))
    for entry in report.summary:
        print(",".join(str(x) for x in entry))
    if report.check_failures:
        for failure in report.check_failures:
            print(f"CHECK FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        bench.thread_cap()
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "run":
        return _cmd_run(args)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
