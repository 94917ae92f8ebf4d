"""Command-line interface: instance generation, solving, benchmarking, oracle.

Exit codes: 0 success, 1 I/O or file-format failure, 2 usage or configuration
error, 3 oracle enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from gridsched import benchstats, datasets, model
from gridsched.benchstats import ALGORITHMS, make_spec, run_solver
from gridsched.datasets import (
    DEFAULT_LENGTH_RANGE,
    DEFAULT_SPEED_RANGE,
    GeneratorSpec,
    MalformedDocumentError,
    SchemaError,
)
from gridsched.model import ConfigurationError, OracleBudgetError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridsched",
        description="Grid job scheduling: fuzzy DE scheduler, baselines, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded instance file (or the fixture set)")
    gen.add_argument("-n", type=int, help="number of resources")
    gen.add_argument("-m", type=int, help="number of jobs")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--speed-range", nargs=2, type=float, metavar=("LO", "HI"),
                     default=list(DEFAULT_SPEED_RANGE))
    gen.add_argument("--length-range", nargs=2, type=float, metavar=("LO", "HI"),
                     default=list(DEFAULT_LENGTH_RANGE))
    gen.add_argument("--fixtures", action="store_true",
                     help="write the four canonical fixture instances plus their manifest")
    gen.add_argument("--out", help="output file (or directory with --fixtures)")
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="run one solver on one instance")
    solve.add_argument("instance", help="instance JSON file")
    solve.add_argument("--algo", choices=sorted(ALGORITHMS), default="fuzzy-de")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--np", type=int, dest="np_", help="population size")
    solve.add_argument("--f", type=float, help="DE scaling factor")
    solve.add_argument("--cr", type=float, help="crossover rate")
    solve.add_argument("--iters", type=int, help="iteration count")
    solve.add_argument("--trace", help="write the best-so-far trace to this CSV file")
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", help="repeated-run comparison over instances")
    bench.add_argument("instances", nargs="*", help="instance JSON files")
    bench.add_argument("--fixtures", action="store_true", help="include the four fixture pairs")
    bench.add_argument("--algos", default="all",
                       help="comma-separated algorithm list, or 'all'")
    bench.add_argument("--runs", type=int, default=100)
    bench.add_argument("--seed", type=int, default=0, help="master seed; run i uses seed+i")
    bench.add_argument("--np", type=int, dest="np_")
    bench.add_argument("--f", type=float)
    bench.add_argument("--cr", type=float)
    bench.add_argument("--iters", type=int)
    bench.add_argument("--out", default="bench_results", help="directory for runs/traces CSVs")
    bench.set_defaults(func=cmd_bench)

    oracle = sub.add_parser(
        "oracle", help="exact optimum of the penalized objective by exhaustive enumeration"
    )
    oracle.add_argument("instance", help="instance JSON file")
    oracle.add_argument("--budget", type=int, default=model.DEFAULT_ENUMERATION_BUDGET)
    oracle.set_defaults(func=cmd_oracle)

    return parser


def cmd_gen(args: argparse.Namespace) -> int:
    if args.fixtures:
        out_dir = Path(args.out) if args.out else Path("fixtures")
        written = datasets.write_fixtures(out_dir)
        for path in written:
            print(path)
        return 0
    if args.n is None or args.m is None:
        raise ConfigurationError("gen needs -n and -m (or --fixtures)")
    spec = GeneratorSpec(
        resource_count=args.n,
        job_count=args.m,
        speed_range=tuple(args.speed_range),
        length_range=tuple(args.length_range),
        seed=args.seed,
    )
    instance = datasets.generate_instance(spec)
    out = Path(args.out) if args.out else Path(f"r{args.n}_j{args.m}.json")
    datasets.save_instance(instance, out)
    print(out)
    return 0


def _print_schedule(makespan: float, assignment: model.Assignment) -> None:
    print(f"makespan {makespan!r}")
    for job, resource in enumerate(assignment.assignee):
        print(f"{job} {resource}")


def cmd_solve(args: argparse.Namespace) -> int:
    instance = datasets.load_instance(args.instance)
    spec = make_spec(args.algo, np=args.np_, f=args.f, cr=args.cr, iters=args.iters)
    result = run_solver(instance, spec, args.seed)
    _print_schedule(result.best_makespan, result.best_assignment)
    if args.trace:
        name = Path(args.instance).stem
        benchstats.write_traces(args.trace, [(spec.display, name, result.trace)])
    return 0


def _bench_algorithms(raw: str) -> list[str]:
    if raw.strip() == "all":
        return list(ALGORITHMS)
    selected = [token.strip() for token in raw.split(",") if token.strip()]
    if not selected:
        raise ConfigurationError("--algos selected no algorithms")
    for pos, name in enumerate(selected):
        if name in selected[:pos]:
            raise ConfigurationError(f"--algos names {name!r} twice")
    return selected


def cmd_bench(args: argparse.Namespace) -> int:
    instances = datasets.fixture_suite() if args.fixtures else {}
    for path in args.instances:
        name = Path(path).stem
        if name in instances:
            raise ConfigurationError(f"two bench instances are named {name!r}; rename one file")
        instances[name] = datasets.load_instance(path)
    if not instances:
        raise ConfigurationError("bench needs at least one instance (give paths or --fixtures)")
    specs = [
        make_spec(selector, np=args.np_, f=args.f, cr=args.cr, iters=args.iters)
        for selector in _bench_algorithms(args.algos)
    ]
    cells = [(instance, spec, name) for spec in specs for name, instance in instances.items()]
    summaries = benchstats.run_experiments(
        cells, args.runs, args.seed, benchstats.default_workers()
    )
    benchstats.export_csv(summaries, args.out)
    print(benchstats.format_report(summaries, datasets.FIXTURE_DISPLAY))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = datasets.load_instance(args.instance)
    assignment, makespan = model.brute_force_optimum(instance, budget=args.budget)
    _print_schedule(makespan, assignment)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"gridsched: {exc}", file=sys.stderr)
        return 2
    except OracleBudgetError as exc:
        print(f"gridsched: {exc}", file=sys.stderr)
        return 3
    except (OSError, MalformedDocumentError, SchemaError) as exc:
        print(f"gridsched: {exc}", file=sys.stderr)
        return 1


def script_main() -> None:
    sys.exit(main())
