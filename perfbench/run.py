"""gridsched benchmark: one workload per process, metrics as JSON on the last line.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 10 --trace 0

Run from anywhere; it benchmarks the sources in `src/` and the instances in
`fixtures/` next to this directory.  With --trace 0 it prints the end-to-end
metrics.  With --trace 1 it runs whole rounds untraced for half the time,
then the same number of rounds with every public function of the library
wrapped, and prints the per-layer metrics.  Exit code 0 means every output
passed its checks, 1 that one did not, 2 that the sources or fixtures are
missing or the arguments are wrong.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fixtures", "large", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_library():
    """Import gridsched from this checkout's src/, and nothing installed elsewhere."""
    if not (SRC / "gridsched" / "__init__.py").is_file():
        raise FileNotFoundError(f"no gridsched sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gridsched

    if Path(gridsched.__file__).resolve().parent != (SRC / "gridsched").resolve():
        raise FileNotFoundError(f"gridsched imported from {gridsched.__file__}, not {SRC}")


def report(rounds: list, metrics: dict[str, float], units: dict[str, str]) -> None:
    """Print the result line of a run whose outputs all passed their checks."""
    result = {
        "correct": True,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import_library()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import checks
    import workloads
    from tracing import Tracer

    out_dir = OUT / args.workload
    try:
        workload = workloads.build(args.workload, ROOT, args.seed)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        workloads.warm_up(workload)
        setup_s = time.perf_counter() - STARTED
        workloads.compute_references(workload)

        if not args.trace:
            deadline = time.perf_counter() + args.seconds
            rounds = workloads.run_rounds(workload, out_dir, lambda _: time.perf_counter() >= deadline)
            metrics = workloads.end_to_end(workload, rounds)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            report(rounds, metrics, workloads.END_TO_END_UNITS)
            return 0

        deadline = time.perf_counter() + args.seconds / 2
        untraced = workloads.run_rounds(workload, out_dir, lambda _: time.perf_counter() >= deadline)
        tracer = Tracer()
        with workloads.traced(tracer):
            traced_workload = workloads.build(args.workload, ROOT, args.seed)
            traced_workload.bounds = workload.bounds
            traced_workload.penalised_optima = workload.penalised_optima
            traced = workloads.run_rounds(
                traced_workload, out_dir, lambda done: len(done) >= len(untraced), tracer
            )
        for index, traced_round in enumerate(traced):
            workloads.check_same_round(untraced[0], traced_round, f"traced round {index + 1}")
        (out_dir / "spans.json").write_text(json.dumps(tracer.table(), indent=1) + "\n")
        metrics = workloads.per_layer(tracer, untraced, traced, workload.clock)
        report(untraced + traced, metrics, workloads.PER_LAYER_UNITS)
        return 0
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
