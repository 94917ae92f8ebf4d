#!/usr/bin/env python3
"""Before/after timings of the fitness kernel, of SA's move loop and of the oracle.

    python scripts/bench_fitness.py --before OLD/src --after src --repeats 7

Times `model.batch_fitness` at k = 1, 10 and 50 rows on the `r10_j50`
fixture and on a 20 x 1000 instance, one SA run at a tenth of its default
budget (cooling 0.98**10, seed 0) on each fixture, and one
`model.brute_force_optimum` call on `r3_j13` and on generated 4 x 10 and
2 x 20 instances (seed 11).  Each side runs in its own subprocess with only
its `src` directory on the import path, and the sides alternate `--repeats`
times; a figure is the median over those subprocesses of the median of the
timed calls inside one.  Prints JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

KERNEL_ROWS = (1, 10, 50)
# Calls per kernel timing and timings per subprocess.
KERNEL_CALLS = 200
SAMPLES = 5


def median_time(fn, calls: int) -> float:
    samples = []
    for _ in range(SAMPLES):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - started) / calls)
    return statistics.median(samples)


def measure() -> dict[str, float]:
    """One side's figures: kernel microseconds per call, SA and oracle milliseconds per run."""
    import numpy as np

    from gridsched import datasets, model
    from gridsched.baselines import SAConfig, sa_solve
    from gridsched.datasets import GeneratorSpec

    fixtures = datasets.fixture_suite()
    instances = {
        "r10_j50": fixtures["r10_j50"],
        "20x1000": datasets.generate_instance(GeneratorSpec(20, 1000, seed=2014)),
    }
    figures = {}
    for name, instance in instances.items():
        rng = np.random.default_rng(0)
        for k in KERNEL_ROWS:
            rows = rng.integers(0, instance.resource_count, size=(k, instance.job_count))
            seconds = median_time(lambda: model.batch_fitness(instance, rows), KERNEL_CALLS)
            figures[f"batch_fitness_us.{name}.k{k}"] = seconds * 1e6
    config = SAConfig(cooling_rate=SAConfig().cooling_rate ** 10, seed=0)
    for name, instance in fixtures.items():
        figures[f"sa_div10_ms.{name}"] = median_time(lambda: sa_solve(instance, config), 1) * 1e3
    oracle_instances = {
        "r3_j13": fixtures["r3_j13"],
        "4x10": datasets.generate_instance(GeneratorSpec(4, 10, seed=11)),
        "2x20": datasets.generate_instance(GeneratorSpec(2, 20, seed=11)),
    }
    for name, instance in oracle_instances.items():
        seconds = median_time(lambda: model.brute_force_optimum(instance), 1)
        figures[f"oracle_ms.{name}"] = seconds * 1e3
    return figures


def run_side(src: str) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, __file__, "--measure"], env=env, check=True, capture_output=True, text=True
    )
    return json.loads(done.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="src directory of the earlier version")
    parser.add_argument("--after", default="src", help="src directory of the later version")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if not args.before:
        parser.error("--before is required")
    sides = {"before": args.before, "after": args.after}
    runs: dict[str, list[dict[str, float]]] = {side: [] for side in sides}
    for repeat in range(args.repeats):
        # Alternate which side runs first so drift in machine speed cancels.
        order = list(sides) if repeat % 2 == 0 else list(reversed(sides))
        for side in order:
            runs[side].append(run_side(sides[side]))
    result = {
        side: {key: statistics.median(r[key] for r in runs[side]) for key in runs[side][0]}
        for side in sides
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
