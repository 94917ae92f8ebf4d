#!/usr/bin/env python3
"""Before/after timings of the fitness kernel, SA, a DE generation, a PSO run and the oracle.

    python scripts/bench_fitness.py --before OLD/src --after src --repeats 7

Times `model.batch_fitness` at k = 1, 10 and 50 rows on the `r10_j50`
fixture and on a 20 x 1000 instance, one SA run at a tenth of its default
budget (cooling 0.98**10, seed 0) on each fixture, one fuzzy-DE generation
of `fuzzy_de.evolve` at default settings on `r8_j60` and on the 20 x 1000
instance, one fuzzy-PSO run at default settings but 50 iterations on
`r8_j60` and 20 on the 20 x 1000 instance, and one
`model.brute_force_optimum` call on `r3_j13` and on generated 4 x 10 and
2 x 20 instances (seed 11).  Each side runs in its own subprocess with only
its `src` directory on the import path, and the sides alternate `--repeats`
times; a figure is the median over those subprocesses of the median of the
timed samples inside one.  `pso_minor_faults.*` is the count of minor page
faults during one more PSO run, from `resource.getrusage(RUSAGE_SELF)` inside
the side's subprocess.

Every sample is timed by perfbench's `refclock.ScaledClock`, so a figure is
the time on a machine where perfbench's fixed reference task takes
`refclock.REFERENCE_S`, and drift in the machine's speed cancels.  Prints JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

KERNEL_ROWS = (1, 10, 50)
# Calls per kernel timing and timings per subprocess.
KERNEL_CALLS = 200
SAMPLES = 5
# Generations per timed evolve call; a figure is one call's time over these.
DE_GENERATIONS = {"r8_j60": 100, "20x1000": 20}
# Iterations of one timed fuzzy-PSO run.
PSO_ITERATIONS = {"r8_j60": 50, "20x1000": 20}


def median_time(clock, fn, calls: int) -> float:
    """Median over SAMPLES of the scaled time of `calls` calls of fn, per call."""

    def run():
        for _ in range(calls):
            fn()

    return statistics.median(clock.time(run)[1] / calls for _ in range(SAMPLES))


def measure() -> dict[str, float]:
    """One side's figures: kernel us per call, SA, DE generation, PSO run and oracle ms."""
    import numpy as np

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from refclock import ScaledClock

    from gridsched import datasets, fuzzy_de, model
    from gridsched.baselines import PSOConfig, SAConfig, fuzzy_pso_solve, sa_solve
    from gridsched.datasets import GeneratorSpec
    from gridsched.fuzzy_de import SolverConfig

    clock = ScaledClock()

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
            seconds = median_time(
                clock, lambda: model.batch_fitness(instance, rows), KERNEL_CALLS
            )
            figures[f"batch_fitness_us.{name}.k{k}"] = seconds * 1e6
    config = SAConfig(cooling_rate=SAConfig().cooling_rate ** 10, seed=0)
    for name, instance in fixtures.items():
        figures[f"sa_div10_ms.{name}"] = (
            median_time(clock, lambda: sa_solve(instance, config), 1) * 1e3
        )
    de_instances = {"r8_j60": fixtures["r8_j60"], "20x1000": instances["20x1000"]}
    for name, instance in de_instances.items():
        generations = DE_GENERATIONS[name]
        config = SolverConfig(max_iterations=generations)
        shape = (config.population_size, instance.resource_count, instance.job_count)
        initial = model.repair_stack(np.random.default_rng(0).random(shape))

        def run_generations():
            # One initial scoring rides along with the generations.
            fuzzy_de.evolve(
                instance, initial.copy(), config, np.random.default_rng(1),
                model.repair_stack, model.batch_defuzzify, 0.0,
            )

        seconds = median_time(clock, run_generations, 1) / generations
        figures[f"de_generation_ms.{name}"] = seconds * 1e3
    for name, instance in de_instances.items():
        config = PSOConfig(max_iterations=PSO_ITERATIONS[name])
        run_swarm = lambda: fuzzy_pso_solve(instance, config)
        figures[f"pso_run_ms.{name}"] = median_time(clock, run_swarm, 1) * 1e3
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_swarm()
        figures[f"pso_minor_faults.{name}"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        )
    oracle_instances = {
        "r3_j13": fixtures["r3_j13"],
        "4x10": datasets.generate_instance(GeneratorSpec(4, 10, seed=11)),
        "2x20": datasets.generate_instance(GeneratorSpec(2, 20, seed=11)),
    }
    for name, instance in oracle_instances.items():
        seconds = median_time(clock, lambda: model.brute_force_optimum(instance), 1)
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
