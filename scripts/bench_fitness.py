#!/usr/bin/env python3
"""Before/after timings of the kernels, solver steps and oracle, and a bit-identity check of runs.

    python scripts/bench_fitness.py --before OLD/src --after src --repeats 7

Times `model.batch_fitness` at k = 1, 10 and 50 rows on the `r10_j50`
fixture and on a 20 x 1000 instance, `model.batch_defuzzify` on the
repaired DE (population 10) and PSO (swarm 50) stacks of every fixture and
of the 20 x 1000 instance, one SA run at a tenth of its default
budget (cooling 0.98**10, seed 0) on each fixture and on generated windowed
3 x 7, 5 x 12 and 12 x 40 instances, one generation of the DE engine
`fuzzy_de.evolve` at default settings (seed 1) on `r8_j60` and on the
20 x 1000 instance, timed as a fuzzy-DE (`de_generation_ms`) and a crisp-DE
(`crisp_de_generation_ms`) run over its generations, one fuzzy-PSO run at
default settings but 50 iterations on `r5_j100` and `r8_j60` and 20 on the
20 x 1000 instance, and one
`model.brute_force_optimum` call on each of `oracle_instances()`: `r3_j13`,
generated 4 x 10, 2 x 20 and 12 x 6 instances (seed 11), the 4 x 10 and
2 x 20 ones with every length set to 10, the 4 x 10 and 12 x 6 ones with
windows that no job fits, and generated windowed 9 x 6 and 4 x 10
instances.  Each
side runs in its own subprocess with only its `src` directory on the import
path, and the sides alternate `--repeats` times; a figure is the median over
those subprocesses of the median of the timed samples inside one.
`pso_minor_faults.*` is the count of minor page faults during as many
`baselines.pso_step` calls as the timed PSO run makes, on default-size
stacks allocated and stepped once before counting starts, from
`resource.getrusage(RUSAGE_SELF)` inside the side's subprocess; so it counts
the step's own allocations only, and reads 0 while malloc serves them from
memory an earlier step freed.

The `identical` section compares each solver's RunResults (assignment,
makespan bits, trace bits, iterations) between the two sides by hash, case
by case: the four fixtures, the 20 x 1000 instance, windowed 3 x 7 and
12 x 40 instances and instances with one resource and with one job, each at
seeds 0, 5 and 2**64 - 1.  Runs use default settings, except on 20 x 1000,
which gets a 25th of the budget as perfbench's `large` workload does.  It
also compares the oracle's answer (assignment and value bits) on each of
`oracle_instances()`, as case `oracle.<name>`.
`--repeats 0` runs only this check.

Every sample is timed by perfbench's `refclock.ScaledClock`, so a figure is
the time on a machine where perfbench's fixed reference task takes
`refclock.REFERENCE_S`, and drift in the machine's speed cancels.  Prints JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
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
# Iterations of one timed fuzzy-PSO run.  The default swarm on r5_j100 is
# 25 000 cells, the largest fixture swarm, and still one block of pso_step.
PSO_ITERATIONS = {"r5_j100": 50, "r8_j60": 50, "20x1000": 20}
# Population sizes of the default DE and PSO stacks, whose decoding is timed.
DECODE_POPULATIONS = (10, 50)
# Solver seeds of the identity check: the default, another, and the largest.
IDENTITY_SEEDS = (0, 5, 2**64 - 1)
# Budget divisor of the identity check on the 20 x 1000 instance.
IDENTITY_LARGE_DIVISOR = 25
# Window ranges ((start low, start high), (end low, end high)) that most
# resources overrun, so the overshoot sums many terms.
TIGHT_WINDOW = ((0.0, 5.0), (10.0, 20.0))


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

    from workloads import WINDOW

    from gridsched import datasets, fuzzy_de, model
    from gridsched.baselines import (
        PSOConfig, SAConfig, crisp_de_solve, fuzzy_pso_solve, sa_solve,
    )
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
    for name, instance in {**fixtures, "20x1000": instances["20x1000"]}.items():
        for pop in DECODE_POPULATIONS:
            shape = (pop, instance.resource_count, instance.job_count)
            stack = model.repair_stack(np.random.default_rng(0).random(shape))
            # About 10**6 cells per timed sample, as on the 20 x 1000 PSO stack.
            calls = max(1, 10**6 // stack.size)
            seconds = median_time(clock, lambda: model.batch_defuzzify(stack), calls)
            figures[f"decode_us.{pop}x{shape[1]}x{shape[2]}"] = seconds * 1e6
    config = SAConfig(cooling_rate=SAConfig().cooling_rate ** 10, seed=0)
    windowed = {
        "w3x7": GeneratorSpec(3, 7, window=WINDOW, seed=15),
        "w5x12": GeneratorSpec(5, 12, window=TIGHT_WINDOW, seed=1),
        "w12x40": GeneratorSpec(12, 40, window=TIGHT_WINDOW, seed=3),
    }
    sa_instances = {
        **fixtures,
        **{name: datasets.generate_instance(spec) for name, spec in windowed.items()},
    }
    for name, instance in sa_instances.items():
        figures[f"sa_div10_ms.{name}"] = (
            median_time(clock, lambda: sa_solve(instance, config), 1) * 1e3
        )
    de_instances = {"r8_j60": fixtures["r8_j60"], "20x1000": instances["20x1000"]}
    de_solvers = {"de_generation_ms": fuzzy_de.solve, "crisp_de_generation_ms": crisp_de_solve}
    for name, instance in de_instances.items():
        generations = DE_GENERATIONS[name]
        config = SolverConfig(max_iterations=generations, seed=1)
        for label, solver in de_solvers.items():
            # The initial population's draw, repair and scoring ride along.
            run_generations = lambda: solver(instance, config)
            seconds = median_time(clock, run_generations, 1) / generations
            figures[f"{label}.{name}"] = seconds * 1e3
    for name, instance in {"r5_j100": fixtures["r5_j100"], **de_instances}.items():
        config = PSOConfig(max_iterations=PSO_ITERATIONS[name])
        run_swarm = lambda: fuzzy_pso_solve(instance, config)
        figures[f"pso_run_ms.{name}"] = median_time(clock, run_swarm, 1) * 1e3
        figures[f"pso_minor_faults.{name}"] = pso_step_faults(instance, config)
    for name, instance in oracle_instances().items():
        seconds = median_time(clock, lambda: model.brute_force_optimum(instance), 1)
        figures[f"oracle_ms.{name}"] = seconds * 1e3
    return figures


def oracle_instances() -> dict:
    """The instances `model.brute_force_optimum` is timed and checked on."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import WINDOW

    from gridsched import datasets
    from gridsched.datasets import GeneratorSpec
    from gridsched.model import GridInstance, Job

    def generated(*shape, **spec):
        return datasets.generate_instance(GeneratorSpec(*shape, **spec))

    def equal_lengths(instance):
        # Equal lengths make many suffix loads equal, which widens the slices.
        jobs = tuple(Job(j, 10.0) for j in range(instance.job_count))
        return GridInstance(instance.resources, jobs)

    def no_fit(instance):
        # Windows shorter than every job: the penalty makes the bound so loose
        # that every prefix's slice is the whole suffix table.
        ends = (dataclasses.replace(r, end_time=r.start_time + 0.01) for r in instance.resources)
        return GridInstance(tuple(ends), instance.jobs)

    return {
        "r3_j13": datasets.fixture_suite()["r3_j13"],
        "4x10": generated(4, 10, seed=11),
        "2x20": generated(2, 20, seed=11),
        "w9x6": generated(9, 6, window=TIGHT_WINDOW, seed=3),
        "12x6": generated(12, 6, seed=11),
        "w4x10": generated(4, 10, window=WINDOW, seed=11),
        "4x10eq": equal_lengths(generated(4, 10, seed=11)),
        "2x20eq": equal_lengths(generated(2, 20, seed=11)),
        "nofit4x10": no_fit(generated(4, 10, seed=11)),
        "nofit12x6": no_fit(generated(12, 6, seed=11)),
    }


def pso_step_faults(instance, config) -> int:
    """Minor page faults of config.max_iterations pso_step calls on preallocated stacks."""
    import numpy as np

    from gridsched import baselines, model

    rng = np.random.default_rng(0)
    n, m = instance.resource_count, instance.job_count
    swarm = config.population_size
    positions = model.repair_stack(rng.random((swarm, n, m)))
    velocities = np.zeros_like(positions)
    pbest = model.repair_stack(rng.random((swarm, n, m)))
    gbest = pbest[0].copy()
    block = min(swarm, max(1, baselines._PSO_BLOCK_CELLS // (n * m)))
    scratch = np.empty((2, block, n, m))
    step = lambda: baselines.pso_step(positions, velocities, pbest, gbest, config, rng, scratch)
    # One step touches every page of the stacks before counting starts.
    step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(config.max_iterations):
        step()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def run_digests() -> dict[str, dict]:
    """Per case and solver: the number of identity-check runs and the sha256 of their RunResults."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import SOLVERS, WINDOW, solver_specs

    from gridsched import benchstats, datasets, model
    from gridsched.datasets import GeneratorSpec

    small = {
        **datasets.fixture_suite(),
        "3x7w": datasets.generate_instance(GeneratorSpec(3, 7, window=WINDOW, seed=15)),
        "12x40w": datasets.generate_instance(GeneratorSpec(12, 40, window=TIGHT_WINDOW, seed=3)),
        "1x30": datasets.generate_instance(GeneratorSpec(1, 30, seed=1)),
        "8x1": datasets.generate_instance(GeneratorSpec(8, 1, seed=1)),
    }
    large = datasets.generate_instance(GeneratorSpec(20, 1000, seed=2014))
    cases = {name: (instance, solver_specs(1)) for name, instance in small.items()}
    cases["20x1000"] = (large, solver_specs(IDENTITY_LARGE_DIVISOR))
    digests = {}
    for case, (instance, specs) in cases.items():
        digests[case] = {}
        for solver in SOLVERS:
            digest = hashlib.sha256()
            for seed in IDENTITY_SEEDS:
                result = benchstats.run_solver(instance, specs[solver], seed)
                record = (
                    result.best_assignment.assignee,
                    result.best_makespan.hex(),
                    tuple(point.hex() for point in result.trace),
                    result.iterations_run,
                )
                digest.update(repr(record).encode())
            digests[case][solver] = {"runs": len(IDENTITY_SEEDS), "sha256": digest.hexdigest()}
    for name, instance in oracle_instances().items():
        assignment, value = model.brute_force_optimum(instance)
        digest = hashlib.sha256(repr((assignment.assignee, value.hex())).encode())
        record = {"runs": 1, "sha256": digest.hexdigest()}
        digests[f"oracle.{name}"] = {"brute_force_optimum": record}
    return digests


def run_side(src: str, mode: str = "--measure") -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, __file__, mode], env=env, check=True, capture_output=True, text=True
    )
    return json.loads(done.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="src directory of the earlier version")
    parser.add_argument("--after", default="src", help="src directory of the later version")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--digest", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if args.digest:
        print(json.dumps(run_digests()))
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
        if runs[side]
    }
    digests = {side: run_side(src, "--digest") for side, src in sides.items()}
    result["identical"] = {
        case: {
            solver: {
                "runs": before["runs"],
                "before": before["sha256"][:16],
                "after": digests["after"][case][solver]["sha256"][:16],
                "same": before == digests["after"][case][solver],
            }
            for solver, before in solvers.items()
        }
        for case, solvers in digests["before"].items()
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
