"""Fuzzy differential evolution scheduler.

Each individual is a membership matrix; fitness is the penalized makespan of
its per-job argmax decoding.  Evolution is classic DE/rand/1/bin: a mutant is
a random base individual plus a scaled difference of two others, binomial
crossover mixes it with the target (one forced slot always comes from the
mutant), the trial is repaired back onto the constraint set, and greedy
selection keeps the strictly better of trial and target.

`evolve` is the one DE engine, vectorized over the whole population.  Crisp
DE (baselines.crisp_de_solve) runs the same engine and differs only in its
genome: a real vector, reflected into range and decoded by floor.

The engine builds trials sparsely.  At the default crossover rate a trial
takes the mutant in about 2 % of its slots, so the mutant is computed only
at the taken slots and scattered into a copy of the population; the draws
keep the dense form's order and shape, so every run is bit for bit that of
dense mutants and np.where.  The crossover uniforms, the take mask and the
trial stack are allocated once per run and refilled every generation.
Repair, decoding and scoring stay dense, one call each per generation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gridsched import model
from gridsched.model import Assignment, GridInstance, check_count, check_real, check_seed


@dataclass(frozen=True)
class SolverConfig:
    """Differential evolution control parameters plus the run seed.

    Defaults were calibrated on the fixture suite at a fixed budget of
    population_size * max_iterations = 25000 fitness evaluations.  The argmax
    decoding makes the objective close to column-separable, so a near-zero
    crossover rate (trials differ from their target in very few slots) beats
    the textbook continuous-optimization setting of 0.9 by a wide margin.
    """

    scaling_factor: float = 0.5
    crossover_rate: float = 0.02
    population_size: int = 10
    max_iterations: int = 2500
    seed: int = 0

    def __post_init__(self) -> None:
        check_real("scaling_factor", self.scaling_factor, 0, 2, open_low=True)
        check_real("crossover_rate", self.crossover_rate, 0, 1)
        # Mutation draws three partners distinct from each other and the target.
        check_count("population_size", self.population_size, 4)
        check_count("max_iterations", self.max_iterations, 0)
        check_seed(self.seed)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one solver run.

    trace holds the best-so-far fitness after initialization and after each
    iteration, so it is non-increasing and its last entry equals
    best_makespan.  With unbounded availability windows the fitness is
    exactly the makespan.
    """

    best_assignment: Assignment
    best_makespan: float
    trace: tuple[float, ...]
    wall_time: float
    iterations_run: int


class _Best:
    """Best-so-far bookkeeping of one solver run, shared by all five solvers.

    Holds the best fitness, a copy of its genome, the trace and the run's
    perf_counter start.  A later best must be strictly smaller, so ties keep
    the earlier genome.  SA keeps its per-move best itself and only appends
    one trace point per level; result() reports the last trace point.
    """

    def __init__(self, fits: np.ndarray, genomes: np.ndarray, started: float) -> None:
        self.started = started
        index = int(np.argmin(fits))
        self.fitness = float(fits[index])
        self.genome = genomes[index].copy()
        self.trace = [self.fitness]

    def update(self, fits: np.ndarray, genomes: np.ndarray) -> None:
        """Take the minimum of `fits` if it beats the best, then add a trace point."""
        index = int(np.argmin(fits))
        if fits[index] < self.fitness:
            self.fitness = float(fits[index])
            self.genome = genomes[index].copy()
        self.trace.append(self.fitness)

    def result(self, assignee: list[int], iterations: int) -> RunResult:
        """The RunResult of the best schedule `assignee`; best_makespan is the last trace point.

        `assignee` is a list: a tuple built from numpy scalars raised the
        20x1000 benchmark's peak RSS by about 1.7 MB.
        """
        return RunResult(
            best_assignment=Assignment(tuple(assignee)),
            best_makespan=self.trace[-1],
            trace=tuple(self.trace),
            wall_time=time.perf_counter() - self.started,
            iterations_run=iterations,
        )


def _partners(targets: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """DE/rand/1 partners (base, first, second) of each target, shape (k, 3).

    They are uniform, mutually distinct and distinct from the target: argsort
    of iid uniforms is a random permutation of the other `size - 1` indices.
    """
    order = np.argsort(rng.random((len(targets), size - 1)), axis=1)[:, :3]
    return order + (order >= targets[:, None])


def evolve(
    instance: GridInstance,
    genomes: np.ndarray,
    config: SolverConfig,
    rng: np.random.Generator,
    repair: Callable[[np.ndarray], np.ndarray],
    decode: Callable[[np.ndarray], np.ndarray],
    started: float,
) -> RunResult:
    """DE/rand/1/bin with greedy selection, evolving the (pop, ...) stack in place.

    `repair` maps raw trials back onto the genome's domain and `decode` maps
    genomes to assignment rows for model.batch_fitness.  Wall time counts
    from the perf_counter reading `started`.

    Mutants are computed only at the slots crossover takes, on buffers
    reused every generation (see the module docstring).
    """
    fits = model.batch_fitness(instance, decode(genomes))
    best = _Best(fits, genomes, started)

    rows = np.arange(len(genomes))
    cells = genomes[0].size
    uniforms = np.empty(genomes.shape)
    take = np.empty(genomes.shape, dtype=bool)
    trials = np.empty(genomes.shape, dtype=genomes.dtype)
    for _ in range(config.max_iterations):
        # In the flat stack, partner p's copy of row r's slot is (p - r) * cells away.
        shifts = (_partners(rows, len(genomes), rng) - rows[:, None]) * cells
        # Binomial crossover, then one forced slot per row.
        rng.random(out=uniforms)
        np.less(uniforms, config.crossover_rate, out=take)
        take.reshape(len(rows), -1)[rows, rng.integers(0, cells, size=len(rows))] = True
        taken = np.flatnonzero(take)
        owners = taken // cells
        flat = genomes.reshape(-1)
        base, first, second = (flat[taken + shifts[owners, k]] for k in range(3))
        np.copyto(trials, genomes)
        trials.reshape(-1)[taken] = base + config.scaling_factor * (first - second)
        repaired = repair(trials)
        trial_fits = model.batch_fitness(instance, decode(repaired))
        improved = trial_fits < fits
        genomes[improved] = repaired[improved]
        fits[improved] = trial_fits[improved]
        best.update(fits, genomes)

    return best.result(decode(best.genome[None])[0].tolist(), config.max_iterations)


def solve(instance: GridInstance, config: SolverConfig) -> RunResult:
    """Run fuzzy DE: the engine over membership matrices, decoded by argmax."""
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    shape = (config.population_size, instance.resource_count, instance.job_count)
    # Uniform(0,1) matrices column-normalized to unit sums.
    genomes = model.repair_stack(rng.random(shape))
    return evolve(
        instance, genomes, config, rng, model.repair_stack, model.batch_defuzzify, started
    )
