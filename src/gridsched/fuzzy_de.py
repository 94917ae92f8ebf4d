"""Fuzzy differential evolution scheduler.

Each individual is a membership matrix; fitness is the penalized makespan of
its per-job argmax decoding.  Evolution is classic DE/rand/1/bin: a mutant is
a random base individual plus a scaled difference of two others, binomial
crossover mixes it with the target (one forced slot always comes from the
mutant), the trial is repaired back onto the constraint set, and greedy
selection keeps the strictly better of trial and target.

`evolve` is the one DE engine, vectorized over the whole population.  Crisp
DE (baselines.crisp_de_solve) runs the same engine and differs only in its
genome: a real vector, reflected into range and decoded by floor.  `mutate`
and `crossover` run the engine's draws on a single target.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from gridsched import model
from gridsched.model import (
    Assignment,
    ConfigurationError,
    GridInstance,
    MembershipMatrix,
    check_seed,
)


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
        if not (0 < self.scaling_factor <= 2):
            raise ConfigurationError(f"scaling_factor must be in (0, 2], got {self.scaling_factor}")
        if not (0 <= self.crossover_rate <= 1):
            raise ConfigurationError(f"crossover_rate must be in [0, 1], got {self.crossover_rate}")
        if self.population_size < 4:
            raise ConfigurationError(
                f"population_size must be at least 4 so mutation can draw three "
                f"distinct partners, got {self.population_size}"
            )
        if self.max_iterations < 0:
            raise ConfigurationError(f"max_iterations must be >= 0, got {self.max_iterations}")
        check_seed(self.seed)


@dataclass(frozen=True)
class Individual:
    genome: MembershipMatrix
    fitness: float


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


def _mutants(
    genomes: np.ndarray, targets: np.ndarray, scaling_factor: float, rng: np.random.Generator
) -> np.ndarray:
    """DE/rand/1 mutants, one per target row of the (pop, ...) genome stack.

    Each target's base and difference partners are uniform, mutually distinct
    and distinct from the target: argsort of iid uniforms is a random
    permutation of the other indices.
    """
    order = np.argsort(rng.random((len(targets), len(genomes) - 1)), axis=1)[:, :3]
    partners = order + (order >= targets[:, None])
    return genomes[partners[:, 0]] + scaling_factor * (
        genomes[partners[:, 1]] - genomes[partners[:, 2]]
    )


def _crossover(
    genomes: np.ndarray, mutants: np.ndarray, crossover_rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Binomial crossover of (k, ...) target and mutant stacks, one forced slot per row."""
    k = len(genomes)
    take_mutant = rng.random(genomes.shape) < crossover_rate
    forced = rng.integers(0, genomes[0].size, size=k)
    take_mutant.reshape(k, -1)[np.arange(k), forced] = True
    return np.where(take_mutant, mutants, genomes)


def mutate(
    population: Sequence[Individual],
    target_index: int,
    scaling_factor: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Raw mutant base + scaling_factor * (first - second) for one target.

    The engine's partner draw on a single row.  The result may leave the
    constraint set; repair happens after crossover.
    """
    size = len(population)
    if size < 4:
        raise ConfigurationError(f"mutation needs a population of at least 4, got {size}")
    genomes = np.stack([ind.genome.values for ind in population])
    return _mutants(genomes, np.array([target_index]), scaling_factor, rng)[0]


def crossover(
    target: MembershipMatrix | np.ndarray,
    mutant: np.ndarray,
    crossover_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Binomial crossover with one forced mutant slot (the engine's, on one row).

    Per slot, a uniform draw below crossover_rate takes the mutant value,
    otherwise the target value; one uniformly chosen slot always takes the
    mutant, so the trial differs from the target unless mutant == target.
    """
    target_values = target.values if isinstance(target, MembershipMatrix) else np.asarray(target)
    mutant = np.asarray(mutant)
    if target_values.shape != mutant.shape:
        raise ValueError(f"shape mismatch: target {target_values.shape}, mutant {mutant.shape}")
    return _crossover(target_values[None], mutant[None], crossover_rate, rng)[0]


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
    """
    fits = model.batch_fitness(instance, decode(genomes))
    best_index = int(np.argmin(fits))
    best_fitness = float(fits[best_index])
    best_genome = genomes[best_index].copy()
    trace = [best_fitness]

    for _ in range(config.max_iterations):
        mutants = _mutants(genomes, np.arange(len(genomes)), config.scaling_factor, rng)
        trials = repair(_crossover(genomes, mutants, config.crossover_rate, rng))
        trial_fits = model.batch_fitness(instance, decode(trials))
        improved = trial_fits < fits
        genomes[improved] = trials[improved]
        fits[improved] = trial_fits[improved]
        index = int(np.argmin(fits))
        if fits[index] < best_fitness:
            best_fitness = float(fits[index])
            best_genome = genomes[index].copy()
        trace.append(best_fitness)

    return RunResult(
        best_assignment=Assignment(tuple(decode(best_genome[None])[0].tolist())),
        best_makespan=best_fitness,
        trace=tuple(trace),
        wall_time=time.perf_counter() - started,
        iterations_run=config.max_iterations,
    )


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
