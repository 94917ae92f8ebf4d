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
at the taken slots, repaired there by the genome's elementwise slot repair
and scattered into a copy of the population; the kept slots already lie in
the domain, where that repair changes nothing.  Only a stack step that needs
whole columns (fuzzy DE's rescale) sees the whole trial stack.  The draws
keep the dense form's order and shape, so every run is bit for bit that of
dense mutants, np.where and a dense repair.  The draw buffer, the take mask
and the trial stack are allocated once per run and refilled every
generation, and so is a (pop, pop - 1) table of flat offsets from each
member's slots to every other member's: a generation looks its partners'
offsets up in it and reads all three partners' copies of the taken slots
with one gather.  Decoding and scoring stay dense, one call each per
generation.  A generation in which no trial beats its target writes nothing
back and only extends the trace: a tie keeps the parent, so neither the
population nor the best can have changed.
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


def _partner_table(size: int, cells: int) -> np.ndarray:
    """Flat offsets between population members, shape (size, size - 1).

    Entry [r, rank] is (p - r) * cells for p, the rank-th member other than r:
    in the flat (size * cells) stack, partner p's copy of row r's slot lies
    that far from it.
    """
    rank = np.arange(size - 1)
    row = np.arange(size)[:, None]
    return (rank + (rank >= row) - row) * cells


def _partners(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """DE/rand/1 partners (base, first, second) of each row, as `table` offsets, shape (size, 3).

    `keys` holds one iid uniform per `table` entry, drawn for this generation.
    The partners are uniform, mutually distinct and distinct from the row:
    argsort of iid uniforms is a random permutation of the other `size - 1`
    members.
    """
    order = np.argsort(keys, axis=1)[:, :3]
    return table[np.arange(len(table))[:, None], order]


def evolve(
    instance: GridInstance,
    genomes: np.ndarray,
    config: SolverConfig,
    rng: np.random.Generator,
    slot_repair: Callable[[np.ndarray], np.ndarray],
    stack_step: Callable[[np.ndarray], np.ndarray] | None,
    decode: Callable[[np.ndarray], np.ndarray],
    started: float,
) -> RunResult:
    """DE/rand/1/bin with greedy selection, evolving the (pop, ...) stack in place.

    Each generation, `slot_repair` maps the mutant values at the slots
    crossover takes (a 1-d array) back onto the genome's domain elementwise,
    before they are scattered into a copy of the population (see the module
    docstring).  `stack_step`, unless None, then maps the whole (pop, ...)
    trial stack, and `decode` maps genomes to assignment rows for
    model.batch_fitness.  Wall time counts from the perf_counter reading
    `started`.

    The slots a trial keeps from its target are not repaired again, so
    `genomes` must already lie in the domain, where `slot_repair` would leave
    them unchanged; both solvers' initial populations do.
    """
    fits = model.batch_fitness(instance, decode(genomes))
    best = _Best(fits, genomes, started)

    size = len(genomes)
    cells = genomes[0].size
    table = _partner_table(size, cells)
    # The partner keys and the crossover uniforms are consecutive in the stream,
    # so one call per generation draws both into one buffer.
    draws = np.empty(table.size + genomes.size)
    keys = draws[: table.size].reshape(table.shape)
    uniforms = draws[table.size :].reshape(genomes.shape)
    take = np.empty(genomes.shape, dtype=bool)
    row_starts = np.arange(0, genomes.size, cells)
    trials = np.empty(genomes.shape, dtype=genomes.dtype)
    for _ in range(config.max_iterations):
        rng.random(out=draws)
        shifts = _partners(table, keys)
        # Binomial crossover, then one forced slot per row.
        np.less(uniforms, config.crossover_rate, out=take)
        take.reshape(-1)[row_starts + rng.integers(0, cells, size=size)] = True
        taken = np.flatnonzero(take)
        # Rows base, first and second hold the partners' copies of each taken slot;
        # take() gathers them far faster than fancy indexing does.
        gather = shifts.T.take(taken // cells, axis=1) + taken
        base, first, second = genomes.reshape(-1)[gather]
        np.copyto(trials, genomes)
        trials.reshape(-1)[taken] = slot_repair(base + config.scaling_factor * (first - second))
        repaired = trials if stack_step is None else stack_step(trials)
        trial_fits = model.batch_fitness(instance, decode(repaired))
        improved = trial_fits < fits
        if improved.any():
            genomes[improved] = repaired[improved]
            fits[improved] = trial_fits[improved]
            best.update(fits, genomes)
        else:
            # Nothing changed, so neither did the best.
            best.trace.append(best.fitness)

    return best.result(decode(best.genome[None])[0].tolist(), config.max_iterations)


def solve(instance: GridInstance, config: SolverConfig) -> RunResult:
    """Run fuzzy DE: the engine over membership matrices, decoded by argmax."""
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    shape = (config.population_size, instance.resource_count, instance.job_count)
    # Uniform(0,1) matrices column-normalized to unit sums.
    genomes = model.repair_stack(rng.random(shape))
    return evolve(
        instance, genomes, config, rng,
        model.clamp_memberships, model.normalize_stack, model.batch_defuzzify, started,
    )
