"""Comparison solvers: GA, simulated annealing, crisp DE, and fuzzy PSO.

All four share the fitness path in gridsched.model, so every method optimizes
the identical objective as the fuzzy DE engine and their results are directly
comparable.  Default parameters are calibrated so each solver spends roughly
the same number of fitness evaluations per run as DE at its defaults
(population 10 x 2500 iterations, about 25 000 evaluations).

Fuzzy PSO updates one (swarm, n, m) stack of positions and one of velocities
in place; its personal bests and the two scratch stacks of pso_step are
allocated once per run, so a step allocates no swarm-sized float array.  The
scratch stacks hold one block of particles, of at most _PSO_BLOCK_CELLS cells,
and a step updates and repairs the swarm block by block while each block is
still in cache.  Its draws keep the whole-swarm order, so runs are bit for bit
those of a whole-swarm step.  More than one block needs a bit generator with
`advance`, as the PCG64 of np.random.default_rng has.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass

import numpy as np

from gridsched import fuzzy_de, model
from gridsched.fuzzy_de import RunResult, SolverConfig
from gridsched.model import GridInstance, check_count, check_real, check_seed

# fuzzy_pso_solve steps the swarm in blocks of particles of at most this many
# cells (one particle if a particle is larger), so that a block's stacks stay in
# a core's L2 cache through the step; every fixture-sized swarm is one block.
_PSO_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class GAConfig:
    # mutation_rate is per offspring; reassigning one of m genes per offspring
    # equals the canonical 1/m per-gene rate, and with elitism the always-on
    # mutation keeps exploring after the population converges.
    population_size: int = 50
    max_iterations: int = 500
    crossover_rate: float = 0.9
    mutation_rate: float = 1.0
    tournament_size: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("population_size", self.population_size, 2)
        check_real("crossover_rate", self.crossover_rate, 0, 1)
        check_real("mutation_rate", self.mutation_rate, 0, 1)
        check_count("tournament_size", self.tournament_size, 1)
        check_count("max_iterations", self.max_iterations, 0)
        check_seed(self.seed)


@dataclass(frozen=True)
class SAConfig:
    # 502 temperature levels x 50 steps tracks the DE evaluation budget.
    initial_temperature: float = 50.0
    cooling_rate: float = 0.98
    steps_per_temperature: int = 50
    min_temperature: float = 2e-3
    seed: int = 0

    def __post_init__(self) -> None:
        check_real("initial_temperature", self.initial_temperature, 0, math.inf, True, True)
        check_real("cooling_rate", self.cooling_rate, 0, 1, True, True)
        check_count("steps_per_temperature", self.steps_per_temperature, 1)
        check_real("min_temperature", self.min_temperature, 0, self.initial_temperature, True, True)
        check_seed(self.seed)


@dataclass(frozen=True)
class PSOConfig:
    population_size: int = 50
    max_iterations: int = 500
    inertia_weight: float = 0.729
    cognitive_coefficient: float = 1.494
    social_coefficient: float = 1.494
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("population_size", self.population_size, 2)
        check_count("max_iterations", self.max_iterations, 0)
        for name in ("inertia_weight", "cognitive_coefficient", "social_coefficient"):
            check_real(name, getattr(self, name), 0, math.inf, open_high=True)
        check_seed(self.seed)


def one_point_crossover(
    first: np.ndarray, second: np.ndarray, points: np.ndarray, crossed: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise one-point crossover: swap the tails from each cut point on.

    Rows of `first` pair with rows of `second`; pairs with `crossed` False
    pass through unchanged.  Returns fresh arrays.
    """
    genes = first.shape[1]
    head = np.arange(genes)[None, :] < points[:, None]
    keep_own = head | ~crossed[:, None]
    return np.where(keep_own, first, second), np.where(keep_own, second, first)


def ga_solve(instance: GridInstance, config: GAConfig) -> RunResult:
    """Generational GA on crisp assignment vectors.

    Tournament selection fills a parent pool, consecutive parents undergo
    one-point crossover, mutation reassigns one uniformly chosen job, and the
    best individual seen so far replaces the worst offspring (elitism of one).
    """
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    n, m = instance.resource_count, instance.job_count
    pop_size = config.population_size

    population = rng.integers(0, n, size=(pop_size, m))
    fits = model.batch_fitness(instance, population)
    best = fuzzy_de._Best(fits, population, started)

    for _ in range(config.max_iterations):
        contenders = rng.integers(0, pop_size, size=(pop_size, config.tournament_size))
        winners = contenders[np.arange(pop_size), np.argmin(fits[contenders], axis=1)]
        children = population[winners]
        pairs = pop_size // 2
        if m >= 2 and pairs:
            crossed = rng.random(pairs) < config.crossover_rate
            points = rng.integers(1, m, size=pairs)
            children[0 : 2 * pairs : 2], children[1 : 2 * pairs : 2] = one_point_crossover(
                children[0 : 2 * pairs : 2], children[1 : 2 * pairs : 2], points, crossed
            )
        mutating = rng.random(pop_size) < config.mutation_rate
        slots = rng.integers(0, m, size=pop_size)
        moves = rng.integers(0, n, size=pop_size)
        rows = np.nonzero(mutating)[0]
        children[rows, slots[rows]] = moves[rows]
        child_fits = model.batch_fitness(instance, children)
        worst = int(np.argmax(child_fits))
        children[worst] = best.genome
        child_fits[worst] = best.fitness
        population, fits = children, child_fits
        best.update(fits, population)

    return best.result(best.genome.tolist(), config.max_iterations)


def sa_solve(instance: GridInstance, config: SAConfig) -> RunResult:
    """Simulated annealing on a single assignment vector.

    A neighbor moves one uniformly chosen job to a uniformly chosen other
    resource.  Non-worsening moves are always accepted; worsening moves pass
    with probability exp(-delta / T) under geometric cooling.  The trace gets
    one point per temperature level.

    The initial state is scored by model.batch_fitness.  Moves are scored
    incrementally: the state's per-resource cycle loads and completion times
    are kept as Python floats, a move patches the two entries it changes,
    model.completion_fitness scores the patched completions, and a rejected
    move restores them.  At the start of every temperature level
    the loads, completions and current fitness are recomputed from the
    assignment with the same bincount batch_fitness uses, so float drift
    from non-integer lengths lasts at most one level.  With integer lengths
    every score equals batch_fitness bit for bit.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    n, m = instance.resource_count, instance.job_count

    initial = rng.integers(0, n, size=(1, m))
    best = fuzzy_de._Best(model.batch_fitness(instance, initial), initial, started)
    state = initial[0].tolist()
    best_vec = list(state)
    best_fit = best.fitness

    lengths = instance.lengths.tolist()
    speeds = instance.speeds.tolist()
    starts = instance.start_times.tolist()
    score = model.completion_fitness(instance)

    temperature = config.initial_temperature
    levels = 0
    steps = config.steps_per_temperature
    while temperature > config.min_temperature:
        levels += 1
        if n > 1:
            cycles = np.bincount(state, weights=instance.lengths, minlength=n)
            loads = cycles.tolist()
            completions = (instance.start_times + cycles / instance.speeds).tolist()
            fit = score(completions)
            # Per-level blocks of draws; one uniform per step even when unused
            # keeps the stream layout fixed.
            jobs = rng.integers(0, m, size=steps).tolist()
            moves = rng.integers(0, n - 1, size=steps).tolist()
            accepts = rng.random(steps).tolist()
            for job, move, accept in zip(jobs, moves, accepts):
                src = state[job]
                dst = move + (move >= src)
                src_load = loads[src] - lengths[job]
                dst_load = loads[dst] + lengths[job]
                src_done, dst_done = completions[src], completions[dst]
                completions[src] = starts[src] + src_load / speeds[src]
                completions[dst] = starts[dst] + dst_load / speeds[dst]
                candidate_fit = score(completions)
                delta = candidate_fit - fit
                if delta <= 0 or accept < math.exp(-delta / temperature):
                    state[job] = dst
                    loads[src], loads[dst] = src_load, dst_load
                    fit = candidate_fit
                    if fit < best_fit:
                        best_fit = fit
                        best_vec = list(state)
                else:
                    completions[src], completions[dst] = src_done, dst_done
        temperature *= config.cooling_rate
        best.trace.append(best_fit)

    return best.result(best_vec, levels)


def reflect_positions(vectors: np.ndarray, resource_count: int) -> np.ndarray:
    """Fold out-of-range components back into [0, resource_count].

    Triangular fold with period 2n: mirrored at both ends, so the decoded
    distribution is not biased toward the boundaries.
    """
    folded = np.mod(vectors, 2.0 * resource_count)
    return np.where(folded > resource_count, 2.0 * resource_count - folded, folded)


def decode_positions(vectors: np.ndarray, resource_count: int) -> np.ndarray:
    """Floor each component to a resource index, clamping the top edge."""
    return np.minimum(np.floor(vectors).astype(np.int64), resource_count - 1)


def crisp_de_solve(instance: GridInstance, config: SolverConfig) -> RunResult:
    """Crisp DE: the fuzzy_de.evolve engine over real vectors in [0, n), decoded by floor."""
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    n, m = instance.resource_count, instance.job_count
    positions = rng.uniform(0, n, size=(config.population_size, m))
    reflect = lambda vectors: reflect_positions(vectors, n)
    decode = lambda vectors: decode_positions(vectors, n)
    return fuzzy_de.evolve(instance, positions, config, rng, reflect, None, decode, started)


def _move_block(
    positions: np.ndarray,
    velocities: np.ndarray,
    pbest: np.ndarray,
    gbest: np.ndarray,
    config: PSOConfig,
    cognitive: np.random.Generator,
    social: np.random.Generator,
    terms: np.ndarray,
    diffs: np.ndarray,
) -> None:
    """pso_step's update and repair of one block, r1 drawn from `cognitive`, r2 from `social`."""
    cognitive.random(out=terms)
    terms *= config.cognitive_coefficient
    np.subtract(pbest, positions, out=diffs)
    terms *= diffs
    velocities *= config.inertia_weight
    velocities += terms
    social.random(out=terms)
    terms *= config.social_coefficient
    np.subtract(gbest, positions, out=diffs)
    terms *= diffs
    velocities += terms
    positions += velocities
    model.repair_stack(positions)


def pso_step(
    positions: np.ndarray,
    velocities: np.ndarray,
    pbest: np.ndarray,
    gbest: np.ndarray,
    config: PSOConfig,
    rng: np.random.Generator,
    scratch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One velocity/position update for a (swarm, n, m) stack of matrices, in place.

    `velocities` becomes w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x), with the
    float operations in that order, and `positions` becomes repair(x + v).
    `scratch` is a (2, block, n, m) float64 buffer whose contents are
    overwritten, so a step allocates no stack-sized float array.  Returns
    `positions` and `velocities`.  With zero velocity and positions equal to
    both bests, particles stay put.

    When block >= swarm the whole stack is updated at once: all of the
    cognitive uniforms r1 are drawn from `rng`, then all of the social ones
    r2, and the stack is repaired once.  Otherwise the swarm is updated and
    repaired in consecutive blocks of `block` particles (the last may be
    shorter), in particle order.  Each block draws its r1 from `rng` and its
    r2 from a copy of `rng` advanced past all of r1, and `rng` then takes the
    copy's position, so the draws, the results and `rng`'s state afterwards
    are bit for bit those of the whole-stack update.  This needs a bit
    generator with `advance`, such as the PCG64 of np.random.default_rng.
    """
    terms, diffs = scratch
    block = len(terms)
    if block >= len(positions):
        _move_block(positions, velocities, pbest, gbest, config, rng, rng, terms, diffs)
        return positions, velocities
    state = rng.bit_generator.state
    social = copy.deepcopy(rng)
    social.bit_generator.advance(positions.size)
    for lo in range(0, len(positions), block):
        hi = lo + block
        count = len(positions[lo:hi])
        _move_block(
            positions[lo:hi], velocities[lo:hi], pbest[lo:hi], gbest, config,
            rng, social, terms[:count], diffs[:count],
        )
    # advance drops a buffered 32-bit half draw; doubles neither use nor make one.
    state["state"] = social.bit_generator.state["state"]
    rng.bit_generator.state = state
    return positions, velocities


def fuzzy_pso_solve(instance: GridInstance, config: PSOConfig) -> RunResult:
    """Particle swarm over membership matrices; repair keeps positions feasible."""
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    n, m = instance.resource_count, instance.job_count
    swarm = config.population_size

    positions = model.repair_stack(rng.random((swarm, n, m)))
    velocities = np.zeros_like(positions)
    fits = model.batch_fitness(instance, model.batch_defuzzify(positions))
    pbest = positions.copy()
    pbest_fits = fits.copy()
    block = min(swarm, max(1, _PSO_BLOCK_CELLS // (n * m)))
    scratch = np.empty((2, block, n, m))
    best = fuzzy_de._Best(pbest_fits, pbest, started)

    for _ in range(config.max_iterations):
        pso_step(positions, velocities, pbest, best.genome, config, rng, scratch)
        fits = model.batch_fitness(instance, model.batch_defuzzify(positions))
        improved = np.flatnonzero(fits < pbest_fits)
        if improved.size:
            # Row by row: copies only the improved particles, through no temporary.
            for i in improved:
                pbest[i] = positions[i]
            pbest_fits[improved] = fits[improved]
            best.update(pbest_fits, pbest)
        else:
            # No personal best moved, so neither did the global one.
            best.trace.append(best.fitness)

    assignee = model.batch_defuzzify(best.genome[None])[0]
    return best.result(assignee.tolist(), config.max_iterations)
