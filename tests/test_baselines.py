import dataclasses
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from gridsched import model
from gridsched.baselines import (
    one_point_crossover,
    GAConfig,
    PSOConfig,
    SAConfig,
    crisp_de_solve,
    decode_positions,
    fuzzy_pso_solve,
    ga_solve,
    pso_step,
    reflect_positions,
    sa_solve,
)
from gridsched.benchstats import run_experiments
from gridsched.datasets import GeneratorSpec, fixture_suite, generate_instance
from gridsched.fuzzy_de import SolverConfig, solve as fuzzy_de_solve
from gridsched.model import (
    Assignment,
    ConfigurationError,
    GridInstance,
    Job,
    Resource,
    brute_force_optimum,
)
from oracles import is_membership_matrix

SOLVERS = {
    "ga": (ga_solve, lambda seed: GAConfig(population_size=16, max_iterations=40, seed=seed)),
    "sa": (
        sa_solve,
        lambda seed: SAConfig(
            initial_temperature=10.0,
            cooling_rate=0.9,
            steps_per_temperature=25,
            min_temperature=1e-2,
            seed=seed,
        ),
    ),
    "de": (crisp_de_solve, lambda seed: SolverConfig(population_size=12, max_iterations=50, seed=seed)),
    "fuzzy-pso": (
        fuzzy_pso_solve,
        lambda seed: PSOConfig(population_size=12, max_iterations=50, seed=seed),
    ),
    "fuzzy-de": (
        fuzzy_de_solve,
        lambda seed: SolverConfig(population_size=12, max_iterations=50, seed=seed),
    ),
}

WINDOW = ((0.0, 5.0), (20.0, 60.0))
# Windows that most resources overrun, so the overshoot sums many terms.
TIGHT_WINDOW = ((0.0, 5.0), (10.0, 20.0))


def real_field(build, name, low, high, open_low, open_high, inside):
    config = type(build(inside)).__name__
    return pytest.param(build, name, low, high, open_low, open_high, inside, id=f"{config}.{name}")


# Every real-valued setting: a config built with the value in that field, the
# name its errors start with, its accepted interval and a value inside it.
REAL_FIELDS = [
    real_field(lambda v: SolverConfig(scaling_factor=v), "scaling_factor", 0, 2, True, False, 1),
    real_field(lambda v: SolverConfig(crossover_rate=v), "crossover_rate", 0, 1, False, False, 1),
    real_field(lambda v: GAConfig(crossover_rate=v), "crossover_rate", 0, 1, False, False, 1),
    real_field(lambda v: GAConfig(mutation_rate=v), "mutation_rate", 0, 1, False, False, 0),
    real_field(lambda v: SAConfig(initial_temperature=v), "initial_temperature",
               0, math.inf, True, True, 1),
    real_field(lambda v: SAConfig(cooling_rate=v), "cooling_rate", 0, 1, True, True, 0.5),
    # The default initial_temperature, 50, bounds min_temperature.
    real_field(lambda v: SAConfig(min_temperature=v), "min_temperature", 0, 50, True, True, 1),
    real_field(lambda v: PSOConfig(inertia_weight=v), "inertia_weight",
               0, math.inf, False, True, 1),
    real_field(lambda v: PSOConfig(cognitive_coefficient=v), "cognitive_coefficient",
               0, math.inf, False, True, 1),
    real_field(lambda v: PSOConfig(social_coefficient=v), "social_coefficient",
               0, math.inf, False, True, 1),
    real_field(lambda v: GeneratorSpec(2, 2, speed_range=(v, 10.0)), "speed_range low",
               0, math.inf, True, True, 1),
    real_field(lambda v: GeneratorSpec(2, 2, speed_range=(1.0, v)), "speed_range high",
               1.0, math.inf, False, True, 2),
    real_field(lambda v: GeneratorSpec(2, 2, length_range=(v, 100.0)), "length_range low",
               0, math.inf, True, True, 10),
    real_field(lambda v: GeneratorSpec(2, 2, length_range=(10.0, v)), "length_range high",
               10.0, math.inf, False, True, 20),
    real_field(lambda v: GeneratorSpec(2, 2, window=((v, 5.0), (10.0, 20.0))), "window start low",
               0, math.inf, False, True, 1),
    real_field(lambda v: GeneratorSpec(2, 2, window=((1.0, v), (10.0, 20.0))), "window start high",
               1.0, math.inf, False, True, 2),
    real_field(lambda v: GeneratorSpec(2, 2, window=((0.0, 5.0), (v, 100.0))), "window end low",
               5.0, math.inf, True, True, 10),
    real_field(lambda v: GeneratorSpec(2, 2, window=((0.0, 5.0), (10.0, v))), "window end high",
               10.0, math.inf, False, True, 20),
]


class TestConfigValidation:
    def test_ga_bounds(self):
        with pytest.raises(ConfigurationError):
            GAConfig(population_size=1)
        with pytest.raises(ConfigurationError):
            GAConfig(mutation_rate=1.5)
        with pytest.raises(ConfigurationError):
            GAConfig(tournament_size=0)

    def test_sa_bounds(self):
        with pytest.raises(ConfigurationError):
            SAConfig(initial_temperature=0.0)
        with pytest.raises(ConfigurationError):
            SAConfig(cooling_rate=1.0)
        with pytest.raises(ConfigurationError):
            SAConfig(min_temperature=100.0)

    def test_pso_bounds(self):
        with pytest.raises(ConfigurationError):
            PSOConfig(population_size=1)
        with pytest.raises(ConfigurationError):
            PSOConfig(inertia_weight=-0.1)

    @pytest.mark.parametrize("config", [SolverConfig, GAConfig, PSOConfig])
    def test_negative_iteration_budget_rejected_by_one_rule(self, config):
        with pytest.raises(ConfigurationError, match=r"^max_iterations must be >= 0, got -1$"):
            config(max_iterations=-1)

    @pytest.mark.parametrize(
        "config, field, value",
        [
            (SolverConfig, "population_size", 5.0),
            (SolverConfig, "max_iterations", 2.5),
            (SolverConfig, "seed", 1.5),
            (SolverConfig, "seed", "1"),
            (GAConfig, "population_size", 5.0),
            (GAConfig, "max_iterations", 2.5),
            (GAConfig, "tournament_size", 2.0),
            (GAConfig, "seed", 1.5),
            (SAConfig, "steps_per_temperature", 2.5),
            (SAConfig, "seed", 1.5),
            (PSOConfig, "population_size", 5.0),
            (PSOConfig, "max_iterations", 2.5),
            (PSOConfig, "seed", 1.5),
            (partial(GeneratorSpec, resource_count=2, job_count=3), "resource_count", 2.0),
            (partial(GeneratorSpec, resource_count=2, job_count=3), "job_count", 3.5),
            (partial(GeneratorSpec, resource_count=2, job_count=3), "seed", 1.5),
            (partial(run_experiments, [], master_seed=0), "runs", 2.5),
        ],
    )
    def test_every_count_and_seed_must_be_an_integer(self, config, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be an integer, got {value!r}$"):
            config(**{field: value})
        config(**{field: np.int64(value)})

    @pytest.mark.parametrize("build, name, low, high, open_low, open_high, inside", REAL_FIELDS)
    def test_every_real_setting_is_checked_against_its_interval(
        self, build, name, low, high, open_low, open_high, inside
    ):
        with pytest.raises(ConfigurationError, match=f"^{name} must be a real number, got '{inside}'$"):
            build(str(inside))
        with pytest.raises(ConfigurationError, match=f"^{name} must be in "):
            build(math.nan)
        for end, is_open in ((low, open_low), (high, open_high)):
            if is_open:
                with pytest.raises(ConfigurationError, match=f"^{name} must be in "):
                    build(end)
            else:
                build(end)
        build(np.float32(inside))
        if isinstance(inside, int):
            build(inside)


class TestSharedBehaviors:
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_single_resource_forced_schedule(self, name):
        inst = generate_instance(GeneratorSpec(1, 7, seed=13))
        expected = float(inst.lengths.sum() / inst.speeds[0])
        solver, make_config = SOLVERS[name]
        result = solver(inst, make_config(seed=4))
        assert result.best_makespan == pytest.approx(expected)

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_deterministic_per_seed(self, name, small_instance):
        solver, make_config = SOLVERS[name]
        a = solver(small_instance, make_config(seed=21))
        b = solver(small_instance, make_config(seed=21))
        assert a.best_makespan == b.best_makespan
        assert a.best_assignment == b.best_assignment
        assert a.trace == b.trace

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_trace_non_increasing(self, name, small_instance):
        solver, make_config = SOLVERS[name]
        result = solver(small_instance, make_config(seed=2))
        assert all(x >= y for x, y in zip(result.trace, result.trace[1:]))
        assert result.trace[-1] == result.best_makespan

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_all_solvers_share_the_fitness_path(self, name, small_instance, monkeypatch):
        calls = {"count": 0}
        original = model.batch_fitness

        def counting(instance, assignees):
            calls["count"] += 1
            return original(instance, assignees)

        monkeypatch.setattr(model, "batch_fitness", counting)
        solver, make_config = SOLVERS[name]
        result = solver(small_instance, make_config(seed=0))
        assert calls["count"] > 0
        # Reported best must be reachable through the shared path as well.
        direct = model.assignment_fitness(small_instance, result.best_assignment)
        assert result.best_makespan == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("zero_budget", [False, True], ids=["test_budget", "zero_budget"])
    @pytest.mark.parametrize(
        "source",
        ["r3_j13", GeneratorSpec(3, 7, window=WINDOW, seed=15)],
        ids=["r3_j13", "w3x7_s15"],
    )
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_run_result_contract(self, name, source, zero_budget):
        instance = identity_instance(source)
        solver, make_config = SOLVERS[name]
        config = make_config(seed=3)
        if zero_budget:
            # SA has no iteration budget; its shortest run is one temperature level.
            least = {"min_temperature": 9.5} if name == "sa" else {"max_iterations": 0}
            config = dataclasses.replace(config, **least)
        result = solver(instance, config)
        if zero_budget:
            assert result.iterations_run == (1 if name == "sa" else 0)
        assert len(result.trace) == result.iterations_run + 1
        assert result.trace[-1] == result.best_makespan
        assert result.best_makespan == model.assignment_fitness(instance, result.best_assignment)


def reference_ga(instance, config):
    """GA with its own inline best-so-far fitness, genome and trace."""
    rng = np.random.default_rng(config.seed)
    n, m = instance.resource_count, instance.job_count
    pop_size = config.population_size

    population = rng.integers(0, n, size=(pop_size, m))
    fits = model.batch_fitness(instance, population)
    best_index = int(np.argmin(fits))
    best_fit = float(fits[best_index])
    best_vec = population[best_index].copy()
    trace = [best_fit]

    for _ in range(config.max_iterations):
        contenders = rng.integers(0, pop_size, size=(pop_size, config.tournament_size))
        winners = contenders[np.arange(pop_size), np.argmin(fits[contenders], axis=1)]
        children = population[winners].copy()
        pairs = pop_size // 2
        if m >= 2 and pairs:
            crossed = rng.random(pairs) < config.crossover_rate
            points = rng.integers(1, m, size=pairs)
            first = children[0 : 2 * pairs : 2].copy()
            second = children[1 : 2 * pairs : 2].copy()
            children[0 : 2 * pairs : 2], children[1 : 2 * pairs : 2] = one_point_crossover(
                first, second, points, crossed
            )
        mutating = rng.random(pop_size) < config.mutation_rate
        slots = rng.integers(0, m, size=pop_size)
        moves = rng.integers(0, n, size=pop_size)
        rows = np.nonzero(mutating)[0]
        children[rows, slots[rows]] = moves[rows]
        child_fits = model.batch_fitness(instance, children)
        worst = int(np.argmax(child_fits))
        children[worst] = best_vec
        child_fits[worst] = best_fit
        population, fits = children, child_fits
        index = int(np.argmin(fits))
        if fits[index] < best_fit:
            best_fit = float(fits[index])
            best_vec = population[index].copy()
        trace.append(best_fit)

    return Assignment(tuple(best_vec.tolist())), best_fit, tuple(trace), config.max_iterations


GA_SOURCES = {
    **{name: name for name in ("r3_j13", "r5_j100", "r8_j60", "r10_j50")},
    "n1": GeneratorSpec(1, 7, seed=13),
    "m1": GeneratorSpec(5, 1, seed=13),
    "w3x7_s15": GeneratorSpec(3, 7, window=WINDOW, seed=15),
}

# (source, seed, GAConfig overrides); max_iterations defaults to 60.
GA_IDENTITY_CASES = [
    *(
        pytest.param(
            source, seed, {"max_iterations": iterations}, id=f"{name}_s{label}_i{iterations}"
        )
        for name, source in GA_SOURCES.items()
        for seed, label in ((0, "0"), (2**64 - 1, "max"))
        for iterations in (0, 1, 60)
    ),
    # An odd population leaves one child without a crossover partner.
    pytest.param("r8_j60", 0, {"population_size": 7}, id="r8_j60_pop7"),
    pytest.param("r8_j60", 0, {"population_size": 2}, id="r8_j60_pop2"),
    pytest.param("r8_j60", 0, {"crossover_rate": 0.0}, id="r8_j60_cx0"),
    pytest.param("r8_j60", 0, {"mutation_rate": 0.0}, id="r8_j60_mut0"),
]


class TestGA:
    def test_one_point_crossover_swaps_both_tails(self):
        first = np.array([[1, 1, 1, 1], [5, 5, 5, 5]])
        second = np.array([[2, 2, 2, 2], [6, 6, 6, 6]])
        child_a, child_b = one_point_crossover(
            first, second, points=np.array([2, 3]), crossed=np.array([True, False])
        )
        np.testing.assert_array_equal(child_a, [[1, 1, 2, 2], [5, 5, 5, 5]])
        np.testing.assert_array_equal(child_b, [[2, 2, 1, 1], [6, 6, 6, 6]])

    def test_crossover_children_complement_each_other(self):
        rng = np.random.default_rng(0)
        first = rng.integers(0, 3, size=(10, 8))
        second = rng.integers(0, 3, size=(10, 8))
        points = rng.integers(1, 8, size=10)
        child_a, child_b = one_point_crossover(first, second, points, np.ones(10, dtype=bool))
        # Every gene pair is preserved, just redistributed between children.
        np.testing.assert_array_equal(child_a + child_b, first + second)

    @pytest.mark.parametrize("source, seed, overrides", GA_IDENTITY_CASES)
    def test_bit_identical_to_inline_reference(self, source, seed, overrides):
        instance = identity_instance(source)
        config = GAConfig(**{"max_iterations": 60, "seed": seed, **overrides})
        result = ga_solve(instance, config)
        got = (result.best_assignment, result.best_makespan, result.trace, result.iterations_run)
        assert got == reference_ga(instance, config)

    def test_reaches_oracle_neighborhood(self, tiny_instance):
        _, optimum = brute_force_optimum(tiny_instance)
        hits = 0
        for seed in range(100):
            result = ga_solve(
                tiny_instance, GAConfig(population_size=30, max_iterations=100, seed=seed)
            )
            if result.best_makespan <= 1.05 * optimum:
                hits += 1
        assert hits >= 90


def reference_sa(instance, config):
    """SA scoring every move with a fresh copy through batch_fitness, step by step."""
    rng = np.random.default_rng(config.seed)
    n, m = instance.resource_count, instance.job_count
    state = rng.integers(0, n, size=m)
    fit = float(model.batch_fitness(instance, state[None, :])[0])
    best_vec, best_fit = state.copy(), fit
    trace = [best_fit]
    temperature = config.initial_temperature
    levels = 0
    steps = config.steps_per_temperature
    while temperature > config.min_temperature:
        levels += 1
        if n > 1:
            jobs = rng.integers(0, m, size=steps)
            moves = rng.integers(0, n - 1, size=steps)
            accepts = rng.random(steps)
            for step in range(steps):
                job = jobs[step]
                move = moves[step] + (moves[step] >= state[job])
                candidate = state.copy()
                candidate[job] = move
                candidate_fit = float(model.batch_fitness(instance, candidate[None, :])[0])
                delta = candidate_fit - fit
                if delta <= 0 or accepts[step] < math.exp(-delta / temperature):
                    state, fit = candidate, candidate_fit
                    if fit < best_fit:
                        best_fit = fit
                        best_vec = state.copy()
        temperature *= config.cooling_rate
        trace.append(best_fit)
    return Assignment(tuple(best_vec.tolist())), best_fit, tuple(trace), levels


# Every instance has integer lengths.  With n >= 8 numpy sums the overshoot
# pairwise, where a plain sequential sum would differ in the last bit.
SA_IDENTITY_CASES = [
    *(pytest.param(name, id=name) for name in ("r3_j13", "r5_j100", "r8_j60", "r10_j50")),
    pytest.param(GeneratorSpec(3, 7, window=WINDOW, seed=15), id="w3x7_s15"),
    *(
        pytest.param(GeneratorSpec(n, m, window=TIGHT_WINDOW, seed=seed), id=f"w{n}x{m}_s{seed}")
        for n, m, seed in ((8, 30, 1), (9, 20, 2), (12, 40, 3), (16, 60, 4))
    ),
    pytest.param(GeneratorSpec(1, 7, seed=13), id="n1"),
    pytest.param(GeneratorSpec(5, 1, seed=13), id="m1"),
    pytest.param(GeneratorSpec(1, 1, window=WINDOW, seed=13), id="n1_m1_windowed"),
]


class TestSA:
    @pytest.mark.parametrize("source", SA_IDENTITY_CASES)
    def test_bit_identical_to_per_step_batch_fitness(self, source):
        if isinstance(source, str):
            instance = fixture_suite()[source]
        else:
            instance = generate_instance(source)
        config = SAConfig(cooling_rate=0.98**10, seed=5)
        result = sa_solve(instance, config)
        got = (result.best_assignment, result.best_makespan, result.trace, result.iterations_run)
        assert got == reference_sa(instance, config)

    @pytest.mark.parametrize("windowed", [False, True])
    def test_non_integer_lengths_keep_score_and_trace_consistent(self, windowed):
        rng = np.random.default_rng(11)
        n, m = 9, 40
        starts = rng.uniform(0.0, 5.0, n) if windowed else np.zeros(n)
        ends = starts + rng.uniform(20.0, 60.0, n) if windowed else np.full(n, math.inf)
        instance = GridInstance(
            resources=tuple(
                Resource(i, float(rng.uniform(0.5, 10.0)), float(starts[i]), float(ends[i]))
                for i in range(n)
            ),
            jobs=tuple(Job(j, float(rng.uniform(0.1, 100.0))) for j in range(m)),
        )
        result = sa_solve(instance, SAConfig(cooling_rate=0.98**5, seed=2))
        direct = model.assignment_fitness(instance, result.best_assignment)
        assert result.best_makespan == pytest.approx(direct, rel=1e-12)
        assert all(x >= y for x, y in zip(result.trace, result.trace[1:]))
        assert result.trace[-1] == result.best_makespan

    def test_equal_fitness_moves_always_accepted(self):
        # Acceptance for a zero increase is exp(0) = 1 regardless of temperature.
        assert math.exp(-0.0 / 5.0) == 1.0

    def test_reaches_oracle_neighborhood_loose(self, tiny_instance):
        _, optimum = brute_force_optimum(tiny_instance)
        hits = 0
        for seed in range(100):
            result = sa_solve(
                tiny_instance,
                SAConfig(
                    initial_temperature=25.0,
                    cooling_rate=0.95,
                    steps_per_temperature=20,
                    min_temperature=1e-2,
                    seed=seed,
                ),
            )
            if result.best_makespan <= 1.10 * optimum:
                hits += 1
        assert hits >= 80

    def test_iterations_run_counts_temperature_levels(self, tiny_instance):
        config = SAConfig(
            initial_temperature=8.0,
            cooling_rate=0.5,
            steps_per_temperature=3,
            min_temperature=1.0,
            seed=0,
        )
        result = sa_solve(tiny_instance, config)
        # levels: 8, 4, 2 are all > 1; trace has one extra leading point
        assert result.iterations_run == 3
        assert len(result.trace) == 4


def reference_fuzzy_de(instance, config):
    """Fuzzy DE with per-matrix initialization and scoring and an inline population step."""
    rng = np.random.default_rng(config.seed)
    n, m = instance.resource_count, instance.job_count

    population = []
    for _ in range(config.population_size):
        genome = model.repair_stack(rng.random((n, m)))
        assert is_membership_matrix(genome)
        assignees = model.batch_defuzzify(genome[None, :, :])
        population.append((genome, float(model.batch_fitness(instance, assignees)[0])))
    stack = np.stack([genome for genome, _ in population])
    fits = np.array([fitness for _, fitness in population])

    best_index = int(np.argmin(fits))
    best_fitness = float(fits[best_index])
    best_genome = stack[best_index].copy()
    trace = [best_fitness]

    for _ in range(config.max_iterations):
        pop_size, n, m = stack.shape
        order = np.argsort(rng.random((pop_size, pop_size - 1)), axis=1)[:, :3]
        partners = order + (order >= np.arange(pop_size)[:, None])
        mutants = stack[partners[:, 0]] + config.scaling_factor * (
            stack[partners[:, 1]] - stack[partners[:, 2]]
        )
        take_mutant = rng.random(stack.shape) < config.crossover_rate
        forced = rng.integers(0, n * m, size=pop_size)
        take_mutant.reshape(pop_size, -1)[np.arange(pop_size), forced] = True
        trials = np.where(take_mutant, mutants, stack)
        model.repair_stack(trials)
        trial_fits = model.batch_fitness(instance, model.batch_defuzzify(trials))
        improved = trial_fits < fits
        stack[improved] = trials[improved]
        fits[improved] = trial_fits[improved]
        index = int(np.argmin(fits))
        if fits[index] < best_fitness:
            best_fitness = float(fits[index])
            best_genome = stack[index].copy()
        trace.append(best_fitness)

    assignment = Assignment(tuple(model.batch_defuzzify(best_genome).tolist()))
    return assignment, best_fitness, tuple(trace), config.max_iterations


def reference_crisp_de(instance, config):
    """Crisp DE with its own inline partner draw, crossover and greedy selection."""
    rng = np.random.default_rng(config.seed)
    n, m = instance.resource_count, instance.job_count
    pop_size = config.population_size

    population = rng.uniform(0, n, size=(pop_size, m))
    fits = model.batch_fitness(instance, decode_positions(population, n))
    best_index = int(np.argmin(fits))
    best_fit = float(fits[best_index])
    best_vec = population[best_index].copy()
    trace = [best_fit]

    for _ in range(config.max_iterations):
        order = np.argsort(rng.random((pop_size, pop_size - 1)), axis=1)[:, :3]
        partners = order + (order >= np.arange(pop_size)[:, None])
        mutants = population[partners[:, 0]] + config.scaling_factor * (
            population[partners[:, 1]] - population[partners[:, 2]]
        )
        take_mutant = rng.random((pop_size, m)) < config.crossover_rate
        forced = rng.integers(0, m, size=pop_size)
        take_mutant[np.arange(pop_size), forced] = True
        trials = np.where(take_mutant, mutants, population)
        trials = reflect_positions(trials, n)
        trial_fits = model.batch_fitness(instance, decode_positions(trials, n))
        improved = trial_fits < fits
        population[improved] = trials[improved]
        fits[improved] = trial_fits[improved]
        index = int(np.argmin(fits))
        if fits[index] < best_fit:
            best_fit = float(fits[index])
            best_vec = population[index].copy()
        trace.append(best_fit)

    decoded = decode_positions(best_vec[None, :], n)[0]
    return Assignment(tuple(decoded.tolist())), best_fit, tuple(trace), config.max_iterations


# Non-integer lengths and speeds, unwindowed.
_FRACTIONAL = np.random.default_rng(11)
FRACTIONAL_INSTANCE = GridInstance(
    resources=tuple(Resource(i, float(_FRACTIONAL.uniform(0.5, 10.0))) for i in range(9)),
    jobs=tuple(Job(j, float(_FRACTIONAL.uniform(0.1, 100.0))) for j in range(40)),
)

# (source, seed, SolverConfig overrides); max_iterations defaults to 250.
DE_IDENTITY_CASES = [
    *(pytest.param(name, 5, {}, id=name) for name in ("r3_j13", "r5_j100", "r8_j60", "r10_j50")),
    pytest.param(GeneratorSpec(3, 7, window=WINDOW, seed=15), 5, {}, id="w3x7_s15"),
    pytest.param(GeneratorSpec(12, 40, window=TIGHT_WINDOW, seed=3), 5, {}, id="w12x40_s3"),
    pytest.param(GeneratorSpec(1, 7, seed=13), 5, {}, id="n1"),
    pytest.param(GeneratorSpec(5, 1, seed=13), 5, {}, id="m1"),
    pytest.param("r8_j60", 2**64 - 1, {}, id="r8_j60_max_seed"),
    pytest.param("r8_j60", 5, {"crossover_rate": 0.0}, id="r8_j60_cr0"),
    pytest.param(
        "r8_j60", 5, {"crossover_rate": 1.0, "scaling_factor": 2.0}, id="r8_j60_cr1_f2"
    ),
    # Trials mix target zeros with negative mutant entries, so some columns
    # clamp to all zeros and repair resets them inside the engine.
    pytest.param(
        "r3_j13", 5, {"crossover_rate": 0.5, "scaling_factor": 2.0}, id="r3_j13_cr05_f2"
    ),
    pytest.param("r10_j50", 5, {"population_size": 4}, id="r10_j50_pop4"),
    pytest.param(
        GeneratorSpec(20, 1000, seed=2014), 5, {"max_iterations": 20}, id="large_20x1000"
    ),
    pytest.param(FRACTIONAL_INSTANCE, 5, {}, id="fractional_9x40"),
]


def reference_fuzzy_pso(instance, config):
    """Fuzzy PSO with a fresh-array velocity expression and a boolean-mask pbest update."""
    rng = np.random.default_rng(config.seed)
    n, m = instance.resource_count, instance.job_count
    w, c1, c2 = config.inertia_weight, config.cognitive_coefficient, config.social_coefficient

    positions = model.repair_stack(rng.random((config.population_size, n, m)))
    velocities = np.zeros_like(positions)
    fits = model.batch_fitness(instance, model.batch_defuzzify(positions))
    pbest = positions.copy()
    pbest_fits = fits.copy()
    g = int(np.argmin(pbest_fits))
    gbest = pbest[g].copy()
    gbest_fit = float(pbest_fits[g])
    trace = [gbest_fit]

    for _ in range(config.max_iterations):
        r_cognitive = rng.random(positions.shape)
        r_social = rng.random(positions.shape)
        velocities = (
            w * velocities
            + c1 * r_cognitive * (pbest - positions)
            + c2 * r_social * (gbest[None, :, :] - positions)
        )
        positions = model.repair_stack(positions + velocities)
        fits = model.batch_fitness(instance, model.batch_defuzzify(positions))
        improved = fits < pbest_fits
        pbest[improved] = positions[improved]
        pbest_fits[improved] = fits[improved]
        g = int(np.argmin(pbest_fits))
        if pbest_fits[g] < gbest_fit:
            gbest_fit = float(pbest_fits[g])
            gbest = pbest[g].copy()
        trace.append(gbest_fit)

    assignment = Assignment(tuple(model.batch_defuzzify(gbest).tolist()))
    return assignment, gbest_fit, tuple(trace), config.max_iterations


# (source, seed, PSOConfig overrides); max_iterations defaults to 100.
PSO_IDENTITY_CASES = [
    *(pytest.param(name, 5, {}, id=name) for name in ("r3_j13", "r5_j100", "r8_j60", "r10_j50")),
    pytest.param(
        GeneratorSpec(20, 1000, seed=2014), 5, {"max_iterations": 20}, id="large_20x1000"
    ),
    pytest.param(GeneratorSpec(3, 7, window=WINDOW, seed=15), 5, {}, id="w3x7_s15"),
    pytest.param(GeneratorSpec(12, 40, window=TIGHT_WINDOW, seed=3), 5, {}, id="w12x40_s3"),
    pytest.param(GeneratorSpec(1, 7, seed=13), 5, {}, id="n1"),
    pytest.param(GeneratorSpec(5, 1, seed=13), 5, {}, id="m1"),
    pytest.param("r8_j60", 2**64 - 1, {}, id="r8_j60_max_seed"),
    pytest.param("r10_j50", 5, {"population_size": 2}, id="r10_j50_swarm2"),
    pytest.param(
        "r8_j60",
        5,
        {"inertia_weight": 0.0, "cognitive_coefficient": 3.0, "social_coefficient": 3.0},
        id="r8_j60_w0_c3",
    ),
]


def identity_instance(source):
    if isinstance(source, str):
        return fixture_suite()[source]
    if isinstance(source, GridInstance):
        return source
    return generate_instance(source)


class TestDEEngine:
    @pytest.mark.parametrize(
        "solver, reference",
        [(fuzzy_de_solve, reference_fuzzy_de), (crisp_de_solve, reference_crisp_de)],
        ids=["fuzzy-de", "de"],
    )
    @pytest.mark.parametrize("source, seed, overrides", DE_IDENTITY_CASES)
    def test_bit_identical_to_inline_reference(self, solver, reference, source, seed, overrides):
        instance = identity_instance(source)
        config = SolverConfig(**{"max_iterations": 250, "seed": seed, **overrides})
        result = solver(instance, config)
        got = (result.best_assignment, result.best_makespan, result.trace, result.iterations_run)
        assert got == reference(instance, config)

    def test_repairs_the_full_stack_once_per_generation(self, monkeypatch):
        instance = fixture_suite()["r3_j13"]
        original = model.repair_stack
        shapes, dead = [], []

        def recording(stack):
            shapes.append(stack.shape)
            dead.append(bool((np.clip(stack, 0.0, 1.0).sum(axis=-2) == 0.0).any()))
            return original(stack)

        monkeypatch.setattr(model, "repair_stack", recording)
        config = SolverConfig(crossover_rate=0.5, scaling_factor=2.0, max_iterations=30, seed=5)
        fuzzy_de_solve(instance, config)
        # The initial population, then one whole (pop, n, m) trial stack per generation.
        assert shapes == [(10, 3, 13)] * 31
        assert any(dead)


class TestCrispDE:
    def test_floor_decoding(self):
        np.testing.assert_array_equal(
            decode_positions(np.array([[0.2, 1.9]]), 2), np.array([[0, 1]])
        )

    def test_boundary_component_maps_to_top_resource(self):
        reflected = reflect_positions(np.array([[2.0]]), 2)
        assert decode_positions(reflected, 2)[0, 0] == 1

    def test_reflection_folds_back_into_range(self):
        vectors = np.array([[-0.5, 2.3, 4.1, -3.7]])
        folded = reflect_positions(vectors, 2)
        assert (folded >= 0).all() and (folded <= 2).all()
        np.testing.assert_allclose(folded, [[0.5, 1.7, 0.1, 0.3]])

    def test_reaches_oracle_neighborhood(self, tiny_instance):
        _, optimum = brute_force_optimum(tiny_instance)
        hits = 0
        for seed in range(100):
            result = crisp_de_solve(
                tiny_instance, SolverConfig(population_size=30, max_iterations=100, seed=seed)
            )
            if result.best_makespan <= 1.05 * optimum:
                hits += 1
        assert hits >= 90


class TestFuzzyPSO:
    def test_converged_particle_is_stationary(self):
        positions = model.repair_stack(np.random.default_rng(0).random((3, 2, 4)))
        velocities = np.zeros_like(positions)
        pbest = positions.copy()
        gbest = positions[1].copy()
        # Only particle 1 sits exactly on both bests; it must not move.
        new_pos, new_vel = pso_step(
            positions.copy(), velocities, pbest, gbest, PSOConfig(population_size=3), np.random.default_rng(5),
            scratch=np.empty((2, 3, 2, 4)),
        )
        np.testing.assert_allclose(new_pos[1], positions[1], atol=1e-12)
        np.testing.assert_allclose(new_vel[1], 0.0, atol=1e-15)

    def test_positions_stay_feasible(self, small_instance):
        result = fuzzy_pso_solve(small_instance, PSOConfig(population_size=8, max_iterations=30, seed=1))
        # Terminal best decodes to a valid schedule; positions were repaired throughout.
        assert len(result.best_assignment) == small_instance.job_count

    def test_pso_step_outputs_feasible_stack(self):
        rng = np.random.default_rng(3)
        positions = model.repair_stack(rng.random((5, 3, 6)))
        velocities = rng.normal(size=(5, 3, 6))
        pbest = model.repair_stack(rng.random((5, 3, 6)))
        gbest = model.repair_stack(rng.random((1, 3, 6)))[0]
        scratch = np.empty((2, 5, 3, 6))
        new_pos, _ = pso_step(positions, velocities, pbest, gbest, PSOConfig(), rng, scratch)
        for matrix in new_pos:
            assert is_membership_matrix(matrix)

    @pytest.mark.parametrize("source, seed, overrides", PSO_IDENTITY_CASES)
    def test_bit_identical_to_inline_reference(self, source, seed, overrides):
        instance = identity_instance(source)
        config = PSOConfig(**{"max_iterations": 100, "seed": seed, **overrides})
        result = fuzzy_pso_solve(instance, config)
        got = (result.best_assignment, result.best_makespan, result.trace, result.iterations_run)
        assert got == reference_fuzzy_pso(instance, config)

    @pytest.mark.parametrize(
        "config",
        [
            PSOConfig(),
            PSOConfig(inertia_weight=0.0, cognitive_coefficient=3.0, social_coefficient=3.0),
        ],
        ids=["default", "w0_c3"],
    )
    def test_step_equals_fresh_array_expression_bit_for_bit(self, config):
        # RunResults only see argmax flips; this pins every float of the step.
        rng = np.random.default_rng(9)
        shape = (6, 4, 30)
        positions = model.repair_stack(rng.random(shape))
        velocities = rng.normal(size=shape)
        pbest = model.repair_stack(rng.random(shape))
        gbest = pbest[2].copy()
        draws = np.random.default_rng(4)
        r_cognitive, r_social = draws.random(shape), draws.random(shape)
        expected_vel = (
            config.inertia_weight * velocities
            + config.cognitive_coefficient * r_cognitive * (pbest - positions)
            + config.social_coefficient * r_social * (gbest[None, :, :] - positions)
        )
        expected_pos = model.repair_stack(positions + expected_vel)
        new_pos, new_vel = pso_step(
            positions, velocities, pbest, gbest, config, np.random.default_rng(4),
            np.empty((2, *shape)),
        )
        np.testing.assert_array_equal(new_vel, expected_vel)
        np.testing.assert_array_equal(new_pos, expected_pos)

    def test_step_allocates_no_stack_sized_temporary(self):
        rng = np.random.default_rng(0)
        shape = (50, 20, 1000)
        positions = model.repair_stack(rng.random(shape))
        velocities = rng.normal(size=shape)
        pbest = model.repair_stack(rng.random(shape))
        gbest = pbest[0].copy()
        scratch = np.empty((2, *shape))
        tracemalloc.start()
        try:
            pso_step(positions, velocities, pbest, gbest, PSOConfig(), rng, scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < positions.nbytes / 4

    def test_repairs_the_full_stack_once_per_step(self, monkeypatch):
        instance = fixture_suite()["r3_j13"]
        original = model.repair_stack
        shapes = []

        def recording(stack):
            shapes.append(stack.shape)
            return original(stack)

        monkeypatch.setattr(model, "repair_stack", recording)
        fuzzy_pso_solve(instance, PSOConfig(population_size=7, max_iterations=30, seed=5))
        # The initial swarm, then the whole (swarm, n, m) stack once per step.
        assert shapes == [(7, 3, 13)] * 31

    def test_reaches_oracle_neighborhood(self, tiny_instance):
        _, optimum = brute_force_optimum(tiny_instance)
        hits = 0
        for seed in range(100):
            result = fuzzy_pso_solve(
                tiny_instance, PSOConfig(population_size=30, max_iterations=100, seed=seed)
            )
            if result.best_makespan <= 1.05 * optimum:
                hits += 1
        assert hits >= 85
