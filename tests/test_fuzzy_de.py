import time

import numpy as np
import pytest

from gridsched import model
from gridsched.datasets import GeneratorSpec, generate_instance
from gridsched.fuzzy_de import (
    Individual,
    SolverConfig,
    _mutants,
    crossover,
    evolve,
    mutate,
    solve,
)
from gridsched.model import (
    Assignment,
    ConfigurationError,
    GridInstance,
    Job,
    Resource,
    brute_force_optimum,
    check_constraints,
    repair,
)


def make_population(matrices, fitnesses=None):
    fitnesses = fitnesses or [0.0] * len(matrices)
    return [Individual(repair(np.asarray(m, dtype=float)), f) for m, f in zip(matrices, fitnesses)]


class TestSolverConfig:
    def test_defaults_are_valid(self):
        SolverConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 3},
            {"scaling_factor": 0.0},
            {"scaling_factor": 2.5},
            {"crossover_rate": 1.5},
            {"max_iterations": -1},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            SolverConfig(**kwargs)


def recorded_stacks(monkeypatch, name):
    """Wrap model.<name> to keep a copy of each stack passed to it, as left by the call."""
    original = getattr(model, name)
    stacks = []

    def recording(stack):
        out = original(stack)
        stacks.append(stack.copy())
        return out

    monkeypatch.setattr(model, name, recording)
    return stacks


class TestInitialPopulation:
    # With no generations, solve repairs exactly once: the initial population.
    def test_genomes_satisfy_constraints_and_count(self, small_instance, monkeypatch):
        repaired = recorded_stacks(monkeypatch, "repair_stack")
        scored = []
        original = model.batch_fitness

        def scoring(instance, assignees):
            scored.append(original(instance, assignees))
            return scored[-1]

        monkeypatch.setattr(model, "batch_fitness", scoring)
        result = solve(small_instance, SolverConfig(population_size=12, max_iterations=0))
        (stack,) = repaired
        (fits,) = scored
        assert stack.shape == (12, 3, 8)
        for genome in stack:
            assert check_constraints(genome)
        scores = [
            model.assignment_fitness(
                small_instance, Assignment(tuple(model.batch_defuzzify(genome).tolist()))
            )
            for genome in stack
        ]
        assert fits.tolist() == scores
        assert result.trace == (min(scores),)

    def test_same_seed_same_population(self, small_instance, monkeypatch):
        repaired = recorded_stacks(monkeypatch, "repair_stack")
        config = SolverConfig(population_size=6, max_iterations=0, seed=9)
        a = solve(small_instance, config)
        b = solve(small_instance, config)
        np.testing.assert_array_equal(repaired[0], repaired[1])
        assert a.trace == b.trace

    def test_single_resource_gives_all_ones(self, monkeypatch):
        inst = generate_instance(GeneratorSpec(1, 5, seed=3))
        repaired = recorded_stacks(monkeypatch, "repair_stack")
        solve(inst, SolverConfig(max_iterations=0, seed=1))
        np.testing.assert_array_equal(repaired[0], np.ones((10, 1, 5)))


class TestMutate:
    def test_zero_scaling_returns_a_population_member(self):
        rng = np.random.default_rng(4)
        pop = make_population([np.eye(2) * 0.6 + 0.2, [[1, 0], [0, 1]], [[0.5] * 2] * 2, [[0.3, 0.7], [0.7, 0.3]]])
        mutant = mutate(pop, 0, 0.0, rng)
        assert any(np.array_equal(mutant, ind.genome.values) for ind in pop[1:])

    def test_equal_difference_pair_collapses_to_base(self):
        # All non-target genomes identical, so base + F*(a - b) == base.
        shared = [[0.4, 0.6], [0.6, 0.4]]
        pop = make_population([[[0.1, 0.9], [0.9, 0.1]], shared, shared, shared])
        mutant = mutate(pop, 0, 0.8, np.random.default_rng(0))
        np.testing.assert_allclose(mutant, np.asarray(shared))

    def test_slot_arithmetic(self):
        # Single-slot genomes make the combination visible: 0.4 + 0.5*(0.8-0.2).
        pop = make_population([[[0.0]], [[0.4]], [[0.8]], [[0.2]]])
        rng = np.random.default_rng(11)
        order = np.argsort(np.random.default_rng(11).random(3))
        picks = order + (order >= 0)
        expected = pop[picks[0]].genome.values + 0.5 * (
            pop[picks[1]].genome.values - pop[picks[2]].genome.values
        )
        mutant = mutate(pop, 0, 0.5, rng)
        np.testing.assert_allclose(mutant, expected)
        direct = 0.4 + 0.5 * (0.8 - 0.2)
        assert direct == pytest.approx(0.7)

    @pytest.mark.parametrize("size", [4, 5, 7, 12])
    def test_partners_are_distinct_and_differ_from_the_target(self, size):
        # Genome i holds the unit vector e_i, so with F = 0.5 the mutant
        # e_base + 0.5 * (e_first - e_second) shows its three partners, and
        # any coincidence among them breaks the pattern of values.
        def partners(mutant):
            assert sorted(mutant.tolist()) == [-0.5] + [0.0] * (size - 3) + [0.5, 1.0]
            return set(np.flatnonzero(mutant).tolist())

        unit = np.eye(size)
        pop = make_population([np.vstack([unit[i], 1.0 - unit[i]]) for i in range(size)])
        for seed in range(50):
            population_path = _mutants(unit, np.arange(size), 0.5, np.random.default_rng(seed))
            for target in range(size):
                assert target not in partners(population_path[target])
                single_row = mutate(pop, target, 0.5, np.random.default_rng(seed))
                assert target not in partners(single_row[0])

    def test_rejects_tiny_population(self):
        pop = make_population([[[1.0]], [[1.0]], [[1.0]]])
        with pytest.raises(ConfigurationError):
            mutate(pop, 0, 0.5, np.random.default_rng(0))


class TestCrossover:
    def test_full_rate_copies_mutant(self):
        target = repair(np.full((3, 4), 0.5))
        mutant = np.full((3, 4), 0.9)
        trial = crossover(target, mutant, 1.0, np.random.default_rng(2))
        np.testing.assert_array_equal(trial, mutant)

    def test_zero_rate_keeps_target_except_forced_slot(self):
        target = repair(np.full((3, 4), 1 / 3))
        mutant = np.full((3, 4), 0.9)
        trial = crossover(target, mutant, 0.0, np.random.default_rng(2))
        differing = np.sum(trial != target.values)
        assert differing == 1
        assert trial[trial != target.values][0] == 0.9

    def test_seeded_replay_reproduces_slot_selection(self):
        # Re-draw the identical stream and rebuild the expected slot mask.
        target = repair(np.array([[0.2, 0.8], [0.8, 0.2]]))
        mutant = np.array([[0.55, 0.45], [0.45, 0.55]])
        seed = 1234
        trial = crossover(target, mutant, 0.5, np.random.default_rng(seed))
        replay = np.random.default_rng(seed)
        take = replay.random((2, 2)) < 0.5
        take.reshape(-1)[int(replay.integers(4))] = True
        expected = np.where(take, mutant, target.values)
        np.testing.assert_array_equal(trial, expected)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            crossover(repair(np.full((2, 2), 0.5)), np.zeros((3, 2)), 0.5, np.random.default_rng(0))


class TestSelection:
    # One job on resources of speed 1 and 2: resource 0 scores 2.0, resource
    # 1 scores 1.0.  Every parent holds 0.0 and repair makes every first
    # trial 1.0.  With crossover rate 0 and one slot, the second generation's
    # raw trials are pure mutants v + F * (v - v) = v of the population, so
    # they show whether it kept the parents or took the trials.
    INSTANCE = GridInstance(resources=(Resource(0, 1.0), Resource(1, 2.0)), jobs=(Job(0, 2.0),))

    def run(self, decode):
        raw = []

        def repair(trials):
            raw.append(trials.copy())
            return np.ones_like(trials) if len(raw) == 1 else trials

        config = SolverConfig(population_size=4, crossover_rate=0.0, max_iterations=2)
        result = evolve(
            self.INSTANCE, np.zeros((4, 1)), config, np.random.default_rng(0),
            repair, decode, time.perf_counter(),
        )
        return result, raw[1]

    def test_strict_improvement_takes_trial(self):
        result, second = self.run(lambda g: (g >= 0.5).astype(np.int64))
        np.testing.assert_array_equal(second, np.ones((4, 1)))
        assert result.trace == (2.0, 1.0, 1.0)
        assert result.best_assignment.assignee == (1,)

    def test_tie_retains_parent(self):
        result, second = self.run(lambda g: np.zeros(g.shape, dtype=np.int64))
        np.testing.assert_array_equal(second, np.zeros((4, 1)))
        assert result.trace == (2.0, 2.0, 2.0)

    def test_worse_trial_rejected(self):
        result, second = self.run(lambda g: (g < 0.5).astype(np.int64))
        np.testing.assert_array_equal(second, np.zeros((4, 1)))
        assert result.trace == (1.0, 1.0, 1.0)
        assert result.best_assignment.assignee == (1,)


class TestSolve:
    def test_zero_iterations_reports_initial_best(self, small_instance):
        result = solve(small_instance, SolverConfig(population_size=8, max_iterations=0, seed=5))
        assert len(result.trace) == 1
        assert result.trace[0] == result.best_makespan
        assert result.iterations_run == 0

    def test_single_resource_forced_schedule(self):
        inst = generate_instance(GeneratorSpec(1, 6, seed=8))
        expected = float(inst.lengths.sum() / inst.speeds[0])
        for seed in (0, 1, 2):
            result = solve(inst, SolverConfig(population_size=5, max_iterations=10, seed=seed))
            assert result.best_makespan == pytest.approx(expected)

    def test_deterministic_per_seed(self, small_instance):
        config = SolverConfig(population_size=10, max_iterations=40, seed=123)
        a = solve(small_instance, config)
        b = solve(small_instance, config)
        assert a.best_makespan == b.best_makespan
        assert a.best_assignment == b.best_assignment
        assert a.trace == b.trace

    def test_trace_non_increasing_and_ends_at_best(self, small_instance):
        result = solve(small_instance, SolverConfig(population_size=8, max_iterations=60, seed=3))
        trace = result.trace
        assert all(earlier >= later for earlier, later in zip(trace, trace[1:]))
        assert trace[-1] == result.best_makespan
        assert len(trace) == 61

    def test_best_equals_minimum_fitness_ever_evaluated(self, small_instance, monkeypatch):
        observed = []
        original = model.batch_fitness

        def recording(instance, assignees):
            fits = original(instance, assignees)
            observed.extend(float(x) for x in fits)
            return fits

        monkeypatch.setattr(model, "batch_fitness", recording)
        result = solve(small_instance, SolverConfig(population_size=8, max_iterations=30, seed=2))
        assert result.best_makespan == pytest.approx(min(observed), abs=0)

    def test_population_stays_feasible_across_generations(self, small_instance, monkeypatch):
        # Every genome that can enter the population is scored, so decoded, first.
        seen = recorded_stacks(monkeypatch, "batch_defuzzify")
        solve(small_instance, SolverConfig(population_size=8, max_iterations=25, seed=6))
        assert len(seen) == 1 + 25 + 1
        for stack in seen:
            for genome in stack:
                assert check_constraints(genome)

    def test_reaches_oracle_neighborhood_on_small_instance(self):
        inst = generate_instance(GeneratorSpec(3, 10, seed=77))
        _, optimum = brute_force_optimum(inst)
        config = SolverConfig(population_size=30, max_iterations=300)
        hits = 0
        for seed in range(100):
            result = solve(inst, SolverConfig(
                population_size=config.population_size,
                max_iterations=config.max_iterations,
                seed=seed,
            ))
            if result.best_makespan <= 1.05 * optimum:
                hits += 1
        assert hits >= 90
