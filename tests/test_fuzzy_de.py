import time
from dataclasses import replace

import numpy as np
import pytest

from gridsched import model
from gridsched.datasets import GeneratorSpec, generate_instance
from gridsched.fuzzy_de import SolverConfig, _partner_table, _partners, evolve, solve
from gridsched.model import (
    Assignment,
    ConfigurationError,
    GridInstance,
    Job,
    NumericDomainError,
    Resource,
    brute_force_optimum,
)
from oracles import is_membership_matrix


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
            assert is_membership_matrix(genome)
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


class TestPartners:
    @pytest.mark.parametrize("size", [4, 5, 7, 12])
    def test_partners_are_distinct_and_differ_from_the_target(self, size):
        targets = np.arange(size)
        seen = [set() for _ in targets]
        for seed in range(50):
            # With one cell per member, an offset is partner index minus target index.
            keys = np.random.default_rng(seed).random((size, size - 1))
            offsets = _partners(_partner_table(size, 1), keys)
            partners = offsets + targets[:, None]
            assert partners.shape == (size, 3)
            for target, row in zip(targets.tolist(), partners.tolist()):
                assert len(set(row)) == 3
                assert target not in row
                assert all(0 <= p < size for p in row)
                seen[target].update(row)
        # Every other member is drawn for every target at some seed.
        assert all(picked == set(range(size)) - {target} for target, picked in enumerate(seen))


def unrepaired(values):
    return values


def first_raw_trials(instance, genomes, config, seed):
    """The raw (pre-repair) trial stack of evolve's first generation from `genomes`.

    The slot repair is the identity, so the stack handed to the stack step,
    recorded here, holds the raw mutant values at the taken slots.
    """
    raw = []

    def repair(trials):
        raw.append(trials.copy())
        return model.repair_stack(trials)

    evolve(
        instance, genomes.copy(), replace(config, max_iterations=1), np.random.default_rng(seed),
        unrepaired, repair, model.batch_defuzzify, time.perf_counter(),
    )
    (trials,) = raw
    return trials


def replayed_draws(genomes, crossover_rate, seed):
    """Re-draw one generation's stream densely: (partners, take mask)."""
    pop = len(genomes)
    rows = np.arange(pop)
    replay = np.random.default_rng(seed)
    order = np.argsort(replay.random((pop, pop - 1)), axis=1)[:, :3]
    partners = order + (order >= rows[:, None])
    take = replay.random(genomes.shape) < crossover_rate
    take.reshape(pop, -1)[rows, replay.integers(0, genomes[0].size, size=pop)] = True
    return partners, take


def dense_mutants(genomes, partners, scaling_factor):
    base, first, second = (genomes[partners[:, k]] for k in range(3))
    return base + scaling_factor * (first - second)


class TestMutate:
    # Mutation is observed through the raw trials of one evolve generation at
    # crossover rate 1, where every slot comes from the mutant.

    def test_equal_difference_pair_collapses_to_base(self):
        # All non-target genomes identical, so base + F*(a - b) == base.
        inst = generate_instance(GeneratorSpec(2, 2, seed=1))
        shared = [[0.4, 0.6], [0.6, 0.4]]
        genomes = np.array([[[0.1, 0.9], [0.9, 0.1]], shared, shared, shared])
        config = SolverConfig(scaling_factor=0.8, crossover_rate=1.0, population_size=4)
        trials = first_raw_trials(inst, genomes, config, seed=0)
        np.testing.assert_array_equal(trials[0], np.asarray(shared))

    def test_slot_arithmetic(self):
        # Single-slot genomes make each trial exactly base + F*(first - second).
        inst = generate_instance(GeneratorSpec(1, 1, seed=2))
        values = [0.0, 0.4, 0.8, 0.2]
        genomes = np.array(values).reshape(4, 1, 1)
        config = SolverConfig(scaling_factor=0.5, crossover_rate=1.0, population_size=4)
        trials = first_raw_trials(inst, genomes, config, seed=11)
        partners, _ = replayed_draws(genomes, 1.0, seed=11)
        for target in range(4):
            base, first, second = (values[p] for p in partners[target])
            assert trials[target, 0, 0] == base + 0.5 * (first - second)

    def test_non_finite_mutant_raises(self, small_instance):
        # With four members every other member is a partner of each row, so
        # every mutant but row 0's reads the infinite entry.
        genomes = model.repair_stack(np.random.default_rng(2).random((4, 3, 8)))
        genomes[0, 1, 5] = np.inf
        config = SolverConfig(crossover_rate=1.0, population_size=4, max_iterations=1)
        with pytest.raises(NumericDomainError):
            evolve(
                small_instance, genomes, config, np.random.default_rng(0),
                model.clamp_memberships, model.normalize_stack, model.batch_defuzzify, 0.0,
            )


class TestCrossover:
    def test_full_rate_copies_mutant(self, small_instance):
        genomes = model.repair_stack(np.random.default_rng(3).random((6, 3, 8)))
        config = SolverConfig(scaling_factor=0.7, crossover_rate=1.0, population_size=6)
        trials = first_raw_trials(small_instance, genomes, config, seed=5)
        partners, _ = replayed_draws(genomes, 1.0, seed=5)
        np.testing.assert_array_equal(trials, dense_mutants(genomes, partners, 0.7))

    def test_zero_rate_keeps_target_except_forced_slot(self, small_instance):
        genomes = model.repair_stack(np.random.default_rng(4).random((5, 3, 8)))
        config = SolverConfig(crossover_rate=0.0, population_size=5)
        trials = first_raw_trials(small_instance, genomes, config, seed=6)
        partners, take = replayed_draws(genomes, 0.0, seed=6)
        mutants = dense_mutants(genomes, partners, config.scaling_factor)
        for target in range(5):
            differing = trials[target] != genomes[target]
            assert np.sum(differing) == 1
            assert np.array_equal(differing, take[target])
            assert trials[target][differing][0] == mutants[target][differing][0]

    @pytest.mark.parametrize("crossover_rate", [0.0, 0.02, 0.5, 1.0])
    def test_seeded_replay_reproduces_slot_selection(self, crossover_rate):
        # Re-draw the identical stream and rebuild the expected trials densely.
        inst = generate_instance(GeneratorSpec(4, 30, seed=8))
        genomes = model.repair_stack(np.random.default_rng(9).random((7, 4, 30)))
        config = SolverConfig(scaling_factor=1.3, crossover_rate=crossover_rate, population_size=7)
        seed = 1234
        trials = first_raw_trials(inst, genomes, config, seed)
        partners, take = replayed_draws(genomes, crossover_rate, seed)
        expected = np.where(take, dense_mutants(genomes, partners, 1.3), genomes)
        np.testing.assert_array_equal(trials, expected)


class TestSelection:
    # One job on resources of speed 1 and 2: resource 0 scores 2.0, resource
    # 1 scores 1.0.  Every parent holds 0.0 and the stack step makes every
    # first trial 1.0.  With crossover rate 0 and one slot, the second generation's
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
            unrepaired, repair, decode, time.perf_counter(),
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
                assert is_membership_matrix(genome)

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
