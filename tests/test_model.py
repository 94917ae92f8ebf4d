import itertools
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from gridsched.datasets import GeneratorSpec, fixture_suite, generate_instance
from gridsched.model import (
    OVERSHOOT_PENALTY,
    Assignment,
    GridInstance,
    Job,
    MalformedAssignmentError,
    NumericDomainError,
    OracleBudgetError,
    Resource,
    assignment_fitness,
    batch_defuzzify,
    batch_fitness,
    brute_force_optimum,
    repair_stack,
)
from oracles import is_membership_matrix, naive_fitness, naive_makespan


def first_minimiser(instance):
    """(Assignment, value) of the first itertools.product row minimising batch_fitness."""
    rows = np.array(
        list(itertools.product(range(instance.resource_count), repeat=instance.job_count))
    )
    values = batch_fitness(instance, rows)
    pos = int(np.argmin(values))
    return Assignment(tuple(rows[pos].tolist())), float(values[pos])


def make_instance(speeds, lengths, starts=None, ends=None):
    starts = starts or [0.0] * len(speeds)
    ends = ends or [math.inf] * len(speeds)
    return GridInstance(
        resources=tuple(
            Resource(i, s, start_time=st_, end_time=e) for i, (s, st_, e) in enumerate(zip(speeds, starts, ends))
        ),
        jobs=tuple(Job(j, length) for j, length in enumerate(lengths)),
    )


class TestConstruction:
    def test_job_rejects_non_positive_length(self):
        with pytest.raises(ValueError):
            Job(0, 0.0)
        with pytest.raises(ValueError):
            Job(0, -3.0)

    def test_resource_rejects_bad_speed_and_window(self):
        with pytest.raises(ValueError):
            Resource(0, 0.0)
        with pytest.raises(ValueError):
            Resource(0, 1.0, start_time=-1.0)
        with pytest.raises(ValueError):
            Resource(0, 1.0, start_time=5.0, end_time=5.0)

    def test_instance_requires_contiguous_ids(self):
        with pytest.raises(ValueError):
            GridInstance(resources=(Resource(1, 1.0),), jobs=(Job(0, 1.0),))
        with pytest.raises(ValueError):
            GridInstance(resources=(Resource(0, 1.0),), jobs=(Job(2, 1.0),))

    def test_instance_is_windowed_iff_some_window_end_is_finite(self):
        assert not make_instance([1.0, 2.0], [3.0]).windowed
        assert make_instance([1.0, 2.0], [3.0], ends=[math.inf, 9.0]).windowed

    def test_instance_arrays_are_read_only_and_outside_equality(self):
        inst = make_instance([1.0, 2.0], [3.0, 4.0], ends=[math.inf, 9.0])
        for name in ("speeds", "start_times", "end_times", "lengths"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(inst, name)[0] = 7.0
        with pytest.raises(FrozenInstanceError):
            inst.speeds = np.array([5.0, 6.0])
        twin = make_instance([1.0, 2.0], [3.0, 4.0], ends=[math.inf, 9.0])
        assert twin == inst and hash(twin) == hash(inst)
        assert twin != make_instance([1.0, 2.0], [3.0, 5.0], ends=[math.inf, 9.0])
        assert "speeds" not in repr(inst)

    def test_instance_requires_at_least_one_of_each(self):
        with pytest.raises(ValueError):
            GridInstance(resources=(), jobs=(Job(0, 1.0),))

    def test_assignment_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            Assignment((0, -1))


class TestFitness:
    @pytest.mark.parametrize(
        "speed, lengths, expected", [(1.0, [3.0, 4.0], 7.0), (4.0, [6.0, 10.0, 8.0], 6.0)]
    )
    def test_single_resource_equals_total_over_speed(self, speed, lengths, expected):
        inst = make_instance([speed], lengths)
        assert assignment_fitness(inst, Assignment((0,) * len(lengths))) == expected

    def test_two_resources_example(self, two_speed_instance):
        assert assignment_fitness(two_speed_instance, Assignment((0, 1, 1))) == 5.0

    @pytest.mark.parametrize(
        "assignee",
        [(0, 1), (0, 1, 1, 0), (0, 1, 2), (5, 0, 0)],
        ids=["short", "long", "index_eq_count", "index_past_count"],
    )
    def test_rejects_malformed_assignments(self, two_speed_instance, assignee):
        with pytest.raises(MalformedAssignmentError):
            assignment_fitness(two_speed_instance, Assignment(assignee))

    def test_idle_resource_contributes_start_time(self):
        inst = make_instance([1.0, 1.0], [1.0], starts=[9.0, 0.0])
        assert assignment_fitness(inst, Assignment((1,))) == 9.0

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 12))
    def test_makespan_dominates_single_job_times(self, seed, n, m):
        inst = generate_instance(GeneratorSpec(n, m, seed=seed))
        rng = np.random.default_rng(seed)
        assignee = tuple(int(x) for x in rng.integers(0, n, m))
        fit = assignment_fitness(inst, Assignment(assignee))
        per_job = max(inst.lengths[j] / inst.speeds[r] for j, r in enumerate(assignee))
        assert fit >= per_job - 1e-12

    def test_fitness_equals_makespan_without_windows(self, small_instance):
        rng = np.random.default_rng(2024)
        for inst in (small_instance, fixture_suite()["r3_j13"]):
            assignee = tuple(int(x) for x in rng.integers(0, inst.resource_count, inst.job_count))
            fit = assignment_fitness(inst, Assignment(assignee))
            assert fit == pytest.approx(naive_makespan(inst, assignee), rel=1e-12)

    def test_overshoot_penalty_is_ten_per_time_unit(self):
        inst = make_instance([1.0], [12.0], ends=[10.0])
        fit = assignment_fitness(inst, Assignment((0,)))
        assert fit == pytest.approx(12.0 + 10.0 * 2.0)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 10), st.integers(1, 7))
    def test_batch_agrees_with_naive_oracle(self, seed, n, m, rows):
        inst = generate_instance(GeneratorSpec(n, m, seed=seed))
        rng = np.random.default_rng(seed)
        assignees = rng.integers(0, n, size=(rows, m))
        fits = batch_fitness(inst, assignees)
        for row, fit in zip(assignees, fits):
            assert fit == pytest.approx(naive_fitness(inst, row), rel=1e-12)

    @given(
        st.integers(1, 60),
        st.integers(1, 25),
        st.integers(1, 30),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_flat_kernel_equals_stacked_per_row_bincount(self, k, n, m, windowed, seed):
        rng = np.random.default_rng(seed)
        starts = rng.uniform(0.0, 5.0, n) if windowed else np.zeros(n)
        ends = starts + rng.uniform(1.0, 60.0, n) if windowed else np.full(n, math.inf)
        inst = make_instance(
            rng.uniform(0.5, 10.0, n).tolist(),
            rng.uniform(0.1, 100.0, m).tolist(),
            starts.tolist(),
            ends.tolist(),
        )
        assignees = rng.integers(0, n, size=(k, m))
        cycles = np.stack(
            [np.bincount(row, weights=inst.lengths, minlength=n) for row in assignees]
        )
        completions = inst.start_times + cycles / inst.speeds
        overshoot = np.clip(completions - inst.end_times, 0.0, None).sum(axis=1)
        expected = completions.max(axis=1) + OVERSHOOT_PENALTY * overshoot
        np.testing.assert_array_equal(batch_fitness(inst, assignees), expected)


class TestDefuzzify:
    def test_unique_maximum_column(self):
        matrix = np.array([[0.2], [0.5], [0.3]])
        assert is_membership_matrix(matrix)
        assert batch_defuzzify(matrix).tolist() == [1]

    def test_tie_takes_lowest_resource_index(self):
        matrix = np.array([[0.5], [0.5]])
        assert is_membership_matrix(matrix)
        assert batch_defuzzify(matrix).tolist() == [0]

    def test_one_hot_columns(self):
        matrix = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert is_membership_matrix(matrix)
        assert batch_defuzzify(matrix).tolist() == [0, 1, 0]

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 5), st.integers(1, 6)),
            # A grid of 1/1000 steps keeps distinct entries far more than an ulp
            # apart, so rounding in the transforms below cannot merge or swap them.
            elements=st.integers(1, 1000).map(lambda k: k / 1000),
        ),
        st.sampled_from(["cube", "affine", "sqrt"]),
    )
    def test_invariant_under_monotone_rescaling(self, raw, transform):
        values = repair_stack(raw.copy())
        assert is_membership_matrix(values)
        if transform == "cube":
            rescaled = values**3
        elif transform == "affine":
            rescaled = 0.25 * values + 0.1
        else:
            rescaled = np.sqrt(values)
        repaired = repair_stack(rescaled)
        np.testing.assert_array_equal(batch_defuzzify(repaired), batch_defuzzify(values))


class TestMembershipChecker:
    # The plain-Python checker (tests/oracles.py) that the repair tests rely on.
    def test_uniform_matrix_passes(self):
        assert is_membership_matrix(np.full((4, 7), 0.25))

    def test_negative_entry_fails(self):
        arr = np.full((2, 2), 0.5)
        arr[0, 0] = -0.1
        assert not is_membership_matrix(arr)

    def test_bad_column_sum_fails(self):
        assert not is_membership_matrix(np.array([[0.9], [0.6]]))

    def test_non_finite_fails(self):
        assert not is_membership_matrix(np.array([[np.inf], [0.0]]))


class TestRepair:
    def test_clamp_then_normalize_column(self):
        fixed = repair_stack(np.array([[-0.1], [0.6], [0.7]]))
        expected = np.array([[0.0], [6.0 / 13.0], [7.0 / 13.0]])
        assert is_membership_matrix(fixed)
        np.testing.assert_allclose(fixed, expected, atol=1e-15)

    def test_feasible_matrix_unchanged(self):
        arr = np.array([[0.25, 0.6], [0.75, 0.4]])
        fixed = repair_stack(arr.copy())
        np.testing.assert_allclose(fixed, arr, atol=1e-12)

    def test_dead_column_resets_to_uniform(self):
        fixed = repair_stack(np.array([[-1.0, 0.5], [-2.0, 0.5], [-0.5, 0.0]]))
        assert is_membership_matrix(fixed)
        np.testing.assert_allclose(fixed[:, 0], [1 / 3, 1 / 3, 1 / 3])

    def test_rejects_non_finite(self):
        with pytest.raises(NumericDomainError):
            repair_stack(np.array([[np.inf], [0.0]]))

    @pytest.mark.parametrize("low", [0.0, -2.0], ids=["live", "some_dead"])
    def test_stack_repair_divides_by_the_clamped_column_sum(self, low):
        # Bit for bit: each entry over its clamped column's sum, 1/n where that sum is 0.
        raw = np.random.default_rng(3).uniform(low, 1.0, size=(10, 4, 200))
        clamped = np.clip(raw, 0.0, 1.0)
        sums = clamped.sum(axis=1, keepdims=True)
        dead = sums == 0.0
        expected = np.where(dead, 0.25, clamped / np.where(dead, 1.0, sums))
        assert dead.any() == (low < 0)
        np.testing.assert_array_equal(repair_stack(raw.copy()), expected)

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 8)),
            elements=st.floats(-3.0, 3.0),
        )
    )
    def test_repair_output_is_feasible_and_idempotent(self, raw):
        once = repair_stack(raw.copy())
        assert is_membership_matrix(once)
        twice = repair_stack(once.copy())
        np.testing.assert_allclose(twice, once, atol=1e-12)


class TestBruteForce:
    def test_single_resource_has_no_choice(self):
        inst = make_instance([2.0], [3.0, 5.0])
        assignment, makespan = brute_force_optimum(inst)
        assert assignment.assignee == (0, 0)
        assert makespan == pytest.approx(4.0)

    def test_symmetric_pair_splits_jobs(self):
        inst = make_instance([1.0, 1.0], [1.0, 1.0])
        assignment, makespan = brute_force_optimum(inst)
        assert makespan == pytest.approx(1.0)
        # lexicographically smallest optimum
        assert assignment.assignee == (0, 1)

    def test_frozen_enumeration_constant(self):
        # 3^5 exhaustive enumeration, computed once with an independent script.
        inst = make_instance([4.0, 3.0, 2.0], [6.0, 12.0, 16.0, 20.0, 24.0])
        assignment, makespan = brute_force_optimum(inst)
        assert makespan == pytest.approx(9.0)
        assert assignment.assignee == (1, 0, 2, 1, 0)

    def test_budget_rejection(self):
        inst = generate_instance(GeneratorSpec(10, 50, seed=1))
        with pytest.raises(OracleBudgetError):
            brute_force_optimum(inst)

    def test_beats_1000_random_assignments(self, tiny_instance):
        _, optimum = brute_force_optimum(tiny_instance)
        rng = np.random.default_rng(99)
        n, m = tiny_instance.resource_count, tiny_instance.job_count
        randoms = rng.integers(0, n, size=(1000, m))
        assert optimum <= batch_fitness(tiny_instance, randoms).min() + 1e-12

    def test_matches_naive_enumeration_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            inst = generate_instance(
                GeneratorSpec(
                    int(rng.integers(2, 4)), int(rng.integers(2, 6)), seed=int(rng.integers(2**32))
                )
            )
            _, optimum = brute_force_optimum(inst)
            naive_best = min(
                naive_makespan(inst, a)
                for a in itertools.product(range(inst.resource_count), repeat=inst.job_count)
            )
            assert optimum == pytest.approx(naive_best, rel=1e-12)

    @pytest.mark.parametrize(
        "window, seed",
        # The tight windows leave no feasible schedule, so the optimum overshoots.
        [(((0.0, 5.0), (20.0, 60.0)), seed) for seed in range(13, 20)]
        + [(((0.0, 5.0), (10.0, 20.0)), seed) for seed in range(4)],
    )
    def test_minimises_the_penalised_objective_on_windowed_instances(self, window, seed):
        inst = generate_instance(GeneratorSpec(3, 7, window=window, seed=seed))
        assignment, value = brute_force_optimum(inst)
        naive_best = min(
            naive_fitness(inst, a)
            for a in itertools.product(range(inst.resource_count), repeat=inst.job_count)
        )
        assert value == pytest.approx(naive_best, rel=1e-12)
        assert naive_fitness(inst, assignment.assignee) == pytest.approx(value, rel=1e-12)
        if window[1] == (20.0, 60.0) and seed == 15:
            # The plain-makespan optimum of this instance scores 40.94.
            assert value == pytest.approx(24.2434, abs=1e-4)

    def test_returns_the_first_minimiser_of_batch_fitness(self):
        inst = generate_instance(GeneratorSpec(2, 12, seed=5))
        assignment, value = brute_force_optimum(inst)
        # (0,1,0,1,1,1,1,1,0,1,0,0) ties with it under batch_fitness.
        assert assignment.assignee == (0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1)
        assert value == batch_fitness(inst, np.array([assignment.assignee]))[0]

    def test_windowed_value_is_batch_fitness_of_the_assignment(self):
        inst = generate_instance(GeneratorSpec(3, 7, window=((0, 5), (20, 60)), seed=17))
        assignment, value = brute_force_optimum(inst)
        assert value == batch_fitness(inst, np.array([assignment.assignee]))[0]

    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 8),
        window=st.sampled_from([None, ((0.0, 5.0), (20.0, 60.0)), ((0.0, 5.0), (10.0, 20.0))]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_first_minimiser_over_every_assignment(self, n, m, window, seed):
        inst = generate_instance(GeneratorSpec(n, m, window=window, seed=seed))
        assert brute_force_optimum(inst) == first_minimiser(inst)

    def test_pairwise_overshoot_sum_on_nine_resources(self):
        # Four equal tight-window resources and five slow unbounded ones: many
        # assignments tie in exact arithmetic, and numpy's pairwise sum of a
        # 9-entry overshoot row breaks the tie differently from an in-order sum.
        inst = make_instance(
            [3.0] * 4 + [0.01] * 5, [8.0, 9.0, 19.0], ends=[0.5] * 4 + [math.inf] * 5
        )
        assignment, value = brute_force_optimum(inst)
        assert (assignment, value) == first_minimiser(inst)
        assert assignment.assignee == (0, 2, 3)

    def test_tie_across_prefixes_keeps_the_earlier_vector(self):
        # 2^16 assignments span several suffix tables; every even split ties.
        inst = make_instance([1.0, 1.0], [1.0] * 16)
        assignment, value = brute_force_optimum(inst)
        assert assignment.assignee == (0,) * 8 + (1,) * 8
        assert value == 8.0

    @pytest.mark.parametrize("speeds, lengths", [([2.0], [3.0]), ([1.5, 1.0], [4.0, 7.0, 2.0])])
    def test_one_job_and_fewer_jobs_than_the_suffix(self, speeds, lengths):
        inst = make_instance(speeds, lengths)
        assert brute_force_optimum(inst) == first_minimiser(inst)

    @pytest.mark.parametrize("seed", range(5))
    def test_non_integer_lengths_return_the_solvers_value(self, seed):
        inst = generate_instance(GeneratorSpec(3, 7, seed=seed))
        rng = np.random.default_rng(seed)
        inst = make_instance(list(inst.speeds), list(inst.lengths + rng.random(7)))
        assignment, value = brute_force_optimum(inst)
        assert value == batch_fitness(inst, np.array([assignment.assignee]))[0]
        _, minimum = first_minimiser(inst)
        assert value == pytest.approx(minimum, rel=1e-12)
