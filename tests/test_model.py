import functools
import itertools
import math
import operator
import pickle
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from gridsched import model
from gridsched.datasets import GeneratorSpec, fixture_suite, generate_instance
from gridsched.model import (
    _MASK_DECODE_MIN_COLUMNS,
    OVERSHOOT_PENALTY,
    Assignment,
    ConfigurationError,
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
    clamp_memberships,
    completion_fitness,
    normalize_stack,
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


# Each builds a Job or Resource with one invalid field; the error names it.
INVALID_PARTS = [
    pytest.param(lambda: Job(True, 1.0), "job id", id="job_id_bool"),
    pytest.param(lambda: Job(0.0, 1.0), "job id", id="job_id_float"),
    pytest.param(lambda: Job(-1, 1.0), "job id", id="job_id_negative"),
    pytest.param(lambda: Job(0, True), "job 0 length", id="job_length_bool"),
    pytest.param(lambda: Job(0, "5"), "job 0 length", id="job_length_str"),
    pytest.param(lambda: Job(0, 0.0), "job 0 length", id="job_length_zero"),
    pytest.param(lambda: Job(0, -3.0), "job 0 length", id="job_length_negative"),
    pytest.param(lambda: Job(0, math.inf), "job 0 length", id="job_length_inf"),
    pytest.param(lambda: Job(0, math.nan), "job 0 length", id="job_length_nan"),
    pytest.param(lambda: Resource(True, 1.0), "resource id", id="resource_id_bool"),
    pytest.param(lambda: Resource(0.0, 1.0), "resource id", id="resource_id_float"),
    pytest.param(lambda: Resource(0, True), "resource 0 speed", id="speed_bool"),
    pytest.param(lambda: Resource(0, "2"), "resource 0 speed", id="speed_str"),
    pytest.param(lambda: Resource(0, 0.0), "resource 0 speed", id="speed_zero"),
    pytest.param(lambda: Resource(0, math.inf), "resource 0 speed", id="speed_inf"),
    pytest.param(lambda: Resource(0, 1.0, True), "resource 0 start_time", id="start_bool"),
    pytest.param(lambda: Resource(0, 1.0, -1.0), "resource 0 start_time", id="start_negative"),
    pytest.param(lambda: Resource(0, 1.0, math.inf), "resource 0 start_time", id="start_inf"),
    pytest.param(lambda: Resource(0, 1.0, math.nan), "resource 0 start_time", id="start_nan"),
    pytest.param(lambda: Resource(0, 1.0, 0.0, "9"), "resource 0 end_time", id="end_str"),
    pytest.param(lambda: Resource(0, 1.0, 5.0, 5.0), "resource 0 end_time", id="end_at_start"),
    pytest.param(lambda: Resource(0, 1.0, 0.0, math.nan), "resource 0 end_time", id="end_nan"),
]


class TestConstruction:
    @pytest.mark.parametrize("build, name", INVALID_PARTS)
    def test_job_and_resource_reject_invalid_fields(self, build, name):
        with pytest.raises(ConfigurationError, match=f"^{name} must be"):
            build()

    def test_job_and_resource_accept_numpy_scalars_and_integers(self):
        job = Job(np.int64(2), np.float64(2.5))
        assert (job.id, job.length) == (2, 2.5)
        resource = Resource(np.int32(1), 3, np.float64(0.5), 7)
        assert (resource.id, resource.speed, resource.end_time) == (1, 3, 7)

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

    def test_pickled_instance_keeps_read_only_arrays(self):
        inst = make_instance([1.0, 2.0], [3.0, 4.0], ends=[math.inf, 9.0])
        copy = pickle.loads(pickle.dumps(inst))
        assert copy == inst and copy.windowed
        for name in ("speeds", "start_times", "end_times", "lengths"):
            np.testing.assert_array_equal(getattr(copy, name), getattr(inst, name))
            with pytest.raises(ValueError, match="read-only"):
                getattr(copy, name)[0] = 99.0

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
        # The overshoot is summed in resource order, whatever n is.
        excess = np.clip(completions - inst.end_times, 0.0, None).tolist()
        overshoot = np.array([functools.reduce(operator.add, row) for row in excess])
        expected = completions.max(axis=1) + OVERSHOOT_PENALTY * overshoot
        np.testing.assert_array_equal(batch_fitness(inst, assignees), expected)

    @pytest.mark.parametrize("n", [1, 3, 8, 13])
    @pytest.mark.parametrize("windowed", [False, True])
    def test_completion_fitness_equals_batch_fitness(self, n, windowed):
        rng = np.random.default_rng(n)
        speeds = rng.uniform(0.5, 10.0, n)
        lengths = rng.integers(1, 100, 30).astype(float)
        starts = rng.uniform(0.0, 5.0, n) if windowed else np.zeros(n)
        # Windows of 1-8 balanced makespans: at n = 8 some rows overshoot and some do not.
        spans = rng.uniform(1.0, 8.0, n) * lengths.sum() / speeds.sum()
        ends = starts + spans if windowed else np.full(n, math.inf)
        inst = make_instance(speeds.tolist(), lengths.tolist(), starts.tolist(), ends.tolist())
        assignees = rng.integers(0, n, size=(200, 30))
        fitness = completion_fitness(inst)
        scores = [
            fitness((inst.start_times + np.bincount(row, weights=inst.lengths, minlength=n)
                     / inst.speeds).tolist())
            for row in assignees
        ]
        np.testing.assert_array_equal(scores, batch_fitness(inst, assignees))


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

    # Stacks just below and at the column count where batch_defuzzify leaves
    # np.argmax, and past it with n = 255 (the largest uint8 weight) and n = 256
    # (intp weights).
    MASK_EDGE_SHAPES = [(9, 799), (4, 5, 200), (2, 255, 400), (1, 256, 800)]

    def test_mask_edge_shapes_straddle_the_threshold(self):
        columns = [math.prod(shape) // shape[-2] for shape in self.MASK_EDGE_SHAPES]
        assert columns[0] == _MASK_DECODE_MIN_COLUMNS - 1
        assert columns[1] == _MASK_DECODE_MIN_COLUMNS
        assert min(columns[2:]) >= _MASK_DECODE_MIN_COLUMNS

    @given(
        st.sampled_from(MASK_EDGE_SHAPES)
        | st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 8)),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_np_argmax(self, shape, steps, seed):
        # Entries on a grid of `steps` levels tie often; a zero column repairs
        # to the uniform column, where every entry ties.
        raw = np.random.default_rng(seed).integers(0, steps + 1, size=shape) / steps
        raw[..., 0] = 0.0
        stack = repair_stack(raw)
        np.testing.assert_array_equal(batch_defuzzify(stack), np.argmax(stack, axis=-2))


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


def clamp_divide(raw):
    """Bit for bit repair_stack: each clamped entry over its column's clamped sum,
    1/n where that sum is 0.
    """
    clamped = np.clip(raw, 0.0, 1.0)
    sums = clamped.sum(axis=-2, keepdims=True)
    dead = sums == 0.0
    return np.where(dead, 1.0 / raw.shape[-2], clamped / np.where(dead, 1.0, sums))


# Raw (pop, n, m) stacks with negative entries and entries above 1.
RAW_STACKS = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 8)),
    elements=st.floats(-3.0, 3.0),
)


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
        raw = np.random.default_rng(3).uniform(low, 1.0, size=(10, 4, 200))
        assert (np.clip(raw, 0.0, 1.0).sum(axis=1) == 0.0).any() == (low < 0)
        np.testing.assert_array_equal(repair_stack(raw.copy()), clamp_divide(raw))

    @given(RAW_STACKS, st.booleans())
    def test_halves_compose_to_the_repair(self, raw, dead_column):
        if dead_column:
            raw[..., 0] = -np.abs(raw[..., 0])
        expected = clamp_divide(raw)
        np.testing.assert_array_equal(normalize_stack(clamp_memberships(raw.copy())), expected)
        np.testing.assert_array_equal(repair_stack(raw.copy()), expected)

    @given(RAW_STACKS, st.integers(0, 2**32 - 1))
    def test_clamping_the_changed_slots_alone_repairs_the_stack(self, raw, seed):
        # The DE engine's order: a repaired stack, raw values written into some
        # slots and clamped alone, then one stack-wide rescale.
        rng = np.random.default_rng(seed)
        stack = repair_stack(rng.random(raw.shape))
        slots = np.flatnonzero(rng.random(raw.shape) < 0.5)
        whole = stack.copy()
        whole.reshape(-1)[slots] = raw.reshape(-1)[slots]
        stack.reshape(-1)[slots] = clamp_memberships(raw.reshape(-1)[slots])
        np.testing.assert_array_equal(normalize_stack(stack), clamp_divide(whole))

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

    @pytest.mark.parametrize("budget", [-1, 0, True, 2.5])
    def test_budget_must_be_a_positive_integer(self, budget):
        inst = make_instance([1.0], [1.0])
        with pytest.raises(ConfigurationError, match="budget"):
            brute_force_optimum(inst, budget=budget)

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

    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 8),
        window=st.sampled_from([None, ((0.0, 5.0), (20.0, 60.0)), ((0.0, 5.0), (10.0, 20.0))]),
        equal_lengths=st.booleans(),
        equal_speeds=st.booleans(),
        suffix_jobs=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pruned_scan_equals_first_minimiser_across_prefixes(
        self, n, m, window, equal_lengths, equal_speeds, suffix_jobs, seed
    ):
        # A suffix table of n ** suffix_jobs rows leaves n ** (m - suffix_jobs)
        # prefixes, so the bound and the per-prefix slices decide the answer.
        # Equal lengths or speeds tie many assignments, also ones whose loads on
        # the fastest resource differ, which the slices hold in load order.
        inst = generate_instance(GeneratorSpec(n, m, window=window, seed=seed))
        resources, jobs = inst.resources, inst.jobs
        if equal_lengths:
            jobs = tuple(Job(j, jobs[0].length) for j in range(m))
        if equal_speeds:
            resources = tuple(replace(r, speed=resources[0].speed) for r in resources)
        inst = GridInstance(resources, jobs)
        with mock.patch.object(model, "_ORACLE_SUFFIX_ASSIGNMENTS", n**suffix_jobs):
            assert brute_force_optimum(inst) == first_minimiser(inst)

    def test_tie_within_a_slice_keeps_the_smallest_suffix_id(self):
        # Prefix (0,) ties suffixes (1, 0) and (1, 1) at 2.0.  Sorted by load on
        # resource 0, (1, 1) comes first, but (1, 0) has the smaller id.
        inst = make_instance([2.0, 2.0], [3.0, 3.0, 1.0])
        with mock.patch.object(model, "_ORACLE_SUFFIX_ASSIGNMENTS", 4):
            assert brute_force_optimum(inst) == (Assignment((0, 1, 0)), 2.0)

    def test_overshoot_summed_in_resource_order_on_nine_resources(self):
        # Four equal tight-window resources and five slow unbounded ones: many
        # assignments tie in exact arithmetic, and the overshoot summed in
        # resource order breaks the tie differently from numpy's pairwise sum
        # of a 9-entry row.
        inst = make_instance(
            [3.0] * 4 + [0.01] * 5, [8.0, 9.0, 19.0], ends=[0.5] * 4 + [math.inf] * 5
        )
        assignment, value = brute_force_optimum(inst)
        assert (assignment, value) == first_minimiser(inst)
        assert assignment.assignee == (2, 0, 1)
        assert value == 111.33333333333331

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
