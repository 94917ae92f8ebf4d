"""Domain model for scheduling independent jobs on heterogeneous grid resources.

Holds the problem types (resources, jobs, instances), crisp schedules, the
repair and argmax decoding of stacks of fuzzy membership matrices, the shared
fitness function that scores every schedule, and an exhaustive enumeration
oracle for small instances that minimizes the same penalized objective.

All operations are pure functions of their inputs; every value type is
immutable after construction and safe to share between concurrent workers.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Weight on availability-window overshoot when scoring infeasible schedules.
OVERSHOOT_PENALTY = 10.0

# Largest number of assignments the exhaustive oracle will enumerate.
DEFAULT_ENUMERATION_BUDGET = 20_000_000

# The oracle scores the assignments of its last h jobs in one vector pass per
# prefix; h is the largest with resource_count ** h at most this.
_ORACLE_SUFFIX_ASSIGNMENTS = 1 << 14

# numpy sums a row of at least this many entries pairwise rather than in order.
_PAIRWISE_SUM_MIN = 8


class ConfigurationError(ValueError):
    """A solver or generator configuration violates its invariants."""


def _check_integer(name: str, value: int) -> None:
    try:
        operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None


def check_count(name: str, value: int, minimum: int) -> None:
    """Reject a count that is not an integer (numpy integers pass) or is below minimum."""
    _check_integer(name, value)
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")


def check_seed(seed: int) -> None:
    """Reject a seed that is not an integer fitting in 64 unsigned bits."""
    _check_integer("seed", seed)
    if not (0 <= seed < 2**64):
        raise ConfigurationError(f"seed must fit in 64 unsigned bits, got {seed}")


def check_real(name: str, value: float, low: float, high: float,
               open_low: bool = False, open_high: bool = False) -> None:
    """Reject a value that is not a real number (numpy floats pass) or lies outside
    [low, high], each end excluded if its open_ flag is set.  NaN lies in no
    interval, and an open infinite end excludes infinity.
    """
    if not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    above = low < value if open_low else low <= value
    below = value < high if open_high else value <= high
    if not (above and below):
        interval = f"{'(' if open_low else '['}{low}, {high}{')' if open_high else ']'}"
        raise ConfigurationError(f"{name} must be in {interval}, got {value}")


class MalformedAssignmentError(ValueError):
    """An assignment does not fit the instance (wrong length or bad index)."""


class NumericDomainError(ValueError):
    """Non-finite values were passed where finite reals are required."""


class OracleBudgetError(RuntimeError):
    """Exhaustive enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class Job:
    """One independent job; length is in cycles."""

    id: int
    length: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.length) or self.length <= 0:
            raise ValueError(f"job {self.id}: length must be a positive real, got {self.length}")


@dataclass(frozen=True)
class Resource:
    """One grid resource; speed is in cycles per unit time (CPUT).

    start_time / end_time bound the availability window.  The defaults
    (0, unbounded) give the plain makespan model with always-on resources.
    """

    id: int
    speed: float
    start_time: float = 0.0
    end_time: float = math.inf

    def __post_init__(self) -> None:
        if not math.isfinite(self.speed) or self.speed <= 0:
            raise ValueError(f"resource {self.id}: speed must be a positive real, got {self.speed}")
        if not math.isfinite(self.start_time) or self.start_time < 0:
            raise ValueError(f"resource {self.id}: start_time must be non-negative, got {self.start_time}")
        if math.isnan(self.end_time) or self.end_time <= self.start_time:
            raise ValueError(
                f"resource {self.id}: end_time must exceed start_time, got {self.end_time}"
            )


@dataclass(frozen=True)
class GridInstance:
    """A scheduling problem: an ordered set of resources and one of jobs.

    The arrays are read-only and derived from the tuples; equality and hashing
    use the tuples alone.
    """

    resources: tuple[Resource, ...]
    jobs: tuple[Job, ...]
    speeds: np.ndarray = field(init=False, repr=False, compare=False)
    start_times: np.ndarray = field(init=False, repr=False, compare=False)
    end_times: np.ndarray = field(init=False, repr=False, compare=False)
    lengths: np.ndarray = field(init=False, repr=False, compare=False)
    # True iff some resource's availability window has a finite end.
    windowed: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "resources", tuple(self.resources))
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if len(self.resources) < 1 or len(self.jobs) < 1:
            raise ValueError("an instance needs at least one resource and one job")
        for pos, res in enumerate(self.resources):
            if res.id != pos:
                raise ValueError(f"resource ids must be contiguous from 0, got {res.id} at {pos}")
        for pos, job in enumerate(self.jobs):
            if job.id != pos:
                raise ValueError(f"job ids must be contiguous from 0, got {job.id} at {pos}")
        for name, arr in (
            ("speeds", np.array([r.speed for r in self.resources])),
            ("start_times", np.array([r.start_time for r in self.resources])),
            ("end_times", np.array([r.end_time for r in self.resources])),
            ("lengths", np.array([j.length for j in self.jobs])),
        ):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "windowed", bool(np.isfinite(self.end_times).any()))

    def __reduce__(self):
        # Rebuild through __init__, so a copy's arrays are read-only too.
        return (GridInstance, (self.resources, self.jobs))

    @property
    def resource_count(self) -> int:
        return len(self.resources)

    @property
    def job_count(self) -> int:
        return len(self.jobs)


@dataclass(frozen=True)
class Assignment:
    """Crisp schedule: assignee[j] is the resource index that runs job j."""

    assignee: tuple[int, ...]

    def __post_init__(self) -> None:
        coerced = tuple(operator.index(x) for x in self.assignee)
        if any(x < 0 for x in coerced):
            raise ValueError("resource indices must be non-negative")
        object.__setattr__(self, "assignee", coerced)

    def __len__(self) -> int:
        return len(self.assignee)

    def to_array(self) -> np.ndarray:
        return np.array(self.assignee, dtype=np.int64)


def _validated_assignee(instance: GridInstance, assignment: Assignment) -> np.ndarray:
    a = assignment.to_array()
    if len(a) != instance.job_count:
        raise MalformedAssignmentError(
            f"assignment covers {len(a)} jobs, instance has {instance.job_count}"
        )
    if a.size and (a.min() < 0 or a.max() >= instance.resource_count):
        raise MalformedAssignmentError(
            f"resource index out of range for {instance.resource_count} resources"
        )
    return a


def batch_fitness(instance: GridInstance, assignees: np.ndarray) -> np.ndarray:
    """Penalized makespan for each row of a (k, job_count) assignment array.

    This is the one fitness path shared by every solver: makespan plus
    OVERSHOOT_PENALTY times the total availability-window overshoot.  With
    unbounded windows the fitness is exactly the makespan.

    One flat bincount scores every row: row r's jobs land in bins r*n .. r*n+n-1,
    each bin summed in job order as a per-row bincount would.  Entries must be
    resource indices in [0, resource_count); they are not checked here
    (:func:`assignment_fitness` checks them).
    """
    assignees = np.asarray(assignees, dtype=np.int64)
    k, n = len(assignees), instance.resource_count
    bins = (assignees + n * np.arange(k)[:, None]).ravel()
    cycles = np.bincount(
        bins, weights=np.tile(instance.lengths, k), minlength=k * n
    ).reshape(k, n)
    completions = instance.start_times + cycles / instance.speeds
    makespans = completions.max(axis=1)
    if not instance.windowed:
        # Every overshoot is exactly 0.0, so the penalty adds nothing.
        return makespans
    overshoot = np.clip(completions - instance.end_times, 0.0, None).sum(axis=1)
    return makespans + OVERSHOOT_PENALTY * overshoot


def completion_fitness(instance: GridInstance) -> Callable[[list[float]], float]:
    """batch_fitness's formula for one list of per-resource completion times.

    Without windows that is the builtin max.  With windows it adds the
    overshoot penalty, summed by numpy in batch_fitness's order, whenever some
    completion passes its window's end; otherwise the clip-sum is exactly 0.
    """
    if not instance.windowed:
        return max
    ends = instance.end_times.tolist()

    def fitness(completions: list[float]) -> float:
        makespan = max(completions)
        if any(map(operator.gt, completions, ends)):
            overshoot = np.clip(np.subtract(completions, instance.end_times), 0.0, None).sum()
            return float(makespan + OVERSHOOT_PENALTY * overshoot)
        return makespan

    return fitness


def assignment_fitness(instance: GridInstance, assignment: Assignment) -> float:
    """Penalized makespan of one crisp schedule (see :func:`batch_fitness`)."""
    a = _validated_assignee(instance, assignment)
    return float(batch_fitness(instance, a[None, :])[0])


def repair_stack(stack: np.ndarray) -> np.ndarray:
    """Repair a (..., resource_count, job_count) stack of raw matrices in place.

    A membership matrix grades how strongly resource i claims job j: entries
    in [0, 1], each column summing to 1.  Repair clamps entries to [0, 1] and
    rescales each column to unit sum.  A column whose clamped sum is zero has
    no usable signal left and is reset to the uniform column.  Idempotent up
    to floating-point roundoff.
    """
    if not np.isfinite(stack).all():
        raise NumericDomainError("cannot repair non-finite membership values")
    np.clip(stack, 0.0, 1.0, out=stack)
    n = stack.shape[-2]
    sums = stack.sum(axis=-2, keepdims=True)
    dead = sums == 0.0
    if dead.any():
        np.divide(stack, sums, out=stack, where=~dead)
        stack[:] = np.where(dead, 1.0 / n, stack)
    else:
        np.divide(stack, sums, out=stack)
    return stack


def batch_defuzzify(stack: np.ndarray) -> np.ndarray:
    """Per-job argmax over resources for a (..., resource_count, job_count) stack.

    Ties resolve to the lowest resource index, so the decoding depends only on
    the within-column ordering of the membership values.
    """
    return np.argmax(stack, axis=-2)


def _load_table(lengths: np.ndarray, n: int) -> np.ndarray:
    """Per-resource cycle loads of every assignment of `lengths`, shape (n**len, n).

    Row r is the assignment whose digits spell r in base n, first job most
    significant.  Jobs are added one at a time in job order, so each load is
    summed in the order batch_fitness's bincount sums it.
    """
    table = np.zeros((1, n))
    unit = np.eye(n)
    for length in lengths:
        table = (table[:, None, :] + length * unit).reshape(-1, n)
    return table


def brute_force_optimum(
    instance: GridInstance, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> tuple[Assignment, float]:
    """Enumerate every assignment and return one minimizing the solvers' objective.

    The objective is the penalized makespan of :func:`batch_fitness`: makespan
    plus OVERSHOOT_PENALTY times the total window overshoot, which is plain
    makespan when every window is unbounded.  The returned value is
    batch_fitness of the returned assignment.  Ties resolve to the
    lexicographically smallest assignment vector.  Raises OracleBudgetError
    when resource_count ** job_count exceeds the budget.

    Every assignment is scored, without pruning, from two tables of
    per-resource cycle loads: one for every assignment of the last h jobs
    (the suffix, with resource_count ** h <= _ORACLE_SUFFIX_ASSIGNMENTS) and
    one for every assignment of the jobs before them (the prefix).  Each
    prefix, in id order, is scored against the whole suffix table with
    batch_fitness's own formula, so with integer lengths the result is bit for
    bit the lexicographically first minimizer of batch_fitness.
    """
    n = instance.resource_count
    m = instance.job_count
    total = n**m
    if total > budget:
        raise OracleBudgetError(
            f"{n}^{m} = {total} assignments exceed the enumeration budget of {budget}"
        )
    h = 0
    while h < m and n ** (h + 1) <= _ORACLE_SUFFIX_ASSIGNMENTS:
        h += 1
    prefixes = _load_table(instance.lengths[: m - h], n)
    # Resource-major, so each resource's loads are one contiguous vector.
    suffix = np.ascontiguousarray(_load_table(instance.lengths[m - h :], n).T)
    speeds = instance.speeds[:, None]
    starts = instance.start_times[:, None]
    ends = instance.end_times[:, None]
    completions = np.empty_like(suffix)
    best_value = math.inf
    best_id = 0
    for prefix_id, row in enumerate(prefixes):
        np.add(row[:, None], suffix, out=completions)
        completions /= speeds
        completions += starts
        values = completions.max(axis=0)
        if instance.windowed:
            excess = np.clip(completions - ends, 0.0, None)
            if n < _PAIRWISE_SUM_MIN:
                overshoot = functools.reduce(np.add, excess)
            else:
                # batch_fitness sums each (k, n) row pairwise; sum the same layout.
                overshoot = np.ascontiguousarray(excess.T).sum(axis=1)
            values += OVERSHOOT_PENALTY * overshoot
        pos = int(np.argmin(values))
        # Strict <: prefixes run in id order, so a tie keeps the earlier vector.
        if values[pos] < best_value:
            best_value = values[pos]
            best_id = prefix_id * suffix.shape[1] + pos
    assignee = []
    for _ in range(m):
        best_id, digit = divmod(best_id, n)
        assignee.append(digit)
    assignee.reverse()
    return Assignment(tuple(assignee)), float(batch_fitness(instance, np.array([assignee]))[0])
