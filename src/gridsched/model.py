"""Domain model for scheduling independent jobs on heterogeneous grid resources.

Holds the problem types (resources, jobs, instances), crisp schedules, the
repair (an elementwise clamp, then a column rescale) and argmax decoding of
stacks of fuzzy membership matrices, the shared fitness function that scores
every schedule, and an exhaustive enumeration oracle for small instances
that minimizes the same penalized objective.

All operations are pure functions of their inputs; every value type is
immutable after construction and safe to share between concurrent workers.
"""

from __future__ import annotations

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

# The pruned oracle scan reads the prefix table in blocks of about this many
# cells, so its temporaries stay small however many prefixes there are.
_ORACLE_PREFIX_BLOCK_CELLS = 1 << 16

# Relative widening of the pruned oracle scan's bound and slice ends: far above
# the rounding of the loads, completions and room per resource (a few ulps), so
# no slice drops an entry that scores at most the bound.
_ORACLE_SLICE_SLACK = 1e-9

# batch_defuzzify decodes stacks of at least this many columns (matrices times
# jobs) by max and a first-equal mask; np.argmax, which pays per column, is
# faster below it (most fixture-sized DE stacks).
_MASK_DECODE_MIN_COLUMNS = 800


class ConfigurationError(ValueError):
    """A solver or generator configuration violates its invariants."""


def _check_integer(name: str, value: int) -> None:
    try:
        operator.index(value)
    except TypeError:
        integer = False
    else:
        # A bool is an int to Python, but as a setting it is a caller's mistake.
        integer = not isinstance(value, bool)
    if not integer:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def check_count(name: str, value: int, minimum: int) -> None:
    """Reject a count that is not an integer (numpy integers pass, bools do not) or is
    below minimum.
    """
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
    """Reject a value that is not a real number (numpy floats pass, bools do not) or
    lies outside [low, high], each end excluded if its open_ flag is set.  NaN lies
    in no interval, and an open infinite end excludes infinity.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
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
        check_count("job id", self.id, 0)
        check_real(f"job {self.id} length", self.length, 0, math.inf, True, True)


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
        check_count("resource id", self.id, 0)
        name = f"resource {self.id}"
        check_real(f"{name} speed", self.speed, 0, math.inf, True, True)
        check_real(f"{name} start_time", self.start_time, 0, math.inf, open_high=True)
        check_real(f"{name} end_time", self.end_time, self.start_time, math.inf, open_low=True)


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
    OVERSHOOT_PENALTY times the total availability-window overshoot, summed
    over resources in index order.  With unbounded windows the fitness is
    exactly the makespan.

    One flat bincount scores every row: row r's jobs land in bins r*n .. r*n+n-1
    (the row's offset r*n is added to each entry), weighted by the job lengths
    repeated once per row, so each bin is summed in job order as a per-row
    bincount would.  Entries must be resource indices in [0, resource_count);
    they are not checked here (:func:`assignment_fitness` checks them).
    """
    assignees = np.asarray(assignees, dtype=np.int64)
    k, n = len(assignees), instance.resource_count
    bins = (assignees + np.arange(0, k * n, n)[:, None]).ravel()
    weights = instance.lengths[None].repeat(k, 0).ravel()
    cycles = np.bincount(bins, weights=weights, minlength=k * n).reshape(k, n)
    completions = instance.start_times + cycles / instance.speeds
    makespans = completions.max(axis=1)
    if not instance.windowed:
        # Every overshoot is exactly 0.0, so the penalty adds nothing.
        return makespans
    excess = np.clip(completions - instance.end_times, 0.0, None)
    # accumulate adds in index order; sum(axis=1) would add 8 or more pairwise.
    overshoot = np.add.accumulate(excess, axis=1, out=excess)[:, -1]
    return makespans + OVERSHOOT_PENALTY * overshoot


def completion_fitness(instance: GridInstance) -> Callable[[list[float]], float]:
    """batch_fitness's formula for one list of per-resource completion times.

    Without windows that is the builtin max.  With windows it adds the
    overshoot penalty, summed over the resources past their window's end in
    index order, as batch_fitness sums it (a resource within its window adds
    exactly 0).
    """
    if not instance.windowed:
        return max
    ends = instance.end_times.tolist()

    def fitness(completions: list[float]) -> float:
        overshoot = 0.0
        for done, end in zip(completions, ends):
            if done > end:
                overshoot += done - end
        return max(completions) + OVERSHOOT_PENALTY * overshoot

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

    It is normalize_stack(clamp_memberships(stack)).  The clamp is elementwise
    and leaves entries already in [0, 1] unchanged, so a caller that changed
    only some entries of a repaired stack may clamp those alone.
    """
    return normalize_stack(clamp_memberships(stack))


def clamp_memberships(values: np.ndarray) -> np.ndarray:
    """Clip an array of membership values to [0, 1] in place; repair_stack's first half.

    Raises NumericDomainError if any value is not finite.
    """
    if not np.isfinite(values).all():
        raise NumericDomainError("cannot repair non-finite membership values")
    return np.clip(values, 0.0, 1.0, out=values)


def normalize_stack(stack: np.ndarray) -> np.ndarray:
    """Rescale each column of a clamped (..., resource_count, job_count) stack to unit
    sum in place, resetting columns that sum to zero to the uniform column;
    repair_stack's second half.
    """
    n = stack.shape[-2]
    sums = stack.sum(axis=-2, keepdims=True)
    if sums.all():
        np.divide(stack, sums, out=stack)
    else:
        dead = sums == 0.0
        np.divide(stack, sums, out=stack, where=~dead)
        stack[:] = np.where(dead, 1.0 / n, stack)
    return stack


def batch_defuzzify(stack: np.ndarray) -> np.ndarray:
    """Per-job argmax over resources for a (..., resource_count, job_count) stack.

    Ties resolve to the lowest resource index, so the decoding depends only on
    the within-column ordering of the membership values.  Entries must be
    finite, as repair_stack guarantees: a column holding NaN decodes to the
    out-of-range index resource_count on large stacks, and batch_fitness does
    not check indices.

    Below _MASK_DECODE_MIN_COLUMNS columns (stack.size // n) this is
    np.argmax.  On stacks with more columns, where np.argmax over a non-last
    axis pays for a transposed copy and a scan per column, each entry equal
    to its column's maximum is weighted n - i, and the largest weight marks
    the first maximum: np.argmax's rule.  While n - i fits in a byte the
    weights multiply the equality mask's own bytes in place, so the decode
    allocates one byte per cell.
    """
    n = stack.shape[-2]
    if stack.size // n < _MASK_DECODE_MIN_COLUMNS:
        return np.argmax(stack, axis=-2)
    hits = stack == stack.max(axis=-2, keepdims=True)
    if n < 256:
        hits = hits.view(np.uint8)
        hits *= np.arange(n, 0, -1, dtype=np.uint8)[:, None]
    else:
        hits = hits * np.arange(n, 0, -1)[:, None]
    return np.subtract(n, hits.max(axis=-2), dtype=np.intp)


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


def _suffix_values(
    instance: GridInstance, row: np.ndarray, suffix: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """batch_fitness's formula for prefix loads `row` joined with each column of the
    resource-major suffix loads `suffix`, as a view into `scratch`.

    Every step is elementwise or runs down one column, so a column's value does
    not depend on which other columns are scored with it.  The steps write
    into `scratch` (see :func:`_scan_scratch`), so a scan allocates nothing per
    prefix.
    """
    n, width = suffix.shape
    out = scratch[:n, :width]
    values = scratch[-1, :width]
    np.add(row[:, None], suffix, out=out)
    out /= instance.speeds[:, None]
    out += instance.start_times[:, None]
    np.max(out, axis=0, out=values)
    if instance.windowed:
        excess = scratch[n : 2 * n, :width]
        np.subtract(out, instance.end_times[:, None], out=excess)
        np.clip(excess, 0.0, None, out=excess)
        # Add the rows into the first in resource order, as batch_fitness does.
        overshoot = excess[0]
        for part in excess[1:]:
            overshoot += part
        overshoot *= OVERSHOOT_PENALTY
        values += overshoot
    return values


def _scan_scratch(instance: GridInstance, width: int) -> np.ndarray:
    """Scratch rows for _suffix_values over up to `width` suffix columns: the
    completions, then with windows the overshoots, then the values.
    """
    n = instance.resource_count
    return np.empty(((2 * n if instance.windowed else n) + 1, width))


def brute_force_optimum(
    instance: GridInstance, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> tuple[Assignment, float]:
    """Find, over every assignment, one minimizing the solvers' objective.

    The objective is the penalized makespan of :func:`batch_fitness`: makespan
    plus OVERSHOOT_PENALTY times the total window overshoot, which is plain
    makespan when every window is unbounded.  The returned value is
    batch_fitness of the returned assignment.  Ties resolve to the
    lexicographically smallest assignment vector.  Raises ConfigurationError
    unless the budget is an integer of at least 1, and OracleBudgetError when
    resource_count ** job_count exceeds it.

    Assignments are scored from two tables of per-resource cycle loads: one
    for every assignment of the last h jobs (the suffix, with
    resource_count ** h <= _ORACLE_SUFFIX_ASSIGNMENTS) and one for every
    assignment of the jobs before them (the prefix).  With one prefix, the
    whole suffix table is scored.  Otherwise the bound U is the best value of
    the prefix whose own loads finish earliest, a real schedule's value.  A
    schedule scores at least its makespan, so one scoring at most U puts at
    most t_i = (U - start_i) * speed_i - P_i suffix cycles on each resource i,
    where P_i is the prefix's load.  The suffix loads sum to the suffix's
    total length T, so the load on the fastest resource k lies in
    [T - sum of t_i over i != k, t_k]; that is one slice of the suffix table
    sorted by that load.  Each prefix, in id order, scores its slice (none if
    some t_i < 0) with batch_fitness's own formula, widened by a relative
    _ORACLE_SLICE_SLACK so that rounding cannot drop an entry.

    Ties are resolved as a scan of every assignment would: every assignment
    scoring at most U lies in its prefix's slice, and the first minimizer
    scores at most U, so it is scored, with the same floats.  Within a slice
    the smallest suffix id among the entries equal to its minimum is kept, and
    a later prefix replaces the best only when strictly lower.  So with
    integer lengths the result is bit for bit the lexicographically first
    minimizer of batch_fitness.
    """
    check_count("budget", budget, 1)
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
    suffix_lengths = instance.lengths[m - h :]
    if len(prefixes) == 1:
        # Resource-major, so each resource's loads are one contiguous vector.
        suffix = np.ascontiguousarray(_load_table(suffix_lengths, n).T)
        scratch = _scan_scratch(instance, suffix.shape[1])
        best_id = int(np.argmin(_suffix_values(instance, prefixes[0], suffix, scratch)))
    else:
        best_id = _pruned_scan(instance, prefixes, suffix_lengths)
    assignee = []
    for _ in range(m):
        best_id, digit = divmod(best_id, n)
        assignee.append(digit)
    assignee.reverse()
    return Assignment(tuple(assignee)), float(batch_fitness(instance, np.array([assignee]))[0])


def _pruned_scan(
    instance: GridInstance, prefixes: np.ndarray, suffix_lengths: np.ndarray
) -> int:
    """Id of the first minimizer, scoring only the suffix slices that can reach the
    bound (see :func:`brute_force_optimum`).
    """
    speeds, starts = instance.speeds, instance.start_times
    fastest = int(np.argmax(speeds))
    suffix = np.ascontiguousarray(_load_table(suffix_lengths, len(speeds)).T)
    # Suffix ids by their load on the fastest resource; rebinding frees the
    # unsorted table.
    order = np.argsort(suffix[fastest], kind="stable")
    suffix = suffix.take(order, axis=1)
    keys = suffix[fastest]
    width = suffix.shape[1]
    block = max(1, _ORACLE_PREFIX_BLOCK_CELLS // len(speeds))
    firsts = range(0, len(prefixes), block)
    finish = np.concatenate(
        [(prefixes[first : first + block] / speeds + starts).max(axis=1) for first in firsts]
    )
    scratch = _scan_scratch(instance, width)
    bound = _suffix_values(instance, prefixes[int(np.argmin(finish))], suffix, scratch).min()
    slack = _ORACLE_SLICE_SLACK
    reach = (bound * (1.0 + slack) - starts) * speeds
    floor = suffix_lengths.sum() * (1.0 - slack)
    best_value = math.inf
    best_id = 0
    for first in firsts:
        room = reach - prefixes[first : first + block]
        fast_room = room[:, fastest]
        # The room off the fastest resource, as all the room less its own: the
        # slack on the whole sum covers the subtraction's rounding.
        lows = np.searchsorted(keys, floor - (1.0 + slack) * room.sum(axis=1) + fast_room, "left")
        highs = np.searchsorted(keys, (1.0 + slack) * fast_room, "right")
        highs[(room < 0.0).any(axis=1)] = 0
        for offset in np.flatnonzero(lows < highs):
            low, high = lows[offset], highs[offset]
            row = prefixes[first + offset]
            values = _suffix_values(instance, row, suffix[:, low:high], scratch)
            value = values.min()
            # Strict <: prefixes run in id order, so a tie keeps the earlier vector.
            if value < best_value:
                best_value = value
                # The slice is in load order; a tie within it keeps the smallest suffix id.
                suffix_id = int(order[low:high][values == value].min())
                best_id = (first + offset) * width + suffix_id
    return best_id
