"""Independent reference implementations used only to cross-check results.

Deliberately plain Python (dicts and loops, no numpy) so these stay decoupled
from the vectorized code paths they verify.
"""

from __future__ import annotations

import math

from gridsched.model import GridInstance

# A membership matrix's column sums must hit 1 within this tolerance.
COLUMN_SUM_TOL = 1e-9


def naive_completions(instance: GridInstance, assignee) -> list[float]:
    loads: dict[int, float] = {}
    for job_index, resource_index in enumerate(assignee):
        job = instance.jobs[job_index]
        speed = instance.resources[resource_index].speed
        loads[resource_index] = loads.get(resource_index, 0.0) + job.length / speed
    return [
        resource.start_time + loads.get(index, 0.0)
        for index, resource in enumerate(instance.resources)
    ]


def naive_makespan(instance: GridInstance, assignee) -> float:
    return max(naive_completions(instance, assignee))


def naive_fitness(instance: GridInstance, assignee, penalty: float = 10.0) -> float:
    completions = naive_completions(instance, assignee)
    overshoot = 0.0
    for index, resource in enumerate(instance.resources):
        if completions[index] > resource.end_time:
            overshoot += completions[index] - resource.end_time
    return max(completions) + penalty * overshoot


def is_membership_matrix(matrix) -> bool:
    """True iff `matrix` is a valid fuzzy genome.

    That is a non-empty 2-d grid of finite entries in [0, 1] whose columns,
    summed exactly by math.fsum, each hit 1 within COLUMN_SUM_TOL.
    """
    rows = [[float(x) for x in row] for row in matrix]
    if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        return False
    if not all(math.isfinite(x) and 0.0 <= x <= 1.0 for row in rows for x in row):
        return False
    return all(abs(math.fsum(column) - 1.0) <= COLUMN_SUM_TOL for column in zip(*rows))
