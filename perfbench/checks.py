"""Independent checks of solver and oracle outputs.

Plain Python over tuples of floats.  Nothing here imports gridsched, so a
fault in its numpy kernels cannot hide in the reference it is checked
against.  Every check raises CheckFailed with a message that names what is
wrong.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

# Weight on availability-window overshoot in the objective every solver
# minimises (makespan + 10 x total overshoot, as the README states).
PENALTY = 10.0

# Relative tolerance for comparing two computations of the same float.
REL_TOL = 1e-9

# Largest enumeration the plain-Python exhaustive reference will attempt.
EXHAUSTIVE_LIMIT = 200_000


class CheckFailed(Exception):
    """An output of the program disagrees with an independent computation."""


class Problem(NamedTuple):
    """The numbers of one instance, copied out of the program's types."""

    speeds: tuple[float, ...]
    starts: tuple[float, ...]
    ends: tuple[float, ...]
    lengths: tuple[float, ...]

    @property
    def windowed(self) -> bool:
        return any(s != 0.0 for s in self.starts) or any(e != math.inf for e in self.ends)


def same(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def completions(p: Problem, assignee: Sequence[int]) -> list[float]:
    """Start time plus summed cycles over speed, per resource."""
    cycles = [0.0] * len(p.speeds)
    for job, resource in enumerate(assignee):
        cycles[resource] += p.lengths[job]
    return [p.starts[i] + cycles[i] / p.speeds[i] for i in range(len(p.speeds))]


def makespan(p: Problem, assignee: Sequence[int]) -> float:
    return max(completions(p, assignee))


def penalised(p: Problem, assignee: Sequence[int]) -> float:
    """Makespan plus PENALTY times the total overshoot past each window end."""
    done = completions(p, assignee)
    overshoot = sum(max(0.0, c - e) for c, e in zip(done, p.ends))
    return max(done) + PENALTY * overshoot


def check_indices(p: Problem, assignee: Sequence[int]) -> None:
    """One in-range resource index per job."""
    if len(assignee) != len(p.lengths):
        raise CheckFailed(f"assignment covers {len(assignee)} jobs, instance has {len(p.lengths)}")
    for job, resource in enumerate(assignee):
        if not (isinstance(resource, int) and 0 <= resource < len(p.speeds)):
            raise CheckFailed(f"job {job} assigned to resource {resource!r} of {len(p.speeds)}")


def check_assignment(p: Problem, assignee: Sequence[int], value: float) -> None:
    """Every job has an in-range resource and the penalised fitness is `value`."""
    check_indices(p, assignee)
    fitness = penalised(p, assignee)
    if not same(fitness, value):
        raise CheckFailed(f"reported fitness {value!r} but the assignment scores {fitness!r}")


def check_trace(trace: Sequence[float], iterations_run: int, best: float) -> None:
    """Best-so-far trace: one point per iteration plus the start, never rising."""
    if len(trace) != iterations_run + 1:
        raise CheckFailed(f"trace has {len(trace)} points for {iterations_run} iterations")
    for index in range(1, len(trace)):
        if trace[index] > trace[index - 1]:
            raise CheckFailed(
                f"trace rises at point {index}: {trace[index - 1]!r} -> {trace[index]!r}"
            )
    if trace[-1] != best:
        raise CheckFailed(f"trace ends at {trace[-1]!r}, best is {best!r}")


def lower_bound(p: Problem) -> float:
    """Optimal preemptive makespan on uniform machines (Gonzalez & Sahni, 1978).

    max(total cycles / total speed, max over k < n of the k largest lengths
    over the k fastest speeds).  No schedule, preemptive or not, beats it.
    Valid only when every resource starts at time 0.
    """
    if any(s != 0.0 for s in p.starts):
        raise ValueError("the preemptive bound assumes every resource starts at 0")
    lengths = sorted(p.lengths, reverse=True)
    speeds = sorted(p.speeds, reverse=True)
    bound = math.fsum(lengths) / math.fsum(speeds)
    top_lengths = top_speeds = 0.0
    for k in range(min(len(lengths), len(speeds) - 1)):
        top_lengths += lengths[k]
        top_speeds += speeds[k]
        bound = max(bound, top_lengths / top_speeds)
    return bound


def check_above_bound(value: float, bound: float) -> None:
    if value < bound and not same(value, bound):
        raise CheckFailed(f"makespan {value!r} is below the lower bound {bound!r}")


def lpt_makespan(p: Problem) -> float:
    """Longest job first, each to the resource where it would finish earliest."""
    order = sorted(range(len(p.lengths)), key=lambda j: -p.lengths[j])
    cycles = [0.0] * len(p.speeds)
    assignee = [0] * len(p.lengths)
    for job in order:
        finish = [
            p.starts[i] + (cycles[i] + p.lengths[job]) / p.speeds[i] for i in range(len(p.speeds))
        ]
        best = min(range(len(p.speeds)), key=lambda i: finish[i])
        cycles[best] += p.lengths[job]
        assignee[job] = best
    return makespan(p, assignee)


def improving_move(p: Problem, assignee: Sequence[int], value: float) -> tuple[int, int] | None:
    """A (job, resource) move that lowers the makespan below `value`, if any."""
    moved = list(assignee)
    for job, home in enumerate(assignee):
        for resource in range(len(p.speeds)):
            if resource == home:
                continue
            moved[job] = resource
            moved_makespan = makespan(p, moved)
            if moved_makespan < value and not same(moved_makespan, value):
                return job, resource
        moved[job] = home
    return None


def check_oracle_value(p: Problem, assignee: Sequence[int], value: float) -> None:
    """The oracle's value is the makespan of the assignment it returned."""
    check_indices(p, assignee)
    if not same(makespan(p, assignee), value):
        raise CheckFailed(
            f"oracle value {value!r} but its assignment has makespan {makespan(p, assignee)!r}"
        )


def check_oracle_unwindowed(p: Problem, assignee: Sequence[int], value: float) -> None:
    """Between the lower bound and LPT, and no single-job move improves it."""
    check_oracle_value(p, assignee, value)
    check_above_bound(value, lower_bound(p))
    lpt = lpt_makespan(p)
    if value > lpt and not same(value, lpt):
        raise CheckFailed(f"oracle value {value!r} is worse than the LPT schedule {lpt!r}")
    move = improving_move(p, assignee, value)
    if move is not None:
        raise CheckFailed(f"oracle value {value!r} improves by moving job {move[0]} to {move[1]}")


def exhaustive_penalised_minimum(p: Problem) -> float:
    """Minimum penalised fitness over every assignment, by plain enumeration."""
    n, m = len(p.speeds), len(p.lengths)
    if n**m > EXHAUSTIVE_LIMIT:
        raise ValueError(f"{n}^{m} assignments exceed the exhaustive limit")
    return min(penalised(p, a) for a in itertools.product(range(n), repeat=m))


def is_penalised_optimum(p: Problem, assignee: Sequence[int], value: float, optimum: float) -> bool:
    """True when the oracle's answer reaches the penalised optimum `optimum`."""
    return same(penalised(p, assignee), optimum) and same(value, optimum)
