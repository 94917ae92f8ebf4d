"""Operation times scaled to a fixed speed of the machine.

On a shared host the speed a process gets drifts by 10-40 % over minutes, and
every operation of a run drifts with it, so medians of plain wall time
differ between runs of the same code by more than a change worth catching.
A `ScaledClock` therefore times a fixed reference task, made of numpy and
Python work of the same kinds as the library's and independent of it, right
before and right after each operation.  It reports the operation's wall time
divided by the mean of those two reference times, times REFERENCE_S: the
seconds the operation would take on a machine where the reference task takes
REFERENCE_S, which is about its time on a 2-CPU Xeon VM at 2.1 GHz.
"""

from __future__ import annotations

import time
from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")

# Nominal wall time of one reference_task(), in seconds.
REFERENCE_S = 0.009

_rng = np.random.default_rng(20140724)
_SMALL_LENGTHS = _rng.uniform(10.0, 100.0, size=40)
_SMALL_SPEEDS = _rng.uniform(1.0, 10.0, size=6)
_LARGE = _rng.integers(0, 20, size=(10, 1000))
_LARGE_LENGTHS = _rng.uniform(10.0, 100.0, size=1000)
_LARGE_SPEEDS = _rng.uniform(1.0, 10.0, size=20)


def _scores(assignees: np.ndarray, lengths: np.ndarray, speeds: np.ndarray) -> np.ndarray:
    """Penalised makespan of each row of a batch of assignments, through a one-hot array."""
    onehot = assignees[:, :, None] == np.arange(len(speeds))
    completions = (onehot * lengths[None, :, None]).sum(axis=1) / speeds
    return completions.max(axis=1) + 10.0 * np.clip(completions - 50.0, 0.0, None).sum(axis=1)


def _toy_search(lengths: np.ndarray, speeds: np.ndarray) -> float:
    """A small fixed-seed evolutionary loop, then a single-row local search."""
    rng = np.random.default_rng(7)
    n, m = len(speeds), len(lengths)
    population = rng.integers(0, n, size=(10, m))
    fitness = _scores(population, lengths, speeds)
    for _ in range(50):
        a, b, c = rng.permutation(10), rng.permutation(10), rng.permutation(10)
        mutant = np.mod(population[a] + population[b] - population[c], n)
        trial = np.where(rng.random((10, m)) < 0.9, mutant, population)
        trial_fitness = _scores(trial, lengths, speeds)
        better = trial_fitness < fitness
        population[better] = trial[better]
        fitness = np.where(better, trial_fitness, fitness)
    row = population[int(np.argmin(fitness))].copy()
    best = float(fitness.min())
    for _ in range(200):
        job, resource = int(rng.integers(m)), int(rng.integers(n))
        previous, row[job] = row[job], resource
        value = float((np.bincount(row, weights=lengths, minlength=n) / speeds).max())
        if value <= best:
            best = value
        else:
            row[job] = previous
    return best


def reference_task() -> float:
    """A fixed mix of small-array search steps, single-row scoring and large arrays."""
    total = _toy_search(_SMALL_LENGTHS, _SMALL_SPEEDS)
    for _ in range(3):
        total += float(_scores(_LARGE, _LARGE_LENGTHS, _LARGE_SPEEDS).min())
    return total


class ScaledClock:
    def __init__(self) -> None:
        self._before: float | None = None
        self.reference_walls: list[float] = []

    def _reference(self) -> float:
        started = time.perf_counter()
        reference_task()
        wall = time.perf_counter() - started
        self.reference_walls.append(wall)
        return wall

    def time(self, call: Callable[[], T]) -> tuple[T, float]:
        """Run `call`; return its result and its scaled time in seconds.

        The reference time after one operation is the one before the next.
        """
        if self._before is None:
            self._before = self._reference()
        started = time.perf_counter()
        result = call()
        wall = time.perf_counter() - started
        after = self._reference()
        scaled = wall * REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        return result, scaled
