"""Per-layer tracing by wrapping the library's public functions from outside.

Every public function of the traced modules is replaced, for the duration of
a `Tracer.installed()` block, by a wrapper that records a span: calls, total
time, and self time (the span minus the time its traced children took).
Spans are aggregated in memory per (function, solver label) as they close.
Counters that need the call's arguments (rows scored, repeated rows, repaired
cells, enumerated assignments) are taken before the span starts, and the
time they take is charged to no layer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import time
from collections import defaultdict
from types import ModuleType
from typing import Callable, Iterator

import numpy as np

NO_SOLVER = "-"


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[tuple[str, str], SpanStats] = defaultdict(SpanStats)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.label = NO_SOLVER
        self.solve_rows = 0
        self._seen_rows: set[int] = set()
        self._child_time: list[float] = []
        self._counters: dict[str, Callable[..., None]] = {
            "model.batch_fitness": self._count_fitness_rows,
            "model.repair_stack": self._count_cells,
            "model.brute_force_optimum": self._count_assignments,
        }

    def begin_solve(self, label: str) -> None:
        """Attribute what follows to one solver run, with fresh repeat detection."""
        self.label = label
        self.solve_rows = 0
        self._seen_rows.clear()

    def end_solve(self) -> None:
        self.label = NO_SOLVER
        self._seen_rows.clear()

    def _count_fitness_rows(self, instance, assignees, *args, **kwargs) -> None:
        rows = np.asarray(assignees)
        self.counts[("model.batch_fitness.rows", self.label)] += len(rows)
        self.solve_rows += len(rows)
        for row in rows:
            key = hash(row.tobytes())
            if key in self._seen_rows:
                self.counts[("model.batch_fitness.repeat_rows", self.label)] += 1
            else:
                self._seen_rows.add(key)

    def _count_cells(self, stack, *args, **kwargs) -> None:
        self.counts[("model.repair_stack.cells", self.label)] += int(np.size(stack))

    def _count_assignments(self, instance, *args, **kwargs) -> None:
        total = instance.resource_count**instance.job_count
        self.counts[("model.brute_force_optimum.assignments", self.label)] += total

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = self._counters.get(name)

        def traced(*args, **kwargs):
            if counter is not None:
                counted = time.perf_counter()
                counter(*args, **kwargs)
                if self._child_time:
                    self._child_time[-1] += time.perf_counter() - counted
            self._child_time.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += elapsed
                stats = self.spans[(name, self.label)]
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict[str, ModuleType], algorithms: dict) -> Iterator[None]:
        """Wrap every public function of `modules`, and the solvers in `algorithms`.

        `algorithms` is benchstats.ALGORITHMS, which holds the solver functions
        it dispatches to by reference, so its entries are swapped as well.
        Everything is restored on exit.
        """
        originals: list[tuple[ModuleType, str, Callable]] = []
        wrapped: dict[Callable, Callable] = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                originals.append((module, attr, obj))
                wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
                setattr(module, attr, wrapped[obj])
        saved_algorithms = dict(algorithms)
        for key, info in saved_algorithms.items():
            if info.solve in wrapped:
                algorithms[key] = dataclasses.replace(info, solve=wrapped[info.solve])
        try:
            yield
        finally:
            algorithms.update(saved_algorithms)
            for module, attr, obj in originals:
                setattr(module, attr, obj)

    def self_s(self, name: str, label: str | None = None) -> float:
        """Self time of one function, for one solver label or summed over all."""
        return sum(
            stats.self_s
            for (span, span_label), stats in self.spans.items()
            if span == name and (label is None or span_label == label)
        )

    def calls(self, name: str, label: str) -> int:
        return self.spans[(name, label)].calls if (name, label) in self.spans else 0

    def count(self, name: str, label: str | None = None) -> int:
        return sum(
            value
            for (counter, counter_label), value in self.counts.items()
            if counter == name and (label is None or counter_label == label)
        )

    def table(self) -> list[dict]:
        """Every span aggregate, for writing out when the benchmark ends."""
        return [
            {"span": name, "solver": label, **dataclasses.asdict(stats)}
            for (name, label), stats in sorted(self.spans.items())
        ]
