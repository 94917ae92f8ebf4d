"""Repeated-run experiment protocol: aggregation, relative tables, CSV export.

An experiment is `runs` independent solves of one algorithm on one instance,
with per-run seeds derived as master_seed + run index.  Aggregates use the
population standard deviation (divide by N).  Runs are independent, so the
runs of every experiment in a batch may execute in one process pool; results
are merged in run order and are identical to sequential execution.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from gridsched import baselines, fuzzy_de
from gridsched.baselines import GAConfig, PSOConfig, SAConfig
from gridsched.fuzzy_de import RunResult, SolverConfig
from gridsched.model import ConfigurationError, GridInstance, check_count, check_seed

RUNS_CSV = "runs.csv"
TRACES_CSV = "traces.csv"
BASELINE_ALGORITHM = "Fuzzy DE"

AnyConfig = SolverConfig | GAConfig | SAConfig | PSOConfig


@dataclass(frozen=True)
class AlgorithmInfo:
    display: str
    solve: Callable[[GridInstance, AnyConfig], RunResult]
    config_type: type


ALGORITHMS: dict[str, AlgorithmInfo] = {
    "ga": AlgorithmInfo("GA", baselines.ga_solve, GAConfig),
    "sa": AlgorithmInfo("SA", baselines.sa_solve, SAConfig),
    "fuzzy-pso": AlgorithmInfo("Fuzzy PSO", baselines.fuzzy_pso_solve, PSOConfig),
    "de": AlgorithmInfo("DE", baselines.crisp_de_solve, SolverConfig),
    "fuzzy-de": AlgorithmInfo("Fuzzy DE", fuzzy_de.solve, SolverConfig),
}

# CLI override name -> config field name; a solver takes those its config has.
OVERRIDES = {
    "np": "population_size",
    "f": "scaling_factor",
    "cr": "crossover_rate",
    "iters": "max_iterations",
}


def _algorithm(name: str) -> AlgorithmInfo:
    if name not in ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}")
    return ALGORITHMS[name]


@dataclass(frozen=True)
class SolverSpec:
    """A selectable algorithm plus its config; the seed is replaced per run."""

    algorithm: str
    config: AnyConfig

    def __post_init__(self) -> None:
        expected = _algorithm(self.algorithm).config_type
        if not isinstance(self.config, expected):
            raise ConfigurationError(
                f"algorithm {self.algorithm!r} expects a {expected.__name__}, "
                f"got {type(self.config).__name__}"
            )

    @property
    def display(self) -> str:
        return ALGORITHMS[self.algorithm].display


def make_spec(algorithm: str, **overrides: float | int | None) -> SolverSpec:
    """Build a spec from defaults plus CLI-style overrides (np, f, cr, iters).

    Overrides that the chosen algorithm has no field for are ignored.
    """
    info = _algorithm(algorithm)
    names = {field.name for field in fields(info.config_type)}
    kwargs = {
        OVERRIDES[name]: value
        for name, value in overrides.items()
        if value is not None and OVERRIDES.get(name) in names
    }
    return SolverSpec(algorithm=algorithm, config=info.config_type(**kwargs))


def run_solver(instance: GridInstance, spec: SolverSpec, seed: int) -> RunResult:
    """Run one seeded solve of the selected algorithm."""
    config = replace(spec.config, seed=seed)
    return ALGORITHMS[spec.algorithm].solve(instance, config)


@dataclass(frozen=True)
class StatsSummary:
    """Aggregates over the runs of one (algorithm, instance) experiment."""

    algorithm: str
    instance: str
    runs: int
    mean_makespan: float
    stddev_makespan: float
    mean_wall_time: float
    per_run_makespans: tuple[float, ...]
    per_run_wall_times: tuple[float, ...]
    per_run_traces: tuple[tuple[float, ...], ...]


def _solve_task(task: tuple[GridInstance, SolverSpec, int, int]) -> RunResult:
    instance, spec, index, seed = task
    try:
        return run_solver(instance, spec, seed)
    except Exception as exc:
        raise RuntimeError(f"{spec.display} run {index} (seed {seed}) failed: {exc}") from exc


def run_experiments(
    cells: Sequence[tuple[GridInstance, SolverSpec, str]],
    runs: int,
    master_seed: int,
    workers: int = 1,
) -> list[StatsSummary]:
    """Run `runs` seeded solves of every (instance, spec, instance name) cell.

    All cells' runs go to one process pool of min(workers, total runs)
    processes, or run in this process when workers <= 1 or there is one run
    in all.  Summaries come back in cell order.
    """
    check_count("runs", runs, 1)
    check_seed(master_seed)
    check_seed(master_seed + runs - 1)
    tasks = [
        (instance, spec, index, master_seed + index)
        for instance, spec, _ in cells
        for index in range(runs)
    ]
    if workers <= 1 or len(tasks) <= 1:
        results = list(map(_solve_task, tasks))
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(_solve_task, tasks))
    summaries = []
    for cell_index, (_, spec, name) in enumerate(cells):
        cell_results = results[cell_index * runs : (cell_index + 1) * runs]
        makespans = np.array([r.best_makespan for r in cell_results])
        wall_times = np.array([r.wall_time for r in cell_results])
        summaries.append(
            StatsSummary(
                algorithm=spec.display,
                instance=name,
                runs=runs,
                mean_makespan=float(makespans.mean()),
                stddev_makespan=float(makespans.std()),
                mean_wall_time=float(wall_times.mean()),
                per_run_makespans=tuple(float(x) for x in makespans),
                per_run_wall_times=tuple(float(x) for x in wall_times),
                per_run_traces=tuple(r.trace for r in cell_results),
            )
        )
    return summaries


def run_experiment(
    instance: GridInstance,
    spec: SolverSpec,
    runs: int,
    master_seed: int,
    instance_name: str = "instance",
    workers: int = 1,
) -> StatsSummary:
    """Execute `runs` independent seeded solves and aggregate them."""
    return run_experiments([(instance, spec, instance_name)], runs, master_seed, workers)[0]


def default_workers(env: Mapping[str, str] | None = None) -> int:
    """Worker count for bench runs; GRIDSCHED_THREADS sets it, 0 or unset means auto.

    Auto is the number of CPUs this process may run on, where the platform
    reports its affinity mask, and the machine's CPU count elsewhere.
    """
    env = os.environ if env is None else env
    raw = env.get("GRIDSCHED_THREADS", "0")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"GRIDSCHED_THREADS must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ConfigurationError(f"GRIDSCHED_THREADS must be >= 0, got {value}")
    if value == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return value


@dataclass(frozen=True)
class RelativeTable:
    """Mean-makespan deltas of every algorithm against the baseline row."""

    deltas: dict[str, dict[str, float]]
    averages: dict[str, float]


def relative_performance(
    means: Mapping[str, Mapping[str, float]], baseline: str = BASELINE_ALGORITHM
) -> RelativeTable:
    """Per-instance mean differences vs the baseline, plus per-algorithm averages.

    The baseline's own row is included and is identically zero.
    """
    if baseline not in means:
        raise ConfigurationError(f"means table has no {baseline!r} row")
    if len(means) < 2:
        raise ConfigurationError("means table needs at least one non-baseline row")
    instances = tuple(means[baseline])
    deltas: dict[str, dict[str, float]] = {}
    averages: dict[str, float] = {}
    for algorithm, row in means.items():
        if set(row) != set(instances):
            raise ConfigurationError(
                f"row {algorithm!r} covers {sorted(row)}, expected {sorted(instances)}"
            )
        delta_row = {inst: row[inst] - means[baseline][inst] for inst in instances}
        deltas[algorithm] = delta_row
        averages[algorithm] = sum(delta_row.values()) / len(instances)
    return RelativeTable(deltas=deltas, averages=averages)


def export_csv(results: Sequence[StatsSummary], out_dir: str | Path) -> None:
    """Write runs.csv (one row per run) and traces.csv (one row per generation)."""
    if not results:
        raise ConfigurationError("no results to export")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / RUNS_CSV, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["run_id", "algorithm", "instance", "makespan", "wall_time_s"])
        for summary in results:
            for run_id, (makespan, wall) in enumerate(
                zip(summary.per_run_makespans, summary.per_run_wall_times)
            ):
                writer.writerow([run_id, summary.algorithm, summary.instance, repr(makespan), repr(wall)])
    write_traces(
        out / TRACES_CSV,
        ((s.algorithm, s.instance, trace) for s in results for trace in s.per_run_traces),
    )


def write_traces(path: str | Path, traces: Iterable[tuple[str, str, Sequence[float]]]) -> None:
    """Write (algorithm, instance, trace) triples as traces CSV rows, one per generation."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["algorithm", "instance", "generation", "best_makespan"])
        for algorithm, instance, trace in traces:
            for generation, value in enumerate(trace):
                writer.writerow([algorithm, instance, generation, repr(value)])


def _pivot(
    results: Sequence[StatsSummary], value: Callable[[StatsSummary], float]
) -> dict[str, dict[str, float]]:
    """Pivot summaries into {algorithm: {instance: value(summary)}}."""
    table: dict[str, dict[str, float]] = {}
    for summary in results:
        table.setdefault(summary.algorithm, {})[summary.instance] = value(summary)
    return table


def _format_table(title: str, header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(cell) for cell in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title]
    lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(header)).rstrip())
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def format_report(
    results: Sequence[StatsSummary], display_names: Mapping[str, str] | None = None
) -> str:
    """Fixed-width bench report: mean makespan, its standard deviation and mean
    wall time of each algorithm on each instance, then the relative table.

    The relative table needs a baseline row and at least one other algorithm;
    without them a one-line note stands in its place.
    """
    instances = list(dict.fromkeys(s.instance for s in results))
    header = ["Algorithm"] + [(display_names or {}).get(inst, inst) for inst in instances]
    runs = results[0].runs if results else 0
    means = _pivot(results, lambda s: s.mean_makespan)
    blocks = []
    for title, table in (
        ("Mean makespan", means),
        ("Makespan standard deviation", _pivot(results, lambda s: s.stddev_makespan)),
        ("Mean wall time (s)", _pivot(results, lambda s: s.mean_wall_time)),
    ):
        rows = [[alg] + [f"{row[inst]:.4f}" for inst in instances] for alg, row in table.items()]
        blocks.append(_format_table(f"{title} ({runs} runs)", header, rows))
    if BASELINE_ALGORITHM in means and len(means) > 1:
        relative = relative_performance(means)
        rows = [
            [alg] + [f"{row[inst]:.5f}" for inst in instances] + [f"{relative.averages[alg]:.5f}"]
            for alg, row in relative.deltas.items()
        ]
        title = f"Relative performance vs {BASELINE_ALGORITHM}"
        blocks.append(_format_table(title, header + ["Average"], rows))
    else:
        blocks.append(f"(relative table skipped: needs a {BASELINE_ALGORITHM} row "
                      f"and at least one other algorithm)")
    return "\n\n".join(blocks)
