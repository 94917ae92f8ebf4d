"""The benchmark's workloads, the rounds that run them, and their metrics.

A workload is a fixed list of solver runs (five solvers x its solver
instances, one solver seed, short runs repeated) and oracle calls, plus one
CSV export of the solver results.  That list is one round.  A run repeats whole rounds until
its time is up, so every run attempts the same operations in the same
proportions, and each later round must reproduce the first exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import statistics
from pathlib import Path
from typing import Callable

from gridsched import baselines, benchstats, datasets, fuzzy_de, model
from gridsched.benchstats import SolverSpec, StatsSummary
from gridsched.datasets import GeneratorSpec
from gridsched.fuzzy_de import RunResult
from gridsched.model import GridInstance

import checks
from refclock import ScaledClock, reference_task
from tracing import Tracer

SOLVERS = ("fuzzy-de", "de", "ga", "fuzzy-pso", "sa")
WORKLOADS = ("fixtures", "large", "oracle")

# One solver seed everywhere: the seed-to-seed spread of a single run's
# makespan (coefficient of variation 5-17 % at a tenth of the budget on
# 20x1000) would swamp any bound on gap_pct, so the solver seed is fixed.
SOLVER_SEED = 0

FIXTURES = ("r3_j13", "r5_j100", "r8_j60", "r10_j50")
ORACLE_FIXTURE = "r3_j13"

# The large solver instance is fixed for the same reason as the solver seed.
LARGE_INSTANCE = GeneratorSpec(20, 1000, seed=2014)

# 3x7 windowed instances, fixed: the oracle minimises plain makespan, so on
# seeds 15 and 18 it misses the penalised optimum every time.
WINDOWED_SEEDS = tuple(range(13, 20))
WINDOW = ((0.0, 5.0), (20.0, 60.0))

# Each solver's default budget is about 25 000 evaluations.  The workloads
# divide it so that one call takes well under a second: on a shared machine
# the median of many short calls is steady between runs (about 5 % apart)
# where the median of three long ones is not (10-15 %).
FIXTURES_DIVISOR = 10
LARGE_DIVISOR = 25
ORACLE_DIVISOR = 10
# Setup warm-up runs spend a five-hundredth.
WARM_UP = 500

# Calls per round of solvers whose divided-budget run takes under about
# 0.1 s, so that their median rests on as many samples as the longer ones'.
LARGE_REPEATS = {"de": 2, "ga": 2, "sa": 8}
ORACLE_REPEATS = {solver: 8 for solver in SOLVERS}

END_TO_END_UNITS = {
    "setup_s": "s",
    **{f"solve_s.{s}": "s" for s in SOLVERS},
    **{f"gap_pct.{s}": "%" for s in SOLVERS},
    "oracle_s": "s",
    "solves_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SELF_TIMED = (
    "model.repair_stack",
    "model.batch_defuzzify",
    "model.brute_force_optimum",
    "fuzzy_de.solve",
    "baselines.ga_solve",
    "baselines.sa_solve",
    "baselines.crisp_de_solve",
    "baselines.fuzzy_pso_solve",
    "baselines.pso_step",
    "baselines.reflect_positions",
    "baselines.decode_positions",
    "benchstats.export_csv",
    "datasets.generate_instance",
    "datasets.load_instance",
)

PER_LAYER_UNITS = {
    **{
        f"model.batch_fitness.{what}.{s}": unit
        for s in SOLVERS
        for what, unit in (("calls", "count"), ("rows", "count"), ("self_s", "s"), ("repeat_rows", "count"))
    },
    "model.repair_stack.cells": "count",
    "model.brute_force_optimum.assignments": "count",
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"result.last_improvement.{s}": "iteration" for s in SOLVERS},
    "bench.trace_overhead_s": "s",
    "bench.reference_s": "s",
}

TRACED_MODULES = {
    "model": model,
    "fuzzy_de": fuzzy_de,
    "baselines": baselines,
    "benchstats": benchstats,
    "datasets": datasets,
}


def traced(tracer: Tracer):
    """Context in which the traced modules' public functions record spans."""
    return tracer.installed(TRACED_MODULES, benchstats.ALGORITHMS)


@dataclasses.dataclass(frozen=True)
class Target:
    """One instance the workload runs solvers or the oracle on."""

    name: str
    instance: GridInstance
    problem: checks.Problem


@dataclasses.dataclass
class Workload:
    specs: dict[str, SolverSpec]
    solver_targets: list[Target]
    oracle_targets: list[Target]
    repeats: dict[str, int] = dataclasses.field(default_factory=dict)
    clock: ScaledClock = dataclasses.field(default_factory=ScaledClock)
    bounds: dict[str, float] = dataclasses.field(default_factory=dict)
    penalised_optima: dict[str, float] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Round:
    # Times are scaled to the reference speed (refclock.py).
    # (solver, instance) -> (result, time of each repeated call)
    solves: dict[tuple[str, str], tuple[RunResult, list[float]]]
    # instance -> (assignee, value, time)
    oracles: dict[str, tuple[tuple[int, ...], float, float]]
    export_s: float
    failed: int = 0

    @property
    def calls(self) -> int:
        return sum(len(times) for _, times in self.solves.values()) + len(self.oracles)

    @property
    def attempted(self) -> int:
        return self.calls + 1

    @property
    def busy_s(self) -> float:
        return (
            sum(sum(times) for _, times in self.solves.values())
            + sum(elapsed for _, _, elapsed in self.oracles.values())
            + self.export_s
        )


def target(name: str, instance: GridInstance) -> Target:
    problem = checks.Problem(
        speeds=tuple(r.speed for r in instance.resources),
        starts=tuple(r.start_time for r in instance.resources),
        ends=tuple(r.end_time for r in instance.resources),
        lengths=tuple(j.length for j in instance.jobs),
    )
    return Target(name, instance, problem)


def solver_specs(divisor: int) -> dict[str, SolverSpec]:
    """Each solver's default spec, its evaluation budget divided by `divisor`.

    Population solvers run 1/divisor of their default iterations.  SA's
    cooling rate is raised to the power `divisor`, which divides its number
    of temperature levels, and so its evaluations, by the same factor.
    """
    specs = {}
    for solver in SOLVERS:
        spec = benchstats.make_spec(solver)
        if solver == "sa":
            config = dataclasses.replace(spec.config, cooling_rate=spec.config.cooling_rate**divisor)
            specs[solver] = SolverSpec(solver, config)
        else:
            specs[solver] = benchstats.make_spec(solver, iters=spec.config.max_iterations // divisor)
    return specs


def nominal_rows(spec: SolverSpec, result: RunResult) -> int:
    """Rows a run may score at most: pop x (iters + 1), or 1 + levels x steps for SA."""
    config = spec.config
    if spec.algorithm == "sa":
        return 1 + result.iterations_run * config.steps_per_temperature
    population = getattr(config, "population_size", None) or config.swarm_size
    return population * (config.max_iterations + 1)


def build(name: str, root: Path, seed: int) -> Workload:
    """Load or generate the workload's instances; `seed` picks the generated ones."""
    fixture_dir = root / "fixtures"

    def fixture(fixture_name: str) -> Target:
        return target(fixture_name, datasets.load_instance(fixture_dir / f"{fixture_name}.json"))

    def generated(spec: GeneratorSpec) -> Target:
        label = f"g{spec.resource_count}x{spec.job_count}" + ("w" if spec.window else "")
        return target(f"{label}_s{spec.seed}", datasets.generate_instance(spec))

    if name == "fixtures":
        solver_targets = [fixture(f) for f in FIXTURES]
        workload = Workload(solver_specs(FIXTURES_DIVISOR), solver_targets, [solver_targets[0]])
    elif name == "large":
        workload = Workload(
            solver_specs(LARGE_DIVISOR),
            [generated(LARGE_INSTANCE)],
            [generated(GeneratorSpec(3, 13, seed=seed))],
            LARGE_REPEATS,
        )
    elif name == "oracle":
        exact = fixture(ORACLE_FIXTURE)
        oracle_targets = [
            exact,
            generated(GeneratorSpec(4, 10, seed=seed)),
            generated(GeneratorSpec(2, 20, seed=seed)),
        ] + [generated(GeneratorSpec(3, 7, window=WINDOW, seed=s)) for s in WINDOWED_SEEDS]
        workload = Workload(solver_specs(ORACLE_DIVISOR), [exact], oracle_targets, ORACLE_REPEATS)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return workload


def compute_references(workload: Workload) -> None:
    """The checkers' own answers: lower bounds, and penalised optima where windowed."""
    for t in workload.solver_targets + workload.oracle_targets:
        if t.problem.windowed:
            workload.penalised_optima[t.name] = checks.exhaustive_penalised_minimum(t.problem)
        else:
            workload.bounds[t.name] = checks.lower_bound(t.problem)


def warm_up(workload: Workload) -> None:
    """One short run of every solver, twice to check determinism, and one oracle call."""
    first = workload.solver_targets[0]
    for solver, spec in solver_specs(WARM_UP).items():
        runs = [benchstats.run_solver(first.instance, spec, SOLVER_SEED) for _ in range(2)]
        check_identical(runs[0], runs[1], f"{solver} warm-up on {first.name}")
    model.brute_force_optimum(datasets.generate_instance(GeneratorSpec(2, 8, seed=0)))
    reference_task()


def check_identical(a: RunResult, b: RunResult, what: str) -> None:
    """A repeated seed must reproduce the run exactly."""
    for field in ("best_assignment", "best_makespan", "trace", "iterations_run"):
        if getattr(a, field) != getattr(b, field):
            raise checks.CheckFailed(f"{what}: {field} differs between two runs of one seed")


def run_round(workload: Workload, out_dir: Path, tracer: Tracer | None = None) -> Round:
    """Time one round of calls, then check every output."""
    clock = workload.clock
    solves = {}
    for t in workload.solver_targets:
        for solver, spec in workload.specs.items():
            results, times = [], []
            for _ in range(workload.repeats.get(solver, 1)):
                if tracer:
                    tracer.begin_solve(solver)
                result, elapsed = clock.time(lambda: benchstats.run_solver(t.instance, spec, SOLVER_SEED))
                results.append(result)
                times.append(elapsed)
                if tracer:
                    tracer.end_solve()
                    if tracer.solve_rows > nominal_rows(spec, results[-1]):
                        raise checks.CheckFailed(
                            f"{solver} on {t.name} scored {tracer.solve_rows} rows, "
                            f"more than its budget of {nominal_rows(spec, results[-1])}"
                        )
            for repeat in results[1:]:
                check_identical(results[0], repeat, f"{solver} on {t.name}, repeated call")
            solves[(solver, t.name)] = (results[0], times)
    oracles = {}
    for t in workload.oracle_targets:
        (assignment, value), elapsed = clock.time(lambda: model.brute_force_optimum(t.instance))
        oracles[t.name] = (assignment.assignee, value, elapsed)
    summaries = [
        StatsSummary(
            algorithm=workload.specs[solver].display,
            instance=name,
            runs=1,
            mean_makespan=result.best_makespan,
            stddev_makespan=0.0,
            mean_wall_time=result.wall_time,
            per_run_makespans=(result.best_makespan,),
            per_run_wall_times=(result.wall_time,),
            per_run_traces=(result.trace,),
        )
        for (solver, name), (result, _) in solves.items()
    ]
    _, export_s = clock.time(lambda: benchstats.export_csv(summaries, out_dir))

    done = Round(solves, oracles, export_s)
    check_round(workload, done)
    check_export(summaries, out_dir)
    return done


def check_round(workload: Workload, done: Round) -> None:
    """Independent checks of every solver result and oracle answer of a round.

    Counts the oracle answers that miss the penalised optimum on windowed
    instances as failed operations; every other disagreement raises.
    """
    problems = {t.name: t.problem for t in workload.solver_targets + workload.oracle_targets}
    for (solver, name), (result, _) in done.solves.items():
        what = f"{solver} on {name}"
        try:
            checks.check_assignment(problems[name], result.best_assignment.assignee, result.best_makespan)
            checks.check_trace(result.trace, result.iterations_run, result.best_makespan)
            checks.check_above_bound(result.best_makespan, workload.bounds[name])
            if name in done.oracles:
                checks.check_above_bound(result.best_makespan, done.oracles[name][1])
        except checks.CheckFailed as exc:
            raise checks.CheckFailed(f"{what}: {exc}") from exc
    for name, (assignee, value, _) in done.oracles.items():
        p = problems[name]
        try:
            if p.windowed:
                checks.check_oracle_value(p, assignee, value)
                optimum = workload.penalised_optima[name]
                if not checks.is_penalised_optimum(p, assignee, value, optimum):
                    done.failed += 1
            else:
                checks.check_oracle_unwindowed(p, assignee, value)
        except checks.CheckFailed as exc:
            raise checks.CheckFailed(f"oracle on {name}: {exc}") from exc


def check_export(summaries: list[StatsSummary], out_dir: Path) -> None:
    """The CSVs hold one row per run and one per trace point, with exact values."""
    with open(out_dir / benchstats.RUNS_CSV, encoding="utf-8", newline="") as handle:
        runs = list(csv.reader(handle))[1:]
    with open(out_dir / benchstats.TRACES_CSV, encoding="utf-8", newline="") as handle:
        traces = list(csv.reader(handle))[1:]
    expected_runs = [[s.algorithm, s.instance, repr(s.per_run_makespans[0])] for s in summaries]
    if [row[1:4] for row in runs] != expected_runs:
        raise checks.CheckFailed("runs.csv does not list the round's results")
    expected_points = [repr(v) for s in summaries for v in s.per_run_traces[0]]
    if [row[3] for row in traces] != expected_points:
        raise checks.CheckFailed("traces.csv does not hold the round's traces")


def check_same_round(first: Round, later: Round, what: str) -> None:
    """A later round of the same seeds must reproduce the first exactly."""
    for key, (result, _) in first.solves.items():
        check_identical(result, later.solves[key][0], f"{what}: {key[0]} on {key[1]}")
    for name, (assignee, value, _) in first.oracles.items():
        if later.oracles[name][:2] != (assignee, value):
            raise checks.CheckFailed(f"{what}: oracle on {name} differs between rounds")


def run_rounds(
    workload: Workload,
    out_dir: Path,
    until: Callable[[list[Round]], bool],
    tracer: Tracer | None = None,
) -> list[Round]:
    """Whole rounds until `until(rounds)` holds; at least one."""
    rounds = [run_round(workload, out_dir, tracer)]
    while not until(rounds):
        rounds.append(run_round(workload, out_dir, tracer))
        check_same_round(rounds[0], rounds[-1], f"round {len(rounds)}")
    return rounds


def end_to_end(workload: Workload, rounds: list[Round]) -> dict[str, float]:
    """Every end-to-end metric but setup_s and peak_rss_mb, from the timed rounds."""
    metrics = {}
    for solver in SOLVERS:
        times = []
        gaps = []
        for t in workload.solver_targets:
            times.append(statistics.median(w for r in rounds for w in r.solves[(solver, t.name)][1]))
            best = statistics.median(r.solves[(solver, t.name)][0].best_makespan for r in rounds)
            gaps.append((best / workload.bounds[t.name] - 1.0) * 100.0)
        metrics[f"solve_s.{solver}"] = math.fsum(times)
        metrics[f"gap_pct.{solver}"] = statistics.fmean(gaps)
    metrics["oracle_s"] = math.fsum(
        statistics.median(r.oracles[t.name][2] for r in rounds) for t in workload.oracle_targets
    )
    # Every round makes the same calls; the median round resists one slow call.
    metrics["solves_per_s"] = rounds[0].calls / statistics.median(r.busy_s for r in rounds)
    return metrics


def last_improvement(trace: tuple[float, ...]) -> int:
    """Index of the last trace point that improved on the one before (0 if none)."""
    return max((i for i in range(1, len(trace)) if trace[i] < trace[i - 1]), default=0)


def per_layer(
    tracer: Tracer, untraced: list[Round], traced: list[Round], clock: ScaledClock
) -> dict[str, float]:
    """Per-layer metrics of the traced rounds, per round, plus the tracing overhead.

    `clock` timed the untraced rounds; its median reference time shows the
    speed the machine gave the run.
    """
    k = len(traced)
    metrics = {}
    for solver in SOLVERS:
        metrics[f"model.batch_fitness.calls.{solver}"] = tracer.calls("model.batch_fitness", solver) / k
        metrics[f"model.batch_fitness.rows.{solver}"] = tracer.count("model.batch_fitness.rows", solver) / k
        metrics[f"model.batch_fitness.self_s.{solver}"] = tracer.self_s("model.batch_fitness", solver) / k
        metrics[f"model.batch_fitness.repeat_rows.{solver}"] = (
            tracer.count("model.batch_fitness.repeat_rows", solver) / k
        )
        metrics[f"result.last_improvement.{solver}"] = statistics.median(
            last_improvement(result.trace)
            for r in untraced
            for (s, _), (result, _) in r.solves.items()
            if s == solver
        )
    metrics["model.repair_stack.cells"] = tracer.count("model.repair_stack.cells") / k
    metrics["model.brute_force_optimum.assignments"] = (
        tracer.count("model.brute_force_optimum.assignments") / k
    )
    for name in SELF_TIMED:
        # Instances are made once per traced run, not once per round.
        per = 1 if name.startswith("datasets.") else k
        metrics[f"{name}.self_s"] = tracer.self_s(name) / per
    metrics["bench.trace_overhead_s"] = (
        math.fsum(r.busy_s for r in traced) - math.fsum(r.busy_s for r in untraced)
    ) / k
    metrics["bench.reference_s"] = statistics.median(clock.reference_walls)
    return metrics
