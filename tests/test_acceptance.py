"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The protocol-scale tests
(criteria 3 and 6) execute thousands of seeded solver runs and take several
minutes together; they carry the `slow` marker, so `-m "not slow"` skips them.
"""

import csv
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from gridsched import cli, fuzzy_de, model
from gridsched.baselines import GAConfig, PSOConfig, SAConfig
from gridsched.benchstats import (
    SolverSpec,
    relative_performance,
    run_experiment,
    run_solver,
)
from gridsched.datasets import (
    FIXTURES,
    GeneratorSpec,
    fixture_suite,
    generate_instance,
    load_instance,
    save_instance,
    write_fixtures,
)
from gridsched.fuzzy_de import SolverConfig
from gridsched.model import brute_force_optimum
from reference_data import (
    REPORTED_MEAN_MAKESPANS,
    REPORTED_RELATIVE,
    REPORTED_RELATIVE_AVERAGES,
)

PAIR_NAMES = ("r3_j13", "r5_j100", "r8_j60", "r10_j50")
ALGORITHM_DISPLAYS = ("GA", "SA", "Fuzzy PSO", "DE", "Fuzzy DE")


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {criterion}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_relative_table_arithmetic():
    table = relative_performance(REPORTED_MEAN_MAKESPANS)
    cell_devs = [
        abs(table.deltas[algorithm][instance] - reported)
        for algorithm, row in REPORTED_RELATIVE.items()
        for instance, reported in row.items()
    ]
    average_devs = [
        abs(table.averages[algorithm] - reported)
        for algorithm, reported in REPORTED_RELATIVE_AVERAGES.items()
    ]
    ok = max(cell_devs) <= 5e-3 and max(average_devs) <= 1e-3
    report(
        "1 relative-performance arithmetic",
        ok,
        f"max cell deviation {max(cell_devs):.2e} <= 5e-3, "
        f"max average deviation {max(average_devs):.2e} <= 1e-3",
    )


def test_criterion_2_constraint_preservation():
    # 1000 one-generation cycles of the DE engine with random F and CR on a
    # population that carries over; every repaired trial of every cycle is checked.
    rng = np.random.default_rng(8860)
    n, m = 8, 60
    instance = fixture_suite()["r8_j60"]
    assert (instance.resource_count, instance.job_count) == (n, m)
    genomes = model.repair_stack(rng.random((6, n, m)))
    checked = 0
    violations = 0

    def checked_repair(trials):
        nonlocal checked, violations
        repaired = model.repair_stack(trials)
        for values in repaired:
            checked += 1
            if not np.isfinite(values).all():
                violations += 1
            if (values < 0.0).any() or (values > 1.0).any():
                violations += 1
            if np.abs(values.sum(axis=0) - 1.0).max() > 1e-9:
                violations += 1
        return repaired

    for _ in range(1000):
        scaling = float(rng.uniform(0.05, 2.0))
        rate = float(rng.uniform(0.0, 1.0))
        config = SolverConfig(scaling, rate, population_size=6, max_iterations=1)
        fuzzy_de.evolve(
            instance, genomes, config, rng, checked_repair, model.batch_defuzzify, 0.0
        )
    report(
        "2 constraint preservation",
        violations == 0 and checked == 6000,
        f"{violations} violations in {checked} trials over 1000 cycles",
    )


def _criterion_3_specs():
    return {
        "fuzzy-de": SolverSpec("fuzzy-de", SolverConfig(population_size=30, max_iterations=300)),
        "de": SolverSpec("de", SolverConfig(population_size=30, max_iterations=300)),
        "ga": SolverSpec("ga", GAConfig(population_size=30, max_iterations=300)),
        # 180 temperature levels x 50 steps matches the 9000-evaluation budget.
        "sa": SolverSpec(
            "sa",
            SAConfig(
                initial_temperature=50.0,
                cooling_rate=0.95,
                steps_per_temperature=50,
                min_temperature=5e-3,
            ),
        ),
    }


@pytest.mark.slow
def test_criterion_3_oracle_equivalence():
    required_hits = {"fuzzy-de": 90, "de": 90, "ga": 90, "sa": 80}
    margin = {"fuzzy-de": 1.05, "de": 1.05, "ga": 1.05, "sa": 1.10}
    worst = {name: 100 for name in required_hits}
    slowest_run = 0.0
    for index in range(20):
        instance = generate_instance(
            GeneratorSpec(resource_count=3, job_count=4 + index % 7, seed=1000 + index)
        )
        _, optimum = brute_force_optimum(instance)
        for name, spec in _criterion_3_specs().items():
            summary = run_experiment(
                instance, spec, runs=100, master_seed=0, instance_name=f"i{index}", workers=2
            )
            hits = sum(
                1 for value in summary.per_run_makespans if value <= margin[name] * optimum
            )
            worst[name] = min(worst[name], hits)
            slowest_run = max(slowest_run, max(summary.per_run_wall_times))
    ok = all(worst[name] >= required_hits[name] for name in required_hits) and slowest_run < 10.0
    report(
        "3 oracle equivalence at desk scale",
        ok,
        "worst hits/100 over 20 instances: "
        + ", ".join(f"{name} {worst[name]} (need {required_hits[name]})" for name in sorted(worst))
        + f"; slowest run {slowest_run:.2f}s < 10s",
    )


def _criterion_4_specs(seed):
    return {
        "fuzzy-de": SolverSpec("fuzzy-de", SolverConfig(population_size=8, max_iterations=25)),
        "de": SolverSpec("de", SolverConfig(population_size=8, max_iterations=25)),
        "ga": SolverSpec("ga", GAConfig(population_size=8, max_iterations=25)),
        "sa": SolverSpec(
            "sa",
            SAConfig(
                initial_temperature=20.0,
                cooling_rate=0.85,
                steps_per_temperature=10,
                min_temperature=0.05,
            ),
        ),
        "fuzzy-pso": SolverSpec("fuzzy-pso", PSOConfig(population_size=8, max_iterations=25)),
    }


def test_criterion_4_monotone_convergence():
    rng = np.random.default_rng(4040)
    violations = []
    for name in sorted(_criterion_4_specs(0)):
        for pair in range(50):
            instance = generate_instance(
                GeneratorSpec(
                    resource_count=2 + pair % 3,
                    job_count=3 + pair % 6,
                    seed=int(rng.integers(2**32)),
                )
            )
            seed = int(rng.integers(2**32))
            result = run_solver(instance, _criterion_4_specs(seed)[name], seed)
            trace = result.trace
            if any(earlier < later for earlier, later in zip(trace, trace[1:])):
                violations.append((name, pair))
    report(
        "4 monotone convergence",
        not violations,
        f"{len(violations)} violations over 50 pairs x 5 solvers",
    )


def test_criterion_5_determinism(tmp_path, capsys):
    instance = generate_instance(GeneratorSpec(3, 8, seed=31))
    mismatches = []
    for name, spec in _criterion_4_specs(0).items():
        first = run_solver(instance, spec, 77)
        second = run_solver(instance, spec, 77)
        if (
            first.best_makespan != second.best_makespan
            or first.best_assignment != second.best_assignment
            or first.trace != second.trace
        ):
            mismatches.append(name)
    spec = SolverSpec("fuzzy-de", SolverConfig(population_size=6, max_iterations=20))
    sequential = run_experiment(instance, spec, runs=6, master_seed=5, workers=1)
    parallel = run_experiment(instance, spec, runs=6, master_seed=5, workers=3)
    if (
        sequential.per_run_makespans != parallel.per_run_makespans
        or sequential.per_run_traces != parallel.per_run_traces
    ):
        mismatches.append("sequential-vs-parallel")
    path = tmp_path / "det.json"
    save_instance(instance, path)
    args = ["solve", "--algo", "fuzzy-de", "--seed", "3", "--np", "6", "--iters", "15", str(path)]
    assert cli.main(args) == 0
    out_a = capsys.readouterr().out
    assert cli.main(args) == 0
    out_b = capsys.readouterr().out
    if out_a != out_b:
        mismatches.append("cli-stdout")
    report("5 determinism", not mismatches, f"mismatches: {mismatches or 'none'}")


@pytest.mark.slow
def test_criterion_6_protocol_shape(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GRIDSCHED_THREADS", "2")
    rc = cli.main(["bench", "--fixtures", "--runs", "100", "--seed", "0", "--out", str(tmp_path)])
    stdout = capsys.readouterr().out
    shape_problems = []
    if rc != 0:
        shape_problems.append(f"exit code {rc}")
    for header in (
        "Mean makespan (100 runs)",
        "Makespan standard deviation (100 runs)",
        "Relative performance vs Fuzzy DE",
    ):
        if header not in stdout:
            shape_problems.append(f"missing table {header!r}")
    for display in ALGORITHM_DISPLAYS:
        if display not in stdout:
            shape_problems.append(f"missing algorithm row {display!r}")
    for column in ("(3,13)", "(5,100)", "(8,60)", "(10,50)"):
        if column not in stdout:
            shape_problems.append(f"missing pair column {column!r}")
    if not (tmp_path / "runs.csv").exists() or not (tmp_path / "traces.csv").exists():
        shape_problems.append("missing CSV output")

    makespans = defaultdict(list)
    with open(tmp_path / "runs.csv") as handle:
        for row in csv.DictReader(handle):
            makespans[(row["algorithm"], row["instance"])].append(float(row["makespan"]))
    ordering_problems = []
    for pair in PAIR_NAMES:
        fuzzy_median = float(np.median(makespans[("Fuzzy DE", pair)]))
        sa_median = float(np.median(makespans[("SA", pair)]))
        if not fuzzy_median <= sa_median:
            ordering_problems.append(f"{pair}: fuzzy-de {fuzzy_median:.4f} > sa {sa_median:.4f}")
    ok = not shape_problems and not ordering_problems
    report(
        "6 protocol-shape reproduction",
        ok,
        f"shape: {shape_problems or 'ok'}; ordering fuzzy-de<=sa: {ordering_problems or 'ok'}",
    )


def test_criterion_7_round_trip_and_fixture_stability(tmp_path):
    problems = []
    suite = fixture_suite()
    for name, instance in suite.items():
        path = tmp_path / f"{name}.json"
        save_instance(instance, path)
        if load_instance(path) != instance:
            problems.append(f"{name} round-trip")
    regen_dir = tmp_path / "regen"
    write_fixtures(regen_dir)
    committed = Path(__file__).resolve().parent.parent / "fixtures"
    for fixture in FIXTURES:
        name = f"{fixture.name}.json"
        if (regen_dir / name).read_bytes() != (committed / name).read_bytes():
            problems.append(f"{name} bytes")
    if (regen_dir / "manifest.json").read_bytes() != (committed / "manifest.json").read_bytes():
        problems.append("manifest bytes")
    report("7 round-trip and fixture stability", not problems, f"problems: {problems or 'none'}")
